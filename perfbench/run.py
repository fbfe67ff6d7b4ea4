"""Repository benchmark: four workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload core-trace --seed 1 --seconds 10 --trace 0

Each repetition runs in a fresh interpreter (``worker.py``) so import and
set-up cost are real.  With ``--trace 0`` the run makes
``max(MIN_REPS, round(seconds / REP_SECONDS))`` repetitions and reports
every end-to-end metric in ``BENCHMARK.json``, its timings corrected to
the box's typical speed (``speed.py``); with ``--trace 1`` it runs the
workload once plain and once traced and reports every per-layer metric.
Every repetition's
correctness checks must pass.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("core-trace", "scale-hot", "live-tcp-rw", "core-observed")
#: Repetitions per untraced run, whatever --seconds says.
MIN_REPS = 3
#: Wall seconds one repetition of each workload takes (set-up, measured
#: phase, probes) on a 2-core x86 box with Python 3.11; an untraced run
#: makes ``--seconds / REP_SECONDS`` of them.
REP_SECONDS = {
    "core-trace": 3.6,
    "scale-hot": 4.5,
    "live-tcp-rw": 6.0,
    "core-observed": 4.5,
}
#: Wall seconds one repetition may take before it is killed as hung.
REP_DEADLINE = {
    "core-trace": 60.0,
    "core-plain": 60.0,
    "scale-hot": 60.0,
    "live-tcp-rw": 45.0,
    "core-observed": 90.0,
}
#: The whole run must end well inside the 180 s a run is allowed.
RUN_BUDGET = 165.0


class RepOutcome:
    """One worker process: its result, or how it failed."""

    def __init__(self, workload: str, spawned: float) -> None:
        self.workload = workload
        self.spawned = spawned
        self.result: dict | None = None
        self.offered = 0
        self.error = ""
        self.hung = False

    @property
    def busy_s(self) -> float:
        """Seconds the workload kept the process busy (workloads.Rep)."""
        assert self.result is not None
        return self.result["busy_s"]

    @property
    def raw_setup_s(self) -> float:
        assert self.result is not None
        return self.result["ready"] - self.spawned - self.result["setup_sampling_s"]

    @property
    def raw_us_per_request(self) -> float:
        assert self.result is not None
        return self.busy_s / max(1, self.result["offered"]) * 1e6

    @property
    def setup_s(self) -> float:
        """Set-up time corrected to the box's typical speed (speed.py)."""
        assert self.result is not None
        return self.raw_setup_s * self.result["setup_correction"]

    @property
    def us_per_request(self) -> float:
        """Busy time per request corrected to the box's typical speed."""
        assert self.result is not None
        return self.result["busy_typical_s"] / max(1, self.result["offered"]) * 1e6

    def failures(self) -> int:
        if self.result is None:
            return self.offered
        counts = self.result["counts"]
        return counts["failed"] + counts["shed"] + counts["unanswered"]


def run_worker(
    workload: str,
    seed: int,
    trace: int,
    deadline: float,
    scratch: Path,
    spans: Path | None = None,
) -> RepOutcome:
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--trace",
        str(trace),
        "--deadline",
        f"{deadline:.1f}",
        "--scratch",
        str(scratch),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # A fixed string-hash seed: dict and set layouts (and their cost) do
    # not change between repetitions; results do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    outcome = RepOutcome(workload, time.monotonic())
    try:
        completed = subprocess.run(
            command,
            stdout=subprocess.PIPE,
            env=env,
            cwd=ROOT,
            timeout=deadline + 15.0,
            check=False,
        )
        stdout, code = completed.stdout, completed.returncode
    except subprocess.TimeoutExpired as exc:
        # faulthandler did not end it; subprocess.run killed and reaped it.
        stdout, code = exc.stdout or b"", -9
    elapsed = time.monotonic() - outcome.spawned
    for line in stdout.decode("utf-8", "replace").splitlines():
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "ready" in record and "offered" in record and "counts" not in record:
            outcome.offered = record["offered"]
        elif "counts" in record:
            outcome.result = record
    if outcome.result is None:
        outcome.hung = elapsed >= deadline
        outcome.error = (
            f"{workload} seed {seed}: "
            + ("missed its %.0f s deadline (stacks on stderr)" % deadline if outcome.hung else f"exited with code {code}")
        )
    return outcome


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def pooled_p(samples: list[float], q: int) -> float:
    """Nearest-rank percentile, as repro.metrics.latency computes it."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[rank - 1]


def checks_of(outcomes: list[RepOutcome]) -> list[str]:
    """Failed checks of finished repetitions and crashes.  A hung
    repetition is a failed run, not a failed check: it is reported here
    and its offered requests count as failures."""
    problems: list[str] = []
    for outcome in outcomes:
        if outcome.result is None:
            if outcome.hung:
                print(f"# FAILED RUN: {outcome.error}")
            else:
                problems.append(outcome.error)
            continue
        problems += [f"{outcome.workload}: {check}" for check in outcome.result["checks"]]
    return problems


def same_digest(outcomes: list[RepOutcome], what: str) -> list[str]:
    digests = {outcome.result["digest"] for outcome in outcomes if outcome.result is not None}
    if len(digests) > 1:
        return [f"{what}: simulated outcomes differ across same-seed runs ({sorted(digests)})"]
    return []


def untraced(args, scratch: Path, started: float) -> tuple[dict, list[str]]:
    workload = args.workload
    # A fixed number of repetitions for a given --seconds, so every run of
    # a workload measures the same amount of work.
    count = max(MIN_REPS, round(args.seconds / REP_SECONDS[workload]))
    reps: list[RepOutcome] = []
    for _ in range(count):
        elapsed = time.monotonic() - started
        deadline = min(REP_DEADLINE[workload], RUN_BUDGET - elapsed)
        if deadline < 5.0:
            print(f"# stopping after {len(reps)} repetitions: out of time", file=sys.stderr)
            break
        outcome = run_worker(workload, args.seed, 0, deadline, scratch)
        reps.append(outcome)
        if outcome.result is None and outcome.offered == 0:
            # Failed before any load started: nothing to measure.
            raise SystemExit(f"benchmark could not run: {outcome.error}")
    problems = checks_of(reps)
    done = [rep for rep in reps if rep.result is not None]
    if not done:
        problems.append(f"no {workload} repetition completed")
    if workload != "live-tcp-rw":
        problems += same_digest(reps, workload)
    if workload == "core-observed":
        deadline = min(REP_DEADLINE["core-plain"], RUN_BUDGET - (time.monotonic() - started))
        plain = run_worker("core-plain", args.seed, 0, deadline, scratch)
        problems += checks_of([plain])
        problems += same_digest(reps + [plain], "core-observed vs core-trace")
    writes = [value for rep in done for value in rep.result["write_ms"]]
    reads = [value for rep in done for value in rep.result["read_ms"]]
    offered = sum(rep.result["offered"] if rep.result else rep.offered for rep in reps)
    failed = sum(rep.failures() for rep in reps)
    metrics = {
        "setup_s": median([rep.setup_s for rep in done]),
        "wall_us_per_request": median([rep.us_per_request for rep in done]),
        "write_p50_ms": pooled_p(writes, 50),
        "read_p50_ms": pooled_p(reads, 50),
        # Rule-of-succession estimate of the failure probability: never
        # 0, and a single failure among the offered requests shows.
        "fail_share": (failed + 1) / (offered + 2),
        "peak_rss_mb": median([rep.result["peak_rss_mb"] for rep in done]),
    }
    for name, samples in (("write", writes), ("read", reads)):
        print(
            f"# {name} latency ms: p50 {pooled_p(samples, 50):.4f}  p90 {pooled_p(samples, 90):.4f}"
            f"  p99 {pooled_p(samples, 99):.4f}  (n={len(samples)})"
        )
    print(
        f"# {len(reps)} repetitions ({len(reps) - len(done)} failed), offered {offered}, "
        f"failures {failed}"
    )
    for name, values in (
        ("speed factor", [rep.result["speed_factor"] for rep in done]),
        ("us/request", [rep.us_per_request for rep in done]),
        ("us/request unscaled", [rep.raw_us_per_request for rep in done]),
        ("setup s", [rep.setup_s for rep in done]),
        ("setup s unscaled", [rep.raw_setup_s for rep in done]),
    ):
        print(f"# per repetition, {name}: " + " ".join(f"{value:.4g}" for value in values))
    if done and done[0].result["info"]:
        print(f"# first repetition: {json.dumps(done[0].result['info'], sort_keys=True)}")
    return {**metrics, "attempted": offered, "failed": failed}, problems


def traced(args, scratch: Path, started: float) -> tuple[dict, list[str]]:
    workload = args.workload
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{args.seed}.jsonl"

    def remaining() -> float:
        return min(REP_DEADLINE[workload] * 1.5, RUN_BUDGET - (time.monotonic() - started))

    plain = run_worker(workload, args.seed, 0, remaining(), scratch)
    if plain.result is None and plain.offered == 0:
        raise SystemExit(f"benchmark could not run: {plain.error}")
    traced_rep = run_worker(workload, args.seed, 1, remaining(), scratch, spans=spans)
    reps = [plain, traced_rep]
    problems = checks_of(reps)
    if workload != "live-tcp-rw":
        problems += same_digest(reps, f"{workload} traced vs untraced")
    layers: dict[str, float] = {}
    if traced_rep.result is not None:
        layers = dict(traced_rep.result["layers"])
        if plain.result is not None:
            layers["bench.tracing_overhead"] = (
                traced_rep.result["busy_typical_s"] / plain.result["busy_typical_s"]
            )
        print(f"# spans of the traced run: {spans.relative_to(ROOT)}")
    if workload == "core-observed":
        core = run_worker("core-plain", args.seed, 0, remaining(), scratch)
        reps.append(core)
        problems += checks_of([core])
        problems += same_digest([plain, core], "core-observed vs core-trace")
        if plain.result is not None and core.result is not None:
            layers["obs.overhead_ratio"] = plain.us_per_request / core.us_per_request
    offered = sum(rep.result["offered"] if rep.result else rep.offered for rep in reps)
    failed = sum(rep.failures() for rep in reps)
    if traced_rep.result is None:
        problems.append(f"traced run produced no layers: {traced_rep.error}")
    return {**layers, "attempted": offered, "failed": failed}, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Terminated from outside: unwind so the running worker is killed and
    # reaped (subprocess.run does that on any exception) and the scratch
    # directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"benchmark could not run: no repro sources under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = time.monotonic()
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = traced if args.trace else untraced
        values, problems = run(args, scratch, started)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']:<34} {value:>16.6f} {metric['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems
    print(f"# correctness checks: {'pass' if correct else 'FAIL'}; wall {time.monotonic() - started:.1f} s")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(values["attempted"]),
                "failed": int(values["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
