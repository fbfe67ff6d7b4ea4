"""The four benchmark workloads and one repetition of each.

A repetition builds a deployment from the seed, runs the load, checks
the outcome and returns what it measured.  It runs in a fresh
interpreter (``worker.py``), so import and set-up cost are paid every
time, as a user of the CLI pays them.

Why these four (see README.md for the layers each one loads):

* ``core-trace`` — the paper's request path on the sim substrate.
* ``scale-hot`` — a contended 10k-entity scale host: Avantan, batching,
  the entity table and the directory do the work.
* ``live-tcp-rw`` — real loopback sockets and the JSON wire, with reads.
* ``core-observed`` — core-trace with every observability plane on.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import tempfile
import time
from dataclasses import replace
from time import perf_counter
from typing import Any, Callable

from repro.core.client import WorkloadClient
from repro.core.requests import ClientRequest, RequestKind, RequestStatus
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.metrics.latency import percentile
from repro.obs.bus import NullSink
from repro.runtime.clock import LiveClock
from repro.runtime.metrics import LiveRunStats
from repro.runtime.tcp_transport import TcpTransport
from repro.scale.harness import (
    ScaleConfig,
    ScaleLoadDriver,
    audit_conservation,
    build_scale_deployment,
    run_scale,
)
from repro.workload.phase_shift import shifted_trace
from repro.workload.trace import SyntheticAzureTrace, TraceConfig
from speed import ELASTICITY, SCAN_ELASTICITY, SETUP_ELASTICITY, Speedometer

WORKLOADS = ("core-trace", "scale-hot", "live-tcp-rw", "core-observed")

#: Simulated seconds of trace load in one core-trace repetition.
CORE_DURATION = 120.0
#: core-observed runs about six times slower, so it replays a shorter
#: window; the plain run it is compared with uses the same window.
OBSERVED_DURATION = 60.0
#: Simulated seconds of open-loop load in one scale-hot repetition.
SCALE_DURATION = 4.0
#: Wall seconds of load in one live-tcp-rw repetition.
LIVE_DURATION = 5.0
#: Acquires live-tcp-rw offers in its window, whatever the seed: the
#: seed's trace shapes them across regions and time, and the demand scale
#: is set to reach this count (270 acquires/s, 4.3-5.9x the trace's rate
#: over seeds 1-12, about 5x on average).  Well below the knee (10-20x),
#: so the loop is loaded but nothing is shed; and every seed offers the
#: same load, so latency and cost per request compare across seeds.
LIVE_ACQUIRES = 1350
LIVE_READ_RATIO = 0.2
#: Simulated seconds a core run may take after the load window to answer
#: the requests still in flight.
CORE_DRAIN_LIMIT = 60.0
#: Wall seconds a live run may take after the load window to drain.
LIVE_DRAIN_LIMIT = 5.0
#: Closed-loop §5.8 reads sent after a core sim run (see probe_reads).
READ_PROBES = 100
#: Wall seconds of global-read probes after a scale run (see
#: probe_scale_reads).  The box's speed swings by a quarter between
#: 0.1 s windows, so the probes are spread over half a second.
PROBE_SECONDS = 0.5
#: Simulated seconds between speed samples in a core run.
CORE_SAMPLE_EVERY = 2.0
#: Load-driver ticks between speed samples in a scale run (three
#: drivers tick every 50 simulated ms).
SCALE_SAMPLE_EVERY = 4


def core_config(
    seed: int,
    duration: float = CORE_DURATION,
    trace_seed: int | None = None,
    max_outstanding: int | None = None,
) -> ExperimentConfig:
    """samya-majority, 5 paper regions, synthetic Azure trace at the
    paper's rate, seasonal predictor, writes only.

    ``max_outstanding=None`` is the unbounded open loop: the client
    window never sheds, so every offered request is answered.
    """
    return ExperimentConfig(
        system="samya-majority",
        duration=duration,
        seed=seed,
        trace=TraceConfig(seed=seed if trace_seed is None else trace_seed),
        predictor="seasonal",
        max_outstanding=max_outstanding,
    )


def observed_config(seed: int, trace_dir: str) -> ExperimentConfig:
    """core-trace's inputs with every obs plane on, as operators run it."""
    return replace(
        core_config(seed, OBSERVED_DURATION),
        trace_path=os.path.join(trace_dir, "trace.jsonl.gz"),
        audit=True,
        metrics=True,
        perf=True,
        flow=True,
        watchdog=True,
    )


def scale_config(seed: int, duration: float = SCALE_DURATION) -> ScaleConfig:
    """BENCH_scale_smoke's deployment: 10k entities x 3 regions,
    batching, a 256-entity hot set taking half the requests, open loop
    at 4,000 req/s per region."""
    return ScaleConfig(
        entities=10_000,
        regions=3,
        maximum=30,
        duration=duration,
        rate=4_000.0,
        seed=seed,
        batching=True,
        hot_entities=256,
        hot_weight=0.5,
    )


def live_config(seed: int) -> ExperimentConfig:
    config = replace(core_config(seed, LIVE_DURATION), mode="live", read_ratio=LIVE_READ_RATIO)
    # The window is one compressed trace interval: its creations, summed
    # over the regions' phase-shifted copies, are the acquires at scale 1.
    trace = SyntheticAzureTrace(config.trace)
    natural = sum(
        int(shifted_trace(trace, region)[0][config.start_interval]) for region in config.regions
    )
    return replace(config, demand_scale=LIVE_ACQUIRES / natural)


def digest(outcome: dict[str, Any]) -> str:
    """Short stable hash of a simulated outcome."""
    blob = json.dumps(outcome, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


class Rep:
    """What one repetition measured; serialised by the worker."""

    def __init__(self, workload: str, speed: Speedometer | None = None) -> None:
        self.workload = workload
        #: Samples the box's speed through the repetition (see speed.py).
        self.speed = speed if speed is not None else Speedometer()
        self.offered = 0
        #: committed (writes), reads, rejected, failed, shed, unanswered,
        #: skipped — they must sum to ``offered``.
        self.counts: dict[str, int] = {}
        #: Wall seconds from load start through drain and final audit.
        self.measured_s = 0.0
        #: Process CPU seconds over the same phase.
        self.cpu_s = 0.0
        #: Seconds the workload kept the process busy in the measured
        #: phase: the wall time, or on live-tcp-rw (whose phase lasts as
        #: long as its schedule) the CPU time.
        self.busy_s = 0.0
        self.outcome: dict[str, Any] = {}
        self.checks: list[str] = []
        self.write_ms: list[float] = []
        self.read_ms: list[float] = []
        self.info: dict[str, Any] = {}
        self.layers: dict[str, float] = {}

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.checks.append(message)

    def as_dict(self) -> dict[str, Any]:
        return {
            "workload": self.workload,
            "offered": self.offered,
            "counts": self.counts,
            "measured_s": self.measured_s,
            "cpu_s": self.cpu_s,
            "busy_s": self.busy_s,
            # Corrected to the box's typical speed (speed.py).
            "busy_typical_s": self.busy_s * self.speed.factor(ELASTICITY[self.workload]),
            "speed_factor": self.speed.factor(),
            "setup_correction": self.speed.factor(SETUP_ELASTICITY),
            "outcome": self.outcome,
            "digest": digest(self.outcome),
            "checks": self.checks,
            "write_ms": self.write_ms,
            "read_ms": self.read_ms,
            "info": self.info,
            "layers": self.layers,
        }


class Phase:
    """Wall and CPU clock of the measured phase, less speed sampling."""

    def __init__(self, rep: Rep) -> None:
        self.rep = rep
        self.sampling = rep.speed.spent
        self.start = perf_counter()
        self.cpu = time.process_time()

    def stop(self) -> None:
        rep = self.rep
        sampling = rep.speed.spent - self.sampling
        rep.measured_s = perf_counter() - self.start - sampling
        rep.cpu_s = time.process_time() - self.cpu - sampling
        rep.busy_s = rep.cpu_s if rep.workload == "live-tcp-rw" else rep.measured_s


# -- core (sim) ----------------------------------------------------------------


def offered_operations(clients: list[WorkloadClient]) -> int:
    return sum(len(client._operations) for client in clients)


def run_core(
    rep: Rep,
    config: ExperimentConfig,
    on_load_start: Callable[[int], None],
    tracer=None,
    read_probes: int = READ_PROBES,
) -> Experiment:
    """Build, run and drain one sim experiment, then probe its reads."""
    experiment = Experiment(config)
    rep.offered = offered_operations(experiment.clients)
    kernel = experiment.kernel
    on_load_start(rep.offered)
    if tracer is not None:
        tracer.reset()
    phase = Phase(rep)
    experiment.start()
    # Consecutive run() windows compose exactly (Kernel.run), so slicing
    # the load for speed samples leaves the simulated outcome unchanged.
    until = 0.0
    while until < config.duration:
        until = min(until + CORE_SAMPLE_EVERY, config.duration)
        kernel.run(until=until)
        rep.speed.sample()
    committed_at_load_end = experiment.metrics.committed
    # Drain: answer what is still in flight before the final audit.
    while (
        sum(client.unanswered() for client in experiment.clients)
        and kernel.now < config.duration + CORE_DRAIN_LIMIT
    ):
        kernel.run(until=kernel.now + 1.0)
        rep.speed.sample()
    result = experiment.collect()
    phase.stop()
    if tracer is not None:
        rep.layers = experiment_layers(tracer, experiment, rep)
    skipped = sum(client.skipped_releases for client in experiment.clients)
    rep.counts = {
        "committed": result.committed,
        "reads": result.committed_reads,
        "rejected": result.rejected,
        "failed": result.failed,
        "shed": result.shed,
        "unanswered": result.unanswered,
        "skipped": skipped,
    }
    totals = result.redistributions
    rep.outcome = {
        "committed_at_load_end": committed_at_load_end,
        **rep.counts,
        "rounds": totals.get("triggered", 0),
        "aborted": totals.get("aborted", 0),
        "sim_write_p50": result.latency.p50,
        "sim_write_p99": result.latency.p99,
        "sim_read_p50": result.read_latency.p50,
    }
    checker = experiment.checker
    rep.check(checker is not None and checker.checks > 0, "conservation checker never ran")
    rep.check(
        checker is None or checker.violations == 0,
        f"{checker.violations if checker else 0} Eq. 1 conservation violations",
    )
    rep.check(not result.audit_violations, f"audit violations: {result.audit_violations[:3]}")
    pledged = [site.name for site in experiment.cluster.sites if site.unresolved_pledge is not None]
    rep.check(not pledged, f"unresolved pledges on {pledged}")
    check_accounting(rep)
    rep.info["events"] = kernel.events_fired
    rep.write_ms = [latency * 1000.0 for latency in experiment.metrics.latencies]
    if read_probes:
        if experiment.obs is not None:
            # collect() closed the trace file; probe events are not part
            # of the run's trace.
            experiment.obs.sink = NullSink()
        rep.read_ms = probe_reads(experiment, read_probes)
    return experiment


class _ProbeClient:
    """Stands in for a WorkloadClient: receives one probe response."""

    name = "probe"

    def __init__(self) -> None:
        self.response = None

    def on_response(self, response, now: float) -> None:
        self.response = response


def probe_reads(experiment: Experiment, count: int) -> list[float]:
    """Simulated ms of §5.8 reads on the drained deployment.

    The core workloads offer writes only, so after the measured phase
    the benchmark sends ``count`` closed-loop reads, one at a time,
    through the first region's app manager and runs the kernel until
    each is answered.  A read fans out to every site, so its latency is
    set by the farthest peer.
    """
    kernel = experiment.kernel
    region = experiment.config.regions[0]
    manager = experiment.cluster.app_managers[region]
    reads: list[float] = []
    for _ in range(count):
        probe = _ProbeClient()
        request = ClientRequest(
            kind=RequestKind.READ,
            entity_id=experiment.entity.id,
            amount=0,
            client=probe.name,
            region=region.value,
            issued_at=kernel.now,
        )
        manager.submit(request, probe)
        while probe.response is None and kernel.step():
            pass
        if probe.response is None:
            raise RuntimeError("probe read was never answered")
        reads.append((kernel.now - request.issued_at) * 1000.0)
    return reads


def check_accounting(rep: Rep) -> None:
    total = sum(rep.counts.values())
    rep.check(
        total == rep.offered,
        f"offered {rep.offered} != sum of outcomes {total} ({rep.counts})",
    )


# -- scale (sim) ---------------------------------------------------------------


def run_scale_rep(
    rep: Rep,
    config: ScaleConfig,
    on_load_start: Callable[[int], None],
    tracer=None,
    probe_seconds: float = PROBE_SECONDS,
):
    deployment = build_scale_deployment(config)
    rep.offered = scale_requests(config)
    on_load_start(rep.offered)
    if tracer is not None:
        tracer.reset()
    # A traced repetition does not sample inside the measured phase: the
    # samples would run inside traced kernel dispatches.
    tick_timer = TickLatency(rep.speed if tracer is None else None)
    tick_timer.install()
    try:
        phase = Phase(rep)
        result, deployment = run_scale(config, deployment=deployment, keep_deployment=True)
        phase.stop()
    finally:
        tick_timer.restore()
    # Compute on this process, so corrected for the box's speed.
    correction = rep.speed.factor(ELASTICITY["scale-hot"])
    rep.write_ms = [value * correction for value in tick_timer.per_request_ms]
    if tracer is not None:
        rep.layers = scale_layers(tracer, deployment, result, rep)
    drivers = deployment.drivers
    rep.counts = {
        "committed": result.committed,
        "reads": 0,
        "rejected": result.rejected,
        "failed": result.failed,
        "shed": 0,
        "unanswered": result.queued_unresolved,
        "skipped": result.skipped,
    }
    rep.outcome = {
        **rep.counts,
        "submitted": result.submitted,
        "rounds_triggered": result.rounds_triggered,
        "rounds_applied": result.rounds_applied,
        "wire_sent": result.wire_sent,
        "immediate": sum(driver.immediate for driver in drivers),
    }
    rep.check(result.drained, "scale run did not drain")
    rep.check(result.audited == config.entities, f"audited {result.audited} of {config.entities} entities")
    rep.check(not result.violations, f"conservation: {result.violations[:3]}")
    check_accounting(rep)
    rep.info["events"] = result.events_fired
    if probe_seconds:
        rep.read_ms = probe_scale_reads(deployment, probe_seconds)
    return result, deployment


def scale_requests(config: ScaleConfig) -> int:
    """Requests the scale load drivers generate, computed independently.

    Mirrors ``ScaleLoadDriver``'s schedule: one tick every ``tick``
    simulated seconds while ``now < duration`` (times accumulate in
    float exactly as the kernel adds delays), each issuing
    ``rate * tick`` requests with the fraction carried over.
    """
    now = 0.0
    carry = 0.0
    per_region = 0
    while True:
        now = now + config.tick
        if now >= config.duration:
            break
        budget = config.rate * config.tick + carry
        count = int(budget)
        carry = budget - count
        per_region += count
    return per_region * config.regions


class TickLatency:
    """Per-request wall time of the scale load, timed per driver tick.

    A scale client request is a local call (directory lookup, then
    ``ScaleSiteHost.submit``) of about 2 us, too short to time one by one
    on this wall clock.  ``ScaleLoadDriver`` issues them ``rate * tick``
    at a time; this hook times each tick from outside and records its
    wall time divided by the requests it issued.  Acquires the local
    balance cannot cover queue behind a round whose work runs in later
    kernel events, so this is the synchronous request path.  Every
    ``SCALE_SAMPLE_EVERY`` ticks the hook also samples the box's speed,
    if given a speedometer.
    """

    def __init__(self, speed: Speedometer | None) -> None:
        self.per_request_ms: list[float] = []
        self.speed = speed
        self._original = None

    def install(self) -> None:
        tick = self._original = ScaleLoadDriver._tick
        samples = self.per_request_ms
        speed = self.speed

        def timed_tick(driver):
            before = driver.submitted + driver.skipped + driver.failed
            start = perf_counter()
            tick(driver)
            elapsed = perf_counter() - start
            issued = driver.submitted + driver.skipped + driver.failed - before
            if issued:
                samples.append(elapsed * 1000.0 / issued)
            if speed is not None and len(samples) % SCALE_SAMPLE_EVERY == 0:
                speed.sample()

        ScaleLoadDriver._tick = timed_tick

    def restore(self) -> None:
        ScaleLoadDriver._tick = self._original


def probe_scale_reads(deployment, seconds: float) -> list[float]:
    """Wall ms of the scale deployment's global read, after the load.

    Scale hosts have no read transaction; the read probe is the
    deployment's global read, the vectorized balance scan of every
    entity on every host that the conservation audit runs, repeated for
    ``seconds``.  A speed sample follows every probe, and the probes are
    corrected for the box's speed over them.
    """
    speed = Speedometer()
    reads: list[float] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        start = perf_counter()
        audit_conservation(deployment, strict=False)
        reads.append((perf_counter() - start) * 1000.0)
        speed.sample()
    correction = speed.factor(SCAN_ELASTICITY)
    return [value * correction for value in reads]


# -- live TCP ------------------------------------------------------------------


class DueTimeLatency:
    """Times each live request from its trace due time, from outside.

    ``WorkloadClient`` stamps a request when its callback runs, which
    hides the loop's own lateness.  This hook wraps ``_issue`` and
    ``on_response`` to remember each request's due time (the operation's
    trace time) and records latency from it.
    """

    def __init__(self) -> None:
        self._due: dict[int, tuple[float, bool]] = {}
        self.write_ms: list[float] = []
        self.read_ms: list[float] = []
        self.lateness_ms: list[float] = []
        self._saved: list[tuple[str, Any]] = []

    def install(self) -> None:
        due = self._due
        lateness = self.lateness_ms
        issue = WorkloadClient._issue
        on_response = WorkloadClient.on_response
        write_ms = self.write_ms
        read_ms = self.read_ms

        def timed_issue(client, operation):
            issued = client.issued
            issue(client, operation)
            if client.issued != issued:
                request_id = next(reversed(client._inflight))
                due[request_id] = (operation.time, operation.kind is RequestKind.READ)
                lateness.append((client.now - operation.time) * 1000.0)

        def timed_response(client, response, now):
            entry = due.pop(response.request_id, None)
            if entry is not None and response.status is RequestStatus.GRANTED:
                (read_ms if entry[1] else write_ms).append((now - entry[0]) * 1000.0)
            on_response(client, response, now)

        self._saved = [("_issue", issue), ("on_response", on_response)]
        WorkloadClient._issue = timed_issue
        WorkloadClient.on_response = timed_response

    def restore(self) -> None:
        for name, original in self._saved:
            setattr(WorkloadClient, name, original)


def run_live(
    rep: Rep,
    config: ExperimentConfig,
    on_load_start: Callable[[int], None],
    tracer=None,
) -> None:
    due_time = DueTimeLatency()
    due_time.install()
    try:
        asyncio.run(_live(rep, config, on_load_start, tracer))
    finally:
        due_time.restore()
    rep.write_ms = due_time.write_ms
    rep.read_ms = due_time.read_ms
    lateness = due_time.lateness_ms
    rep.info["lateness_p50_ms"] = percentile(lateness, 50) if lateness else 0.0
    rep.info["lateness_p99_ms"] = percentile(lateness, 99) if lateness else 0.0


async def _live(rep: Rep, config: ExperimentConfig, on_load_start, tracer) -> None:
    """The live launcher's steps (repro.runtime.cluster.LiveCluster),
    with a drain after the load window so no request is cut off."""
    clock = LiveClock(seed=config.seed)
    transport = TcpTransport(clock, seed=config.seed)
    experiment = Experiment(config, kernel=clock, network=transport)
    rep.offered = offered_operations(experiment.clients)
    await transport.start()
    stats = LiveRunStats(clock, transport)
    stats.install()
    on_load_start(rep.offered)
    if tracer is not None:
        tracer.reset()
    phase = Phase(rep)
    experiment.start()
    await asyncio.sleep(config.duration)
    deadline = perf_counter() + LIVE_DRAIN_LIMIT
    while sum(client.unanswered() for client in experiment.clients) and perf_counter() < deadline:
        await asyncio.sleep(0.01)
    await transport.aclose()
    clock.raise_errors()
    transport.raise_errors()
    result = experiment.collect()
    phase.stop()
    live = stats.as_dict()
    if tracer is not None:
        rep.layers = live_layers(tracer, experiment, live, rep)
    rep.counts = {
        "committed": result.committed,
        "reads": result.committed_reads,
        "rejected": result.rejected,
        "failed": result.failed,
        "shed": result.shed,
        "unanswered": result.unanswered,
        "skipped": sum(client.skipped_releases for client in experiment.clients),
    }
    checker = experiment.checker
    rep.check(checker is not None and checker.checks > 0, "conservation checker never ran")
    rep.check(
        checker is None or checker.violations == 0,
        f"{checker.violations if checker else 0} Eq. 1 conservation violations",
    )
    pledged = [site.name for site in experiment.cluster.sites if site.unresolved_pledge is not None]
    rep.check(not pledged, f"unresolved pledges on {pledged}")
    check_accounting(rep)
    rep.info["drift_avg_ms"] = live["drift_avg_ms"]
    rep.info["messages_dropped"] = live["messages_dropped"]


# -- per-layer metrics (traced repetitions) -------------------------------------


def _per(count: float, base: float) -> float:
    return count / base if base else 0.0


def common_layers(tracer, rep: Rep, requests: int) -> dict[str, float]:
    """Metrics every workload reports the same way."""
    calls = tracer.calls
    values = tracer.values
    encodes = calls.get("codec.encode", 0)
    emits = calls.get("obs.emit", 0)
    rounds = values.get("avantan.rounds", 0)
    finished = calls.get("avantan.decided", 0) + calls.get("avantan.aborted", 0)
    avantan_self = tracer.layer_self("avantan")
    self_total = sum(
        seconds for key, seconds in tracer.self_s.items() if not key.startswith("setup.")
    )
    return {
        "sim.dispatch_self_us": tracer.per_call_us("sim.dispatch"),
        "sim.schedule_us": tracer.per_call_us("sim.schedule"),
        "sim.heap_peak": values.get("sim.heap_peak", 0),
        "sim.noop_event_ratio": _per(tracer.noop_dispatches, tracer.dispatches),
        "net.send_us": tracer.per_call_us("net.send"),
        "net.deliver_self_us": tracer.per_call_us("net.deliver"),
        "codec.encode_us": tracer.per_call_us("codec.encode"),
        "codec.decode_us": tracer.per_call_us("codec.decode"),
        "codec.bytes_per_frame": _per(values.get("codec.bytes", 0), encodes),
        "codec.frames_per_request": _per(encodes, requests),
        "runtime.tcp_send_us": tracer.per_call_us("runtime.tcp_send"),
        "runtime.tcp_dispatch_us": tracer.per_call_us("runtime.tcp_dispatch"),
        "runtime.out_queue_peak": values.get("runtime.out_queue_peak", 0),
        "core.client_us": _per(tracer.self_s.get("core.client", 0.0) * 1e6, requests),
        "core.app_manager_us": _per(tracer.self_s.get("core.app_manager", 0.0) * 1e6, requests),
        "core.site_request_us": _per(tracer.self_s.get("core.site", 0.0) * 1e6, requests),
        "core.local_grant_ratio": _per(
            values.get("core.grants_local", 0),
            values.get("core.grants_local", 0) + values.get("core.grants_waited", 0),
        ),
        "avantan.rounds_per_1k_requests": _per(rounds * 1000.0, requests),
        "avantan.messages_per_round": _per(calls.get("avantan.send", 0), rounds),
        "avantan.self_us_per_round": _per(avantan_self * 1e6, rounds),
        "avantan.abort_ratio": _per(calls.get("avantan.aborted", 0), finished),
        "scale.submit_us": tracer.per_call_us("scale.submit"),
        "scale.on_message_us": tracer.per_call_us("scale.on_message"),
        "scale.lookup_us": tracer.per_call_us("scale.lookup"),
        "batching.send_us": tracer.per_call_us("batching.send"),
        "batching.flush_us": tracer.per_call_us("batching.flush"),
        "storage.wal_append_us": tracer.per_call_us("storage.wal_append"),
        "metrics.record_us": tracer.per_call_us("metrics.record"),
        "metrics.audit_s": tracer.self_s.get("metrics.audit", 0.0),
        "obs.events_per_request": _per(emits, requests),
        "obs.emit_us": tracer.per_call_us("obs.emit"),
        "obs.sink_us": tracer.per_call_us("obs.sink"),
        "obs.audit_tap_us": tracer.per_call_us("obs.audit_tap"),
        "obs.registry_tap_us": tracer.per_call_us("obs.registry_tap"),
        "obs.demand_tap_us": tracer.per_call_us("obs.demand_tap"),
        "obs.perf_tap_us": tracer.per_call_us("obs.perf_tap"),
        "obs.perf_record_us": tracer.per_call_us("obs.perf_record"),
        "obs.watchdog_tap_us": tracer.per_call_us("obs.watchdog_tap"),
        "obs.flow_us": tracer.per_call_us("obs.flow"),
        "bench.attribution_coverage": _per(self_total, rep.busy_s),
    }


def experiment_layers(tracer, experiment: Experiment, rep: Rep) -> dict[str, float]:
    """Per-layer metrics of a core deployment, sim or live."""
    offered = rep.offered
    sites = experiment.cluster.sites
    network = experiment.network
    reads = sum(site.counters["reads"] for site in sites)
    layers = common_layers(tracer, rep, offered)
    layers.update(
        {
            # The live clock has no event heap: 0 there.
            "sim.events_per_request": _per(getattr(experiment.kernel, "events_fired", 0), offered),
            "net.messages_per_request": _per(network.messages_sent, offered),
            "core.app_manager_retries": sum(
                manager.retries for manager in experiment.cluster.app_managers.values()
            ),
            "core.read_fanout": _per(network.sent_by_type.get("TokenInfoRequest", 0), reads),
            "storage.wal_appends_per_request": _per(sum(site.wal.appends for site in sites), offered),
            "storage.wal_records_end": sum(len(site.wal) for site in sites),
        }
    )
    trace_path = experiment.config.trace_path
    if trace_path is not None and os.path.exists(trace_path):
        layers["obs.trace_bytes_per_request"] = _per(os.path.getsize(trace_path), offered)
    return layers


def scale_layers(tracer, deployment, result, rep: Rep) -> dict[str, float]:
    submitted = result.submitted
    layers = common_layers(tracer, rep, submitted)
    batching = result.batching or {}
    layers.update(
        {
            "sim.events_per_request": _per(result.events_fired, submitted),
            "net.messages_per_request": _per(result.wire_sent, submitted),
            "scale.driver_us": _per(tracer.self_s.get("scale.driver", 0.0) * 1e6, submitted),
            "scale.immediate_ratio": _per(
                sum(driver.immediate for driver in deployment.drivers), submitted
            ),
            "scale.table_bytes": sum(_table_bytes(host.table) for host in deployment.hosts),
            "batching.messages_per_envelope": _per(
                batching.get("batched_payloads", 0), batching.get("batches_sent", 0)
            ),
        }
    )
    return layers


def _table_bytes(table) -> int:
    from repro.obs.flow import entity_table_bytes

    sizes = entity_table_bytes(table)
    return sizes["columns_bytes"] + sizes["ids_bytes"] + sizes["index_bytes"]


def live_layers(tracer, experiment: Experiment, live: dict, rep: Rep) -> dict[str, float]:
    transport = experiment.network
    layers = experiment_layers(tracer, experiment, rep)
    layers.update(
        {
            "runtime.loop_lag_ms": live["drift_avg_ms"],
            "runtime.loop_busy_share": _per(rep.cpu_s, rep.measured_s),
            "runtime.tcp_failures": transport.messages_dropped
            + transport.send_timeouts
            + transport.frames_resent,
        }
    )
    return layers


# -- one repetition ----------------------------------------------------------------


def run_rep(
    workload: str,
    seed: int,
    on_load_start: Callable[[int], None],
    tracer=None,
    scratch: str = ".",
    speed: Speedometer | None = None,
) -> Rep:
    """One repetition of ``workload`` (or of ``core-plain``: core-trace's
    configuration over core-observed's window, which core-observed's
    outcome and wall time are compared with)."""
    rep = Rep(workload, speed)
    if workload == "core-trace":
        run_core(rep, core_config(seed), on_load_start, tracer)
    elif workload == "core-plain":
        run_core(rep, core_config(seed, OBSERVED_DURATION), on_load_start, tracer)
    elif workload == "core-observed":
        trace_dir = tempfile.mkdtemp(prefix="observed-", dir=scratch)
        try:
            run_core(rep, observed_config(seed, trace_dir), on_load_start, tracer)
        finally:
            shutil.rmtree(trace_dir, ignore_errors=True)
    elif workload == "scale-hot":
        run_scale_rep(rep, scale_config(seed), on_load_start, tracer)
    elif workload == "live-tcp-rw":
        run_live(rep, live_config(seed), on_load_start, tracer)
    else:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    return rep
