"""Golden pins for the offline reports and the metrics surfaces.

One fixed-seed traced sim run (30 simulated seconds, a region crash and
recovery, 1% loss) with the auditor, the flow plane, the perf recorder,
the metrics registry and the liveness watchdog all on.  Simulated time
makes every report machine-independent, so they are compared byte for
byte against the committed text under ``tests/golden_obs/``:

* the trace file itself — its sha256, so every event, key order and
  float spelling the trace sink writes is pinned;
* ``repro trace FILE`` (``format_trace_summary``), ``--demand`` and
  ``--flow`` reports — exact;
* ``metrics_snapshot`` — every committed key keeps its value (a new
  family may add keys);
* the ``/metrics`` scrape — every committed line is still served, apart
  from histogram ``le`` buckets and wall-clock perf sums, which are not
  pinned;
* the ``perf_snapshot`` key set — exact.

A deliberate behaviour change re-captures the files from the same
config with a throwaway script and names the change in the commit.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import json
import urllib.request
from pathlib import Path

import pytest

from repro.core import requests as core_requests
from repro.core import site as core_site
from repro.harness.experiment import Experiment, ExperimentConfig
from repro.harness.scenarios import RegionFault
from repro.net.regions import Region
from repro.obs import (
    format_demand_report,
    format_flow_report,
    format_trace_summary,
    iter_trace,
    track_demand,
    track_flow,
)
from repro.obs.exposition import MetricsServer
from repro.workload.trace import TraceConfig

GOLDEN = Path(__file__).parent / "golden_obs"


def _config(trace_path: str) -> ExperimentConfig:
    return ExperimentConfig(
        system="samya-majority",
        duration=30.0,
        seed=5,
        trace=TraceConfig(days=2.0, seed=5),
        demand_scale=3.0,
        loss_probability=0.01,
        invariant_interval=10.0,
        faults=(
            RegionFault(8.0, "crash", (Region.US_WEST1,)),
            RegionFault(16.0, "recover", (Region.US_WEST1,)),
        ),
        trace_path=trace_path,
        audit=True,
        flow=True,
        watchdog=True,
        metrics=True,
        perf=True,
    )


def _scrape(experiment: Experiment) -> str:
    async def scenario() -> str:
        server = MetricsServer(
            experiment.registry,
            port=0,
            perf=experiment.perf_recorder,
            flow=experiment.flow_tracker,
        )
        await server.start()
        url = f"http://127.0.0.1:{server.port}/metrics"

        def get() -> str:
            with urllib.request.urlopen(url, timeout=5) as response:
                return response.read().decode("utf-8")

        try:
            return await asyncio.to_thread(get)
        finally:
            await server.stop()

    return asyncio.run(scenario())


def _pinned_scrape_lines(text: str) -> list[str]:
    """Scrape lines whose text is deterministic and layout-independent."""
    lines = []
    for line in text.splitlines():
        name = line.split("{")[0].split(" ")[0]
        if "_bucket{" in line:
            continue  # le edges belong to the histogram layout
        if name.startswith("repro_perf_") and name.endswith("_sum"):
            continue  # wall-clock seconds
        lines.append(line)
    return lines


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    # Request and read ids are process-global and ride the encoded
    # frames, so byte counts depend on them: start both at 1.
    patch = pytest.MonkeyPatch()
    patch.setattr(core_requests, "_request_ids", itertools.count(1))
    patch.setattr(core_site, "_read_ids", itertools.count(1))
    try:
        path = str(tmp_path_factory.mktemp("golden") / "run.jsonl")
        experiment = Experiment(_config(path))
        result = experiment.run()
        scrape = _scrape(experiment)
    finally:
        patch.undo()
    return path, result, scrape


def _check_text(name: str, text: str) -> None:
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


def test_trace_bytes_golden(golden_run):
    path, _, _ = golden_run
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert digest == (GOLDEN / "trace.sha256").read_text(encoding="ascii").split()[0]


def test_trace_summary_golden(golden_run):
    path, _, _ = golden_run
    _check_text("trace_summary.txt", format_trace_summary(iter_trace(path), source="golden") + "\n")


def test_demand_report_golden(golden_run):
    path, _, _ = golden_run
    report = format_demand_report(track_demand(iter_trace(path)), source="golden")
    _check_text("demand_report.txt", report + "\n")


def test_flow_report_golden(golden_run):
    path, _, _ = golden_run
    report = format_flow_report(track_flow(iter_trace(path)), source="golden")
    _check_text("flow_report.txt", report + "\n")


def test_metrics_snapshot_keeps_every_golden_value(golden_run):
    _, result, _ = golden_run
    golden = json.loads((GOLDEN / "metrics_snapshot.json").read_text(encoding="utf-8"))
    drift = {
        key: (value, result.metrics_snapshot.get(key))
        for key, value in golden.items()
        if result.metrics_snapshot.get(key) != value
    }
    assert drift == {}


def test_perf_snapshot_key_set_golden(golden_run):
    _, result, _ = golden_run
    _check_text("perf_keys.txt", "\n".join(sorted(result.perf_snapshot)) + "\n")


def test_metrics_scrape_serves_every_golden_line(golden_run):
    _, _, scrape = golden_run
    target = GOLDEN / "metrics_scrape.txt"
    served = set(_pinned_scrape_lines(scrape))
    missing = [
        line
        for line in target.read_text(encoding="utf-8").splitlines()
        if line not in served
    ]
    assert missing == []
