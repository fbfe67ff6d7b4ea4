"""The benchmark drives the same program the committed baselines pin.

Each test runs one benchmark workload at the configuration of a
committed ``BENCH_*.json`` baseline and asserts its simulated counts
exactly.  Run from the repository root (about 30 s)::

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from pathlib import Path

from workloads import Rep, core_config, run_core, run_scale_rep, scale_config

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"


def _headline(name: str) -> dict:
    return json.loads((BASELINES / f"BENCH_{name}.json").read_text(encoding="utf-8"))["headline"]


def test_scale_hot_reproduces_scale_smoke():
    """scale-hot at BENCH_scale_smoke's point: seed 11, 10 simulated s."""
    rep = Rep("scale-hot")
    result, _deployment = run_scale_rep(rep, scale_config(11, 10.0), lambda offered: None, probe_seconds=0)
    pinned = _headline("scale_smoke")["10000"]
    assert rep.checks == []
    assert (result.committed, result.rejected, result.rounds_applied) == (69_566, 49_834, 18_648)
    assert (result.committed, result.rejected, result.rounds_applied) == (
        pinned["committed"],
        pinned["rejected"],
        pinned["rounds_applied"],
    )


def test_core_trace_reproduces_fig3b():
    """core-trace at Fig. 3b's configuration: seed 3, 600 simulated s,
    the default trace seed (7) and the bounded client window (8)."""
    rep = Rep("core-trace")
    config = core_config(3, 600.0, trace_seed=7, max_outstanding=8)
    run_core(rep, config, lambda offered: None, read_probes=0)
    assert rep.checks == []
    committed = rep.outcome["committed_at_load_end"]
    assert committed == 117_456
    assert committed == _headline("fig3b_throughput")["committed"]["Samya Av.[(n+1)/2]"]
