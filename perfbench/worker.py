"""One benchmark repetition in a fresh interpreter.

Usage (run.py starts it; PYTHONPATH must reach ``src``)::

    python3 perfbench/worker.py --workload core-trace --seed 3 --trace 0 \
        --deadline 60 --scratch .perfbench_tmp

Prints one JSON line when the load starts (``ready``: the monotonic clock
at that instant, and the offered request count) and one JSON line with
the repetition's results at the end.  If the repetition outlives
``--deadline`` seconds, faulthandler dumps every thread's stack to
stderr and the process exits with code 1.
"""

from __future__ import annotations

import argparse
import faulthandler
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--deadline", type=float, required=True)
    parser.add_argument("--scratch", default=".")
    parser.add_argument("--spans", default=None, help="write the traced spans here")
    args = parser.parse_args()
    faulthandler.dump_traceback_later(args.deadline, exit=True)
    from speed import Speedometer

    # The box's speed as set-up starts; the sim workloads sample it again
    # through their measured phase, and every workload at the end.
    speed = Speedometer()
    speed.sample(5)

    import_start = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - import_start
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    build_start = time.perf_counter()
    setup: dict[str, float] = {}

    def on_load_start(offered: int) -> None:
        setup["ready"] = time.monotonic()
        setup["sampling_s"] = speed.spent
        setup["build_s"] = time.perf_counter() - build_start
        if tracer is not None:
            setup["workload_s"] = tracer.self_s.get("setup.workload", 0.0)
            setup["predictor_fit_s"] = tracer.self_s.get("setup.predictor_fit", 0.0)
        print(json.dumps({"ready": setup["ready"], "offered": offered}), flush=True)

    rep = workloads.run_rep(
        args.workload,
        args.seed,
        on_load_start,
        tracer=tracer,
        scratch=args.scratch,
        speed=speed,
    )
    faulthandler.cancel_dump_traceback_later()
    speed.sample(5)
    result = rep.as_dict()
    result["ready"] = setup["ready"]
    result["setup_sampling_s"] = setup["sampling_s"]
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        # Set-up split: imports, trace synthesis, predictor fits, and the
        # rest of the deployment build (wiring, TCP listeners).
        workload_s = setup.get("workload_s", 0.0)
        fit_s = setup.get("predictor_fit_s", 0.0)
        result["layers"].update(
            {
                "setup.import_s": import_s,
                "setup.workload_s": workload_s,
                "setup.predictor_fit_s": fit_s,
                "setup.build_s": max(0.0, setup["build_s"] - workload_s - fit_s),
            }
        )
        if args.spans:
            tracer.write_spans(args.spans)
        tracer.restore()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
