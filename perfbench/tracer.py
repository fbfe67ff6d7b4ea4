"""Per-layer span tracer for the traced benchmark run.

The tracer wraps the public entry points of each layer of ``repro`` from
outside the program: it replaces class attributes and module functions
with timing wrappers, so the program itself is unchanged.  Every wrapped
call is a span.  Spans nest by call: a span's *self time* is its duration
minus the durations of the spans it called.  A span opened with no span
above it is a root (one kernel event, one live callback, one TCP frame)
and gives its id to every span below it.

Self time and call counts are summed per key (``sim.schedule``,
``codec.encode``, ...).  Keeping every span of a run would cost hundreds
of MB, so only the first ``span_limit`` spans are kept; ``write_spans``
writes them out as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

#: Wrapped entry points: (module, attribute path, key, is_effect).
#: A key's first component is its layer.  An *effect* is a call that does
#: work visible outside the callee (schedules an event, sends a message,
#: records a result, persists a record); a kernel dispatch that makes no
#: effect call is counted as a no-op event.
SPANS: tuple[tuple[str, str, str, bool], ...] = (
    # sim kernel
    ("repro.sim.kernel", "Kernel.run", "sim.run", False),
    # network and codec
    ("repro.net.network", "Network.send", "net.send", True),
    ("repro.net.network", "Network._deliver", "net.deliver", False),
    ("repro.net.codec", "decode", "codec.decode", False),
    # live runtime
    ("repro.runtime.clock", "LiveClock._fire", "runtime.callback", False),
    ("repro.runtime.tcp_transport", "TcpTransport.send", "runtime.tcp_send", True),
    ("repro.runtime.tcp_transport", "TcpTransport._dispatch", "runtime.tcp_dispatch", False),
    # core request path
    ("repro.core.client", "WorkloadClient._issue", "core.client", False),
    ("repro.core.client", "WorkloadClient.on_response", "core.client", True),
    ("repro.core.app_manager", "AppManager.submit", "core.app_manager", False),
    ("repro.core.app_manager", "AppManager._attempt", "core.app_manager", False),
    ("repro.core.app_manager", "AppManager.on_message", "core.app_manager", False),
    ("repro.core.site", "SamyaSite.on_message", "core.site", False),
    ("repro.core.site", "SamyaSite._dispatch", "core.site", False),
    ("repro.core.site", "SamyaSite.apply_redistribution", "core.site", False),
    ("repro.core.site", "SamyaSite.snapshot_init_val", "core.site", False),
    ("repro.core.site", "SamyaSite.on_protocol_idle", "core.site", False),
    ("repro.core.site", "SamyaSite._close_epoch", "core.site", False),
    ("repro.core.site", "SamyaSite.protocol_send", "avantan.send", False),
    # Avantan protocol
    ("repro.core.avantan.majority", "AvantanMajority.handle", "avantan.handle", False),
    ("repro.core.avantan.majority", "AvantanMajority._on_timeout", "avantan.timeout", False),
    ("repro.core.avantan.star", "AvantanStar.handle", "avantan.handle", False),
    ("repro.core.avantan.star", "AvantanStar._on_timeout", "avantan.timeout", False),
    ("repro.core.avantan.base", "AvantanProtocol._finish_decided", "avantan.decided", False),
    ("repro.core.avantan.base", "AvantanProtocol._finish_aborted", "avantan.aborted", False),
    # scale path
    ("repro.scale.harness", "ScaleLoadDriver._tick", "scale.driver", False),
    ("repro.scale.site", "ScaleSiteHost.submit", "scale.submit", True),
    ("repro.scale.site", "ScaleSiteHost.on_message", "scale.on_message", False),
    ("repro.scale.site", "_EntityProtocolHost.apply_redistribution", "scale.protocol_host", False),
    ("repro.scale.site", "_EntityProtocolHost.snapshot_init_val", "scale.protocol_host", False),
    ("repro.scale.site", "_EntityProtocolHost.on_protocol_idle", "scale.protocol_host", False),
    ("repro.scale.site", "_EntityProtocolHost.protocol_send", "avantan.send", False),
    ("repro.scale.shards", "ShardedEntityDirectory.lookup", "scale.lookup", False),
    ("repro.scale.batching", "BatchingTransport.send", "batching.send", True),
    ("repro.scale.batching", "BatchingTransport._flush", "batching.flush", False),
    ("repro.scale.batching", "_UnbatchProxy.on_message", "batching.unbatch", False),
    # storage and metrics
    ("repro.storage.recovery", "RecoveryWal.append", "storage.wal_append", True),
    ("repro.metrics.hub", "MetricsHub.record", "metrics.record", True),
    ("repro.metrics.invariants", "ConservationChecker.check", "metrics.audit", False),
    ("repro.scale.harness", "audit_conservation", "metrics.audit", False),
    # observability planes
    ("repro.obs.bus", "EventBus.emit", "obs.emit", True),
    ("repro.obs.bus", "EventBus.span_begin", "obs.emit", True),
    ("repro.obs.bus", "EventBus.span_end", "obs.emit", True),
    ("repro.obs.bus", "JsonlSink.write", "obs.sink", False),
    ("repro.obs.bus", "NullSink.write", "obs.sink", False),
    ("repro.obs.audit", "InvariantAuditor.__call__", "obs.audit_tap", False),
    ("repro.obs.registry", "TraceMetricsFeed.__call__", "obs.registry_tap", False),
    ("repro.obs.demand", "DemandTap.__call__", "obs.demand_tap", False),
    ("repro.obs.perf", "PerfSpanTap.__call__", "obs.perf_tap", False),
    ("repro.obs.perf", "PerfHistogram.record", "obs.perf_record", False),
    ("repro.obs.perf", "PerfRecorder.observe", "obs.perf_record", False),
    ("repro.resilience.watchdog", "LivenessWatchdog.__call__", "obs.watchdog_tap", False),
    ("repro.resilience.watchdog", "LivenessWatchdog.sweep", "obs.watchdog_tap", False),
    ("repro.obs.flow", "FlowTracker.record_send", "obs.flow", False),
    ("repro.obs.flow", "FlowTracker.record_batch", "obs.flow", False),
    ("repro.obs.flow", "FlowTracker.record_passthrough", "obs.flow", False),
    ("repro.obs.flow", "_QueueFlow.enqueue", "obs.flow", False),
    ("repro.obs.flow", "_QueueFlow.dequeue", "obs.flow", False),
    ("repro.obs.flow", "_QueueFlow.observe", "obs.flow", False),
    # set-up (spans outside the measured phase)
    ("repro.workload.trace", "SyntheticAzureTrace.__init__", "setup.workload", False),
    ("repro.workload.requests", "regional_operations", "setup.workload", False),
    ("repro.harness.experiment", "regional_operations", "setup.workload", False),
    ("repro.harness.experiment", "demand_per_compressed_interval", "setup.workload", False),
    ("repro.harness.experiment", "mix_reads", "setup.workload", False),
    ("repro.prediction.base", "Predictor.fit", "setup.predictor_fit", False),
    ("repro.prediction.arima", "ArimaPredictor.fit", "setup.predictor_fit", False),
    ("repro.prediction.lstm", "LstmPredictor.fit", "setup.predictor_fit", False),
)


class Tracer:
    """Sums self time and calls per span key; keeps the first spans."""

    def __init__(self, span_limit: int = 20_000) -> None:
        #: One frame per open span: [child seconds, root id].
        self.stack: list[list] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Effect calls so far (see SPANS).
        self.effects = 0
        #: Kernel dispatches, and those that made no effect call.
        self.dispatches = 0
        self.noop_dispatches = 0
        #: Free-form measurements the hooks record (peaks, byte sums).
        self.values: dict[str, float] = defaultdict(float)
        #: (root id, depth, key, start, seconds) of the first spans.
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.span_limit = span_limit
        self._roots = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []

    # -- wrapping ------------------------------------------------------------

    def timed(
        self,
        key: str,
        fn: Callable[..., Any],
        effect: bool = False,
        observe: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` wrapped in a span; ``observe(args, kwargs, result)``
        runs after a successful call."""
        stack = self.stack
        self_s = self.self_s
        calls = self.calls
        spans = self.spans
        limit = self.span_limit
        roots = self._roots
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if effect:
                tracer.effects += 1
            depth = len(stack)
            frame = [0.0, stack[-1][1] if depth else next(roots)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
                if depth:
                    stack[-1][0] += elapsed
                if len(spans) < limit:
                    spans.append((frame[1], depth, key, start, elapsed))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner: Any, name: str, wrapper: Callable[..., Any]) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def install(self) -> None:
        """Wrap every entry point in :data:`SPANS` plus the custom hooks."""
        for module_name, path, key, effect in SPANS:
            owner, name = _resolve(module_name, path)
            self.patch(owner, name, self.timed(key, owner.__dict__[name], effect))
        self._install_custom()

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _install_custom(self) -> None:
        from repro.core.site import SamyaSite
        from repro.net import codec
        from repro.runtime.tcp_transport import TcpTransport
        from repro.sim.kernel import Kernel

        values = self.values

        def heap_peak(args, _kwargs, _result):
            pending = args[0].pending
            if pending > values["sim.heap_peak"]:
                values["sim.heap_peak"] = pending

        for name in ("schedule", "schedule_at"):
            self.patch(
                Kernel, name, self.timed("sim.schedule", Kernel.__dict__[name], True, heap_peak)
            )

        def frame_bytes(_args, _kwargs, result):
            values["codec.bytes"] += len(result) + codec.FRAME_HEADER.size

        self.patch(codec, "encode", self.timed("codec.encode", codec.encode, False, frame_bytes))

        def out_queue(args, _kwargs, _result):
            transport, dst = args[0], args[1]
            queue = transport._out_queues.get(dst)
            if queue is not None and queue.qsize() > values["runtime.out_queue_peak"]:
                values["runtime.out_queue_peak"] = queue.qsize()

        self.patch(
            TcpTransport,
            "_enqueue_frame",
            self.timed(
                "runtime.enqueue", TcpTransport.__dict__["_enqueue_frame"], False, out_queue
            ),
        )

        def grant_locality(args, kwargs, _result):
            fwd, status = args[1], args[2]
            if fwd.request.kind.value == "read" or status.value != "granted":
                return
            waited = kwargs.get("waited", args[4] if len(args) > 4 else False)
            values["core.grants_waited" if waited else "core.grants_local"] += 1

        self.patch(
            SamyaSite,
            "_respond",
            self.timed("core.site", SamyaSite.__dict__["_respond"], False, grant_locality),
        )

        def rounds_led(_args, _kwargs, result):
            if result:
                values["avantan.rounds"] += 1

        from repro.core.avantan.majority import AvantanMajority
        from repro.core.avantan.star import AvantanStar

        for cls in (AvantanMajority, AvantanStar):
            self.patch(
                cls,
                "trigger",
                self.timed("avantan.trigger", cls.__dict__["trigger"], False, rounds_led),
            )

        step = Kernel.__dict__["step"]
        timed_step = self.timed("sim.dispatch", step)
        tracer = self

        @functools.wraps(step)
        def dispatch(kernel):
            before = tracer.effects
            fired = timed_step(kernel)
            if fired:
                tracer.dispatches += 1
                if tracer.effects == before:
                    tracer.noop_dispatches += 1
            return fired

        self.patch(Kernel, "step", dispatch)

    # -- results ---------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the end of set-up)."""
        self.self_s.clear()
        self.calls.clear()
        self.values.clear()
        self.effects = 0
        self.dispatches = 0
        self.noop_dispatches = 0
        self.spans.clear()

    def layer_self(self, prefix: str) -> float:
        """Self seconds summed over every key of one layer."""
        return sum(
            seconds for key, seconds in self.self_s.items() if key.split(".")[0] == prefix
        )

    def per_call_us(self, key: str) -> float:
        calls = self.calls.get(key, 0)
        return self.self_s.get(key, 0.0) / calls * 1e6 if calls else 0.0

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for root, depth, key, start, seconds in self.spans:
                handle.write(
                    json.dumps(
                        {"id": root, "depth": depth, "key": key, "start": start, "s": seconds}
                    )
                    + "\n"
                )


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    if name not in owner.__dict__:
        raise AttributeError(f"{module_name}.{path} is not defined there")
    return owner, name

