"""Counter/gauge/histogram registry: the one instrument model in repro.obs.

The registry is the numeric face of the trace: where the trace is the
full ordered story, the registry is the running totals a scrape (or a
bench artifact) wants.  It is deliberately dependency-free and
Prometheus-shaped — counters only go up, gauges are set, histograms
have cumulative buckets — so :func:`repro.obs.exposition.render_prometheus`
renders it in the standard text format without translation.

Every histogram cell is a :class:`~repro.obs.perf.PerfHistogram`: the
same fixed log-bucket layout (32 buckets per decade over 10^-7..10^3
s) the perf plane records into, so cells from any two runs or sites
merge by bucket addition and no caller picks bucket edges.  The perf
recorder and the flow tracker present their state as registries too
(``to_registry()``), which is how ``/metrics`` serves all three through
one renderer.

Instruments are keyed by (name, label values); label sets are usually
tiny (message types, region pairs, span names), so plain dicts are
fine.  The exception is anything labelled per entity or per node at
scale — 10^5 entities would mean 10^5 cells per instrument and an
O(entities) /metrics page — so every registry-created instrument caps
its cell count (``max_label_values``, default 1024): once the cap is
hit, *new* label combinations aggregate into a single
``"__other__"`` overflow cell while existing cells keep updating.
Exposition stays O(cap) no matter how many entities a run touches.
A label tuple that owns a real cell is bound to its key once
(:meth:`_Family.bind`), so later writes skip the cap check; tuples in
the overflow cell re-check, which keeps the bindings within the cap.

:class:`TraceMetricsFeed` is the bridge from the event stream:
subscribed as an :class:`~repro.obs.bus.EventBus` tap, it folds every
event into the standard instrument set below, which means sim runs,
live runs, offline trace replays and the ``repro trace`` summary
(:mod:`repro.obs.summary` folds through a feed) all produce identical
numbers for identical traffic.  It dispatches on the event type through
a table of folds; the hot ones (``msg.send``, ``msg.deliver``,
``span.begin``, ``span.end``, ``site.serve``) write their families'
bound cells directly instead of going through ``inc``/``observe``.

Standard instruments (all prefixed ``repro_``):

==============================  =========  ==============================
name                            kind       labels
==============================  =========  ==============================
``events_total``                counter    ``type``
``messages_total``              counter    ``event`` (send/deliver/drop), ``msg_type``
``message_latency_seconds``     histogram  ``src_region``, ``dst_region``
``span_duration_seconds``       histogram  ``span``
``requests_total``              counter    ``outcome``
``reallocations_total``         counter    ``event`` (trigger/apply)
``faults_total``                counter    ``action``
``invariant_checks_total``      counter    —
``invariant_violations_total``  counter    ``invariant``
``tokens_left``                 gauge      ``node``
``clock_seconds``               gauge      —
==============================  =========  ==============================

Demand/contention families (the efficiency story — fed from the same
``site.serve`` / ``epoch.close`` events, present whenever the producer
stamps the optional ``entity``/``waited``/``predicted`` fields):

====================================  =======  =======================
name                                  kind     labels
====================================  =======  =======================
``demand_requests_total``             counter  ``node``, ``path`` (local/waited)
``demand_rejected_total``             counter  ``node``
``demand_starved_total``              counter  ``node``
``demand_locality_ratio``             gauge    ``node``
``demand_entity_requests_total``      counter  ``entity`` (cap-bounded)
``demand_prediction_error``           gauge    ``node``
``demand_prediction_mape_pct``        gauge    ``node``
====================================  =======  =======================

Flow families (the resource story — fed from the optional ``bytes``/
``frame_bytes`` stamps flow-enabled runs put on ``msg.send`` plus the
per-drop ``flow.backpressure`` events; see :mod:`repro.obs.flow`).
Deliberately disjoint from the families
:meth:`~repro.obs.flow.FlowTracker.to_registry` builds from a live
tracker, so a scrape that appends both never repeats a family name:

========================================  =======  ==============================
name                                      kind     labels
========================================  =======  ==============================
``flow_wire_bytes_total``                 counter  ``msg_type`` (framed bytes)
``flow_wire_payload_bytes_total``         counter  ``msg_type`` (payload bytes)
``flow_wire_frames_total``                counter  ``msg_type``
``flow_backpressure_total``               counter  ``queue``
========================================  =======  ==============================
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.obs.perf import PerfHistogram

LabelValues = tuple[str, ...]

#: The label value unseen combinations collapse into once an instrument
#: hits its cell cap.
OVERFLOW_LABEL = "__other__"


def _bounded_key(
    cells: Mapping[LabelValues, Any],
    labels: tuple[str, ...],
    labelnames: tuple[str, ...],
    limit: int | None,
) -> LabelValues:
    """The cell to write: the real key, or the overflow cell at the cap.

    Existing cells always keep updating — the cap only stops *new*
    combinations from allocating, so totals stay exact and only the
    attribution of the long tail coarsens.
    """
    key = tuple(labels)
    if limit is None or key in cells or len(cells) < limit:
        return key
    return (OVERFLOW_LABEL,) * len(labelnames)


class _Family:
    """A named metric family: one cell per label-value tuple."""

    kind = ""

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        max_cells: int | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self.max_cells = max_cells
        self.cells: dict[LabelValues, Any] = {}
        #: Pre-bound cells: label values -> the key of the real cell they
        #: own.  A cell is never removed, so a binding never goes stale,
        #: and only real cells bind, so this never outgrows the cap.
        self._bound: dict[LabelValues, LabelValues] = {}

    def bind(self, labels: LabelValues) -> LabelValues:
        """The key of the cell ``labels`` write to, allocated if new."""
        key = self._bound.get(labels)
        if key is None:
            key = _bounded_key(self.cells, labels, self.labelnames, self.max_cells)
            if key not in self.cells:
                self.cells[key] = self._new_cell()
            if key == labels:
                self._bound[labels] = key
        return key

    def _new_cell(self) -> Any:
        return 0.0


class Counter(_Family):
    """Monotone counter."""

    kind = "counter"

    def inc(self, *labels: str, value: float = 1.0) -> None:
        key = self.bind(labels)
        self.cells[key] += value


class Gauge(_Family):
    """Last-write-wins value."""

    kind = "gauge"

    def set(self, *labels: str, value: float) -> None:
        self.cells[self.bind(labels)] = value


class HistogramFamily(_Family):
    """Log-bucketed :class:`~repro.obs.perf.PerfHistogram` cells.

    The bucket layout is PerfHistogram's fixed one, so exposition
    renders every family at the same ``le`` edges and cells merge
    exactly across runs.
    """

    kind = "histogram"

    def observe(self, *labels: str, value: float) -> None:
        self.cells[self.bind(labels)].record(value)

    def _new_cell(self) -> PerfHistogram:
        return PerfHistogram()

    def count(self, *labels: str) -> int:
        hist = self.cells.get(tuple(labels))
        return hist.count if hist is not None else 0


class MetricsRegistry:
    """Holds instruments; snapshot/render are the two read paths.

    ``max_label_values`` bounds the per-instrument cell count (see the
    module docs); ``None`` disables the cap.
    """

    def __init__(self, max_label_values: int | None = 1024) -> None:
        if max_label_values is not None and max_label_values <= 0:
            raise ValueError("max_label_values must be positive or None")
        self.max_label_values = max_label_values
        self._instruments: dict[str, Counter | Gauge | HistogramFamily] = {}

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> HistogramFamily:
        return self._get_or_create(HistogramFamily, name, help, labelnames)

    def _get_or_create(self, kind, name, help, labelnames):
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not kind or existing.labelnames != labelnames:
                raise ValueError(
                    f"instrument {name!r} re-registered with a "
                    "different kind or label set"
                )
            return existing
        instrument = kind(name, help, labelnames, max_cells=self.max_label_values)
        self._instruments[name] = instrument
        return instrument

    def instruments(self) -> Iterable[Counter | Gauge | HistogramFamily]:
        return self._instruments.values()

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time JSON-safe dump (embedded in bench artifacts).

        Counters and gauges flatten to ``name{label="v",...}`` keys;
        histograms report count and sum per cell (bucket detail stays
        in the scrape path, where it belongs).
        """
        out: dict[str, Any] = {}
        for instrument in self._instruments.values():
            for labels, value in sorted(instrument.cells.items()):
                key = _flat_key(instrument.name, instrument.labelnames, labels)
                if isinstance(instrument, HistogramFamily):
                    out[key + "_count"] = value.count
                    out[key + "_sum"] = round(value.total, 9)
                else:
                    out[key] = value
        return out


def _flat_key(name: str, labelnames: tuple[str, ...], labels: LabelValues) -> str:
    if not labelnames:
        return name
    inner = ",".join(
        f'{label}="{value}"' for label, value in zip(labelnames, labels)
    )
    return f"{name}{{{inner}}}"


class TraceMetricsFeed:
    """EventBus tap that folds repro-trace/1 events into a registry."""

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self.events = registry.counter(
            "repro_events_total", "Trace events by type", ("type",)
        )
        self.messages = registry.counter(
            "repro_messages_total",
            "Transport-plane envelopes by event and payload type",
            ("event", "msg_type"),
        )
        self.message_latency = registry.histogram(
            "repro_message_latency_seconds",
            "Delivery latency per region pair",
            ("src_region", "dst_region"),
        )
        self.span_duration = registry.histogram(
            "repro_span_duration_seconds",
            "Completed protocol-phase spans",
            ("span",),
        )
        self.requests = registry.counter(
            "repro_requests_total", "Client request outcomes", ("outcome",)
        )
        self.reallocations = registry.counter(
            "repro_reallocations_total", "Redistribution decision points", ("event",)
        )
        self.faults = registry.counter(
            "repro_faults_total", "Injected faults", ("action",)
        )
        self.invariant_checks = registry.counter(
            "repro_invariant_checks_total", "Conservation audits run"
        )
        self.invariant_violations = registry.counter(
            "repro_invariant_violations_total",
            "Safety invariant violations reported",
            ("invariant",),
        )
        self.tokens_left = registry.gauge(
            "repro_tokens_left", "Last observed per-site token balance", ("node",)
        )
        self.clock = registry.gauge(
            "repro_clock_seconds", "Substrate clock of the last event"
        )
        self.demand_requests = registry.counter(
            "repro_demand_requests_total",
            "Granted acquires by how they were served",
            ("node", "path"),
        )
        self.demand_rejected = registry.counter(
            "repro_demand_rejected_total", "Rejected acquires", ("node",)
        )
        self.demand_starved = registry.counter(
            "repro_demand_starved_total",
            "Acquires that waited on a round and were still rejected",
            ("node",),
        )
        self.demand_locality = registry.gauge(
            "repro_demand_locality_ratio",
            "local / (local + waited) granted acquires",
            ("node",),
        )
        self.demand_entity = registry.counter(
            "repro_demand_entity_requests_total",
            "Requests per entity (long tail collapses at the cell cap)",
            ("entity",),
        )
        self.demand_pred_error = registry.gauge(
            "repro_demand_prediction_error",
            "Last epoch's signed forecast error (predicted - observed)",
            ("node",),
        )
        self.demand_pred_mape = registry.gauge(
            "repro_demand_prediction_mape_pct",
            "Running mean absolute percentage forecast error",
            ("node",),
        )
        self.flow_wire_bytes = registry.counter(
            "repro_flow_wire_bytes_total",
            "Framed wire bytes sent per message type",
            ("msg_type",),
        )
        self.flow_wire_payload_bytes = registry.counter(
            "repro_flow_wire_payload_bytes_total",
            "Encoded payload bytes sent per message type",
            ("msg_type",),
        )
        self.flow_wire_frames = registry.counter(
            "repro_flow_wire_frames_total",
            "Encoded frames sent per message type",
            ("msg_type",),
        )
        self.flow_backpressure = registry.counter(
            "repro_flow_backpressure_total",
            "Per-drop backpressure events at a full queue",
            ("queue",),
        )
        self.pledge_opened = registry.counter(
            "repro_pledge_opened_total",
            "Balances frozen by answering a foreign election",
            ("node",),
        )
        self.pledge_settled = registry.counter(
            "repro_pledge_settled_total",
            "Pledges resolved, by how the outcome arrived",
            ("node", "reason"),
        )
        self.pledge_recoveries = registry.counter(
            "repro_pledge_recoveries_total",
            "Recovery elections started to resolve a pledge",
            ("node",),
        )
        self.pledges_open = registry.gauge(
            "repro_pledges_open",
            "Pledges currently unresolved",
            ("node",),
        )
        self.liveness_events = registry.counter(
            "repro_liveness_events_total",
            "Watchdog detections and client write-offs",
            ("kind",),
        )
        #: node -> [local, waited] running split for the locality gauge.
        self._locality: dict[str, list[int]] = {}
        #: node -> [ape_sum, ape_count] running MAPE accumulators.
        self._mape: dict[str, list[float]] = {}

        #: Event type -> its fold; types not listed fold by prefix.
        self._handlers: dict[str, Callable[[Mapping[str, Any], str], None]] = {
            "msg.send": self._on_msg_send,
            "msg.deliver": self._on_msg_deliver,
            "span.begin": _skip,
            "span.end": self._on_span_end,
            "site.serve": self._on_site_serve,
            "realloc.trigger": self._on_realloc,
            "realloc.apply": self._on_realloc,
            "invariant.check": lambda event, etype: self.invariant_checks.inc(),
            "invariant.violation": lambda event, etype: self.invariant_violations.inc(
                str(event.get("invariant", "?"))
            ),
            "flow.backpressure": lambda event, etype: self.flow_backpressure.inc(
                str(event.get("queue", "?"))
            ),
            "epoch.close": self._on_epoch_close,
        }
        self._prefix_handlers = (
            ("msg.", self._on_msg),
            ("fault.", lambda event, etype: self.faults.inc(etype[6:])),
            ("pledge.", self._on_pledge),
            ("liveness.", lambda event, etype: self.liveness_events.inc(etype[9:])),
        )

    def __call__(self, event: Mapping[str, Any]) -> None:
        etype = event.get("type", "")
        if type(etype) is not str:
            # A malformed trace line still counts, so `repro trace`
            # summarizes the rest of the file.
            etype = str(etype)
        events = self.events
        events.cells[events.bind((etype,))] += 1.0
        ts = event.get("ts")
        if isinstance(ts, (int, float)) and not isinstance(ts, bool):
            self.clock.cells[()] = float(ts)
        handler = self._handlers.get(etype)
        if handler is None:
            handler = _skip
            for prefix, fold in self._prefix_handlers:
                if etype.startswith(prefix):
                    handler = fold
                    break
        handler(event, etype)

    # -- hot folds: pre-bound cells, written directly --------------------------

    def _on_msg(self, event: Mapping[str, Any], etype: str) -> str:
        msg_type = event.get("msg_type", "?")
        if type(msg_type) is not str:
            msg_type = str(msg_type)
        messages = self.messages
        messages.cells[messages.bind((etype[4:], msg_type))] += 1.0
        return msg_type

    def _on_msg_send(self, event: Mapping[str, Any], etype: str) -> None:
        msg_type = self._on_msg(event, etype)
        # Byte stamps only exist on flow-enabled runs; the end-of-run
        # flow.* rollups are deliberately NOT folded here — they would
        # double-count these increments.
        payload = event.get("bytes")
        if isinstance(payload, bool) or not isinstance(payload, int):
            payload = None
        frame = event.get("frame_bytes")
        if isinstance(frame, bool) or not isinstance(frame, int):
            frame = None if payload is None else payload + 4
        if frame is not None:
            labels = (msg_type,)
            wire_bytes, frames = self.flow_wire_bytes, self.flow_wire_frames
            wire_bytes.cells[wire_bytes.bind(labels)] += float(frame)
            frames.cells[frames.bind(labels)] += 1.0
            if payload is not None:
                payload_bytes = self.flow_wire_payload_bytes
                payload_bytes.cells[payload_bytes.bind(labels)] += float(payload)

    def _on_msg_deliver(self, event: Mapping[str, Any], etype: str) -> None:
        self._on_msg(event, etype)
        latency = event.get("latency")
        if isinstance(latency, (int, float)):
            hists = self.message_latency
            labels = (str(event.get("src_region", "?")), str(event.get("dst_region", "?")))
            hists.cells[hists.bind(labels)].record(float(latency))

    def _on_span_end(self, event: Mapping[str, Any], etype: str) -> None:
        hists = self.span_duration
        hists.cells[hists.bind((str(event.get("span", "?")),))].record(
            float(event.get("dur", 0.0))
        )
        if event.get("span") == "request":
            requests = self.requests
            requests.cells[requests.bind((str(event.get("outcome", "?")),))] += 1.0

    def _on_site_serve(self, event: Mapping[str, Any], etype: str) -> None:
        tokens = event.get("tokens_left")
        node = str(event.get("node", ""))
        if isinstance(tokens, int):
            gauge = self.tokens_left
            gauge.cells[gauge.bind((node,))] = float(tokens)
        entity = event.get("entity")
        if isinstance(entity, str) and entity:
            counter = self.demand_entity
            counter.cells[counter.bind((entity,))] += 1.0
        if event.get("kind") == "acquire" and "waited" in event:
            waited = bool(event.get("waited"))
            status = event.get("status")
            if status == "granted":
                path = "waited" if waited else "local"
                self.demand_requests.inc(node, path)
                split = self._locality.setdefault(node, [0, 0])
                split[1 if waited else 0] += 1
                self.demand_locality.set(node, value=split[0] / (split[0] + split[1]))
            elif status == "rejected":
                self.demand_rejected.inc(node)
                if waited:
                    self.demand_starved.inc(node)

    # -- cold folds -------------------------------------------------------------

    def _on_realloc(self, event: Mapping[str, Any], etype: str) -> None:
        self.reallocations.inc(etype[8:])
        if etype == "realloc.apply":
            tokens_after = event.get("tokens_after")
            if isinstance(tokens_after, int):
                self.tokens_left.set(str(event.get("node", "")), value=float(tokens_after))

    def _on_pledge(self, event: Mapping[str, Any], etype: str) -> None:
        node = str(event.get("node", ""))
        if etype == "pledge.open":
            self.pledge_opened.inc(node)
            self.pledges_open.set(node, value=1.0)
        elif etype == "pledge.settle":
            self.pledge_settled.inc(node, str(event.get("reason", "?")))
            self.pledges_open.set(node, value=0.0)
        elif etype == "pledge.recover":
            self.pledge_recoveries.inc(node)

    def _on_epoch_close(self, event: Mapping[str, Any], etype: str) -> None:
        predicted = event.get("predicted")
        if isinstance(predicted, (int, float)) and not isinstance(predicted, bool):
            node = str(event.get("node", ""))
            observed = float(event.get("demand", 0.0) or 0.0)
            error = float(predicted) - observed
            self.demand_pred_error.set(node, value=round(error, 6))
            if observed > 0:
                acc = self._mape.setdefault(node, [0.0, 0.0])
                acc[0] += abs(error) / observed
                acc[1] += 1.0
                self.demand_pred_mape.set(node, value=round(100.0 * acc[0] / acc[1], 6))


def _skip(event: Mapping[str, Any], etype: str) -> None:
    """Fold for types only ``events_total`` and the clock count."""


def feed_registry(events: Iterable[Mapping[str, Any]]) -> MetricsRegistry:
    """Replay an event stream into a fresh registry (offline path)."""
    registry = MetricsRegistry()
    feed = TraceMetricsFeed(registry)
    for event in events:
        feed(event)
    return registry
