"""Turn a trace into the tables ``python -m repro trace FILE`` prints.

Aggregation mirrors the paper's analysis axes: time-per-protocol-phase
(spans), message volume per type and per region pair (the WAN round-trip
story behind Fig. 3b-3h and Table 2b), and request outcomes.

:class:`TraceSummaryBuilder` folds the whole summary in **one pass**
over the event stream through a
:class:`~repro.obs.registry.TraceMetricsFeed` — the same reducer that
keeps a live run's registry — so the summary and ``/metrics`` cannot
disagree.  State is bounded: span and latency histograms are
log-bucketed :class:`~repro.obs.perf.PerfHistogram` cells, per-entity
accounting lives in a :class:`~repro.obs.demand.SpaceSavingSketch`
(top-K heavy hitters, never a per-entity dict), and a 100k-entity scale
trace summarizes in memory proportional to the distinct span names,
message types, region pairs and the sketch capacity.  The builder keeps
only what the registry does not model: ``run.meta``, the entity sketch
and the fault/liveness timeline.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable

from repro.obs.demand import SpaceSavingSketch
from repro.obs.registry import MetricsRegistry, TraceMetricsFeed

# NOTE: repro.harness.report is imported lazily inside
# format_trace_summary — the harness package imports the core modules,
# which import repro.obs.bus, and this package's __init__ imports this
# module; a module-level import would close that cycle.


class TraceSummaryBuilder:
    """Single-pass, bounded-memory trace summarizer.

    Feed every event through :meth:`add` (from a list, a ring buffer, or
    a streaming :func:`~repro.obs.schema.iter_trace` generator), then
    :meth:`format` renders the tables from the feed's registry — span
    percentiles come from log-bucketed histograms (exact count/mean/max,
    quantiles within one bucket ratio).
    """

    #: Sketch capacity for the hottest-entities table: bounded per-entity
    #: accounting — the streaming path must never grow O(entities) state.
    ENTITY_TOP_K = 16

    def __init__(self) -> None:
        self.feed = TraceMetricsFeed(MetricsRegistry())
        self.meta: dict[str, Any] | None = None
        self.entities = SpaceSavingSketch(self.ENTITY_TOP_K)
        #: Injected faults and liveness detections, in trace order.
        self.faults: list[list[object]] = []

    @property
    def events(self) -> int:
        return int(sum(self.feed.events.cells.values()))

    def add(self, event: dict[str, Any]) -> None:
        self.feed(event)
        etype = str(event.get("type", ""))
        if etype == "site.serve":
            entity = event.get("entity")
            if isinstance(entity, str) and entity:
                self.entities.update(entity)
        elif etype == "run.meta":
            if self.meta is None:
                self.meta = event
        elif etype.startswith("liveness."):
            # Detections read best in the fault timeline: they answer
            # "what went wrong when", same as the injected faults do.
            self.faults.append(
                [f"{event.get('ts', 0.0):.1f}", etype[9:], event.get("node", "-")]
            )
        elif etype.startswith("fault."):
            target = event.get("targets") or event.get("groups") or "-"
            self.faults.append([f"{event.get('ts', 0.0):.1f}", etype[6:], target])

    def consume(self, events: Iterable[dict[str, Any]]) -> "TraceSummaryBuilder":
        for event in events:
            self.add(event)
        return self

    # -- rendering ---------------------------------------------------------

    def span_table_rows(self) -> list[list[object]]:
        rows: list[list[object]] = []
        for (span,), hist in sorted(self.feed.span_duration.cells.items()):
            summary = hist.summary()
            rows.append(
                [
                    span,
                    hist.count,
                    f"{summary.mean * 1000.0:.2f}",
                    f"{summary.p50 * 1000.0:.2f}",
                    f"{summary.p95 * 1000.0:.2f}",
                    f"{summary.maximum * 1000.0:.2f}",
                ]
            )
        return rows

    def format(self, source: str = "") -> str:
        from repro.harness.report import format_table

        feed = self.feed
        sections: list[str] = []
        header = f"trace summary — {self.events} events"
        if source:
            header += f" from {source}"
        if self.meta is not None:
            header += (
                f"\n{self.meta.get('system', '?')} on "
                f"{self.meta.get('substrate', '?')} substrate, "
                f"seed {self.meta.get('seed', '?')}, "
                f"{self.meta.get('duration', 0):.0f}s"
            )
        sections.append(header)
        spans = self.span_table_rows()
        if spans:
            sections.append(
                format_table(
                    ["phase", "count", "mean ms", "p50 ms", "p95 ms", "max ms"],
                    spans,
                    title="per-phase latency (completed spans)",
                )
            )
        by_type: dict[str, Counter[str]] = {}
        for (event, msg_type), count in feed.messages.cells.items():
            by_type.setdefault(msg_type, Counter())[event] = int(count)
        messages = [
            [msg_type, counts["send"], counts["deliver"], counts["drop"]]
            for msg_type, counts in sorted(by_type.items())
        ]
        if messages:
            sections.append(
                format_table(
                    ["msg type", "sent", "delivered", "dropped"],
                    messages,
                    title="messages by payload type",
                )
            )
        frame_bytes = _by_label(feed.flow_wire_bytes)
        if frame_bytes:
            frames = _by_label(feed.flow_wire_frames)
            payload_bytes = _by_label(feed.flow_wire_payload_bytes)
            total = sum(frame_bytes.values()) or 1
            wire_rows = [
                [
                    msg_type,
                    frames[msg_type],
                    f"{payload_bytes.get(msg_type, 0):,}",
                    f"{frame_bytes[msg_type]:,}",
                    f"{frame_bytes[msg_type] / frames[msg_type]:.1f}",
                    f"{100.0 * frame_bytes[msg_type] / total:.1f}%",
                ]
                for msg_type in sorted(
                    frame_bytes, key=lambda t: (-frame_bytes[t], t)
                )
            ]
            sections.append(
                format_table(
                    ["msg type", "frames", "payload B", "frame B", "B/frame", "share"],
                    wire_rows,
                    title="wire bytes by message type (flow-enabled run)",
                )
            )
        regions = [
            [f"{src} -> {dst}", hist.count, f"{hist.mean * 1000.0:.2f}"]
            for (src, dst), hist in sorted(feed.message_latency.cells.items())
        ]
        if regions:
            sections.append(
                format_table(
                    ["region pair", "delivered", "mean latency ms"],
                    regions,
                    title="deliveries by region pair",
                )
            )
        outcomes = sorted(_by_label(feed.requests).items())
        if outcomes:
            sections.append(
                format_table(
                    ["outcome", "count"],
                    [list(row) for row in outcomes],
                    title="request outcomes",
                )
            )
        hot = self.entities.items()
        # Only worth a table when entities are actually contended; a
        # single-entity trace (the core harness) says nothing new here.
        if len(hot) > 1:
            sections.append(
                format_table(
                    ["entity", "served requests", "max over-count"],
                    [[entity, count, error] for entity, count, error in hot],
                    title=(
                        f"hottest entities (space-saving "
                        f"top-{self.entities.capacity})"
                    ),
                )
            )
        if self.faults:
            title = (
                "injected faults & liveness detections"
                if feed.liveness_events.cells
                else "injected faults"
            )
            sections.append(
                format_table(["t (s)", "fault", "targets"], self.faults, title=title)
            )
        checks = int(sum(feed.invariant_checks.cells.values()))
        violations = _by_label(feed.invariant_violations)
        opened = int(sum(feed.pledge_opened.cells.values()))
        if checks or violations or opened:
            rows: list[list[object]] = [["checks recorded", checks]]
            for invariant in sorted(violations):
                rows.append([f"violations: {invariant}", violations[invariant]])
            if not violations:
                rows.append(["violations", 0])
            if opened:
                settled: Counter[str] = Counter()
                for (_node, reason), count in feed.pledge_settled.cells.items():
                    settled[reason] += int(count)
                rows.append(["pledges opened", opened])
                for reason in sorted(settled):
                    rows.append([f"pledges settled: {reason}", settled[reason]])
                recoveries = int(sum(feed.pledge_recoveries.cells.values()))
                rows.append(["pledge recoveries", recoveries])
                rows.append(["pledges unresolved", opened - sum(settled.values())])
            sections.append(
                format_table(["safety audit", "count"], rows, title="invariant audits")
            )
        return "\n\n".join(sections)


def _by_label(counter) -> dict[str, int]:
    """A one-label counter's cells as label value -> integer count."""
    return {labels[0]: int(value) for labels, value in counter.cells.items()}


def format_trace_summary(events: Iterable[dict[str, Any]], source: str = "") -> str:
    """The full human-readable summary for one trace (single pass)."""
    return TraceSummaryBuilder().consume(events).format(source=source)
