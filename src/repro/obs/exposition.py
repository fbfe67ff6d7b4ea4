"""Prometheus text-format rendering and the live ``/metrics`` endpoint.

Rendering follows the text exposition format 0.0.4: ``# HELP`` and
``# TYPE`` headers per metric family, one sample per line, histograms
as cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``, and
non-finite values spelled ``NaN``, ``+Inf`` and ``-Inf``.
:func:`render_prometheus` is the only writer: the feed's registry, the
perf recorder and the flow tracker all reach ``/metrics`` as
:class:`~repro.obs.registry.MetricsRegistry` instruments.  Every
histogram cell is a :class:`~repro.obs.perf.PerfHistogram`, rendered at
every :data:`EXPOSITION_STRIDE`-th edge of its fixed log-bucket layout
(8 ``le`` edges per decade, 10^-6.875 .. 10^2.875 s) with ``+Inf`` equal
to ``_count``.

The server is a minimal asyncio HTTP/1.0 responder — just enough for
``curl`` and a Prometheus scraper — because a live run already owns an
event loop and must not grow a web-framework dependency.

Wiring: ``python -m repro live --metrics-port 9100`` starts the
endpoint next to the experiment; every scrape renders the registry the
:class:`~repro.obs.registry.TraceMetricsFeed` tap keeps current.
"""

from __future__ import annotations

import asyncio
import math

from repro.obs.perf import BUCKET_COUNT
from repro.obs.registry import HistogramFamily, MetricsRegistry

#: ``le`` edges rendered per histogram cell: every 4th bucket edge
#: (8 per decade).  Cumulative counts at a boundary subset are exact;
#: this keeps a scrape at ~80 lines per cell instead of 320.
EXPOSITION_STRIDE = 4

# The top bucket also holds everything PerfHistogram clamps (+Inf and
# values past 10^3 s), so its upper edge is never rendered: such samples
# show in ``+Inf`` only, never under a finite ``le``.
_EDGES = range(EXPOSITION_STRIDE - 1, BUCKET_COUNT - 1, EXPOSITION_STRIDE)


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(labelnames, labels, extra: str = "") -> str:
    parts = [
        f'{name}="{_escape(str(value))}"'
        for name, value in zip(labelnames, labels)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value):
        return str(int(value))
    return repr(value)


def render_prometheus(*registries: MetricsRegistry) -> str:
    """Registries in Prometheus text exposition format 0.0.4.

    Several registries render back to back (the live scrape appends the
    perf and flow views to the feed's); an empty input renders ``""``.
    """
    lines: list[str] = []
    for registry in registries:
        for instrument in registry.instruments():
            name = instrument.name
            labelnames = instrument.labelnames
            if instrument.help:
                lines.append(f"# HELP {name} {_escape(instrument.help)}")
            lines.append(f"# TYPE {name} {instrument.kind}")
            for labels, value in sorted(instrument.cells.items()):
                plain = _labels(labelnames, labels)
                if not isinstance(instrument, HistogramFamily):
                    lines.append(f"{name}{plain} {_format_value(value)}")
                    continue
                for upper, cumulative in value.cumulative(_EDGES):
                    le = _labels(labelnames, labels, f'le="{upper:.9g}"')
                    lines.append(f"{name}_bucket{le} {cumulative}")
                le = _labels(labelnames, labels, 'le="+Inf"')
                lines.append(f"{name}_bucket{le} {value.count}")
                lines.append(f"{name}_sum{plain} {_format_value(value.total)}")
                lines.append(f"{name}_count{plain} {value.count}")
    return "\n".join(lines) + "\n" if lines else ""


CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serves ``GET /metrics`` for one registry on localhost.

    When a :class:`~repro.obs.perf.PerfRecorder` is attached, its
    wall-clock histograms are appended to every scrape as
    ``repro_perf_*_seconds`` histogram families; likewise a
    :class:`~repro.obs.flow.FlowTracker` appends the ``repro_flow_*``
    wire/queue families.  Both arrive as registries (``to_registry()``)
    through the same :func:`render_prometheus`.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        port: int,
        host: str = "127.0.0.1",
        perf=None,
        flow=None,
    ) -> None:
        self.registry = registry
        self.host = host
        self.port = port
        self.perf = perf
        self.flow = flow
        self.scrapes = 0
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        # Port 0 means "pick one"; record what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1", "replace").split()
            # Drain headers; HTTP/1.0 close-after-response keeps it simple.
            while True:
                line = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if line in (b"\r\n", b"\n", b""):
                    break
            if len(parts) >= 2 and parts[0] == "GET" and (
                parts[1] in ("/metrics", "/metrics/", "/")
            ):
                self.scrapes += 1
                registries = [self.registry]
                for plane in (self.perf, self.flow):
                    if plane is not None:
                        registries.append(plane.to_registry())
                body = render_prometheus(*registries).encode("utf-8")
                status = "200 OK"
            else:
                body = b"try GET /metrics\n"
                status = "404 Not Found"
            writer.write(
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {CONTENT_TYPE}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n".encode("latin-1")
            )
            writer.write(body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()
