"""Metric exposition: Prometheus text format, JSON snapshots, HTTP.

Everything the registry and the windowed telemetry know can be read out
in two wire formats:

* :func:`render_prometheus` — the Prometheus text exposition format
  (version 0.0.4): counters and gauges one sample per line, histograms
  as summaries (``{quantile="..."}`` plus ``_count``/``_sum``);
* :func:`render_json` — the same data as one JSON document, optionally
  with extra sections (windowed snapshot, SLO status, exemplars).

:class:`TelemetryEndpoint` serves both from inside a running server
process over a deliberately tiny HTTP/1.0 implementation on
``asyncio.start_server`` — no dependencies, three routes::

    /metrics        Prometheus text
    /metrics.json   registry + extra sections as JSON
    /healthz        200 ok

Scrape it with ``curl``, a Prometheus instance, or ``repro top --url``.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = [
    "LabeledSample",
    "TelemetryEndpoint",
    "prometheus_name",
    "render_json",
    "render_prometheus",
]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Interior quantiles exposed for histogram summaries.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)

#: One labeled exposition sample: (dotted name, labels, value).
LabeledSample = Tuple[str, Dict[str, str], float]


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """Sanitize a dotted metric name into a Prometheus identifier."""
    flat = _NAME_OK.sub("_", name.replace(".", "_").replace("-", "_"))
    if prefix:
        flat = f"{prefix}_{flat}"
    if flat and flat[0].isdigit():
        flat = "_" + flat
    return flat


def _format_value(value: Any) -> str:
    try:
        number = float(value)
    except (TypeError, ValueError):
        return "NaN"
    if math.isnan(number):
        return "NaN"
    if math.isinf(number):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _escape_label_value(value: Any) -> str:
    """Prometheus text-format label escaping: backslash, quote, newline."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_NAME_OK.sub("_", key)}="{_escape_label_value(value)}"'
        for key, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def render_prometheus(
    registry: MetricsRegistry,
    prefix: str = "repro",
    extra_samples: Optional[Iterable[LabeledSample]] = None,
) -> str:
    """The registry in Prometheus text exposition format (0.0.4).

    ``extra_samples`` appends labeled gauge samples the flat registry
    cannot express (per-device battery levels, per-source wattage);
    consecutive samples of the same dotted name share one TYPE line.
    """
    lines = []
    for name, snap in sorted(registry.snapshot().items()):
        flat = prometheus_name(name, prefix)
        kind = snap.get("type")
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {flat} {kind}")
            lines.append(f"{flat} {_format_value(snap['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {flat} summary")
            for q in SUMMARY_QUANTILES:
                key = f"p{int(q * 100)}"
                lines.append(
                    f'{flat}{{quantile="{q}"}} '
                    f"{_format_value(snap.get(key))}"
                )
            lines.append(f"{flat}_count {_format_value(snap['count'])}")
            lines.append(f"{flat}_sum {_format_value(snap['sum'])}")
        else:  # unknown instrument: expose what we can as untyped
            lines.append(f"{flat} {_format_value(snap.get('value'))}")
    if extra_samples is not None:
        last_flat = None
        for name, labels, value in extra_samples:
            flat = prometheus_name(name, prefix)
            if flat != last_flat:
                lines.append(f"# TYPE {flat} gauge")
                last_flat = flat
            lines.append(
                f"{flat}{_format_labels(labels)} {_format_value(value)}"
            )
    return "\n".join(lines) + "\n"


def render_json(
    registry: MetricsRegistry,
    extra: Optional[Dict[str, Any]] = None,
    indent: Optional[int] = None,
) -> str:
    """Registry snapshot (plus optional extra sections) as JSON."""
    doc: Dict[str, Any] = {"metrics": registry.snapshot()}
    if extra:
        doc.update(extra)
    return json.dumps(doc, indent=indent, sort_keys=True, default=str)


class TelemetryEndpoint:
    """Minimal asyncio HTTP server exposing live telemetry.

    Args:
        registry: metrics source for both formats.
        snapshot_fn: optional zero-arg callable returning extra JSON
            sections (windowed telemetry, SLO status, exemplars) merged
            into ``/metrics.json``.
        samples_fn: optional zero-arg callable returning labeled
            samples appended to ``/metrics`` (per-device battery
            levels, per-source wattage).
        host: bind address (default loopback).
        port: bind port; 0 picks a free one (see :attr:`port` after
            :meth:`start`).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        snapshot_fn: Optional[Callable[[], Dict[str, Any]]] = None,
        samples_fn: Optional[Callable[[], Iterable[LabeledSample]]] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.registry = registry
        self.snapshot_fn = snapshot_fn
        self.samples_fn = samples_fn
        self.host = host
        self._requested_port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: requests served, by route (for tests and the top view)
        self.scrapes = 0

    @property
    def port(self) -> Optional[int]:
        """The bound port once started (None before)."""
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> "TelemetryEndpoint":
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self._requested_port
        )
        return self

    async def close(self) -> None:
        # Swap the handle out *before* awaiting so a concurrent close()
        # (or a start() racing a shutdown) never sees a half-closed
        # server through self._server.
        server, self._server = self._server, None
        if server is not None:
            server.close()
            await server.wait_closed()

    # -- request handling ----------------------------------------------------

    def _respond(self, path: str) -> tuple:
        if path in ("/metrics", "/"):
            extra = self.samples_fn() if self.samples_fn else None
            return 200, "text/plain; version=0.0.4", render_prometheus(
                self.registry, extra_samples=extra
            )
        if path == "/metrics.json":
            extra = self.snapshot_fn() if self.snapshot_fn else None
            return 200, "application/json", render_json(
                self.registry, extra=extra, indent=2
            )
        if path == "/healthz":
            return 200, "text/plain", "ok\n"
        return 404, "text/plain", f"no route {path}\n"

    async def _handle(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            # Drain (and ignore) headers up to the blank line.
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            status, ctype, body = self._respond(path.split("?", 1)[0])
            self.scrapes += 1
            payload = body.encode("utf-8")
            reason = {200: "OK", 404: "Not Found"}.get(status, "OK")
            head = (
                f"HTTP/1.0 {status} {reason}\r\n"
                f"Content-Type: {ctype}; charset=utf-8\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
            except RuntimeError:  # loop already closing
                pass
