"""Span/metric exporters plus the ``@register_exporter`` extension registry.

An exporter is anything with ``export(span_dict)``; the tracer calls it for
every *retained* span (sampled, or error-annotated under
always-sample-on-error) and swallows exporter failures — observability must
never take serving down with it.  Two built-ins:

* :class:`InMemoryExporter` — a bounded list for tests and demos;
* :class:`JsonlExporter` — one JSON object per line, append-only; also
  writes metric snapshots (tagged ``"kind": "metrics"``) on demand so one
  file carries a session's full observability record.

User exporters (:class:`SpanExporter` subclasses) join the name registry
with :func:`register_exporter`, which is what lets the ``[observability]``
TOML block reference them declaratively (see
:mod:`repro.serve.observability.config`).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, List

from ..plugins import Registry


class SpanExporter:
    """Base exporter: override :meth:`export`; :meth:`close` is optional."""

    def export(self, span: Dict[str, object]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; the default has none."""


class InMemoryExporter(SpanExporter):
    """Collects exported spans in a bounded list (oldest dropped first)."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._spans: List[Dict[str, object]] = []
        self._lock = threading.Lock()

    def export(self, span: Dict[str, object]) -> None:
        with self._lock:
            self._spans.append(span)
            if len(self._spans) > self.capacity:
                del self._spans[: len(self._spans) - self.capacity]

    @property
    def spans(self) -> List[Dict[str, object]]:
        with self._lock:
            return list(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


class JsonlExporter(SpanExporter):
    """Appends one JSON line per span (and tagged metric snapshots) to a file."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._handle = open(self.path, "a", encoding="utf-8")
        self._written = 0

    def _write(self, payload: Dict[str, object]) -> None:
        line = json.dumps(payload, default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()
            self._written += 1

    def export(self, span: Dict[str, object]) -> None:
        self._write({"kind": "span", **span})

    def write_metrics(self, snapshot: Dict[str, object]) -> None:
        """Append one metrics snapshot line (``"kind": "metrics"``)."""
        self._write({"kind": "metrics", "metrics": snapshot})

    @property
    def lines_written(self) -> int:
        with self._lock:
            return self._written

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


class PrometheusExporter(SpanExporter):
    """Renders a :class:`MetricsRegistry` snapshot as Prometheus text format.

    Not a span sink (``export`` is a deliberate no-op — Prometheus scrapes
    metrics, it does not ingest spans): the value is :meth:`render`, which
    turns the ``instruments`` section of a registry snapshot into the
    ``text/plain; version=0.0.4`` exposition format, so any snapshot —
    local, or pulled over the wire via ``observe("metrics")`` — can be
    served to a scraper without bespoke tooling.  Metric names swap dots
    for underscores (``gateway.requests`` → ``gateway_requests_total``);
    histograms render the coherent ``snapshot()`` shape: ``_bucket{le=...}``
    cumulative counts plus ``_count``/``_sum``.
    """

    CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def export(self, span: Dict[str, object]) -> None:
        """Spans are not scrape-able; deliberately dropped."""

    @staticmethod
    def _name(metric: str, suffix: str = "") -> str:
        safe = "".join(
            char if char.isalnum() or char == "_" else "_" for char in metric
        )
        if safe and safe[0].isdigit():
            safe = "_" + safe
        return safe + suffix

    def render(self, source) -> str:
        """Exposition text from a registry, a snapshot dict, or instruments.

        Accepts a :class:`~repro.serve.observability.metrics.MetricsRegistry`
        (its live instruments are read, histograms via their coherent
        ``snapshot()``), a full ``snapshot()`` dict (the ``"instruments"``
        section is used), or a bare instruments dict.
        """
        registry = source if hasattr(source, "instruments") else None
        if registry is not None:
            instruments = registry.instruments()
        elif isinstance(source, dict):
            instruments = source.get("instruments", source)
        else:
            raise TypeError(
                f"cannot render {type(source).__name__}: expected a MetricsRegistry "
                "or a snapshot dict"
            )
        lines: List[str] = []
        for name, value in sorted(dict(instruments.get("counters", {})).items()):
            metric = self._name(name, "_total")
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        for name, value in sorted(dict(instruments.get("gauges", {})).items()):
            metric = self._name(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {value}")
        histograms = dict(instruments.get("histograms", {}))
        for name in sorted(histograms):
            metric = self._name(name)
            lines.append(f"# TYPE {metric} histogram")
            detail = None
            if registry is not None:
                # Live registry: the coherent single-lock snapshot with
                # cumulative buckets.  A summary-shaped dict (count/mean/pXX,
                # what instruments() carries) renders without buckets.
                with_buckets = registry.histogram(name).snapshot()
                detail = with_buckets
            elif isinstance(histograms[name], dict) and "buckets" in histograms[name]:
                detail = histograms[name]
            summary = histograms[name] if isinstance(histograms[name], dict) else {}
            if detail is not None:
                for bound, count in detail["buckets"].items():
                    lines.append(f'{metric}_bucket{{le="{bound}"}} {count}')
                lines.append(f"{metric}_count {detail['count']}")
                lines.append(f"{metric}_sum {detail['sum']}")
            else:
                lines.append(f"{metric}_count {summary.get('count', 0)}")
        return "\n".join(lines) + ("\n" if lines else "")


# ----------------------------------------------------------------------
# The exporter registry (what [observability] exporters = [...] resolves in)
# ----------------------------------------------------------------------
EXPORTERS: Registry[SpanExporter] = Registry("exporter", SpanExporter, "register_exporter")
register_exporter = EXPORTERS.register
registered_exporters = EXPORTERS.names
build_exporter = EXPORTERS.build

register_exporter("memory", InMemoryExporter)
register_exporter("jsonl", JsonlExporter)
register_exporter("prometheus", PrometheusExporter)

__all__ = [
    "InMemoryExporter",
    "JsonlExporter",
    "PrometheusExporter",
    "SpanExporter",
    "build_exporter",
    "register_exporter",
    "registered_exporters",
]
