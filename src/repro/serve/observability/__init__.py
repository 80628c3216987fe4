"""End-to-end request tracing, the unified metrics plane, and the SLO engine.

The observability layer gives every request through the serving stack one
*trace* — spans with ids, parent links and monotonic timings at each hop,
propagated over the wire and threaded in-process through
``RequestContext.trace`` — every component one *metrics registry* that
unifies the ad-hoc ``stats()`` dicts behind a single snapshot API, and the
stack as a whole a *watching* layer that evaluates its own health:

* :mod:`~repro.serve.observability.trace` —
  :class:`Tracer` / :class:`ActiveSpan` / :class:`Span` /
  :class:`TraceContext`, with head-based probabilistic sampling and
  always-sample-on-error;
* :mod:`~repro.serve.observability.metrics` — :class:`MetricsRegistry`
  (counters/gauges/histograms plus named snapshot providers; the cluster
  router's ``stats()`` is a view over it), with live *observers* fanning
  every instrument update out, and :class:`LatencyHistogram`, the one
  mergeable latency distribution every percentile in the stack reads;
* :mod:`~repro.serve.observability.timeseries` —
  :class:`WindowedSeriesStore`: constant-memory windowed history (counter
  rates, gauge-last, :class:`LatencyHistogram` percentiles) for every
  instrument, attached via the registry observer hook;
* :mod:`~repro.serve.observability.slo` — declarative SLOs
  (:class:`LatencyObjective` / :class:`AvailabilityObjective`) with error
  budgets and multi-window multi-burn-rate alert rules, evaluated by a
  thread-safe :class:`AlertManager` emitting typed :class:`AlertEvent`\\ s
  — which the gateway's event plane pushes to subscribed remote clients;
* :mod:`~repro.serve.observability.profiler` — :class:`StageProfiler`, a
  continuous sampling profiler aggregating folded stacks tagged by serving
  stage, exposed through ``observe("profile")``;
* :mod:`~repro.serve.observability.exporters` — the in-memory test sink,
  the JSONL span/metric writer, the :class:`PrometheusExporter` text
  renderer, and the ``@register_exporter`` registry the ``[observability]``
  TOML block resolves names in;
* :mod:`~repro.serve.observability.config` — :func:`tracer_from_spec`,
  building a configured tracer from that block (:func:`slo_from_spec` does
  the same for its ``[observability.slo]`` sub-table).

The live cluster-wide snapshot (and a tail of recent spans) is pullable over
the wire via the gateway's ``OBSERVE`` frame —
:meth:`repro.serve.gateway.RemoteClient.observe` — and alert/health/autoscale
transitions are *pushed* over its EVENT frames to subscribed clients.
"""

from .config import ObservabilityConfigError, tracer_from_spec
from .exporters import (
    InMemoryExporter,
    JsonlExporter,
    PrometheusExporter,
    SpanExporter,
    build_exporter,
    register_exporter,
    registered_exporters,
)
from .metrics import Counter, Gauge, Histogram, LatencyHistogram, MetricsRegistry
from .profiler import StageProfiler
from .slo import (
    SLO,
    AlertEvent,
    AlertManager,
    AvailabilityObjective,
    BurnRateRule,
    LatencyObjective,
    SLOConfigError,
    register_slo,
    registered_slos,
    slo_from_spec,
)
from .timeseries import WindowedSeriesStore
from .trace import ActiveSpan, Span, TraceContext, Tracer

__all__ = [
    "ActiveSpan",
    "AlertEvent",
    "AlertManager",
    "AvailabilityObjective",
    "BurnRateRule",
    "Counter",
    "Gauge",
    "Histogram",
    "InMemoryExporter",
    "JsonlExporter",
    "LatencyHistogram",
    "LatencyObjective",
    "MetricsRegistry",
    "ObservabilityConfigError",
    "PrometheusExporter",
    "SLO",
    "SLOConfigError",
    "Span",
    "SpanExporter",
    "StageProfiler",
    "TraceContext",
    "Tracer",
    "WindowedSeriesStore",
    "build_exporter",
    "register_exporter",
    "register_slo",
    "registered_exporters",
    "registered_slos",
    "slo_from_spec",
    "tracer_from_spec",
]
