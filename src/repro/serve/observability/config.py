"""Build a configured :class:`Tracer` from the ``[observability]`` TOML block.

The block is pure data — the middleware spec parser
(:func:`repro.serve.middleware.config.parse_stack_spec`) validates its shape
and carries it on ``StackSpec.observability``; this module interprets it::

    [observability]
    sample_rate = 0.1          # head-sampling probability for root spans
    max_spans = 2048           # tracer ring-buffer capacity
    exporters = [
        "memory",                               # bare registered name
        { name = "jsonl", path = "spans.jsonl" },  # name + factory kwargs
    ]

Exporter names resolve through the :func:`~repro.serve.observability.
exporters.register_exporter` registry, so user extensions are one decorator
away — the same :class:`~repro.serve.plugins.Registry` behind
``@register_middleware`` and ``@register_scaling_policy``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from ..plugins import ConfigError, parse_entries
from .exporters import SpanExporter, build_exporter
from .trace import Tracer


class ObservabilityConfigError(ConfigError):
    """A malformed ``[observability]`` block, raised eagerly at build time."""


def tracer_from_spec(
    observability: Optional[Mapping[str, object]],
    extra_exporters: Tuple[SpanExporter, ...] = (),
) -> Optional[Tracer]:
    """Interpret one ``[observability]`` table into a :class:`Tracer`.

    Accepts the raw mapping or a parsed :class:`~repro.serve.middleware.
    config.StackSpec` (its ``observability`` field is read).  Returns ``None``
    for an absent/empty block — the caller keeps the tracing-off fast path.
    """
    table = getattr(observability, "observability", observability)
    if not table:
        return None
    if not isinstance(table, Mapping):
        raise ObservabilityConfigError(
            f"[observability] must be a table, got {type(table).__name__}"
        )
    # "slo" is carried on the same table but interpreted by slo_from_spec
    # (repro.serve.observability.slo); the tracer builder ignores it.
    known = {"sample_rate", "max_spans", "exporters", "slo"}
    unknown = set(table) - known
    if unknown:
        raise ObservabilityConfigError(
            f"unknown [observability] keys {sorted(unknown)}; known: {sorted(known)}"
        )
    sample_rate = table.get("sample_rate", 1.0)
    if isinstance(sample_rate, bool) or not isinstance(sample_rate, (int, float)):
        raise ObservabilityConfigError(
            f"'sample_rate' must be a number in [0, 1], got {sample_rate!r}"
        )
    if not 0.0 <= float(sample_rate) <= 1.0:
        raise ObservabilityConfigError(
            f"'sample_rate' must be within [0, 1], got {sample_rate!r}"
        )
    max_spans = table.get("max_spans", 2048)
    if isinstance(max_spans, bool) or not isinstance(max_spans, int) or max_spans < 1:
        raise ObservabilityConfigError(
            f"'max_spans' must be a positive integer, got {max_spans!r}"
        )
    exporters: List[SpanExporter] = []
    for name, kwargs in parse_entries(
        table.get("exporters") or (), "'exporters'", "exporter", ObservabilityConfigError
    ):
        try:
            exporters.append(build_exporter(name, kwargs))
        except ConfigError as error:
            raise ObservabilityConfigError(str(error)) from None
    exporters.extend(extra_exporters)
    return Tracer(
        sample_rate=float(sample_rate), exporters=exporters, max_spans=int(max_spans)
    )


__all__ = ["ObservabilityConfigError", "tracer_from_spec"]
