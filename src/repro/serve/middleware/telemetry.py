"""Telemetry: a no-op middleware kept so stack specs that list it resolve.

The chain itself records every request's timing breakdown — each timed hook,
``model``, ``request.total`` and the ``request.error`` / ``request.cache_hit``
outcome counters — into the :class:`~repro.serve.stats.ModelStats` its host
attaches to the context (see :meth:`MiddlewareChain.exit`), so what is counted
does not depend on where, or whether, ``Telemetry`` sits in a stack.
"""

from __future__ import annotations

from .base import ServeMiddleware


class Telemetry(ServeMiddleware):
    """Overrides no hook; the chain records stage timings itself."""
