"""Telemetry middleware: exports the chain's timing breakdown into ModelStats.

The chain already stamps every hook invocation, the model forward and the
end-to-end total into ``RequestContext.timings``; this middleware flushes
that breakdown into the per-model :class:`~repro.serve.stats.ModelStats` the
server attaches to each context (falling back to a locally owned instance
when used outside a server, e.g. in a client-side proxy chain).

Register Telemetry **first**: registration order is descent order, so the
first middleware unwinds last and its ``on_response`` observes the timings
of everything inside it.  Counters exported per request:

* ``request.total`` — end-to-end latency (also counts requests: its ``count``
  equals every request that entered the chain, success or failure);
* ``request.error`` / ``request.cache_hit`` — outcome sub-counters;
* one ``<middleware>.<hook>`` stage per timed hook, plus ``model``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict

from ..stats import ModelStats
from .base import RequestContext, ServeMiddleware


class Telemetry(ServeMiddleware):
    """Flushes per-request stage timings into per-model ``ModelStats``."""

    def __init__(self) -> None:
        self._local: Dict[str, ModelStats] = {}
        self._lock = threading.Lock()

    def _stats_for(self, context: RequestContext) -> ModelStats:
        if context.stats is not None:
            return context.stats
        with self._lock:
            stats = self._local.get(context.model_id)
            if stats is None:
                stats = ModelStats(max_batch_size=1)
                self._local[context.model_id] = stats
            return stats

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Snapshots of the locally owned stats (server-attached stats are
        exported through ``InferenceServer.stats()`` instead)."""
        with self._lock:
            ids = list(self._local)
        return {model_id: self._local[model_id].snapshot() for model_id in ids}

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_response(self, context: RequestContext) -> None:
        stats = self._stats_for(context)
        total = time.perf_counter() - context.created_at
        stats.record_stage("request.total", total)
        if context.error is not None:
            stats.record_stage("request.error", total)
        elif context.metadata.get("cache") == "hit":
            stats.record_stage("request.cache_hit", total)
        for stage, seconds in context.timings.items():
            stats.record_stage(stage, seconds)
