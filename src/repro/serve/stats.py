"""Serving statistics: request counters, batch-fill accounting, latency percentiles.

Each served model gets one :class:`ModelStats` instance, updated by whichever
thread executed the batch; the middleware chain records each request's stage
timings into it once, as it unwinds.  Snapshots are cheap dictionaries so the
server can expose them from a monitoring endpoint without holding locks long.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, Iterable, List, Mapping, Optional

from .observability.metrics import LatencyHistogram

#: Samples per latency generation: p50/p95 cover the last one or two
#: generations, so old samples age out by displacement.
GENERATION = 4096

#: Stage buckets kept per model; the coldest is evicted past this, so stage
#: names interpolated with unbounded ids cannot grow memory without bound.
MAX_STAGES = 256


class ModelStats:
    """Per-model serving counters.

    ``batch_fill_ratio`` is the mean executed batch size divided by the
    batcher's ``max_batch_size`` — 1.0 means every batch left the queue full,
    values near ``1 / max_batch_size`` mean the scheduler is effectively
    serving one request at a time.
    """

    def __init__(self, max_batch_size: int) -> None:
        self.max_batch_size = max_batch_size
        self.requests = 0
        self.batches = 0
        self.padded_samples = 0
        self.errors = 0
        #: Stage buckets dropped because the key set outgrew ``MAX_STAGES``;
        #: nonzero means the breakdown in :meth:`stages` is partial.
        self.evicted_stages = 0
        self._previous = LatencyHistogram()
        self._latency = LatencyHistogram()
        # stage name -> [count, total_seconds]; fed by the middleware
        # chain with each request's per-hook/model/total timings.  Ordered
        # least- to most-recently recorded so unbounded stage-key cardinality
        # (e.g. a caller interpolating ids into stage names) evicts the
        # coldest bucket instead of growing without bound.
        self._stages: "OrderedDict[str, List[float]]" = OrderedDict()
        self._lock = threading.Lock()

    def record_batch(self, batch_size: int, padded_size: int, latencies: Iterable[float]) -> None:
        with self._lock:
            self.requests += batch_size
            self.batches += 1
            self.padded_samples += padded_size
            for value in latencies:
                if self._latency.count >= GENERATION:
                    self._previous, self._latency = self._latency, LatencyHistogram()
                self._latency.record(value)

    def record_error(self, count: int = 1) -> None:
        with self._lock:
            self.errors += count

    @classmethod
    def merged(cls, parts: Iterable["ModelStats"]) -> "ModelStats":
        """Aggregate per-replica stats for one model into a cluster-wide view.

        Counters sum; latency histograms merge by adding bucket counts, so
        the merged p50/p95 are exactly those of the *union* of the replicas'
        samples — averaging per-replica p95s would understate tail latency
        whenever replicas see different load.
        """
        parts = list(parts)
        merged = cls(max((part.max_batch_size for part in parts), default=1))
        for part in parts:
            with part._lock:
                merged.requests += part.requests
                merged.batches += part.batches
                merged.padded_samples += part.padded_samples
                merged.errors += part.errors
                merged.evicted_stages += part.evicted_stages
                merged._latency.merge(part._previous).merge(part._latency)
                stages = {stage: list(bucket) for stage, bucket in part._stages.items()}
            for stage, (count, total) in stages.items():
                bucket = merged._stages.get(stage)
                if bucket is None:
                    merged._stages[stage] = [count, total]
                else:
                    bucket[0] += count
                    bucket[1] += total
        return merged

    def record_request(
        self, timings: Mapping[str, float], outcome: Optional[str] = None
    ) -> None:
        """Record one request's timings under one lock: ``timings["total"]``
        counts as ``request.total`` (and as ``request.<outcome>``, e.g.
        ``"error"``, when given); every other entry is a stage of its own."""
        with self._lock:
            for stage, seconds in timings.items():
                if stage == "total":
                    self._add_stage("request.total", seconds)
                    if outcome is not None:
                        self._add_stage(f"request.{outcome}", seconds)
                else:
                    self._add_stage(stage, seconds)

    def _add_stage(self, stage: str, seconds: float) -> None:
        bucket = self._stages.get(stage)
        if bucket is None:
            self._stages[stage] = [1, float(seconds)]
            if len(self._stages) > MAX_STAGES:
                self._stages.popitem(last=False)
                self.evicted_stages += 1
        else:
            bucket[0] += 1
            bucket[1] += float(seconds)
            self._stages.move_to_end(stage)

    def stages(self) -> Dict[str, Dict[str, float]]:
        """Per-stage latency breakdown: count, total and mean milliseconds."""
        with self._lock:
            return {
                stage: {
                    "count": int(count),
                    "total_ms": round(total * 1e3, 4),
                    "mean_ms": round(total / count * 1e3, 4) if count else 0.0,
                }
                for stage, (count, total) in self._stages.items()
            }

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time copy of the counters plus derived ratios."""
        stages = self.stages()
        with self._lock:
            batches = self.batches
            requests = self.requests
            mean_batch = requests / batches if batches else 0.0
            fill = mean_batch / self.max_batch_size if self.max_batch_size else 0.0
            pad_overhead = self.padded_samples / requests if requests else 0.0
            latency = LatencyHistogram().merge(self._previous).merge(self._latency)
            return {
                "requests": requests,
                "batches": batches,
                "errors": self.errors,
                "evicted_stages": self.evicted_stages,
                "mean_batch_size": round(mean_batch, 3),
                "batch_fill_ratio": round(fill, 4),
                "padding_overhead_x": round(pad_overhead, 3),
                "p50_latency_ms": round(latency.quantile(0.5) * 1e3, 4),
                "p95_latency_ms": round(latency.quantile(0.95) * 1e3, 4),
                "stages": stages,
            }
