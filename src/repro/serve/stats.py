"""Serving statistics: request counters, batch-fill accounting, latency percentiles.

Each served model gets one :class:`ModelStats` instance, updated by whichever
thread executed the batch; the middleware chain records each request's stage
timings into it once, as it unwinds.  Snapshots are cheap dictionaries so the
server can expose them from a monitoring endpoint without holding locks long.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Mapping, Optional

from .observability.timeseries import WindowedSeriesStore

#: Seconds of latency history behind p50/p95, kept as one-second buckets: a
#: sample ages out by wall clock, as the windowed SLO reads do, so an idle
#: model's percentiles fall to 0 a minute after its last request.
LATENCY_WINDOW = 60

#: Stage buckets kept per model; the coldest is evicted past this, so stage
#: names interpolated with unbounded ids cannot grow memory without bound.
MAX_STAGES = 256

_LATENCY = "latency"


class ModelStats:
    """Per-model serving counters.

    ``batch_fill_ratio`` is the mean executed batch size divided by the
    batcher's ``max_batch_size`` — 1.0 means every batch left the queue full,
    values near ``1 / max_batch_size`` mean the scheduler is effectively
    serving one request at a time.  ``clock`` ages the latency window.
    """

    def __init__(self, max_batch_size: int, clock: Callable[[], float] = time.monotonic) -> None:
        self.max_batch_size = max_batch_size
        self.requests = 0
        self.batches = 0
        self.padded_samples = 0
        self.errors = 0
        #: Stage buckets dropped because the key set outgrew ``MAX_STAGES``;
        #: nonzero means the breakdown in :meth:`stages` is partial.
        self.evicted_stages = 0
        self._clock = clock
        self._latency = WindowedSeriesStore(buckets=LATENCY_WINDOW, clock=clock)
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
                self._latency.record_observation(_LATENCY, value)

    def record_error(self, count: int = 1) -> None:
        with self._lock:
            self.errors += count

    @classmethod
    def merged(cls, parts: Iterable["ModelStats"]) -> "ModelStats":
        """Aggregate per-replica stats for one model into a cluster-wide view.

        Counters sum; latency windows merge by adding bucket counts, so the
        merged p50/p95 are exactly those of the *union* of the replicas'
        windows — averaging per-replica p95s would understate tail latency
        whenever replicas see different load.
        """
        parts = list(parts)
        merged = cls(
            max((part.max_batch_size for part in parts), default=1),
            clock=parts[0]._clock if parts else time.monotonic,
        )
        for part in parts:
            with part._lock:
                merged.requests += part.requests
                merged.batches += part.batches
                merged.padded_samples += part.padded_samples
                merged.errors += part.errors
                merged.evicted_stages += part.evicted_stages
                merged._latency.merge(part._latency)
                stages = {stage: list(bucket) for stage, bucket in part._stages.items()}
            merged._add_stages(stages)
        return merged

    @classmethod
    def cluster_view(
        cls, record: Optional["ModelStats"], replicas: Iterable["ModelStats"]
    ) -> "ModelStats":
        """One model across a cluster, each request counted once: outcomes
        (``errors``, the ``request.*`` stages) from the router's ``record``,
        execution facts (requests, batches, padding, latency, other stages)
        from the merged ``replicas``, plus the router chain's hook stages."""
        view = cls.merged(replicas)
        view.errors = 0
        for stage in [name for name in view._stages if name.startswith("request.")]:
            del view._stages[stage]
        if record is not None:
            with record._lock:
                view.errors = record.errors
                view.evicted_stages += record.evicted_stages
                stages = {stage: list(bucket) for stage, bucket in record._stages.items()}
            view._add_stages(stages)
        return view

    def _add_stages(self, stages: Mapping[str, List[float]]) -> None:
        for stage, (count, total) in stages.items():
            bucket = self._stages.get(stage)
            if bucket is None:
                self._stages[stage] = [count, total]
            else:
                bucket[0] += count
                bucket[1] += total

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
            return self._stage_view()

    def _stage_view(self) -> Dict[str, Dict[str, float]]:
        return {
            stage: {
                "count": int(count),
                "total_ms": round(total * 1e3, 4),
                "mean_ms": round(total / count * 1e3, 4) if count else 0.0,
            }
            for stage, (count, total) in self._stages.items()
        }

    def snapshot(self) -> Dict[str, float]:
        """A point-in-time copy of the counters plus derived ratios, all read
        under one lock acquisition so ``stages`` and the counters agree."""
        with self._lock:
            batches = self.batches
            requests = self.requests
            mean_batch = requests / batches if batches else 0.0
            fill = mean_batch / self.max_batch_size if self.max_batch_size else 0.0
            pad_overhead = self.padded_samples / requests if requests else 0.0
            latency = self._latency.histogram(_LATENCY)
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
                "stages": self._stage_view(),
            }
