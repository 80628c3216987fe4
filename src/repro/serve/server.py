"""Inference server: one queue-and-worker serving path.

Clients enqueue submissions (``submit`` one row, ``submit_many`` a whole
batch as *one* queue item); worker threads take them off the shared queue,
group them by model and execute each group as padded batches.  Every row
resolves its own :class:`concurrent.futures.Future`, so clients block only
on their own result.  ``predict`` / ``predict_batch`` build the same queue
item and execute it on the caller's thread, the caller acting as its own
worker, so a server that was never started still serves.

A worker closes a batch on evidence, not on a clock.  After taking its first
item it drains whatever is already queued, without blocking, up to
``batcher.max_batch_size`` rows.  It then waits for more only while the
observed arrival rate — a moving average of the gaps between enqueues —
predicts another submission before ``first pickup + batcher.max_wait``, and
each wait lasts at most twice that expected gap, so a stream that stops
closes the batch early.  An enqueue that finds the server idle (no queued
rows, no rows held by a worker) counts as a gap of ``2 * max_wait``: the
last answer may have caused it, so it is no evidence of more demand.  A
caller that waits for each answer therefore never waits out ``max_wait``,
which bounds the wait rather than fixing it; ``max_wait=0`` never waits.

Every request funnels through :meth:`_serve_contexts`, which hands the
coalesced group to the server's
:class:`~repro.serve.middleware.MiddlewareChain`, so hooks run around the
*coalesced* batch, and ``predict`` raises what a ``submit`` future carries.
The chain runs even when empty: every served request records its
``request.total`` and ``model`` stages, and its latency is the chain's
``timings["total"]``.

Per-model statistics (request/batch counts, batch-fill ratio, p50/p95
latency, middleware stage timings) are tracked in
:class:`~repro.serve.stats.ModelStats`.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .batcher import Batcher
from .middleware import MiddlewareChain, RequestContext, ServeMiddleware
from .observability import MetricsRegistry, TraceContext, Tracer
from .registry import ModelRegistry
from .stats import ModelStats


class ServerStopped(RuntimeError):
    """Typed rejection: ``submit()`` was called on a server after ``stop()``.

    Raised synchronously by :meth:`InferenceServer.submit`; callers that cross
    an async boundary (the proxy's ``submit``, the cluster router's failover)
    surface it through their futures, so clients can catch one exception type
    whether the stop happened before or mid-flight.  The cluster layer treats
    it as *retryable*: another replica may still be serving.
    """


class ServerOverloaded(RuntimeError):
    """Typed rejection: the request queue is full (back-pressure signal).

    Like :class:`ServerStopped` this is retryable from a router's point of
    view — a different replica may have queue headroom.
    """


@dataclass
class _Request:
    """One queue item: the rows of one ``submit``/``submit_many`` call.

    Each row has its own future (and, when traced, its own parent context),
    so a batch travels the queue as one item yet resolves row by row.
    """

    model_id: str
    samples: List[np.ndarray]
    futures: List[Future]
    tenant: str = "default"
    traces: Optional[Sequence[Optional[TraceContext]]] = None
    submitted_at: float = field(default_factory=time.perf_counter)


_SHUTDOWN = object()

#: Weight of the newest gap in the moving average of inter-arrival gaps.
_GAP_WEIGHT = 0.2


class InferenceServer:
    """Serves registered models, coalescing concurrent requests into batches."""

    def __init__(
        self,
        registry: ModelRegistry,
        batcher: Optional[Batcher] = None,
        num_workers: int = 2,
        queue_size: int = 4096,
        middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        metrics_prefix: str = "",
    ) -> None:
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        self.registry = registry
        self.batcher = batcher if batcher is not None else Batcher()
        self.num_workers = num_workers
        self.middleware = MiddlewareChain.coerce(middleware)
        self.tracer = tracer
        #: Queued items; ``_queued_rows`` counts their rows, which is what
        #: ``queue_size`` bounds, and ``_held_rows`` the rows taken for
        #: execution but not answered yet.  ``_gap`` is the moving average of the gaps
        #: between enqueues (``None`` until two have been seen) and
        #: ``_last_arrival`` the newest enqueue; all five live under
        #: ``_ready``, the lock every enqueue already takes.
        self._queue: Deque[object] = deque()
        self._queue_size = queue_size
        self._queued_rows = 0
        self._held_rows = 0
        self._gap: Optional[float] = None
        self._last_arrival: Optional[float] = None
        self._ready = threading.Condition(threading.Lock())
        self._workers: List[threading.Thread] = []
        self._running = False
        self._stopped = False
        self._lifecycle_lock = threading.Lock()
        self._stats: Dict[str, ModelStats] = {}
        self._stats_lock = threading.Lock()
        if metrics is not None:
            # ``metrics_prefix`` namespaces the providers so several servers
            # (one per cluster replica) can share one registry.
            metrics.bind(f"{metrics_prefix}server", self.stats)
            metrics.bind(f"{metrics_prefix}batcher", self.batcher.stats)
            metrics.bind(f"{metrics_prefix}registry", self.registry.stats)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _model_stats(self, model_id: str) -> ModelStats:
        with self._stats_lock:
            stats = self._stats.get(model_id)
            if stats is None:
                stats = ModelStats(self.batcher.max_batch_size)
                self._stats[model_id] = stats
            return stats

    def model_stats(self, model_id: str) -> Optional[ModelStats]:
        """The live :class:`ModelStats` for ``model_id`` (``None``, not created,
        when this server has none).

        Exposed so a cluster router can merge per-replica latency histograms
        (:meth:`ModelStats.merged`) without going through rounded snapshots.
        """
        with self._stats_lock:
            return self._stats.get(model_id)

    def stats(self, model_id: Optional[str] = None) -> Dict[str, object]:
        """Serving stats; pass a model id for one model's snapshot.

        Without a model id the snapshot covers the whole server: per-model
        stats under ``"models"`` plus ``queue_depth`` and the
        ``running``/``stopped`` lifecycle flags, read together so a placement
        policy (e.g. least-loaded) sees one consistent view instead of
        stitching racy property reads.
        """
        if model_id is not None:
            return self._model_stats(model_id).snapshot()
        with self._stats_lock:
            ids = list(self._stats)
        # Lifecycle flags are read without the lifecycle lock on purpose: a
        # monitoring read must never block behind a stop() that is draining a
        # long queue, and single-attribute reads are atomic under the GIL.
        return {
            "models": {mid: self._model_stats(mid).snapshot() for mid in ids},
            "queue_depth": self._queued_rows,
            "running": self._running,
            "stopped": self._stopped,
        }

    @property
    def queue_depth(self) -> int:
        """Rows queued and not yet picked up by a worker."""
        return self._queued_rows

    # ------------------------------------------------------------------
    # Serving on the caller's thread
    # ------------------------------------------------------------------
    def predict(
        self,
        model_id: str,
        sample: np.ndarray,
        tenant: str = "default",
        trace: Optional[TraceContext] = None,
    ) -> np.ndarray:
        """Serve one sample on the caller's thread (a batch of one)."""
        return self.predict_batch(model_id, [sample], tenant=tenant, trace=trace)[0]

    def predict_batch(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        tenant: str = "default",
        trace: Optional[TraceContext] = None,
    ) -> List[np.ndarray]:
        """Serve many samples on the caller's thread, chunked into padded batches.

        The rows form one queue item that the caller executes itself, exactly
        as a worker would, so per-row outcomes match ``submit_many``.  Delivery
        is fail-fast: every row runs, then the first row error (a middleware
        rejection or a model failure) is raised and the sibling results are
        discarded.  Use ``submit_many`` when partial results of a mixed batch
        matter.
        """
        rows = [np.asarray(sample) for sample in samples]
        request = _Request(
            model_id, rows, [Future() for _ in rows], tenant=tenant, traces=[trace] * len(rows)
        )
        with self._ready:
            self._held_rows += len(rows)
        self._execute(model_id, [request])
        return [future.result() for future in request.futures]

    # ------------------------------------------------------------------
    # Queue and workers
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "InferenceServer":
        """Spawn the worker threads that drain the request queue."""
        with self._lifecycle_lock:
            if self._running:
                return self
            self._running = True
            self._stopped = False
            self._workers = [
                threading.Thread(
                    target=self._worker_loop, name=f"serve-worker-{index}", daemon=True
                )
                for index in range(self.num_workers)
            ]
            for worker in self._workers:
                worker.start()
        return self

    def stop(self) -> None:
        """Stop the workers, then drain and serve anything still queued.

        Idempotent: extra ``stop()`` calls (including before any ``start()``)
        are no-ops.  After ``stop()`` the server can be started again;
        ``submit()`` in between raises a typed :class:`ServerStopped` instead
        of enqueueing onto a dead queue.
        """
        with self._lifecycle_lock:
            if not self._running:
                self._stopped = True
                return
            self._running = False
            self._stopped = True
            with self._ready:
                self._queue.extend(_SHUTDOWN for _ in self._workers)
                self._ready.notify_all()
            for worker in self._workers:
                worker.join()
            self._workers = []
            with self._ready:
                leftovers = [item for item in self._queue if item is not _SHUTDOWN]
                self._queue.clear()
                self._held_rows += self._queued_rows
                self._queued_rows = 0
            if leftovers:
                self._execute_groups(leftovers)

    def __enter__(self) -> "InferenceServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def swap_middleware(
        self, middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None]
    ) -> MiddlewareChain:
        """Atomically replace the middleware chain; returns the old chain.

        Safe on a running server: each coalesced group reads ``self.middleware``
        exactly once, and a chain's unwind operates on the ``entered`` list it
        produced — never on the chain's current members — so every in-flight
        request finishes, start to unwind, on the chain it entered.  Requests
        picked up after the swap see the new chain.  Taken under the lifecycle
        lock so a swap cannot interleave with ``stop()``'s drain.
        """
        new = MiddlewareChain.coerce(middleware)
        with self._lifecycle_lock:
            old = self.middleware
            self.middleware = new
        return old

    def submit(
        self,
        model_id: str,
        sample: np.ndarray,
        tenant: str = "default",
        trace: Optional[TraceContext] = None,
    ) -> Future:
        """Enqueue one sample; the returned future resolves to its output array."""
        traces = None if trace is None else [trace]
        return self.submit_many(model_id, [sample], tenant=tenant, traces=traces)[0]

    def submit_many(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        tenant: str = "default",
        traces: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> List[Future]:
        """Enqueue ``samples`` as one queue item; one future per row, in order.

        All or nothing: when the rows do not fit in the queue the call raises
        :class:`ServerOverloaded` and no row is enqueued, so the caller never
        loses a row it holds no future for.  ``traces`` gives each row its
        parent trace context.

        The running check and the enqueue happen under the lifecycle lock so a
        request can never slip into the queue after ``stop()`` has drained it
        (which would leave its future unresolved forever).  The enqueue itself
        is non-blocking: a full queue raises rather than deadlocking ``stop()``
        against a blocked enqueue holding the lifecycle lock.
        """
        rows = [np.asarray(sample) for sample in samples]
        if not rows:
            return []
        request = _Request(model_id, rows, [Future() for _ in rows], tenant=tenant, traces=traces)
        with self._lifecycle_lock:
            if not self._running:
                if self._stopped:
                    raise ServerStopped(
                        "server has been stopped; call start() again before submit()"
                    )
                raise RuntimeError("server is not started; call start() or use predict()")
            with self._ready:
                if 0 < self._queue_size < self._queued_rows + len(rows):
                    raise ServerOverloaded(
                        f"request queue is full ({self._queued_rows} of "
                        f"{self._queue_size} rows pending, {len(rows)} offered); "
                        "add workers or apply back-pressure upstream"
                    )
                idle = not self._queued_rows and not self._held_rows
                self._queue.append(request)
                self._queued_rows += len(rows)
                self._stamp_arrival(time.perf_counter(), idle)
                self._ready.notify()
        return request.futures

    def _stamp_arrival(self, now: float, idle: bool) -> None:
        """Fold one enqueue (``now``, read under ``_ready``) into the moving
        average of inter-arrival gaps.

        Gaps are capped at twice ``max_wait``: any longer gap already says
        "nothing arrives within the wait", and the cap lets the average fall
        back within a few submissions when a burst follows an idle spell.  An
        enqueue that found the server ``idle`` counts as the capped gap
        whatever its clock gap: the last answer may have caused it.
        """
        if self._last_arrival is not None:
            cap = 2 * self.batcher.max_wait
            gap = cap if idle else min(now - self._last_arrival, cap)
            if self._gap is None:
                self._gap = gap
            else:
                self._gap += _GAP_WEIGHT * (gap - self._gap)
        self._last_arrival = now

    # ------------------------------------------------------------------
    # Worker internals
    # ------------------------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            requests, saw_shutdown = self._next_batch()
            if requests:
                self._execute_groups(requests)
            if saw_shutdown:
                return

    def _next_batch(self) -> Tuple[List[_Request], bool]:
        """Block for one item, then coalesce on evidence (see the module doc).

        Returns the items taken and whether a shutdown sentinel was seen.
        """
        max_rows = self.batcher.max_batch_size
        with self._ready:
            while not self._queue:
                self._ready.wait()
            requests: List[_Request] = []
            rows = 0
            deadline = time.perf_counter() + self.batcher.max_wait
            while True:
                while self._queue and rows < max_rows:
                    item = self._queue.popleft()
                    if item is _SHUTDOWN:
                        return requests, True
                    requests.append(item)
                    rows += len(item.samples)
                    self._queued_rows -= len(item.samples)
                    self._held_rows += len(item.samples)
                if rows >= max_rows:
                    return requests, False
                remaining = deadline - time.perf_counter()
                gap = self._gap
                if gap is None or gap > remaining:
                    return requests, False
                self._ready.wait(min(remaining, 2 * gap))
                if not self._queue:
                    return requests, False

    def _execute_groups(self, requests: List[_Request]) -> None:
        groups: Dict[str, List[_Request]] = {}
        for request in requests:
            groups.setdefault(request.model_id, []).append(request)
        for model_id, group in groups.items():
            self._execute(model_id, group)

    def _execute(self, model_id: str, group: List[_Request]) -> None:
        """Serve one coalesced same-model group in batches of at most
        ``max_batch_size`` rows, resolving each row's future as its batch ends.

        The group's rows are counted in ``_held_rows``.  Each batch releases
        its count before its futures resolve, so a caller woken by its answer
        finds the server idle when it sends the next request.
        """
        contexts: List[RequestContext] = []
        futures: List[Future] = []
        parents: List[Optional[TraceContext]] = []
        for request in group:
            contexts.extend(
                RequestContext(
                    model_id=model_id,
                    sample=sample,
                    tenant=request.tenant,
                    source="server",
                    created_at=request.submitted_at,
                )
                for sample in request.samples
            )
            futures.extend(request.futures)
            parents.extend(request.traces or [None] * len(request.samples))
        size = self.batcher.max_batch_size
        for start in range(0, len(contexts), size):
            chunk = contexts[start : start + size]
            self._serve_contexts(model_id, chunk, parents=parents[start : start + size])
            with self._ready:
                self._held_rows -= len(chunk)
            for future, context in zip(futures[start : start + size], chunk):
                if context.error is not None:
                    future.set_exception(context.error)
                else:
                    future.set_result(context.response)

    # ------------------------------------------------------------------
    # The one pipeline every request takes
    # ------------------------------------------------------------------
    def _serve_contexts(
        self,
        model_id: str,
        contexts: List[RequestContext],
        parents: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> None:
        """Run a coalesced same-model group through the middleware chain.

        The model executes once over the contexts the chain left pending
        (neither short-circuited nor rejected).  Stats accounting:
        ``requests`` counts model-served requests; ``errors`` counts every
        failed request from the caller's point of view — model/batcher
        failures *and* middleware rejections such as rate limiting
        (distinguish them via ``RateLimiter.stats()`` or the chain-recorded
        stages); requests a middleware answered (cache hits) appear only in
        the stages (``request.total`` / ``request.cache_hit``).  Served
        latencies are each context's ``timings["total"]``.  An empty chain
        runs too: its only cost is the timing it records.
        """
        stats = self._model_stats(model_id)
        spans = self._open_request_spans(model_id, contexts, parents)
        chain = self.middleware
        for context in contexts:
            context.stats = stats
        ran: List[RequestContext] = []

        def run_model(pending: List[RequestContext]) -> None:
            model = self.registry.get(model_id)
            outputs = self.batcher.run_batch(model, [context.sample for context in pending])
            for context, output in zip(pending, outputs):
                context.response = output
            ran.extend(pending)

        chain.execute_batch(contexts, run_model)

        failed = sum(1 for context in contexts if context.error is not None)
        if failed:
            stats.record_error(failed)
        # A request that executed but errored on the unwind (an on_response
        # hook raised) counts as an error, not a served request.
        succeeded = [context for context in ran if context.error is None]
        if succeeded:
            latencies = [context.timings["total"] for context in succeeded]
            stats.record_batch(len(succeeded), self.batcher.padded_size(len(ran)), latencies)
        self._close_request_spans(contexts, spans)

    def _open_request_spans(
        self,
        model_id: str,
        contexts: List[RequestContext],
        parents: Optional[Sequence[Optional[TraceContext]]],
    ) -> Optional[List[object]]:
        """Open one ``server.request`` span per context (``None`` when untraced).

        Each span parents to the caller-supplied :class:`TraceContext` (the
        router's dispatch span, or a remote client's via the wire header) so
        the server's hop links into the caller's trace; without a parent it
        roots a new trace.  The span lands on ``context.trace`` for the
        middleware chain to hang hook spans off.
        """
        tracer = self.tracer
        if tracer is None:
            return None
        spans: List[object] = []
        for index, context in enumerate(contexts):
            parent = parents[index] if parents is not None else None
            span = tracer.start_span(
                "server.request",
                parent=parent,
                attributes={
                    "model_id": model_id,
                    "tenant": context.tenant,
                    "source": context.source,
                },
            )
            context.trace = span
            spans.append(span)
        return spans

    @staticmethod
    def _close_request_spans(
        contexts: List[RequestContext], spans: Optional[List[object]]
    ) -> None:
        if spans is None:
            return
        for context, span in zip(contexts, spans):
            span.end(error=context.error)
