"""The cluster router: sharded placement, health-aware failover, SLA admission.

``ClusterRouter`` presents the same serving surface as a single
:class:`~repro.serve.server.InferenceServer` — ``predict`` /
``predict_batch`` / ``submit`` / ``stats`` / ``register`` — backed by many
:class:`~repro.serve.cluster.replica.ReplicaWorker` members, so existing
clients (the :class:`~repro.serve.proxy.ExtractionProxy`,
``CloudSession.publish``) work against a cluster unchanged.

Request flow::

    submit_many() ──> cluster MiddlewareChain descent, once per row
                      (rate limit, telemetry, ...)
            ──> AdmissionScheduler: the surviving rows as ONE entry
                (priority + earliest-deadline ordering, dequeue-time
                shedding with typed DeadlineExceeded)
            ──> dispatcher thread: the first PlacementPolicy.owners() entry
                below a full batch of outstanding rows, else the least loaded
            ──> ReplicaWorker.submit_many() ──> one server queue item,
                replica's own middleware/batcher, one future per row
            └─ on a retryable failure (ReplicaUnavailable / ServerStopped /
               ServerOverloaded / catalogue miss): record the failure with the
               HealthMonitor, exclude the replica, re-dispatch the rows still
               unresolved to the next choice — bounded by
               ``max_retries``.  In-flight rows on a killed replica fail fast
               with a typed error and take this same path, which is the
               zero-lost-requests failover guarantee the cluster tests pin.

``submit()`` is ``submit_many()`` of one row, and ``predict`` /
``predict_batch`` are ``submit_many()`` plus a wait on the futures, so
failover, breaker probes, backoff and deadline shedding have one
implementation.  Middleware composes at two scopes: the router's chain sees
every request once, cluster-wide (one shared ``RateLimiter`` enforces a
global tenant budget); each replica's chain sees only its shard's traffic.
The router's chain runs even when empty, so its record holds every request's
outcome once and ``stats()`` takes outcomes from it alone.

Trust boundary: the router is a *server-side* component and holds only what
every replica holds — augmented bundles and architecture factories.  Sharding
and failover never touch augmentation secrets, which stay client-side in the
:class:`~repro.serve.proxy.ExtractionProxy`.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

import numpy as np

from ..faults.retry import BackoffSession, RetryPolicy
from ..middleware import MiddlewareChain, RequestContext, ServeMiddleware
from ..observability import ActiveSpan, MetricsRegistry, TraceContext, Tracer
from ..registry import RegistryEntry
from ..server import ServerOverloaded, ServerStopped
from ..stats import ModelStats
from .admission import AdmissionScheduler, AdmissionTicket
from .errors import (
    DeadlineExceeded,
    FailoverExhausted,
    NoHealthyReplica,
    ReplicaUnavailable,
)
from .health import HealthMonitor
from .placement import ConsistentHashPolicy, PlacementPolicy
from .replica import ReplicaWorker

# Failures that justify trying another replica.  A catalogue miss (KeyError)
# is retryable because the next replica tried may own the shard, but it is not a
# *health* signal — the replica is fine, the request was just misrouted.
_RETRYABLE = (ReplicaUnavailable, ServerStopped, ServerOverloaded, KeyError)
_HEALTH_FAILURES = (ReplicaUnavailable, ServerStopped, ServerOverloaded)


@dataclass
class _ClusterRequest:
    """Router-side state for one row: its cluster-chain context and future."""

    context: RequestContext
    future: Future
    entered: Sequence[object] = ()
    #: Replicas tried so far: the ``tried`` list of the dispatch carrying
    #: this row (one shared list object), empty when the chain answered it.
    tried: List[str] = field(default_factory=list)
    #: The row's ``router.submit`` span (None when untraced), plus the
    #: perf-counter enqueue time so the admission wait becomes a child span
    #: exactly once, at first dispatch or shed.
    span: Optional[ActiveSpan] = None
    queued_at: float = 0.0
    admission_recorded: bool = False


@dataclass
class _Dispatch:
    """One admission entry: rows that go to one replica per attempt.

    Failover re-dispatches only the rows still unresolved, so ``rows``
    shrinks across attempts while ``excluded``/``tried`` accumulate.
    """

    model_id: str
    tenant: str
    rows: List[_ClusterRequest]
    excluded: Set[str] = field(default_factory=set)
    tried: List[str] = field(default_factory=list)
    backoff: Optional[BackoffSession] = None


class ClusterRouter:
    """Routes requests across replicas: placement picks owners, load picks one."""

    def __init__(
        self,
        replicas: Iterable[ReplicaWorker] = (),
        placement: Optional[PlacementPolicy] = None,
        health: Optional[HealthMonitor] = None,
        admission: Optional[AdmissionScheduler] = None,
        middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None] = None,
        max_retries: int = 2,
        clock: Callable[[], float] = time.monotonic,
        retry: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        #: Optional backoff pacing for failover.  Without a policy, failover
        #: retries immediately (the original behaviour); with one, each
        #: re-dispatch waits a decorrelated-jitter delay first, so a cluster
        #: of flapping replicas is probed instead of hammered.
        self.retry = retry
        self.placement = placement if placement is not None else ConsistentHashPolicy()
        self.health = health if health is not None else HealthMonitor(clock=clock)
        self.admission = admission if admission is not None else AdmissionScheduler(clock=clock)
        self.admission.on_evict = self._on_evicted
        self.middleware = MiddlewareChain.coerce(middleware)
        self.max_retries = max_retries
        self._clock = clock
        self._replicas: Dict[str, ReplicaWorker] = {}
        self._catalogue: Dict[str, RegistryEntry] = {}
        #: Membership observers: callables invoked with ``(event, replica_id)``
        #: where event is ``"join"`` or ``"leave"``, after the change commits.
        self._membership_listeners: List[Callable[[str, str], None]] = []
        #: The attached :class:`~repro.serve.cluster.autoscale.Autoscaler`
        #: (set by its constructor); ``stats()`` surfaces its section when set.
        self.autoscaler = None
        self._membership_lock = threading.RLock()
        self._lifecycle_lock = threading.Lock()
        self._running = False
        self._stopped = False
        self._dispatcher: Optional[threading.Thread] = None
        self._stats: Dict[str, ModelStats] = {}
        self._stats_lock = threading.Lock()
        self._counters = {"completed": 0, "failed": 0, "shed": 0, "failovers": 0}
        self._counters_lock = threading.Lock()
        # Per-replica failover accounting: attempts routed there, retryable
        # failures it returned, and how often it was excluded mid-request.
        self._failover: Dict[str, Dict[str, int]] = {}
        self._backoff_seconds = 0.0
        self._last_health_check = float("-inf")
        self.tracer = tracer
        #: The unified metrics plane.  Every stats section the router used to
        #: assemble by hand is registered as a named provider, and
        #: :meth:`stats` is a :meth:`MetricsRegistry.collect` view over them —
        #: pass a shared registry to surface the router next to a gateway.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._register_metrics()
        for replica in replicas:
            self.add_replica(replica)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def add_replica(self, replica: ReplicaWorker, resync: bool = True) -> None:
        """Join ``replica``; with ``resync`` it receives its share of the catalogue.

        Re-sharding is minimal by construction (the consistent-hash property
        suite pins it): only models whose ownership moved are re-registered,
        and only their (cheap) bundles travel — never live instances.
        """
        with self._membership_lock:
            if replica.replica_id in self._replicas:
                raise ValueError(f"replica '{replica.replica_id}' already joined")
            self._replicas[replica.replica_id] = replica
            self.health.register(replica.replica_id)
            self.placement.on_membership_change(list(self._replicas))
            if self._running and not replica.server.running:
                replica.start()
            if resync:
                self._resync()
        self._notify_membership("join", replica.replica_id)

    def remove_replica(self, replica_id: str, drain: bool = True) -> ReplicaWorker:
        """Leave the cluster; ``drain`` finishes in-flight work first."""
        with self._membership_lock:
            if replica_id not in self._replicas:
                raise KeyError(f"unknown replica '{replica_id}'")
            replica = self._replicas[replica_id]
            replica.begin_drain()  # refuse new work before the slow drain
            self.health.mark_draining(replica_id)
        if drain:
            replica.drain()
        with self._membership_lock:
            del self._replicas[replica_id]
            self.placement.on_membership_change(list(self._replicas))
            self._resync()
            self.health.deregister(replica_id)
        self._notify_membership("leave", replica_id)
        return replica

    def add_membership_listener(
        self, listener: Callable[[str, str], None]
    ) -> Callable[[str, str], None]:
        """Observe joins/leaves: ``listener(event, replica_id)`` fires after
        each membership change commits (outside the membership lock, so a
        listener may query the router).  The autoscaler and tests use this;
        a gateway could push topology events from it.  Returns the listener
        for decorator-style use."""
        self._membership_listeners.append(listener)
        return listener

    def _notify_membership(self, event: str, replica_id: str) -> None:
        for listener in list(self._membership_listeners):
            try:
                listener(event, replica_id)
            except Exception:  # noqa: BLE001 - observers must not break membership ops
                pass

    def replica_ids(self) -> List[str]:
        with self._membership_lock:
            return list(self._replicas)

    def replica(self, replica_id: str) -> ReplicaWorker:
        with self._membership_lock:
            return self._replicas[replica_id]

    def __len__(self) -> int:
        with self._membership_lock:
            return len(self._replicas)

    # ------------------------------------------------------------------
    # Shard-aware catalogue (the surface CloudSession.publish targets)
    # ------------------------------------------------------------------
    def register(
        self,
        model_id: str,
        bundle,
        factory,
        metadata: Optional[Dict[str, object]] = None,
        replace: bool = False,
    ) -> RegistryEntry:
        """Catalogue a model and register it on its placement-chosen owners.

        Signature-compatible with :meth:`ModelRegistry.register`, so
        ``CloudSession.publish(job, cluster, ...)`` publishes straight into
        the cluster: the policy decides which replicas hold the shard.
        Returns the primary owner's entry.
        """
        with self._membership_lock:
            if not self._replicas:
                raise NoHealthyReplica(model_id)
            if model_id in self._catalogue and not replace:
                raise ValueError(f"model '{model_id}' is already registered (pass replace=True)")
            owners = self.placement.owners(model_id, list(self._replicas.values()))
            if not owners:
                raise NoHealthyReplica(model_id)
            entries = [
                owner.registry.register(model_id, bundle, factory, metadata=metadata, replace=True)
                for owner in owners
            ]
            self._catalogue[model_id] = entries[0]
            return entries[0]

    def unregister(self, model_id: str) -> None:
        with self._membership_lock:
            if model_id not in self._catalogue:
                raise KeyError(f"unknown model '{model_id}'")
            del self._catalogue[model_id]
            for replica in self._replicas.values():
                if model_id in replica.registry:
                    replica.registry.unregister(model_id)

    def model_ids(self) -> List[str]:
        with self._membership_lock:
            return list(self._catalogue)

    def entry(self, model_id: str) -> RegistryEntry:
        """The catalogue entry for ``model_id`` (bundle + factory + metadata).

        The autoscaler reads this to publish a model's bundle onto a new
        shard owner *before* the owner joins placement (warm-up-then-cutover).
        """
        with self._membership_lock:
            if model_id not in self._catalogue:
                raise KeyError(f"unknown model '{model_id}'")
            return self._catalogue[model_id]

    def __contains__(self, model_id: str) -> bool:
        with self._membership_lock:
            return model_id in self._catalogue

    def shard_map(self) -> Dict[str, List[str]]:
        """model id → the replica ids currently holding its registry entry."""
        with self._membership_lock:
            return {
                model_id: [
                    replica_id
                    for replica_id, replica in self._replicas.items()
                    if model_id in replica.registry
                ]
                for model_id in self._catalogue
            }

    def _resync(self) -> None:
        """Re-home catalogue entries after a membership change (lock held)."""
        replicas = list(self._replicas.values())
        for model_id, entry in self._catalogue.items():
            owners = self.placement.owners(model_id, replicas)
            owner_ids = {owner.replica_id for owner in owners}
            for replica in replicas:
                holds = model_id in replica.registry
                if replica.replica_id in owner_ids and not holds:
                    replica.registry.register(
                        model_id, entry.bundle, entry.factory, metadata=entry.metadata
                    )
                elif replica.replica_id not in owner_ids and holds:
                    replica.registry.unregister(model_id)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def check_health(self) -> List[str]:
        """Heartbeat every replica once; returns the routable ids."""
        with self._membership_lock:
            replicas = dict(self._replicas)
        self._last_health_check = self._clock()
        return self.health.check(replicas)

    def _routable(self, excluded: Set[str] = frozenset()) -> List[ReplicaWorker]:
        if self._clock() - self._last_health_check > self.health.heartbeat_timeout / 2:
            self.check_health()
        ids = self.health.routable_ids()
        with self._membership_lock:
            return [
                self._replicas[replica_id]
                for replica_id in ids
                if replica_id in self._replicas and replica_id not in excluded
            ]

    def _choose(self, model_id: str, excluded: Set[str]) -> Optional[ReplicaWorker]:
        """The replica that gets ``model_id``'s next rows, or None.

        Among the model's routable owners, in the policy's order: the first
        with fewer outstanding rows than its batcher's ``max_batch_size``,
        which can still coalesce the new rows into a batch; else the least
        loaded owner.  Spilling only past a full batch keeps light traffic on
        one replica (consistent hashing with bounded loads).  Without a
        routable owner the other routable replicas follow, and a catalogue
        miss there fails over in turn.
        """
        routable = self._routable(excluded)
        owners = self.placement.owners(model_id, routable)
        if not owners:
            return routable[0] if routable else None
        for replica in owners:
            if replica.load() < replica.server.batcher.max_batch_size:
                return replica
        return min(owners, key=lambda replica: replica.load())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> "ClusterRouter":
        with self._lifecycle_lock:
            if self._running:
                return self
            self._running = True
            self._stopped = False
            with self._membership_lock:
                for replica in self._replicas.values():
                    if replica.alive and not replica.server.running:
                        replica.start()
            self.check_health()
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="cluster-dispatcher", daemon=True
            )
            self._dispatcher.start()
        return self

    def stop(self) -> None:
        """Graceful stop: drain the admission queue, then stop every replica."""
        with self._lifecycle_lock:
            if not self._running:
                self._stopped = True
                return
            self._running = False
            self._stopped = True
            dispatcher = self._dispatcher
            self._dispatcher = None
        if dispatcher is not None:
            dispatcher.join()
        self._drain_admission()  # anything the dispatcher exited before seeing
        with self._membership_lock:
            replicas = list(self._replicas.values())
        for replica in replicas:
            if replica.alive:
                replica.stop()

    def _drain_admission(self) -> None:
        """Serve or shed every ticket still queued (stop-time + race cleanup)."""
        for ticket, expired in self.admission.drain():
            if expired:
                self._shed(ticket.payload, ticket)
            else:
                self._dispatch_async(ticket.payload, ticket)

    def __enter__(self) -> "ClusterRouter":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def swap_middleware(
        self, middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None]
    ) -> MiddlewareChain:
        """Atomically replace the cluster-wide chain; returns the old chain.

        In-flight requests are untouched: a request's unwind runs over the
        ``entered`` list captured at submit time (``MiddlewareChain.exit``
        never reads the chain's current members), so a request that entered
        the old chain unwinds exactly those middlewares even if it completes
        after the swap.  Per-replica chains are replica-owned — swap them via
        :meth:`ReplicaWorker.swap_middleware` or
        :meth:`swap_replica_middleware`.
        """
        new = MiddlewareChain.coerce(middleware)
        with self._lifecycle_lock:
            old = self.middleware
            self.middleware = new
        return old

    def swap_replica_middleware(
        self,
        middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None],
        replica_ids: Optional[Sequence[str]] = None,
    ) -> Dict[str, MiddlewareChain]:
        """Swap the per-replica chain on ``replica_ids`` (default: all).

        Passing one chain object shares its stateful middlewares (cache,
        ledgers) across the targeted replicas; build a fresh chain per
        replica (as :func:`~repro.serve.middleware.config.apply_to_cluster`
        does) when per-replica state should stay isolated.  Returns each
        replica's previous chain.
        """
        with self._membership_lock:
            targets = (
                list(self._replicas) if replica_ids is None else list(replica_ids)
            )
            replicas = {rid: self._replicas[rid] for rid in targets}  # KeyError: unknown id
        return {
            replica_id: replica.swap_middleware(middleware)
            for replica_id, replica in replicas.items()
        }

    # ------------------------------------------------------------------
    # Serving API (ExtractionProxy-compatible)
    # ------------------------------------------------------------------
    def predict(
        self,
        model_id: str,
        sample: np.ndarray,
        tenant: str = "default",
        deadline: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> np.ndarray:
        return self.predict_batch(
            model_id, [sample], tenant=tenant, deadline=deadline, trace=trace
        )[0]

    def predict_batch(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        tenant: str = "default",
        deadline: Optional[float] = None,
        trace: Optional[TraceContext] = None,
    ) -> List[np.ndarray]:
        """``submit_many`` plus a wait: the first row error is raised.

        ``deadline`` is a relative SLA budget in seconds; an expired budget
        sheds with :class:`DeadlineExceeded` before any replica computes.  A
        router that is not running refuses like ``submit`` does.
        """
        traces = None if trace is None else [trace] * len(samples)
        futures = self.submit_many(
            model_id, samples, tenant=tenant, deadline=deadline, traces=traces
        )
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Concurrent API
    # ------------------------------------------------------------------
    def submit(
        self,
        model_id: str,
        sample: np.ndarray,
        tenant: str = "default",
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
        trace: Optional[TraceContext] = None,
    ) -> Future:
        """Queue one sample through admission; resolves like a server future.

        ``deadline`` (relative seconds) and ``priority`` (overrides the
        tenant's configured priority) are the request's SLA terms.  ``trace``
        links the request into a caller's trace (the gateway passes its
        request span); with a tracer but no parent the router roots one.
        """
        traces = None if trace is None else [trace]
        return self.submit_many(
            model_id, [sample], tenant=tenant, deadline=deadline, priority=priority, traces=traces
        )[0]

    def submit_many(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        tenant: str = "default",
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
        traces: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> List[Future]:
        """Queue ``samples`` as one admission entry; one future per row.

        The cluster chain's ``enter`` runs once per row, so rate-limit tokens
        and privacy-budget charges equal those of one-by-one submission, and
        rows the chain answers resolve at once.  The surviving rows share one
        admission entry, one replica dispatch per attempt and one server
        queue item.  ``traces`` gives each row its parent trace context.
        With an empty cluster chain, a full admission queue raises
        :class:`ServerOverloaded` before any row is queued.
        """
        with self._lifecycle_lock:
            if not self._running:
                if self._stopped:
                    raise ServerStopped(
                        "cluster has been stopped; call start() again before submit()"
                    )
                raise RuntimeError("cluster is not started; call start() first")
        absolute = None if deadline is None else self._clock() + float(deadline)
        stats = self._model_stats(model_id)
        chain = self.middleware
        rows: List[_ClusterRequest] = []
        pending: List[_ClusterRequest] = []
        for index, sample in enumerate(samples):
            context = RequestContext(
                model_id=model_id,
                sample=np.asarray(sample),
                tenant=tenant,
                source="cluster",
                deadline=absolute,
            )
            context.stats = stats
            row = _ClusterRequest(context=context, future=Future())
            rows.append(row)
            if self.tracer is not None:
                row.span = context.trace = self.tracer.start_span(
                    "router.submit",
                    parent=None if traces is None else traces[index],
                    attributes={"model_id": model_id, "tenant": tenant},
                )
            row.entered = chain.enter(context)
            if context.answered:  # short-circuited or rejected cluster-wide
                self._count("failed" if context.error is not None else "completed")
                self._finish(row)
            else:
                pending.append(row)
        futures = [row.future for row in rows]
        if not pending:
            return futures
        unit = _Dispatch(model_id=model_id, tenant=tenant, rows=pending)
        queued_at = time.perf_counter()
        for row in pending:
            row.tried = unit.tried
            row.queued_at = queued_at
        try:
            self.admission.submit(
                model_id, tenant, deadline=absolute, priority=priority, payload=unit
            )
        except ServerOverloaded as error:
            if not any(row.entered for row in pending):
                for row in pending:
                    if row.span is not None:
                        row.span.end(error=error)
                raise
            for row in pending:
                self._fail(row, error)
            return futures
        # stop() may have run between the lifecycle check and the enqueue; the
        # dispatcher is gone then, so drain whatever raced in (ours included)
        # ourselves — admission.drain() hands each ticket to exactly one
        # caller, so this cannot double-complete a request stop() already saw.
        if not self._running:
            self._drain_admission()
        return futures

    def _dispatch_loop(self) -> None:
        while True:
            item = self.admission.next_ready(timeout=0.05)
            if item is None:
                if not self._running:
                    return
                continue
            ticket, expired = item
            if expired:
                self._shed(ticket.payload, ticket)
            else:
                self._dispatch_async(ticket.payload, ticket)

    def _dispatch_async(self, unit: _Dispatch, ticket: AdmissionTicket) -> None:
        for row in unit.rows:
            self._record_admission_wait(row)
        if ticket.deadline < self._clock():  # expired while failing over
            self._shed(unit, ticket)
            return
        replica: Optional[ReplicaWorker] = None
        while replica is None:
            replica = self._choose(unit.model_id, unit.excluded)
            if replica is None:
                if unit.tried:
                    error: BaseException = FailoverExhausted(
                        unit.model_id, len(unit.tried), unit.tried
                    )
                else:
                    error = NoHealthyReplica(unit.model_id, unit.excluded)
                for row in unit.rows:
                    self._fail(row, error)
                return
            # Burn the breaker's half-open probe only here, on the replica we
            # actually dispatch to: a replica whose breaker opened since
            # listing is excluded without spending retry budget.
            if not self.health.try_dispatch(replica.replica_id):
                unit.excluded.add(replica.replica_id)
                replica = None
        unit.tried.append(replica.replica_id)
        rows = unit.rows
        self._count_failover(replica.replica_id, "attempts", len(rows))
        # One child span per row and dispatch attempt: failover shows up as
        # sibling ``router.dispatch`` spans, the failed ones error-tagged.
        attributes = {"replica_id": replica.replica_id, "attempt": len(unit.tried)}
        attempts: List[Optional[ActiveSpan]] = [
            None if row.span is None else row.span.child("router.dispatch", attributes=attributes)
            for row in rows
        ]
        samples = [row.context.sample for row in rows]
        try:
            # Pass the traces kwarg only when tracing so duck-typed replica
            # wrappers with the untraced signature keep working.
            if rows[0].span is None:
                inner = replica.submit_many(unit.model_id, samples, tenant=unit.tenant)
            else:
                inner = replica.submit_many(
                    unit.model_id,
                    samples,
                    tenant=unit.tenant,
                    traces=[None if span is None else span.context for span in attempts],
                )
        except _RETRYABLE as error:
            self._end_spans(attempts, error)
            self._after_failure(unit, ticket, replica, error)
            return
        except Exception as error:  # noqa: BLE001 - non-retryable, pre-enqueue
            self._end_spans(attempts, error)
            for row in rows:
                self._fail(row, error)  # never reached the replica's accounting
            return

        lock = threading.Lock()
        unsettled = [len(rows)]
        retryable: Dict[int, BaseException] = {}

        def _resolve(index: int, done: Future) -> None:
            error = done.exception()
            if attempts[index] is not None:
                attempts[index].end(error=error)
            if error is None:
                self.health.record_success(replica.replica_id)
                self._succeed(rows[index], done.result())
            elif not isinstance(error, _RETRYABLE):
                self._fail(rows[index], error)
            with lock:
                if isinstance(error, _RETRYABLE):
                    retryable[index] = error
                unsettled[0] -= 1
                last = unsettled[0] == 0
            if last and retryable:
                # Once the attempt has settled, only its unresolved rows fail
                # over, together, as the same admission entry.
                unit.rows = [rows[index] for index in sorted(retryable)]
                self._after_failure(unit, ticket, replica, next(iter(retryable.values())))

        for index, future in enumerate(inner):
            future.add_done_callback(partial(_resolve, index))

    @staticmethod
    def _end_spans(spans: Sequence[Optional[ActiveSpan]], error: BaseException) -> None:
        for span in spans:
            if span is not None:
                span.end(error=error)

    def _record_admission_wait(self, request: _ClusterRequest) -> None:
        """Stamp the admission-queue wait as a child span, exactly once."""
        span = request.span
        if span is not None and not request.admission_recorded:
            request.admission_recorded = True
            span.record("router.admission", request.queued_at, time.perf_counter())

    def _after_failure(
        self,
        unit: _Dispatch,
        ticket: AdmissionTicket,
        replica: ReplicaWorker,
        error: BaseException,
    ) -> None:
        """One replica failed ``unit.rows``: exclude it and retry if budget allows.

        Failures and failovers count per row, as if the rows had been sent
        one by one, so a failed batch weighs on health like its rows would.
        """
        unit.excluded.add(replica.replica_id)
        failed = len(unit.rows)
        self._count_failover(replica.replica_id, "failures", failed)
        if isinstance(error, _HEALTH_FAILURES):
            for _ in range(failed):
                self.health.record_failure(replica.replica_id)
        self._count("failovers", failed)
        if len(unit.tried) <= self.max_retries:
            if self.retry is not None:
                # Pace the re-dispatch.  This may run on a replica callback
                # thread; delays are the policy's (small, capped) jitter and
                # the sleep is injectable, so tests never actually wait.
                if unit.backoff is None:
                    unit.backoff = self.retry.session()
                self._record_backoff(unit.backoff.pause())
            self._dispatch_async(unit, ticket)  # depth bounded by max_retries
        else:
            exhausted = FailoverExhausted(unit.model_id, len(unit.tried), unit.tried, error)
            for row in unit.rows:
                self._fail(row, exhausted)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _on_evicted(self, ticket: AdmissionTicket) -> None:
        unit: _Dispatch = ticket.payload
        error = ServerOverloaded(
            f"request for tenant '{unit.tenant}' evicted from a full "
            "admission queue by a more urgent request"
        )
        for row in unit.rows:
            self._fail(row, error)

    def _shed(self, unit: _Dispatch, ticket: AdmissionTicket) -> None:
        for row in unit.rows:
            self._record_admission_wait(row)
            self._count("shed")
            self._fail(
                row,
                DeadlineExceeded(unit.model_id, unit.tenant, ticket.deadline, self._clock()),
                count_failed=False,
            )

    def _succeed(self, request: _ClusterRequest, result: object) -> None:
        self._count("completed")
        request.context.response = result
        self._finish(request)

    def _fail(
        self, request: _ClusterRequest, error: BaseException, count_failed: bool = True
    ) -> None:
        if count_failed:
            self._count("failed")
        request.context.error = error
        self._finish(request)

    def _finish(self, request: _ClusterRequest) -> None:
        """Unwind the cluster chain, record the outcome once (wherever the
        request failed) and resolve the caller's future."""
        context = request.context
        # Middleware observability: how many replicas this request touched
        # (0 = answered by the chain, 1 = no failover, >1 = failed over).
        context.metadata["failover_attempts"] = len(request.tried)
        self.middleware.exit(context, request.entered)
        # on_error may have recovered (or on_response raised): the context's
        # final word is the outcome.
        error = context.error
        if error is not None:
            context.stats.record_error()
        if request.span is not None:
            # Ending with the final error keeps failed requests' traces even
            # when head sampling dropped them (always-sample-on-error).
            request.span.annotate("failover_attempts", len(request.tried))
            request.span.end(error=error)
        if error is not None:
            request.future.set_exception(error)
        else:
            request.future.set_result(context.response)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def _model_stats(self, model_id: str) -> ModelStats:
        with self._stats_lock:
            stats = self._stats.get(model_id)
            if stats is None:
                stats = ModelStats(max_batch_size=1, clock=self._clock)
                self._stats[model_id] = stats
            return stats

    def _count(self, key: str, amount: int = 1) -> None:
        with self._counters_lock:
            self._counters[key] += amount

    def counter(self, key: str) -> int:
        """One router counter (``completed`` / ``failed`` / ``shed`` /
        ``failovers``) without paying for a full ``stats()`` merge — the
        autoscaler's observe phase polls these every cycle."""
        with self._counters_lock:
            return self._counters.get(key, 0)

    def _count_failover(self, replica_id: str, key: str, amount: int = 1) -> None:
        with self._counters_lock:
            entry = self._failover.get(replica_id)
            if entry is None:
                entry = {"attempts": 0, "failures": 0}
                self._failover[replica_id] = entry
            entry[key] += amount

    def _record_backoff(self, delay: float) -> None:
        with self._counters_lock:
            self._backoff_seconds += delay

    def failover_stats(self) -> Dict[str, object]:
        """Resilience accounting: per-replica attempts/failures/breaker trips.

        ``attempts`` counts the rows of every dispatch routed to the replica
        (first tries and failover retries alike); ``failures`` the rows it
        failed with a retryable error, i.e. as if each row had been sent and
        excluded on its own.  When the health
        monitor runs circuit breakers, each replica's breaker state and trip
        count ride along, and ``backoff_seconds`` totals the pacing the retry
        policy inserted between failover attempts.
        """
        with self._counters_lock:
            per_replica = {
                replica_id: dict(entry) for replica_id, entry in self._failover.items()
            }
            backoff_seconds = self._backoff_seconds
        for replica_id, entry in per_replica.items():
            breaker = self.health.breaker(replica_id)
            if breaker is not None:
                entry["breaker_state"] = breaker.state
                entry["breaker_trips"] = breaker.trips
        return {
            "per_replica": per_replica,
            "backoff_seconds": backoff_seconds,
            "retry_policy": None
            if self.retry is None
            else {
                "max_attempts": self.retry.max_attempts,
                "base_delay": self.retry.base_delay,
                "max_delay": self.retry.max_delay,
            },
        }

    #: The sections (and their order) ``stats()`` has always returned; each is
    #: a named provider on :attr:`metrics`, so the dict below is genuinely a
    #: registry view — ``metrics.snapshot()`` sees the same sections plus any
    #: other component bound to the shared registry.
    _STATS_SECTIONS = (
        "models",
        "replicas",
        "health",
        "admission",
        "router",
        "failover",
        "shard_map",
        "autoscaler",
    )

    def _register_metrics(self) -> None:
        self.metrics.register_provider("models", self._models_section, replace=True)
        self.metrics.register_provider("replicas", self._replicas_section, replace=True)
        self.metrics.register_provider("health", self.health.snapshot, replace=True)
        self.metrics.register_provider("admission", self.admission.stats, replace=True)
        self.metrics.register_provider("router", self._router_section, replace=True)
        self.metrics.register_provider("failover", self.failover_stats, replace=True)
        self.metrics.register_provider("shard_map", self.shard_map, replace=True)
        self.metrics.register_provider(
            "autoscaler", self._autoscaler_section, replace=True
        )

    def _models_section(self) -> Dict[str, object]:
        with self._membership_lock:
            model_ids = list(self._catalogue)
        return {mid: self._merged_model(mid).snapshot() for mid in model_ids}

    def _replicas_section(self) -> Dict[str, object]:
        with self._membership_lock:
            replicas = dict(self._replicas)
        return {rid: replica.snapshot() for rid, replica in replicas.items()}

    def _router_section(self) -> Dict[str, object]:
        with self._counters_lock:
            counters = dict(self._counters)
        return {**counters, "placement": type(self.placement).__name__}

    def _autoscaler_section(self) -> Optional[Dict[str, object]]:
        autoscaler = self.autoscaler
        return None if autoscaler is None else autoscaler.stats()

    def stats(self, model_id: Optional[str] = None) -> Dict[str, object]:
        """Cluster-wide view: per-model stats plus per-replica detail.

        Per-model numbers are :meth:`ModelStats.cluster_view`: request
        outcomes from the router's record, execution facts summed across
        replicas, p50/p95 read from the union of the replicas' latency
        windows (averaging per-replica percentiles would understate the
        tail).  Each replica's own counts stay under
        ``replicas[rid]["server"]["models"]``.  The no-argument form
        is a :meth:`MetricsRegistry.collect` view: each section is a named
        provider on :attr:`metrics`, so the historical shape is preserved
        while the registry remains the single source of truth.
        """
        if model_id is not None:
            return self._merged_model(model_id).snapshot()
        return self.metrics.collect(self._STATS_SECTIONS)

    def _merged_model(self, model_id: str) -> ModelStats:
        with self._membership_lock:
            replicas = list(self._replicas.values())
        parts: List[ModelStats] = []
        for replica in replicas:
            stats = replica.server.model_stats(model_id)
            if stats is not None:
                parts.append(stats)
        with self._stats_lock:
            record = self._stats.get(model_id)
        return ModelStats.cluster_view(record, parts)
