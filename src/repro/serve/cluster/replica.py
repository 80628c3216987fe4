"""One cluster member: an ``InferenceServer`` plus its own registry stack.

A :class:`ReplicaWorker` owns everything a serving process would own — a
:class:`~repro.serve.registry.ModelRegistry` (its shard of the catalogue), a
:class:`~repro.serve.batcher.Batcher`, an optional per-replica middleware
chain and the :class:`~repro.serve.server.InferenceServer` wiring them
together.  The router talks to replicas only through this wrapper, which adds
the two things a single-process server never needed:

* **attributable failure** — ``submit`` returns a replica-owned future; if
  the replica is killed (crash simulation) or stops mid-flight, outstanding
  futures fail with a typed
  :class:`~repro.serve.cluster.errors.ReplicaUnavailable` naming the replica,
  which is exactly the signal the router's failover needs to re-dispatch the
  request elsewhere with the replica excluded;
* **one-snapshot load** — ``snapshot()`` reads the server's combined stats
  (``queue_depth`` + ``running`` + per-model counters) in a single call plus
  the wrapper's in-flight count, without stitching together racy property
  reads; ``load()`` is that in-flight count alone, which the router reads to
  pick among a model's owners.

Trust boundary: a replica is a *server-side* component.  Its registry holds
only augmented bundles — sharding the serving plane never moves secrets; the
client-side :class:`~repro.serve.proxy.ExtractionProxy` remains the only
place that knows insertion positions or the original sub-network index.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..batcher import Batcher
from ..middleware import MiddlewareChain, ServeMiddleware
from ..observability import TraceContext, Tracer
from ..registry import ModelRegistry
from ..server import InferenceServer
from .errors import ReplicaUnavailable


class ReplicaWorker:
    """A single serving replica addressable by the cluster router."""

    def __init__(
        self,
        replica_id: str,
        registry: Optional[ModelRegistry] = None,
        batcher: Optional[Batcher] = None,
        num_workers: int = 1,
        queue_size: int = 4096,
        registry_capacity: int = 4,
        middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None] = None,
        faults=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not replica_id:
            raise ValueError("replica_id must be a non-empty string")
        self.replica_id = replica_id
        #: Optional :class:`~repro.serve.faults.FaultInjector`.  Consulted once
        #: per request when set (crash-on-Nth-request, slow-replica latency);
        #: the unconfigured hot path pays a single ``is not None`` test.
        self.faults = faults
        self.registry = registry if registry is not None else ModelRegistry(registry_capacity)
        self.server = InferenceServer(
            self.registry,
            batcher=batcher,
            num_workers=num_workers,
            queue_size=queue_size,
            middleware=middleware,
            tracer=tracer,
        )
        self._killed = False
        self._draining = False
        self._outstanding: Dict[int, Future] = {}
        self._next_handle = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._killed

    @property
    def draining(self) -> bool:
        return self._draining

    def start(self) -> "ReplicaWorker":
        with self._lock:
            self._killed = False
            self._draining = False
        self.server.start()
        return self

    def stop(self) -> None:
        """Graceful stop: the inner server drains its queue before returning."""
        self.server.stop()

    def swap_middleware(
        self, middleware: Union[MiddlewareChain, Iterable[ServeMiddleware], None]
    ) -> MiddlewareChain:
        """Hot-swap this replica's chain (delegates to the inner server)."""
        return self.server.swap_middleware(middleware)

    def begin_drain(self) -> None:
        """Refuse new requests; in-flight work continues (router calls this
        before the slower :meth:`drain` so placement stops immediately)."""
        with self._lock:
            self._draining = True

    def drain(self) -> None:
        """Finish outstanding work, then stop.  New requests are refused."""
        with self._lock:
            self._draining = True
            outstanding = list(self._outstanding.values())
        self.server.stop()  # drains the queue, resolving every inner future
        for future in outstanding:
            if not future.done():  # pragma: no cover - stop() resolves these
                future.exception(timeout=5)

    def kill(self) -> None:
        """Crash simulation: fail every in-flight request with a typed error.

        Unlike :meth:`stop` (graceful: queued work still completes), ``kill``
        models a replica dropping off the cluster mid-run.  Outstanding
        futures fail *immediately* with :class:`ReplicaUnavailable` so the
        router can re-dispatch them to surviving replicas — this is the
        mechanism behind the zero-lost-requests failover guarantee.  The
        inner server is reaped in the background.
        """
        with self._lock:
            if self._killed:
                return
            self._killed = True
            outstanding = list(self._outstanding.values())
            self._outstanding.clear()
        error = ReplicaUnavailable(self.replica_id, "replica was killed mid-flight")
        for future in outstanding:
            self._complete(future, error=error)
        # Reap worker threads off the caller's thread; any results they still
        # produce hit already-completed wrapper futures and are discarded.
        threading.Thread(target=self.server.stop, daemon=True).start()

    def __enter__(self) -> "ReplicaWorker":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Serving surface (mirrors InferenceServer)
    # ------------------------------------------------------------------
    def _check_serving(self) -> None:
        if self._killed:
            raise ReplicaUnavailable(self.replica_id, "replica was killed")
        if self._draining:
            raise ReplicaUnavailable(self.replica_id, "replica is draining")
        if self.faults is not None:
            # May sleep (slow shard), raise a typed error (flapping replica),
            # or kill this replica outright (crash-on-Nth-request) — every
            # outcome surfaces through the same typed-failure channel the
            # router's failover already handles.
            self.faults.on_replica_request(self)

    def predict(
        self,
        model_id: str,
        sample: np.ndarray,
        tenant: str = "default",
        trace: Optional[TraceContext] = None,
    ) -> np.ndarray:
        return self.predict_batch(model_id, [sample], tenant=tenant, trace=trace)[0]

    def predict_batch(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        tenant: str = "default",
        trace: Optional[TraceContext] = None,
    ) -> List[np.ndarray]:
        """Serve on the caller's thread (the autoscaler's priming forward);
        the router itself only ever calls :meth:`submit_many`."""
        self._check_serving()
        return self.server.predict_batch(model_id, samples, tenant=tenant, trace=trace)

    def submit(
        self,
        model_id: str,
        sample: np.ndarray,
        tenant: str = "default",
        trace: Optional[TraceContext] = None,
    ) -> Future:
        """Enqueue one sample; the future fails typed if this replica dies."""
        traces = None if trace is None else [trace]
        return self.submit_many(model_id, [sample], tenant=tenant, traces=traces)[0]

    def submit_many(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        tenant: str = "default",
        traces: Optional[Sequence[Optional[TraceContext]]] = None,
    ) -> List[Future]:
        """Enqueue ``samples`` as one server queue item; one future per row.

        The returned futures are replica-owned: each resolves from the inner
        server's future for its row, and :meth:`kill` fails the outstanding
        ones with :class:`ReplicaUnavailable` without waiting for the dead
        server.  The fault hook fires once per call (one dispatch).
        """
        self._check_serving()
        wrappers: List[Future] = [Future() for _ in samples]
        with self._lock:
            if self._killed:  # killed between the check and the registration
                raise ReplicaUnavailable(self.replica_id, "replica was killed")
            first = self._next_handle
            self._next_handle += len(wrappers)
            for handle, wrapper in enumerate(wrappers, first):
                self._outstanding[handle] = wrapper
        handles = range(first, first + len(wrappers))
        try:
            inner = self.server.submit_many(model_id, samples, tenant=tenant, traces=traces)
        except Exception:
            with self._lock:
                for handle in handles:
                    self._outstanding.pop(handle, None)
            raise

        def _resolve(handle: int, wrapper: Future, done: Future) -> None:
            with self._lock:
                self._outstanding.pop(handle, None)
            error = done.exception()
            if error is not None:
                self._complete(wrapper, error=error)
            else:
                self._complete(wrapper, result=done.result())

        for handle, wrapper, future in zip(handles, wrappers, inner):
            future.add_done_callback(partial(_resolve, handle, wrapper))
        return wrappers

    @staticmethod
    def _complete(
        future: Future, result: object = None, error: Optional[BaseException] = None
    ) -> None:
        """First completion wins: kill() and the inner callback may race."""
        try:
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(result)
        except InvalidStateError:  # already completed by the other side
            pass

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._outstanding)

    def load(self) -> int:
        """Outstanding rows on this replica (queued + executing)."""
        return self.in_flight

    def heartbeat(self) -> Dict[str, object]:
        """One liveness report: alive flag plus the load signals."""
        return {
            "alive": self.alive and not self._draining,
            "replica_id": self.replica_id,
            "in_flight": self.in_flight,
            "queue_depth": self.server.queue_depth,
            "running": self.server.running,
        }

    def snapshot(self) -> Dict[str, object]:
        """Full state: lifecycle flags, load, registry and server stats."""
        server_stats = self.server.stats()
        return {
            "replica_id": self.replica_id,
            "alive": self.alive,
            "draining": self._draining,
            "in_flight": self.in_flight,
            "registry": self.registry.stats(),
            "server": server_stats,
        }
