"""The asyncio RPC edge: ``GatewayServer`` fronts the in-process serving stack.

One gateway owns one asyncio event loop on a dedicated thread and exposes a
backend — a started :class:`~repro.serve.cluster.ClusterRouter`, a single
:class:`~repro.serve.server.InferenceServer`, or anything with the same
``predict``/``submit_many`` surface — over TCP using the framed wire
protocol in :mod:`repro.serve.gateway.wire`.  The edge adds the concerns the
in-process path never needed:

* **tenant handshake** — the first frame on every connection is a ``HELLO``
  carrying the tenant tag and an optional default SLA deadline; both flow
  into every dispatch (``tenant=`` / ``deadline=`` keyword arguments), so the
  cluster's :class:`~repro.serve.cluster.AdmissionScheduler` prioritises and
  sheds network traffic exactly like in-process traffic and middleware
  :class:`~repro.serve.middleware.RequestContext`\\ s carry the wire tenant;
* **per-connection backpressure** — ``HELLO_ACK`` grants a bounded in-flight
  window (``min(requested, max_inflight)``); requests beyond it are rejected
  with a typed :class:`~repro.serve.gateway.errors.Backpressure` frame
  instead of buffering without bound;
* **pipelined multiplexing** — every request is served as its own asyncio
  task and responses are written in *completion* order, matched to requests
  by id, so one slow model never convoys a connection's fast requests;
* **batches as batches** — a ``BATCH`` frame is one task, one window slot
  and one backend hop (``submit_many``), answered by one ``BATCH_REPLY``
  carrying every row's output or typed error;
* **graceful drain** — ``stop()`` closes the listener, rejects new requests
  with :class:`~repro.serve.server.ServerStopped`, waits for every in-flight
  request to complete and be written, then sends ``GOODBYE`` and closes.
  Zero accepted requests are lost (the e2e suite pins this under a
  concurrent hammer).

Dispatch prefers the backend's concurrent ``submit_many`` path (awaiting
the returned futures without blocking the loop) whenever the backend reports
``running``; otherwise the synchronous ``predict`` runs row by row on the
loop's default thread-pool executor, keeping the event loop responsive
either way.

Trust boundary: the gateway is a *server-side* component.  It sees only
augmented samples (clients augment through their
:class:`~repro.serve.proxy.ExtractionProxy` before the bytes leave the
process) and ships only augmented bundles on REGISTER frames — architecture
factories never cross the socket; they are resolved from the server-side
``factories`` table.
"""

from __future__ import annotations

import asyncio
import inspect
import threading
import time
from concurrent.futures import Future
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple, Union

import numpy as np

from ...cloud.serialization import ModelBundle
from ..faults.injector import FaultInjector
from ..observability import ActiveSpan, MetricsRegistry, Tracer
from ..server import ServerStopped
from .errors import Backpressure, ProtocolError
from .wire import (
    Ack,
    BatchReply,
    BatchRequest,
    ErrorFrame,
    Event,
    Goodbye,
    Hello,
    HelloAck,
    Observe,
    ObserveReply,
    Register,
    Request,
    Response,
    Subscribe,
    encode_frame,
    read_frame,
)

#: Topics the event plane publishes; SUBSCRIBE validates against this set.
EVENT_TOPICS: Tuple[str, ...] = ("alert", "health", "autoscale")


def _keyword_names(callable_obj) -> Set[str]:
    """Parameter names a backend method accepts (capability detection)."""
    try:
        return set(inspect.signature(callable_obj).parameters)
    except (TypeError, ValueError):  # builtins / C callables: assume minimal
        return set()


async def _settled(futures: List[Future]) -> List[object]:
    """Await thread-side futures with one loop wake-up; outcomes in order.

    Each outcome is the future's result or its exception.  The last future
    to finish wakes the loop once, instead of one wake-up per future.
    """
    loop = asyncio.get_running_loop()
    waiter = loop.create_future()
    lock = threading.Lock()
    unsettled = [len(futures)]

    def _wake() -> None:
        if not waiter.done():
            waiter.set_result(None)

    def _done(_: Future) -> None:
        with lock:
            unsettled[0] -= 1
            last = unsettled[0] == 0
        if last:
            loop.call_soon_threadsafe(_wake)

    for future in futures:
        future.add_done_callback(_done)
    if futures:
        await waiter
    return [
        future.exception() if future.exception() is not None else future.result()
        for future in futures
    ]


class _Connection:
    """Per-connection state: handshake terms, window accounting, write lock."""

    __slots__ = (
        "writer",
        "lock",
        "tenant",
        "deadline",
        "window",
        "inflight",
        "peer",
        "faults",
        "topics",
    )

    def __init__(
        self, writer: asyncio.StreamWriter, faults: Optional[FaultInjector] = None
    ) -> None:
        self.writer = writer
        self.lock = asyncio.Lock()
        self.tenant = "default"
        self.deadline: Optional[float] = None
        self.window = 0
        self.inflight = 0
        self.faults = faults
        #: Event topics this connection subscribed to (empty = no pushes).
        self.topics: FrozenSet[str] = frozenset()
        peer = writer.get_extra_info("peername")
        self.peer = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) and len(peer) >= 2 else "?"

    async def send(self, frame) -> None:
        """Serialize and write one frame; writes are serialized per connection."""
        await self.send_bytes(encode_frame(frame))

    async def send_bytes(self, data: bytes) -> None:
        # Fault hook: one ordinal per outbound frame, counted per connection
        # (the peer string is the target), so "drop after 12 frames" means 12
        # frames on *this* connection.  No-op when injection is off.
        rules = self.faults.on_gateway_send(self.peer) if self.faults is not None else ()
        async with self.lock:
            if self.writer.is_closing():
                return
            try:
                for rule in rules:
                    if rule.action == "delay":
                        await asyncio.sleep(rule.delay)
                    elif rule.action == "corrupt":
                        # Length prefix survives: the peer reads a complete
                        # frame and decodes a typed ProtocolError.
                        data = FaultInjector.corrupt_bytes(data)
                    elif rule.action == "truncate":
                        self.writer.write(FaultInjector.truncate_bytes(data))
                        await self.writer.drain()
                        self.writer.transport.abort()
                        return
                    elif rule.action == "disconnect":
                        self.writer.transport.abort()
                        return
                self.writer.write(data)
                await self.writer.drain()
            except (OSError, RuntimeError):
                pass  # peer vanished (or we half-closed); reader cleans up


class GatewayServer:
    """Asyncio TCP edge serving a cluster (or single server) over the wire."""

    def __init__(
        self,
        backend,
        host: str = "127.0.0.1",
        port: int = 0,
        max_inflight: int = 32,
        server_id: str = "gateway",
        factories: Optional[Dict[str, Callable]] = None,
        factory_resolver: Optional[Callable[[str, Dict[str, object]], Callable]] = None,
        faults: Optional[FaultInjector] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        alerts=None,
        profiler=None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        #: Optional fault injector threaded into every connection's writer.
        self.faults = faults
        self.backend = backend
        self.tracer = tracer
        #: The metrics plane OBSERVE serves.  Defaults to the backend's own
        #: registry when it has one (a ClusterRouter always does), so a single
        #: snapshot covers the edge *and* the cluster behind it.
        backend_metrics = getattr(backend, "metrics", None)
        if metrics is not None:
            self.metrics = metrics
        elif isinstance(backend_metrics, MetricsRegistry):
            self.metrics = backend_metrics
        else:
            self.metrics = MetricsRegistry()
        self.metrics.register_provider("gateway", self.stats, replace=True)
        #: Request instruments minted once (not per request): the latency
        #: histogram and outcome counters feed any attached
        #: WindowedSeriesStore via the registry observer hook, which is what
        #: latency/availability SLOs on the gateway read.
        self._latency_hist = self.metrics.histogram("gateway.latency_ms")
        self._requests_counter = self.metrics.counter("gateway.requests")
        self._responses_counter = self.metrics.counter("gateway.responses")
        self._errors_counter = self.metrics.counter("gateway.errors")
        #: Optional SLO AlertManager and StageProfiler.  Both are observed
        #: surfaces: the manager's transitions are pushed on the "alert"
        #: topic, the profiler feeds OBSERVE's "profile" scope.
        self.alerts = alerts
        self.profiler = profiler
        self._event_seq = 0
        self._event_lock = threading.Lock()
        if alerts is not None:
            alerts.add_listener(
                lambda event: self.publish_event("alert", event.state, event.to_dict())
            )
            self.metrics.register_provider("slo", alerts.stats, replace=True)
        if profiler is not None:
            self.metrics.register_provider("profiler", profiler.stats, replace=True)
        # Event sources on the backend, attached when the surfaces exist: a
        # ClusterRouter exposes health (replica/breaker transitions) and
        # membership listeners; a bare InferenceServer exposes neither and
        # the event plane simply has fewer topics with traffic.
        health = getattr(backend, "health", None)
        add_health_listener = getattr(health, "add_listener", None)
        if callable(add_health_listener):
            add_health_listener(
                lambda change: self.publish_event("health", change.get("kind", "change"), change)
            )
        add_membership_listener = getattr(backend, "add_membership_listener", None)
        if callable(add_membership_listener):
            add_membership_listener(
                lambda event, replica_id: self.publish_event(
                    "autoscale", event, {"replica_id": replica_id}
                )
            )
        self.host = host
        self.port = port  # 0 until start() binds an ephemeral port
        self.max_inflight = max_inflight
        self.server_id = server_id
        #: model id -> zero-arg architecture factory for REGISTER frames.  The
        #: factory stays server-side by design: code never crosses the wire.
        self.factories: Dict[str, Callable] = dict(factories or {})
        self.factory_resolver = factory_resolver
        self._requested_port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._startup_error: Optional[BaseException] = None
        self._connections: Set[_Connection] = set()
        self._handlers: Set[asyncio.Task] = set()
        self._tasks: Set[asyncio.Task] = set()  # serving work (requests/registers)
        self._sends: Set[asyncio.Task] = set()  # fire-and-forget rejection frames
        self._lifecycle_lock = threading.Lock()
        self._running = False
        self._stopped = False
        self._draining = False
        self._counters = {
            "connections": 0,
            "requests": 0,
            "responses": 0,
            "errors": 0,
            "backpressure": 0,
            "rejected": 0,
            "registered": 0,
            "observed": 0,
            "subscriptions": 0,
            "events_published": 0,
            "events_sent": 0,
            "events_dropped": 0,
        }
        submit_many = getattr(backend, "submit_many", None)
        self._can_submit = callable(submit_many)
        self._submit_params = _keyword_names(submit_many) if self._can_submit else set()
        self._predict_params = _keyword_names(getattr(backend, "predict", None))
        # Registration surface: a ClusterRouter registers directly; a plain
        # InferenceServer exposes it through its registry.
        register = getattr(backend, "register", None)
        if not callable(register):
            registry = getattr(backend, "registry", None)
            register = getattr(registry, "register", None)
        self._register = register

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — valid once :meth:`start` returned."""
        return (self.host, self.port)

    def start(self) -> "GatewayServer":
        """Bind the listener and run the event loop on a background thread."""
        with self._lifecycle_lock:
            if self._running:
                return self
            self._startup_error = None
            self._draining = False
            self._loop = asyncio.new_event_loop()
            ready = threading.Event()
            self._thread = threading.Thread(
                target=self._run_loop, args=(ready,), name=f"gateway-{self.server_id}", daemon=True
            )
            self._thread.start()
            if not ready.wait(timeout=30):  # pragma: no cover - loop thread wedged
                raise RuntimeError("gateway event loop failed to start within 30s")
            if self._startup_error is not None:
                self._thread.join()
                raise self._startup_error
            self._running = True
            self._stopped = False
        return self

    def _run_loop(self, ready: threading.Event) -> None:
        loop = self._loop
        asyncio.set_event_loop(loop)

        async def boot() -> None:
            try:
                self._server = await asyncio.start_server(
                    self._handle_connection, self.host, self._requested_port
                )
                self.port = self._server.sockets[0].getsockname()[1]
            except BaseException as error:  # noqa: BLE001 - surfaced by start()
                self._startup_error = error
            finally:
                ready.set()

        loop.run_until_complete(boot())
        if self._startup_error is None:
            loop.run_forever()
        loop.close()

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain: finish in-flight work, GOODBYE, then shut the loop.

        Idempotent, and restartable: after ``stop()`` a new ``start()`` binds
        a fresh listener (on the same requested port, which for the default
        ephemeral port 0 means a *new* port).
        """
        with self._lifecycle_lock:
            if not self._running:
                self._stopped = True
                return
            self._running = False
            self._stopped = True
            loop, thread = self._loop, self._thread
        try:
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), loop)
            future.result(timeout=timeout)
        finally:
            # Even when the drain times out (a wedged backend call, a client
            # that stopped reading) the loop thread must not leak: stop the
            # loop regardless and only then release the lifecycle slots, so a
            # timed-out stop() is still a *stopped* gateway, not limbo.
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=timeout)
            with self._lifecycle_lock:
                self._loop = None
                self._thread = None

    async def _shutdown(self) -> None:
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Serving tasks only shrink during drain (_admit rejects new work once
        # _draining is set), so this loop is bounded — a client that keeps
        # sending cannot hold the drain open, because its rejection frames
        # live in the separate _sends set, gathered once below.
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)
        if self._sends:
            await asyncio.gather(*list(self._sends), return_exceptions=True)
        for connection in list(self._connections):
            await connection.send(Goodbye("gateway drained"))
            # Half-close (FIN) rather than close(): a full close while raced
            # requests sit unread in our receive buffer resets the socket and
            # can destroy the buffered GOODBYE before the client reads it.
            # write_eof() flushes GOODBYE reliably; the handler keeps reading
            # until the client closes its side.
            writer = connection.writer
            try:
                if writer.can_write_eof():
                    writer.write_eof()
                else:  # pragma: no cover - transports without half-close
                    writer.close()
            except (OSError, RuntimeError):  # pragma: no cover - already dead
                writer.close()
        if self._handlers:
            _, pending = await asyncio.wait(list(self._handlers), timeout=5)
            for task in pending:  # pragma: no cover - defensive reaping
                task.cancel()
        for connection in list(self._connections):
            connection.writer.close()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Connection handling (loop thread)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._handlers.add(task)
        connection = _Connection(writer, faults=self.faults)
        self._connections.add(connection)
        self._counters["connections"] += 1
        try:
            first = await read_frame(reader)
            if first is None:
                return
            if not isinstance(first, Hello):
                await connection.send(
                    ErrorFrame(0, ProtocolError("the first frame on a connection must be HELLO"))
                )
                return
            connection.tenant = first.tenant
            connection.deadline = first.deadline
            connection.window = min(first.window or self.max_inflight, self.max_inflight)
            await connection.send(HelloAck(window=connection.window, server_id=self.server_id))
            while True:
                frame = await read_frame(reader)
                if frame is None or isinstance(frame, Goodbye):
                    return
                if isinstance(frame, (Request, BatchRequest, Register, Observe)):
                    self._admit(connection, frame)
                elif isinstance(frame, Subscribe):
                    # Subscriptions are connection metadata, not serving work:
                    # handled inline (no window slot), acked immediately.
                    await self._serve_subscribe(connection, frame)
                else:
                    await connection.send(
                        ErrorFrame(
                            0,
                            ProtocolError(
                                f"unexpected {type(frame).__name__} frame after handshake"
                            ),
                        )
                    )
                    return
        except ProtocolError as error:
            await connection.send(ErrorFrame(0, error))
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer dropped; in-flight tasks still resolve (writes no-op)
        finally:
            self._connections.discard(connection)
            self._handlers.discard(task)
            connection.writer.close()

    def _admit(self, connection: _Connection, frame) -> None:
        """Window accounting + drain gate; runs inline on the reader task."""
        request_id = frame.request_id
        if request_id == 0:
            # Id 0 marks connection-level errors on the wire; a request using
            # it would make its own error reply look fatal to the client.
            self._counters["rejected"] += 1
            self._spawn(
                connection.send(
                    ErrorFrame(0, ProtocolError("request_id 0 is reserved for connection errors"))
                )
            )
            return
        if self._draining:
            self._counters["rejected"] += 1
            self._spawn(
                connection.send(
                    ErrorFrame(
                        request_id,
                        ServerStopped("gateway is draining; no new requests are accepted"),
                    )
                )
            )
            return
        if connection.inflight >= connection.window:
            self._counters["backpressure"] += 1
            self._spawn(
                connection.send(
                    ErrorFrame(request_id, Backpressure(connection.window, connection.inflight))
                )
            )
            return
        connection.inflight += 1
        self._counters["requests"] += len(frame.samples) if isinstance(frame, BatchRequest) else 1
        if isinstance(frame, Register):
            coroutine = self._serve_register(connection, frame)
        elif isinstance(frame, Observe):
            coroutine = self._serve_observe(connection, frame)
        else:
            coroutine = self._serve_request(connection, frame)
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)

        def _done(finished: asyncio.Task) -> None:
            self._tasks.discard(finished)
            connection.inflight -= 1

        task.add_done_callback(_done)

    async def _serve_subscribe(self, connection: _Connection, frame: Subscribe) -> None:
        """Replace the connection's topic set; unknown topics are typed errors."""
        unknown = [topic for topic in frame.topics if topic not in EVENT_TOPICS]
        if unknown:
            await connection.send(
                ErrorFrame(
                    frame.request_id,
                    ProtocolError(
                        f"unknown event topics {unknown}; available: {list(EVENT_TOPICS)}"
                    ),
                )
            )
            return
        connection.topics = frozenset(frame.topics)
        self._counters["subscriptions"] += 1
        await connection.send(Ack(frame.request_id, ",".join(sorted(connection.topics))))

    # ------------------------------------------------------------------
    # Event plane (any thread -> loop thread -> subscribed connections)
    # ------------------------------------------------------------------
    def publish_event(self, topic: str, name: str, payload: Dict[str, object]) -> int:
        """Fan one event out to every connection subscribed to ``topic``.

        Thread-safe and non-blocking: callable from alert/health/autoscale
        callbacks on any thread.  The sequence number is minted here — one
        monotonic counter across all topics, so cross-topic ordering (alert
        firing before resolved) is pinned — and the actual socket writes run
        as fire-and-forget tasks on the gateway loop, never blocking the
        caller or the request path.  Returns the sequence number (0 when the
        event was dropped because the gateway is not running).
        """
        with self._event_lock:
            self._event_seq += 1
            seq = self._event_seq
        event = Event(topic=topic, name=name, payload=payload, seq=seq, timestamp=time.time())
        with self._lifecycle_lock:
            loop = self._loop if self._running else None
        if loop is None:
            self._counters["events_dropped"] += 1
            return 0
        self._counters["events_published"] += 1

        def _fan_out() -> None:
            data = encode_frame(event)
            for connection in list(self._connections):
                if topic in connection.topics and not connection.writer.is_closing():
                    self._counters["events_sent"] += 1
                    self._spawn(connection.send_bytes(data))

        try:
            loop.call_soon_threadsafe(_fan_out)
        except RuntimeError:  # loop shut down between the check and the call
            self._counters["events_dropped"] += 1
            return 0
        return seq

    def _spawn(self, coroutine) -> None:
        """Track a fire-and-forget rejection send (drained once at shutdown;
        kept out of _tasks so a client spamming during drain cannot keep the
        shutdown loop alive)."""
        task = asyncio.get_running_loop().create_task(coroutine)
        self._sends.add(task)
        task.add_done_callback(self._sends.discard)

    # ------------------------------------------------------------------
    # Dispatch (loop thread -> backend)
    # ------------------------------------------------------------------
    async def _serve_request(
        self, connection: _Connection, request: Union[Request, BatchRequest]
    ) -> None:
        """Serve one REQUEST or BATCH frame: one backend hop, one reply frame.

        Spans, the latency histogram and the outcome counters are per row, so
        a batch reads like its rows sent one by one.
        """
        batch = isinstance(request, BatchRequest)
        samples = list(request.samples) if batch else [request.sample]
        spans: Optional[List[ActiveSpan]] = None
        if self.tracer is not None:
            # Continue the client's trace when the frame carried a context
            # (the optional wire suffix); root a fresh one otherwise, so
            # server-side sampling still applies to untraced clients.
            spans = [
                self.tracer.start_span(
                    "gateway.request",
                    parent=request.trace,
                    attributes={
                        "model_id": request.model_id,
                        "tenant": connection.tenant,
                        "peer": connection.peer,
                    },
                )
                for _ in samples
            ]
        began = time.perf_counter()
        self._requests_counter.inc(len(samples))
        try:
            outcomes = await self._dispatch(connection, request, samples, spans)
            # A backend that returns something the wire refuses (None, an
            # object array, rows of different shapes) must still answer:
            # the typed failure goes back instead of a hung request.
            try:
                if batch:
                    reply = BatchReply.from_outcomes(request.request_id, outcomes)
                elif isinstance(outcomes[0], BaseException):
                    reply = ErrorFrame(request.request_id, outcomes[0])
                else:
                    reply = Response(request.request_id, np.asarray(outcomes[0]))
                data = encode_frame(reply)
            except ValueError as unstackable:
                raise ProtocolError(f"unencodable reply: {unstackable}") from None
        except asyncio.CancelledError:  # pragma: no cover - only on hard kill
            raise
        except BaseException as error:  # noqa: BLE001 - becomes a typed frame
            outcomes = [error] * len(samples)
            data = encode_frame(ErrorFrame(request.request_id, error))
        elapsed_ms = (time.perf_counter() - began) * 1e3
        failed = 0
        for index, outcome in enumerate(outcomes):
            self._latency_hist.observe(elapsed_ms)
            error = outcome if isinstance(outcome, BaseException) else None
            failed += error is not None
            if spans is not None:
                spans[index].end(error=error)
        if failed:
            self._errors_counter.inc(failed)
            self._counters["errors"] += failed
        if failed < len(samples):
            self._responses_counter.inc(len(samples) - failed)
            self._counters["responses"] += len(samples) - failed
        await connection.send_bytes(data)

    @staticmethod
    def _terms(
        params: Set[str],
        connection: _Connection,
        deadline: Optional[float],
        priority: Optional[int],
    ) -> Dict[str, object]:
        """The SLA keyword arguments a backend method accepts."""
        kwargs: Dict[str, object] = {}
        if "tenant" in params:
            kwargs["tenant"] = connection.tenant
        if deadline is not None and "deadline" in params:
            kwargs["deadline"] = deadline
        if priority is not None and "priority" in params:
            kwargs["priority"] = priority
        return kwargs

    async def _dispatch(
        self,
        connection: _Connection,
        request: Union[Request, BatchRequest],
        samples: List[np.ndarray],
        spans: Optional[List[ActiveSpan]],
    ) -> List[object]:
        """Run a frame's rows on the backend; each row's output or error."""
        deadline = request.deadline if request.deadline is not None else connection.deadline
        loop = asyncio.get_running_loop()
        if self._can_submit and getattr(self.backend, "running", False):
            params = self._submit_params
            kwargs = self._terms(params, connection, deadline, request.priority)
            if spans is not None and "traces" in params:
                kwargs["traces"] = [span.context for span in spans]
            # submit_many() itself runs the backend's middleware chain and
            # takes its locks inline, so it goes through the executor too —
            # only the await of the returned futures lives on the loop.
            call = partial(self.backend.submit_many, request.model_id, samples, **kwargs)
            if self.profiler is not None:
                call = partial(self.profiler.call_tagged, "gateway.submit", call)
            return await _settled(await loop.run_in_executor(None, call))
        # A backend without a running concurrent path serves the rows one by
        # one, still in one executor hop, each row failing on its own.
        kwargs = self._terms(self._predict_params, connection, deadline, None)
        traced = spans is not None and "trace" in self._predict_params

        def predict_rows() -> List[object]:
            outcomes: List[object] = []
            for index, sample in enumerate(samples):
                trace = {"trace": spans[index].context} if traced else {}
                try:
                    outcomes.append(
                        self.backend.predict(request.model_id, sample, **kwargs, **trace)
                    )
                except Exception as error:  # noqa: BLE001 - a per-row outcome
                    outcomes.append(error)
            return outcomes

        call = predict_rows
        if self.profiler is not None:
            call = partial(self.profiler.call_tagged, "gateway.predict", call)
        return await loop.run_in_executor(None, call)

    async def _serve_observe(self, connection: _Connection, frame: Observe) -> None:
        """Serve one OBSERVE pull: cluster-wide metrics snapshot + span tail.

        The snapshot walks every registered provider (backend ``stats()``
        sections included), so it runs on the executor like any backend call.
        """
        try:
            call = partial(self._observe_payload, frame.what, frame.max_spans)
            payload = await asyncio.get_running_loop().run_in_executor(None, call)
        except asyncio.CancelledError:  # pragma: no cover - only on hard kill
            raise
        except BaseException as error:  # noqa: BLE001 - becomes a typed frame
            self._counters["errors"] += 1
            await connection.send(ErrorFrame(frame.request_id, error))
        else:
            self._counters["observed"] += 1
            await connection.send(ObserveReply(frame.request_id, payload))

    def _observe_payload(self, what: str, max_spans: int) -> Dict[str, object]:
        scopes = ("all", "metrics", "spans", "profile")
        if what not in scopes:
            raise ProtocolError(f"unknown OBSERVE scope '{what}'; expected one of {scopes}")
        payload: Dict[str, object] = {"server_id": self.server_id}
        if what in ("all", "metrics"):
            payload["metrics"] = self.metrics.snapshot()
        if what in ("all", "spans"):
            tracer = self.tracer
            payload["spans"] = [] if tracer is None else tracer.recent_spans(max_spans)
            payload["tracer"] = None if tracer is None else tracer.stats()
        if what in ("all", "profile"):
            profiler = self.profiler
            # max_spans doubles as the stack bound: OBSERVE("profile") tails
            # the hottest folded stacks the way "spans" tails recent spans.
            payload["profile"] = None if profiler is None else profiler.snapshot(limit=max_spans)
        return payload

    async def _serve_register(self, connection: _Connection, frame: Register) -> None:
        try:
            factory = self.factories.get(frame.model_id)
            if factory is None and self.factory_resolver is not None:
                factory = self.factory_resolver(frame.model_id, frame.architecture)
            if factory is None:
                raise KeyError(
                    f"no architecture factory registered with the gateway for "
                    f"'{frame.model_id}'; pass factories={{...}} or a factory_resolver"
                )
            if self._register is None:
                raise ProtocolError(
                    "the gateway backend has no registration surface (register/registry)"
                )
            bundle = ModelBundle(payload=frame.payload, architecture=frame.architecture)
            call = partial(
                self._register,
                frame.model_id,
                bundle,
                factory,
                metadata=frame.metadata,
                replace=frame.replace,
            )
            entry = await asyncio.get_running_loop().run_in_executor(None, call)
        except asyncio.CancelledError:  # pragma: no cover - only on hard kill
            raise
        except BaseException as error:  # noqa: BLE001 - becomes a typed frame
            self._counters["errors"] += 1
            await connection.send(ErrorFrame(frame.request_id, error))
        else:
            self._counters["registered"] += 1
            checksum = getattr(entry, "checksum", "")
            await connection.send(Ack(frame.request_id, checksum))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, object]:
        """Edge counters plus lifecycle flags (safe to read from any thread)."""
        return {
            **dict(self._counters),
            "open_connections": len(self._connections),
            "inflight": len(self._tasks),
            "running": self._running,
            "draining": self._draining,
            "stopped": self._stopped,
            "address": f"{self.host}:{self.port}",
        }
