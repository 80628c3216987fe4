"""Remote serving clients: an asyncio core and a sync connection-pool facade.

:class:`AsyncRemoteClient` is one multiplexed connection to a
:class:`~repro.serve.gateway.server.GatewayServer`: it performs the tenant
handshake, gates sends on the granted in-flight window (so a well-behaved
client never triggers server-side
:class:`~repro.serve.gateway.errors.Backpressure`), and pipelines requests —
responses arrive in completion order and are matched back by request id, so
concurrent ``predict`` calls share the wire without head-of-line blocking.
``predict_batch`` sends its rows as one BATCH frame instead: one window
slot, one round trip, every row answered in one BATCH_REPLY.

:class:`RemoteClient` wraps a pool of those connections behind the exact
synchronous surface the in-process stack exposes (``predict`` /
``predict_batch`` / ``submit`` / ``register``), so it plugs in wherever an
:class:`~repro.serve.server.InferenceServer` or
:class:`~repro.serve.cluster.ClusterRouter` is used today — including under
an :class:`~repro.serve.proxy.ExtractionProxy`, which makes obfuscated
extraction work end-to-end over the network: samples are augmented
client-side *before* they reach this client, so only augmented bytes ever
touch the socket.

Failure surface: server-side exceptions arrive as typed error frames and are
re-raised as the *same* Python types (``RateLimitExceeded`` with its
``retry_after``, ``DeadlineExceeded`` with its SLA terms, ``ServerStopped``,
``ServerOverloaded`` …).  A graceful gateway drain resolves every in-flight
request before the ``GOODBYE``; requests raced past the drain edge fail with
``ServerStopped``, and only a socket that dies *unannounced* surfaces
:class:`~repro.serve.gateway.errors.ConnectionClosed`.

Reconnect-with-resume (``resume=True``): when the socket dies *unannounced*
(``ConnectionClosed`` / a corrupted frame's ``ProtocolError`` — never a
``GOODBYE``, which means the server answered everything it accepted), the
client re-runs the HELLO handshake with the same tenant, resubmits — byte
for byte, same request ids — every in-flight request that never got a
response frame, and keeps doing so under a :class:`RetryPolicy` budget.
Every submitted request still resolves exactly once, as a result or a typed
error; :meth:`AsyncRemoteClient.ledger` exposes the accounting the chaos
suite balances (``submitted == succeeded + failed + pending``).
"""

from __future__ import annotations

import asyncio
import itertools
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ...cloud.serialization import ModelBundle
from ..faults.injector import FaultInjector
from ..faults.retry import RetryPolicy
from ..observability import ActiveSpan, Tracer
from ..server import ServerStopped
from .errors import ConnectionClosed, ProtocolError
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

#: Pushed events retained client-side before the oldest are dropped.
MAX_BUFFERED_EVENTS = 1024


@dataclass
class RemoteRegistration:
    """What a REGISTER round trip returns: the server-acknowledged identity."""

    model_id: str
    checksum: str
    size_bytes: int


@dataclass
class _Pending:
    """One in-flight request: its future plus the exact bytes on the wire.

    The encoded frame (request id included) is kept so reconnect-with-resume
    can resubmit it verbatim — same id, same payload — and the reply matches
    back through the ordinary pending map.
    """

    future: asyncio.Future
    data: bytes
    rows: int = 1


class AsyncRemoteClient:
    """One handshaked, window-limited, pipelined gateway connection."""

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        deadline: Optional[float] = None,
        window: int = 0,
        resume: bool = False,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        reader_grace: float = 5.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if reader_grace <= 0:
            raise ValueError("reader_grace must be > 0 seconds")
        self.host = host
        self.port = port
        self.tenant = tenant
        self.deadline = deadline
        #: Client-side tracer: when set, every ``predict`` roots a
        #: ``client.submit`` span whose context rides the REQUEST frame, so
        #: the gateway's spans join *this* trace instead of rooting their own.
        self.tracer = tracer
        self.window = window  # requested; replaced by the granted window
        self.server_id = ""
        self._requested_window = window
        self._resume = resume
        self._retry = retry if retry is not None else RetryPolicy(
            max_attempts=5, base_delay=0.05, max_delay=1.0
        )
        self._faults = faults
        self._reader_grace = reader_grace
        self._target = f"{host}:{port}"
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._write_lock = asyncio.Lock()
        self._pending: Dict[int, _Pending] = {}
        self._ids = itertools.count(1)
        self._slots: Optional[asyncio.Semaphore] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._reconnect_task: Optional[asyncio.Task] = None
        self._ready = asyncio.Event()
        self._closed = False
        self._user_closed = False
        self._close_error: Optional[BaseException] = None
        self._ledger = {
            "submitted": 0,
            "succeeded": 0,
            "failed": 0,
            "resubmitted": 0,
            "reconnects": 0,
        }
        #: Pushed EVENT frames, oldest first, bounded (drop-oldest); the
        #: pulse wakes wait_for_event() coroutines on every arrival.
        self._events: List[Event] = []
        self._events_dropped = 0
        self._event_pulse = asyncio.Event()
        self._topics: List[str] = []

    async def connect(self) -> "AsyncRemoteClient":
        """Open the socket and run the HELLO/HELLO_ACK handshake."""
        try:
            await self._handshake()
        except BaseException:
            self._closed = True
            raise
        self._slots = asyncio.Semaphore(self.window)
        self._ready.set()
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        return self

    async def _handshake(self) -> None:
        """Open a fresh socket and HELLO on it (first connect and reconnects)."""
        if self._faults is not None:
            self._faults.on_client_connect(self._target)
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        try:
            self._writer.write(
                encode_frame(
                    Hello(
                        tenant=self.tenant,
                        deadline=self.deadline,
                        window=self._requested_window,
                    )
                )
            )
            await self._writer.drain()
            ack = await read_frame(self._reader)
            if isinstance(ack, ErrorFrame):
                raise ack.error
            if not isinstance(ack, HelloAck):
                raise ProtocolError(f"expected HELLO_ACK, got {type(ack).__name__}")
        except BaseException:
            # A failed handshake must not leak the socket it just opened.
            self._writer.close()
            raise
        self.window = ack.window
        self.server_id = ack.server_id

    async def _send(self, frame) -> None:
        await self._send_bytes(encode_frame(frame))

    async def _send_bytes(self, data: bytes) -> None:
        async with self._write_lock:
            if self._faults is not None and self._faults.on_client_send(self._target):
                self._writer.transport.abort()
                raise ConnectionResetError("fault injection: socket reset during send")
            self._writer.write(data)
            await self._writer.drain()

    async def _read_loop(self) -> None:
        closer: BaseException = ConnectionClosed("gateway connection closed unexpectedly")
        resumable = False
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    resumable = True  # unannounced EOF (no GOODBYE)
                    break
                if isinstance(frame, (Response, BatchReply, Ack, ObserveReply)):
                    entry = self._pending.pop(frame.request_id, None)
                    if entry is not None and not entry.future.done():
                        entry.future.set_result(frame)
                elif isinstance(frame, ErrorFrame):
                    if frame.request_id == 0:  # connection-level: fatal
                        closer = frame.error
                        break
                    entry = self._pending.pop(frame.request_id, None)
                    if entry is not None and not entry.future.done():
                        entry.future.set_exception(frame.error)
                elif isinstance(frame, Event):
                    # Server push on a subscribed topic: buffered (bounded,
                    # drop-oldest) and pulsed to any wait_for_event() waiter.
                    # Handled before the unknown-frame branch below — an
                    # unsubscribed peer never receives one, so this costs
                    # nothing on the plain request/response path.
                    self._events.append(frame)
                    if len(self._events) > MAX_BUFFERED_EVENTS:
                        del self._events[: -MAX_BUFFERED_EVENTS]
                        self._events_dropped += 1
                    self._event_pulse.set()
                elif isinstance(frame, Goodbye):
                    # Graceful drain: the server answered every accepted
                    # request before this frame, so whatever is still pending
                    # raced past the drain edge and was never accepted.
                    # Deliberate stop — never resumed.
                    closer = ServerStopped(f"gateway stopped: {frame.reason or 'drained'}")
                    break
                else:
                    closer = ProtocolError(f"unexpected {type(frame).__name__} frame")
                    break
        except (OSError, ProtocolError, asyncio.IncompleteReadError) as error:
            # OSError, not just ConnectionError: an ETIMEDOUT read raises
            # TimeoutError, which must also settle pending requests and end
            # the loop quietly instead of escaping into close().  Both shapes
            # — a dead socket and a frame that would not decode (corruption,
            # truncation) — are resumable: the *server* is presumed fine, the
            # connection is not.
            closer = error if isinstance(error, ProtocolError) else ConnectionClosed(str(error))
            resumable = True
        except asyncio.CancelledError:
            closer = ConnectionClosed("client closed the connection")
        finally:
            self._closed = True
            self._close_error = closer
            # Close our side promptly so a draining (half-closed) gateway's
            # connection handler sees EOF and finishes its shutdown.
            if self._writer is not None:
                self._writer.close()
            if self._resume and resumable and not self._user_closed:
                # In-flight requests stay pending: the reconnect task re-runs
                # the handshake and resubmits their stored frames verbatim.
                self._ready.clear()
                self._reconnect_task = asyncio.get_running_loop().create_task(
                    self._reconnect()
                )
            else:
                self._fail_pending(closer)

    def _fail_pending(self, error: BaseException) -> None:
        pending = list(self._pending.values())
        self._pending.clear()
        for entry in pending:
            if not entry.future.done():
                entry.future.set_exception(error)

    async def _reconnect(self) -> None:
        """Re-HELLO (same tenant), resubmit unanswered requests, reopen sends.

        Connect attempts are paced by the retry policy; when the budget is
        exhausted every pending future fails with the last error — the ledger
        still balances, nothing hangs.
        """
        session = self._retry.session()
        failures = 0
        while True:
            if self._user_closed:
                return  # close() fails the pending entries itself
            try:
                await self._handshake()
                break
            except asyncio.CancelledError:
                raise
            except BaseException as error:  # noqa: BLE001 - paced + budgeted
                failures += 1
                if not self._retry.should_retry(failures):
                    self._close_error = ConnectionClosed(
                        f"reconnect failed after {failures} attempts: {error!r}"
                    )
                    self._fail_pending(self._close_error)
                    self._ready.set()  # wake senders: they see _closed and raise
                    return
                await session.apause()
        self._closed = False
        self._close_error = None
        self._ledger["reconnects"] += 1
        self._reader_task = asyncio.get_running_loop().create_task(self._read_loop())
        # Resubmit in id order before admitting new sends, so the server sees
        # the oldest unanswered work first.  A connection that dies *during*
        # resubmission lands back here via the fresh read loop; replies to
        # requests the server already served twice are matched once and the
        # duplicate response is ignored (the pending entry is gone).
        for request_id in sorted(self._pending):
            entry = self._pending.get(request_id)
            if entry is None or entry.future.done():
                continue
            try:
                await self._send_bytes(entry.data)
            except asyncio.CancelledError:
                raise
            except (OSError, RuntimeError, ConnectionResetError):
                return  # the new read loop classifies and retriggers
            self._ledger["resubmitted"] += 1
        if self._topics:
            # Re-establish event subscriptions (best-effort: the Ack arrives
            # with no pending entry and is ignored; a failed send lands back
            # in the reconnect path via the fresh read loop).
            try:
                await self._send(Subscribe(request_id=next(self._ids), topics=self._topics))
            except (OSError, RuntimeError, ConnectionResetError):
                pass
        self._ready.set()

    async def _roundtrip(self, build: Callable[[int], object], rows: int = 1):
        """Allocate an id, send the frame, await its matched reply frame.

        The window slot is acquired before the send and — crucially — held
        until the request is *settled on the wire*: a caller that cancels
        mid-flight has already spent a server-side window slot, so releasing
        ours early would let a sibling overrun the granted window and trip
        spurious ``Backpressure``.  ``asyncio.shield`` keeps the wire-level
        wait alive through caller cancellation; the deferred release fires
        when the reply (or the connection close) resolves the entry.
        """
        await self._ready.wait()  # resume mode parks senders mid-reconnect
        if self._closed:
            raise self._close_error or ConnectionClosed("connection is closed")
        await self._slots.acquire()
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        sent = False
        try:
            # Encode before registering: an encode-time ProtocolError
            # (object-dtype sample, oversize frame) leaves no pending entry.
            data = encode_frame(build(request_id))
            self._pending[request_id] = _Pending(future, data, rows)
            self._ledger["submitted"] += rows
            future.add_done_callback(partial(self._account, rows))
            try:
                await self._send_bytes(data)
            except ProtocolError:
                # Send-time protocol failure: the connection is healthy and
                # the diagnosis is precise — surface it directly.  Must
                # precede the handler below: ProtocolError *is* RuntimeError.
                raise
            except (OSError, RuntimeError) as error:
                # The socket died under the send.
                if self._resume and not self._user_closed:
                    # The pending entry (and its encoded bytes) survive: the
                    # reconnect path resubmits it, so just await the future —
                    # it resolves as a result or a typed error either way.
                    pass
                else:
                    # The reader loop owns the diagnosis — a drained gateway
                    # sent GOODBYE before closing (=> typed ServerStopped), an
                    # unannounced death did not (=> ConnectionClosed) — so
                    # wait for its verdict, keeping the send failure as the
                    # cause instead of swallowing it.
                    if self._reader_task is not None:
                        done, _ = await asyncio.wait(
                            {self._reader_task}, timeout=self._reader_grace
                        )
                        if not done:
                            raise ConnectionClosed(
                                f"send failed and the reader reached no verdict "
                                f"within {self._reader_grace}s"
                            ) from error
                    raise (
                        self._close_error or ConnectionClosed("connection closed during send")
                    ) from error
            sent = True
            return await asyncio.shield(future)
        finally:
            if future.done() or not sent:
                entry = self._pending.pop(request_id, None)
                self._slots.release()
                if entry is not None and not future.done():
                    # Registered but never made it onto the wire: resolve it
                    # here so the ledger still balances (counted as failed).
                    future.set_exception(
                        self._close_error or ConnectionClosed("request was never sent")
                    )
            else:
                # The caller abandoned a request that is already on the wire:
                # keep the pending entry so the reader still matches the
                # reply, and release the window slot only when it lands.
                def _settle(settled: asyncio.Future) -> None:
                    self._slots.release()
                    if not settled.cancelled():
                        settled.exception()  # consume: no 'never retrieved'

                future.add_done_callback(_settle)

    def _account(self, rows: int, settled: asyncio.Future) -> None:
        """Ledger bookkeeping: every submitted row resolves exactly once."""
        if settled.cancelled() or settled.exception() is not None:
            self._ledger["failed"] += rows
            return
        reply = settled.result()
        failed = len(reply.errors) if isinstance(reply, BatchReply) else 0
        self._ledger["failed"] += failed
        self._ledger["succeeded"] += rows - failed

    # ------------------------------------------------------------------
    # Serving surface
    # ------------------------------------------------------------------
    async def predict(
        self,
        model_id: str,
        sample: np.ndarray,
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> np.ndarray:
        reply = await self._traced_roundtrip(
            model_id,
            lambda request_id, trace: Request(
                request_id=request_id,
                model_id=model_id,
                sample=np.asarray(sample),
                deadline=deadline,
                priority=priority,
                trace=trace,
            ),
        )
        return reply.output

    async def _traced_roundtrip(
        self, model_id: str, build: Callable[[int, Optional[object]], object], rows: int = 1
    ):
        """Round-trip ``build(request_id, trace)`` under a ``client.submit``
        span when tracing; the span's context rides the frame as ``trace``."""
        span: Optional[ActiveSpan] = None
        if self.tracer is not None:
            span = self.tracer.start_span(
                "client.submit",
                attributes={"model_id": model_id, "tenant": self.tenant},
            )
        trace = None if span is None else span.context
        try:
            reply = await self._roundtrip(lambda request_id: build(request_id, trace), rows)
        except BaseException as error:
            if span is not None:
                span.end(error=error)
            raise
        if span is not None:
            span.end()
        return reply

    async def observe(self, what: str = "all", max_spans: int = 128) -> Dict[str, object]:
        """Pull the gateway's live observability snapshot over the wire.

        ``what`` scopes the payload (``"all"`` / ``"metrics"`` / ``"spans"``);
        ``max_spans`` bounds the recent-span tail.  Returns the OBSERVE_REPLY
        payload: the cluster-wide metrics snapshot plus retained spans.
        """
        reply = await self._roundtrip(
            lambda request_id: Observe(
                request_id=request_id, what=what, max_spans=max_spans
            )
        )
        return reply.payload

    async def subscribe(self, topics: Sequence[str]) -> List[str]:
        """Subscribe this connection to server-pushed event topics.

        Replaces the connection's topic set (an empty sequence unsubscribes)
        and returns the granted topics from the server's Ack.  Unknown topics
        surface as a typed :class:`ProtocolError` from the server.
        """
        topics = [str(topic) for topic in topics]
        reply = await self._roundtrip(
            lambda request_id: Subscribe(request_id=request_id, topics=topics)
        )
        self._topics = topics
        return [topic for topic in reply.message.split(",") if topic]

    def events(self) -> List[Event]:
        """Drain the buffered pushed events (oldest first)."""
        drained, self._events = self._events, []
        return drained

    async def wait_for_event(
        self,
        predicate: Optional[Callable[[Event], bool]] = None,
        timeout: float = 30.0,
    ) -> Event:
        """Await the next buffered event matching ``predicate`` (consumes it
        and everything buffered before it).  Raises ``asyncio.TimeoutError``
        when nothing matches within ``timeout`` seconds."""
        loop = asyncio.get_running_loop()
        give_up = loop.time() + timeout
        while True:
            while self._events:
                event = self._events.pop(0)
                if predicate is None or predicate(event):
                    return event
            self._event_pulse.clear()
            remaining = give_up - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError(
                    f"no matching event pushed within {timeout}s"
                )
            await asyncio.wait_for(self._event_pulse.wait(), timeout=remaining)

    async def predict_rows(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> List[object]:
        """Send ``samples`` as one BATCH frame; each row's output or typed error.

        The batch takes one window slot and one round trip; the gateway runs
        its rows as one unit and answers every row exactly once.
        """
        if len(samples) == 0:
            return []
        stacked = np.stack([np.asarray(sample) for sample in samples])
        reply = await self._traced_roundtrip(
            model_id,
            lambda request_id, trace: BatchRequest(
                request_id=request_id,
                model_id=model_id,
                samples=stacked,
                deadline=deadline,
                priority=priority,
                trace=trace,
            ),
            rows=len(stacked),
        )
        return reply.outcomes()

    async def predict_batch(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> List[np.ndarray]:
        """One BATCH round trip; raises the first failed row's error.

        The same fail-fast surface as the in-process ``predict_batch``; use
        :meth:`predict_rows` when the outcome of every row matters.
        """
        outcomes = await self.predict_rows(model_id, samples, deadline=deadline, priority=priority)
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return outcomes

    async def register(
        self,
        model_id: str,
        bundle: ModelBundle,
        metadata: Optional[Dict[str, object]] = None,
        replace: bool = False,
    ) -> RemoteRegistration:
        """Publish a bundle over the wire (the gateway resolves the factory)."""
        reply = await self._roundtrip(
            lambda request_id: Register(
                request_id=request_id,
                model_id=model_id,
                payload=bundle.payload,
                architecture=dict(bundle.architecture),
                metadata=dict(metadata or {}),
                replace=replace,
            )
        )
        return RemoteRegistration(
            model_id=model_id, checksum=reply.message, size_bytes=bundle.size_bytes
        )

    async def close(self) -> None:
        self._user_closed = True
        if self._reconnect_task is not None:
            self._reconnect_task.cancel()
            try:
                await self._reconnect_task
            except asyncio.CancelledError:
                pass
            self._reconnect_task = None
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
            self._reader_task = None
        self._closed = True
        if self._close_error is None:
            self._close_error = ConnectionClosed("client closed the connection")
        self._fail_pending(self._close_error)  # resume-mode stragglers
        self._ready.set()  # wake parked senders; they observe _closed
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover - platform noise
                pass

    @property
    def closed(self) -> bool:
        return self._closed

    def ledger(self) -> Dict[str, int]:
        """Row accounting; ``submitted == succeeded + failed + pending``."""
        # Copy first: callers on other threads read while the loop mutates.
        pending = sum(entry.rows for entry in list(self._pending.values()))
        return {**self._ledger, "pending": pending}


class RemoteClient:
    """Sync facade over a pool of gateway connections on a private event loop.

    Drop-in for the in-process serving surface: ``predict(model_id, sample)``
    blocks for one round trip, ``predict_batch``/``submit_many`` send a batch
    as one BATCH frame on one pooled connection, ``submit`` returns
    a :class:`concurrent.futures.Future` exactly like ``InferenceServer`` and
    ``ClusterRouter`` do — which is what lets ``ExtractionProxy.submit`` work
    unchanged over the network — and ``register`` is signature-compatible
    with :meth:`ModelRegistry.register` so ``CloudSession.publish`` targets a
    remote gateway directly.  The tenant rides in the connection handshake
    (the in-process surface deliberately does not forward a per-call tenant).
    """

    def __init__(
        self,
        host: str,
        port: int,
        tenant: str = "default",
        deadline: Optional[float] = None,
        pool_size: int = 1,
        window: int = 0,
        connect_timeout: float = 30.0,
        resume: bool = False,
        retry: Optional[RetryPolicy] = None,
        faults: Optional[FaultInjector] = None,
        reader_grace: float = 5.0,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if pool_size < 1:
            raise ValueError("pool_size must be >= 1")
        self.host = host
        self.port = port
        self.tenant = tenant
        self.tracer = tracer
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name=f"remote-client-{host}:{port}", daemon=True
        )
        self._thread.start()
        self._pool: List[AsyncRemoteClient] = []
        self._index = 0
        self._pool_lock = threading.Lock()
        self._closed = False
        try:
            for _ in range(pool_size):
                client = AsyncRemoteClient(
                    host,
                    port,
                    tenant=tenant,
                    deadline=deadline,
                    window=window,
                    resume=resume,
                    retry=retry,
                    faults=faults,
                    reader_grace=reader_grace,
                    tracer=tracer,
                )
                future = asyncio.run_coroutine_threadsafe(client.connect(), self._loop)
                try:
                    self._pool.append(future.result(timeout=connect_timeout))
                except BaseException:
                    # A timed-out .result() leaves the connect coroutine (and
                    # its half-open socket) alive on the loop: cancel it so
                    # connect()'s cleanup closes the socket before we tear
                    # the loop down.
                    future.cancel()
                    raise
        except BaseException:
            self.close()
            raise

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()
        self._loop.close()

    def _connection(self) -> AsyncRemoteClient:
        with self._pool_lock:
            if self._closed:
                raise ConnectionClosed("RemoteClient is closed")
            connection = self._pool[self._index % len(self._pool)]
            self._index += 1
            return connection

    @property
    def window(self) -> int:
        """Granted per-connection in-flight window (from the handshake)."""
        return self._pool[0].window if self._pool else 0

    def ledger(self) -> Dict[str, int]:
        """Pool-wide request accounting, summed across connections."""
        with self._pool_lock:
            pool = list(self._pool)
        totals: Dict[str, int] = {}
        for connection in pool:
            for key, value in connection.ledger().items():
                totals[key] = totals.get(key, 0) + value
        return totals

    # ------------------------------------------------------------------
    # Serving surface (mirrors InferenceServer / ClusterRouter)
    # ------------------------------------------------------------------
    def submit(
        self,
        model_id: str,
        sample: np.ndarray,
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ):
        """Enqueue one round trip; returns a ``concurrent.futures.Future``."""
        connection = self._connection()
        return asyncio.run_coroutine_threadsafe(
            connection.predict(model_id, sample, deadline=deadline, priority=priority),
            self._loop,
        )

    def submit_many(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> List[Future]:
        """Send ``samples`` as one BATCH frame; one future per row.

        Every future resolves when the batch reply lands: to the row's output
        or its typed error.
        """
        futures: List[Future] = [Future() for _ in samples]
        if not futures:
            return futures
        batch = asyncio.run_coroutine_threadsafe(
            self._connection().predict_rows(
                model_id, samples, deadline=deadline, priority=priority
            ),
            self._loop,
        )

        def _fan_out(done) -> None:
            error = done.exception()
            outcomes = [error] * len(futures) if error is not None else done.result()
            for future, outcome in zip(futures, outcomes):
                if isinstance(outcome, BaseException):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)

        batch.add_done_callback(_fan_out)
        return futures

    def predict(
        self,
        model_id: str,
        sample: np.ndarray,
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> np.ndarray:
        return self.submit(model_id, sample, deadline=deadline, priority=priority).result()

    def predict_batch(
        self,
        model_id: str,
        samples: Sequence[np.ndarray],
        deadline: Optional[float] = None,
        priority: Optional[int] = None,
    ) -> List[np.ndarray]:
        futures = self.submit_many(model_id, samples, deadline=deadline, priority=priority)
        return [future.result() for future in futures]

    def observe(self, what: str = "all", max_spans: int = 128) -> Dict[str, object]:
        """Blocking OBSERVE round trip: the gateway's metrics + span tail."""
        connection = self._connection()
        return asyncio.run_coroutine_threadsafe(
            connection.observe(what=what, max_spans=max_spans), self._loop
        ).result()

    # ------------------------------------------------------------------
    # Event plane (server push)
    # ------------------------------------------------------------------
    def subscribe(self, topics: Sequence[str], timeout: float = 30.0) -> List[str]:
        """Subscribe to server-pushed event topics; returns the granted set.

        Only the pool's first connection subscribes, so each pushed event is
        delivered exactly once regardless of ``pool_size``.
        """
        with self._pool_lock:
            if self._closed or not self._pool:
                raise ConnectionClosed("RemoteClient is closed")
            connection = self._pool[0]
        return asyncio.run_coroutine_threadsafe(
            connection.subscribe(topics), self._loop
        ).result(timeout=timeout)

    def events(self) -> List[Event]:
        """Drain events pushed since the last drain (oldest first).

        The buffer swap is a single atomic rebind (GIL-safe against the
        reader loop's appends), so no loop hop is needed.
        """
        with self._pool_lock:
            if self._closed or not self._pool:
                return []
            connection = self._pool[0]
        return connection.events()

    def wait_for_event(
        self,
        topic: Optional[str] = None,
        name: Optional[str] = None,
        timeout: float = 30.0,
    ) -> Event:
        """Block until the next pushed event matching ``topic``/``name``.

        ``None`` matches anything; raises ``TimeoutError`` when no matching
        event arrives within ``timeout`` seconds.
        """
        with self._pool_lock:
            if self._closed or not self._pool:
                raise ConnectionClosed("RemoteClient is closed")
            connection = self._pool[0]

        def _matches(event: Event) -> bool:
            return (topic is None or event.topic == topic) and (
                name is None or event.name == name
            )

        return asyncio.run_coroutine_threadsafe(
            connection.wait_for_event(_matches, timeout=timeout), self._loop
        ).result(timeout=timeout + 5.0)

    def register(
        self,
        model_id: str,
        bundle: ModelBundle,
        factory: Optional[Callable] = None,
        metadata: Optional[Dict[str, object]] = None,
        replace: bool = False,
    ) -> RemoteRegistration:
        """`ModelRegistry.register`-shaped publish: the bundle crosses the
        wire; ``factory`` deliberately does not (code never travels — the
        gateway resolves architectures server-side), so it is accepted for
        signature compatibility and ignored."""
        del factory
        connection = self._connection()
        return asyncio.run_coroutine_threadsafe(
            connection.register(model_id, bundle, metadata=metadata, replace=replace),
            self._loop,
        ).result()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        with self._pool_lock:
            if self._closed:
                return
            self._closed = True
            pool, self._pool = self._pool, []
        for connection in pool:
            try:
                asyncio.run_coroutine_threadsafe(connection.close(), self._loop).result(
                    timeout=timeout
                )
            except Exception:  # noqa: BLE001 - best-effort teardown
                pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)

    def __enter__(self) -> "RemoteClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
