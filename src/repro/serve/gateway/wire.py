"""The gateway wire protocol: length-prefixed, versioned binary frames.

Msgpack-free by design — the only dependencies are :mod:`struct` and raw
ndarray buffers, so the protocol has no third-party surface and the exact
byte layout is auditable below.  Every frame is::

    !I payload_length | !B version | !B frame_type | type-specific body

Primitives inside a body:

* **str** — ``!I`` byte length + UTF-8 bytes;
* **ndarray** — str dtype (numpy ``dtype.str``, e.g. ``"<f4"``), ``!B`` ndim,
  ``!I`` per dimension, ``!Q`` byte length + C-contiguous raw buffer.  Object
  and void dtypes are rejected on both encode and decode (nothing executable
  crosses the wire);
* **optional float** (deadlines) — ``!d`` with NaN meaning "absent";
* **error** — ``!B`` code + str message + ``!B`` attr count + per attr
  (str key, ``!B`` value type, value).  Known exception types round-trip to
  the *same* Python type with their payload intact (``retry_after``,
  ``deadline`` …); unknown exceptions degrade to
  :class:`~repro.serve.gateway.errors.GatewayError` carrying
  ``"TypeName: message"``.

Frame types:

====== ============= =========================================================
 code   frame         body
====== ============= =========================================================
 0x01   HELLO         str tenant, opt-float default deadline, !I window wish
 0x02   HELLO_ACK     !I granted window, str server id
 0x03   REQUEST       !Q request id, str model id, opt-float deadline,
                      !B has-priority, !q priority, ndarray sample,
                      [optional trace suffix: str trace id, str parent span
                      id, !B sampled]
 0x04   RESPONSE      !Q request id, ndarray output
 0x05   ERROR         !Q request id (0 = connection-level), error
 0x06   GOODBYE       str reason (server→client: drain complete)
 0x07   REGISTER      !Q request id, str model id, !B replace, str metadata
                      JSON, str architecture JSON, !Q len + bundle payload
 0x08   ACK           !Q request id, str message (REGISTER's checksum reply)
 0x09   OBSERVE       !Q request id, str what ("metrics"|"spans"|"all"),
                      !I max spans to tail
 0x0A   OBSERVE_REPLY !Q request id, str snapshot JSON
 0x0B   SUBSCRIBE     !Q request id, !H topic count, str per topic
                      (server replies ACK; replaces the connection's set)
 0x0C   EVENT         str topic, str name, str payload JSON, !Q sequence,
                      !d timestamp (server→client push; never solicited
                      from peers that did not SUBSCRIBE)
 0x0D   BATCH         !Q request id, str model id, opt-float deadline,
                      !B has-priority, !q priority, ndarray samples stacked
                      on a leading row axis (at least one row), [optional
                      trace suffix, as on REQUEST]
 0x0E   BATCH_REPLY   !Q request id, !I rows, ndarray outputs of the rows
                      that succeeded (stacked, in row order), !I error
                      count, per error: !I row index (strictly increasing)
                      + error; outputs + errors must account for every row
====== ============= =========================================================

Frames are versioned (`WIRE_VERSION`): a version byte the decoder does not
speak raises a typed :class:`ProtocolError` instead of misparsing bytes.

A BATCH carries many rows under one header and travels the serving stack
as one unit (one gateway task, one admission entry, one replica dispatch);
its BATCH_REPLY answers every row exactly once, as an output or a typed
error.

The REQUEST (and BATCH) trace suffix is the one deliberately *optional*
field: it is encoded only when the request carries a
:class:`~repro.serve.observability.TraceContext`, and the decoder parses it
only when bytes remain after the sample array.  Old peers therefore
interoperate in both directions without a version bump — an old decoder
never sees the suffix from an untraced client, and a new decoder treats its
absence as ``trace=None`` (the strict no-trailing-bytes check still rejects
anything that is not exactly a trace block).
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..cluster.errors import (
    DeadlineExceeded,
    FailoverExhausted,
    NoHealthyReplica,
    ReplicaUnavailable,
)
from ..middleware.base import ObfuscationViolation, RateLimitExceeded, ValidationError
from ..middleware.privacy_budget import PrivacyBudgetExceeded
from ..observability.trace import TraceContext
from ..server import ServerOverloaded, ServerStopped
from .errors import Backpressure, ConnectionClosed, GatewayError, ProtocolError

WIRE_VERSION = 1
#: Upper bound on a single frame's payload; a length prefix beyond this is
#: treated as a protocol violation (corrupt stream or hostile peer), not an
#: allocation request.
MAX_FRAME_BYTES = 256 * 1024 * 1024

FRAME_HELLO = 0x01
FRAME_HELLO_ACK = 0x02
FRAME_REQUEST = 0x03
FRAME_RESPONSE = 0x04
FRAME_ERROR = 0x05
FRAME_GOODBYE = 0x06
FRAME_REGISTER = 0x07
FRAME_ACK = 0x08
FRAME_OBSERVE = 0x09
FRAME_OBSERVE_REPLY = 0x0A
FRAME_SUBSCRIBE = 0x0B
FRAME_EVENT = 0x0C
FRAME_BATCH = 0x0D
FRAME_BATCH_REPLY = 0x0E

#: First byte of the optional REQUEST trace suffix.  The suffix is the only
#: place the protocol appends data after a frame's fixed body, so it carries a
#: marker to distinguish a genuine trace context from stray trailing bytes —
#: anything after the sample that does not parse as ``marker + trace`` is
#: still rejected by the strict framing check.
TRACE_MARKER = 0x54  # ASCII "T"

_LENGTH = struct.Struct("!I")
_HEADER = struct.Struct("!BB")


# ----------------------------------------------------------------------
# Frame dataclasses
# ----------------------------------------------------------------------
@dataclass
class Hello:
    """Client→server handshake: tenant tag, default SLA, requested window."""

    tenant: str = "default"
    deadline: Optional[float] = None  # per-connection default SLA budget (s)
    window: int = 0  # requested in-flight window; 0 = server's default


@dataclass
class HelloAck:
    """Server→client handshake reply: the granted in-flight window."""

    window: int
    server_id: str = ""


@dataclass
class Request:
    """One pipelined prediction request; responses match on ``request_id``.

    ``trace`` carries the client's trace context across the wire when the
    client runs a tracer; it is an optional frame suffix (absent on the wire
    when ``None``), so untraced peers interoperate without a version bump.
    """

    request_id: int
    model_id: str
    sample: np.ndarray
    deadline: Optional[float] = None  # overrides the HELLO default
    priority: Optional[int] = None
    trace: Optional[TraceContext] = None


@dataclass
class Response:
    request_id: int
    output: np.ndarray


@dataclass
class ErrorFrame:
    """A typed failure for ``request_id`` (0 marks a connection-level error)."""

    request_id: int
    error: BaseException


@dataclass
class Goodbye:
    """Server→client: drain complete, no further responses will arrive."""

    reason: str = ""


@dataclass
class Register:
    """Publish-over-the-wire: a model bundle headed for the backend registry.

    Only augmented artefacts travel — the serialized parameter payload and
    the public architecture digest.  The architecture *factory* cannot (and
    must not) cross a socket; the gateway resolves it server-side.
    """

    request_id: int
    model_id: str
    payload: bytes
    architecture: Dict[str, object] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    replace: bool = False


@dataclass
class Ack:
    request_id: int
    message: str = ""


@dataclass
class Observe:
    """Client→server: pull the live observability snapshot through the edge.

    ``what`` selects the sections (``"metrics"``, ``"spans"`` or ``"all"``);
    ``max_spans`` bounds the span tail the reply carries.
    """

    request_id: int
    what: str = "all"
    max_spans: int = 128


@dataclass
class ObserveReply:
    """Server→client: the cluster-wide snapshot, as one JSON payload."""

    request_id: int
    payload: Dict[str, object] = field(default_factory=dict)


@dataclass
class Subscribe:
    """Client→server: set this connection's event-topic subscriptions.

    Replaces (not extends) the connection's topic set, so an empty list
    unsubscribes.  The server confirms with an :class:`Ack` carrying the
    granted topics; peers that never send SUBSCRIBE see no EVENT frames at
    all — the push plane is strictly opt-in and old clients interoperate
    untouched.
    """

    request_id: int
    topics: List[str] = field(default_factory=list)


@dataclass
class Event:
    """Server→client push: one observability event on a subscribed topic.

    ``seq`` is a per-server monotonic sequence (total order across topics —
    the pinned ordering in the SLO acceptance scenario); ``payload`` is
    JSON-shaped data specific to ``(topic, name)`` — an alert transition, a
    health/breaker state change, an autoscale membership change.
    """

    topic: str
    name: str
    payload: Dict[str, object] = field(default_factory=dict)
    seq: int = 0
    timestamp: float = 0.0


@dataclass
class BatchRequest:
    """Many same-model rows under one header: ``samples`` stacks them on
    axis 0.  Deadline, priority and trace apply to every row."""

    request_id: int
    model_id: str
    samples: np.ndarray
    deadline: Optional[float] = None
    priority: Optional[int] = None
    trace: Optional[TraceContext] = None


@dataclass
class BatchReply:
    """Every row of a :class:`BatchRequest`, answered exactly once.

    ``outputs`` stacks the outputs of the rows that succeeded, in row order;
    ``errors`` maps each failed row's index to its typed error.
    """

    request_id: int
    rows: int
    outputs: np.ndarray
    errors: Dict[int, BaseException] = field(default_factory=dict)

    @classmethod
    def from_outcomes(cls, request_id: int, outcomes: List[object]) -> "BatchReply":
        """Build a reply from per-row outcomes (an output or an exception)."""
        errors = {
            index: outcome
            for index, outcome in enumerate(outcomes)
            if isinstance(outcome, BaseException)
        }
        outputs = [np.asarray(o) for o in outcomes if not isinstance(o, BaseException)]
        return cls(
            request_id=request_id,
            rows=len(outcomes),
            outputs=np.stack(outputs) if outputs else np.zeros((0,), dtype=np.float32),
            errors=errors,
        )

    def outcomes(self) -> List[object]:
        """Per-row outcomes in row order: an output array or the row's error."""
        outputs = iter(self.outputs)
        return [
            self.errors[index] if index in self.errors else next(outputs)
            for index in range(self.rows)
        ]


Frame = Union[
    Hello,
    HelloAck,
    Request,
    Response,
    ErrorFrame,
    Goodbye,
    Register,
    Ack,
    Observe,
    ObserveReply,
    Subscribe,
    Event,
    BatchRequest,
    BatchReply,
]


# ----------------------------------------------------------------------
# Primitive packing
# ----------------------------------------------------------------------
def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return _LENGTH.pack(len(raw)) + raw


def _pack_opt_float(value: Optional[float]) -> bytes:
    return struct.pack("!d", float("nan") if value is None else float(value))


def _pack_array(array: np.ndarray) -> bytes:
    array = np.asarray(array)
    if array.dtype.kind in ("O", "V"):
        raise ProtocolError(f"refusing to serialize {array.dtype} arrays over the wire")
    if not array.flags["C_CONTIGUOUS"]:
        # ascontiguousarray would promote 0-d to 1-d, so only copy when needed
        array = np.ascontiguousarray(array)
    raw = array.tobytes()
    parts = [_pack_str(array.dtype.str), struct.pack("!B", array.ndim)]
    parts.extend(struct.pack("!I", dim) for dim in array.shape)
    parts.append(struct.pack("!Q", len(raw)))
    parts.append(raw)
    return b"".join(parts)


class _Cursor:
    """Sequential reader over one frame payload; exhaustion is a ProtocolError."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def unpack(self, fmt: str) -> Tuple:
        try:
            values = struct.unpack_from(fmt, self.data, self.offset)
        except struct.error as error:
            raise ProtocolError(f"truncated frame: {error}") from None
        self.offset += struct.calcsize(fmt)
        return values

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if count < 0 or end > len(self.data):
            raise ProtocolError("truncated frame: byte payload exceeds frame length")
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def str_(self) -> str:
        (length,) = self.unpack("!I")
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as error:
            raise ProtocolError(f"invalid UTF-8 in frame: {error}") from None

    def opt_float(self) -> Optional[float]:
        (value,) = self.unpack("!d")
        return None if math.isnan(value) else value

    def array(self) -> np.ndarray:
        dtype_str = self.str_()
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as error:
            raise ProtocolError(f"unknown dtype {dtype_str!r}: {error}") from None
        if dtype.kind in ("O", "V"):
            raise ProtocolError(f"refusing to deserialize {dtype} arrays off the wire")
        (ndim,) = self.unpack("!B")
        shape = tuple(self.unpack("!" + "I" * ndim)) if ndim else ()
        (nbytes,) = self.unpack("!Q")
        raw = self.take(nbytes)
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if shape else dtype.itemsize
        if nbytes != expected:
            raise ProtocolError(
                f"array byte length {nbytes} does not match shape {shape} of {dtype}"
            )
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


# ----------------------------------------------------------------------
# Typed error codec
# ----------------------------------------------------------------------
_VT_FLOAT = 0
_VT_INT = 1
_VT_STR = 2
_VT_STR_LIST = 3

#: (code, class, payload attributes carried beside the message).  Decoding
#: rebuilds a bare instance of the same class and restores message + attrs,
#: so constructor side effects (message formatting) cannot drift the text.
_ERROR_SPECS: Tuple[Tuple[int, type, Tuple[str, ...]], ...] = (
    (1, RateLimitExceeded, ("tenant", "model_id", "retry_after")),
    (2, DeadlineExceeded, ("model_id", "tenant", "deadline", "late_seconds")),
    (3, ServerStopped, ()),
    (4, ServerOverloaded, ()),
    (5, Backpressure, ("limit", "in_flight")),
    (6, ReplicaUnavailable, ("replica_id",)),
    (7, NoHealthyReplica, ("model_id", "excluded")),
    (8, FailoverExhausted, ("model_id", "attempts", "tried")),
    (9, ValidationError, ()),
    (10, ObfuscationViolation, ()),
    (11, ProtocolError, ()),
    (12, ConnectionClosed, ()),
    (13, GatewayError, ()),
    (14, KeyError, ()),
    (15, ValueError, ()),
    (16, PrivacyBudgetExceeded, ("tenant", "model_id", "budget", "spent", "cost")),
)
_CODE_BY_CLASS = {cls: (code, attrs) for code, cls, attrs in _ERROR_SPECS}
_SPEC_BY_CODE = {code: (cls, attrs) for code, cls, attrs in _ERROR_SPECS}


def _error_message(error: BaseException) -> str:
    args = getattr(error, "args", ())
    if len(args) == 1 and isinstance(args[0], str):
        return args[0]
    return str(error)


def _pack_attr_value(value: object) -> bytes:
    if isinstance(value, bool):  # bools ride as ints (before the int check!)
        return struct.pack("!Bq", _VT_INT, int(value))
    if isinstance(value, (float, np.floating)):
        return struct.pack("!Bd", _VT_FLOAT, float(value))
    if isinstance(value, (int, np.integer)):
        return struct.pack("!Bq", _VT_INT, int(value))
    if isinstance(value, str):
        return struct.pack("!B", _VT_STR) + _pack_str(value)
    if isinstance(value, (list, tuple)):
        parts = [struct.pack("!BH", _VT_STR_LIST, len(value))]
        parts.extend(_pack_str(str(item)) for item in value)
        return b"".join(parts)
    raise ProtocolError(f"unsupported error attribute type {type(value).__name__}")


def _unpack_attr_value(cursor: _Cursor) -> object:
    (vtype,) = cursor.unpack("!B")
    if vtype == _VT_FLOAT:
        return cursor.unpack("!d")[0]
    if vtype == _VT_INT:
        return cursor.unpack("!q")[0]
    if vtype == _VT_STR:
        return cursor.str_()
    if vtype == _VT_STR_LIST:
        (count,) = cursor.unpack("!H")
        return [cursor.str_() for _ in range(count)]
    raise ProtocolError(f"unknown error attribute value type {vtype}")


def encode_error(error: BaseException) -> bytes:
    """Serialize ``error`` into the typed wire form (code + message + attrs).

    Never raises: an error frame is the *failure path's* payload, so an
    unencodable attribute (an exotic object smuggled into a known exception
    type) degrades the frame to the generic form rather than killing the
    reply that carries it.
    """
    code_attrs = _CODE_BY_CLASS.get(type(error))
    if code_attrs is not None:
        code, attr_names = code_attrs
        attrs = [
            (name, getattr(error, name))
            for name in attr_names
            if getattr(error, name, None) is not None
        ]
        try:
            packed_attrs = [_pack_str(name) + _pack_attr_value(value) for name, value in attrs]
            return b"".join(
                [
                    struct.pack("!B", code),
                    _pack_str(_error_message(error)),
                    struct.pack("!B", len(packed_attrs)),
                    *packed_attrs,
                ]
            )
        except (ProtocolError, struct.error):
            pass  # unencodable/out-of-range attribute: fall back to generic
    generic = f"{type(error).__name__}: {error}"
    return struct.pack("!B", 0) + _pack_str(generic) + struct.pack("!B", 0)


#: Documented attributes the constructors always set but the wire does not
#: carry (e.g. a nested exception object): restored as None on decode so
#: client code inspecting them never hits AttributeError.
_DECODE_DEFAULTS: Dict[type, Tuple[str, ...]] = {FailoverExhausted: ("last_error",)}


def decode_error(cursor: _Cursor) -> BaseException:
    """Rebuild the typed exception an :data:`FRAME_ERROR` body carries."""
    (code,) = cursor.unpack("!B")
    message = cursor.str_()
    (attr_count,) = cursor.unpack("!B")
    attrs = {cursor.str_(): _unpack_attr_value(cursor) for _ in range(attr_count)}
    spec = _SPEC_BY_CODE.get(code)
    if spec is None:
        return GatewayError(message)
    cls, attr_names = spec
    error = cls.__new__(cls)
    Exception.__init__(error, message)
    for name in attr_names:
        setattr(error, name, attrs.get(name))
    for name in _DECODE_DEFAULTS.get(cls, ()):
        setattr(error, name, None)
    return error


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
def encode_frame(frame: Frame) -> bytes:
    """Serialize one frame, length prefix included (ready for a socket write).

    Unencodable field values (a negative window, an out-of-int64 priority, a
    dimension beyond ``!I``) surface as :class:`ProtocolError` — never a raw
    ``struct.error`` that would bypass the typed-failure handling on either
    end of the wire.  Assembled as a part list with a single final join, so
    a large payload (a REGISTER carrying a multi-hundred-MB bundle, a big
    RESPONSE tensor) is copied once — not re-copied per concatenation step.
    """
    try:
        return _encode_frame(frame)
    except ProtocolError:
        raise
    except (struct.error, OverflowError) as error:
        raise ProtocolError(f"unencodable frame field: {error}") from None


def _encode_frame(frame: Frame) -> bytes:
    if isinstance(frame, Hello):
        frame_type = FRAME_HELLO
        parts = [
            _pack_str(frame.tenant),
            _pack_opt_float(frame.deadline),
            struct.pack("!I", frame.window),
        ]
    elif isinstance(frame, HelloAck):
        frame_type = FRAME_HELLO_ACK
        parts = [struct.pack("!I", frame.window), _pack_str(frame.server_id)]
    elif isinstance(frame, (Request, BatchRequest)):
        if isinstance(frame, Request):
            frame_type, payload = FRAME_REQUEST, frame.sample
        else:
            frame_type, payload = FRAME_BATCH, frame.samples
            if np.ndim(payload) < 1 or len(payload) == 0:
                raise ProtocolError("a BATCH frame must carry at least one row")
        priority = frame.priority
        parts = [
            struct.pack("!Q", frame.request_id),
            _pack_str(frame.model_id),
            _pack_opt_float(frame.deadline),
            struct.pack("!Bq", priority is not None, 0 if priority is None else priority),
            _pack_array(payload),
        ]
        if frame.trace is not None:
            # Optional suffix — only traced requests pay for it, and absent
            # bytes decode as trace=None, so untraced peers stay compatible.
            # The marker byte makes the suffix self-identifying: trailing
            # bytes that are not exactly a trace block stay a ProtocolError.
            parts.extend(
                (
                    struct.pack("!B", TRACE_MARKER),
                    _pack_str(frame.trace.trace_id),
                    _pack_str(frame.trace.span_id),
                    struct.pack("!B", bool(frame.trace.sampled)),
                )
            )
    elif isinstance(frame, BatchReply):
        frame_type = FRAME_BATCH_REPLY
        _check_batch_rows(frame.rows, frame.outputs, sorted(frame.errors))
        parts = [
            struct.pack("!QI", frame.request_id, frame.rows),
            _pack_array(frame.outputs),
            struct.pack("!I", len(frame.errors)),
        ]
        for index in sorted(frame.errors):
            parts.append(struct.pack("!I", index))
            parts.append(encode_error(frame.errors[index]))
    elif isinstance(frame, Response):
        frame_type = FRAME_RESPONSE
        parts = [struct.pack("!Q", frame.request_id), _pack_array(frame.output)]
    elif isinstance(frame, ErrorFrame):
        frame_type = FRAME_ERROR
        parts = [struct.pack("!Q", frame.request_id), encode_error(frame.error)]
    elif isinstance(frame, Goodbye):
        frame_type = FRAME_GOODBYE
        parts = [_pack_str(frame.reason)]
    elif isinstance(frame, Register):
        frame_type = FRAME_REGISTER
        parts = [
            struct.pack("!Q", frame.request_id),
            _pack_str(frame.model_id),
            struct.pack("!B", bool(frame.replace)),
            _pack_str(json.dumps(frame.metadata, default=str)),
            _pack_str(json.dumps(frame.architecture, default=str)),
            struct.pack("!Q", len(frame.payload)),
            frame.payload,
        ]
    elif isinstance(frame, Ack):
        frame_type = FRAME_ACK
        parts = [struct.pack("!Q", frame.request_id), _pack_str(frame.message)]
    elif isinstance(frame, Observe):
        frame_type = FRAME_OBSERVE
        parts = [
            struct.pack("!Q", frame.request_id),
            _pack_str(frame.what),
            struct.pack("!I", frame.max_spans),
        ]
    elif isinstance(frame, ObserveReply):
        frame_type = FRAME_OBSERVE_REPLY
        parts = [
            struct.pack("!Q", frame.request_id),
            _pack_str(json.dumps(frame.payload, default=str)),
        ]
    elif isinstance(frame, Subscribe):
        frame_type = FRAME_SUBSCRIBE
        parts = [struct.pack("!Q", frame.request_id), struct.pack("!H", len(frame.topics))]
        parts.extend(_pack_str(topic) for topic in frame.topics)
    elif isinstance(frame, Event):
        frame_type = FRAME_EVENT
        parts = [
            _pack_str(frame.topic),
            _pack_str(frame.name),
            _pack_str(json.dumps(frame.payload, default=str)),
            struct.pack("!Q", frame.seq),
            struct.pack("!d", frame.timestamp),
        ]
    else:
        raise ProtocolError(f"cannot encode {type(frame).__name__} as a wire frame")
    length = sum(map(len, parts)) + _HEADER.size
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {length} bytes exceeds MAX_FRAME_BYTES")
    return b"".join((_LENGTH.pack(length), _HEADER.pack(WIRE_VERSION, frame_type), *parts))


def decode_payload(payload: bytes) -> Frame:
    """Decode one frame payload (the bytes after the length prefix).

    Malformed payloads always surface as :class:`ProtocolError`, whatever
    the underlying parser objected to (truncation, bad UTF-8, invalid JSON
    in a REGISTER frame, a degenerate dtype) — the contract the server's
    connection handler and the client's reader loop rely on.
    """
    try:
        return _decode_payload(payload)
    except ProtocolError:
        raise
    except Exception as error:  # noqa: BLE001 - normalized at the boundary
        raise ProtocolError(f"malformed frame payload: {error!r}") from None


def _check_batch_rows(rows: int, outputs: np.ndarray, error_rows: List[int]) -> None:
    """A batch reply must answer each of its (one or more) rows exactly once."""
    if rows < 1:
        raise ProtocolError("a BATCH_REPLY must answer at least one row")
    if np.ndim(outputs) < 1:
        raise ProtocolError("BATCH_REPLY outputs must be stacked on a row axis")
    if len(outputs) + len(error_rows) != rows:
        raise ProtocolError(
            f"BATCH_REPLY row count mismatch: {len(outputs)} outputs + "
            f"{len(error_rows)} errors != {rows} rows"
        )
    if error_rows and (error_rows[0] < 0 or error_rows[-1] >= rows):
        raise ProtocolError(f"BATCH_REPLY error row out of range for {rows} rows")


def _decode_trace_suffix(cursor: _Cursor) -> Optional[TraceContext]:
    """Parse the optional trace suffix; reset the cursor on anything else.

    The suffix must be exactly ``TRACE_MARKER`` + two non-empty
    length-prefixed ids + a sampled byte, and must end the payload.  When the
    remaining bytes are anything else the cursor is rewound so the strict
    trailing-bytes check in :func:`_decode_payload` rejects the frame.
    """
    start = cursor.offset
    try:
        (marker,) = cursor.unpack("!B")
        if marker != TRACE_MARKER:
            raise ProtocolError("trace suffix marker mismatch")
        trace_id = cursor.str_()
        span_id = cursor.str_()
        (sampled,) = cursor.unpack("!B")
        if not trace_id or not span_id or cursor.offset != len(cursor.data):
            raise ProtocolError("malformed trace suffix")
    except ProtocolError:
        cursor.offset = start
        return None
    return TraceContext(trace_id=trace_id, span_id=span_id, sampled=bool(sampled))


def _decode_payload(payload: bytes) -> Frame:
    cursor = _Cursor(payload)
    frame = _decode_body(cursor)
    if cursor.offset != len(cursor.data):
        # Strict framing: bytes the body parser did not consume mean the
        # declared length and the content disagree — a corrupt or hostile
        # frame, not padding to ignore.
        raise ProtocolError(
            f"frame carries {len(cursor.data) - cursor.offset} trailing bytes after its body"
        )
    return frame


def _decode_body(cursor: _Cursor) -> Frame:
    version, frame_type = cursor.unpack("!BB")
    if version != WIRE_VERSION:
        raise ProtocolError(
            f"unsupported wire version {version} (this endpoint speaks {WIRE_VERSION})"
        )
    if frame_type == FRAME_HELLO:
        return Hello(
            tenant=cursor.str_(), deadline=cursor.opt_float(), window=cursor.unpack("!I")[0]
        )
    if frame_type == FRAME_HELLO_ACK:
        return HelloAck(window=cursor.unpack("!I")[0], server_id=cursor.str_())
    if frame_type in (FRAME_REQUEST, FRAME_BATCH):
        (request_id,) = cursor.unpack("!Q")
        model_id = cursor.str_()
        deadline = cursor.opt_float()
        has_priority, priority = cursor.unpack("!Bq")
        payload = cursor.array()
        trace = None
        if cursor.offset < len(cursor.data):
            # Bytes past the sample are the optional trace suffix; a peer
            # without tracing never sends them, so absence means trace=None.
            trace = _decode_trace_suffix(cursor)
        terms = dict(
            request_id=request_id,
            model_id=model_id,
            deadline=deadline,
            priority=priority if has_priority else None,
            trace=trace,
        )
        if frame_type == FRAME_REQUEST:
            return Request(sample=payload, **terms)
        if payload.ndim < 1 or len(payload) == 0:
            raise ProtocolError("a BATCH frame must carry at least one row")
        return BatchRequest(samples=payload, **terms)
    if frame_type == FRAME_BATCH_REPLY:
        request_id, rows = cursor.unpack("!QI")
        outputs = cursor.array()
        (count,) = cursor.unpack("!I")
        errors: Dict[int, BaseException] = {}
        last = -1
        for _ in range(count):
            (index,) = cursor.unpack("!I")
            if index <= last:
                raise ProtocolError("BATCH_REPLY error rows must be strictly increasing")
            errors[index] = decode_error(cursor)
            last = index
        _check_batch_rows(rows, outputs, list(errors))
        return BatchReply(request_id=request_id, rows=rows, outputs=outputs, errors=errors)
    if frame_type == FRAME_RESPONSE:
        (request_id,) = cursor.unpack("!Q")
        return Response(request_id=request_id, output=cursor.array())
    if frame_type == FRAME_ERROR:
        (request_id,) = cursor.unpack("!Q")
        return ErrorFrame(request_id=request_id, error=decode_error(cursor))
    if frame_type == FRAME_GOODBYE:
        return Goodbye(reason=cursor.str_())
    if frame_type == FRAME_REGISTER:
        (request_id,) = cursor.unpack("!Q")
        model_id = cursor.str_()
        (replace,) = cursor.unpack("!B")
        metadata = json.loads(cursor.str_())
        architecture = json.loads(cursor.str_())
        (nbytes,) = cursor.unpack("!Q")
        return Register(
            request_id=request_id,
            model_id=model_id,
            payload=cursor.take(nbytes),
            architecture=architecture,
            metadata=metadata,
            replace=bool(replace),
        )
    if frame_type == FRAME_ACK:
        (request_id,) = cursor.unpack("!Q")
        return Ack(request_id=request_id, message=cursor.str_())
    if frame_type == FRAME_OBSERVE:
        (request_id,) = cursor.unpack("!Q")
        what = cursor.str_()
        return Observe(request_id=request_id, what=what, max_spans=cursor.unpack("!I")[0])
    if frame_type == FRAME_OBSERVE_REPLY:
        (request_id,) = cursor.unpack("!Q")
        return ObserveReply(request_id=request_id, payload=json.loads(cursor.str_()))
    if frame_type == FRAME_SUBSCRIBE:
        (request_id,) = cursor.unpack("!Q")
        (count,) = cursor.unpack("!H")
        return Subscribe(request_id=request_id, topics=[cursor.str_() for _ in range(count)])
    if frame_type == FRAME_EVENT:
        topic = cursor.str_()
        name = cursor.str_()
        payload = json.loads(cursor.str_())
        (seq,) = cursor.unpack("!Q")
        (timestamp,) = cursor.unpack("!d")
        return Event(topic=topic, name=name, payload=payload, seq=seq, timestamp=timestamp)
    raise ProtocolError(f"unknown frame type 0x{frame_type:02x}")


async def read_frame(reader: asyncio.StreamReader) -> Optional[Frame]:
    """Read one frame from ``reader``; ``None`` on clean EOF between frames."""
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean EOF on a frame boundary
        raise ProtocolError("connection closed mid-frame (truncated length prefix)") from None
    (length,) = _LENGTH.unpack(prefix)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(f"declared frame length {length} exceeds MAX_FRAME_BYTES")
    if length < _HEADER.size:
        raise ProtocolError(f"declared frame length {length} is shorter than a frame header")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-frame (truncated payload)") from None
    return decode_payload(payload)


__all__ = [
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "Ack",
    "BatchReply",
    "BatchRequest",
    "ErrorFrame",
    "Event",
    "Frame",
    "Goodbye",
    "Hello",
    "HelloAck",
    "Observe",
    "ObserveReply",
    "Register",
    "Request",
    "Response",
    "Subscribe",
    "TraceContext",
    "decode_error",
    "decode_payload",
    "encode_error",
    "encode_frame",
    "read_frame",
]

# The full set of exception classes with dedicated wire codes, exposed so the
# round-trip test suite can assert codec completeness.
_ALL_WIRE_ERRORS: List[type] = [cls for _, cls, _ in _ERROR_SPECS]
