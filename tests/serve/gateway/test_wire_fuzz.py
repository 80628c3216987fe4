"""Property-based fuzz of the wire codec and the live gateway socket.

The contract under fuzz: malformed bytes — truncated frames, mutated
headers, random garbage, hostile length prefixes — always surface as typed
``ProtocolError``/``ConnectionClosed`` on whichever side is parsing, and
never hang a reader.  ``decode_payload`` is fuzzed directly, ``read_frame``
through an ``asyncio.StreamReader``, and the full server loop over a real
loopback socket.
"""

from __future__ import annotations

import asyncio
import socket
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.serve.cluster.errors import DeadlineExceeded
from repro.serve.gateway.errors import GatewayError, ProtocolError
from repro.serve.gateway.server import GatewayServer
from repro.serve.gateway.wire import (
    MAX_FRAME_BYTES,
    Ack,
    BatchReply,
    BatchRequest,
    ErrorFrame,
    Frame,
    Goodbye,
    Hello,
    HelloAck,
    Observe,
    ObserveReply,
    Request,
    Response,
    decode_payload,
    encode_error,
    encode_frame,
    read_frame,
)

from .conftest import EchoBackend


def sample_frames() -> list:
    array = np.arange(6, dtype=np.float32).reshape(2, 3)
    return [
        Hello(tenant="fuzz", deadline=1.5, window=4),
        HelloAck(window=8, server_id="srv"),
        Request(request_id=7, model_id="m", sample=array, deadline=None, priority=2),
        Response(request_id=7, output=array),
        ErrorFrame(request_id=3, error=ProtocolError("boom")),
        ErrorFrame(request_id=0, error=GatewayError("generic")),
        Goodbye(reason="done"),
        Ack(request_id=9, message="ok"),
        Observe(request_id=5, what="all", max_spans=32),
        ObserveReply(request_id=5, payload={"server_id": "srv", "spans": []}),
        BatchRequest(request_id=11, model_id="m", samples=array, deadline=0.5, priority=1),
        BatchReply(request_id=11, rows=2, outputs=array),
        BatchReply(
            request_id=12,
            rows=4,
            outputs=array,
            errors={
                1: ProtocolError("bad row"),
                3: DeadlineExceeded("m", "fuzz", 1.0, 2.0),
            },
        ),
    ]
    # A *traced* Request (or BatchRequest) is deliberately absent: the trace
    # suffix is optional by design, so truncating exactly at the suffix
    # boundary produces a valid untraced frame — which would falsify the
    # every-truncation-fails pin.


FRAME_CORPUS = [encode_frame(frame) for frame in sample_frames()]


class TestDecodePayloadFuzz:
    @given(payload=st.binary(max_size=512))
    @settings(max_examples=300)
    def test_garbage_decodes_typed_or_valid(self, payload: bytes):
        try:
            frame = decode_payload(payload)
        except ProtocolError:
            pass  # the typed contract
        else:
            assert isinstance(frame, Frame)

    @given(
        index=st.integers(min_value=0, max_value=len(FRAME_CORPUS) - 1),
        data=st.data(),
    )
    @settings(max_examples=200)
    def test_any_truncation_is_a_protocol_error(self, index: int, data):
        payload = FRAME_CORPUS[index][4:]  # strip the length prefix
        cut = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        with pytest.raises(ProtocolError):
            decode_payload(payload[:cut])

    @given(
        index=st.integers(min_value=0, max_value=len(FRAME_CORPUS) - 1),
        suffix=st.binary(min_size=1, max_size=32),
    )
    @settings(max_examples=100)
    def test_trailing_bytes_are_a_protocol_error(self, index: int, suffix: bytes):
        payload = FRAME_CORPUS[index][4:]
        with pytest.raises(ProtocolError, match="trailing bytes"):
            decode_payload(payload + suffix)

    @given(
        index=st.integers(min_value=0, max_value=len(FRAME_CORPUS) - 1),
        data=st.data(),
    )
    @settings(max_examples=300)
    def test_single_byte_mutations_never_escape_typed(self, index: int, data):
        payload = bytearray(FRAME_CORPUS[index][4:])
        position = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        payload[position] ^= flip
        try:
            frame = decode_payload(bytes(payload))
        except ProtocolError:
            pass  # typed rejection
        else:
            # A mutation in free-form content (a tenant string, array bytes)
            # can still parse; it must still be a well-formed frame object.
            assert isinstance(frame, Frame)


class TestBatchFrameGuards:
    def reply_payload(self, rows: int, outputs: np.ndarray, errors: dict) -> bytes:
        """A BATCH_REPLY body with arbitrary counts (the encoder refuses bad ones)."""
        reply = BatchReply(request_id=1, rows=1, outputs=np.zeros((1, 3), np.float32))
        good = encode_frame(reply)[4:]
        head = good[: 2 + 8]  # version, type, request id
        body = encode_frame(Response(request_id=1, output=outputs))[4 + 2 + 8 :]
        parts = [head, struct.pack("!I", rows), body, struct.pack("!I", len(errors))]
        for index, error in errors.items():
            parts.append(struct.pack("!I", index) + encode_error(error))
        return b"".join(parts)

    @pytest.mark.parametrize(
        ("rows", "outputs", "errors"),
        [
            (3, 2, {}),  # too few answers
            (2, 2, {0: ProtocolError("x")}),  # too many answers
            (1, 0, {}),  # nothing answers the row
        ],
    )
    def test_row_count_mismatch_is_a_protocol_error(self, rows, outputs, errors):
        payload = self.reply_payload(rows, np.zeros((outputs, 3), np.float32), errors)
        with pytest.raises(ProtocolError, match="row count mismatch"):
            decode_payload(payload)

    def test_out_of_order_error_rows_are_a_protocol_error(self):
        errors = {2: ProtocolError("a"), 0: ProtocolError("b")}
        payload = self.reply_payload(3, np.zeros((1, 3), np.float32), errors)
        with pytest.raises(ProtocolError, match="strictly increasing"):
            decode_payload(payload)

    def test_out_of_range_error_row_is_a_protocol_error(self):
        payload = self.reply_payload(2, np.zeros((1, 3), np.float32), {5: ProtocolError("a")})
        with pytest.raises(ProtocolError, match="out of range"):
            decode_payload(payload)

    def test_zero_row_reply_is_a_protocol_error(self):
        payload = self.reply_payload(0, np.zeros((0, 3), np.float32), {})
        with pytest.raises(ProtocolError, match="at least one row"):
            decode_payload(payload)

    def test_zero_row_batch_is_a_protocol_error(self):
        full = BatchRequest(request_id=1, model_id="m", samples=np.zeros((1, 3), np.float32))
        empty = Request(request_id=1, model_id="m", sample=np.zeros((0, 3), np.float32))
        # The REQUEST body has the BATCH layout; only the type byte differs.
        payload = bytearray(encode_frame(empty)[4:])
        payload[1] = encode_frame(full)[5]
        with pytest.raises(ProtocolError, match="at least one row"):
            decode_payload(bytes(payload))
        with pytest.raises(ProtocolError, match="at least one row"):
            encode_frame(BatchRequest(request_id=1, model_id="m", samples=empty.sample))

    def test_outcomes_interleave_outputs_and_errors(self):
        error = ProtocolError("row 1")
        reply = BatchReply.from_outcomes(4, [np.ones(3), error, np.zeros(3)])
        decoded = decode_payload(encode_frame(reply)[4:])
        outcomes = decoded.outcomes()
        np.testing.assert_array_equal(outcomes[0], np.ones(3))
        assert isinstance(outcomes[1], ProtocolError) and str(outcomes[1]) == "row 1"
        np.testing.assert_array_equal(outcomes[2], np.zeros(3))


class TestReadFrameFuzz:
    def run_read(self, wire_bytes: bytes):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(wire_bytes)
            reader.feed_eof()
            frames = []
            while True:
                frame = await asyncio.wait_for(read_frame(reader), timeout=5)
                if frame is None:
                    return frames
                frames.append(frame)

        return asyncio.run(scenario())

    @given(wire_bytes=st.binary(max_size=256))
    @settings(max_examples=200)
    def test_garbage_streams_end_typed_or_clean(self, wire_bytes: bytes):
        try:
            frames = self.run_read(wire_bytes)
        except ProtocolError:
            return
        assert all(isinstance(frame, Frame) for frame in frames)

    @given(
        index=st.integers(min_value=0, max_value=len(FRAME_CORPUS) - 1),
        data=st.data(),
    )
    @settings(max_examples=100)
    def test_mid_frame_eof_is_a_protocol_error(self, index: int, data):
        frame_bytes = FRAME_CORPUS[index]
        cut = data.draw(st.integers(min_value=1, max_value=len(frame_bytes) - 1))
        with pytest.raises(ProtocolError, match="truncated|trailing|frame"):
            self.run_read(frame_bytes[:cut])

    def test_oversized_length_prefix_is_rejected_before_reading(self):
        declared = MAX_FRAME_BYTES + 1
        with pytest.raises(ProtocolError, match="exceeds MAX_FRAME_BYTES"):
            self.run_read(struct.pack("!I", declared))

    def test_undersized_length_prefix_is_rejected(self):
        with pytest.raises(ProtocolError, match="shorter than a frame header"):
            self.run_read(struct.pack("!I", 1) + b"x")


@pytest.fixture(scope="module")
def live_gateway():
    with GatewayServer(EchoBackend(), server_id="fuzz-target") as gateway:
        yield gateway


def poke_server(address, wire_bytes: bytes, timeout: float = 10.0) -> bytes:
    """Write raw bytes at the gateway, then read until the server closes.

    Returns whatever the server sent back.  Raises ``socket.timeout`` if the
    server neither answers nor closes — the hang the fuzz is hunting for.
    """
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall(wire_bytes)
        sock.shutdown(socket.SHUT_WR)
        received = bytearray()
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return bytes(received)
            received.extend(chunk)


class TestLiveSocketFuzz:
    @given(wire_bytes=st.binary(max_size=128))
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_garbage_never_hangs_the_server(self, live_gateway, wire_bytes: bytes):
        response = poke_server(live_gateway.address, wire_bytes)
        if response:
            # Whatever came back is well-formed wire traffic (usually an
            # id-0 ErrorFrame carrying the typed ProtocolError).
            (length,) = struct.unpack_from("!I", response)
            frame = decode_payload(response[4 : 4 + length])
            assert isinstance(frame, Frame)

    @given(
        index=st.integers(min_value=0, max_value=len(FRAME_CORPUS) - 1),
        data=st.data(),
    )
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_truncated_frames_never_hang_the_server(self, live_gateway, index, data):
        frame_bytes = FRAME_CORPUS[index]
        cut = data.draw(st.integers(min_value=1, max_value=len(frame_bytes) - 1))
        poke_server(live_gateway.address, frame_bytes[:cut])  # must not hang

    def test_oversized_declared_length_closes_typed(self, live_gateway):
        response = poke_server(live_gateway.address, struct.pack("!I", MAX_FRAME_BYTES + 1))
        if response:
            (length,) = struct.unpack_from("!I", response)
            frame = decode_payload(response[4 : 4 + length])
            assert isinstance(frame, ErrorFrame)
            assert isinstance(frame.error, ProtocolError)

    def test_server_survives_the_fuzz_barrage(self, live_gateway):
        """After everything above, the gateway still serves real traffic."""
        from repro.serve import RemoteClient

        with RemoteClient(*live_gateway.address) as client:
            sample = np.arange(4, dtype=np.float32)
            np.testing.assert_array_equal(client.predict("m", sample), sample * 2.0)
