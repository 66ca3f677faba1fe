"""The shared frame codec (`repro.wire`) under every cut of a frame.

Serving and replication read their frames through the same two readers —
a blocking socket reader and an asyncio ``StreamReader`` reader — and the
same blocking client connection.  A peer may vanish after any byte of a
frame; whichever byte that is, the reader must report the protocol's own
error (never a raw ``struct.error``, ``IncompleteReadError`` or
``ConnectionResetError``), and a peer that closes between frames is a
clean ``None``.
"""

import asyncio
import socket
import threading

import pytest

from repro import wire
from repro.api.replication import _REPLICATION
from repro.api.server import _SERVING

CODECS = [
    pytest.param(_SERVING, id="serving"),
    pytest.param(_REPLICATION, id="replication"),
]

FRAME = wire.encode_message({"kind": "frames", "op": "query", "shard": 1}, [b"abc", b""])


def blocking_read(data, codec, *, eof=True):
    left, right = socket.socketpair()
    with left, right:
        right.settimeout(5.0)
        left.sendall(data)
        if eof:
            left.shutdown(socket.SHUT_WR)
        return wire.recv_frame(right, codec)


def async_read(data, codec, *, eof=True):
    async def read():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        if eof:
            reader.feed_eof()
        return await asyncio.wait_for(wire.read_frame(reader, codec), timeout=5.0)

    return asyncio.run(read())


READERS = [
    pytest.param(blocking_read, id="blocking"),
    pytest.param(async_read, id="asyncio"),
]


@pytest.mark.parametrize("read", READERS)
@pytest.mark.parametrize("codec", CODECS)
class TestReaders:
    def test_every_cut_raises_the_protocol_error(self, read, codec):
        assert read(b"", codec) is None
        for cut in range(1, len(FRAME)):
            with pytest.raises(codec.error, match="truncated"):
                read(FRAME[:cut], codec)

    def test_whole_frame_round_trips(self, read, codec):
        header, blobs = wire.decode_body(read(FRAME, codec), codec)
        assert header == {"kind": "frames", "op": "query", "shard": 1}
        assert blobs == [b"abc", b""]

    def test_every_flipped_byte_raises_the_protocol_error(self, read, codec):
        for position in range(len(FRAME)):
            corrupt = bytearray(FRAME)
            corrupt[position] ^= 0xFF
            with pytest.raises(codec.error):
                read(bytes(corrupt), codec)

    def test_oversize_length_is_refused_before_the_payload(self, read, codec):
        # No EOF and no payload: a reader that waited for the declared
        # bytes would time out instead of refusing the head.
        head = wire.FRAME_HEAD.pack(wire._MAX_FRAME_BYTES + 1, 0)
        with pytest.raises(codec.error, match="exceeds the frame limit"):
            read(head, codec, eof=False)


class TestSenderCeiling:
    def test_oversize_payload_is_refused_before_framing(self, monkeypatch):
        monkeypatch.setattr(wire, "_MAX_FRAME_BYTES", 64)
        assert wire.unseal(wire.seal(b"x" * 64), _SERVING) == b"x" * 64
        with pytest.raises(wire.FrameTooLarge, match="exceeds the 64-byte frame limit"):
            wire.seal(b"x" * 65)
        with pytest.raises(wire.FrameTooLarge):
            wire.encode_message({"kind": "frames"}, [b"y" * 64])


class TestUnseal:
    def test_round_trip_and_strict_length(self):
        assert wire.unseal(wire.seal(b"payload"), _SERVING) == b"payload"
        with pytest.raises(_SERVING.error, match="length field says"):
            wire.unseal(wire.seal(b"payload") + b"x", _SERVING)
        for cut in range(len(FRAME)):
            with pytest.raises(_SERVING.error, match="truncated"):
                wire.unseal(FRAME[:cut], _SERVING)


@pytest.mark.parametrize("codec", CODECS)
def test_client_drops_the_connection_on_every_cut_reply(codec):
    """Each reply cut short surfaces as the protocol error and drops the
    cached socket, so the next exchange reconnects."""
    cuts = list(range(len(FRAME)))
    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(10.0)

        def reply_cut():
            for cut in cuts:
                connection, _peer = listener.accept()
                with connection:
                    wire.recv_frame(connection, codec)
                    connection.sendall(FRAME[:cut])

        thread = threading.Thread(target=reply_cut, daemon=True)
        thread.start()
        client = wire.Connection(listener.getsockname(), timeout=10.0)
        client.codec = codec
        for cut in cuts:
            match = "mid-request" if cut == 0 else "truncated"
            with pytest.raises(codec.error, match=match):
                client._exchange(FRAME)
            assert client._connection is None
        thread.join(timeout=10.0)
        assert not thread.is_alive()
