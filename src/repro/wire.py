"""One frame codec for the serving wire, the replication wire and the WAL.

A frame is ``u32 payload length | u32 CRC-32 of the payload | payload``.
A WAL frame's payload is one mutation record (:mod:`repro.storage.wal`),
which replication ships byte for byte.  A *message* frame — the unit of
the serving and replication protocols — carries a JSON header plus blobs::

    u32 header length | JSON header | u32 blob count | (u32 length | blob)*

Each protocol names itself with one :class:`Codec`, so nothing here
branches on its caller.  The readers return ``None`` on a clean EOF
between frames and raise the codec's error on a truncated frame, a
length above the frame ceiling or a checksum mismatch; the writers refuse
to frame such a length at all (:class:`FrameTooLarge`).  Client sockets
live in :class:`Connection` and the blocking readers (lint rule RL007).
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

#: Frame head: payload length, CRC-32 of the payload.
FRAME_HEAD = struct.Struct("<II")
_U32 = struct.Struct("<I")

#: Defensive ceiling against reading a garbage length prefix as 4 GiB.
#: Senders refuse to frame a larger payload (:class:`FrameTooLarge`).
_MAX_FRAME_BYTES = 1 << 30


class FrameTooLarge(ValueError):
    """A payload above the frame ceiling, refused before any byte is sent."""


@dataclass(frozen=True)
class Codec:
    """One protocol's names for its frames and the error its peers raise."""

    protocol: str  # names transport errors: "serving"
    label: str  # names frame errors: "serving frame"
    error: Type[Exception]


def seal(payload: bytes) -> bytes:
    """Frame *payload*: u32 length, u32 CRC-32, payload.

    Raises :class:`FrameTooLarge` for a payload every reader would refuse.
    """
    if len(payload) > _MAX_FRAME_BYTES:
        raise FrameTooLarge(
            f"payload of {len(payload)} bytes exceeds the {_MAX_FRAME_BYTES}-byte frame limit"
        )
    return FRAME_HEAD.pack(len(payload), zlib.crc32(payload)) + payload


def unseal(frame: bytes, codec: Codec) -> bytes:
    """The checked payload of one complete in-memory frame."""
    length, checksum = _head(frame[: FRAME_HEAD.size], codec)
    payload = frame[FRAME_HEAD.size :]
    if len(payload) > length:
        raise codec.error(
            f"{codec.label} length field says {length} payload bytes, got {len(payload)}"
        )
    return _verified(payload, length, checksum, codec)


def _head(head: bytes, codec: Codec) -> Tuple[int, int]:
    if len(head) != FRAME_HEAD.size:
        raise codec.error(f"truncated {codec.label} head")
    length, checksum = FRAME_HEAD.unpack(head)
    if length > _MAX_FRAME_BYTES:
        raise codec.error(f"{codec.label} of {length} bytes exceeds the frame limit")
    return length, checksum


def _verified(payload: Optional[bytes], length: int, checksum: int, codec: Codec) -> bytes:
    if payload is None or len(payload) != length:
        raise codec.error(f"truncated {codec.label} payload")
    if zlib.crc32(payload) != checksum:
        raise codec.error(f"{codec.label} checksum mismatch")
    return payload


def encode_message(header: Dict[str, Any], blobs: Sequence[bytes] = ()) -> bytes:
    """Encode one message frame: a JSON header plus length-prefixed blobs.

    Raises :class:`FrameTooLarge` when the message exceeds the frame ceiling.
    """
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [_U32.pack(len(head)), head, _U32.pack(len(blobs))]
    for blob in blobs:
        parts.append(_U32.pack(len(blob)))
        parts.append(bytes(blob))
    return seal(b"".join(parts))


def decode_body(payload: bytes, codec: Codec) -> Tuple[Dict[str, Any], List[bytes]]:
    """Decode one checked message payload (everything after the frame head)."""
    try:
        (head_len,) = _U32.unpack_from(payload, 0)
        offset = _U32.size
        header = json.loads(payload[offset : offset + head_len].decode("utf-8"))
        offset += head_len
        (count,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        blobs: List[bytes] = []
        for _ in range(count):
            (blob_len,) = _U32.unpack_from(payload, offset)
            offset += _U32.size
            blob = payload[offset : offset + blob_len]
            if len(blob) != blob_len:
                raise codec.error(f"truncated {codec.label} blob")
            blobs.append(blob)
            offset += blob_len
    except (struct.error, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise codec.error(f"malformed {codec.label}: {error}") from error
    if not isinstance(header, dict):
        raise codec.error(f"malformed {codec.label}: header is not an object")
    return dict(header), blobs


def header_int(header: Dict[str, Any], key: str, error: Type[Exception]) -> int:
    """The integer field *key* of a message header; raises *error* otherwise."""
    value = header.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise error(f"message header missing integer field {key!r}")
    return int(value)


def recv_exact(connection: socket.socket, count: int) -> Optional[bytes]:
    """Read *count* bytes; ``None`` on EOF before any, fewer on EOF after some."""
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = connection.recv(min(remaining, 1 << 16))
        if not chunk:
            return b"".join(chunks) if chunks else None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(connection: socket.socket, codec: Codec) -> Optional[bytes]:
    """Read one frame's checked payload; ``None`` on a clean EOF between frames."""
    head = recv_exact(connection, FRAME_HEAD.size)
    if head is None:
        return None
    length, checksum = _head(head, codec)
    return _verified(recv_exact(connection, length), length, checksum, codec)


async def read_frame(reader: asyncio.StreamReader, codec: Codec) -> Optional[bytes]:
    """:func:`recv_frame` over an asyncio stream."""
    try:
        head = await reader.readexactly(FRAME_HEAD.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        head = error.partial
    length, checksum = _head(head, codec)
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        payload = error.partial
    return _verified(payload, length, checksum, codec)


class Connection:
    """A lazily connected, blocking request/reply client of one protocol.

    Subclasses set :attr:`codec`.  The socket opens on the first exchange
    and is reused; a transport failure or a truncated or corrupt reply
    leaves the stream out of step, so it is dropped (the next exchange
    reconnects) and surfaces as the codec's error.
    """

    codec: Codec

    def __init__(self, address: Tuple[str, int], *, timeout: float = 30.0) -> None:
        self._address = (str(address[0]), int(address[1]))
        self._timeout = float(timeout)
        self._connection: Optional[socket.socket] = None

    def close(self) -> None:
        """Drop the cached connection (a later exchange reconnects)."""
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None

    def _exchange(self, frame: bytes, before_send: Callable[[], None] = lambda: None) -> bytes:
        """Send one frame (*before_send* runs just before); the reply's payload."""
        codec = self.codec
        try:
            if self._connection is None:
                self._connection = socket.create_connection(self._address, timeout=self._timeout)
            before_send()
            self._connection.sendall(frame)
            payload = recv_frame(self._connection, codec)
        except OSError as error:
            self.close()
            raise codec.error(f"{codec.protocol} transport failed: {error}") from error
        except codec.error:
            self.close()
            raise
        if payload is None:
            self.close()
            raise codec.error(f"{codec.protocol} peer closed the connection mid-request")
        return payload
