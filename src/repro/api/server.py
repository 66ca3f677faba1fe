"""TCP serving front door: remote clients over one asyncio micro-batching loop.

:class:`~repro.api.serving.AsyncDatabase` (PR 8) turned many concurrent
in-process callers back into batches; this module puts a network in front
of it.  :class:`DatabaseServer` listens on a TCP socket and drives one
shared ``AsyncDatabase`` from however many client connections arrive —
requests from different connections coalesce into the same ticks, so the
serving semantics (arrival order, batched execution, group commit over a
durable backend) are exactly those of the in-process front-end.

Requests and replies are :mod:`repro.wire` message frames — a JSON header
plus binary blobs in one CRC-checked, size-capped frame.  Query boxes
travel either as one packed float64 ``(m, 2d)`` blob (the
:class:`RemoteDatabase` client does this — zero parsing on the hot path)
or as a JSON ``boxes`` list in the header (hand-rolled clients).  Result
identifier arrays travel as int64 blobs; execution counters as JSON.

Failure discipline:

* a request that fails (unknown op, bad relation, a crashed worker
  process behind a sharded backend) gets an error reply —
  ``{"ok": false, "error": <type>, "message": <str>}`` — and the
  connection keeps serving;
* a frame that cannot be decoded at all (truncated mid-frame, checksum
  mismatch, malformed header) closes **that connection only**; every
  other client keeps its connection and the server keeps listening.

The client's socket lives in :class:`repro.wire.Connection`, the base of
:class:`RemoteDatabase`; the server side speaks through asyncio streams.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import threading
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import wire
from repro.api.database import Database
from repro.api.protocol import QueryResult, SpatialBackend
from repro.api.serving import AsyncDatabase, ServingConfig, ServingStats
from repro.core.statistics import QueryExecution
from repro.engine.matcher import MatchRecord
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

__all__ = [
    "DatabaseServer",
    "RemoteDatabase",
    "ServerHandle",
    "ServingError",
    "decode_payload",
    "encode_frame",
    "serve",
    "serve_in_thread",
]

#: Bump on any change to the frame layout or the request/reply headers.
SERVING_FORMAT_VERSION = 1


class ServingError(RuntimeError):
    """A serving request failed (protocol violation, bad frame, lost peer)."""


_SERVING = wire.Codec("serving", "serving frame", ServingError)


# ----------------------------------------------------------------------
# Wire encoding (shared by server and client)
# ----------------------------------------------------------------------
def encode_frame(header: Dict[str, Any], blobs: Sequence[bytes] = ()) -> bytes:
    """Encode one serving frame (a :func:`repro.wire.encode_message` frame)."""
    return wire.encode_message(header, blobs)


def decode_payload(payload: bytes) -> Tuple[Dict[str, Any], List[bytes]]:
    """Decode one serving frame payload (everything after the length/CRC head)."""
    return wire.decode_body(payload, _SERVING)


def _pack_boxes(boxes: Sequence[HyperRectangle], dimensions: int) -> bytes:
    """Pack boxes as one contiguous float64 ``(m, 2d)`` row table."""
    table = np.empty((len(boxes), 2 * dimensions), dtype=np.float64)
    for row, box in zip(table, boxes):
        row[:dimensions] = box.lows
        row[dimensions:] = box.highs
    return table.tobytes()


def _unpack_boxes(blob: bytes, count: int, dimensions: int) -> List[HyperRectangle]:
    expected = count * 2 * dimensions * 8
    if count < 0 or dimensions < 1 or len(blob) != expected:
        raise ValueError(
            f"box blob of {len(blob)} bytes does not hold {count} boxes of "
            f"{dimensions} dimensions"
        )
    table = np.frombuffer(blob, dtype=np.float64).reshape(count, 2 * dimensions)
    return [HyperRectangle(row[:dimensions], row[dimensions:]) for row in table]


def _request_boxes(header: Dict[str, Any], blobs: Sequence[bytes]) -> List[HyperRectangle]:
    """The request's boxes: JSON ``boxes`` list, or one packed binary blob."""
    spec = header.get("boxes")
    if spec is not None:
        if not isinstance(spec, list):
            raise ValueError("'boxes' must be a list of [lows, highs] pairs")
        boxes = []
        for pair in spec:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise ValueError("each JSON box is a [lows, highs] pair")
            boxes.append(HyperRectangle(pair[0], pair[1]))
        return boxes
    count = header.get("count")
    dimensions = header.get("dimensions")
    if not isinstance(count, int) or not isinstance(dimensions, int):
        raise ValueError("a binary box payload needs integer 'count' and 'dimensions'")
    if not blobs:
        raise ValueError("binary box payload missing its blob")
    return _unpack_boxes(blobs[0], count, dimensions)


def _execution_dict(execution: QueryExecution) -> Dict[str, object]:
    return dict(dataclasses.asdict(execution))


def _execution_from_dict(value: object) -> QueryExecution:
    if not isinstance(value, dict):
        raise ServingError("malformed serving reply: execution is not an object")
    names = {entry.name for entry in dataclasses.fields(QueryExecution)}
    kwargs: Dict[str, Any] = {}
    for key, entry in value.items():
        if key not in names:
            continue
        kwargs[key] = float(entry) if key == "wall_time_ms" else int(entry)
    return QueryExecution(**kwargs)


def _ids_blob(ids: np.ndarray) -> bytes:
    return np.ascontiguousarray(ids, dtype=np.int64).tobytes()


def _ids_from_blob(blob: bytes) -> np.ndarray:
    if len(blob) % 8:
        raise ServingError("malformed serving reply: ragged identifier blob")
    return np.frombuffer(blob, dtype=np.int64).copy()


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class DatabaseServer:
    """Serves one :class:`AsyncDatabase` over a listening TCP socket.

    Every accepted connection is an independent asyncio task; their
    requests funnel into the shared micro-batching loop, so concurrent
    remote clients coalesce into ticks exactly like concurrent in-process
    tasks.  Use as an async context manager, or call :meth:`start` /
    :meth:`stop` (which also closes the wrapped front-end).
    """

    def __init__(
        self,
        served: "AsyncDatabase | Database | SpatialBackend",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if not isinstance(served, AsyncDatabase):
            served = AsyncDatabase(served)
        self._served = served
        self._host = str(host)
        self._port = int(port)
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def served(self) -> AsyncDatabase:
        """The shared micro-batching front-end behind the socket."""
        return self._served

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` to hand to :class:`RemoteDatabase`."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("the server is not listening; call start() first")
        name = self._server.sockets[0].getsockname()
        return str(name[0]), int(name[1])

    async def start(self) -> "DatabaseServer":
        """Start the front-end and begin listening; idempotent until stop."""
        await self._served.start()
        if self._server is None:
            self._server = await asyncio.start_server(
                self._handle_connection, self._host, self._port
            )
        return self

    async def stop(self) -> None:
        """Stop listening, drop client connections, close the front-end."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._served.close()

    async def __aenter__(self) -> "DatabaseServer":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.stop()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Per-connection error isolation: an undecodable frame (truncated
        # mid-frame, checksum mismatch, malformed header), a reply above
        # the frame ceiling or a vanished peer tears down this connection
        # only — the listener and every other connection keep serving.
        with contextlib.suppress(ServingError, OSError, wire.FrameTooLarge):
            while True:
                payload = await wire.read_frame(reader, _SERVING)
                if payload is None:
                    break
                header, blobs = decode_payload(payload)
                reply, reply_blobs = await self._handle_request(header, blobs)
                writer.write(encode_frame(reply, reply_blobs))
                await writer.drain()
        writer.close()
        with contextlib.suppress(OSError):
            await writer.wait_closed()

    async def _handle_request(
        self, header: Dict[str, Any], blobs: Sequence[bytes]
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        """One decoded request → one reply; failures become error replies."""
        try:
            return await self._dispatch(header, blobs)
        except Exception as error:
            return (
                {
                    "ok": False,
                    "error": type(error).__name__,
                    "message": str(error),
                },
                [],
            )

    async def _dispatch(
        self, header: Dict[str, Any], blobs: Sequence[bytes]
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        op = header.get("op")
        relation = header.get("relation")
        if op == "query":
            boxes = _request_boxes(header, blobs)
            if len(boxes) != 1:
                raise ValueError(f"op 'query' carries exactly one box, got {len(boxes)}")
            result = await self._served.query(boxes[0], relation)
            return (
                {"ok": True, "execution": _execution_dict(result.execution)},
                [_ids_blob(result.ids)],
            )
        if op == "query_batch":
            boxes = _request_boxes(header, blobs)
            results = await self._served.query_many(boxes, relation)
            return (
                {
                    "ok": True,
                    "executions": [_execution_dict(r.execution) for r in results],
                },
                [_ids_blob(r.ids) for r in results],
            )
        if op == "publish":
            boxes = _request_boxes(header, blobs)
            if len(boxes) != 1:
                raise ValueError(f"op 'publish' carries exactly one box, got {len(boxes)}")
            event_id = wire.header_int(header, "event_id", ValueError)
            record = await self._served.publish(event_id, boxes[0])
            return (
                {
                    "ok": True,
                    "event_id": record.event_id,
                    "latency_ms": record.latency_ms,
                    "cached": record.cached,
                },
                [_ids_blob(record.matches)],
            )
        if op == "subscribe":
            boxes = _request_boxes(header, blobs)
            if len(boxes) != 1:
                raise ValueError(f"op 'subscribe' carries exactly one box, got {len(boxes)}")
            subscription_id = wire.header_int(header, "subscription_id", ValueError)
            await self._served.subscribe(subscription_id, boxes[0])
            return ({"ok": True}, [])
        if op == "unsubscribe":
            subscription_id = wire.header_int(header, "subscription_id", ValueError)
            await self._served.unsubscribe(subscription_id)
            return ({"ok": True}, [])
        if op == "stats":
            return (
                {
                    "ok": True,
                    "serving": self._served.stats.as_dict(),
                    "dimensions": self._served.database.dimensions,
                    "format_version": SERVING_FORMAT_VERSION,
                },
                [],
            )
        raise ValueError(f"unknown serving op {op!r}")


# ----------------------------------------------------------------------
# Hosting helpers
# ----------------------------------------------------------------------
class ServerHandle:
    """A :class:`DatabaseServer` running on its own event-loop thread.

    Blocking callers (tests, benchmarks, the CLI) cannot sit inside the
    server's event loop; :func:`serve_in_thread` hosts the loop on a
    daemon thread and hands back this handle — read :attr:`address`, point
    :class:`RemoteDatabase` clients at it, and :meth:`stop` when done.
    """

    def __init__(self) -> None:
        self._ready = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._served: Optional[AsyncDatabase] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``; blocks until the listener is up."""
        self._ready.wait()
        if self._error is not None:
            raise RuntimeError("the server thread failed to start") from self._error
        assert self._address is not None
        return self._address

    @property
    def serving_stats(self) -> ServingStats:
        """The front-end's :class:`~repro.api.serving.ServingStats` so far."""
        self._ready.wait()
        if self._served is None:
            raise RuntimeError("the server thread failed to start") from self._error
        return self._served.stats

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join its thread; idempotent."""
        self._ready.wait()
        if self._loop is not None and self._shutdown is not None:
            shutdown = self._shutdown
            with contextlib.suppress(RuntimeError):  # loop already closed
                self._loop.call_soon_threadsafe(shutdown.set)
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _run(
        self,
        database: "Database | SpatialBackend",
        config: Optional[ServingConfig],
        host: str,
        port: int,
    ) -> None:
        try:
            asyncio.run(self._main(database, config, host, port))
        except BaseException as error:  # noqa: B036 - surfaced via address/stop
            self._error = error
            self._ready.set()

    async def _main(
        self,
        database: "Database | SpatialBackend",
        config: Optional[ServingConfig],
        host: str,
        port: int,
    ) -> None:
        served = AsyncDatabase(database, config)
        server = DatabaseServer(served, host, port)
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._address = server.address
        self._served = served
        self._ready.set()
        try:
            await self._shutdown.wait()
        finally:
            await server.stop()


def serve_in_thread(
    database: "Database | SpatialBackend",
    *,
    config: Optional[ServingConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServerHandle:
    """Start a :class:`DatabaseServer` over *database* on a daemon thread."""
    handle = ServerHandle()
    thread = threading.Thread(
        target=handle._run,
        args=(database, config, host, port),
        name="repro-database-server",
        daemon=True,
    )
    handle._thread = thread
    thread.start()
    return handle


def serve(
    database: "Database | SpatialBackend",
    *,
    config: Optional[ServingConfig] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    on_ready: Optional[Any] = None,
) -> None:
    """Serve *database* over TCP until interrupted (the CLI entry point).

    Blocks in ``asyncio.run``; *on_ready* (if given) is called with the
    bound ``(host, port)`` once the listener is up.  ``KeyboardInterrupt``
    shuts the server down cleanly — workers joined, WALs closed.
    """

    async def main() -> None:
        server = DatabaseServer(AsyncDatabase(database, config), host, port)
        await server.start()
        if on_ready is not None:
            on_ready(server.address)
        try:
            await asyncio.get_running_loop().create_future()
        finally:
            await server.stop()

    with contextlib.suppress(KeyboardInterrupt):
        asyncio.run(main())


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class RemoteDatabase(wire.Connection):
    """Blocking TCP client of a :class:`DatabaseServer`.

    Mirrors the request surface of :class:`AsyncDatabase` — ``query``,
    ``query_batch``, ``publish``, ``subscribe``, ``unsubscribe``,
    ``stats`` — rebuilding :class:`QueryResult` /
    :class:`MatchRecord` values from the wire, so remote results compare
    byte-identical to local ones.  The connection is created lazily and
    reused; any transport or frame failure drops it (the next request
    reconnects) and surfaces as :class:`ServingError`.
    """

    codec = _SERVING

    def __enter__(self) -> "RemoteDatabase":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request(
        self, header: Dict[str, Any], blobs: Sequence[bytes] = ()
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        reply_header, reply_blobs = decode_payload(
            self._exchange(encode_frame(header, list(blobs)))
        )
        if not reply_header.get("ok"):
            raise ServingError(
                f"{reply_header.get('error', 'ServingError')}: "
                f"{reply_header.get('message', 'serving request failed')}"
            )
        return reply_header, reply_blobs

    @staticmethod
    def _relation_header(
        op: str, relation: "SpatialRelation | str | None"
    ) -> Dict[str, Any]:
        header: Dict[str, Any] = {"op": op}
        if relation is not None:
            header["relation"] = SpatialRelation.parse(relation).value
        return header

    def query(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str | None" = None,
    ) -> QueryResult:
        """Execute one query remotely; returns a local :class:`QueryResult`."""
        header = self._relation_header("query", relation)
        header["count"] = 1
        header["dimensions"] = query.dimensions
        reply, blobs = self._request(header, [_pack_boxes([query], query.dimensions)])
        if not blobs:
            raise ServingError("malformed serving reply: missing identifier blob")
        return QueryResult(
            ids=_ids_from_blob(blobs[0]),
            execution=_execution_from_dict(reply.get("execution")),
        )

    def query_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str | None" = None,
    ) -> List[QueryResult]:
        """Execute a batch of queries remotely, one result per query."""
        boxes = list(queries)
        if not boxes:
            return []
        dimensions = boxes[0].dimensions
        header = self._relation_header("query_batch", relation)
        header["count"] = len(boxes)
        header["dimensions"] = dimensions
        reply, blobs = self._request(header, [_pack_boxes(boxes, dimensions)])
        executions = reply.get("executions")
        if not isinstance(executions, list) or len(blobs) != len(boxes):
            raise ServingError("malformed serving reply: batch shape mismatch")
        return [
            QueryResult(ids=_ids_from_blob(blob), execution=_execution_from_dict(entry))
            for blob, entry in zip(blobs, executions)
        ]

    def publish(self, event_id: int, box: HyperRectangle) -> MatchRecord:
        """Publish one event; returns its delivered :class:`MatchRecord`."""
        header: Dict[str, Any] = {
            "op": "publish",
            "event_id": int(event_id),
            "count": 1,
            "dimensions": box.dimensions,
        }
        reply, blobs = self._request(header, [_pack_boxes([box], box.dimensions)])
        if not blobs:
            raise ServingError("malformed serving reply: missing match blob")
        return MatchRecord(
            event_id=int(reply.get("event_id", event_id)),
            matches=_ids_from_blob(blobs[0]),
            latency_ms=float(reply.get("latency_ms", 0.0)),
            cached=bool(reply.get("cached", False)),
        )

    def subscribe(self, subscription_id: int, box: HyperRectangle) -> None:
        """Register a standing subscription."""
        header: Dict[str, Any] = {
            "op": "subscribe",
            "subscription_id": int(subscription_id),
            "count": 1,
            "dimensions": box.dimensions,
        }
        self._request(header, [_pack_boxes([box], box.dimensions)])

    def unsubscribe(self, subscription_id: int) -> None:
        """Drop a standing subscription (ignored when not registered)."""
        self._request({"op": "unsubscribe", "subscription_id": int(subscription_id)})

    def stats(self) -> Dict[str, Any]:
        """The server's serving statistics and database shape."""
        reply, _blobs = self._request({"op": "stats"})
        return {key: value for key, value in reply.items() if key != "ok"}
