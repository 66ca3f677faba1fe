"""The benchmark's server process: build, warm up and serve one workload.

The server uses only the public API — ``Database.from_dataset``,
``AsyncDatabase`` and ``DatabaseServer`` — and is driven over a pipe by
the benchmark process: ``counters``, ``trace-start``, ``trace-stop``, then
``stop`` (report and exit) or ``discard`` (exit without reporting; used for
the extra set-ups that time ``setup_s``).

Between ``trace-start`` and ``trace-stop`` tracing is switched on and off
every :data:`TRACE_SLICE_S` seconds, so traced and untraced slices of one
load phase see the same server state: a workload whose speed drifts as it
runs does not show up as tracing overhead.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from multiprocessing.connection import Connection
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import server as server_module
from repro.api.database import Database
from repro.api.server import DatabaseServer
from repro.api.serving import AsyncDatabase
from repro.geometry.relations import SpatialRelation

from bench.load import process_tree
from bench.spans import Hook, Tracer
from bench.workloads import WORKLOADS, Workload, preloaded_subscriptions, warmup_events

#: The public callables traced in a ``--trace`` run, by layer.
HOOKS: Tuple[Hook, ...] = (
    ("repro.api.server", None, "decode_payload", "server.decode"),
    ("repro.api.server", None, "encode_frame", "server.encode"),
    ("repro.api.serving", "AsyncDatabase", "query", "serving.query"),
    ("repro.api.serving", "AsyncDatabase", "publish", "serving.publish"),
    ("repro.api.serving", "AsyncDatabase", "subscribe", "serving.subscribe"),
    ("repro.api.serving", "AsyncDatabase", "unsubscribe", "serving.unsubscribe"),
    ("repro.engine.matcher", "StreamingMatcher", "publish", "matcher.publish"),
    ("repro.engine.matcher", "StreamingMatcher", "flush", "matcher.flush"),
    ("repro.engine.matcher", "StreamingMatcher", "register", "matcher.register"),
    ("repro.engine.matcher", "StreamingMatcher", "unregister", "matcher.unregister"),
    ("repro.core.index", "AdaptiveClusteringIndex", "execute_batch", "index.query"),
    ("repro.core.index", "AdaptiveClusteringIndex", "insert", "index.insert"),
    ("repro.core.index", "AdaptiveClusteringIndex", "delete", "index.delete"),
    ("repro.core.index", "AdaptiveClusteringIndex", "reorganize", "index.reorg"),
    ("repro.api.sharding", "ShardedDatabase", "execute_batch", "sharding.gather"),
    ("repro.api.executor", "ProcessShardExecutor", "execute_batch_all", "executor.fanout"),
    ("repro.api.executor", "ProcessShardExecutor", "materialize", "executor.fold"),
    ("repro.api.executor", "ProcessShardProxy", "insert", "executor.insert"),
    ("repro.api.executor", "ProcessShardProxy", "delete", "executor.delete"),
)


def build_database(workload: Workload, seed: int) -> Database:
    """The workload's database, preloaded; AC backend with default config."""
    options: Dict[str, Any] = {}
    if workload.shards:
        options.update(shards=workload.shards, router="spatial", execution="process")
    return Database.from_dataset("ac", preloaded_subscriptions(workload, seed), **options)


class _TickExecutor(ThreadPoolExecutor):
    """The event loop's default executor, timing each serving tick it runs."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__(thread_name_prefix="bench-tick")
        self._tracer = tracer

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> "Future[Any]":
        return super().submit(self._tracer.wrap(fn, "serving.tick"), *args, **kwargs)


class _ByteCounter:
    """Counts request and reply frame bytes through the server's codec."""

    def __init__(self) -> None:
        self.received = 0
        self.sent = 0

    def install(self) -> None:
        decode, encode = server_module.decode_payload, server_module.encode_frame

        def counted_decode(payload: bytes) -> Any:
            self.received += len(payload) + 8  # plus the length/CRC head
            return decode(payload)

        def counted_encode(*args: Any, **kwargs: Any) -> bytes:
            frame = encode(*args, **kwargs)
            self.sent += len(frame)
            return frame

        server_module.decode_payload = counted_decode  # type: ignore[assignment]
        server_module.encode_frame = counted_encode  # type: ignore[assignment]


class _Host:
    """A ``DatabaseServer`` on its own event-loop thread."""

    def __init__(self, database: Database, tracer: Optional[Tracer]) -> None:
        self.served = AsyncDatabase(database)
        self._tracer = tracer
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self.address: Tuple[str, int] = ("", 0)
        self._thread = threading.Thread(target=self._run, name="bench-server", daemon=True)
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            raise RuntimeError("the server failed to start") from self._error

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surfaced by __init__
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        if self._tracer is not None:
            loop.set_default_executor(_TickExecutor(self._tracer))
        server = DatabaseServer(self.served, "127.0.0.1", 0)
        await server.start()
        self._loop = loop
        self._stop = asyncio.Event()
        self.address = server.address
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60.0)


def _counters(host: _Host, frames: _ByteCounter) -> Dict[str, Any]:
    serving = host.served.stats
    matcher = host.served.matcher.stats
    return {
        "frame_bytes": frames.received + frames.sent,
        "requests": serving.requests,
        "ticks": serving.ticks,
        "cache_misses": matcher.cache_misses,
        "execution": matcher.total_execution.as_dict(),
    }


#: Length of each traced and each untraced slice of a ``--trace`` run.
TRACE_SLICE_S = 1.0

#: ``(time, tracing on after it, counters)`` at each switch of the tracer.
Switch = Tuple[float, bool, Dict[str, Any]]


class _Alternator:
    """Switches the tracer on and off every slice, noting the counters."""

    def __init__(self, tracer: Tracer, counters: Callable[[], Dict[str, Any]]) -> None:
        self._tracer = tracer
        self._counters = counters
        self._stop = threading.Event()
        self.switches: List[Switch] = []
        self._thread = threading.Thread(target=self._run, name="bench-trace-slices")
        self._thread.start()

    def _switch(self, on: bool) -> None:
        counters = self._counters()
        if on:
            self._tracer.enable()
        else:
            self._tracer.disable()
        self.switches.append((time.perf_counter(), on, counters))

    def _run(self) -> None:
        on = True
        self._switch(on)
        while not self._stop.wait(TRACE_SLICE_S):
            on = not on
            self._switch(on)
        if on:
            self._switch(False)

    def stop(self) -> List[Switch]:
        self._stop.set()
        self._thread.join()
        return self.switches


def serve(connection: Connection, workload_name: str, seed: int, trace_dir: Optional[str]) -> None:
    """Entry point of the spawned server process."""
    workload = WORKLOADS[workload_name]
    tracer: Optional[Tracer] = None
    counter = _ByteCounter()
    if trace_dir is not None:
        # Installed before the database is built, so forked shard workers
        # inherit the wrappers.
        tracer = Tracer(sink_dir=Path(trace_dir))
        counter.install()
        tracer.install(HOOKS)
    database = build_database(workload, seed)
    database.query_batch(warmup_events(workload, seed), SpatialRelation.CONTAINS)
    host = _Host(database, tracer)
    connection.send(("ready", host.address))

    def counters() -> Dict[str, Any]:
        return _counters(host, counter)

    alternator: Optional[_Alternator] = None
    command = ""
    while command not in ("stop", "discard"):
        command = connection.recv()
        if command == "counters":
            connection.send(counters())
        elif command == "trace-start" and tracer is not None:
            alternator = _Alternator(tracer, counters)
            connection.send(None)
        elif command == "trace-stop" and alternator is not None:
            connection.send(alternator.stop())
            alternator = None
        elif command not in ("stop", "discard"):
            raise ValueError(f"unexpected command {command!r}")
    if alternator is not None:
        alternator.stop()
    host.stop()
    if command == "discard":
        database.close()
        return
    final: Dict[str, Any] = {"objects": database.n_objects}
    database.close()
    final["spans"] = [] if tracer is None else [tuple(span) for span in tracer.spans]
    connection.send(final)


# ----------------------------------------------------------------------
# The benchmark's handle on a server process
# ----------------------------------------------------------------------
#: Longest a server may take to build, warm up and start listening.
SETUP_TIMEOUT_S = 120.0

#: Longest a server may take to answer a command.
REPLY_TIMEOUT_S = 60.0


class ServerProcess:
    """A spawned :func:`serve` process; ``setup_s`` is start to listening."""

    def __init__(self, workload: Workload, seed: int, trace_dir: Optional[Path]) -> None:
        context = multiprocessing.get_context("spawn")
        self._connection, child = context.Pipe()
        start = time.perf_counter()
        self._process = context.Process(
            target=serve,
            args=(child, workload.name, seed, trace_dir and str(trace_dir)),
            name=f"bench-server-{workload.name}",
        )
        self._process.start()
        child.close()
        try:
            _, self.address = self._receive(SETUP_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    @property
    def pid(self) -> int:
        assert self._process.pid is not None
        return self._process.pid

    def _receive(self, timeout: float) -> Any:
        if not self._connection.poll(timeout):
            raise RuntimeError(f"server gave no reply within {timeout:.0f} s")
        try:
            return self._connection.recv()
        except EOFError as error:
            raise RuntimeError(f"server exited with code {self._process.exitcode}") from error

    def call(self, command: str) -> Any:
        """Send *command* and return the server's reply."""
        self._connection.send(command)
        return self._receive(REPLY_TIMEOUT_S)

    def stop(self) -> Dict[str, Any]:
        """Stop serving; the final report."""
        final = self.call("stop")
        self._join()
        return final

    def discard(self) -> None:
        """Stop serving and exit without a report."""
        self._connection.send("discard")
        self._join()

    def _join(self) -> None:
        self._process.join(REPLY_TIMEOUT_S)
        if self._process.is_alive():
            self.kill()
        self._connection.close()

    def kill(self) -> None:
        """Terminate the server and its shard workers (error paths).

        A forked shard worker keeps its own copy of the server's end of their
        pipe, so it would wait forever for a server that died; kill it too.
        """
        if self._process.is_alive():
            for pid in process_tree(self.pid)[1:]:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            self._process.terminate()
        self._process.join(10.0)
        if self._process.is_alive():
            self._process.kill()
            self._process.join()
