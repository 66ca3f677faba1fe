"""Process-backed shard execution for :class:`~repro.api.sharding.ShardedDatabase`.

The in-process scatter in ``sharding.py`` queries the shards one after
another.  This module hosts each shard in its own **worker process**
instead and ships every read to all workers at once through one
``multiprocessing.shared_memory`` segment the executor keeps for its
lifetime: the parent writes the query batch (a single query is a one-row
batch) into it as one ``(m, 2d)`` float64 table (row = ``lows ‖ highs``)
and every worker reads the table from its own mapping of the segment, so
no box travels over a pipe.  The segment is replaced only when a batch
outgrows it, and unlinked by :meth:`ProcessShardExecutor.close` or by
garbage collection of an executor that was never closed; a worker maps
each segment once, when it first sees its name.  Each worker answers with
one :class:`~repro.api.protocol.PackedResults` (ids, offsets, counters
and wall times as four arrays), and replies are gathered in shard order
so the merged output stays scheduling-independent and byte-identical to
the serial path.  Workers start with ``fork`` where the platform has it,
else ``spawn``.

Worker state model
------------------
A worker's backend state is always reproducible as ``baseline + oplog``:

* ``baseline`` — a **state file**, ``shard-<i>-<gen>.state`` in the
  executor's private spill directory, holding the pickled backend the
  worker (re)starts from.  The constructor and :meth:`replace` write the
  given backend to the next generation and drop the reference, so the
  parent never holds a live shard.
* ``oplog`` — the state-changing operations acknowledged since then.
  Queries are logged too, each batch as its ``(m, 2d)`` box table:
  adaptive backends reorganize on the observed query stream, so replaying
  them is part of byte-identical restarts.

Only workers apply operations: in the serve loop and, on restart, when
replaying the log onto the loaded state file.  Once a shard's log
reaches a threshold the parent **folds** it: it sends one ``checkpoint``
request, the worker pickles its live backend into the next generation's
file, and only after that acknowledgement does the parent switch
``baseline`` to the new file, clear the log and delete the previous
generation.  Folding bounds restart time without the parent ever
replaying a query.  :meth:`ProcessShardExecutor.materialize` — the plain
in-process backend behind ``__deepcopy__`` and shard migration — is a
fold followed by loading the new file.

The state files live only as long as the executor: they are not
fsynced, :meth:`ProcessShardExecutor.close` removes the spill directory,
and so does garbage collection of an executor that was never closed.
Durability across parent crashes is the WAL layer's job.

Crash semantics
---------------
A dead worker fails **only the request it was serving** with a structured
:class:`WorkerCrashError` naming the shard and operation; the next request
restarts the worker from ``baseline + oplog``.  When a fan-out or a
state-changing operation fails on any shard, every worker is marked stale
and the operation is logged nowhere, so the failed request has no effect
on any shard — subsequent requests return exactly what a database that
never saw the failed request would return.

A fold cannot lose state either.  The parent switches files only after
the worker's acknowledgement, so a worker that dies mid-checkpoint
leaves the previous generation plus the full log valid; the parent
removes the partial file.  Such a fold failure does not fail the request
that triggered it — that request was already acknowledged and logged —
and the next request restarts the worker from the old generation.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import tempfile
import time
import weakref
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.protocol import Capabilities, PackedResults, QueryResult, SpatialBackend
from repro.geometry.box import HyperRectangle, box_table
from repro.geometry.relations import SpatialRelation
from repro.storage.wal import REAL_FS

__all__ = [
    "ProcessShardExecutor",
    "ProcessShardProxy",
    "WorkerCrashError",
]

#: Fold the restart log into a fresh baseline once it reaches this size.
_COMPACT_THRESHOLD = 64

#: Poll granularity while waiting for a worker reply (liveness checks).
_POLL_INTERVAL_S = 0.05

#: Deadline for the post-spawn health check (covers the oplog replay).
_SPAWN_DEADLINE_S = 60.0

#: One logged operation: ``(op, args)`` exactly as dispatched in the worker.
_OpEntry = Tuple[str, Tuple[Any, ...]]


class WorkerCrashError(RuntimeError):
    """A shard worker died (or its pipe broke) while serving one request.

    Only the in-flight request fails; the worker is restarted from its
    ``baseline + oplog`` on the next request for that shard.
    """

    def __init__(self, shard: int, operation: str, reason: str) -> None:
        super().__init__(f"shard {shard} worker failed during {operation!r}: {reason}")
        #: Index of the shard whose worker failed.
        self.shard = shard
        #: The operation the worker was serving when it died.
        self.operation = operation


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _write_state(path: "str | Path", backend: SpatialBackend) -> None:
    """Pickle *backend* into the state file *path* (no fsync: see module doc)."""
    with REAL_FS.open_write(path) as handle:
        pickle.dump(backend, handle, protocol=pickle.HIGHEST_PROTOCOL)


def _read_state(path: "str | Path") -> SpatialBackend:
    """Load the backend a state file holds."""
    with open(path, "rb") as handle:
        backend: SpatialBackend = pickle.load(handle)
    return backend


def _discard(path: Path) -> None:
    """Remove one state file if it exists."""
    with contextlib.suppress(FileNotFoundError):
        REAL_FS.remove(path)


def _remove_spill_dir(path: Path, owner_pid: int) -> None:
    """Remove an executor's spill directory, from the process that made it.

    A forked worker inherits the executor object; its copy must never
    delete the state files the parent is still serving from.
    """
    if os.getpid() == owner_pid:
        with contextlib.suppress(FileNotFoundError):
            REAL_FS.rmtree(path)


def _apply_operation(backend: SpatialBackend, op: str, args: Tuple[Any, ...]) -> Any:
    """Dispatch one logged/requested operation onto *backend*.

    Runs only in a worker, shared by its serve loop and its restart
    replay, which is what keeps the live state and the restarted state
    identical.  Capability gating happened at the original call site —
    the proxy advertises the member backend's own
    :class:`Capabilities`, so unsupported operations raise inside the
    backend exactly as they would in thread mode.
    """
    if op == "execute_batch":
        queries = HyperRectangle.from_table(args[0])
        return PackedResults.pack(backend.execute_batch(queries, args[1]))
    if op == "insert":
        backend.insert(args[0], args[1])
        return None
    if op == "bulk_load":
        return backend.bulk_load(list(args[0]))
    if op == "delete":
        return backend.delete(args[0])
    if op == "delete_bulk":
        # repro-lint: disable=RL002 -- worker-side dispatch: the proxy mirrors the
        # member backend's capabilities, so gating happened at the call site
        return backend.delete_bulk(list(args[0]))
    if op == "reorganize":
        # repro-lint: disable=RL002 -- worker-side dispatch: unsupported backends
        # raise UnsupportedOperation here exactly as in thread mode
        return backend.reorganize()
    if op == "snapshot":
        # repro-lint: disable=RL002 -- worker-side dispatch: gating happened at
        # the call site; unsupported backends raise here as in thread mode
        return backend.snapshot()
    if op == "save":
        # repro-lint: disable=RL002 -- worker-side dispatch: gating happened at
        # the call site; unsupported backends raise here as in thread mode
        return backend.save(args[0], include_statistics=args[1], prune=args[2])
    if op == "iter_objects":
        return list(backend.iter_objects())
    if op == "getattr":
        return getattr(backend, args[0])
    raise ValueError(f"unknown worker operation {op!r}")


@contextlib.contextmanager
def _untracked_attach() -> Iterator[None]:
    """Attach shared memory without registering it with a resource tracker.

    The parent (the creator) owns the segment's lifetime: it registers the
    name at creation and unlinks the segment when a larger batch replaces
    it, at :meth:`ProcessShardExecutor.close` and at garbage collection.
    A worker's attach must not register the name again — depending on
    whether the worker inherited the parent's tracker or spawned its own,
    the duplicate registration surfaces as unregister ``KeyError`` noise
    or as bogus "leaked shared_memory" warnings when the worker exits.
    Python 3.13 has ``SharedMemory(track=False)`` for exactly this; on the
    supported 3.10/3.11 the registration hook is disabled for the attach
    instead.
    """
    original = resource_tracker.register
    resource_tracker.register = lambda name, rtype: None  # type: ignore[assignment]
    try:
        yield
    finally:
        resource_tracker.register = original


class _TableMapping:
    """A worker's mapping of the executor's shared-memory query table."""

    def __init__(self) -> None:
        self._segment: Optional[shared_memory.SharedMemory] = None

    def table(self, name: Optional[str], count: int, dimensions: int) -> np.ndarray:
        """The first *count* rows of segment *name*, mapping it on first sight.

        The returned array views the segment; the caller drops it before
        its next call, which unmaps a segment the parent has replaced.
        """
        if not count:
            return np.empty((0, 2 * dimensions), dtype=np.float64)
        if self._segment is None or self._segment.name != name:
            if self._segment is not None:
                with contextlib.suppress(BufferError):
                    self._segment.close()
            with _untracked_attach():
                self._segment = shared_memory.SharedMemory(name=name)
        return np.ndarray((count, 2 * dimensions), dtype=np.float64, buffer=self._segment.buf)


def _unlink_segment(segment: shared_memory.SharedMemory, owner_pid: int) -> None:
    """Close and unlink the executor's query-table segment, from its creator.

    A forked worker inherits the executor object; its copy must never
    unlink the segment the parent is still writing batches into.
    """
    if os.getpid() == owner_pid:
        segment.close()
        with contextlib.suppress(OSError):
            # repro-lint: disable=RL001 -- SharedMemory.unlink releases the shm segment, not a durable file; no FaultyFS coverage applies
            segment.unlink()


def _shard_worker_main(
    connection: Connection, state_path: "str | Path", oplog: Sequence[_OpEntry]
) -> None:
    """Entry point of one shard worker process.

    Loads the backend from *state_path* and replays *oplog* onto it
    (restart path), then serves requests until the shutdown sentinel
    ``None`` or a closed pipe.  A ``checkpoint`` request writes the live
    backend to the state file it names.
    """
    backend = _read_state(state_path)
    for op, args in oplog:
        _apply_operation(backend, op, args)
    mapping = _TableMapping()
    while True:
        try:
            request = connection.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        if request is None:
            return
        op, args = request
        if op == "ping":
            connection.send(("ok", None))
            continue
        try:
            if op == "execute_batch_shm":
                name, count, dimensions, relation = args
                table = mapping.table(name, count, dimensions)
                try:
                    result = _apply_operation(backend, "execute_batch", (table, relation))
                finally:
                    del table
            elif op == "checkpoint":
                result = _write_state(args[0], backend)
            else:
                result = _apply_operation(backend, op, args)
        except Exception as error:
            try:
                connection.send(("error", error))
            except (TypeError, AttributeError, ValueError, pickle.PicklingError):
                connection.send(
                    ("error", RuntimeError(f"{type(error).__name__}: {error}"))
                )
            continue
        try:
            connection.send(("ok", result))
        except (TypeError, AttributeError, ValueError, pickle.PicklingError) as error:
            connection.send(
                ("error", RuntimeError(f"unpicklable result from {op!r}: {error}"))
            )


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class _WorkerSlot:
    """Parent-side record of one shard worker."""

    #: State file the worker (re)starts from.
    baseline: Path
    #: Generation number of *baseline*; the next fold writes the one after.
    generation: int = 0
    #: Acknowledged state-changing operations since *baseline*.
    oplog: List[_OpEntry] = field(default_factory=list)
    process: Optional[BaseProcess] = None
    connection: Optional[Connection] = None
    #: Set when the worker's state can no longer be trusted (failed
    #: state-changing request); forces a restart from baseline + oplog.
    stale: bool = False


class ProcessShardExecutor:
    """Hosts one worker process per shard and fans queries out to all of them.

    Workers spawn on first use, are health-checked at spawn, and are
    joined by :meth:`close`.  See the module docstring for the state and
    crash model.
    """

    def __init__(self, backends: Sequence[SpatialBackend]) -> None:
        if not backends:
            raise ValueError("at least one shard backend is required")
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        self._context: BaseContext = multiprocessing.get_context(method)
        self._dimensions = int(backends[0].dimensions)
        self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-shards-"))
        self._spill_finalizer = weakref.finalize(
            self, _remove_spill_dir, self._spill_dir, os.getpid()
        )
        self._slots: List[_WorkerSlot] = []
        for index, backend in enumerate(backends):
            path = self._state_path(index, 0)
            _write_state(path, backend)
            self._slots.append(_WorkerSlot(baseline=path))
        self._proxies: List["ProcessShardProxy"] = [
            ProcessShardProxy(self, index, backend)
            for index, backend in enumerate(backends)
        ]
        #: The shared-memory query table and the finalizer that unlinks it;
        #: created by the first fan-out, replaced when a batch outgrows it.
        self._segment: Optional[shared_memory.SharedMemory] = None
        self._segment_finalizer: Optional[weakref.finalize] = None
        self._closed = False

    # -- introspection --------------------------------------------------
    @property
    def proxies(self) -> List[SpatialBackend]:
        """One :class:`ProcessShardProxy` per shard, in shard order."""
        return [proxy for proxy in self._proxies]

    def worker_pid(self, index: int) -> Optional[int]:
        """PID of shard *index*'s live worker (``None`` when not running)."""
        process = self._slots[index].process
        if process is None or not process.is_alive():
            return None
        return process.pid

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Shut down and join every worker process and remove the state
        files (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            self._shutdown_worker(slot, graceful=True)
        if self._segment_finalizer is not None:
            self._segment_finalizer()
        self._spill_finalizer()

    def materialize(self, index: int) -> SpatialBackend:
        """Shard *index*'s current state as a plain local backend."""
        self._fold(index)
        return _read_state(self._slots[index].baseline)

    def replace(self, index: int, backend: SpatialBackend) -> SpatialBackend:
        """Swap shard *index*'s backend for *backend* (shard migration).

        Returns the materialized state of the replaced shard.
        """
        old = self.materialize(index)
        slot = self._slots[index]
        self._shutdown_worker(slot, graceful=True)
        generation = slot.generation + 1
        _write_state(self._state_path(index, generation), backend)
        self._switch(index, generation)
        slot.stale = False
        self._proxies[index] = ProcessShardProxy(self, index, backend)
        return old

    # -- request plumbing ----------------------------------------------
    def request(
        self,
        index: int,
        op: str,
        args: Tuple[Any, ...],
        *,
        log: bool = False,
    ) -> Any:
        """Run one operation on shard *index*'s worker and return its result.

        With ``log=True`` the operation is appended to the shard's restart
        log after the worker acknowledges it; a failed logged operation
        marks the worker stale instead, so a restart reconstructs the
        state the failed request never touched.
        """
        self._require_open()
        slot = self._ensure_worker(index, op)
        connection = slot.connection
        if connection is None:  # pragma: no cover - _ensure_worker guarantees it
            raise WorkerCrashError(index, op, "worker has no connection")
        try:
            connection.send((op, args))
        except (OSError, ValueError) as error:
            raise self._crash(index, op, f"request could not be sent: {error}")
        try:
            result = self._receive(index, op)
        except WorkerCrashError:
            raise
        except Exception:
            if log:
                slot.stale = True
            raise
        if log:
            self._log(index, (op, args))
        return result

    def execute_batch_all(
        self, queries: Sequence[HyperRectangle], relation: "SpatialRelation | str"
    ) -> List[PackedResults]:
        """Run a query batch on every shard worker; packed results in shard order.

        *queries* travel to every worker at once as one table in the
        executor's shared-memory segment.  If any shard fails, every
        worker is marked stale and nothing is logged, so the failed request
        leaves no trace on any shard.
        """
        self._require_open()
        dimensions = self._dimensions
        table = box_table(queries, dimensions)
        op = "execute_batch_shm"
        indices = range(len(self._slots))
        for index in indices:
            self._ensure_worker(index, op)
        count = len(table)
        name: Optional[str] = None
        if count:
            segment = self._table_segment(table.nbytes)
            np.ndarray(table.shape, dtype=np.float64, buffer=segment.buf)[:] = table
            name = segment.name
        args = (name, count, dimensions, relation)
        results: List[Any] = [None] * len(self._slots)
        errors: List[Tuple[int, Exception]] = []
        sent: List[int] = []
        for index in indices:
            connection = self._slots[index].connection
            if connection is None:  # pragma: no cover - ensured above
                errors.append((index, self._crash(index, op, "no connection")))
                continue
            try:
                connection.send((op, args))
            except (OSError, ValueError) as error:
                errors.append(
                    (index, self._crash(index, op, f"request could not be sent: {error}"))
                )
                continue
            sent.append(index)
        for index in sent:
            try:
                results[index] = self._receive(index, op)
            except Exception as error:
                errors.append((index, error))
        if errors:
            for index in indices:
                self._slots[index].stale = True
            errors.sort(key=lambda pair: pair[0])
            raise errors[0][1]
        table.flags.writeable = False
        entry: _OpEntry = ("execute_batch", (table, relation))
        for index in indices:
            self._log(index, entry)
        return results

    # -- internals ------------------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError("the process shard executor is closed")

    def _ensure_worker(self, index: int, op: str) -> _WorkerSlot:
        """Return shard *index*'s slot with a live, health-checked worker.

        A worker found dead since its last request fails *this* request
        with a structured :class:`WorkerCrashError` (the caller sees which
        shard and operation failed); the next request restarts it from
        ``baseline + oplog``.  Deliberately staled workers (failed-request
        rollback) restart silently — their teardown was already reported.
        """
        slot = self._slots[index]
        if slot.stale:
            self._shutdown_worker(slot, graceful=True)
            slot.stale = False
        if slot.process is not None and not slot.process.is_alive():
            raise self._crash(index, op, "worker process died between requests")
        if slot.process is not None:
            return slot
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_shard_worker_main,
            args=(child_end, str(slot.baseline), tuple(slot.oplog)),
            name=f"repro-shard-worker-{index}",
            daemon=True,
        )
        process.start()
        child_end.close()
        slot.process = process
        slot.connection = parent_end
        # Health check: the reply implies the oplog replay completed.
        try:
            parent_end.send(("ping", ()))
        except (OSError, ValueError) as error:
            raise self._crash(index, "ping", f"health check could not be sent: {error}")
        deadline = time.monotonic() + _SPAWN_DEADLINE_S
        self._receive(index, "ping", deadline=deadline)
        return slot

    def _receive(self, index: int, op: str, deadline: Optional[float] = None) -> Any:
        """Wait for one reply from shard *index*, watching worker liveness."""
        slot = self._slots[index]
        connection = slot.connection
        if connection is None:
            raise self._crash(index, op, "worker connection lost")
        while True:
            if connection.poll(_POLL_INTERVAL_S):
                try:
                    status, payload = connection.recv()
                except (EOFError, OSError) as error:
                    raise self._crash(index, op, f"worker pipe broke: {error}")
                if status == "error":
                    if isinstance(payload, BaseException):
                        raise payload
                    raise RuntimeError(str(payload))
                return payload
            process = slot.process
            if process is None or not process.is_alive():
                # One final poll: the reply may have raced the exit.
                if connection.poll(0):
                    continue
                raise self._crash(index, op, "worker process died")
            if deadline is not None and time.monotonic() > deadline:
                raise self._crash(index, op, "worker health check timed out")

    def _crash(self, index: int, op: str, reason: str) -> WorkerCrashError:
        """Tear down shard *index*'s dead worker and build its error."""
        self._shutdown_worker(self._slots[index], graceful=False)
        return WorkerCrashError(index, op, reason)

    def _table_segment(self, size: int) -> shared_memory.SharedMemory:
        """The query-table segment, replaced by one at least twice as large
        (and the old one unlinked) when it holds fewer than *size* bytes.

        Workers still mapping a replaced segment switch to the new one
        when its name first reaches them.
        """
        segment = self._segment
        if segment is not None and segment.size >= size:
            return segment
        if self._segment_finalizer is not None:
            self._segment_finalizer()
        grown = max(size, 2 * segment.size if segment is not None else 0)
        segment = shared_memory.SharedMemory(create=True, size=grown)
        self._segment = segment
        self._segment_finalizer = weakref.finalize(
            self, _unlink_segment, segment, os.getpid()
        )
        return segment

    def _state_path(self, index: int, generation: int) -> Path:
        return self._spill_dir / f"shard-{index}-{generation}.state"

    def _switch(self, index: int, generation: int) -> None:
        """Make *generation*'s state file shard *index*'s baseline.

        The log is cleared and the previous generation's file deleted.
        """
        slot = self._slots[index]
        previous = slot.baseline
        slot.baseline = self._state_path(index, generation)
        slot.generation = generation
        slot.oplog = []
        _discard(previous)

    def _fold(self, index: int) -> None:
        """Fold shard *index*'s log into a new state file its worker writes.

        The parent switches to the new file only after the worker's
        acknowledgement; on any failure the partial file is removed and
        the previous generation plus the full log stay in force.
        """
        slot = self._slots[index]
        if not slot.oplog:
            return
        generation = slot.generation + 1
        path = self._state_path(index, generation)
        try:
            self.request(index, "checkpoint", (str(path),))
        except BaseException:
            _discard(path)
            raise
        self._switch(index, generation)

    def _log(self, index: int, entry: _OpEntry) -> None:
        slot = self._slots[index]
        slot.oplog.append(entry)
        if len(slot.oplog) >= _COMPACT_THRESHOLD:
            # The logged operation is already acknowledged, so a failed fold
            # must not fail it: the old generation plus the full log stay
            # valid, and a dead worker restarts from them on the next request.
            with contextlib.suppress(WorkerCrashError, OSError):
                self._fold(index)

    def _shutdown_worker(self, slot: _WorkerSlot, *, graceful: bool) -> None:
        """Stop one worker: sentinel + join, escalating to terminate."""
        connection = slot.connection
        process = slot.process
        slot.connection = None
        slot.process = None
        if connection is not None:
            if graceful:
                with contextlib.suppress(OSError, ValueError):
                    connection.send(None)
            with contextlib.suppress(OSError):
                connection.close()
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            with contextlib.suppress(ValueError):
                process.close()


class ProcessShardProxy:
    """A :class:`SpatialBackend` whose state lives in a worker process.

    The proxy answers membership and cardinality locally from a mirrored
    id set (zero IPC on the routing-heavy paths) and forwards everything
    else to the worker through the executor.  ``capabilities`` and
    ``dimensions`` mirror the wrapped backend, so capability gating at
    call sites behaves exactly as in thread mode.
    """

    def __init__(
        self, executor: ProcessShardExecutor, index: int, backend: SpatialBackend
    ) -> None:
        self._executor = executor
        self._index = index
        self._dimensions = int(backend.dimensions)
        self._capabilities = backend.capabilities
        self._ids = {object_id for object_id, _ in backend.iter_objects()}

    # -- introspection --------------------------------------------------
    @property
    def dimensions(self) -> int:
        return self._dimensions

    @property
    def n_objects(self) -> int:
        return len(self._ids)

    @property
    def n_groups(self) -> int:
        return int(self._executor.request(self._index, "getattr", ("n_groups",)))

    @property
    def capabilities(self) -> Capabilities:
        return self._capabilities

    @property
    def shard_index(self) -> int:
        """Position of this shard in the executor."""
        return self._index

    @property
    def worker_pid(self) -> Optional[int]:
        """PID of the live worker process (``None`` when not running)."""
        return self._executor.worker_pid(self._index)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, object_id: int) -> bool:
        return int(object_id) in self._ids

    def __repr__(self) -> str:
        return (
            f"ProcessShardProxy(shard={self._index}, "
            f"backend={self._capabilities.name!r}, n_objects={len(self._ids)})"
        )

    # -- lifecycle ------------------------------------------------------
    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        object_id = int(object_id)
        self._executor.request(self._index, "insert", (object_id, obj), log=True)
        self._ids.add(object_id)

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        pairs = [(int(object_id), box) for object_id, box in objects]
        loaded = self._executor.request(self._index, "bulk_load", (tuple(pairs),), log=True)
        self._ids.update(object_id for object_id, _ in pairs)
        return int(loaded)

    def delete(self, object_id: int) -> bool:
        object_id = int(object_id)
        removed = bool(self._executor.request(self._index, "delete", (object_id,), log=True))
        if removed:
            self._ids.discard(object_id)
        return removed

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        ids = [int(object_id) for object_id in object_ids]
        removed = self._executor.request(self._index, "delete_bulk", (tuple(ids),), log=True)
        self._ids.difference_update(ids)
        return int(removed)

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        pairs = self._executor.request(self._index, "iter_objects", ())
        return iter(list(pairs))

    def reorganize(self) -> object:
        return self._executor.request(self._index, "reorganize", (), log=True)

    def snapshot(self) -> object:
        return self._executor.request(self._index, "snapshot", ())

    def save(
        self, path: "str | Path", include_statistics: bool = True, *, prune: bool = True
    ) -> Path:
        saved = self._executor.request(
            self._index, "save", (str(path), bool(include_statistics), bool(prune))
        )
        return Path(saved)

    # -- query execution ------------------------------------------------
    def execute(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> QueryResult:
        return self.execute_batch([query], relation)[0]

    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        table = box_table(queries, self._dimensions)
        table.flags.writeable = False
        packed = self._executor.request(
            self._index, "execute_batch", (table, relation), log=True
        )
        return packed.unpack()

    def query(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> np.ndarray:
        return self.execute(query, relation).ids

    def query_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[np.ndarray]:
        return [result.ids for result in self.execute_batch(queries, relation)]

    # -- pass-through ---------------------------------------------------
    def __deepcopy__(self, memo: "dict[int, Any]") -> SpatialBackend:
        """Deep copies materialize to a plain in-process backend."""
        return self._executor.materialize(self._index)

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        return self._executor.request(self._index, "getattr", (name,))
