"""Crash-consistent durability: write-ahead logging, checkpoints, recovery.

:class:`DurableBackend` wraps any persistable
:class:`~repro.api.protocol.SpatialBackend` — a single adaptive index or a
whole :class:`~repro.api.sharding.ShardedDatabase` — and makes every
mutation survive a crash:

* **Write-ahead log.**  Every ``insert`` / ``bulk_load`` / ``delete`` /
  ``delete_bulk`` / ``reorganize`` appends one checksummed,
  length-prefixed record (see :mod:`repro.storage.wal` for the format)
  with a monotonically increasing LSN, and is acknowledged only after the
  record is fsynced.  A sharded backend keeps **one WAL per shard**; an
  operation's record lands in the log of the shard the router assigns it
  to, so per-shard replay reconstructs a consistent whole.
* **Atomic checkpoints.**  :meth:`checkpoint` commits each shard into its
  persistent paged store (``pages-NNN``, see :mod:`repro.storage.pagefile`)
  — only the pages of clusters that changed since the last cut are
  written — and then writes the ``CHECKPOINT.json`` manifest **last**.
  The manifest is the single commit point: it names each store's
  generation, and a store generation no manifest names is detectable,
  ignorable garbage.  After the commit every WAL is reset (atomically,
  via rename) to start at its checkpointed LSN cut.
* **Recovery.**  :meth:`recover` opens each store at the generation the
  manifest names, replays each WAL's tail — records with ``lsn >= cut`` —
  truncating torn trailing records, completes any interrupted
  multi-shard operation, and finishes with a fresh checkpoint so the next
  crash starts from a clean cut.

Multi-shard operations and the commit record
--------------------------------------------

A ``bulk_load`` / ``delete_bulk`` / ``reorganize`` spanning several shards
writes into several WALs, and a crash between those appends would
otherwise leave a *partial* operation — neither pre-op nor post-op state.
Such operations are committed through a staged **pending-operation
record**: the full logical operation is first written atomically to
``PENDING.json`` with a fresh global operation id (*gid*), then the
per-shard records (tagged with the gid) are appended and fsynced, then the
pending record is removed.  Recovery inverts this: if a pending record is
present, every WAL record carrying its gid is skipped and the logical
operation is re-applied whole from the pending record.  The checkpoint
manifest stores ``next_gid`` as the commit record — a pending record with
``gid < next_gid`` is already contained in the checkpoint and is discarded
— so all shards always recover to a mutually consistent cut: exactly the
state before the staged operation, or exactly the state after it.

Crash-equivalence contract (pinned by ``tests/api/test_durability_faults.py``)
------------------------------------------------------------------------------

A crash at *any* point — mid-WAL-append, after the append but before the
fsync, mid-checkpoint, between a store commit and the manifest write —
recovers to a state query-equivalent to the store either immediately
before or immediately after the in-flight operation, never anything else.

Group commit
------------

:meth:`group_commit` defers WAL fsyncs to the end of a block, issuing one
sync per touched log instead of one per mutation.  The asyncio front-end
(:class:`~repro.api.serving.AsyncDatabase`) wraps each tick in it, so a
tick's subscription churn commits with a single fsync.  Staged multi-shard
operations keep their immediate fsyncs even inside a group — the pending
protocol's ordering is load-bearing.
"""

from __future__ import annotations

import copy as _copy
import json
import shutil
import tempfile
import weakref
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.pagefile import PagedStore

from repro.api.protocol import (
    BackendBase,
    Capabilities,
    QueryResult,
    SpatialBackend,
)
from repro.api.sharding import ShardedDatabase, commit_store, router_from_manifest
from repro.geometry.box import HyperRectangle, check_unit_domain
from repro.geometry.relations import SpatialRelation
from repro.storage.wal import (
    OP_BULK_LOAD,
    OP_DELETE,
    OP_DELETE_BULK,
    OP_INSERT,
    OP_REORGANIZE,
    REAL_FS,
    FileSystem,
    WalRecord,
    WriteAheadLog,
    read_wal,
)

#: The checkpoint commit manifest — written last, atomically; the single
#: source of truth for what a recovery loads.
CHECKPOINT_MANIFEST_NAME = "CHECKPOINT.json"

#: The staged multi-shard operation record (transient).
PENDING_OP_NAME = "PENDING.json"

#: Bump on any change to the manifest / pending-record layout.
DURABILITY_FORMAT_VERSION = 1

#: The checkpoint layout every manifest records: per-shard paged stores.
CHECKPOINT_LAYOUT = "paged"


def _store_name(position: int) -> str:
    """Directory name of shard *position*'s persistent page store."""
    return f"pages-{position:03d}"


@dataclass
class DurabilityStats:
    """Counters describing one durable backend's logging activity."""

    #: WAL records appended (one per single-shard mutation, one per shard
    #: touched by a staged multi-shard operation).
    appends: int = 0
    #: fsync batches issued (per-operation, or one per group-commit block).
    syncs: int = 0
    #: Checkpoints committed (including the creation/recovery checkpoints).
    checkpoints: int = 0
    #: WAL records replayed by the recovery that produced this backend.
    replayed_records: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flatten for reporting / JSON."""
        return {
            "appends": self.appends,
            "syncs": self.syncs,
            "checkpoints": self.checkpoints,
            "replayed_records": self.replayed_records,
        }


class DurableBackend(BackendBase):
    """A persistable backend wrapped with WAL durability and checkpoints.

    Construct through :meth:`create` (fresh durable store) or
    :meth:`recover` (reopen after a crash or clean shutdown); the
    initializer wires an already-prepared state and is not meant to be
    called directly.  The wrapper satisfies the full
    :class:`~repro.api.protocol.SpatialBackend` protocol, so it slots into
    the :class:`~repro.api.database.Database` facade, streaming sessions
    and the asyncio front-end transparently.
    """

    def __init__(
        self,
        inner: SpatialBackend,
        wal_dir: Path,
        *,
        fs: FileSystem,
        fsync: bool,
        wals: Sequence[WriteAheadLog],
        seq: int,
        next_gid: int,
        stores: Optional[List["PagedStore"]] = None,
    ) -> None:
        self._inner = inner
        self._wal_dir = Path(wal_dir)
        self._fs = fs
        self._fsync = fsync
        self._wals: List[WriteAheadLog] = list(wals)
        self._seq = int(seq)
        self._next_gid = int(next_gid)
        self._group_depth = 0
        self._touched: Set[int] = set()
        #: Persistent per-shard page stores, kept across checkpoints so
        #: incremental commits diff against the last cut.
        self._stores = stores
        self.stats = DurabilityStats()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        inner: SpatialBackend,
        wal_dir: "str | Path",
        *,
        fs: FileSystem = REAL_FS,
        fsync: bool = True,
    ) -> "DurableBackend":
        """Make *inner* durable under *wal_dir* (fresh directory).

        Requires a backend advertising ``supports_persistence`` — every
        checkpoint commits each shard into its paged store under
        *wal_dir*.  The directory must not already hold a durable
        database (recover that instead); an initial checkpoint of the
        (possibly pre-loaded) backend is committed immediately, so a
        complete checkpoint always exists.
        """
        if not isinstance(inner, SpatialBackend):
            raise TypeError(
                "backend does not satisfy the SpatialBackend protocol; "
                "see repro.api.protocol"
            )
        inner.capabilities.require("persistence")
        wal_dir = Path(wal_dir)
        if (wal_dir / CHECKPOINT_MANIFEST_NAME).exists():
            raise ValueError(
                f"{wal_dir} already holds a durable database; recover it with "
                "Database.recover() instead of creating over it"
            )
        fs.mkdir(wal_dir)
        count = inner.n_shards if isinstance(inner, ShardedDatabase) else 1
        wals = [
            WriteAheadLog(
                wal_dir / _wal_file_name(position), inner.dimensions, fs=fs, create=True
            )
            for position in range(count)
        ]
        durable = cls(
            inner,
            wal_dir,
            fs=fs,
            fsync=fsync,
            wals=wals,
            seq=0,
            next_gid=1,
        )
        durable.checkpoint()
        return durable

    @classmethod
    def recover(
        cls,
        wal_dir: "str | Path",
        *,
        fs: FileSystem = REAL_FS,
        fsync: bool = True,
    ) -> "DurableBackend":
        """Recover a durable database from *wal_dir*.

        Opens each paged store lazily at the generation ``CHECKPOINT.json``
        names (rolling back any newer, uncommitted store generation),
        replays each WAL tail in LSN order — truncating torn trailing
        records — completes any staged multi-shard operation, and commits a
        fresh checkpoint so the recovered store starts from a clean cut.
        Recovery is restartable: the store rollback only removes what no
        manifest references and everything else waits for the final
        (atomic) checkpoint, so a crash *during* recovery recovers
        identically on the next attempt.
        """
        wal_dir = Path(wal_dir)
        manifest = read_manifest(wal_dir)
        inner, stores = open_checkpoint(wal_dir, manifest, fs=fs, resync=True)
        next_gid = int(manifest["next_gid"])

        pending = read_pending(wal_dir)
        if pending is not None and int(pending["gid"]) < next_gid:
            # Stale: the staged operation is already contained in the
            # checkpoint (the manifest's next_gid is the commit record).
            pending = None
        skip_gid = int(pending["gid"]) if pending is not None else 0

        wal_entries = manifest["wals"]
        targets: Sequence[SpatialBackend]
        targets = inner.shards if isinstance(inner, ShardedDatabase) else [inner]
        if not isinstance(wal_entries, list) or len(wal_entries) != len(targets):
            raise ValueError(
                "corrupt checkpoint manifest: WAL list disagrees with the "
                "checkpointed shard count"
            )
        replayed = 0
        for entry, target in zip(wal_entries, targets):
            wal_path = wal_dir / str(entry["file"])
            if not wal_path.is_file():
                raise ValueError(f"missing WAL file {wal_path.name} in {wal_dir}")
            cut = int(entry["lsn"])
            for record in read_wal(wal_path).records:
                if record.lsn < cut:
                    continue  # already contained in the checkpoint
                if skip_gid and record.gid == skip_gid:
                    continue  # partial piece of the staged operation
                if record.gid:
                    next_gid = max(next_gid, record.gid + 1)
                replay_record(target, record)
                replayed += 1
        if pending is not None:
            replay_pending(inner, pending)
            next_gid = max(next_gid, int(pending["gid"]) + 1)

        wals = [
            WriteAheadLog(wal_dir / str(entry["file"]), inner.dimensions, fs=fs)
            for entry in wal_entries
        ]
        durable = cls(
            inner,
            wal_dir,
            fs=fs,
            fsync=fsync,
            wals=wals,
            seq=int(manifest["seq"]),
            next_gid=next_gid,
            stores=stores,
        )
        durable.stats.replayed_records = replayed
        # Post-recovery checkpoint: commits the replayed state (pending
        # operation included — its gid is now below the manifest's
        # next_gid, the commit record) and resets every WAL to the new cut.
        durable.checkpoint()
        if (wal_dir / PENDING_OP_NAME).is_file():
            fs.remove(wal_dir / PENDING_OP_NAME)
        return durable

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def inner(self) -> SpatialBackend:
        """The wrapped backend."""
        return self._inner

    @property
    def wal_dir(self) -> Path:
        """Directory holding the WALs, checkpoints and commit manifest."""
        return self._wal_dir

    @property
    def wal_paths(self) -> Tuple[Path, ...]:
        """The write-ahead log files, one per shard (one for a plain backend)."""
        return tuple(wal.path for wal in self._wals)

    @property
    def next_lsns(self) -> Tuple[int, ...]:
        """Each shard's next WAL sequence number (its stream position)."""
        return tuple(wal.next_lsn for wal in self._wals)

    @property
    def capabilities(self) -> Capabilities:
        """The wrapped backend's capability descriptor (durability adds none)."""
        return self._inner.capabilities

    @property
    def dimensions(self) -> int:
        return self._inner.dimensions

    @property
    def n_objects(self) -> int:
        return self._inner.n_objects

    @property
    def n_groups(self) -> int:
        return self._inner.n_groups

    def __len__(self) -> int:
        return len(self._inner)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._inner

    @property
    def storage(self) -> object:
        """The wrapped backend's storage view (persistence contract)."""
        return self._inner.storage  # type: ignore[attr-defined]

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        """Every stored object as ``(id, box)``; reads bypass the WAL."""
        return self._inner.iter_objects()

    # ------------------------------------------------------------------
    # Logged mutations
    # ------------------------------------------------------------------
    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        """Insert one object; durable once the call returns."""
        object_id = int(object_id)
        self._validate_new(object_id, obj)
        position = self._shard_for_new(object_id, obj)
        self._logged_apply(
            position,
            lambda wal: wal.append_insert(object_id, obj.lows, obj.highs),
            lambda: self._inner.insert(object_id, obj),
        )

    def delete(self, object_id: int) -> bool:
        """Remove one object; the removal is durable once the call returns."""
        object_id = int(object_id)
        position = self._shard_owning(object_id)
        if position is None:
            return False
        removed: List[bool] = []
        self._logged_apply(
            position,
            lambda wal: wal.append_delete(object_id),
            lambda: removed.append(self._targets()[position].delete(object_id)),
        )
        return removed[0]

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        """Insert a batch; one WAL record per touched shard, staged if > 1."""
        pairs = [(int(object_id), box) for object_id, box in objects]
        if not pairs:
            return 0
        seen: Set[int] = set()
        for object_id, box in pairs:
            self._validate_new(object_id, box, batch_seen=seen)
            seen.add(object_id)
        groups = self._partition_new(pairs)
        involved = [position for position, group in enumerate(groups) if group]
        if len(involved) == 1:
            position = involved[0]
            group = groups[position]
            ids, lows, highs = _stack_pairs(group)
            loaded: List[int] = []
            self._logged_apply(
                position,
                lambda wal: wal.append_bulk_load(ids, lows, highs),
                lambda: loaded.append(self._targets()[position].bulk_load(group)),
            )
            return loaded[0]
        gid = self._stage_pending(
            "bulk_load",
            {
                "ids": [object_id for object_id, _ in pairs],
                "lows": [box.lows.tolist() for _, box in pairs],
                "highs": [box.highs.tolist() for _, box in pairs],
            },
        )
        for position in involved:
            ids, lows, highs = _stack_pairs(groups[position])
            self._append(position, lambda wal: wal.append_bulk_load(ids, lows, highs, gid=gid))
        self._sync_wals(involved)
        total = 0
        for position in involved:
            total += int(self._targets()[position].bulk_load(groups[position]))
        self._finish_pending()
        return total

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Remove a batch; one WAL record per owning shard, staged if > 1."""
        doomed = [int(object_id) for object_id in object_ids]
        groups: List[List[int]] = [[] for _ in self._wals]
        for object_id in doomed:
            position = self._shard_owning(object_id)
            if position is not None:
                groups[position].append(object_id)
        involved = [position for position, group in enumerate(groups) if group]
        if not involved:
            return 0
        if len(involved) == 1:
            position = involved[0]
            group = groups[position]
            removed: List[int] = []
            self._logged_apply(
                position,
                lambda wal: wal.append_delete_bulk(group),
                lambda: removed.append(int(self._targets()[position].delete_bulk(group))),
            )
            return removed[0]
        gid = self._stage_pending("delete_bulk", {"ids": [i for g in groups for i in g]})
        for position in involved:
            group = groups[position]
            self._append(position, lambda wal: wal.append_delete_bulk(group, gid=gid))
        self._sync_wals(involved)
        total = 0
        for position in involved:
            total += int(self._targets()[position].delete_bulk(groups[position]))
        self._finish_pending()
        return total

    def reorganize(self) -> object:
        """Run the backend's reorganization pass, logged as a marker record."""
        self.capabilities.require("reorganization")
        if isinstance(self._inner, ShardedDatabase):
            involved = [
                position
                for position, shard in enumerate(self._inner.shards)
                if shard.capabilities.supports_reorganization
            ]
        else:
            involved = [0]
        if len(involved) == 1:
            report: List[object] = []
            self._logged_apply(
                involved[0],
                lambda wal: wal.append_reorganize(),
                lambda: report.append(self._inner.reorganize()),
            )
            return report[0]
        gid = self._stage_pending("reorganize", {})
        for position in involved:
            self._append(position, lambda wal: wal.append_reorganize(gid=gid))
        self._sync_wals(involved)
        result = self._inner.reorganize()
        self._finish_pending()
        return result

    # ------------------------------------------------------------------
    # Query execution (pass-through)
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Execute a workload on the wrapped backend (reads are not logged)."""
        return self._inner.execute_batch(queries, relation)

    # ------------------------------------------------------------------
    # Snapshot persistence (pass-through; unrelated to the WAL machinery)
    # ------------------------------------------------------------------
    def snapshot(self) -> object:
        """The wrapped backend's structural snapshot."""
        # repro-lint: disable=RL002 -- create() requires "persistence", so the inner supports it
        return self._inner.snapshot()

    def save(self, path: "str | Path", include_statistics: bool = True) -> Path:
        """Plain (non-WAL) snapshot of the wrapped backend to *path*."""
        # repro-lint: disable=RL002 -- create() requires "persistence", so the inner supports it
        return self._inner.save(path, include_statistics=include_statistics)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Commit an atomic checkpoint and reset the WALs to the new cut.

        Protocol (the order is the correctness argument):

        1. commit each shard into its persistent paged store with pruning
           deferred — only the pages of clusters whose contents changed
           since the last cut are appended;
        2. atomically replace ``CHECKPOINT.json`` — **the commit point** —
           recording each store's generation, each WAL's LSN cut and
           ``next_gid``;
        3. reset each WAL (atomic rename) to start at its cut;
        4. prune the superseded store generations.

        A crash before step 2 leaves the previous manifest, whose store
        generations are still intact (recovery rolls each store back to
        the generation the manifest names), plus full WALs; a crash after
        it leaves the new generations plus WALs whose stale records
        (``lsn < cut``) are filtered on replay.  Either way recovery sees a
        consistent cut.  Process-hosted shards commit inside their
        workers.  Returns the first store's directory.
        """
        seq = self._seq + 1
        targets = self._targets()
        previous = self._stores or [None] * len(targets)
        cuts = [wal.next_lsn for wal in self._wals]
        stores = [
            commit_store(target, self._wal_dir / _store_name(position), fs=self._fs, store=store)
            for position, (target, store) in enumerate(zip(targets, previous))
        ]
        self._stores = stores
        self._fs.barrier("checkpoint-payload")
        manifest: Dict[str, Any] = {
            "format_version": DURABILITY_FORMAT_VERSION,
            "seq": seq,
            "layout": CHECKPOINT_LAYOUT,
            "dimensions": self._inner.dimensions,
            "n_objects": self._inner.n_objects,
            "next_gid": self._next_gid,
            "stores": [
                {"directory": store.directory.name, "generation": store.generation}
                for store in stores
            ],
            "wals": [
                {"file": wal.path.name, "lsn": cut}
                for wal, cut in zip(self._wals, cuts)
            ],
        }
        if isinstance(self._inner, ShardedDatabase):
            manifest["router"] = self._inner.router.manifest()
        self._fs.write_file(
            self._wal_dir / CHECKPOINT_MANIFEST_NAME,
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
        )
        self._seq = seq
        for wal, cut in zip(self._wals, cuts):
            wal.reset(cut)
        for store in stores:
            store.prune()
        self.stats.checkpoints += 1
        return stores[0].directory

    # ------------------------------------------------------------------
    # Group commit
    # ------------------------------------------------------------------
    @contextmanager
    def group_commit(self) -> Iterator["DurableBackend"]:
        """Defer WAL fsyncs to the end of the block (one per touched log).

        Mutations inside the block are applied (and visible) immediately
        but acknowledged as durable only when the block exits.  Staged
        multi-shard operations keep their immediate fsyncs — the pending
        protocol's ordering guarantees depend on them.  Nesting is allowed;
        the outermost block flushes.
        """
        self._group_depth += 1
        try:
            yield self
        finally:
            self._group_depth -= 1
            if self._group_depth == 0 and self._touched:
                touched, self._touched = self._touched, set()
                if self._fsync:
                    for position in sorted(touched):
                        self._wals[position].sync()
                    self.stats.syncs += 1
                self._after_sync(sorted(touched))

    def sync(self) -> None:
        """Force every buffered WAL record to stable storage now."""
        for wal in self._wals:
            wal.sync()
        self._touched.clear()
        self.stats.syncs += 1
        self._after_sync(range(len(self._wals)))

    def close(self) -> None:
        """Flush and close the WAL handles (and the inner scatter pool)."""
        for wal in self._wals:
            if self._fsync:
                wal.sync()
            wal.close()
        inner_close = getattr(self._inner, "close", None)
        if callable(inner_close):
            inner_close()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _targets(self) -> Sequence[SpatialBackend]:
        """Apply targets aligned with the WALs: the shards, or the backend."""
        if isinstance(self._inner, ShardedDatabase):
            return self._inner.shards
        return (self._inner,)

    def _shard_for_new(self, object_id: int, obj: HyperRectangle) -> int:
        if isinstance(self._inner, ShardedDatabase):
            return self._inner.router.shard_of(object_id, obj)
        return 0

    def _shard_owning(self, object_id: int) -> Optional[int]:
        if isinstance(self._inner, ShardedDatabase):
            return self._inner.owner_of(object_id)
        return 0 if object_id in self._inner else None

    def _partition_new(
        self, pairs: Sequence[Tuple[int, HyperRectangle]]
    ) -> List[List[Tuple[int, HyperRectangle]]]:
        groups: List[List[Tuple[int, HyperRectangle]]] = [[] for _ in self._wals]
        for object_id, box in pairs:
            groups[self._shard_for_new(object_id, box)].append((object_id, box))
        return groups

    def _validate_new(
        self,
        object_id: int,
        obj: HyperRectangle,
        batch_seen: Optional[Set[int]] = None,
    ) -> None:
        """Mirror the backend's own rejection rules *before* logging.

        A record is appended only for an operation the backend will accept;
        otherwise replay could fail on a record the live backend rejected.
        """
        if obj.dimensions != self.dimensions:
            raise ValueError(
                f"object has {obj.dimensions} dimensions, database expects "
                f"{self.dimensions}"
            )
        # Durable databases hold AC indexes only (persistence), and those
        # refuse objects outside the unit domain.
        check_unit_domain(object_id, obj)
        if (batch_seen is not None and object_id in batch_seen) or object_id in self._inner:
            raise KeyError(f"object {object_id} is already stored")

    def _append(self, position: int, append: Callable[[WriteAheadLog], int]) -> None:
        append(self._wals[position])
        self.stats.appends += 1

    def _sync_wals(self, positions: Sequence[int]) -> None:
        if self._fsync:
            for position in positions:
                self._wals[position].sync()
            self.stats.syncs += 1
        self._after_sync(positions)

    def _commit(self, position: int) -> None:
        if self._group_depth:
            self._touched.add(position)
            return
        if self._fsync:
            self._wals[position].sync()
            self.stats.syncs += 1
        self._after_sync((position,))

    def _after_sync(self, positions: Iterable[int]) -> None:
        """Hook: the WALs at *positions* just reached their acknowledgement point.

        Called after the fsync (or, with ``fsync=False``, at the moment the
        fsync would have been issued) of a single-record commit, a staged
        multi-shard operation, an explicit :meth:`sync` and the outermost
        :meth:`group_commit` exit — exactly the points where the backend is
        about to acknowledge the covered operations as durable.  The
        replication layer overrides this to ship the freshly durable frames
        to followers (and, in semi-sync mode, to wait for their
        acknowledgement) *before* the caller's acknowledgement resolves.
        The base implementation does nothing.
        """

    def _logged_apply(
        self,
        position: int,
        append: Callable[[WriteAheadLog], int],
        apply: Callable[[], object],
    ) -> None:
        """Single-record operation: append, apply, commit — atomic by framing.

        If the apply step fails despite pre-validation, the appended record
        is rolled back (truncated) so the log never contains an operation
        the backend rejected.
        """
        wal = self._wals[position]
        size, lsn = wal.size, wal.next_lsn
        self._append(position, append)
        try:
            apply()
        except BaseException:
            wal.rollback_to(size, lsn)
            raise
        self._commit(position)

    def __deepcopy__(self, memo: Dict[int, object]) -> "DurableBackend":
        """An independent durable copy in a fresh scratch directory.

        WAL handles are not copyable and two writers must never share a
        directory, so the copy deep-copies the wrapped backend and commits
        it as a new durable store under a temp directory (removed when the
        copy is garbage-collected).  Used by equivalence tests and benches
        that mirror a database before running two workloads against it.
        """
        inner_copy = _copy.deepcopy(self._inner, memo)
        scratch = Path(tempfile.mkdtemp(prefix="repro-durable-copy-"))
        duplicate = type(self).create(
            inner_copy,
            scratch / "wal",
            fs=REAL_FS,
            fsync=self._fsync,
        )
        # repro-lint: disable=RL001 -- GC cleanup of a scratch copy, not a durability commit path
        weakref.finalize(duplicate, shutil.rmtree, str(scratch), True)
        return duplicate

    def _stage_pending(self, op: str, payload: Dict[str, object]) -> int:
        gid = self._next_gid
        self._next_gid += 1
        record = {
            "format_version": DURABILITY_FORMAT_VERSION,
            "gid": gid,
            "op": op,
            **payload,
        }
        self._fs.write_file(
            self._wal_dir / PENDING_OP_NAME,
            (json.dumps(record) + "\n").encode("utf-8"),
        )
        return gid

    def _finish_pending(self) -> None:
        self._fs.remove(self._wal_dir / PENDING_OP_NAME)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"DurableBackend(inner={self._inner!r}, wal_dir={str(self._wal_dir)!r}, "
            f"seq={self._seq})"
        )


# ----------------------------------------------------------------------
# Recovery helpers
# ----------------------------------------------------------------------
def _wal_file_name(position: int) -> str:
    return f"wal-{position:03d}.log"


def open_checkpoint(
    wal_dir: Path, manifest: Dict[str, Any], *, fs: FileSystem, resync: bool
) -> Tuple[SpatialBackend, List["PagedStore"]]:
    """Reopen the page stores a checkpoint manifest names.

    Each store opens at the generation the manifest committed.  With
    *resync* (recovery) it is also rolled back there — a crash between a
    store commit and the manifest leaves the store ahead, never behind; a
    follower, whose stores hold exactly the shipped generation, opens
    without writing.  Shards load lazily: WAL replay and the
    post-recovery checkpoint only materialize what they touch.
    """
    from repro.storage.pagefile import PagedStore

    layout = manifest.get("layout")
    if layout != CHECKPOINT_LAYOUT:
        raise ValueError(
            f"unsupported checkpoint layout {layout!r}; this version reads "
            f"only {CHECKPOINT_LAYOUT!r} checkpoints"
        )
    entries = manifest.get("stores")
    if not isinstance(entries, list) or not entries:
        raise ValueError("corrupt checkpoint manifest: paged layout names no stores")
    stores: List[PagedStore] = []
    backends: List[SpatialBackend] = []
    for entry in entries:
        if not isinstance(entry, dict) or "directory" not in entry or "generation" not in entry:
            raise ValueError(
                "corrupt checkpoint manifest: paged store entry lacks "
                "directory/generation"
            )
        directory = wal_dir / str(entry["directory"])
        store = PagedStore.open_generation(
            directory, int(entry["generation"]), fs=fs, resync=resync
        )
        stores.append(store)
        backends.append(store.load_index(lazy=True))
    router_data = manifest.get("router")
    if router_data is not None:
        if not isinstance(router_data, dict):
            raise ValueError("corrupt checkpoint manifest: malformed router entry")
        inner: SpatialBackend = ShardedDatabase(
            backends, router=router_from_manifest(router_data, len(backends))
        )
    elif len(backends) == 1:
        inner = backends[0]
    else:
        raise ValueError(
            "corrupt checkpoint manifest: multiple paged stores but no router"
        )
    return inner, stores


def read_manifest(wal_dir: Path) -> Dict[str, Any]:
    manifest_path = wal_dir / CHECKPOINT_MANIFEST_NAME
    if not manifest_path.is_file():
        raise ValueError(
            f"{wal_dir} is not a durable database directory: no "
            f"{CHECKPOINT_MANIFEST_NAME}"
        )
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise ValueError(f"corrupt checkpoint manifest {manifest_path}: {error}") from error
    if manifest.get("format_version") != DURABILITY_FORMAT_VERSION:
        raise ValueError(
            f"unsupported checkpoint manifest format: "
            f"{manifest.get('format_version')!r}"
        )
    return dict(manifest)


def read_pending(wal_dir: Path) -> Optional[Dict[str, Any]]:
    pending_path = wal_dir / PENDING_OP_NAME
    if not pending_path.is_file():
        return None
    try:
        pending = json.loads(pending_path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        # The pending record is written atomically (temp + fsync + rename),
        # so a torn one cannot result from a crash — only external damage.
        raise ValueError(f"corrupt pending-operation record {pending_path}: {error}") from error
    return dict(pending)


def replay_record(backend: SpatialBackend, record: WalRecord) -> None:
    """Replay one WAL record against its shard (or the plain backend)."""
    if record.opcode == OP_INSERT:
        assert record.lows is not None and record.highs is not None
        backend.insert(
            record.object_ids[0], HyperRectangle(record.lows[0], record.highs[0])
        )
    elif record.opcode == OP_DELETE:
        backend.delete(record.object_ids[0])
    elif record.opcode == OP_BULK_LOAD:
        assert record.lows is not None and record.highs is not None
        backend.bulk_load(
            (object_id, HyperRectangle(low, high))
            for object_id, low, high in zip(record.object_ids, record.lows, record.highs)
        )
    elif record.opcode == OP_DELETE_BULK:
        # repro-lint: disable=RL002 -- replay: the op was capability-checked before being logged
        backend.delete_bulk(list(record.object_ids))
    elif record.opcode == OP_REORGANIZE:
        # repro-lint: disable=RL002 -- replay: the op was capability-checked before being logged
        backend.reorganize()
    else:
        raise ValueError(f"unknown WAL opcode in record {record.lsn}: {record.opcode}")


def replay_pending(inner: SpatialBackend, pending: Dict[str, Any]) -> None:
    """Re-apply a staged multi-shard operation whole, through normal routing."""
    op = str(pending.get("op"))
    if op == "bulk_load":
        ids = pending["ids"]
        lows = pending["lows"]
        highs = pending["highs"]
        assert isinstance(ids, list) and isinstance(lows, list) and isinstance(highs, list)
        inner.bulk_load(
            (int(object_id), HyperRectangle(np.asarray(low), np.asarray(high)))
            for object_id, low, high in zip(ids, lows, highs)
        )
    elif op == "delete_bulk":
        ids = pending["ids"]
        assert isinstance(ids, list)
        # repro-lint: disable=RL002 -- replay: the op was capability-checked before being staged
        inner.delete_bulk(int(object_id) for object_id in ids)
    elif op == "reorganize":
        # repro-lint: disable=RL002 -- replay: the op was capability-checked before being staged
        inner.reorganize()
    else:
        raise ValueError(f"unknown staged operation: {op!r}")


def _stack_pairs(
    pairs: Sequence[Tuple[int, HyperRectangle]],
) -> Tuple[List[int], np.ndarray, np.ndarray]:
    ids = [object_id for object_id, _ in pairs]
    lows = np.stack([box.lows for _, box in pairs])
    highs = np.stack([box.highs for _, box in pairs])
    return ids, lows, highs
