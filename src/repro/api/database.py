"""The ``Database`` facade: one handle over backend, persistence, streaming.

The paper's system picture — a subscription database served by an adaptive
access method — involves three collaborating pieces in this repository: a
:class:`~repro.api.protocol.SpatialBackend` holding the objects, the
paged-store persistence layer (for backends that advertise it) and the
:class:`~repro.engine.StreamingMatcher` serving loop.  ``Database``
composes them behind a single object::

    from repro.api import Database

    db = Database.create("ac", dimensions=16)
    db.bulk_load(pairs)
    result = db.execute(query, "intersects")   # QueryResult: ids + counters
    db.save("subscriptions.db")                # paged store; capability-gated

    session = db.session()                     # attached StreamingMatcher
    session.publish(1, event_box)

Operations a backend does not advertise raise
:class:`~repro.api.protocol.UnsupportedOperation` instead of failing with
an :class:`AttributeError` deep inside duck-typed code.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.protocol import Capabilities, QueryResult, SpatialBackend
from repro.api.registry import build_backend_for_dataset, create_backend
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.config import AutoTuneOptions, DatabaseConfig
    from repro.api.sharding import ShardedDatabase, ShardRouter
    from repro.core.cost_model import CostParameters
    from repro.engine.matcher import MatchRecord, StreamingConfig, StreamingMatcher
    from repro.storage import StorageBackend
    from repro.tuning.advisor import TuningRecommendation
    from repro.workloads.datasets import Dataset


class Database:
    """A spatial database: a backend plus persistence and streaming sessions.

    Construct one around an existing backend, or use the classmethod
    constructors: :meth:`from_config` (the canonical one — builds whatever
    a validated :class:`~repro.api.config.DatabaseConfig` describes),
    :meth:`create` / :meth:`from_dataset` (keyword shims over it) and
    :meth:`attach` (reopen any on-disk layout, sniffing which it is).
    """

    def __init__(
        self,
        backend: SpatialBackend,
        *,
        auto_tune: "Optional[AutoTuneOptions]" = None,
    ) -> None:
        if not isinstance(backend, SpatialBackend):
            raise TypeError(
                "backend does not satisfy the SpatialBackend protocol; "
                "see repro.api.protocol"
            )
        self._backend = backend
        self._auto_tune = auto_tune
        self._closed = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: "DatabaseConfig",
        dataset: "Optional[Dataset]" = None,
    ) -> "Database":
        """Build the database a :class:`~repro.api.config.DatabaseConfig` describes.

        This is the canonical constructor: the config has already validated
        every cross-option rule (sharding options, durability, replication),
        so this method only assembles — registry backend(s), optional
        :class:`~repro.api.sharding.ShardedDatabase` composition, optional
        :class:`~repro.api.durability.DurableBackend` /
        :class:`~repro.api.replication.ReplicatedBackend` wrapping, and
        socket attachment of any configured replica peers.

        With *dataset* the backend is pre-loaded (and the dataset's
        dimensionality wins over ``config.dimensions``); the load is
        captured by the initial checkpoint, not logged op by op.
        """
        dimensions = dataset.dimensions if dataset is not None else config.dimensions
        backend: SpatialBackend
        if config.sharded:
            from repro.api.sharding import ShardedDatabase

            method = config.method if isinstance(config.method, str) else list(config.method)
            backend = ShardedDatabase.create(
                method,
                dimensions,
                shards=config.shards,
                router=config.router,
                cost=config.cost,
                config=config.backend_config,
                max_workers=config.max_workers,
                execution=config.execution,
            )
            if dataset is not None:
                backend.bulk_load(dataset.iter_objects())
        else:
            assert isinstance(config.method, str)  # non-str method implies sharded
            if dataset is not None:
                backend = build_backend_for_dataset(
                    config.method, dataset, config.cost, config.backend_config
                )
            else:
                backend = create_backend(
                    config.method, dimensions, cost=config.cost, config=config.backend_config
                )
        if config.replication is not None:
            from repro.api.replication import ReplicatedBackend, SocketTransport

            if config.replication.role != "primary":
                raise ValueError(
                    "from_config builds primaries; run a follower as a "
                    "ReplicaNode behind a ReplicaServer and promote its "
                    "directory with Database.attach()"
                )
            assert config.wal_dir is not None  # validated by DatabaseConfig
            replicated = ReplicatedBackend.create(
                backend, config.wal_dir, fsync=config.fsync, mode=config.replication.mode
            )
            for address in config.replication.parsed_peers():
                replicated.attach_replica(SocketTransport(address))
            backend = replicated
        elif config.wal_dir is not None:
            from repro.api.durability import DurableBackend

            backend = DurableBackend.create(backend, config.wal_dir, fsync=config.fsync)
        return cls(backend, auto_tune=config.auto_tune)

    @classmethod
    def create(
        cls,
        method: "str | Sequence[str]",
        dimensions: int,
        *,
        cost: "Optional[CostParameters]" = None,
        config: Optional[object] = None,
        shards: Optional[int] = None,
        router: "ShardRouter | str" = "hash",
        max_workers: Optional[int] = None,
        execution: str = "thread",
        durable: bool = False,
        wal_dir: "str | Path | None" = None,
    ) -> "Database":
        """Create an empty database over the backend registered as *method*.

        Passing ``shards`` (or a sequence of method names) builds a
        :class:`~repro.api.sharding.ShardedDatabase` composing one
        registry-created backend per shard behind the same facade::

            db = Database.create("ac", 16, shards=4, router="spatial")

        Passing ``durable=True`` (with a ``wal_dir``) — or a ``wal_dir``
        alone — wraps the backend in a
        :class:`~repro.api.durability.DurableBackend`: every mutation is
        write-ahead logged (one WAL per shard) and survives a crash;
        reopen with :meth:`recover` and checkpoint with
        :meth:`checkpoint` (an incremental paged-store commit, see
        :mod:`repro.storage.pagefile`).  Durability requires a persistable
        backend.

        This is a keyword shim over :meth:`from_config`, which validates
        the option combination in one place.
        """
        from repro.api.config import DatabaseConfig

        return cls.from_config(
            DatabaseConfig(
                method=method if isinstance(method, str) else tuple(method),
                dimensions=dimensions,
                shards=shards,
                router=router,
                max_workers=max_workers,
                execution=execution,
                cost=cost,
                backend_config=config,
                durable=durable,
                wal_dir=None if wal_dir is None else Path(wal_dir),
            )
        )

    @classmethod
    def from_dataset(
        cls,
        method: str,
        dataset: "Dataset",
        *,
        cost: "Optional[CostParameters]" = None,
        config: Optional[object] = None,
        shards: Optional[int] = None,
        router: "ShardRouter | str" = "hash",
        max_workers: Optional[int] = None,
        execution: str = "thread",
        durable: bool = False,
        wal_dir: "str | Path | None" = None,
    ) -> "Database":
        """Create a database pre-loaded with *dataset*.

        With ``shards >= 2`` the dataset is routed into a
        :class:`~repro.api.sharding.ShardedDatabase` of that many
        *method* backends (each shard bulk-loads its partition with its
        own loading strategy); otherwise the backend's registered dataset
        loader runs, the way the evaluation harness loads.  ``durable=True``
        / ``wal_dir=`` wraps the loaded backend the way :meth:`create`
        does (the load itself is captured by the initial checkpoint, not
        logged operation by operation).

        This is a keyword shim over :meth:`from_config`; ``shards=1``
        keeps its historical meaning of "unsharded".
        """
        from repro.api.config import DatabaseConfig

        return cls.from_config(
            DatabaseConfig(
                method=method,
                dimensions=dataset.dimensions,
                shards=shards if shards is not None and shards > 1 else None,
                router=router,
                max_workers=max_workers,
                execution=execution,
                cost=cost,
                backend_config=config,
                durable=durable,
                wal_dir=None if wal_dir is None else Path(wal_dir),
            ),
            dataset,
        )

    @classmethod
    def attach(cls, path: "str | Path") -> "Database":
        """Reopen whatever database layout lives at *path*.

        Sniffs the on-disk layout and delegates to the matching
        constructor, in order:

        1. a **replica directory** (``REPLICA.json`` marker left by a
           WAL-shipping follower) is *promoted* — the marker is removed
           and the node recovers as a fresh primary, truncating any torn
           unacknowledged WAL suffix;
        2. a **durable directory** (``CHECKPOINT.json`` manifest) reopens
           via :meth:`recover` — checkpoint load plus WAL replay;
        3. a **sharded snapshot** (shard ``manifest.json``) reopens as a
           :class:`~repro.api.sharding.ShardedDatabase`;
        4. anything else must be a **paged store** (``SUPERBLOCK``)
           written by :meth:`save`; it reopens lazily — cluster members
           load on first access.

        :meth:`open` and :meth:`recover` remain as documented delegates
        for callers that know their layout and want a mismatch to fail
        loudly instead of being sniffed around.
        """
        target = Path(path)
        if not target.exists():
            raise FileNotFoundError(f"no database at {target}")
        from repro.api.replication import is_replica_directory, promote

        if is_replica_directory(target):
            return cls(promote(target))
        from repro.api.durability import CHECKPOINT_MANIFEST_NAME

        if (target / CHECKPOINT_MANIFEST_NAME).is_file():
            return cls.recover(target)
        return cls.open(target)

    @classmethod
    def open(cls, path: "str | Path", storage: "Optional[StorageBackend]" = None) -> "Database":
        """Recover a database from a snapshot written by :meth:`save`.

        Dispatches on the snapshot layout: a directory holding a shard
        manifest reopens as a :class:`~repro.api.sharding.ShardedDatabase`;
        a paged store (``SUPERBLOCK`` present) reopens lazily through
        :class:`~repro.storage.pagefile.PagedStore`.  Snapshots are
        written only by backends advertising ``supports_persistence``
        (currently the adaptive clustering index), so the recovered
        backend is always persistable.

        This is the snapshot-layout delegate of :meth:`attach`; unlike
        ``attach`` it refuses durable directories (use :meth:`recover`).
        """
        from repro.api.sharding import ShardedDatabase, is_sharded_snapshot

        if is_sharded_snapshot(path):
            if storage is not None:
                raise ValueError(
                    "storage cannot be overridden when opening a sharded "
                    "snapshot; each shard restores its own storage backend"
                )
            return cls(ShardedDatabase.open(path))
        from repro.api.durability import CHECKPOINT_MANIFEST_NAME

        if (Path(path) / CHECKPOINT_MANIFEST_NAME).is_file():
            raise ValueError(
                f"{path} is a durable database directory; reopen it with "
                "Database.recover()"
            )
        from repro.storage.pagefile import PagedStore

        if not Path(path).exists():
            raise FileNotFoundError(f"no database snapshot at {path}")
        # Lazy open: cluster member arrays stay on disk until the first
        # query (or mutation) touches their cluster.
        return cls(PagedStore.open(path).load_index(storage, lazy=True))

    @classmethod
    def recover(cls, wal_dir: "str | Path") -> "Database":
        """Recover a durable database (checkpoint + WAL replay) from *wal_dir*.

        Loads the newest complete checkpoint, replays the write-ahead log
        tails (truncating torn trailing records), completes any staged
        multi-shard operation, and returns a facade over a
        :class:`~repro.api.durability.DurableBackend` that keeps logging
        into the same directory.  See :mod:`repro.api.durability` for the
        crash-equivalence contract.

        This is the durable-layout delegate of :meth:`attach`.
        """
        from repro.api.durability import DurableBackend

        return cls(DurableBackend.recover(wal_dir))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> SpatialBackend:
        """The wrapped access method."""
        return self._backend

    @property
    def capabilities(self) -> Capabilities:
        """The backend's capability descriptor."""
        return self._backend.capabilities

    @property
    def dimensions(self) -> int:
        """Dimensionality of the data space."""
        return self._backend.dimensions

    @property
    def n_objects(self) -> int:
        """Number of stored objects."""
        return self._backend.n_objects

    @property
    def n_groups(self) -> int:
        """Number of explorable groups (clusters / tree nodes / 1)."""
        return self._backend.n_groups

    def __len__(self) -> int:
        return len(self._backend)

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._backend

    # ------------------------------------------------------------------
    # Lifecycle (delegated)
    # ------------------------------------------------------------------
    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        """Insert one object."""
        self._backend.insert(object_id, obj)

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        """Insert many objects at once; returns the number loaded."""
        return self._backend.bulk_load(objects)

    def delete(self, object_id: int) -> bool:
        """Remove one object; ``False`` when it was not stored."""
        return self._backend.delete(object_id)

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Remove a batch of objects; returns the number actually removed."""
        # repro-lint: disable=RL002 -- facade delegation: the backend raises UnsupportedOperation
        return self._backend.delete_bulk(object_ids)

    def reorganize(self) -> object:
        """Run the backend's reorganization pass (capability-gated)."""
        # repro-lint: disable=RL002 -- facade delegation: the backend raises UnsupportedOperation
        return self._backend.reorganize()

    # ------------------------------------------------------------------
    # Query execution (delegated)
    # ------------------------------------------------------------------
    def execute(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> QueryResult:
        """Execute one query; returns ids plus execution counters."""
        return self._backend.execute(query, relation)

    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Execute a workload; one :class:`QueryResult` per query."""
        return self._backend.execute_batch(queries, relation)

    def query(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> np.ndarray:
        """Execute one query and return the matching object ids."""
        return self._backend.query(query, relation)

    def query_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[np.ndarray]:
        """Execute a workload and return one identifier array per query."""
        return self._backend.query_batch(queries, relation)

    # ------------------------------------------------------------------
    # Persistence (capability-gated)
    # ------------------------------------------------------------------
    def save(self, path: "str | Path", include_statistics: bool = True) -> Path:
        """Write (or incrementally update) a paged snapshot at *path*.

        The first save creates a page store (see
        :mod:`repro.storage.pagefile`); later saves into the same path
        write only the pages of clusters whose contents changed.  A
        sharded database writes one store per shard behind a
        ``manifest.json`` commit point (see :meth:`ShardedDatabase.save
        <repro.api.sharding.ShardedDatabase.save>`).  Reopen with
        :meth:`open` / :meth:`attach` — the stores load lazily, fetching
        each cluster's member arrays on first access.

        Raises :class:`~repro.api.protocol.UnsupportedOperation` for
        backends that do not advertise ``supports_persistence`` (see that
        contract on :class:`~repro.api.protocol.Capabilities`).
        """
        # repro-lint: disable=RL002 -- facade delegation: the backend raises UnsupportedOperation
        return self._backend.save(path, include_statistics=include_statistics)

    def snapshot(self) -> object:
        """Structural snapshot of a persistable backend (capability-gated)."""
        # repro-lint: disable=RL002 -- facade delegation: the backend raises UnsupportedOperation
        return self._backend.snapshot()

    def checkpoint(self) -> Path:
        """Commit an atomic durability checkpoint and reset the WALs.

        Only meaningful for durable databases (created with
        ``durable=True`` / ``wal_dir=`` or reopened via :meth:`recover`);
        raises :class:`~repro.api.protocol.UnsupportedOperation` otherwise.
        """
        from repro.api.durability import DurableBackend
        from repro.api.protocol import UnsupportedOperation

        if not isinstance(self._backend, DurableBackend):
            raise UnsupportedOperation(
                "checkpoint() requires a durable database; create one with "
                "Database.create(..., durable=True, wal_dir=...)"
            )
        return self._backend.checkpoint()

    @property
    def durable(self) -> bool:
        """True when mutations are write-ahead logged (crash-consistent)."""
        from repro.api.durability import DurableBackend

        return isinstance(self._backend, DurableBackend)

    @property
    def replicated(self) -> bool:
        """True when the WAL can stream to follower replicas."""
        from repro.api.replication import ReplicatedBackend

        return isinstance(self._backend, ReplicatedBackend)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run (queries may still work but are unsupported)."""
        return self._closed

    def close(self) -> None:
        """Release everything the backend stack holds open.

        Cascades through whatever composition :meth:`from_config` built —
        durability wrappers sync and close their WAL handles, a sharded
        database shuts down its thread pool and joins any worker
        processes.  Idempotent: calling it twice (or after ``with``-block
        exit already closed the database) is a no-op, matching the
        ``close()`` discipline of the wrapped layers.
        """
        if self._closed:
            return
        self._closed = True
        closer = getattr(self._backend, "close", None)
        if callable(closer):
            closer()

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Workload-aware per-shard tuning
    # ------------------------------------------------------------------
    @property
    def auto_tune(self) -> "Optional[AutoTuneOptions]":
        """The advisor options this database was configured with, if any."""
        return self._auto_tune

    def _sharded_backend(self, operation: str) -> "ShardedDatabase":
        """The underlying :class:`ShardedDatabase`, unwrapping durability.

        Raises :class:`~repro.api.protocol.UnsupportedOperation` when the
        backend is not sharded — per-shard tuning has nothing to tune on a
        single backend.
        """
        from repro.api.durability import DurableBackend
        from repro.api.protocol import UnsupportedOperation
        from repro.api.sharding import ShardedDatabase

        target = self._backend
        # repro-lint: disable=RL003 -- unwrapping the durability decorator, not probing capability
        if isinstance(target, DurableBackend):
            target = target.inner
        # repro-lint: disable=RL003 -- dispatching on the sharded composite, not probing capability
        if not isinstance(target, ShardedDatabase):
            raise UnsupportedOperation(
                f"{operation} requires a sharded database; create one with "
                "Database.create(..., shards=N)"
            )
        return target

    def advise(
        self,
        *,
        options: "Optional[AutoTuneOptions]" = None,
        cost: "Optional[CostParameters]" = None,
        queries: Optional[Sequence[HyperRectangle]] = None,
    ) -> "TuningRecommendation":
        """Run the workload-aware tuning advisor over the shards (report-only).

        Uses *options* when given, else the config's ``auto_tune`` options,
        else the advisor defaults.  The recommendation is never applied
        automatically — inspect the report, then call :meth:`migrate_shard`
        (or ``repro tune-bench``) for the shards worth moving.
        """
        from repro.api.config import AutoTuneOptions
        from repro.tuning.advisor import advise as run_advisor

        target = self._sharded_backend("advise()")
        settings = options or self._auto_tune or AutoTuneOptions()
        return run_advisor(
            target,
            methods=settings.methods,
            division_factors=settings.division_factors,
            reorganization_periods=settings.reorganization_periods,
            cost=cost,
            queries=queries,
            sample_objects=settings.sample_objects,
            sample_queries=settings.sample_queries,
            warmup_queries=settings.warmup_queries,
        )

    def migrate_shard(
        self,
        position: int,
        method: str,
        *,
        cost: Optional[object] = None,
        config: Optional[object] = None,
    ) -> SpatialBackend:
        """Rebuild one shard live on a new backend; returns the old backend.

        Delegates to :meth:`ShardedDatabase.migrate_shard
        <repro.api.sharding.ShardedDatabase.migrate_shard>`: the shard is
        drained in deterministic order, bulk-loaded into a fresh registry
        backend and swapped in place with the router untouched.  Durable
        and replicated databases refuse — their WAL and checkpoints
        describe the wrapped shards, so a swap behind the log would
        diverge from what recovery rebuilds.
        """
        from repro.api.durability import DurableBackend
        from repro.api.protocol import UnsupportedOperation

        # repro-lint: disable=RL003 -- guarding the durability seam, not probing capability
        if isinstance(self._backend, DurableBackend):
            raise UnsupportedOperation(
                "migrate_shard() on a durable database would swap a shard "
                "behind its write-ahead log; checkpoint, migrate the plain "
                "sharded database, then re-attach durability"
            )
        target = self._sharded_backend("migrate_shard()")
        return target.migrate_shard(position, method, cost=cost, config=config)

    # ------------------------------------------------------------------
    # Streaming sessions
    # ------------------------------------------------------------------
    def session(
        self,
        config: "Optional[StreamingConfig]" = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
        on_match: "Optional[Callable[[MatchRecord], None]]" = None,
    ) -> "StreamingMatcher":
        """Attach a :class:`~repro.engine.StreamingMatcher` serving session.

        The session shares the database's backend: subscriptions
        registered through it are visible to direct queries and vice
        versa.  Any number of sessions can be attached; they all serve the
        same subscription set.
        """
        from repro.engine.matcher import StreamingMatcher

        return StreamingMatcher(self._backend, config=config, clock=clock, on_match=on_match)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Database(method={self.capabilities.name!r}, "
            f"objects={self.n_objects}, groups={self.n_groups})"
        )
