"""Sharded scatter-gather database over registry-created backends.

One :class:`~repro.api.protocol.SpatialBackend` can only grow as far as one
process core and one snapshot carry it.  :class:`ShardedDatabase`
composes *N* independent backends — homogeneous (``["ac", "ac"]``) or mixed
(``["ac", "rs"]``) — behind the same backend surface, so everything written
against the protocol (the :class:`~repro.api.database.Database` facade, the
streaming matcher, the evaluation harness) serves a partitioned object set
without noticing:

* **routing** — a pluggable :class:`ShardRouter` assigns every object to
  exactly one shard.  :class:`HashShardRouter` (the default) mixes the
  object identifier through a 64-bit finalizer for an even spread;
  :class:`SpatialShardRouter` stripes the domain into equal-width grid
  slices and routes by box centroid, keeping spatially close objects on the
  same shard.
* **scatter-gather** — ``execute_batch`` sends the whole workload to
  *every* shard (``execute`` is its one-query case), runs the shards
  serially in-process or, with ``execution="process"``, in worker
  processes that all read one shared-memory query table, and gathers the
  shards' :class:`~repro.api.protocol.PackedResults` with array operations
  into one result per query: identifiers in canonical ascending order,
  work counters summed element-wise.  Sharding is invisible: the merged
  identifier sets are byte-identical to an unsharded backend holding the
  same objects, and the
  merged counters are exactly the sum of what the shards report
  individually (``tests/test_backend_protocol.py`` pins both).
* **per-shard persistence** — ``save`` writes one directory holding a JSON
  manifest (shard count, router, per-shard statistics and store
  generations) plus one paged store per shard
  (:mod:`repro.storage.pagefile`); :meth:`ShardedDatabase.open` validates
  the manifest and fails with a clean :class:`ValueError` on a missing or
  corrupt shard store instead of a traceback.
"""

from __future__ import annotations

import heapq
import json
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.api.protocol import (
    COST_COUNTERS,
    BackendBase,
    Capabilities,
    PackedResults,
    QueryResult,
    SpatialBackend,
)
from repro.api.executor import ProcessShardExecutor
from repro.api.registry import create_backend
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.storage.wal import REAL_FS, FileSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.iostats import IOStatistics
    from repro.storage.pagefile import PagedStore

#: File name of the shard directory manifest inside a sharded snapshot.
SHARD_MANIFEST_NAME = "manifest.json"

#: Version tag written into every shard manifest (bump on layout changes).
#: Version 2: every shard is a paged store opened at a recorded generation.
SHARD_MANIFEST_VERSION = 2

#: Bounded window of recently executed query boxes the database retains for
#: the tuning advisor's what-if replay (:meth:`ShardedDatabase.recent_queries`).
RECENT_QUERY_WINDOW = 256

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: spreads consecutive identifiers evenly."""
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


# ----------------------------------------------------------------------
# Routers
# ----------------------------------------------------------------------
class ShardRouter(ABC):
    """Assigns every object to exactly one shard.

    A router is a pure function of the object (identifier and box): the
    same object always routes to the same shard, so deletes and duplicate
    checks can find it again.  Routers serialise themselves into the shard
    manifest (:meth:`manifest`) so a reopened database routes identically.
    """

    #: Manifest tag of the router implementation ("hash", "spatial").
    kind: str = "abstract"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("a sharded database needs at least one shard")
        self._n_shards = int(n_shards)

    @property
    def n_shards(self) -> int:
        """Number of shards this router distributes over."""
        return self._n_shards

    @abstractmethod
    def shard_of(self, object_id: int, box: HyperRectangle) -> int:
        """Shard index of an object being inserted."""

    def shard_of_id(self, object_id: int) -> Optional[int]:
        """Shard index derivable from the identifier alone, or ``None``.

        Routers that partition on the identifier (hash) answer directly so
        deletes skip the membership probe; spatial routers return ``None``
        and the database locates the owner by probing the shards.
        """
        return None

    def manifest(self) -> Dict[str, object]:
        """JSON-serialisable description, inverted by :func:`router_from_manifest`."""
        return {"kind": self.kind}

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"{type(self).__name__}(n_shards={self._n_shards})"


class HashShardRouter(ShardRouter):
    """Identifier-hash partitioning: mixed 64-bit hash modulo shard count."""

    kind = "hash"

    def shard_of(self, object_id: int, box: HyperRectangle) -> int:
        return _mix64(int(object_id)) % self._n_shards

    def shard_of_id(self, object_id: int) -> Optional[int]:
        return _mix64(int(object_id)) % self._n_shards


class SpatialShardRouter(ShardRouter):
    """Grid partitioning: equal-width slices of one dimension, by centroid.

    Objects whose centroid falls in the same slice of *dimension* land on
    the same shard, preserving spatial locality (queries touching a small
    region mostly hit one shard's clusters).  Centroids outside the unit
    domain are clamped into the boundary slices.
    """

    kind = "spatial"

    def __init__(self, n_shards: int, dimension: int = 0) -> None:
        super().__init__(n_shards)
        if dimension < 0:
            raise ValueError("dimension must be non-negative")
        self._dimension = int(dimension)

    @property
    def dimension(self) -> int:
        """The dimension whose centroid coordinate selects the shard."""
        return self._dimension

    def shard_of(self, object_id: int, box: HyperRectangle) -> int:
        if self._dimension >= box.dimensions:
            raise ValueError(
                f"spatial router stripes dimension {self._dimension}, box has "
                f"only {box.dimensions}"
            )
        coordinate = float(box.center[self._dimension])
        slice_index = int(coordinate * self._n_shards)
        return min(max(slice_index, 0), self._n_shards - 1)

    def manifest(self) -> Dict[str, object]:
        return {"kind": self.kind, "dimension": self._dimension}


#: ``factory(n_shards, manifest_data)`` builds a router from its manifest.
_ROUTER_KINDS: Dict[str, Callable[[int, Dict[str, object]], ShardRouter]] = {
    "hash": lambda n_shards, data: HashShardRouter(n_shards),
    "spatial": lambda n_shards, data: SpatialShardRouter(
        n_shards, dimension=int(data.get("dimension", 0))
    ),
}


def create_router(kind: "ShardRouter | str", n_shards: int) -> ShardRouter:
    """Build a router by manifest tag ("hash", "spatial"), or pass one through."""
    if isinstance(kind, ShardRouter):
        if kind.n_shards != n_shards:
            raise ValueError(
                f"router distributes over {kind.n_shards} shards, database "
                f"has {n_shards}"
            )
        return kind
    return router_from_manifest({"kind": str(kind)}, n_shards)


def router_from_manifest(data: Dict[str, object], n_shards: int) -> ShardRouter:
    """Rebuild a :class:`ShardRouter` from its :meth:`~ShardRouter.manifest`."""
    kind = str(data.get("kind", ""))
    factory = _ROUTER_KINDS.get(kind)
    if factory is None:
        raise ValueError(
            f"unknown shard router {kind!r}; known routers: "
            f"{', '.join(sorted(_ROUTER_KINDS))}"
        )
    return factory(n_shards, data)


# ----------------------------------------------------------------------
# Snapshot and storage descriptors
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardedSnapshot:
    """Read-only description of a sharded database (persistence introspection)."""

    #: Router manifest tag ("hash", "spatial").
    router_kind: str
    #: Objects per shard, in shard order.
    shard_sizes: Tuple[int, ...]
    #: The shards' own structural snapshots, in shard order.
    shards: Tuple[object, ...] = field(default_factory=tuple)

    @property
    def n_shards(self) -> int:
        return len(self.shard_sizes)

    @property
    def n_objects(self) -> int:
        return sum(self.shard_sizes)

    def as_dict(self) -> Dict[str, object]:
        """Flatten the snapshot for reporting / JSON (harness contract)."""
        return {
            "router": self.router_kind,
            "n_shards": self.n_shards,
            "n_objects": self.n_objects,
            "shards": [
                shard.as_dict() if hasattr(shard, "as_dict") else {"n_objects": size}
                for shard, size in zip(self.shards, self.shard_sizes)
            ],
        }


class ShardedStorageView:
    """Read-only aggregate over the shards' storage backends.

    Advertising ``supports_persistence`` commits a backend to exposing a
    ``storage`` attribute with I/O statistics (see the contract on
    :class:`~repro.api.protocol.Capabilities`); the evaluation harness
    reports ``storage.stats`` and ``storage.io_time_ms`` for persistable
    backends.  The composite view sums the member shards' counters.
    """

    def __init__(self, shards: Sequence[SpatialBackend]) -> None:
        self._shards = list(shards)

    @property
    def stats(self) -> "IOStatistics":
        """Element-wise sum of every shard's I/O statistics."""
        from repro.storage.iostats import IOStatistics

        total = IOStatistics()
        for shard in self._shards:
            total = total.merge(shard.storage.stats)  # type: ignore[attr-defined]
        return total

    @property
    def io_time_ms(self) -> float:
        """Summed modeled I/O time across the shards."""
        return float(
            sum(shard.storage.io_time_ms for shard in self._shards)  # type: ignore[attr-defined]
        )


@dataclass(frozen=True)
class ShardWorkloadAccount:
    """What one shard has been asked to do since the last account reset.

    Accumulated at gather time by :class:`ShardedDatabase`, one account per
    shard position, so per-shard attribution survives the element-wise
    counter merge of scatter-gather (the merged view in each
    :class:`~repro.api.protocol.QueryResult` sums the shards and cannot be
    un-mixed afterwards).  The tuning advisor reads these accounts to
    characterise each shard's query/churn mix.
    """

    #: Queries scattered to the shard (every query reaches every shard).
    queries: int = 0
    #: Objects the router placed on the shard (``insert`` + ``bulk_load``).
    inserts: int = 0
    #: Objects removed from the shard (``delete`` + ``delete_bulk``).
    deletes: int = 0
    #: Element-wise sum of the shard's own :class:`QueryExecution` records.
    execution: QueryExecution = field(default_factory=QueryExecution)

    def with_queries(self, count: int, execution: QueryExecution) -> "ShardWorkloadAccount":
        """This account plus *count* queries whose counters sum to *execution*."""
        return ShardWorkloadAccount(
            self.queries + int(count), self.inserts, self.deletes, self.execution.merge(execution)
        )

    def with_churn(self, inserts: int = 0, deletes: int = 0) -> "ShardWorkloadAccount":
        """This account plus a batch of routed mutations."""
        return replace(
            self, inserts=self.inserts + int(inserts), deletes=self.deletes + int(deletes)
        )

    def as_dict(self) -> Dict[str, object]:
        """Flatten the account for reporting / JSON."""
        return {
            "queries": self.queries,
            "inserts": self.inserts,
            "deletes": self.deletes,
            "execution": self.execution.as_dict(),
        }


# ----------------------------------------------------------------------
# The sharded database
# ----------------------------------------------------------------------
class ShardedDatabase(BackendBase):
    """N registry-created backends behind one ``SpatialBackend`` surface.

    Satisfies the full backend protocol, so it slots everywhere a single
    backend does: ``Database(ShardedDatabase.create("ac", 16, shards=4))``
    gives the facade (and its streaming sessions) a partitioned object set.

    Parameters
    ----------
    shards:
        The member backends.  All must satisfy the protocol and agree on
        dimensionality.
    router:
        A :class:`ShardRouter` (whose shard count must match) or a manifest
        tag ("hash", "spatial").
    execution:
        ``"thread"`` (default) keeps the shards in-process and queries
        them one after another.  ``"process"`` hosts each shard in its own
        worker process behind a
        :class:`~repro.api.executor.ProcessShardExecutor`: queries fan out
        to every worker at once through a shared-memory table, and results
        are still gathered in shard order, so merged output is
        byte-identical to the serial path.
    """

    CAPABILITIES = Capabilities(name="sharded", label="SH")

    def __init__(
        self,
        shards: Sequence[SpatialBackend],
        router: "ShardRouter | str" = "hash",
        *,
        execution: str = "thread",
    ) -> None:
        shard_list = list(shards)
        if not shard_list:
            raise ValueError("a sharded database needs at least one shard")
        for position, shard in enumerate(shard_list):
            if not isinstance(shard, SpatialBackend):
                raise TypeError(
                    f"shard {position} does not satisfy the SpatialBackend "
                    "protocol; see repro.api.protocol"
                )
        dimensions = shard_list[0].dimensions
        for position, shard in enumerate(shard_list):
            if shard.dimensions != dimensions:
                raise ValueError(
                    f"shard {position} has {shard.dimensions} dimensions, "
                    f"shard 0 has {dimensions}"
                )
        if execution not in ("thread", "process"):
            raise ValueError(
                f"unknown execution mode {execution!r}; use 'thread' or 'process'"
            )
        self._execution = execution
        self._process_executor: Optional[ProcessShardExecutor] = None
        if execution == "process":
            self._process_executor = ProcessShardExecutor(shard_list)
            shard_list = self._process_executor.proxies
        self._shards: List[SpatialBackend] = shard_list
        self._dimensions = int(dimensions)
        self._router = create_router(router, len(shard_list))
        #: Per-shard read delegates (replication read routing); empty by
        #: default, so plain sharded databases behave exactly as before.
        self._read_delegates: Dict[int, Callable[[], Optional[SpatialBackend]]] = {}
        #: Per-position workload accounts (gather-time attribution) and the
        #: bounded ring of recent query boxes the tuning advisor replays.
        self._accounts: List[ShardWorkloadAccount] = [
            ShardWorkloadAccount() for _ in shard_list
        ]
        self._recent_queries: Deque[HyperRectangle] = deque(maxlen=RECENT_QUERY_WINDOW)
        self._capabilities = self._derive_capabilities()

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        methods: "str | Sequence[str]",
        dimensions: int,
        *,
        shards: Optional[int] = None,
        router: "ShardRouter | str" = "hash",
        cost: Optional[object] = None,
        config: Optional[object] = None,
        execution: str = "thread",
    ) -> "ShardedDatabase":
        """Create empty shards through the backend registry.

        *methods* is either one registry name replicated over *shards*
        backends (``create("ac", 16, shards=4)``) or an explicit per-shard
        sequence, possibly mixed (``create(["ac", "ac", "rs"], 16)``).
        """
        if isinstance(methods, str):
            names = [methods] * (shards if shards is not None else 1)
        else:
            names = list(methods)
            if shards is not None and shards != len(names):
                raise ValueError(
                    f"shards={shards} disagrees with {len(names)} method names"
                )
        if not names:
            raise ValueError("a sharded database needs at least one shard")
        backends = [
            create_backend(name, dimensions, cost=cost, config=config)  # type: ignore[arg-type]
            for name in names
        ]
        return cls(backends, router=router, execution=execution)

    @classmethod
    def open(
        cls,
        path: "str | Path",
        *,
        execution: str = "thread",
    ) -> "ShardedDatabase":
        """Recover a sharded database from a directory written by :meth:`save`.

        Each shard's paged store opens lazily at the generation the
        manifest names — never at its own superblock, which a save that
        crashed before its manifest commit may have moved ahead.  Raises a
        clean :class:`ValueError` (never a traceback from the storage
        layer) when the manifest is corrupt, references a missing shard
        store, disagrees with the stored shard count, or a shard store
        itself fails to load.
        """
        from repro.storage.pagefile import PagedStore

        path = Path(path)
        if not path.exists():
            raise FileNotFoundError(f"no sharded snapshot at {path}")
        manifest_path = path / SHARD_MANIFEST_NAME
        if not manifest_path.is_file():
            raise ValueError(
                f"{path} is not a sharded-database snapshot: no "
                f"{SHARD_MANIFEST_NAME}"
            )
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ValueError(f"corrupt shard manifest {manifest_path}: {error}") from error
        if manifest.get("format_version") != SHARD_MANIFEST_VERSION:
            raise ValueError(
                "unsupported shard manifest format: "
                f"{manifest.get('format_version')!r}"
            )
        entries = manifest.get("shards")
        shard_count = manifest.get("shard_count")
        if not isinstance(entries, list) or not entries:
            raise ValueError(f"corrupt shard manifest {manifest_path}: no shard entries")
        if shard_count != len(entries):
            raise ValueError(
                f"corrupt shard manifest {manifest_path}: shard_count "
                f"{shard_count!r} disagrees with {len(entries)} shard entries"
            )
        shards: List[SpatialBackend] = []
        for position, entry in enumerate(entries):
            if not isinstance(entry, dict) or "store" not in entry or "generation" not in entry:
                raise ValueError(
                    f"corrupt shard manifest {manifest_path}: shard entry "
                    f"{position} names no store generation"
                )
            directory = path / str(entry["store"])
            if not directory.is_dir():
                raise ValueError(
                    f"missing shard snapshot {directory.name} (shard "
                    f"{position} of {len(entries)}) in {path}"
                )
            try:
                store = PagedStore.open_generation(directory, int(entry["generation"]))
                shard = store.load_index(lazy=True)
            except Exception as error:
                raise ValueError(
                    f"corrupt shard snapshot {directory.name} (shard "
                    f"{position} of {len(entries)}): {error}"
                ) from error
            recorded = entry.get("n_objects")
            if recorded is not None and int(recorded) != shard.n_objects:
                raise ValueError(
                    f"corrupt shard snapshot {directory.name}: manifest "
                    f"records {recorded} objects, snapshot holds "
                    f"{shard.n_objects}"
                )
            shards.append(shard)
        router_data = manifest.get("router")
        if not isinstance(router_data, dict):
            raise ValueError(f"corrupt shard manifest {manifest_path}: no router entry")
        router = router_from_manifest(router_data, len(shards))
        return cls(shards, router=router, execution=execution)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def capabilities(self) -> Capabilities:
        """Capabilities derived from the member shards (see :meth:`_derive_capabilities`)."""
        return self._capabilities

    @property
    def shards(self) -> Tuple[SpatialBackend, ...]:
        """The member backends, in shard order."""
        return tuple(self._shards)

    @property
    def n_shards(self) -> int:
        """Number of member shards."""
        return len(self._shards)

    @property
    def execution(self) -> str:
        """Execution mode: ``"thread"`` (in-process) or ``"process"``."""
        return self._execution

    @property
    def router(self) -> ShardRouter:
        """The router assigning objects to shards."""
        return self._router

    @property
    def dimensions(self) -> int:
        """Dimensionality of the data space."""
        return self._dimensions

    @property
    def n_objects(self) -> int:
        """Total number of stored objects across all shards."""
        return sum(shard.n_objects for shard in self._shards)

    @property
    def n_groups(self) -> int:
        """Total number of explorable groups across all shards."""
        return sum(shard.n_groups for shard in self._shards)

    def __len__(self) -> int:
        return self.n_objects

    def __contains__(self, object_id: int) -> bool:
        owner = self._router.shard_of_id(int(object_id))
        if owner is not None:
            return int(object_id) in self._shards[owner]
        return any(int(object_id) in shard for shard in self._shards)

    def _derive_capabilities(self) -> Capabilities:
        """One descriptor for the composite, derived from the members.

        Persistence and bulk deletion need every shard to play along (a
        half-persistable database cannot be recovered); reorganization is
        meaningful as soon as one shard adapts.  The composite populates
        the union of the members' cost counters.
        """
        members = [shard.capabilities for shard in self._shards]
        populated = {name for caps in members for name in caps.cost_counters}
        return Capabilities(
            name="sharded[" + ",".join(caps.name for caps in members) + "]",
            label="SH",
            supports_delete_bulk=all(caps.supports_delete_bulk for caps in members),
            supports_persistence=all(caps.supports_persistence for caps in members),
            supports_reorganization=any(caps.supports_reorganization for caps in members),
            cost_counters=tuple(name for name in COST_COUNTERS if name in populated),
        )

    # ------------------------------------------------------------------
    # Lifecycle (routed)
    # ------------------------------------------------------------------
    def _validate_box(self, box: HyperRectangle) -> None:
        if box.dimensions != self._dimensions:
            raise ValueError(
                f"object has {box.dimensions} dimensions, database expects "
                f"{self._dimensions}"
            )

    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        """Insert one object into the shard the router assigns it to.

        The duplicate check spans every shard: a spatial router would route
        a re-inserted identifier with a different box to a different shard,
        which must fail exactly like the single-backend re-insert does.
        """
        object_id = int(object_id)
        self._validate_box(obj)
        if object_id in self:
            raise KeyError(f"object {object_id} is already stored")
        target = self._router.shard_of(object_id, obj)
        self._shards[target].insert(object_id, obj)
        self._accounts[target] = self._accounts[target].with_churn(inserts=1)

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        """Partition a batch by the router and bulk-load every shard once."""
        pairs = [(int(object_id), box) for object_id, box in objects]
        if not pairs:
            return 0
        seen: set = set()
        for object_id, box in pairs:
            self._validate_box(box)
            if object_id in seen or object_id in self:
                raise KeyError(f"object {object_id} is already stored")
            seen.add(object_id)
        groups: List[List[Tuple[int, HyperRectangle]]] = [[] for _ in self._shards]
        for object_id, box in pairs:
            groups[self._router.shard_of(object_id, box)].append((object_id, box))
        loaded = 0
        for position, group in enumerate(groups):
            if group:
                loaded += self._shards[position].bulk_load(group)
                self._accounts[position] = self._accounts[position].with_churn(
                    inserts=len(group)
                )
        return loaded

    def owner_of(self, object_id: int) -> Optional[int]:
        """Shard index currently holding *object_id*, or ``None`` when absent.

        Hash-routed identifiers resolve directly; spatial routers locate
        the owner by membership probe.  The durability layer uses this to
        route deletion records into the owning shard's write-ahead log.
        """
        owner = self._router.shard_of_id(object_id)
        if owner is not None:
            return owner if object_id in self._shards[owner] else None
        for position, shard in enumerate(self._shards):
            if object_id in shard:
                return position
        return None

    def delete(self, object_id: int) -> bool:
        """Remove one object from its owning shard; ``False`` when absent."""
        owner = self.owner_of(int(object_id))
        if owner is None:
            return False
        removed = self._shards[owner].delete(int(object_id))
        if removed:
            self._accounts[owner] = self._accounts[owner].with_churn(deletes=1)
        return removed

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Group a deletion batch by owning shard, one bulk delete per shard."""
        groups: List[List[int]] = [[] for _ in self._shards]
        for object_id in object_ids:
            owner = self.owner_of(int(object_id))
            if owner is not None:
                groups[owner].append(int(object_id))
        removed = 0
        for position, group in enumerate(groups):
            if group:
                count = int(self._shards[position].delete_bulk(group))
                removed += count
                self._accounts[position] = self._accounts[position].with_churn(deletes=count)
        return removed

    def reorganize(self) -> List[object]:
        """Run the reorganization pass of every shard that supports one."""
        self.capabilities.require("reorganization")
        return [
            shard.reorganize()
            for shard in self._shards
            if shard.capabilities.supports_reorganization
        ]

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        """Every stored object as ``(id, box)`` in ascending-id order.

        Identifiers live on exactly one shard and every shard enumerates
        ascending, so a lazy k-way merge yields the global order without
        materialising the database.
        """
        return heapq.merge(
            *(shard.iter_objects() for shard in self._shards),
            key=lambda pair: pair[0],
        )

    # ------------------------------------------------------------------
    # Workload accounting and live shard migration
    # ------------------------------------------------------------------
    def workload_accounts(self) -> Tuple[ShardWorkloadAccount, ...]:
        """Per-shard workload accounts, in shard order.

        Accounts are frozen snapshots: each scatter/mutation replaces the
        stored account, so the returned tuple is stable even while the
        database keeps serving.
        """
        return tuple(self._accounts)

    def recent_queries(self) -> Tuple[HyperRectangle, ...]:
        """The most recent query boxes (bounded window, oldest first).

        Every query scatters to every shard, so one ring serves all
        positions; the tuning advisor replays these against candidate
        designs.
        """
        return tuple(self._recent_queries)

    def reset_workload_accounts(self) -> None:
        """Zero every workload account and drop the recent-query window."""
        self._accounts = [ShardWorkloadAccount() for _ in self._shards]
        self._recent_queries.clear()

    def migrate_shard(
        self,
        position: int,
        method: str,
        *,
        cost: Optional[object] = None,
        config: Optional[object] = None,
    ) -> SpatialBackend:
        """Rebuild shard *position* live on a new backend; returns the old one.

        The shard is drained through :meth:`SpatialBackend.iter_objects`
        (deterministic ascending-id order), bulk-loaded into a fresh
        registry-created backend, and swapped in place.  The router is
        untouched — migration changes how one partition is *indexed*, never
        how objects are *placed* — so merged query results are
        byte-identical before and after, and identical to a shard rebuilt
        from scratch with the same pairs (the migration-equivalence test
        pins both).  The shard's workload account is kept: it describes
        the partition's traffic, not the backend serving it.

        Raises :class:`ValueError` when *position* is out of range and
        :class:`RuntimeError` when the replacement backend reports a
        different object count after the load (the swap does not happen;
        the old shard keeps serving).
        """
        if not 0 <= position < len(self._shards):
            raise ValueError(
                f"shard position {position} out of range for {len(self._shards)} shards"
            )
        old = self._shards[position]
        replacement = create_backend(
            method,
            self._dimensions,
            cost=cost,  # type: ignore[arg-type]
            config=config,  # type: ignore[arg-type]
        )
        loaded = replacement.bulk_load(old.iter_objects())
        if loaded != old.n_objects or replacement.n_objects != old.n_objects:
            raise RuntimeError(  # pragma: no cover - defensive
                f"migration of shard {position} loaded {loaded} of "
                f"{old.n_objects} objects"
            )
        if self._process_executor is not None:
            # Swap the worker slot; the returned shard is the replaced
            # worker's state materialized as a plain in-process backend.
            migrated = self._process_executor.replace(position, replacement)
            self._shards[position] = self._process_executor.proxies[position]
        else:
            self._shards[position] = replacement
            migrated = old
        # A read delegate replicates the *old* backend; routing reads to it
        # after the swap would serve the pre-migration structure.
        self._read_delegates.pop(position, None)
        self._capabilities = self._derive_capabilities()
        return migrated

    # ------------------------------------------------------------------
    # Scatter-gather query execution
    # ------------------------------------------------------------------
    def set_read_delegate(
        self, position: int, provider: Callable[[], Optional[SpatialBackend]]
    ) -> None:
        """Route shard *position*'s share of **reads** to a delegate backend.

        *provider* is consulted at scatter time and returns the delegate —
        typically a caught-up read replica of the shard — or ``None`` to
        fall back to the local shard (read-your-writes: a provider must
        return ``None`` whenever its replica lags the primary).  Mutations,
        reorganization and persistence always run on the local shards;
        only ``execute`` / ``execute_batch`` scatter to delegates.
        """
        if not 0 <= position < len(self._shards):
            raise ValueError(
                f"shard position {position} out of range for {len(self._shards)} shards"
            )
        self._read_delegates[int(position)] = provider

    def clear_read_delegates(self) -> None:
        """Drop every read delegate; reads scatter to the local shards again."""
        self._read_delegates.clear()

    def _read_targets(self) -> List[SpatialBackend]:
        """The per-position backends queries scatter to (delegates applied).

        The local shard list itself comes back unless some provider
        substitutes a delegate, so process mode keeps its shared-memory
        fan-out while every replica lags.
        """
        targets = self._shards
        for position, provider in self._read_delegates.items():
            delegate = provider()
            if delegate is not None:
                if targets is self._shards:
                    targets = list(self._shards)
                targets[position] = delegate
        return targets

    def close(self) -> None:
        """Release execution resources: in process mode, every shard
        worker process (joined).  Idempotent."""
        if self._process_executor is not None:
            self._process_executor.close()

    def __deepcopy__(self, memo: Dict[int, object]) -> "ShardedDatabase":
        """Deep-copy the shards and router.  In process mode each shard
        proxy materializes to a plain in-process backend, so the copy
        always runs in thread mode."""
        import copy as _copy

        return ShardedDatabase(
            [_copy.deepcopy(shard, memo) for shard in self._shards],
            router=_copy.deepcopy(self._router, memo),
        )

    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Scatter a whole workload to every shard and gather per query."""
        parsed = SpatialRelation.parse(relation)
        query_list = list(queries)
        for query in query_list:
            if query.dimensions != self._dimensions:
                raise ValueError(
                    f"query has {query.dimensions} dimensions, database "
                    f"expects {self._dimensions}"
                )
        if not query_list:
            return []
        targets = self._read_targets()
        if self._process_executor is not None and targets is self._shards:
            # Shared-memory fan-out: one request to every worker at once.
            parts = self._process_executor.execute_batch_all(query_list, parsed)
        else:
            parts = [
                PackedResults.pack(shard.execute_batch(query_list, parsed))
                for shard in targets
            ]
        for position, part in enumerate(parts):
            # A shard answering for fewer queries would shift every later
            # query's results in the gather, so it is an error.
            if part.n_queries != len(query_list):
                raise RuntimeError(
                    f"shard {position} returned {part.n_queries} results for "
                    f"{len(query_list)} queries"
                )
            self._accounts[position] = self._accounts[position].with_queries(
                len(query_list), part.total()
            )
        self._recent_queries.extend(query_list)
        return PackedResults.gather(parts).unpack()

    # ------------------------------------------------------------------
    # Persistence (capability-gated)
    # ------------------------------------------------------------------
    @property
    def storage(self) -> ShardedStorageView:
        """Aggregate I/O view over the shards (persistence contract).

        Raises :class:`~repro.api.protocol.UnsupportedOperation` unless
        every shard is persistable — exactly when ``supports_persistence``
        is advertised, which is what commits a backend to this attribute.
        """
        self.capabilities.require("persistence")
        return ShardedStorageView(self._shards)

    def snapshot(self) -> ShardedSnapshot:
        """Structural snapshot: router kind plus every shard's own snapshot."""
        self.capabilities.require("persistence")
        return ShardedSnapshot(
            router_kind=self._router.kind,
            shard_sizes=tuple(shard.n_objects for shard in self._shards),
            shards=tuple(shard.snapshot() for shard in self._shards),
        )

    def save(
        self,
        path: "str | Path",
        include_statistics: bool = True,
        *,
        fs: FileSystem = REAL_FS,
    ) -> Path:
        """Write (or incrementally update) one paged store per shard.

        *path* becomes a directory: ``manifest.json`` records the shard
        count, the router, per-shard statistics and each
        ``shard_NNN.pages`` store's committed generation.  The first save
        writes every page; later saves into the same *path* append only
        the pages of clusters whose contents changed.  Recover with
        :meth:`open` (or :meth:`repro.api.Database.open`, which dispatches
        on the manifest).

        The manifest is the single commit point.  Every store commits its
        new generation with pruning deferred, then the manifest is
        atomically replaced to name those generations, and only then are
        superseded generations pruned.  A crash anywhere mid-save leaves
        the manifest naming complete generations (the previous ones, or
        none at all for a first save).  Process-hosted shards commit
        inside their workers.
        """
        self.capabilities.require("persistence")
        path = Path(path)
        fs.mkdir(path)
        stores = [
            commit_store(
                shard,
                path / f"shard_{position:03d}.pages",
                include_statistics=include_statistics,
                fs=fs,
            )
            for position, shard in enumerate(self._shards)
        ]
        manifest = {
            "format_version": SHARD_MANIFEST_VERSION,
            "kind": "sharded-database",
            "dimensions": self._dimensions,
            "shard_count": len(self._shards),
            "router": self._router.manifest(),
            "include_statistics": include_statistics,
            "shards": [
                {
                    "store": store.directory.name,
                    "generation": store.generation,
                    "method": shard.capabilities.name,
                    "n_objects": shard.n_objects,
                    "n_groups": shard.n_groups,
                }
                for store, shard in zip(stores, self._shards)
            ],
        }
        fs.barrier("sharded-save-commit")
        fs.write_file(
            path / SHARD_MANIFEST_NAME,
            (json.dumps(manifest, indent=2) + "\n").encode("utf-8"),
        )
        for store in stores:
            store.prune()
        return path

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardedDatabase(shards={self.n_shards}, "
            f"router={self._router.kind!r}, objects={self.n_objects})"
        )


def is_sharded_snapshot(path: "str | Path") -> bool:
    """True when *path* is a directory written by :meth:`ShardedDatabase.save`."""
    return (Path(path) / SHARD_MANIFEST_NAME).is_file()


def commit_store(
    shard: SpatialBackend,
    directory: Path,
    *,
    include_statistics: bool = True,
    fs: FileSystem = REAL_FS,
    store: "Optional[PagedStore]" = None,
) -> "PagedStore":
    """Commit *shard* as the next generation of its paged store, unpruned.

    The caller's own manifest is the commit point, so the superseded
    generation stays on disk until the caller prunes the returned store.
    An in-process adaptive index commits through *store* (default: the
    store at *directory*) and the *fs* seam.  Any other persistable shard
    — a process-hosted one — commits through its own ``save``, inside its
    worker.
    """
    from repro.core.index import AdaptiveClusteringIndex
    from repro.storage.pagefile import PagedStore, open_store

    # repro-lint: disable=RL003 -- not probing capability: an in-process index commits
    # through the caller's fs seam, which a worker-hosted shard's save cannot reach
    if isinstance(shard, AdaptiveClusteringIndex):
        if store is None:
            store = open_store(directory, fs=fs)
        store.commit(shard, include_statistics=include_statistics, prune=False)
        return store
    # repro-lint: disable=RL002 -- callers gated supports_persistence
    shard.save(directory, include_statistics=include_statistics, prune=False)  # type: ignore[call-arg]
    return PagedStore.open(directory, fs=fs)
