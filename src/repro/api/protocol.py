"""The formal backend contract: protocol, capabilities and result types.

Every access method in the library — the adaptive clustering index and the
two baselines — implements the same lifecycle: objects are inserted (one at
a time or in bulk), deleted (ditto) and queried (one query or a whole
workload at once).  Before this module existed the contract was informal:
each backend grew a near-identical ``query`` / ``query_with_stats`` /
``query_batch(_with_stats)`` surface by convention, and callers probed it
with ``hasattr`` / ``isinstance`` checks.

This module makes the contract explicit:

* :class:`SpatialBackend` — a :class:`typing.Protocol` (runtime checkable)
  naming the full lifecycle.  Anything that satisfies it can be driven by
  the evaluation harness, the streaming matcher and the
  :class:`~repro.api.database.Database` facade.
* :class:`QueryResult` — the unified stats-returning query result: the
  matching object identifiers plus the :class:`QueryExecution` work
  counters.  It replaced the parallel ``*_with_stats`` tuple methods,
  which have since been removed; ``QueryResult`` tuple-unpacks
  (``ids, execution = backend.execute(...)``) so the old call shape still
  reads naturally.
* :class:`Capabilities` — a static descriptor of what a backend supports
  (bulk deletion, persistence, reorganization) and which cost-model
  counters it populates, so callers feature-detect instead of
  ``isinstance``-checking concrete classes.
* :class:`BackendBase` — an ABC mixin deriving the convenience surface
  (``query``, ``query_batch``) from the two primitives a backend must
  implement: :meth:`execute` and :meth:`execute_batch`.
"""

from __future__ import annotations

import itertools
import operator
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    ClassVar,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

#: Counter names a :class:`QueryExecution` may populate (the cost-model
#: inputs; ``wall_time_ms`` is a measurement, not a counter), in the order
#: of its fields: :class:`PackedResults` passes them positionally.
COST_COUNTERS: Tuple[str, ...] = (
    "signature_checks",
    "groups_explored",
    "objects_verified",
    "results",
    "bytes_read",
    "random_accesses",
)

_core_counters = operator.attrgetter(*COST_COUNTERS)


class UnsupportedOperation(RuntimeError):
    """An operation the backend's :class:`Capabilities` do not advertise."""


@dataclass(frozen=True, eq=False)
class QueryResult:
    """The unified result of one executed query.

    A named carrier for the two things every query produces: the matching
    object identifiers and the work counters the cost model consumes.
    Tuple-unpackable (``ids, execution = backend.execute(...)``), which is
    also how the call sites of the removed ``query_with_stats`` /
    ``query_batch_with_stats`` tuple methods migrated.

    ``eq=False``: the generated field-tuple ``__eq__`` would raise on the
    ndarray field (ambiguous array truth value), so results compare by
    identity; compare contents with ``np.array_equal(a.ids, b.ids)``.
    """

    #: Identifiers of the matching objects.
    ids: np.ndarray
    #: Work counters of the execution (cost-model inputs).
    execution: QueryExecution = field(default_factory=QueryExecution)

    def __len__(self) -> int:
        return int(self.ids.size)

    def __iter__(self) -> Iterator[object]:
        """Tuple-compatibility: ``ids, execution = backend.execute(...)``."""
        yield self.ids
        yield self.execution

    def sorted_ids(self) -> np.ndarray:
        """The matching identifiers in canonical ascending order (a copy)."""
        return np.sort(self.ids)


class PackedResults(NamedTuple):
    """A batch of :class:`QueryResult`\\ s as four arrays.

    The form a query batch takes across every boundary it crosses: a
    process shard worker's reply, the scatter-gather merge of
    :class:`~repro.api.sharding.ShardedDatabase` and the serving wire
    reply.  Query *i*'s identifiers are ``ids[offsets[i]:offsets[i + 1]]``,
    its :data:`COST_COUNTERS` are ``counters[i]`` and its measured wall
    time is ``wall_ms[i]``.
    """

    #: Every query's identifiers, int64, in query order.
    ids: np.ndarray
    #: ``(m + 1,)`` int64 bounds of each query's identifiers in *ids*.
    offsets: np.ndarray
    #: ``(m, len(COST_COUNTERS))`` int64 work counters, one row per query.
    counters: np.ndarray
    #: ``(m,)`` float64 wall-clock milliseconds per query.
    wall_ms: np.ndarray

    @property
    def n_queries(self) -> int:
        """Number of queries *m* the pack holds."""
        return int(self.wall_ms.shape[0])

    @classmethod
    def pack(cls, results: Sequence[QueryResult]) -> "PackedResults":
        """Pack per-query results, in order."""
        sizes = [result.ids.size for result in results]
        offsets = np.array([0, *itertools.accumulate(sizes)], dtype=np.int64)
        if results:
            ids = np.concatenate([result.ids for result in results]).astype(np.int64, copy=False)
        else:
            ids = np.empty(0, dtype=np.int64)
        executions = [result.execution for result in results]
        counters = np.array(
            [_core_counters(execution) for execution in executions], dtype=np.int64
        ).reshape(len(results), len(COST_COUNTERS))
        wall_ms = np.array([execution.wall_time_ms for execution in executions], dtype=np.float64)
        return cls(ids, offsets, counters, wall_ms)

    def unpack(self) -> List[QueryResult]:
        """One :class:`QueryResult` per query; their ids view :attr:`ids`."""
        bounds = self.offsets.tolist()
        return [
            QueryResult(ids=self.ids[start:stop], execution=QueryExecution(*row, wall_time_ms=wall))
            for start, stop, row, wall in zip(
                bounds, bounds[1:], self.counters.tolist(), self.wall_ms.tolist()
            )
        ]

    def total(self) -> QueryExecution:
        """The element-wise sum of every query's counters and wall time."""
        return QueryExecution(
            *self.counters.sum(axis=0).tolist(), wall_time_ms=float(self.wall_ms.sum())
        )

    @classmethod
    def gather(cls, parts: Sequence["PackedResults"]) -> "PackedResults":
        """Merge the packs several shards returned for one batch.

        Per query: the union of the shards' identifiers in ascending order
        (an identifier lives on one shard, so the union is a
        concatenation) and the element-wise sum of their counters.
        ``wall_ms`` therefore sums shard work, not scatter wall-clock time.
        """
        count = parts[0].n_queries
        ids = np.concatenate([part.ids for part in parts])
        if count == 1:
            # A one-query batch (``execute``) needs no per-query sort keys.
            ids.sort()
        else:
            queries = np.arange(count)
            owner = np.concatenate(
                [np.repeat(queries, part.offsets[1:] - part.offsets[:-1]) for part in parts]
            )
            ids = ids[np.lexsort((ids, owner))]
        offsets, counters, wall_ms = parts[0].offsets, parts[0].counters, parts[0].wall_ms
        for part in parts[1:]:
            # Each query's merged size is the sum of its sizes, so the
            # cumulative offsets add up too.
            offsets = offsets + part.offsets
            counters = counters + part.counters
            wall_ms = wall_ms + part.wall_ms
        return cls(ids, offsets, counters, wall_ms)


@dataclass(frozen=True)
class Capabilities:
    """What one backend supports, declared statically on its class.

    Callers use this descriptor to feature-detect — "can I bulk-delete?",
    "can I snapshot this to disk?" — instead of probing concrete types.
    The conformance suite (``tests/test_backend_protocol.py``) keeps the
    flags honest: advertised operations must work, unadvertised ones must
    raise :class:`UnsupportedOperation`.
    """

    #: Canonical registry name ("ac", "ss", "rs").
    name: str
    #: Chart label the paper's evaluation uses ("AC", "SS", "RS").
    label: str
    #: ``delete_bulk`` removes a batch natively (not an insert/delete loop).
    supports_delete_bulk: bool = True
    #: The backend can be saved to / recovered from a paged store
    #: (:meth:`repro.api.database.Database.save` / ``open``).  Advertising
    #: this flag commits the backend to overriding the capability-gated
    #: ``save(path)`` / ``snapshot()`` defaults of :class:`BackendBase`
    #: and exposing a ``storage`` attribute with I/O statistics (reported
    #: by the evaluation harness) — the conformance suite exercises the
    #: flag, so a backend advertising it without the surface fails
    #: ``tests/test_backend_protocol.py``.
    supports_persistence: bool = False
    #: The backend adapts its structure to the query stream
    #: (``reorganize()`` is meaningful; warm-up queries change it).
    supports_reorganization: bool = False
    #: :class:`QueryExecution` counters this backend populates; counters
    #: not listed are structurally zero for every query it executes.
    cost_counters: Tuple[str, ...] = COST_COUNTERS

    def __post_init__(self) -> None:
        unknown = set(self.cost_counters) - set(COST_COUNTERS)
        if unknown:
            raise ValueError(f"unknown cost counters: {sorted(unknown)}")

    def require(self, operation: str) -> None:
        """Raise :class:`UnsupportedOperation` unless *operation* is supported.

        *operation* names a capability flag without the ``supports_``
        prefix, e.g. ``capabilities.require("persistence")``.
        """
        if not getattr(self, f"supports_{operation}"):
            raise UnsupportedOperation(f"backend {self.name!r} does not support {operation}")


@runtime_checkable
class SpatialBackend(Protocol):
    """The full lifecycle contract of a spatial access method.

    The protocol is runtime checkable: ``isinstance(obj, SpatialBackend)``
    verifies the surface (attribute presence, not signatures), which is how
    the streaming matcher and the :class:`~repro.api.database.Database`
    facade validate the backends handed to them.
    """

    # -- introspection --------------------------------------------------
    @property
    def dimensions(self) -> int: ...

    @property
    def n_objects(self) -> int: ...

    @property
    def n_groups(self) -> int: ...

    @property
    def capabilities(self) -> Capabilities: ...

    def __len__(self) -> int: ...

    def __contains__(self, object_id: int) -> bool: ...

    # -- lifecycle ------------------------------------------------------
    def insert(self, object_id: int, obj: HyperRectangle) -> None: ...

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int: ...

    def delete(self, object_id: int) -> bool: ...

    def delete_bulk(self, object_ids: Iterable[int]) -> int: ...

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]: ...

    def reorganize(self) -> object: ...

    def snapshot(self) -> object: ...

    def save(self, path: "str | Path", include_statistics: bool = True) -> Path: ...

    # -- query execution ------------------------------------------------
    def execute(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = ...,
    ) -> QueryResult: ...

    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = ...,
    ) -> List[QueryResult]: ...

    def query(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = ...,
    ) -> np.ndarray: ...

    def query_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = ...,
    ) -> List[np.ndarray]: ...


class BackendBase(ABC):
    """ABC mixin deriving the full :class:`SpatialBackend` surface.

    A backend implements the two primitives — :meth:`execute` and
    :meth:`execute_batch` — plus the lifecycle methods, declares its
    :class:`Capabilities` as the ``CAPABILITIES`` class attribute, and the
    mixin supplies the id-only conveniences, a loop-based ``delete_bulk``
    fallback and the capability-gated ``reorganize`` default.
    """

    #: Static capability declaration; concrete backends must override.
    CAPABILITIES: ClassVar[Capabilities] = Capabilities(name="base", label="?")

    # -- primitives (implemented by the backend) ------------------------
    @abstractmethod
    def execute(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> QueryResult:
        """Execute one spatial selection and return ids plus counters."""

    @abstractmethod
    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Execute a workload; one :class:`QueryResult` per query."""

    @abstractmethod
    def delete(self, object_id: int) -> bool:
        """Remove one object; ``False`` when it was not stored."""

    # -- derived surface ------------------------------------------------
    @property
    def capabilities(self) -> Capabilities:
        """The backend's static capability descriptor."""
        return type(self).CAPABILITIES

    @property
    def n_groups(self) -> int:
        """Number of explorable groups (clusters / tree nodes / 1)."""
        return 1

    def query(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> np.ndarray:
        """Execute a spatial selection and return the matching object ids."""
        return self.execute(query, relation).ids

    def query_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[np.ndarray]:
        """Execute a workload and return one identifier array per query."""
        return [result.ids for result in self.execute_batch(queries, relation)]

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Remove a batch of objects; returns the number actually removed.

        Fallback implementation for third-party backends: a plain loop
        over :meth:`delete`.  The built-in backends override it with
        vectorised variants.
        """
        return sum(1 for object_id in object_ids if self.delete(int(object_id)))

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        """Every stored object as ``(object_id, box)`` in ascending-id order.

        The ascending-id contract makes the enumeration deterministic
        regardless of the backend's internal layout, which is what lets a
        shard be drained into a replacement backend
        (:meth:`repro.api.sharding.ShardedDatabase.migrate_shard`) and
        produce the same structure as a rebuild from scratch.
        """
        raise NotImplementedError(  # pragma: no cover - mixin contract
            "backends must override iter_objects()"
        )

    def reorganize(self) -> object:
        """Adapt the backend's structure to the observed query stream.

        Raises :class:`UnsupportedOperation` unless the backend advertises
        ``supports_reorganization``; adaptive backends override this.
        """
        self.capabilities.require("reorganization")
        raise NotImplementedError(  # pragma: no cover - mixin contract
            "backends advertising reorganization must override reorganize()"
        )

    def snapshot(self) -> object:
        """Structural snapshot of the backend (persistence introspection).

        Raises :class:`UnsupportedOperation` unless the backend advertises
        ``supports_persistence``; persistable backends override this (see
        the ``supports_persistence`` contract on :class:`Capabilities`).
        """
        self.capabilities.require("persistence")
        raise NotImplementedError(  # pragma: no cover - mixin contract
            "backends advertising persistence must override snapshot()"
        )

    def save(self, path: "str | Path", include_statistics: bool = True) -> Path:
        """Write a crash-recovery snapshot of the backend to *path*.

        Raises :class:`UnsupportedOperation` unless the backend advertises
        ``supports_persistence``; persistable backends override this to
        commit a paged store at *path* (see :mod:`repro.storage.pagefile`
        and :meth:`repro.core.index.AdaptiveClusteringIndex.save`).
        """
        self.capabilities.require("persistence")
        raise NotImplementedError(  # pragma: no cover - mixin contract
            "backends advertising persistence must override save()"
        )

