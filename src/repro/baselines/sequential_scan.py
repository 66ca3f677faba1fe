"""Sequential Scan baseline.

The database objects are stored in a single contiguous collection; every
query checks every object.  Despite doing the maximum amount of
verification work, Sequential Scan enjoys perfect data locality and
sequential transfer, which is why it beats tree-based structures in high
dimensions (the paper's Section 7, and [Berchtold et al. 1998; Beyer et al.
1999]).  The adaptive clustering's cost model guarantees it never performs
worse than this baseline on average.

The scan is the AC index's storage and verification with one cluster:
its members fill one segment of a column-major
:class:`~repro.core.arena.MemberArena`, and a batch of queries is one
:meth:`~repro.core.arena.MemberArena.verify` call with one visit per query,
covering the whole segment.  The kernel walks the (query, member) pairs in
fixed windows, so a batch's working set does not grow with the batch or
the database.

The class implements the full :class:`~repro.api.protocol.SpatialBackend`
lifecycle (via :class:`~repro.api.protocol.BackendBase`); its capability
descriptor advertises no persistence and no reorganization — the scan has
no structure to adapt or snapshot.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.protocol import BackendBase, Capabilities, QueryResult
from repro.core.arena import MemberArena
from repro.core.cost_model import CostParameters, StorageScenario
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation


class SequentialScan(BackendBase):
    """A single always-scanned cluster holding the whole database."""

    CAPABILITIES = Capabilities(
        name="ss",
        label="SS",
        supports_delete_bulk=True,
        supports_persistence=False,
        supports_reorganization=False,
        # A scan never evaluates signatures: it explores its single group
        # unconditionally and verifies every member.
        cost_counters=(
            "groups_explored",
            "objects_verified",
            "results",
            "bytes_read",
            "random_accesses",
        ),
    )

    def __init__(
        self,
        dimensions: int,
        cost: Optional[CostParameters] = None,
    ) -> None:
        """Create an empty sequential-scan "index".

        Parameters
        ----------
        dimensions:
            Dimensionality of the data space.
        cost:
            Cost parameters used only to report byte counts consistent with
            the other methods; defaults to the in-memory scenario.
        """
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        self._cost = cost or CostParameters.memory_defaults(dimensions)
        if self._cost.dimensions != dimensions:
            raise ValueError("cost parameters disagree with dimensions")
        self._members = MemberArena(dimensions).segment(0)
        self._known_ids: Dict[int, bool] = {}

    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Dimensionality of the data space."""
        return self._members.arena.dimensions

    @property
    def n_objects(self) -> int:
        """Number of stored objects."""
        return len(self._members)

    def __len__(self) -> int:
        return self.n_objects

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._known_ids

    # ------------------------------------------------------------------
    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        """Append an object to the scan."""
        if object_id in self._known_ids:
            raise KeyError(f"object {object_id} is already stored")
        if obj.dimensions != self.dimensions:
            raise ValueError(f"object has {obj.dimensions} dimensions, expected {self.dimensions}")
        self._members.append(object_id, obj)
        self._known_ids[object_id] = True

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        """Append many objects; returns the number loaded."""
        count = 0
        for object_id, obj in objects:
            self.insert(object_id, obj)
            count += 1
        return count

    def delete(self, object_id: int) -> bool:
        """Remove an object; returns ``False`` when it was not stored."""
        if object_id not in self._known_ids:
            return False
        removed = self._members.remove_id(object_id)
        del self._known_ids[object_id]
        return removed is not None

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Remove a batch of objects; returns the number actually removed.

        Identifiers that are not stored are ignored.  The whole batch is
        removed with one vectorised membership mask over the contiguous
        store instead of one compaction per object.
        """
        targets = {int(object_id) for object_id in object_ids if int(object_id) in self._known_ids}
        if not targets:
            return 0
        mask = np.isin(self._members.ids, np.fromiter(targets, dtype=np.int64))
        removed_ids, _, _ = self._members.remove_mask(mask)
        if removed_ids.size != len(targets):  # pragma: no cover - defensive
            raise RuntimeError(
                f"store removed {removed_ids.size} of {len(targets)} tracked objects"
            )
        for object_id in targets:
            del self._known_ids[object_id]
        return int(removed_ids.size)

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        """Every stored object as ``(id, box)`` in ascending-id order."""
        ids = self._members.ids
        if ids.size == 0:
            return
        lows = self._members.lows
        highs = self._members.highs
        for row in np.argsort(ids, kind="stable"):
            yield int(ids[row]), HyperRectangle(lows[row], highs[row])

    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Scan every object for every query; ids in storage order plus counters."""
        relation = SpatialRelation.parse(relation)
        query_list = list(queries)
        for query in query_list:
            if query.dimensions != self.dimensions:
                raise ValueError(
                    f"query has {query.dimensions} dimensions, expected "
                    f"{self.dimensions}"
                )
        count = len(query_list)
        if count == 0:
            return []
        start = time.perf_counter()
        q_lows = np.array([query.lows for query in query_list])
        q_highs = np.array([query.highs for query in query_list])
        first, _, n = self._members.bounds.tolist()
        found, bounds = self._members.arena.verify(
            q_lows,
            q_highs,
            relation,
            np.arange(count),
            np.full(count, first, dtype=np.int64),
            np.full(count, n, dtype=np.int64),
        )
        per_query_ms = (time.perf_counter() - start) * 1000.0 / count
        random_accesses = 1 if self._cost.scenario is StorageScenario.DISK and n else 0
        return [
            QueryResult(
                ids=found[low:high].copy(),
                execution=QueryExecution(
                    signature_checks=0,
                    groups_explored=1,
                    objects_verified=n,
                    results=high - low,
                    bytes_read=n * self._cost.object_bytes,
                    random_accesses=random_accesses,
                    wall_time_ms=per_query_ms,
                ),
            )
            for low, high in zip(bounds[:-1].tolist(), bounds[1:].tolist())
        ]

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"SequentialScan(dimensions={self.dimensions}, objects={self.n_objects})"
