"""Materialized database clusters (Section 3.1).

A :class:`Cluster` groups member objects that are accessed and checked
together during spatial selections.  It carries:

* its **signature** (the grouping criterion, Section 4),
* its member objects, a :class:`~repro.core.arena.MemberSegment` of the
  index's column-major member arena,
* the two **performance indicators** of the paper — the number of member
  objects and the number of queries that explored the cluster over the
  current statistics window,
* the statistics of its **candidate sub-clusters**
  (:class:`~repro.core.candidates.CandidateSet`),
* the parent / children links of the clustering hierarchy, which make
  merging operations possible.
"""

from __future__ import annotations

from typing import Optional, Set

import numpy as np

from repro.core.arena import MemberArena
from repro.core.candidates import CandidateSet
from repro.core.clustering_function import ClusteringFunction
from repro.core.signature import ClusterSignature
from repro.geometry.box import HyperRectangle


class Cluster:
    """One materialized cluster of the adaptive clustering index."""

    __slots__ = (
        "cluster_id",
        "signature",
        "store",
        "candidates",
        "parent_id",
        "children_ids",
        "statistics",
    )

    def __init__(
        self,
        cluster_id: int,
        signature: ClusterSignature,
        clustering_function: ClusteringFunction,
        parent_id: Optional[int] = None,
        creation_query: int = 0,
        arena: Optional[MemberArena] = None,
    ) -> None:
        #: Unique identifier of the cluster within its index.
        self.cluster_id = cluster_id
        #: The cluster signature (grouping criterion).
        self.signature = signature
        #: Member objects: one contiguous segment of *arena* (the index's
        #: member arena; a cluster on its own gets an arena of its own).
        self.store = (arena or MemberArena(signature.dimensions)).segment(cluster_id)
        #: Statistics of the virtual candidate sub-clusters.
        self.candidates = CandidateSet.generate(signature, clustering_function)
        #: Identifier of the parent cluster (``None`` for the root).
        self.parent_id = parent_id
        #: Identifiers of the materialized child clusters.
        self.children_ids: Set[int] = set()
        #: ``[q(c), window start]`` — see :attr:`query_count` and
        #: :attr:`creation_query`.  Inside an index this is a row view of
        #: the index's stacked statistics buffer, so batch execution updates
        #: ``q(c)`` of every explored cluster with one vectorised add.
        self.statistics = np.array([0, creation_query], dtype=np.int64)

    @property
    def query_count(self) -> int:
        """``q(c)`` — queries that explored the cluster in the current window."""
        return int(self.statistics[0])

    @query_count.setter
    def query_count(self, value: int) -> None:
        self.statistics[0] = value

    @property
    def creation_query(self) -> int:
        """Query total at which the statistics window started (normalises ``p(c)``)."""
        return int(self.statistics[1])

    @creation_query.setter
    def creation_query(self, value: int) -> None:
        self.statistics[1] = value

    # ------------------------------------------------------------------
    # Performance indicators
    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        """``n(c)`` — number of member objects."""
        return len(self.store)

    @property
    def is_root(self) -> bool:
        """True for the root cluster (no parent)."""
        return self.parent_id is None

    def access_probability(self, total_queries: int) -> float:
        """``p(c)`` — estimated probability that a query explores the cluster.

        The root cluster always has probability 1 (every query explores it
        conceptually; its signature matches every query).  Other clusters
        use ``q(c)`` normalised by the number of queries observed since the
        cluster's statistics window started.
        """
        if self.is_root:
            return 1.0
        window = total_queries - self.creation_query
        if window <= 0:
            return 0.0
        return min(self.query_count / window, 1.0)

    def candidate_access_probabilities(
        self, total_queries: int, smoothing: float = 0.0
    ) -> np.ndarray:
        """Access probability estimates of every candidate sub-cluster."""
        window = total_queries - self.creation_query
        return self.candidates.access_probabilities(window, smoothing)

    def reset_statistics(self, total_queries: int) -> None:
        """Start a new statistics window (track drifting query distributions)."""
        self.statistics[:] = (0, total_queries)
        self.candidates.reset_query_counts()

    def ensure_materialized(self) -> None:
        """Load lazily-stored members, if any.

        A no-op here: plain clusters always hold their members in memory.
        :class:`~repro.storage.pagefile.LazyCluster` overrides this to
        fetch its member arrays from the page file; callers that need the
        candidate *object* statistics without touching ``self.store``
        (the reorganizer, most notably) invoke it explicitly.
        """

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def accepts(self, obj: HyperRectangle) -> bool:
        """True when *obj* matches the cluster signature."""
        return self.signature.matches_object(obj)

    def add_object(self, object_id: int, obj: HyperRectangle) -> bool:
        """Insert a member (which must match the signature).

        Returns ``True`` when the member segment had to relocate.
        """
        grew = self.store.append(object_id, obj)
        self.candidates.record_insertion(obj)
        return grew

    def add_objects_bulk(self, ids: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> bool:
        """Insert a batch of members and update candidate statistics."""
        grew = self.store.extend(ids, lows, highs)
        self.candidates.add_object_counts(lows, highs)
        return grew

    def remove_object(self, object_id: int) -> Optional[HyperRectangle]:
        """Remove a member by identifier; returns its box or ``None``."""
        box = self.store.remove_id(object_id)
        if box is not None:
            self.candidates.record_removal(box)
        return box

    def remove_objects_bulk(self, object_ids: np.ndarray) -> int:
        """Remove a batch of members by identifier; returns the number removed.

        Candidate object counts are decremented with one vectorised pass
        over the removed members, equivalent to calling
        :meth:`remove_object` for each identifier.
        """
        if object_ids.size == 0 or self.n_objects == 0:
            return 0
        mask = np.isin(self.store.ids, object_ids)
        if not mask.any():
            return 0
        _, lows, highs = self.store.remove_mask(mask)
        self.candidates.subtract_object_counts(lows, highs)
        return int(lows.shape[0])

    def extract_matching(self, candidate_index: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Remove and return the members matching candidate *candidate_index*.

        Candidate object counts of this cluster are decremented for the
        removed members (steps 9–11 of the split algorithm).
        """
        mask = self.candidates.objects_matching_candidate(
            candidate_index, self.store.lows, self.store.highs
        )
        ids, lows, highs = self.store.remove_mask(mask)
        self.candidates.subtract_object_counts(lows, highs)
        return ids, lows, highs

    def drain_members(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Remove and return all members (merge operation)."""
        ids, lows, highs = self.store.drain()
        self.candidates.subtract_object_counts(lows, highs)
        return ids, lows, highs

    # ------------------------------------------------------------------
    # Hierarchy maintenance
    # ------------------------------------------------------------------
    def add_child(self, child_id: int) -> None:
        """Register a materialized child cluster."""
        self.children_ids.add(child_id)

    def remove_child(self, child_id: int) -> None:
        """Unregister a child cluster (after a merge)."""
        self.children_ids.discard(child_id)

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify internal consistency (used by tests).

        * every member matches the cluster signature;
        * candidate object counts equal a from-scratch recount.
        """
        member_mask = self.signature.matches_objects(self.store.lows, self.store.highs)
        if not bool(np.all(member_mask)):
            raise AssertionError(
                f"cluster {self.cluster_id} stores objects that do not match "
                "its signature"
            )
        expected = self.candidates.object_match_counts(self.store.lows, self.store.highs)
        if not np.array_equal(expected, self.candidates.object_counts):
            raise AssertionError(f"cluster {self.cluster_id} candidate object counts are stale")
        self.candidates.validate_counts()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"Cluster(id={self.cluster_id}, objects={self.n_objects}, "
            f"queries={self.query_count}, children={len(self.children_ids)})"
        )
