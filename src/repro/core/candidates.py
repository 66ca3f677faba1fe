"""Candidate sub-cluster statistics kept per materialized cluster.

Every materialized cluster carries a :class:`CandidateSet` describing its
*virtual* candidate sub-clusters (paper, Section 3.2).  For each candidate
the set tracks the two performance indicators used by the benefit functions:

* ``n`` — number of member objects of the cluster that match the candidate's
  signature (maintained incrementally on insertion, deletion, merge and
  split);
* ``q`` — number of queries that both explored the cluster and matched the
  candidate's signature (a proxy for the access probability the candidate
  would have if it were materialized).

Because every candidate differs from its parent signature in exactly one
dimension, matching a candidate reduces to testing that single dimension —
membership in the parent is already known for the cluster's member objects
and for queries that explore the cluster.  The set therefore stores the
candidates column-wise in NumPy arrays and evaluates all of them at once.
"""

from __future__ import annotations

import numpy as np

from repro.core.clustering_function import (
    CandidateColumns,
    CandidateDescriptor,
    ClusteringFunction,
)
from repro.core.signature import ClusterSignature
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation


def access_probabilities(
    query_counts: np.ndarray, windows: "int | np.ndarray", smoothing: float = 0.0
) -> np.ndarray:
    """Estimated access probabilities of candidates observed over *windows* queries.

    ``p(s) = (q(s) + smoothing) / (window + smoothing)``, clipped to
    ``[0, 1]``, and 0 for an empty window — the optional additive smoothing
    keeps rarely observed candidates from being estimated at exactly zero,
    which would make their materialization look free to the benefit
    function.  *windows* is one window for all candidates or one per
    candidate (candidates of many clusters evaluated together).
    """
    windows = np.asarray(windows)
    probabilities = np.divide(
        query_counts + smoothing,
        windows + smoothing,
        out=np.zeros(np.shape(query_counts), dtype=np.float64),
        where=windows > 0,
    )
    return np.clip(probabilities, 0.0, 1.0)


class CandidateSet:
    """Column-wise store of a cluster's candidate sub-clusters."""

    __slots__ = (
        "parent_signature",
        "dimension",
        "start_low",
        "start_high",
        "end_low",
        "end_high",
        "object_counts",
        "query_counts",
    )

    def __init__(self, parent_signature: ClusterSignature, columns: CandidateColumns) -> None:
        self.parent_signature = parent_signature
        self.dimension, self.start_low, self.start_high, self.end_low, self.end_high = columns
        count = len(self.dimension)
        #: ``n(s)`` per candidate — member objects matching the candidate.
        self.object_counts = np.zeros(count, dtype=np.int64)
        #: ``q(s)`` per candidate — queries matching the candidate.
        self.query_counts = np.zeros(count, dtype=np.int64)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def generate(
        cls,
        parent_signature: ClusterSignature,
        clustering_function: ClusteringFunction,
    ) -> "CandidateSet":
        """Build the candidate set of a cluster from its signature."""
        return cls(parent_signature, clustering_function.candidate_columns(parent_signature))

    def __len__(self) -> int:
        return int(self.dimension.shape[0])

    @property
    def is_empty(self) -> bool:
        """True when the signature admits no further refinement."""
        return len(self) == 0

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def object_match_mask(self, obj: HyperRectangle) -> np.ndarray:
        """Candidates matched by *obj* (which must match the parent signature)."""
        if len(self) == 0:
            return np.zeros(0, dtype=bool)
        lows = obj.lows[self.dimension]
        highs = obj.highs[self.dimension]
        return (
            (self.start_low <= lows)
            & (lows <= self.start_high)
            & (self.end_low <= highs)
            & (highs <= self.end_high)
        )

    def object_match_counts(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Number of objects (rows of ``lows``/``highs``) matching each candidate.

        The objects are assumed to already match the parent signature
        (cluster members always do).
        """
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        if lows.shape[0] == 0:
            return np.zeros(len(self), dtype=np.int64)
        # (n_objects, n_candidates) comparisons on the candidates' dimensions.
        obj_lows = lows[:, self.dimension]
        obj_highs = highs[:, self.dimension]
        matches = (
            (self.start_low <= obj_lows)
            & (obj_lows <= self.start_high)
            & (self.end_low <= obj_highs)
            & (obj_highs <= self.end_high)
        )
        return matches.sum(axis=0).astype(np.int64)

    def objects_matching_candidate(
        self, index: int, lows: np.ndarray, highs: np.ndarray
    ) -> np.ndarray:
        """Boolean mask of the objects matching candidate *index*."""
        if not 0 <= index < len(self):
            raise IndexError(f"candidate index {index} out of range")
        if lows.shape[0] == 0:
            return np.zeros(0, dtype=bool)
        dim = int(self.dimension[index])
        obj_lows = lows[:, dim]
        obj_highs = highs[:, dim]
        return (
            (self.start_low[index] <= obj_lows)
            & (obj_lows <= self.start_high[index])
            & (self.end_low[index] <= obj_highs)
            & (obj_highs <= self.end_high[index])
        )

    def query_match_mask(self, query: HyperRectangle, relation: SpatialRelation) -> np.ndarray:
        """Candidates whose signature is matched by *query*.

        The query is assumed to match the parent signature (query execution
        only updates candidate statistics for explored clusters), so only the
        refined dimension of each candidate needs testing.
        """
        if len(self) == 0:
            return np.zeros(0, dtype=bool)
        q_lows = query.lows[self.dimension]
        q_highs = query.highs[self.dimension]
        if relation is SpatialRelation.INTERSECTS:
            return (self.start_low <= q_highs) & (self.end_high >= q_lows)
        if relation is SpatialRelation.CONTAINED_BY:
            return (self.start_high >= q_lows) & (self.end_low <= q_highs)
        if relation is SpatialRelation.CONTAINS:
            return (self.start_low <= q_lows) & (self.end_high >= q_highs)
        raise ValueError(f"unsupported relation: {relation!r}")

    # ------------------------------------------------------------------
    # Statistics maintenance
    # ------------------------------------------------------------------
    def record_query(self, query: HyperRectangle, relation: SpatialRelation) -> None:
        """Increment ``q(s)`` for every candidate matched by the query."""
        if len(self) == 0:
            return
        mask = self.query_match_mask(query, relation)
        self.query_counts[mask] += 1

    def record_insertion(self, obj: HyperRectangle) -> None:
        """Increment ``n(s)`` for every candidate matched by the inserted object."""
        if len(self) == 0:
            return
        mask = self.object_match_mask(obj)
        self.object_counts[mask] += 1

    def record_removal(self, obj: HyperRectangle) -> None:
        """Decrement ``n(s)`` for every candidate matched by the removed object."""
        if len(self) == 0:
            return
        mask = self.object_match_mask(obj)
        self.object_counts[mask] -= 1

    def add_object_counts(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Bulk-increment ``n(s)`` for a batch of added member objects."""
        if len(self) == 0 or lows.shape[0] == 0:
            return
        self.object_counts += self.object_match_counts(lows, highs)

    def subtract_object_counts(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Bulk-decrement ``n(s)`` for a batch of removed member objects."""
        if len(self) == 0 or lows.shape[0] == 0:
            return
        self.object_counts -= self.object_match_counts(lows, highs)

    def recompute_object_counts(self, lows: np.ndarray, highs: np.ndarray) -> None:
        """Recompute ``n(s)`` from scratch for the given member set."""
        if len(self) == 0:
            return
        self.object_counts = self.object_match_counts(lows, highs)

    def reset_query_counts(self) -> None:
        """Reset ``q(s)`` for all candidates (new statistics window)."""
        self.query_counts[:] = 0

    # ------------------------------------------------------------------
    # Candidate materialization helpers
    # ------------------------------------------------------------------
    def descriptor(self, index: int) -> CandidateDescriptor:
        """Return the descriptor of candidate *index*."""
        if not 0 <= index < len(self):
            raise IndexError(f"candidate index {index} out of range")
        return CandidateDescriptor(
            dimension=int(self.dimension[index]),
            start_low=float(self.start_low[index]),
            start_high=float(self.start_high[index]),
            end_low=float(self.end_low[index]),
            end_high=float(self.end_high[index]),
        )

    def signature(self, index: int) -> ClusterSignature:
        """Return the full signature of candidate *index*."""
        return self.descriptor(index).signature(self.parent_signature)

    def access_probabilities(self, total_queries: int, smoothing: float = 0.0) -> np.ndarray:
        """Estimated access probability of every candidate (see :func:`access_probabilities`)."""
        return access_probabilities(self.query_counts, total_queries, smoothing)

    def validate_counts(self) -> None:
        """Raise :class:`AssertionError` if any maintained count went negative.

        Used by tests and the index's ``check_invariants`` helper.
        """
        if np.any(self.object_counts < 0):
            raise AssertionError("candidate object counts became negative")
        if np.any(self.query_counts < 0):
            raise AssertionError("candidate query counts became negative")

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"CandidateSet(candidates={len(self)})"
