"""LRU cache of per-event match results with precise churn invalidation.

Pub/sub event streams repeat themselves: the same offer is re-published,
the same probe point is issued by many clients.  Matching is a pure
function of the normalized query box, the spatial relation and the current
subscription set, so a repeated event can be answered without touching the
index at all.

Subscription churn does not have to empty the cache: a newly registered
subscription only changes the match sets of cached events it actually
matches (its identifier is inserted into those), and an unregistered
subscription only changes the match sets that contain its identifier (it
is removed from those).  Every other entry stays warm, which is what makes
the cache effective on realistic streams where churn and repeated events
interleave.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.geometry.vectorized import matching_mask

#: A cached event matches a new subscription exactly when the subscription
#: (in the database-object role) satisfies the stream's relation against
#: the event; evaluating that with ``matching_mask`` — whose object role is
#: played by the stacked cached events — requires swapping the relation's
#: roles (INTERSECTS is symmetric, CONTAINS and CONTAINED_BY are inverses).
_ROLE_SWAPPED_RELATION = {
    SpatialRelation.INTERSECTS: SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINS: SpatialRelation.CONTAINED_BY,
    SpatialRelation.CONTAINED_BY: SpatialRelation.CONTAINS,
}


def result_cache_key(query: HyperRectangle, relation: SpatialRelation) -> bytes:
    """Canonical cache key of one query: relation tag plus normalized bounds.

    Two events hit the same entry exactly when their boxes are numerically
    identical in the index's normalized ``[0, 1]`` domain and they request
    the same relation.
    """
    return relation.value.encode("ascii") + b"\x00" + query.lows.tobytes() + query.highs.tobytes()


class LRUResultCache:
    """Bounded least-recently-used map from cache key to match identifiers.

    A ``capacity`` of zero disables the cache (every lookup misses, nothing
    is stored).  Stored match sets must be in ascending identifier order
    (the churn patches below rely on it); they are copied on the way in and
    on the way out, so neither the producer nor a consumer mutating its
    match set can corrupt the cached entry.

    One instance caches results of ONE spatial relation: the churn patches
    (:meth:`apply_inserts` / :meth:`apply_deletes`) test every entry with
    the relation passed to them, so mixing entries of several relations in
    the same instance would patch some of them with the wrong predicate.
    (:class:`~repro.engine.matcher.StreamingMatcher` guarantees this — its
    relation is fixed per matcher.)
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity = capacity
        #: key -> (query_lows, query_highs, sorted match identifiers).
        self._entries: "OrderedDict[bytes, Tuple[np.ndarray, np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        #: Stacked ``(keys, q_lows, q_highs)`` of every entry, memoized for
        #: the churn patches; invalidated whenever the entry *set* changes
        #: (patching match sets or recency order does not touch bounds).
        self._stacked: Optional[Tuple[List[bytes], np.ndarray, np.ndarray]] = None
        #: Lookup / maintenance counters, exposed through the streaming
        #: statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.patches = 0

    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Maximum number of cached match sets (0 = disabled)."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        """True when *key* is cached; unlike :meth:`get`, counts nothing."""
        return key in self._entries

    def get(self, key: bytes) -> Optional[np.ndarray]:
        """Return the cached match set for *key*, or ``None`` on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[2].copy()

    def put(self, key: bytes, query: HyperRectangle, matches: np.ndarray) -> None:
        """Store the match set of *query*, evicting the oldest entry if full."""
        if self._capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = (query.lows.copy(), query.highs.copy(), matches.copy())
        if len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._stacked = None

    # ------------------------------------------------------------------
    # Precise churn invalidation
    # ------------------------------------------------------------------
    def apply_insert(
        self,
        subscription_id: int,
        box: HyperRectangle,
        relation: SpatialRelation,
    ) -> None:
        """Patch cached match sets for one newly registered subscription.

        The new subscription's identifier is inserted (in order) into the
        match set of every cached event it matches under *relation*; all
        other entries are untouched and stay valid.
        """
        self.apply_inserts([(subscription_id, box)], relation)

    def apply_inserts(
        self,
        subscriptions: Iterable[Tuple[int, HyperRectangle]],
        relation: SpatialRelation,
    ) -> None:
        """Patch cached match sets for a batch of registered subscriptions.

        The stacked bounds of every cached event are built once for the
        whole batch; each subscription is then tested against all entries
        with one vectorised comparison (entry bounds never change, so the
        stack stays valid while match sets are patched).
        """
        pairs = list(subscriptions)
        if not self._entries or not pairs:
            return
        if self._stacked is None:
            keys = list(self._entries)
            self._stacked = (
                keys,
                np.vstack([self._entries[key][0] for key in keys]),
                np.vstack([self._entries[key][1] for key in keys]),
            )
        keys, q_lows, q_highs = self._stacked
        swapped = _ROLE_SWAPPED_RELATION[relation]
        for subscription_id, box in pairs:
            matched = matching_mask(q_lows, q_highs, box, swapped)
            for row in np.flatnonzero(matched):
                key = keys[int(row)]
                entry_lows, entry_highs, ids = self._entries[key]
                position = int(np.searchsorted(ids, subscription_id))
                ids = np.insert(ids, position, subscription_id)
                self._entries[key] = (entry_lows, entry_highs, ids)
                self.patches += 1

    def apply_delete(self, subscription_id: int) -> None:
        """Patch cached match sets for one unregistered subscription.

        The identifier is removed from every cached match set containing
        it; entries that never matched the subscription are untouched.
        """
        self.apply_deletes([subscription_id])

    def apply_deletes(self, subscription_ids: Iterable[int]) -> None:
        """Patch cached match sets for a batch of unregistered subscriptions.

        One vectorised membership test per entry removes every identifier
        of the batch at once, instead of one scalar search per
        (identifier, entry) pair.
        """
        removed = np.unique(np.fromiter((int(i) for i in subscription_ids), dtype=np.int64))
        if removed.size == 0 or not self._entries:
            return
        for key, (entry_lows, entry_highs, ids) in self._entries.items():
            mask = np.isin(ids, removed, assume_unique=True)
            hits = int(mask.sum())
            if hits:
                self._entries[key] = (entry_lows, entry_highs, ids[~mask])
                self.patches += hits

    def clear(self) -> None:
        """Drop every entry (e.g. after a bulk subscription reload)."""
        self._entries.clear()
        self._stacked = None

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"LRUResultCache(size={len(self)}, capacity={self._capacity}, "
            f"hits={self.hits}, misses={self.misses}, patches={self.patches})"
        )
