"""One column-major arena for the members of every cluster (Section 6).

The paper stores each cluster's members contiguously, with reserved slots
at the end, and relocates a cluster that outgrows them.  A
:class:`MemberArena` holds the members of all clusters of an index in
three arrays: ``lows`` and ``highs`` of shape ``(Nd, capacity)``, each
dimension one contiguous row so verification gathers from cache-friendly
rows, and ``ids``.  Each cluster owns one segment of columns,
``[start, start + capacity)``, whose first ``size`` columns hold its
members and the rest its reserved slots.  A :class:`MemberSegment` is the
cluster's handle on its segment:

* an append fills the reserved slots; one that does not fit relocates the
  segment to the end of the arena, with the growth factor's headroom;
* removals keep the member order (swap-remove for one member, an
  order-keeping compaction for a mask) and give back the tail slots once
  the segment is less than half full (the paper targets a slot
  utilisation of at least 0.7);
* the columns a relocation, a shrink or a released segment leaves behind
  are holes.  The arena packs its segments in place, sliding each over
  the holes before it, when it needs room at its end, and grows by the
  growth factor when packing frees too little.  Once less than half of
  it is live it packs and shrinks to the growth factor's headroom: the
  per-store shrink rule, one level up.  Pickles and copies carry the
  packed columns only.

``segment.bounds`` is ``[start, capacity, size]``.  An index makes it a
row view of one stacked buffer, so its queries read the columns of every
cluster without a per-cluster loop.

:meth:`MemberArena.verify` is the one member-verification kernel: it
checks a list of (query, segment slice) visits against a relation.  The
AC index passes one visit per explored cluster; the sequential scan keeps
its members in one segment of its own arena and passes one visit per
query, covering the whole segment.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

_MIN_CAPACITY = 8

#: Block size of the vectorised batch kernels, in array elements.
#: :meth:`MemberArena.verify` walks its (query, member) pairs in windows of
#: at most this many pairs (about 8 MB of temporaries), and the AC index
#: sizes its query chunks, prune steps, bulk routing slices and ``q(s)``
#: visit log by the same constant, so the working set of batch execution
#: and bulk loading does not grow with the batch size or the database size.
_PAIR_BLOCK = 131_072

#: (dimension, pair) cells one step of the verification cascade tests at
#: most, unless one dimension alone has more.  A small window tests every
#: dimension in one step, since there the fixed cost of a step outweighs
#: the pairs an early dimension would eliminate.  A window of more than half
#: this many pairs tests one dimension per step, most selective first, so
#: pairs that fail early never pay for the remaining dimensions.
_VERIFY_BLOCK = 8_192

#: Growth factor of segments and of the arena itself.
_GROWTH = 1.25


def _headroom(size: int) -> int:
    return int(np.ceil(size * _GROWTH))


class MemberArena:
    """Column-major member storage shared by the clusters of one index, or one scan."""

    __slots__ = ("dimensions", "lows", "highs", "ids", "segments", "end", "live")

    def __init__(self, dimensions: int) -> None:
        self.dimensions = dimensions
        self.lows = np.empty((dimensions, 0), dtype=np.float64)
        self.highs = np.empty((dimensions, 0), dtype=np.float64)
        self.ids = np.empty(0, dtype=np.int64)
        #: Segment of every cluster, by cluster id, in creation order.
        self.segments: Dict[int, MemberSegment] = {}
        #: First column no segment has claimed yet.
        self.end = 0
        #: Columns owned by segments: members plus reserved slots.
        self.live = 0

    @property
    def capacity(self) -> int:
        """Number of columns allocated."""
        return int(self.ids.shape[0])

    def segment(self, key: int) -> "MemberSegment":
        """A new, empty segment for cluster *key*; it claims columns on its first append."""
        segment = MemberSegment(self)
        self.segments[key] = segment
        return segment

    def release(self, key: int) -> None:
        """Give back every column of cluster *key*'s segment."""
        segment = self.segments.pop(key)
        self.live -= int(segment.bounds[1])
        segment.bounds[:] = 0
        self._maybe_pack()

    def _resize(self, segment: "MemberSegment", capacity: int) -> None:
        """Move *segment* to *capacity* columns at the end of the arena.

        A segment that already ends the arena grows in place.  When the
        free tail is too short the arena packs first and, if that frees
        too little, grows by the growth factor.
        """
        bounds = segment.bounds
        if self.end + capacity > self.capacity:
            self._pack()
        start, old_capacity, size = bounds.tolist()
        last = start + old_capacity == self.end
        needed = (start if last else self.end) + capacity
        self.live += capacity - old_capacity
        if needed > self.capacity:
            # Growth headroom, but never so much that less than half is live.
            self._reallocate(max(needed, min(_headroom(self.capacity), 2 * self.live)))
        if last:
            self.end = start
        if start != self.end:
            columns, moved = slice(start, start + size), slice(self.end, self.end + size)
            self.ids[moved] = self.ids[columns]
            self.lows[:, moved] = self.lows[:, columns]
            self.highs[:, moved] = self.highs[:, columns]
        bounds[:2] = self.end, capacity
        self.end += capacity

    def _maybe_pack(self) -> None:
        if 2 * self.live < self.capacity:
            self._pack()
            self._reallocate(_headroom(self.live))

    def _pack(self) -> None:
        """Slide every segment down over the holes before it, in column order."""
        cursor = 0
        for segment in sorted(self.segments.values(), key=lambda s: int(s.bounds[0])):
            start, reserved, size = segment.bounds.tolist()
            if start != cursor:
                self.ids[cursor : cursor + size] = self.ids[start : start + size]
                self.lows[:, cursor : cursor + size] = self.lows[:, start : start + size]
                self.highs[:, cursor : cursor + size] = self.highs[:, start : start + size]
                segment.bounds[0] = cursor
            cursor += reserved
        self.end = cursor

    def _reallocate(self, capacity: int) -> None:
        """Move the claimed columns into arrays of *capacity* columns."""
        ids = np.empty(capacity, dtype=np.int64)
        lows = np.empty((self.dimensions, capacity), dtype=np.float64)
        highs = np.empty((self.dimensions, capacity), dtype=np.float64)
        ids[: self.end] = self.ids[: self.end]
        lows[:, : self.end] = self.lows[:, : self.end]
        highs[:, : self.end] = self.highs[:, : self.end]
        self.ids, self.lows, self.highs = ids, lows, highs

    def verify(
        self,
        q_lows: np.ndarray,
        q_highs: np.ndarray,
        relation: SpatialRelation,
        visit_q: np.ndarray,
        visit_starts: np.ndarray,
        visit_sizes: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Member ids that satisfy *relation*, grouped by query.

        Visit ``v`` checks query row ``visit_q[v]`` of the ``(m, Nd)`` query
        bounds against the columns ``[visit_starts[v], visit_starts[v] +
        visit_sizes[v])``.  The visits expand into one (query, column) pair
        list, walked one window of ``_PAIR_BLOCK`` pairs at a time and
        narrowed a block of dimensions at a time: every dimension at once
        for a small window, one per step for a large one, most selective
        first, so pairs that fail an early dimension never pay for the
        remaining ones.

        Returns ``(ids, bounds)``: the ids query ``i`` matched are
        ``ids[bounds[i]:bounds[i + 1]]``, in visit order and, within a
        visit, in column order.
        """
        count = q_lows.shape[0]
        dimensions = self.dimensions
        member_lows_t, member_highs_t, member_ids = self.lows, self.highs, self.ids
        # The visits' members form one ragged list of (query, column)
        # pairs; pair p of a visit starting at list position s is column
        # p + shift with shift = visit_starts[v] - s.
        ends = visit_sizes.cumsum()
        starts = ends - visit_sizes
        total_pairs = int(ends[-1]) if ends.size else 0
        shift = visit_starts - starts
        q_lows_t = np.ascontiguousarray(q_lows.T)
        q_highs_t = np.ascontiguousarray(q_highs.T)

        def matches(dims: slice, obj_rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
            """``(dimensions, pairs)`` mask: which pairs pass which dimension of *dims*."""
            obj_low = member_lows_t[dims].take(obj_rows, axis=1)
            obj_high = member_highs_t[dims].take(obj_rows, axis=1)
            query_low = q_lows_t[dims]
            query_high = q_highs_t[dims]
            if count > 1:
                query_low = query_low.take(query_rows, axis=1)
                query_high = query_high.take(query_rows, axis=1)
            if relation is SpatialRelation.INTERSECTS:
                return (obj_low <= query_high) & (query_low <= obj_high)
            if relation is SpatialRelation.CONTAINED_BY:
                return (query_low <= obj_low) & (obj_high <= query_high)
            # CONTAINS
            return (obj_low <= query_low) & (query_high <= obj_high)

        # One dimension per step tests the most selective dimensions first
        # (estimated once per call on a strided sample of the pair list) so
        # the pairs shrink as fast as possible; the surviving set is the
        # same whatever the order.
        if total_pairs > 16_384:
            sample = np.arange(0, total_pairs, max(1, total_pairs // 1024))
            sample_visit = ends.searchsorted(sample, side="right")
            sample_obj = sample + shift.take(sample_visit)
            sample_q = visit_q.take(sample_visit)
            sample_rates = matches(slice(None), sample_obj, sample_q).mean(axis=1)
            dim_order = np.argsort(sample_rates, kind="stable")
        else:
            dim_order = np.arange(dimensions)

        # Expand and narrow the pair list one window of _PAIR_BLOCK
        # consecutive pairs at a time; survivors concatenate in visit
        # order, exactly as if the whole list had been expanded at once.
        kept_obj: List[np.ndarray] = []
        kept_q: List[np.ndarray] = []
        for begin in range(0, total_pairs, _PAIR_BLOCK):
            stop = min(begin + _PAIR_BLOCK, total_pairs)
            # Each visit's pairs inside [begin, stop): none for the visits
            # outside the window.
            run = np.minimum(ends, stop) - np.maximum(starts, begin)
            np.maximum(run, 0, out=run)
            window_q = visit_q.repeat(run)
            window_obj = np.arange(begin, stop, dtype=np.int64) + shift.repeat(run)
            step = max(1, _VERIFY_BLOCK // (stop - begin))
            for first_dim in dim_order if step == 1 else range(0, dimensions, step):
                if window_obj.size == 0:
                    break
                alive = matches(slice(first_dim, first_dim + step), window_obj, window_q)
                survivors = (alive[0] if step == 1 else alive.all(axis=0)).nonzero()[0]
                window_obj = window_obj.take(survivors)
                window_q = window_q.take(survivors)
            kept_obj.append(window_obj)
            kept_q.append(window_q)

        if kept_q:
            pair_q = np.concatenate(kept_q)
            # Stable sort by query preserves each query's visit/column order.
            order = pair_q.argsort(kind="stable")
            sorted_ids = member_ids.take(np.concatenate(kept_obj).take(order))
            counts_per_query = np.bincount(pair_q, minlength=count)
        else:
            sorted_ids = np.empty(0, dtype=np.int64)
            counts_per_query = np.zeros(count, dtype=np.int64)
        bounds = np.zeros(count + 1, dtype=np.int64)
        counts_per_query.cumsum(out=bounds[1:])
        return sorted_ids, bounds

    def check_invariants(self) -> None:
        """Segments are disjoint and in bounds, and at least half the arena is live."""
        bounds = np.array([s.bounds for s in self.segments.values()], dtype=np.int64)
        starts, capacities, sizes = bounds.reshape(-1, 3).T
        if np.any(sizes > capacities) or int(capacities.sum()) != self.live:
            raise AssertionError("segment sizes or capacities disagree with the live count")
        owned = capacities > 0
        order = np.argsort(starts[owned])
        begins, ends = starts[owned][order], (starts + capacities)[owned][order]
        if np.any(begins < 0) or np.any(ends > self.end) or np.any(begins[1:] < ends[:-1]):
            raise AssertionError("arena segments overlap or leave the claimed columns")
        if self.end > self.capacity or 2 * self.live < self.capacity:
            raise AssertionError(
                f"arena holds {self.live} live of {self.capacity} columns: "
                "below the compaction floor"
            )

    def __getstate__(self) -> tuple:
        """Packed columns only: no holes and no unclaimed tail."""
        if self.end > self.live:
            self._pack()
        end = self.end
        members = (self.lows[:, :end], self.highs[:, :end], self.ids[:end])
        return (self.dimensions, *members, self.segments)

    def __setstate__(self, state: tuple) -> None:
        self.dimensions, self.lows, self.highs, self.ids, self.segments = state
        self.end = self.live = self.capacity


class MemberSegment:
    """One cluster's columns of a :class:`MemberArena`: its members, then reserved slots."""

    __slots__ = ("arena", "bounds")

    def __init__(self, arena: MemberArena) -> None:
        self.arena = arena
        #: ``[start, capacity, size]``.
        self.bounds = np.zeros(3, dtype=np.int64)

    def __len__(self) -> int:
        return int(self.bounds[2])

    @property
    def capacity(self) -> int:
        """Number of columns owned: members plus reserved slots."""
        return int(self.bounds[1])

    @property
    def ids(self) -> np.ndarray:
        """View of the member identifiers."""
        start, _, size = self.bounds.tolist()
        return self.arena.ids[start : start + size]

    @property
    def lows(self) -> np.ndarray:
        """View of the member lower bounds, shape ``(len(self), Nd)``."""
        start, _, size = self.bounds.tolist()
        return self.arena.lows[:, start : start + size].T

    @property
    def highs(self) -> np.ndarray:
        """View of the member upper bounds, shape ``(len(self), Nd)``."""
        start, _, size = self.bounds.tolist()
        return self.arena.highs[:, start : start + size].T

    def object_at(self, row: int) -> Tuple[int, HyperRectangle]:
        """Return ``(object_id, box)`` for the member stored at *row*."""
        if not 0 <= row < len(self):
            raise IndexError(f"row {row} out of range")
        return int(self.ids[row]), HyperRectangle(self.lows[row], self.highs[row])

    def append(self, object_id: int, obj: HyperRectangle) -> bool:
        """Append one member; ``True`` when the segment had to relocate."""
        return self.extend(np.array([object_id], dtype=np.int64), obj.lows[None], obj.highs[None])

    def extend(self, ids: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> bool:
        """Append members given as ``(n,)`` and ``(n, Nd)`` arrays; ``True`` on relocation."""
        count = int(ids.shape[0])
        if count == 0:
            return False
        arena = self.arena
        if lows.shape != (count, arena.dimensions) or highs.shape != lows.shape:
            raise ValueError("bounds arrays must have shape (n, dimensions)")
        _, capacity, size = self.bounds.tolist()
        relocated = size + count > capacity
        if relocated:
            arena._resize(self, max(size + count, _headroom(capacity), _MIN_CAPACITY))
        start = int(self.bounds[0]) + size
        columns = slice(start, start + count)
        arena.ids[columns] = ids
        arena.lows[:, columns] = lows.T
        arena.highs[:, columns] = highs.T
        self.bounds[2] = size + count
        return relocated

    def remove_id(self, object_id: int) -> Optional[HyperRectangle]:
        """Remove the member with *object_id* (the last member takes its column); return its box."""
        rows = np.flatnonzero(self.ids == object_id)
        if rows.size == 0:
            return None
        arena = self.arena
        start, _, size = self.bounds.tolist()
        column, last = start + int(rows[0]), start + size - 1
        box = HyperRectangle(arena.lows[:, column], arena.highs[:, column])
        arena.ids[column] = arena.ids[last]
        arena.lows[:, column] = arena.lows[:, last]
        arena.highs[:, column] = arena.highs[:, last]
        self.bounds[2] = size - 1
        self._maybe_shrink()
        return box

    def remove_mask(self, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove the members selected by *mask*, keeping the others' order.

        Returns ``(ids, lows, highs)`` copies of the removed members, in
        their storage order.
        """
        arena = self.arena
        start, _, size = self.bounds.tolist()
        if mask.shape != (size,):
            raise ValueError("mask length must equal the number of stored objects")
        columns = slice(start, start + size)
        ids, lows, highs = arena.ids[columns], arena.lows[:, columns], arena.highs[:, columns]
        removed = (ids[mask], lows[:, mask].T, highs[:, mask].T)
        keep = ~mask
        kept = slice(start, start + int(keep.sum()))
        arena.ids[kept] = ids[keep]
        arena.lows[:, kept] = lows[:, keep]
        arena.highs[:, kept] = highs[:, keep]
        self.bounds[2] = kept.stop - start
        self._maybe_shrink()
        return removed

    def drain(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return every member."""
        return self.remove_mask(np.ones(len(self), dtype=bool))

    def _maybe_shrink(self) -> None:
        """Give back the tail slots once a removal leaves the segment less than half full.

        The segment keeps the growth factor's headroom over its members
        (utilisation ``1 / growth``, 0.8).  Shrinking below half and
        growing above full leave a wide band in between, so alternating
        insertions and removals never relocate on every call.
        """
        _, capacity, size = self.bounds.tolist()
        shrunk = max(_headroom(size), _MIN_CAPACITY)
        if 2 * size < capacity and shrunk < capacity:
            self.bounds[1] = shrunk
            self.arena.live -= capacity - shrunk
            self.arena._maybe_pack()
