"""Dynamic column store for the member objects of one cluster.

Each cluster stores its members contiguously — the paper relies on this to
benefit from sequential memory / disk access.  :class:`ObjectStore` keeps the
member identifiers and bounds in pre-allocated NumPy arrays with spare
capacity at the end (the *reserved slots* of Section 6) so insertions rarely
require re-allocation, and exposes the bulk views the query executor and the
reorganizer need.  Removals that leave a store less than half full shrink it
back to the growth factor's headroom, so the splits and merges that move
members out do not leave stores mostly empty (the paper targets a slot
utilisation of at least 0.7).
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np

from repro.geometry.box import HyperRectangle

_MIN_CAPACITY = 8


class ObjectStore:
    """Append/remove-capable column store of ``(object_id, lows, highs)`` rows."""

    __slots__ = ("_dimensions", "_ids", "_lows", "_highs", "_size", "_growth")

    def __init__(
        self,
        dimensions: int,
        capacity: int = _MIN_CAPACITY,
        growth_factor: float = 1.25,
    ) -> None:
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        if growth_factor <= 1.0:
            raise ValueError("growth_factor must be greater than 1")
        capacity = max(int(capacity), _MIN_CAPACITY)
        self._dimensions = dimensions
        self._ids = np.empty(capacity, dtype=np.int64)
        self._lows = np.empty((capacity, dimensions), dtype=np.float64)
        self._highs = np.empty((capacity, dimensions), dtype=np.float64)
        self._size = 0
        self._growth = growth_factor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def dimensions(self) -> int:
        """Dimensionality of the stored objects."""
        return self._dimensions

    @property
    def capacity(self) -> int:
        """Number of member slots currently allocated."""
        return int(self._ids.shape[0])

    def __len__(self) -> int:
        return self._size

    @property
    def ids(self) -> np.ndarray:
        """View of the member identifiers (length ``len(self)``)."""
        return self._ids[: self._size]

    @property
    def lows(self) -> np.ndarray:
        """View of the member lower bounds, shape ``(len(self), Nd)``."""
        return self._lows[: self._size]

    @property
    def highs(self) -> np.ndarray:
        """View of the member upper bounds, shape ``(len(self), Nd)``."""
        return self._highs[: self._size]

    def utilization(self) -> float:
        """Fraction of allocated slots in use (the paper targets >= 0.7)."""
        if self.capacity == 0:
            return 1.0
        return self._size / self.capacity

    def object_at(self, row: int) -> Tuple[int, HyperRectangle]:
        """Return ``(object_id, box)`` for the member stored at *row*."""
        if not 0 <= row < self._size:
            raise IndexError(f"row {row} out of range")
        return int(self._ids[row]), HyperRectangle(self._lows[row], self._highs[row])

    def iter_objects(self) -> Iterable[Tuple[int, HyperRectangle]]:
        """Iterate over ``(object_id, box)`` pairs (test/diagnostic helper)."""
        for row in range(self._size):
            yield self.object_at(row)

    def contains_id(self, object_id: int) -> bool:
        """True when *object_id* is currently stored."""
        return bool(np.any(self.ids == object_id))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, object_id: int, obj: HyperRectangle) -> bool:
        """Append one member.

        Returns
        -------
        bool
            ``True`` when the append required growing the underlying
            arrays (the storage-layer analogue of relocating the cluster).
        """
        if obj.dimensions != self._dimensions:
            raise ValueError(
                f"object has {obj.dimensions} dimensions, store expects "
                f"{self._dimensions}"
            )
        grew = self._ensure_capacity(self._size + 1)
        row = self._size
        self._ids[row] = object_id
        self._lows[row] = obj.lows
        self._highs[row] = obj.highs
        self._size += 1
        return grew

    def extend(self, ids: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> bool:
        """Append a batch of members given as arrays.

        Returns ``True`` when the arrays had to grow.
        """
        count = int(ids.shape[0])
        if count == 0:
            return False
        if lows.shape != (count, self._dimensions) or highs.shape != (
            count,
            self._dimensions,
        ):
            raise ValueError("bounds arrays must have shape (n, dimensions)")
        grew = self._ensure_capacity(self._size + count)
        end = self._size + count
        self._ids[self._size : end] = ids
        self._lows[self._size : end] = lows
        self._highs[self._size : end] = highs
        self._size = end
        return grew

    def remove_mask(self, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove every member selected by the boolean *mask*.

        Returns
        -------
        tuple
            ``(ids, lows, highs)`` copies of the removed members, in their
            original storage order.
        """
        if mask.shape != (self._size,):
            raise ValueError("mask length must equal the number of stored objects")
        removed_ids = self.ids[mask].copy()
        removed_lows = self.lows[mask].copy()
        removed_highs = self.highs[mask].copy()
        keep = ~mask
        kept = int(keep.sum())
        self._ids[:kept] = self.ids[keep]
        self._lows[:kept] = self.lows[keep]
        self._highs[:kept] = self.highs[keep]
        self._size = kept
        self._maybe_shrink()
        return removed_ids, removed_lows, removed_highs

    def remove_id(self, object_id: int) -> Optional[HyperRectangle]:
        """Remove the member with *object_id*; return its box or ``None``."""
        matches = np.flatnonzero(self.ids == object_id)
        if matches.size == 0:
            return None
        row = int(matches[0])
        box = HyperRectangle(self._lows[row], self._highs[row])
        last = self._size - 1
        if row != last:
            self._ids[row] = self._ids[last]
            self._lows[row] = self._lows[last]
            self._highs[row] = self._highs[last]
        self._size = last
        self._maybe_shrink()
        return box

    def drain(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return all members (used when merging into the parent)."""
        ids = self.ids.copy()
        lows = self.lows.copy()
        highs = self.highs.copy()
        self._size = 0
        self._maybe_shrink()
        return ids, lows, highs

    def clear(self) -> None:
        """Drop every member without returning them."""
        self._size = 0
        self._maybe_shrink()

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------
    def reserve(self, capacity: int) -> None:
        """Grow the allocation so at least *capacity* members fit."""
        self._ensure_capacity(capacity)

    def _ensure_capacity(self, needed: int) -> bool:
        if needed <= self.capacity:
            return False
        self._reallocate(max(needed, int(np.ceil(self.capacity * self._growth)), _MIN_CAPACITY))
        return True

    def _maybe_shrink(self) -> None:
        """Release slots once a removal leaves the store less than half full.

        The store shrinks to the growth factor's headroom over its members
        (utilisation ``1 / growth``, 0.8 by default).  Shrinking below half
        and growing above full leave a wide band in between, so alternating
        insertions and removals never reallocate on every call.
        """
        if 2 * self._size >= self.capacity:
            return
        capacity = max(int(np.ceil(self._size * self._growth)), _MIN_CAPACITY)
        if capacity < self.capacity:
            self._reallocate(capacity)

    def _reallocate(self, capacity: int) -> None:
        new_ids = np.empty(capacity, dtype=np.int64)
        new_lows = np.empty((capacity, self._dimensions), dtype=np.float64)
        new_highs = np.empty((capacity, self._dimensions), dtype=np.float64)
        new_ids[: self._size] = self.ids
        new_lows[: self._size] = self.lows
        new_highs[: self._size] = self.highs
        self._ids = new_ids
        self._lows = new_lows
        self._highs = new_highs

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ObjectStore(size={self._size}, capacity={self.capacity}, "
            f"dimensions={self._dimensions})"
        )
