"""Multidimensional extended objects (hyper-rectangles).

A :class:`HyperRectangle` is the paper's *multidimensional extended object*:
it defines a closed interval in every dimension of the data space.  Points are
degenerate hyper-rectangles whose intervals all have zero length.

The class stores its bounds as two NumPy vectors (``lows`` and ``highs``) so
that predicate checks, minimum-bounding-box computation and (de)serialisation
are cheap, while still exposing an :class:`~repro.geometry.interval.Interval`
view per dimension for readable client code.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Sequence, Tuple, Union

import numpy as np

from repro.geometry.interval import Interval

ArrayLike = Union[Sequence[float], np.ndarray]


def _bounds_error(lows: np.ndarray, highs: np.ndarray, dimension: int) -> str:
    """Why ``lows[dimension] <= highs[dimension]`` does not hold."""
    low, high = lows[dimension], highs[dimension]
    if np.isnan(low) or np.isnan(high):
        return f"NaN coordinate in dimension {dimension}"
    return f"invalid extent in dimension {dimension}: high ({high}) < low ({low})"


def check_unit_domain(object_id: int, box: "HyperRectangle") -> None:
    """Refuse an indexed object that leaves the unit domain ``[0, 1]``.

    The AC index's cluster signatures partition the unit domain, so a
    member outside it would match no signature, not even the root's.
    """
    outside = (box.lows < 0.0) | (box.highs > 1.0)
    if outside.any():
        raise ValueError(
            f"object {object_id} leaves the unit domain [0, 1] in dimension "
            f"{int(np.argmax(outside))}"
        )


class HyperRectangle:
    """A closed axis-aligned box in ``Nd`` dimensions.

    Parameters
    ----------
    lows:
        Sequence of lower endpoints, one per dimension.
    highs:
        Sequence of upper endpoints, one per dimension.  Must be
        element-wise greater than or equal to ``lows``.

    Examples
    --------
    >>> box = HyperRectangle([0.1, 0.2], [0.4, 0.6])
    >>> box.dimensions
    2
    >>> box.interval(0)
    Interval(0.1, 0.4)
    """

    __slots__ = ("_lows", "_highs")

    def __init__(self, lows: ArrayLike, highs: ArrayLike) -> None:
        lows_arr = np.asarray(lows, dtype=np.float64)
        highs_arr = np.asarray(highs, dtype=np.float64)
        if lows_arr.ndim != 1 or highs_arr.ndim != 1:
            raise ValueError("lows and highs must be one-dimensional sequences")
        if lows_arr.shape != highs_arr.shape:
            raise ValueError(
                f"dimension mismatch: {lows_arr.shape[0]} lows vs "
                f"{highs_arr.shape[0]} highs"
            )
        if lows_arr.size == 0:
            raise ValueError("a hyper-rectangle needs at least one dimension")
        ordered = lows_arr <= highs_arr  # False for NaN as well as high < low
        if not ordered.all():
            raise ValueError(_bounds_error(lows_arr, highs_arr, int(np.argmin(ordered))))
        # Copies guard the internal state against caller-side mutation.
        self._lows = lows_arr.copy()
        self._highs = highs_arr.copy()
        self._lows.flags.writeable = False
        self._highs.flags.writeable = False

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_intervals(cls, intervals: Iterable[Interval]) -> "HyperRectangle":
        """Build a box from per-dimension :class:`Interval` objects."""
        pairs = [(iv.low, iv.high) for iv in intervals]
        if not pairs:
            raise ValueError("at least one interval is required")
        lows, highs = zip(*pairs)
        return cls(lows, highs)

    @classmethod
    def from_table(cls, table: ArrayLike) -> List["HyperRectangle"]:
        """Boxes from an ``(m, 2d)`` table whose rows are ``lows ‖ highs``.

        The whole table is validated in one step — its shape, NaN
        coordinates and ``highs >= lows`` — and copied once; each box views
        its own row of the read-only copy.  :func:`box_table` is the
        inverse.
        """
        rows = np.array(table, dtype=np.float64)
        if rows.ndim != 2 or rows.shape[1] == 0 or rows.shape[1] % 2:
            raise ValueError(
                f"a box table has shape (m, 2d) with d >= 1, got {rows.shape}"
            )
        rows.flags.writeable = False
        dimensions = rows.shape[1] // 2
        lows, highs = rows[:, :dimensions], rows[:, dimensions:]
        ordered = lows <= highs  # False for NaN as well as high < low
        if not ordered.all():
            row, dimension = (int(index) for index in np.argwhere(~ordered)[0])
            raise ValueError(
                f"box {row}: " + _bounds_error(lows[row], highs[row], dimension)
            )
        boxes: List[HyperRectangle] = []
        for low, high in zip(lows, highs):
            box = cls.__new__(cls)
            box._lows = low
            box._highs = high
            boxes.append(box)
        return boxes

    @classmethod
    def from_point(cls, coordinates: ArrayLike) -> "HyperRectangle":
        """Build a degenerate box representing a single point."""
        coords = np.asarray(coordinates, dtype=np.float64)
        return cls(coords, coords)

    @classmethod
    def unit(cls, dimensions: int) -> "HyperRectangle":
        """Return the unit hyper-cube ``[0, 1]^dimensions``."""
        if dimensions <= 0:
            raise ValueError("dimensions must be positive")
        return cls(np.zeros(dimensions), np.ones(dimensions))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def lows(self) -> np.ndarray:
        """Read-only vector of lower endpoints."""
        return self._lows

    @property
    def highs(self) -> np.ndarray:
        """Read-only vector of upper endpoints."""
        return self._highs

    @property
    def dimensions(self) -> int:
        """Number of dimensions of the data space."""
        return int(self._lows.shape[0])

    @property
    def extents(self) -> np.ndarray:
        """Per-dimension interval lengths."""
        return self._highs - self._lows

    @property
    def center(self) -> np.ndarray:
        """Per-dimension midpoints."""
        return (self._lows + self._highs) / 2.0

    def interval(self, dimension: int) -> Interval:
        """Return the interval defined in *dimension*."""
        return Interval(float(self._lows[dimension]), float(self._highs[dimension]))

    def intervals(self) -> Tuple[Interval, ...]:
        """Return all per-dimension intervals."""
        return tuple(self.interval(d) for d in range(self.dimensions))

    def is_point(self) -> bool:
        """Return ``True`` if the box has zero extent in every dimension."""
        return bool(np.all(self._lows == self._highs))

    def volume(self) -> float:
        """Product of the per-dimension extents."""
        return float(np.prod(self.extents))

    def margin(self) -> float:
        """Sum of the per-dimension extents (the R*-tree 'margin' measure)."""
        return float(np.sum(self.extents))

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------
    def intersects(self, other: "HyperRectangle") -> bool:
        """True when the two closed boxes share at least one point."""
        self._check_compatible(other)
        return bool(np.all(self._lows <= other._highs) and np.all(other._lows <= self._highs))

    def contains(self, other: "HyperRectangle") -> bool:
        """True when *other* lies entirely inside this box."""
        self._check_compatible(other)
        return bool(np.all(self._lows <= other._lows) and np.all(other._highs <= self._highs))

    def is_contained_by(self, other: "HyperRectangle") -> bool:
        """True when this box lies entirely inside *other*."""
        return other.contains(self)

    def contains_point(self, coordinates: ArrayLike) -> bool:
        """True when the given point lies inside the closed box."""
        coords = np.asarray(coordinates, dtype=np.float64)
        if coords.shape != self._lows.shape:
            raise ValueError(
                f"point has {coords.shape[0]} coordinates, box has "
                f"{self.dimensions} dimensions"
            )
        return bool(np.all(self._lows <= coords) and np.all(coords <= self._highs))

    # ------------------------------------------------------------------
    # Constructive operations
    # ------------------------------------------------------------------
    def intersection(self, other: "HyperRectangle") -> "HyperRectangle":
        """Return the overlapping box.

        Raises
        ------
        ValueError
            If the two boxes do not intersect.
        """
        if not self.intersects(other):
            raise ValueError("boxes do not intersect")
        return HyperRectangle(
            np.maximum(self._lows, other._lows), np.minimum(self._highs, other._highs)
        )

    def overlap_volume(self, other: "HyperRectangle") -> float:
        """Volume of the intersection, or ``0.0`` when disjoint."""
        self._check_compatible(other)
        lows = np.maximum(self._lows, other._lows)
        highs = np.minimum(self._highs, other._highs)
        extents = highs - lows
        if np.any(extents < 0):
            return 0.0
        return float(np.prod(extents))

    def union_bounds(self, other: "HyperRectangle") -> "HyperRectangle":
        """Return the minimum bounding box of the two operands."""
        self._check_compatible(other)
        return HyperRectangle(
            np.minimum(self._lows, other._lows), np.maximum(self._highs, other._highs)
        )

    def expanded(self, amount: float) -> "HyperRectangle":
        """Return a copy grown by *amount* on every side of every dimension."""
        lows = self._lows - amount
        highs = self._highs + amount
        collapsed = highs < lows
        if np.any(collapsed):
            mid = (lows + highs) / 2.0
            lows = np.where(collapsed, mid, lows)
            highs = np.where(collapsed, mid, highs)
        return HyperRectangle(lows, highs)

    def clamped(self, low: float = 0.0, high: float = 1.0) -> "HyperRectangle":
        """Return a copy clipped to the hyper-cube ``[low, high]^Nd``."""
        lows = np.clip(self._lows, low, high)
        highs = np.clip(self._highs, low, high)
        return HyperRectangle(lows, highs)

    # ------------------------------------------------------------------
    # Serialisation helpers
    # ------------------------------------------------------------------
    def as_array(self) -> np.ndarray:
        """Return the bounds as a flat array ``[low_0, high_0, low_1, high_1, ...]``."""
        out = np.empty(2 * self.dimensions, dtype=np.float64)
        out[0::2] = self._lows
        out[1::2] = self._highs
        return out

    @classmethod
    def from_array(cls, values: ArrayLike) -> "HyperRectangle":
        """Inverse of :meth:`as_array`."""
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size % 2 != 0 or arr.size == 0:
            raise ValueError("expected a flat array of interleaved low/high pairs")
        return cls(arr[0::2], arr[1::2])

    def byte_size(self, bytes_per_value: int = 4, id_bytes: int = 4) -> int:
        """Size of the object's on-disk representation.

        The paper stores each interval endpoint and the object identifier on
        4 bytes each, so a ``Nd``-dimensional object occupies
        ``4 + 8 * Nd`` bytes.
        """
        return id_bytes + 2 * self.dimensions * bytes_per_value

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "HyperRectangle") -> None:
        if self.dimensions != other.dimensions:
            raise ValueError(f"dimension mismatch: {self.dimensions} vs {other.dimensions}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HyperRectangle):
            return NotImplemented
        return bool(
            np.array_equal(self._lows, other._lows)
            and np.array_equal(self._highs, other._highs)
        )

    def __hash__(self) -> int:
        return hash((self._lows.tobytes(), self._highs.tobytes()))

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.intervals())

    def __len__(self) -> int:
        return self.dimensions

    def __repr__(self) -> str:  # pragma: no cover - trivial
        parts = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in zip(self._lows, self._highs))
        return f"HyperRectangle({parts})"


def box_table(boxes: Sequence[HyperRectangle], dimensions: int) -> np.ndarray:
    """Pack *boxes* into one fresh ``(m, 2d)`` float64 table (row = ``lows ‖ highs``).

    The inverse of :meth:`HyperRectangle.from_table`.  Every box must have
    *dimensions* dimensions.
    """
    for position, box in enumerate(boxes):
        if box.dimensions != dimensions:
            raise ValueError(
                f"box {position} has {box.dimensions} dimensions, expected {dimensions}"
            )
    table = np.empty((len(boxes), 2 * dimensions), dtype=np.float64)
    if boxes:
        table[:, :dimensions] = [box.lows for box in boxes]
        table[:, dimensions:] = [box.highs for box in boxes]
    return table
