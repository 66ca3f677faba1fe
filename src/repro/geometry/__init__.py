"""Geometry substrate: intervals, hyper-rectangles and spatial relations.

This sub-package provides the data-space primitives shared by every access
method in the library:

* :class:`~repro.geometry.interval.Interval` — a closed 1-d range ``[low, high]``.
* :class:`~repro.geometry.box.HyperRectangle` — a multidimensional extended
  object (a closed axis-aligned box), the data type the paper indexes.
* :class:`~repro.geometry.relations.SpatialRelation` — the query predicates
  supported by the paper (intersection, containment, enclosure and
  point-enclosing).
* :func:`~repro.geometry.vectorized.matching_mask` — a relation evaluated
  for many member objects against one query at once.
"""

from repro.geometry.interval import Interval
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation, relate, satisfies
from repro.geometry.vectorized import matching_mask

__all__ = [
    "Interval",
    "HyperRectangle",
    "SpatialRelation",
    "relate",
    "satisfies",
    "matching_mask",
]
