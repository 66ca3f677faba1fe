"""Vectorised predicate evaluation.

:func:`matching_mask` evaluates a spatial relation for every row of two
``(n, Nd)`` bound arrays against one query.  The query engines verify
members with their own column kernels (the AC index and the sequential scan
share :meth:`repro.core.arena.MemberArena.verify`); this row-wise predicate
serves the result cache, the query-workload generator and the test
suites' reference loops.

The cost model still charges the per-object verification cost for every
object checked — the vectorisation is an implementation detail, not a change
to the paper's accounting.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation


def matching_mask(
    lows: np.ndarray,
    highs: np.ndarray,
    query: HyperRectangle,
    relation: SpatialRelation,
) -> np.ndarray:
    """Evaluate *relation* for every row of ``(lows, highs)`` against *query*.

    Parameters
    ----------
    lows, highs:
        Arrays of shape ``(n, Nd)`` holding the member objects' bounds.
    query:
        The query object.
    relation:
        The spatial relation requested by the query.

    Returns
    -------
    numpy.ndarray
        Boolean mask of length ``n`` — ``True`` where the object satisfies
        the relation.
    """
    if lows.shape != highs.shape:
        raise ValueError("lows and highs must have identical shapes")
    if lows.ndim != 2:
        raise ValueError("expected 2-d arrays of shape (n, Nd)")
    if lows.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if lows.shape[1] != query.dimensions:
        raise ValueError(f"objects have {lows.shape[1]} dimensions, query has {query.dimensions}")

    q_lows = query.lows
    q_highs = query.highs
    if relation is SpatialRelation.INTERSECTS:
        return np.all((lows <= q_highs) & (q_lows <= highs), axis=1)
    if relation is SpatialRelation.CONTAINED_BY:
        return np.all((q_lows <= lows) & (highs <= q_highs), axis=1)
    if relation is SpatialRelation.CONTAINS:
        return np.all((lows <= q_lows) & (q_highs <= highs), axis=1)
    raise ValueError(f"unsupported relation: {relation!r}")
