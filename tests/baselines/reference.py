"""Reference query execution for the baselines: one query at a time, as plain loops.

``SequentialScan`` and ``RStarTree`` each run one engine, their
``execute_batch`` (``execute`` is its one-query batch).  These are the
loops the two baselines ran for one query before they had it:

* :func:`reference_scan` checks every stored object against the query with
  one row-wise predicate, in storage order;
* :func:`reference_walk` walks the R*-tree depth first, popping the last
  pushed child first, tests every entry of each visited node and descends
  into the children whose bounds the query can reach.

Ids come back in the engine's order (storage order for the scan, visit
order for the tree) and the :class:`QueryExecution` counters are those of
the paper's cost model.  ``tests/baselines/test_batch_queries.py`` holds
both engines to these loops.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.api.protocol import QueryResult
from repro.core.cost_model import StorageScenario
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.geometry.vectorized import matching_mask


def reference_scan(
    scan,
    query: HyperRectangle,
    relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
) -> QueryResult:
    """Execute one query on a ``SequentialScan`` object by object."""
    relation = SpatialRelation.parse(relation)
    start = time.perf_counter()
    members = scan._members
    n = len(members)
    if n:
        results = members.ids[matching_mask(members.lows, members.highs, query, relation)].copy()
    else:
        results = np.empty(0, dtype=np.int64)
    cost = scan._cost
    execution = QueryExecution(
        signature_checks=0,
        groups_explored=1,
        objects_verified=n,
        results=int(results.size),
        bytes_read=n * cost.object_bytes,
        random_accesses=1 if cost.scenario is StorageScenario.DISK and n else 0,
        wall_time_ms=(time.perf_counter() - start) * 1000.0,
    )
    return QueryResult(ids=results, execution=execution)


def reference_walk(
    tree,
    query: HyperRectangle,
    relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
) -> QueryResult:
    """Execute one query on an ``RStarTree`` with a depth-first walk."""
    relation = SpatialRelation.parse(relation)
    start = time.perf_counter()
    execution = QueryExecution()
    matches: List[np.ndarray] = []
    q_lows = query.lows
    q_highs = query.highs
    disk = tree._cost.scenario is StorageScenario.DISK
    object_bytes = tree._cost.object_bytes

    stack = [tree.root]
    while stack:
        node = stack.pop()
        execution.groups_explored += 1
        if disk:
            execution.random_accesses += 1
        if node.is_leaf:
            execution.objects_verified += node.count
            execution.bytes_read += node.count * object_bytes
            if node.count:
                mask = matching_mask(node.entry_lows(), node.entry_highs(), query, relation)
                found = node.entry_ids()[mask]
                if found.size:
                    matches.append(found.copy())
            continue
        execution.signature_checks += node.count
        execution.bytes_read += node.count * object_bytes
        entry_lows = node.entry_lows()
        entry_highs = node.entry_highs()
        if relation is SpatialRelation.CONTAINS:
            visit = np.all((entry_lows <= q_lows) & (q_highs <= entry_highs), axis=1)
        else:
            visit = np.all((entry_lows <= q_highs) & (q_lows <= entry_highs), axis=1)
        for row in np.flatnonzero(visit):
            stack.append(node.children[int(row)])

    results = np.concatenate(matches) if matches else np.empty(0, dtype=np.int64)
    execution.results = int(results.size)
    execution.wall_time_ms = (time.perf_counter() - start) * 1000.0
    return QueryResult(ids=results, execution=execution)
