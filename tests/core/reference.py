"""Reference query execution for the AC index: Fig. 5 of the paper as a plain loop.

``AdaptiveClusteringIndex.execute`` and ``execute_batch`` run one vectorised
engine: blocked signature pruning, a (query, member) pair cascade over the
member matrix and a deferred ``q(s)`` visit log.  :func:`reference_execute`
is the per-cluster loop the index ran for one query before it had that
engine, with every statistic updated on the spot:

1. test the query against every cluster's signature, in one comparison
   over the stacked signature rows (ascending cluster id order);
2. explore each matching cluster: account one cluster read, check its
   member store against the selection criterion, add one to the cluster's
   ``q(c)`` and to ``q(s)`` of every candidate the query matches;
3. count the query and run the reorganization pass its period calls for.

Ids come back cluster by cluster in member order, and the
:class:`QueryExecution` counters are those of the paper's cost model.
The loop reads member stores and candidate sets directly, never the
engine's member matrix, pair cascade or visit log.
``tests/core/test_index_query_correctness.py`` pins it to a brute-force scan.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from repro.api.protocol import QueryResult
from repro.core.candidates import CandidateSet
from repro.core.cluster import Cluster
from repro.core.cost_model import StorageScenario
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.geometry.vectorized import matching_mask


def matching_clusters(index, query: HyperRectangle, relation: SpatialRelation) -> List[Cluster]:
    """Clusters whose signature the query matches (Fig. 5, step 2), by ascending id."""
    start_low, start_high, end_low, end_high = index._ensure_signature_matrix()
    if relation is SpatialRelation.INTERSECTS:
        mask = np.all((start_low <= query.highs) & (end_high >= query.lows), axis=1)
    elif relation is SpatialRelation.CONTAINED_BY:
        mask = np.all((start_high >= query.lows) & (end_low <= query.highs), axis=1)
    else:
        mask = np.all((start_low <= query.lows) & (end_high >= query.highs), axis=1)
    row_ids = index._signature_cluster_ids
    return [index._clusters[row_ids[row]] for row in np.flatnonzero(mask)]


def candidate_match_mask(
    candidates: CandidateSet, query: HyperRectangle, relation: SpatialRelation
) -> np.ndarray:
    """Candidates whose signature the query matches.

    The query matches the parent signature (only explored clusters count
    candidate statistics), so only each candidate's refined dimension is
    tested.
    """
    q_lows = query.lows[candidates.dimension]
    q_highs = query.highs[candidates.dimension]
    if relation is SpatialRelation.INTERSECTS:
        return (candidates.start_low <= q_highs) & (candidates.end_high >= q_lows)
    if relation is SpatialRelation.CONTAINED_BY:
        return (candidates.start_high >= q_lows) & (candidates.end_low <= q_highs)
    return (candidates.start_low <= q_lows) & (candidates.end_high >= q_highs)


def verify_members(cluster: Cluster, query: HyperRectangle, relation: SpatialRelation):
    """Ids of the cluster's members that satisfy the selection criterion."""
    if cluster.n_objects == 0:
        return np.empty(0, dtype=np.int64)
    store = cluster.store
    return store.ids[matching_mask(store.lows, store.highs, query, relation)].copy()


def record_query(
    candidates: CandidateSet, query: HyperRectangle, relation: SpatialRelation
) -> None:
    """Add one to ``q(s)`` of every candidate the query matches.

    An increment commutes with the engine's pending visits, so the counters
    are written without folding those in first.
    """
    if len(candidates):
        candidates._query_counts[candidate_match_mask(candidates, query, relation)] += 1


def record_exploration(cluster: Cluster, query: HyperRectangle, relation: SpatialRelation) -> None:
    """Add the exploration to the cluster's ``q(c)`` and its matching candidates' ``q(s)``."""
    cluster.statistics[0] += 1
    record_query(cluster.candidates, query, relation)


def reference_execute(
    index,
    query: HyperRectangle,
    relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
) -> QueryResult:
    """Execute one query on *index* cluster by cluster; ids plus execution counters."""
    relation = SpatialRelation.parse(relation)
    if query.dimensions != index.dimensions:
        raise ValueError(
            f"query has {query.dimensions} dimensions, index expects {index.dimensions}"
        )
    start = time.perf_counter()
    execution = QueryExecution()
    matches: List[np.ndarray] = []
    object_bytes = index.config.cost.object_bytes
    disk = index.config.scenario is StorageScenario.DISK

    execution.signature_checks = index.n_clusters
    sizes: List[int] = []
    for cluster in matching_clusters(index, query, relation):
        execution.groups_explored += 1
        execution.objects_verified += cluster.n_objects
        execution.bytes_read += cluster.n_objects * object_bytes
        if disk:
            execution.random_accesses += 1
        sizes.append(cluster.n_objects)
        found = verify_members(cluster, query, relation)
        if found.size:
            matches.append(found)
        record_exploration(cluster, query, relation)
    index.storage.on_cluster_reads_bulk(
        np.array(sizes, dtype=np.int64), np.ones(len(sizes), dtype=np.int64)
    )

    results = np.concatenate(matches) if matches else np.empty(0, dtype=np.int64)
    execution.results = int(results.size)
    execution.wall_time_ms = (time.perf_counter() - start) * 1000.0

    index._total_queries += 1
    index._queries_since_reorganization += 1
    index.maybe_reorganize()
    return QueryResult(ids=results, execution=execution)
