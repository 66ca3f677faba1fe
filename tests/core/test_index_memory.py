"""Memory bounds of the AC index's bulk kernels, measured with ``tracemalloc``.

Bulk loading counts candidate matches over fixed row blocks and batch
execution verifies (query, member) pairs in fixed windows, so the transient
memory of both — the allocation peak above what the call leaves behind —
stays under a fixed bound and does not grow in step with the batch or the
database.  The workload runs before any reorganization, where every query
explores the root and thus every object: the worst case for the pair list.
A dense ``(objects, candidates)`` count or a whole-chunk pair expansion
breaks these bounds several times over (about 33 MB and 460 MB here).

The pending ``q(s)`` visit log of batch execution is bounded too: with no
reorganization pass to fold it, it folds whenever it fills, so a long run
of one-event publishes never holds more than ``_PAIR_BLOCK`` logged query
bounds per side.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import index as index_module
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.relations import SpatialRelation
from repro.workloads.queries import generate_point_queries
from repro.workloads.uniform import generate_uniform_dataset

DIMENSIONS = 8
OBJECTS = 20_000
QUERIES = 1_000
MB = 1_000_000


def transient_peak(call):
    """Run *call*; return ``(result, peak bytes above what it leaves allocated)``."""
    tracemalloc.start()
    try:
        result = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


def loaded_index(objects):
    """A never-reorganized index bulk-loaded with *objects* boxes, and the load's peak."""
    pairs = list(
        generate_uniform_dataset(objects, DIMENSIONS, seed=5, max_extent=0.3).iter_objects()
    )
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", DIMENSIONS), auto_reorganize=False
    )
    index = AdaptiveClusteringIndex(config=config)
    _, peak = transient_peak(lambda: index.bulk_load(pairs))
    return index, peak


def batch_peak(index, queries):
    batch = generate_point_queries(queries, DIMENSIONS, seed=6).queries
    results, peak = transient_peak(lambda: index.execute_batch(batch, SpatialRelation.CONTAINS))
    assert len(results) == queries
    assert index.n_clusters == 1
    return peak


@pytest.fixture(scope="module")
def indexes():
    """``(index, bulk-load peak)`` at ``OBJECTS`` and at twice as many objects."""
    return loaded_index(OBJECTS), loaded_index(2 * OBJECTS)


def test_bulk_load_peak_is_bounded(indexes):
    (_, peak), (_, double_peak) = indexes
    assert peak < 16 * MB
    # Staging the input grows with the load; the candidate counting does not.
    assert double_peak < 1.75 * peak


def test_execute_batch_peak_is_bounded(indexes):
    (index, _), (double_index, _) = indexes
    peak = batch_peak(index, QUERIES)
    assert peak < 32 * MB
    assert batch_peak(index, 2 * QUERIES) < 1.5 * peak
    assert batch_peak(double_index, QUERIES) < 1.5 * peak


def test_visit_log_is_bounded():
    pairs = list(generate_uniform_dataset(5_000, DIMENSIONS, seed=7, max_extent=0.3).iter_objects())
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", DIMENSIONS), auto_reorganize=False
    )
    index = AdaptiveClusteringIndex(config=config)
    index.bulk_load(pairs)
    # Reorganize by hand, so each publish visits tens of clusters.
    warmup = generate_point_queries(100, DIMENSIONS, seed=8).queries
    for _ in range(4):
        for query in warmup:
            index.execute(query, SpatialRelation.CONTAINS)
        index.reorganize()
    assert index.n_clusters > 50
    events = generate_point_queries(5_000, DIMENSIONS, seed=9).queries
    folds = []

    def publish_all():
        previous = 0
        for event in events:
            index.execute_batch([event], SpatialRelation.CONTAINS)
            pending = index._pending_visits
            assert pending * DIMENSIONS <= index_module._PAIR_BLOCK
            if pending < previous:
                folds.append(pending)
            previous = pending

    tracemalloc.start()
    try:
        publish_all()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(folds) >= 2
    # Log buffers (about 2 MB) plus one fold's temporaries; measured 6.5 MB.
    assert peak < 12 * MB
