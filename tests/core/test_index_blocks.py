"""Block-boundary equivalence of the AC index's bounded-memory kernels.

Batch execution walks (query, member) pairs in windows of
``repro.core.index._PAIR_BLOCK`` pairs, bulk routing compares objects in
slices sized by the same constant, the verification cascade tests as many
dimensions per step as ``_VERIFY_BLOCK`` allows, and candidate object
counting accumulates over ``repro.core.candidates._ROW_BLOCK`` rows.  Shrunk to a
handful of elements, every visit, object slice and candidate count straddles
block boundaries; results, counters and statistics must still equal the
per-query reference loop (``reference.py``) and a dense reference exactly.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.core import candidates as candidates_module
from repro.core import index as index_module
from repro.core.candidates import CandidateSet
from repro.core.clustering_function import ClusteringFunction
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.core.signature import ClusterSignature
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.queries import generate_point_queries, generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

from reference import reference_execute

RELATIONS = [
    SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINED_BY,
    SpatialRelation.CONTAINS,
]


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(2000, 3, seed=91, max_extent=0.2)


def build_index(dataset, relation, warmup=100):
    """An index adapted to *warmup* queries of *relation*, and those queries."""
    if relation is SpatialRelation.CONTAINS:
        # Small boxes rather than points, so that a query's low and high
        # bounds both matter.
        points = generate_point_queries(30, dataset.dimensions, seed=92).queries
        queries = [
            HyperRectangle(np.clip(p.lows - 0.005, 0.0, 1.0), np.clip(p.highs + 0.005, 0.0, 1.0))
            for p in points
        ]
    else:
        queries = generate_query_workload(
            dataset, 30, target_selectivity=0.01, relation=relation, seed=92
        ).queries
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", dataset.dimensions),
        reorganization_period=20,
    )
    index = AdaptiveClusteringIndex(config=config)
    dataset.load_into(index)
    for i in range(warmup):
        index.execute(queries[i % len(queries)], relation)
    return index, queries


def assert_same_state(loop_index, batch_index):
    assert batch_index.total_queries == loop_index.total_queries
    assert batch_index.reorganization_count == loop_index.reorganization_count
    assert [c.cluster_id for c in batch_index.clusters()] == [
        c.cluster_id for c in loop_index.clusters()
    ]
    for cluster in loop_index.clusters():
        twin = batch_index.get_cluster(cluster.cluster_id)
        assert twin.query_count == cluster.query_count
        assert np.array_equal(twin.candidates.query_counts, cluster.candidates.query_counts)
        assert np.array_equal(twin.candidates.object_counts, cluster.candidates.object_counts)
    batch_index.check_invariants()
    loop_index.check_invariants()


# 1 and 7 pairs cut every visit; 500 pairs admit multi-query chunks whose
# pair list spans many windows.  A warm-up of 0 leaves only the root, whose
# visits cover every object and take the sampled dimension-order path.
@pytest.mark.parametrize("pair_block, warmup", [(1, 100), (7, 100), (500, 100), (500, 0)])
@pytest.mark.parametrize("relation", RELATIONS)
def test_batch_matches_loop_with_tiny_blocks(dataset, relation, pair_block, warmup, monkeypatch):
    monkeypatch.setattr(index_module, "_PAIR_BLOCK", pair_block)
    monkeypatch.setattr(candidates_module, "_ROW_BLOCK", 3)
    base, queries = build_index(dataset, relation, warmup)
    stream = [queries[i % len(queries)] for i in range(40)]
    loop_index = copy.deepcopy(base)
    batch_index = copy.deepcopy(base)

    loop = [reference_execute(loop_index, query, relation) for query in stream]
    batch = batch_index.execute_batch(stream, relation)

    assert loop_index.reorganization_count > base.reorganization_count
    for expected, actual in zip(loop, batch):
        assert np.array_equal(expected.ids, actual.ids)
        assert actual.execution.core_counters() == expected.execution.core_counters()
    assert_same_state(loop_index, batch_index)


@pytest.mark.parametrize("pair_block", [1, 7])
def test_bulk_routing_matches_inserts_with_tiny_blocks(dataset, pair_block, monkeypatch):
    monkeypatch.setattr(index_module, "_PAIR_BLOCK", pair_block)
    monkeypatch.setattr(candidates_module, "_ROW_BLOCK", 3)
    base, _ = build_index(dataset, SpatialRelation.INTERSECTS)
    assert base.n_clusters > 2
    extra = generate_uniform_dataset(60, 3, seed=93, max_extent=0.2)
    pairs = [(10_000 + object_id, box) for object_id, box in extra.iter_objects()]
    bulk_index = copy.deepcopy(base)
    loop_index = copy.deepcopy(base)

    bulk_index.bulk_load(pairs)
    for object_id, box in pairs:
        loop_index.insert(object_id, box)

    for object_id, _ in pairs:
        assert bulk_index.cluster_of(object_id) == loop_index.cluster_of(object_id)
    assert_same_state(loop_index, bulk_index)


def dense_object_match_counts(cands: CandidateSet, lows, highs):
    """The one-shot ``(objects, candidates)`` broadcast the blocked kernel replaces."""
    obj_lows = lows[:, cands.dimension]
    obj_highs = highs[:, cands.dimension]
    matches = (
        (cands.start_low <= obj_lows)
        & (obj_lows <= cands.start_high)
        & (cands.end_low <= obj_highs)
        & (obj_highs <= cands.end_high)
    )
    return matches.sum(axis=0).astype(np.int64)


@pytest.mark.parametrize("row_block", [1, 3, 2048])
def test_blocked_candidate_counts_match_dense_reference(row_block, monkeypatch):
    monkeypatch.setattr(candidates_module, "_ROW_BLOCK", row_block)
    rng = np.random.default_rng(94)
    function = ClusteringFunction(4)
    for _ in range(12):
        # A random refinement chain from the root gives a random family.
        signature = ClusterSignature.root(4)
        for _ in range(int(rng.integers(0, 4))):
            family = CandidateSet.generate(signature, function)
            signature = family.signature(int(rng.integers(len(family))))
        family = CandidateSet.generate(signature, function)
        count = int(rng.integers(0, 50))
        lows = rng.random((count, 4))
        highs = np.minimum(lows + rng.random((count, 4)) * 0.5, 1.0)
        # Snap some bounds onto the family's grid edges, where inclusive
        # comparisons decide.
        edges = np.concatenate([family.start_low, family.end_high])
        if edges.size and count:
            snap = rng.random((count, 4)) < 0.3
            lows[snap] = rng.choice(edges, size=int(snap.sum()))
            highs = np.maximum(highs, lows)

        assert np.array_equal(
            family.object_match_counts(lows, highs),
            dense_object_match_counts(family, lows, highs),
        )


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("relation", RELATIONS)
def test_partial_prune_width_matches_loop(relation, width, monkeypatch):
    """One-event batches pruning 5 dimensions in blocks of 2 or 3 (2+2+1, 3+2)."""
    dataset = generate_uniform_dataset(1500, 5, seed=95, max_extent=0.3)
    base, queries = build_index(dataset, relation)
    assert 1 < width < dataset.dimensions and dataset.dimensions % width
    loop_index = copy.deepcopy(base)
    batch_index = copy.deepcopy(base)
    for query in [queries[i % len(queries)] for i in range(40)]:
        # A prune step covers _PAIR_BLOCK // (queries × clusters) dimensions.
        monkeypatch.setattr(index_module, "_PAIR_BLOCK", width * batch_index.n_clusters)
        (actual,) = batch_index.execute_batch([query], relation)
        expected = reference_execute(loop_index, query, relation)
        assert np.array_equal(expected.ids, actual.ids)
        assert actual.execution.core_counters() == expected.execution.core_counters()
    assert loop_index.reorganization_count > base.reorganization_count
    assert_same_state(loop_index, batch_index)


@pytest.mark.parametrize("width", [2, 3])
@pytest.mark.parametrize("relation", RELATIONS)
def test_partial_verify_width_matches_loop(relation, width, monkeypatch):
    """Verification steps of 2 or 3 of 5 dimensions (2+2+1, 3+2) on 7-pair windows."""
    dataset = generate_uniform_dataset(1500, 5, seed=96, max_extent=0.3)
    base, queries = build_index(dataset, relation)
    loop_index = copy.deepcopy(base)
    batch_index = copy.deepcopy(base)
    # A step covers _VERIFY_BLOCK // (window pairs) dimensions: `width` on
    # every full window, more on a shorter last one.
    monkeypatch.setattr(index_module, "_PAIR_BLOCK", 7)
    monkeypatch.setattr(index_module, "_VERIFY_BLOCK", 7 * width)
    stream = [queries[i % len(queries)] for i in range(40)]
    loop = [reference_execute(loop_index, query, relation) for query in stream]
    batch = batch_index.execute_batch(stream, relation)
    for expected, actual in zip(loop, batch):
        assert np.array_equal(expected.ids, actual.ids)
        assert actual.execution.core_counters() == expected.execution.core_counters()
    assert loop_index.reorganization_count > base.reorganization_count
    assert_same_state(loop_index, batch_index)
