"""Equivalence tests for the vectorized batch execution engine.

``query_batch`` must return, query for query, exactly what the per-query
reference loop (``reference.py``) returns — same identifier arrays (same
order), same cost-model counters, same side effects on the index
statistics — including when an automatic reorganization triggers in the
middle of the batch.  Likewise
``bulk_load`` must route every object to the same cluster as a sequence of
individual ``insert`` calls.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.queries import generate_point_queries, generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

from reference import matching_clusters, reference_execute

RELATIONS = [
    SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINED_BY,
    SpatialRelation.CONTAINS,
]


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(1500, 6, seed=71, max_extent=0.5)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_query_workload(dataset, 25, target_selectivity=0.01, seed=72)


def build_adapted_index(dataset, workload, scenario="memory", period=50, warmup=120):
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario(scenario, dataset.dimensions),
        reorganization_period=period,
    )
    index = AdaptiveClusteringIndex(config=config)
    dataset.load_into(index)
    for i in range(warmup):
        index.query(workload.queries[i % len(workload.queries)], workload.relation)
    return index


def run_loop(index, queries, relation):
    results, executions = [], []
    for query in queries:
        result = reference_execute(index, query, relation)
        results.append(result.ids)
        executions.append(result.execution)
    return results, executions


def run_batch(index, queries, relation):
    """Execute through the batch engine; unzip into (ids, executions)."""
    batch = index.execute_batch(queries, relation)
    return [r.ids for r in batch], [r.execution for r in batch]


def assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs):
    assert len(batch_results) == len(loop_results)
    for loop_ids, batch_ids in zip(loop_results, batch_results):
        assert np.array_equal(loop_ids, batch_ids)
        assert batch_ids.dtype == np.int64
    for loop_exec, batch_exec in zip(loop_execs, batch_execs):
        assert batch_exec.core_counters() == loop_exec.core_counters()


def assert_same_index_state(loop_index, batch_index):
    assert batch_index.total_queries == loop_index.total_queries
    assert batch_index.reorganization_count == loop_index.reorganization_count
    assert batch_index.queries_since_reorganization == loop_index.queries_since_reorganization
    assert sorted(c.cluster_id for c in batch_index.clusters()) == sorted(
        c.cluster_id for c in loop_index.clusters()
    )
    for cluster in loop_index.clusters():
        twin = batch_index.get_cluster(cluster.cluster_id)
        assert twin.query_count == cluster.query_count
        assert np.array_equal(twin.candidates.query_counts, cluster.candidates.query_counts)
    batch_index.check_invariants()


class TestQueryBatchEquivalence:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_matches_per_query_loop(self, dataset, workload, relation):
        base = build_adapted_index(dataset, workload)
        loop_index = copy.deepcopy(base)
        batch_index = copy.deepcopy(base)

        loop_results, loop_execs = run_loop(loop_index, workload.queries, relation)
        batch_results, batch_execs = run_batch(batch_index, workload.queries, relation)

        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert_same_index_state(loop_index, batch_index)

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_reorganization_mid_batch(self, dataset, workload, relation):
        # 120 warm-up queries with period 50 leave the index 30 queries from
        # the next reorganization; a 100-query batch therefore crosses two
        # reorganization boundaries mid-batch.
        base = build_adapted_index(dataset, workload)
        assert base.queries_since_reorganization == 20
        stream = [workload.queries[i % len(workload.queries)] for i in range(100)]
        loop_index = copy.deepcopy(base)
        batch_index = copy.deepcopy(base)

        loop_results, loop_execs = run_loop(loop_index, stream, relation)
        batch_results, batch_execs = run_batch(batch_index, stream, relation)

        assert loop_index.reorganization_count > base.reorganization_count
        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert_same_index_state(loop_index, batch_index)

    def test_disk_scenario_counters(self, dataset, workload):
        base = build_adapted_index(dataset, workload, scenario="disk")
        loop_index = copy.deepcopy(base)
        batch_index = copy.deepcopy(base)

        loop_results, loop_execs = run_loop(loop_index, workload.queries, workload.relation)
        batch_results, batch_execs = run_batch(batch_index, workload.queries, workload.relation)

        assert any(execution.random_accesses for execution in batch_execs)
        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert batch_index.storage.stats.cluster_reads == loop_index.storage.stats.cluster_reads
        assert (
            batch_index.storage.stats.random_accesses
            == loop_index.storage.stats.random_accesses
        )
        assert batch_index.storage.io_time_ms == pytest.approx(loop_index.storage.io_time_ms)

    def test_empty_batch(self, dataset, workload):
        index = build_adapted_index(dataset, workload)
        before = index.total_queries
        assert index.execute_batch([]) == []
        assert index.total_queries == before

    def test_single_query_batch(self, dataset, workload):
        base = build_adapted_index(dataset, workload)
        loop_index = copy.deepcopy(base)
        batch_index = copy.deepcopy(base)
        query = workload.queries[0]
        loop_results, loop_execs = run_loop(loop_index, [query], workload.relation)
        batch_results, batch_execs = run_batch(batch_index, [query], workload.relation)
        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert_same_index_state(loop_index, batch_index)

    def test_dimension_mismatch_rejected(self, dataset, workload):
        index = build_adapted_index(dataset, workload)
        bad = HyperRectangle([0.0] * 4, [1.0] * 4)
        with pytest.raises(ValueError):
            index.query_batch([workload.queries[0], bad])
        # The failed batch must not have advanced the query counter.
        assert index.total_queries == 120

    def test_query_batch_accepts_string_relation(self, dataset, workload):
        index = build_adapted_index(dataset, workload)
        results = index.query_batch(workload.queries[:3], "intersects")
        assert len(results) == 3


def build_many_cluster_index(relation):
    """An index adapted to small queries of *relation*: many clusters, each
    query exploring only a few of them.  Returns ``(index, queries)``."""
    data = generate_uniform_dataset(6000, 4, seed=81, max_extent=0.15)
    if relation is SpatialRelation.CONTAINS:
        # Small boxes rather than points, so that swapping a query's low and
        # high bound changes the outcome.
        points = generate_point_queries(60, 4, seed=82).queries
        queries = [
            HyperRectangle(np.clip(p.lows - 0.005, 0.0, 1.0), np.clip(p.highs + 0.005, 0.0, 1.0))
            for p in points
        ]
    else:
        queries = generate_query_workload(
            data, 60, target_selectivity=0.001, relation=relation, seed=82
        ).queries
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", data.dimensions),
        reorganization_period=20,
    )
    index = AdaptiveClusteringIndex(config=config)
    data.load_into(index)
    for i in range(400):
        index.execute(queries[i % len(queries)], relation)
    return index, queries


def run_single_query_batches(index, queries, relation):
    """Execute *queries* as a stream of one-query ``execute_batch`` calls."""
    results, executions = [], []
    for query in queries:
        (result,) = index.execute_batch([query], relation)
        results.append(result.ids)
        executions.append(result.execution)
    return results, executions


class TestSingleQueryStream:
    """One-query batches — the serving path's common case — over an index
    with many clusters, where each query explores a small, scattered subset
    of them and only those clusters' candidate counters may change."""

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_matches_per_query_loop_across_reorganizations(self, relation):
        base, queries = build_many_cluster_index(relation)
        assert base.n_clusters >= 40
        loop_index = copy.deepcopy(base)
        batch_index = copy.deepcopy(base)

        loop_results, loop_execs = run_loop(loop_index, queries, relation)
        batch_results, batch_execs, scattered = [], [], 0
        for query in queries:
            rows = [
                batch_index._signature_cluster_ids.index(cluster.cluster_id)
                for cluster in matching_clusters(batch_index, query, relation)
            ]
            scattered += rows != list(range(rows[0], rows[0] + len(rows)))
            (result,) = batch_index.execute_batch([query], relation)
            batch_results.append(result.ids)
            batch_execs.append(result.execution)

        assert loop_index.reorganization_count > base.reorganization_count
        for execution in batch_execs:
            assert execution.groups_explored < execution.signature_checks / 4
        # Mostly the explored rows are not one contiguous block, so compact
        # histogram rows really differ from the cluster rows.
        assert scattered > len(queries) // 2
        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert_same_index_state(loop_index, batch_index)

    @pytest.mark.parametrize(
        "duplicate",
        [copy.deepcopy, lambda index: pickle.loads(pickle.dumps(index))],
        ids=["deepcopy", "pickle"],
    )
    def test_counter_views_survive_copies(self, duplicate):
        relation = SpatialRelation.INTERSECTS
        base, queries = build_many_cluster_index(relation)
        # A batch first, so the copied index carries a built counter buffer
        # and candidate grid whose views the copy breaks.
        base.execute_batch(queries[:5], relation)
        loop_index = copy.deepcopy(base)
        batch_index = duplicate(base)
        # The derived member matrix stays behind; the copy rebuilds it.
        assert base._member_matrix is not None
        assert batch_index._member_matrix is None

        loop_results, loop_execs = run_loop(loop_index, queries, relation)
        batch_results, batch_execs = run_single_query_batches(batch_index, queries, relation)

        assert batch_index._candidate_views_valid()
        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert_same_index_state(loop_index, batch_index)

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_pairwise_fallback_matches_loop(self, relation, monkeypatch):
        builds = []

        def no_grid(index, *stacked):
            builds.append(index)
            return ()

        monkeypatch.setattr(AdaptiveClusteringIndex, "_build_candidate_grid", no_grid)
        base, queries = build_many_cluster_index(relation)
        loop_index = copy.deepcopy(base)
        batch_index = copy.deepcopy(base)

        loop_results, loop_execs = run_loop(loop_index, queries, relation)
        batch_results, batch_execs = run_single_query_batches(batch_index, queries, relation)
        more_results, more_execs = run_batch(batch_index, queries, relation)
        loop_more, loop_more_execs = run_loop(loop_index, queries, relation)

        assert builds, "the pairwise branch never ran"
        assert batch_index._ensure_candidate_grid() is None
        assert_same_outcome(loop_results, loop_execs, batch_results, batch_execs)
        assert_same_outcome(loop_more, loop_more_execs, more_results, more_execs)
        assert_same_index_state(loop_index, batch_index)


class TestBulkLoadRouting:
    def test_matches_individual_inserts_after_adaptation(self, dataset, workload):
        base = build_adapted_index(dataset, workload)
        assert base.n_clusters > 1  # routing is only interesting with splits
        extra = generate_uniform_dataset(400, 6, seed=73, max_extent=0.5)
        next_id = int(dataset.ids.max()) + 1
        pairs = [(next_id + row, extra.box(row)) for row in range(extra.size)]

        loop_index = copy.deepcopy(base)
        bulk_index = copy.deepcopy(base)
        for object_id, box in pairs:
            loop_index.insert(object_id, box)
        assert bulk_index.bulk_load(pairs) == len(pairs)

        for object_id, _ in pairs:
            assert bulk_index.cluster_of(object_id) == loop_index.cluster_of(
                object_id
            ), f"object {object_id} routed differently"
        for cluster in loop_index.clusters():
            twin = bulk_index.get_cluster(cluster.cluster_id)
            assert twin.n_objects == cluster.n_objects
            assert np.array_equal(twin.candidates.object_counts, cluster.candidates.object_counts)
        loop_index.check_invariants()
        bulk_index.check_invariants()

    def test_initial_load_goes_to_root(self, dataset):
        config = AdaptiveClusteringConfig(cost=CostParameters.memory_defaults(dataset.dimensions))
        index = AdaptiveClusteringIndex(config=config)
        loaded = index.bulk_load(list(dataset.iter_objects())[:200])
        assert loaded == 200
        assert index.n_clusters == 1
        assert index.root.n_objects == 200
        index.check_invariants()

    def test_duplicate_ids_rejected(self, dataset, workload):
        index = build_adapted_index(dataset, workload)
        box = HyperRectangle([0.1] * 6, [0.2] * 6)
        with pytest.raises(KeyError):
            index.bulk_load([(99_991, box), (99_991, box)])


class TestInsertRouting:
    def test_insert_still_prefers_refined_clusters(self, dataset, workload):
        # Sanity check of the vectorized placement rule: after adaptation,
        # a fresh object matching a refined cluster's signature must not
        # land in the root (whose access probability is 1).
        index = build_adapted_index(dataset, workload)
        refined = [
            cluster
            for cluster in index.clusters()
            if not cluster.is_root and cluster.n_objects
        ]
        assert refined
        donor = max(refined, key=lambda cluster: cluster.n_objects)
        object_id, box = donor.store.object_at(0)
        index.delete(object_id)
        index.insert(object_id, box)
        target = index.get_cluster(index.cluster_of(object_id))
        assert not target.is_root
        index.check_invariants()
