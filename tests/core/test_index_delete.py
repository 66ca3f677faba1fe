"""Regression tests for the delete path of the adaptive clustering index.

The matrix-maintenance equivalence tests historically covered only the
insert / merge paths; these tests pin down that deletion (single and bulk)
keeps the stacked signature / member / candidate matrices consistent, by
checking that ``query_batch`` after churn returns exactly what the
per-query reference loop (``reference.py``) returns.
"""

import copy

import numpy as np
import pytest

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.workloads.queries import generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

from reference import reference_execute

DIMENSIONS = 8


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(2_500, DIMENSIONS, seed=21, max_extent=0.4)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_query_workload(dataset, 25, target_selectivity=5e-3, seed=22)


@pytest.fixture
def churned_index(dataset, workload):
    """An adapted index that has seen deletions after its last rebuild."""
    index = AdaptiveClusteringIndex(
        config=AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(DIMENSIONS),
            reorganization_period=60,
        )
    )
    dataset.load_into(index)
    warmup = [workload.queries[i % len(workload.queries)] for i in range(300)]
    index.query_batch(warmup, workload.relation)
    assert index.n_clusters > 1
    return index


def assert_batch_equals_loop(index, workload):
    batch_index = copy.deepcopy(index)
    loop_index = copy.deepcopy(index)
    batch = batch_index.execute_batch(workload.queries, workload.relation)
    for query, batch_result in zip(workload.queries, batch):
        loop_result = reference_execute(loop_index, query, workload.relation)
        assert batch_result.ids.tobytes() == loop_result.ids.tobytes()
        assert batch_result.execution.core_counters() == loop_result.execution.core_counters()


class TestDeleteThenQueryBatch:
    def test_scattered_deletes(self, churned_index, workload):
        for object_id in range(0, 2_500, 9):
            assert churned_index.delete(object_id)
        churned_index.check_invariants()
        assert_batch_equals_loop(churned_index, workload)

    def test_emptying_a_whole_cluster(self, churned_index, workload):
        clusters = churned_index.clusters()
        victim = max((c for c in clusters if not c.is_root), key=lambda c: c.n_objects)
        for object_id in victim.store.ids.copy():
            assert churned_index.delete(int(object_id))
        assert victim.n_objects == 0
        churned_index.check_invariants()
        assert_batch_equals_loop(churned_index, workload)

    def test_delete_missing_returns_false(self, churned_index):
        assert not churned_index.delete(10**9)

    def test_delete_reinsert_churn_mid_stream(self, churned_index, dataset, workload):
        """Interleaved delete / reinsert / query_batch stays loop-identical."""
        rng = np.random.default_rng(5)
        for round_number in range(3):
            victims = rng.choice(dataset.ids, size=60, replace=False)
            removed = [
                (int(object_id), churned_index.get(int(object_id)))
                for object_id in victims
                if object_id in churned_index
            ]
            for object_id, _ in removed:
                churned_index.delete(object_id)
            assert_batch_equals_loop(churned_index, workload)
            for object_id, box in removed:
                churned_index.insert(object_id, box)
            churned_index.check_invariants()
            assert_batch_equals_loop(churned_index, workload)


class TestDeleteBulk:
    def test_matches_sequential_deletes(self, churned_index, workload):
        sequential = copy.deepcopy(churned_index)
        bulk = copy.deepcopy(churned_index)
        victims = list(range(0, 2_500, 7))
        removed = sum(sequential.delete(object_id) for object_id in victims)
        assert bulk.delete_bulk(victims) == removed
        assert bulk.n_objects == sequential.n_objects
        for object_id in victims:
            assert object_id not in bulk
        bulk.check_invariants()
        # Bulk and sequential deletion leave equivalent indexes: identical
        # membership per cluster (order within a cluster may differ, the
        # store uses swap-remove) and identical query results.
        for cluster_sequential, cluster_bulk in zip(sequential.clusters(), bulk.clusters()):
            assert cluster_sequential.cluster_id == cluster_bulk.cluster_id
            assert sorted(cluster_sequential.store.ids.tolist()) == sorted(
                cluster_bulk.store.ids.tolist()
            )
        assert_batch_equals_loop(bulk, workload)

    def test_ignores_missing_and_duplicate_ids(self, churned_index):
        before = churned_index.n_objects
        assert churned_index.delete_bulk([0, 0, 10**9, 1]) == 2
        assert churned_index.n_objects == before - 2

    def test_empty_batch(self, churned_index):
        assert churned_index.delete_bulk([]) == 0

    def test_on_deep_copy(self, churned_index, workload):
        clone = copy.deepcopy(churned_index)
        assert clone.delete_bulk(range(0, 200)) > 0
        clone.check_invariants()
        assert_batch_equals_loop(clone, workload)


class TestWritesBetweenQueries:
    """Single writes touch one arena segment; the answers must not change.

    Between two queries an insert, a delete or a bulk delete rewrites only
    the written cluster's segment of the member arena, and a cluster that
    outgrows its segment relocates.  Every query of an interleaved stream
    on one index must answer as the reference does.
    """

    def test_interleaved_stream_matches_reference(self, churned_index, dataset, workload):
        engine = churned_index
        twin = copy.deepcopy(engine)
        rng = np.random.default_rng(8)
        live = [int(object_id) for object_id in dataset.ids]
        next_id = 10_000
        for step in range(160):
            kind = step % 4
            if kind == 0:
                # A burst of copies of one box lands in one cluster and
                # overflows its columns now and then.
                box = engine.get(live[int(rng.integers(len(live)))])
                for _ in range(1 if step % 40 else 60):
                    engine.insert(next_id, box)
                    twin.insert(next_id, box)
                    live.append(next_id)
                    next_id += 1
            elif kind == 1:
                victim = live.pop(int(rng.integers(len(live))))
                assert engine.delete(victim) and twin.delete(victim)
            elif kind == 2:
                victims = [live.pop(int(rng.integers(len(live)))) for _ in range(5)]
                assert engine.delete_bulk(victims) == twin.delete_bulk(victims) == 5
            query = workload.queries[step % len(workload.queries)]
            got = engine.execute(query, workload.relation)
            expected = reference_execute(twin, query, workload.relation)
            assert got.ids.tobytes() == expected.ids.tobytes()
            assert got.execution.core_counters() == expected.execution.core_counters()
        engine.check_invariants()
