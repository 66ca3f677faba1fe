"""Reorganization behaviour: splits, merges, adaptation and the cost model."""

import copy

import numpy as np
import pytest

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.evaluation.metrics import ModeledCostModel
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.queries import generate_point_queries, generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset


def build_index(dataset, scenario="memory", **overrides):
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario(scenario, dataset.dimensions),
        reorganization_period=overrides.pop("reorganization_period", 50),
        **overrides,
    )
    index = AdaptiveClusteringIndex(config=config)
    dataset.load_into(index)
    return index


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(4000, 8, seed=17, max_extent=0.4)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_query_workload(dataset, 40, target_selectivity=5e-3, seed=18)


def warm_up(index, workload, queries=400):
    for i in range(queries):
        index.query(workload.queries[i % len(workload.queries)], workload.relation)


def assert_stores_compact(index):
    """Splits and merges leave no member store mostly empty (paper: >= 0.7 used)."""
    stores = [cluster.store for cluster in index.clusters()]
    for store in stores:
        assert 2 * len(store) >= store.capacity or store.capacity == 8
    assert index.n_objects / sum(store.capacity for store in stores) >= 0.7


class TestSplitting:
    def test_queries_trigger_clustering(self, dataset, workload):
        index = build_index(dataset)
        assert index.n_clusters == 1
        warm_up(index, workload)
        assert index.n_clusters > 1
        assert index.reorganization_count > 0
        index.check_invariants()

    def test_reorganization_report(self, dataset, workload):
        index = build_index(dataset, auto_reorganize=False)
        warm_up(index, workload, queries=100)
        report = index.reorganize()
        assert report.clusters_before == 1
        assert report.clusters_after == index.n_clusters
        assert report.materializations == len(report.created_cluster_ids)
        assert report.changed == (report.materializations + report.merges > 0)

    def test_auto_reorganization_period(self, dataset, workload):
        index = build_index(dataset, reorganization_period=30)
        for i in range(29):
            index.query(workload.queries[i % len(workload.queries)], workload.relation)
        assert index.reorganization_count == 0
        index.query(workload.queries[0], workload.relation)
        assert index.reorganization_count == 1

    def test_auto_reorganization_disabled(self, dataset, workload):
        index = build_index(dataset, auto_reorganize=False)
        warm_up(index, workload, queries=150)
        assert index.reorganization_count == 0
        assert index.n_clusters == 1

    def test_max_clusters_cap(self, dataset, workload):
        index = build_index(dataset, max_clusters=5)
        warm_up(index, workload)
        assert index.n_clusters <= 5

    def test_min_cluster_objects_floor(self, dataset, workload):
        index = build_index(dataset, min_cluster_objects=50)
        warm_up(index, workload)
        non_root_sizes = [
            cluster.n_objects
            for cluster in index.clusters()
            if not cluster.is_root and cluster.n_objects > 0
        ]
        # Clusters are created with at least the configured floor; later
        # deletions could shrink them, but this workload performs none.
        assert all(size >= 50 for size in non_root_sizes)

    def test_children_signatures_contained_in_parent(self, dataset, workload):
        index = build_index(dataset)
        warm_up(index, workload)
        for cluster in index.clusters():
            parent = index.get_cluster(cluster.parent_id)
            if parent is not None:
                assert parent.signature.contains_signature(cluster.signature)


class TestAdaptation:
    def test_disk_scenario_builds_fewer_clusters(self, dataset, workload):
        """The 15 ms random access makes fine-grained clustering unprofitable."""
        memory_index = build_index(dataset, scenario="memory")
        disk_index = build_index(dataset, scenario="disk")
        warm_up(memory_index, workload)
        warm_up(disk_index, workload)
        assert disk_index.n_clusters < memory_index.n_clusters

    def test_selective_queries_build_more_clusters(self, dataset):
        selective = generate_query_workload(dataset, 30, target_selectivity=1e-4, seed=3)
        broad = generate_query_workload(dataset, 30, target_selectivity=0.5, seed=3)
        selective_index = build_index(dataset)
        broad_index = build_index(dataset)
        warm_up(selective_index, selective)
        warm_up(broad_index, broad)
        assert selective_index.n_clusters > broad_index.n_clusters

    def test_merges_follow_query_distribution_change(self, dataset):
        selective = generate_query_workload(dataset, 30, target_selectivity=1e-4, seed=3)
        broad = generate_query_workload(dataset, 30, target_selectivity=0.5, seed=4)
        index = build_index(dataset, reset_statistics_on_reorganization=True)
        warm_up(index, selective)
        clusters_after_selective = index.n_clusters
        assert_stores_compact(index)
        warm_up(index, broad, queries=800)
        assert index.n_clusters < clusters_after_selective
        assert_stores_compact(index)
        index.check_invariants()

    def test_modeled_time_never_worse_than_sequential_scan(self, dataset, workload):
        """The paper's guarantee: AC average cost <= Sequential Scan cost."""
        cost = CostParameters.memory_defaults(dataset.dimensions)
        index = build_index(dataset)
        warm_up(index, workload)
        model = ModeledCostModel(cost)
        scan_time = cost.sequential_scan_time(dataset.size)
        modeled = []
        for query in workload.queries:
            stats = index.execute(query, workload.relation).execution
            modeled.append(model.query_time_ms(stats))
        assert np.mean(modeled) <= scan_time * 1.05  # 5% tolerance for estimation noise

    def test_statistics_reset_option(self, dataset, workload):
        index = build_index(dataset, reset_statistics_on_reorganization=True)
        warm_up(index, workload, queries=120)
        # After a reorganization with reset, per-cluster counters restart.
        for cluster in index.clusters():
            assert cluster.query_count <= index.total_queries - cluster.creation_query


class TestMergeMechanics:
    def test_forced_merge_returns_objects_to_parent(self, dataset, workload):
        index = build_index(dataset)
        warm_up(index, workload)
        children = [c for c in index.clusters() if not c.is_root and c.n_objects > 0]
        assert children
        child = children[0]
        parent = index.get_cluster(child.parent_id)
        moved = child.n_objects
        parent_before = parent.n_objects
        total_before = index.n_objects
        index._merge_into_parent(child)
        assert parent.n_objects == parent_before + moved
        assert index.n_objects == total_before
        assert child.cluster_id not in index._clusters
        index.check_invariants()

    def test_root_cannot_be_merged(self, dataset):
        index = build_index(dataset)
        with pytest.raises(ValueError):
            index._merge_into_parent(index.root)

    def test_grandchildren_are_reparented(self, dataset, workload):
        index = build_index(dataset)
        warm_up(index, workload, queries=600)
        # Find a cluster with both a parent and children (depth >= 1 with kids).
        middle = next(
            (
                c
                for c in index.clusters()
                if not c.is_root and c.children_ids
            ),
            None,
        )
        if middle is None:
            pytest.skip("the workload did not produce a two-level hierarchy")
        grandchild_ids = set(middle.children_ids)
        parent = index.get_cluster(middle.parent_id)
        index._merge_into_parent(middle)
        for grandchild_id in grandchild_ids:
            grandchild = index.get_cluster(grandchild_id)
            assert grandchild.parent_id == parent.cluster_id
            assert grandchild_id in parent.children_ids
        index.check_invariants()


# ----------------------------------------------------------------------
# The pass's screen and its single splice
# ----------------------------------------------------------------------
RELATIONS = [
    SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINED_BY,
    SpatialRelation.CONTAINS,
]

CONFIGS = {
    "default": {},
    "max-clusters": {"max_clusters": 12},
    "reset-statistics": {"reset_statistics_on_reorganization": True},
}


@pytest.fixture(scope="module")
def drift_streams(dataset):
    """Per relation: queries that drift half-way, so splits and merges both happen."""
    streams = {}
    for relation in RELATIONS:
        if relation is SpatialRelation.CONTAINS:
            # Enclosed points, moving from one corner of the space to the other.
            points = generate_point_queries(60, dataset.dimensions, seed=33).queries
            before = [HyperRectangle(p.lows * 0.5, p.highs * 0.5) for p in points[:30]]
            after = [HyperRectangle(0.5 + p.lows * 0.5, 0.5 + p.highs * 0.5) for p in points[30:]]
        else:
            # Selective queries, then broad ones.
            before = generate_query_workload(
                dataset, 30, target_selectivity=1e-3, relation=relation, seed=31
            ).queries
            after = generate_query_workload(
                dataset, 30, target_selectivity=0.3, relation=relation, seed=32
            ).queries
        streams[relation] = [before[i % 30] for i in range(240)] + [
            after[i % 30] for i in range(120)
        ]
    return streams


class PassRecorder:
    """Records every pass's report and how often the per-cluster procedure ran."""

    def __init__(self, index):
        self.reports = []
        self.procedures = 0
        reorganizer = index._reorganizer
        run_pass = reorganizer.reorganize
        run_procedure = reorganizer._reorganize_cluster

        def recording_pass(target):
            report = run_pass(target)
            self.reports.append(report)
            return report

        def counting_procedure(*args):
            self.procedures += 1
            return run_procedure(*args)

        reorganizer.reorganize = recording_pass
        reorganizer._reorganize_cluster = counting_procedure


def screen_everything(index):
    """Force the screen to pass every cluster on: the scalar Fig. 1-3 pass."""
    index._reorganizer._screen = lambda target, clusters: np.ones(len(clusters), dtype=bool)


def assert_same_clusters(index, twin):
    assert [c.cluster_id for c in index.clusters()] == [c.cluster_id for c in twin.clusters()]
    for cluster in index.clusters():
        other = twin.get_cluster(cluster.cluster_id)
        assert other.parent_id == cluster.parent_id
        assert other.query_count == cluster.query_count
        assert other.creation_query == cluster.creation_query
        assert np.array_equal(other.store.ids, cluster.store.ids)
        assert np.array_equal(other.candidates.query_counts, cluster.candidates.query_counts)
        assert np.array_equal(other.candidates.object_counts, cluster.candidates.object_counts)


def stacked_arrays(index):
    """Every stacked array the splice maintains, by name."""
    arrays = {"constrained": index._signature_constrained}
    arrays.update(zip(("start_low", "start_high", "end_low", "end_high"), index._signature_matrix))
    arrays.update(
        zip(
            ("cand_dim", "cand_sl", "cand_sh", "cand_el", "cand_eh"),
            index._candidate_matrix,
        )
    )
    arrays["offsets"] = index._candidate_offsets
    arrays["query_counts"] = index._candidate_query_counts
    arrays.update(
        zip(
            ("grid_sl", "grid_sh", "grid_el", "grid_eh", "cell_prefix", "cell_suffix"),
            index._candidate_grid,
        )
    )
    return arrays


def assert_matrices_match_rebuild(index):
    """The spliced matrices equal those of a deep copy rebuilt from scratch."""
    index._ensure_signature_matrix()
    assert index._candidate_grid, "the grid was rebuilt, not spliced"
    rebuilt = copy.deepcopy(index)
    rebuilt._invalidate_signature_matrix()
    rebuilt._ensure_signature_matrix()
    rebuilt._ensure_candidate_grid()
    assert index._signature_cluster_ids == rebuilt._signature_cluster_ids
    spliced, fresh = stacked_arrays(index), stacked_arrays(rebuilt)
    for name, array in fresh.items():
        assert spliced[name].dtype == array.dtype, name
        np.testing.assert_array_equal(spliced[name], array, err_msg=name)
    assert index._candidate_views_valid()
    index.check_invariants()


class TestScreenAndSplice:
    @pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_screened_pass_equals_scalar_pass(self, dataset, drift_streams, relation, overrides):
        screened = build_index(dataset, reorganization_period=30, **overrides)
        scalar = copy.deepcopy(screened)
        screen_everything(scalar)
        screened_passes, scalar_passes = PassRecorder(screened), PassRecorder(scalar)

        for query in drift_streams[relation]:
            (found,) = screened.execute_batch([query], relation)
            (expected,) = scalar.execute_batch([query], relation)
            assert np.array_equal(found.ids, expected.ids)
            assert found.execution.core_counters() == expected.execution.core_counters()

        assert len(scalar_passes.reports) >= 10
        assert screened_passes.reports == scalar_passes.reports
        assert any(report.changed for report in scalar_passes.reports)
        assert_same_clusters(screened, scalar)
        # The screen really skipped clusters.
        assert screened_passes.procedures < scalar_passes.procedures

    def test_drift_streams_merge(self, dataset, drift_streams):
        index = build_index(
            dataset, reorganization_period=30, reset_statistics_on_reorganization=True
        )
        passes = PassRecorder(index)
        relation = SpatialRelation.INTERSECTS
        for query in drift_streams[relation]:
            index.execute_batch([query], relation)
        assert sum(report.merges for report in passes.reports) > 0
        assert sum(report.materializations for report in passes.reports) > 0

    @pytest.mark.parametrize("overrides", CONFIGS.values(), ids=CONFIGS.keys())
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_splice_equals_rebuild_after_every_pass(
        self, dataset, drift_streams, relation, overrides
    ):
        index = build_index(dataset, reorganization_period=30, **overrides)
        passes = 0
        for query in drift_streams[relation]:
            before = index.reorganization_count
            index.execute_batch([query], relation)
            if index.reorganization_count != before:
                passes += 1
                assert_matrices_match_rebuild(index)
        assert passes >= 10

    def test_direct_merges_and_splits_outside_a_pass(self, dataset, drift_streams):
        relation = SpatialRelation.INTERSECTS
        index = build_index(dataset, reorganization_period=30)
        stream = drift_streams[relation][:240]
        for query in stream:
            index.execute_batch([query], relation)
        # Merge a leaf, then a cluster with children, and split the root.
        leaf = next(c for c in index.clusters() if not c.is_root and not c.children_ids)
        index._merge_into_parent(leaf)
        middle = next((c for c in index.clusters() if not c.is_root and c.children_ids), None)
        if middle is not None:
            index._merge_into_parent(middle)
        created = index._materialize_candidate(index.root, 0)
        assert index._signature_rows_stale
        assert_matrices_match_rebuild(index)
        assert created.cluster_id in index._signature_cluster_ids

        # A fresh change reaches the matrices at the next batch by itself.
        twin = copy.deepcopy(index)
        child_id = next(c.cluster_id for c in index.clusters() if not c.is_root)
        for target in (index, twin):
            target._merge_into_parent(target.get_cluster(child_id))
        twin._invalidate_signature_matrix()
        for query in stream[:40]:
            (found,) = index.execute_batch([query], relation)
            (expected,) = twin.execute_batch([query], relation)
            assert np.array_equal(found.ids, expected.ids)
            assert found.execution.core_counters() == expected.execution.core_counters()
        assert_same_clusters(index, twin)
        index.check_invariants()
