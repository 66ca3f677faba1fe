"""Unit tests for the reorganizer's decision policy in isolation."""

import copy

import numpy as np

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters, SystemCostConstants
from repro.core.index import AdaptiveClusteringIndex
from repro.core.reorganize import ReorganizationReport, Reorganizer
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation


class TestReorganizationReport:
    def test_defaults(self):
        report = ReorganizationReport()
        assert report.materializations == 0
        assert report.merges == 0
        assert not report.changed
        assert report.created_cluster_ids == []

    def test_changed_flag(self):
        assert ReorganizationReport(materializations=1).changed
        assert ReorganizationReport(merges=2).changed
        assert not ReorganizationReport(clusters_before=3, clusters_after=3).changed


def fast_splitting_index(dimensions=2, min_cluster_objects=1):
    """An index whose cost model splits eagerly (cheap exploration)."""
    constants = SystemCostConstants(exploration_setup_ms=1e-5)
    config = AdaptiveClusteringConfig(
        cost=CostParameters.memory_defaults(dimensions, constants),
        reorganization_period=0,
        auto_reorganize=False,
        min_cluster_objects=min_cluster_objects,
    )
    return AdaptiveClusteringIndex(config=config)


class TestSplitDecision:
    def test_no_split_without_queries(self):
        """Without query statistics every candidate looks as hot as the root."""
        index = fast_splitting_index()
        for object_id in range(100):
            low = (object_id % 10) / 10.0
            index.insert(object_id, HyperRectangle([low, low], [low + 0.05, low + 0.05]))
        report = index.reorganize()
        # Access probability estimates are all zero-window; the smoothed
        # candidate probability equals the root's probability (1 is clipped),
        # so nothing is materialized blindly before any query arrives.
        assert report.merges == 0

    def test_selective_queries_cause_splits_then_converge(self):
        """Splits happen, and the clustering stabilises within ~10 passes.

        The paper (Section 7.1) observes that, for a stable query
        distribution, the clustering process reaches a stable state in
        fewer than ten reorganization steps.
        """
        index = fast_splitting_index()
        for object_id in range(200):
            low = (object_id % 20) / 20.0
            index.insert(object_id, HyperRectangle([low, 0.0], [low + 0.04, 0.1]))
        # Very selective queries: each touches a narrow slice of dimension 0.
        queries = [HyperRectangle([i / 20.0, 0.0], [i / 20.0 + 0.01, 1.0]) for i in range(20)]
        total_materializations = 0
        converged = False
        for _ in range(10):
            for _ in range(5):
                for query in queries:
                    index.query(query, SpatialRelation.INTERSECTS)
            report = index.reorganize()
            total_materializations += report.materializations
            if not report.changed:
                converged = True
                break
        assert total_materializations > 0
        assert converged
        index.check_invariants()

    def test_max_clusters_stops_materialization(self):
        index = fast_splitting_index()
        object.__setattr__(index.config, "max_clusters", 2)
        for object_id in range(200):
            low = (object_id % 20) / 20.0
            index.insert(object_id, HyperRectangle([low, 0.0], [low + 0.04, 0.1]))
        queries = [HyperRectangle([i / 20.0, 0.0], [i / 20.0 + 0.01, 1.0]) for i in range(20)]
        for query in queries:
            index.query(query, SpatialRelation.INTERSECTS)
        index.reorganize()
        assert index.n_clusters <= 2


class TestMergeDecision:
    def test_hot_child_is_merged_back(self):
        """A child explored as often as its parent is pure overhead (eq. 5)."""
        index = fast_splitting_index()
        for object_id in range(200):
            low = (object_id % 20) / 20.0
            index.insert(object_id, HyperRectangle([low, 0.0], [low + 0.04, 0.1]))
        selective = [HyperRectangle([i / 20.0, 0.0], [i / 20.0 + 0.01, 1.0]) for i in range(20)]
        for _ in range(5):
            for query in selective:
                index.query(query, SpatialRelation.INTERSECTS)
        index.reorganize()
        clusters_after_split = index.n_clusters
        assert clusters_after_split > 1
        # Switch to broad queries that explore every cluster; reset the
        # statistics windows so the new distribution dominates.
        index.reset_statistics()
        broad = HyperRectangle.unit(2)
        for _ in range(100):
            index.query(broad, SpatialRelation.INTERSECTS)
        report = index.reorganize()
        assert report.merges > 0
        assert index.n_clusters < clusters_after_split
        index.check_invariants()

    def test_reorganizer_respects_reset_option(self):
        constants = SystemCostConstants(exploration_setup_ms=1e-5)
        config = AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(2, constants),
            reorganization_period=0,
            auto_reorganize=False,
            reset_statistics_on_reorganization=True,
        )
        index = AdaptiveClusteringIndex(config=config)
        for object_id in range(50):
            low = object_id / 50.0
            index.insert(object_id, HyperRectangle([low, low], [min(low + 0.1, 1.0)] * 2))
        for _ in range(30):
            index.query(HyperRectangle.unit(2))
        Reorganizer(config).reorganize(index)
        # All statistics windows restart after the pass.
        for cluster in index.clusters():
            assert cluster.query_count == 0


class TestScreen:
    def test_cluster_whose_parent_merged_away_is_reconsidered(self):
        """A screened-out cluster is judged again against the parent it inherits mid-pass.

        Hierarchy root -> g -> p -> c: the empty, hot p merges into the cold
        g; c does not profit from merging into p, but does from merging into
        g once that is its parent.
        """
        config = AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(1),
            auto_reorganize=False,
            min_cluster_objects=10**9,  # no candidate is ever eligible
        )
        index = AdaptiveClusteringIndex(config=config)
        for object_id in range(1000):  # inside c's signature
            low = object_id / 1e5
            index.insert(object_id, HyperRectangle([low], [low + 0.001]))
        for object_id in range(1000, 2000):  # inside g's signature only
            low = 0.07 + (object_id - 1000) / 2e4
            index.insert(object_id, HyperRectangle([low], [low + 0.1]))
        g = index._materialize_candidate(index.root, 0)
        p = index._materialize_candidate(g, 0)
        c = index._materialize_candidate(p, 0)
        assert (g.n_objects, p.n_objects, c.n_objects) == (1000, 0, 1000)
        # Access probabilities: g 0.1, p 0.9, c 0.45.
        index._total_queries = 1000
        for cluster, created, explored in ((g, 0, 100), (p, 900, 90), (c, 900, 45)):
            cluster.creation_query = created
            cluster.query_count = explored

        clusters = [index.get_cluster(cid) for cid in index.cluster_ids_top_down()]
        assert clusters == [index.root, g, p, c]
        assert list(index._reorganizer._screen(index, clusters)) == [False, False, True, False]
        scalar = copy.deepcopy(index)
        scalar._reorganizer._screen = lambda target, found: np.ones(len(found), dtype=bool)

        report = index.reorganize()
        assert report.removed_cluster_ids == [p.cluster_id, c.cluster_id]
        assert report == scalar.reorganize()
        assert c.cluster_id not in index._signature_cluster_ids
        index.check_invariants()
