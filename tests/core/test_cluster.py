"""Unit tests for :mod:`repro.core.cluster`.

Member verification and exploration statistics are checked through the
per-cluster steps of the reference query loop (``reference.py``), which
drive a cluster the way the paper's query execution does.
"""

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.clustering_function import ClusteringFunction
from repro.core.signature import ClusterSignature, VariationInterval
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation, satisfies

from reference import record_exploration, verify_members


@pytest.fixture
def function():
    return ClusteringFunction(division_factor=4)


@pytest.fixture
def root_cluster(function):
    return Cluster(0, ClusterSignature.root(3), function)


def random_boxes(rng, count, dimensions=3, max_extent=0.5):
    lows = rng.random((count, dimensions)) * (1 - max_extent)
    highs = lows + rng.random((count, dimensions)) * max_extent
    return [HyperRectangle(lows[i], np.minimum(highs[i], 1.0)) for i in range(count)]


class TestMembership:
    def test_add_and_count(self, root_cluster, rng):
        for object_id, box in enumerate(random_boxes(rng, 20)):
            assert root_cluster.accepts(box)
            root_cluster.add_object(object_id, box)
        assert root_cluster.n_objects == 20
        root_cluster.check_invariants()

    def test_add_bulk(self, root_cluster, rng):
        lows = rng.random((15, 3)) * 0.5
        highs = lows + 0.2
        root_cluster.add_objects_bulk(np.arange(15), lows, highs)
        assert root_cluster.n_objects == 15
        root_cluster.check_invariants()

    def test_remove_object(self, root_cluster, rng):
        boxes = random_boxes(rng, 5)
        for object_id, box in enumerate(boxes):
            root_cluster.add_object(object_id, box)
        removed = root_cluster.remove_object(2)
        assert removed == boxes[2]
        assert root_cluster.n_objects == 4
        assert root_cluster.remove_object(99) is None
        root_cluster.check_invariants()

    def test_refined_cluster_rejects_non_matching(self, function):
        signature = ClusterSignature.root(2).with_dimension(
            0, VariationInterval(0.0, 0.25, 0.0, 0.25)
        )
        cluster = Cluster(1, signature, function)
        assert cluster.accepts(HyperRectangle([0.1, 0.5], [0.2, 0.9]))
        assert not cluster.accepts(HyperRectangle([0.5, 0.5], [0.6, 0.9]))


class TestQueryExecution:
    def test_verify_members_agrees_with_predicates(self, root_cluster, rng):
        boxes = random_boxes(rng, 50)
        for object_id, box in enumerate(boxes):
            root_cluster.add_object(object_id, box)
        query = HyperRectangle([0.2, 0.2, 0.2], [0.6, 0.6, 0.6])
        for relation in SpatialRelation:
            found = set(verify_members(root_cluster, query, relation).tolist())
            expected = {
                object_id
                for object_id, box in enumerate(boxes)
                if satisfies(box, query, relation)
            }
            assert found == expected

    def test_verify_members_empty_cluster(self, root_cluster):
        query = HyperRectangle.unit(3)
        assert verify_members(root_cluster, query, SpatialRelation.INTERSECTS).size == 0

    def test_record_exploration_updates_statistics(self, root_cluster):
        query = HyperRectangle([0.1, 0.1, 0.1], [0.3, 0.3, 0.3])
        record_exploration(root_cluster, query, SpatialRelation.INTERSECTS)
        assert root_cluster.query_count == 1
        assert root_cluster.candidates.query_counts.sum() > 0


class TestAccessProbability:
    def test_root_probability_is_one(self, root_cluster):
        assert root_cluster.access_probability(0) == 1.0
        assert root_cluster.access_probability(1000) == 1.0

    def test_child_probability_ratio(self, function):
        child = Cluster(
            1,
            ClusterSignature.root(2).with_dimension(
                0, VariationInterval(0.0, 0.25, 0.0, 0.25)
            ),
            function,
            parent_id=0,
            creation_query=100,
        )
        child.query_count = 30
        assert child.access_probability(200) == pytest.approx(0.3)
        # No window yet -> probability 0.
        assert child.access_probability(100) == 0.0

    def test_probability_clipped_to_one(self, function):
        child = Cluster(1, ClusterSignature.root(2), function, parent_id=0)
        child.query_count = 500
        assert child.access_probability(100) == 1.0

    def test_reset_statistics(self, root_cluster):
        query = HyperRectangle.unit(3)
        record_exploration(root_cluster, query, SpatialRelation.INTERSECTS)
        root_cluster.reset_statistics(total_queries=50)
        assert root_cluster.query_count == 0
        assert root_cluster.creation_query == 50
        assert root_cluster.candidates.query_counts.sum() == 0


class TestExtraction:
    def test_extract_matching_moves_consistent_subsets(self, root_cluster, rng):
        boxes = random_boxes(rng, 80)
        for object_id, box in enumerate(boxes):
            root_cluster.add_object(object_id, box)
        candidate_index = int(np.argmax(root_cluster.candidates.object_counts))
        candidate_signature = root_cluster.candidates.signature(candidate_index)
        expected_ids = {
            object_id
            for object_id, box in enumerate(boxes)
            if candidate_signature.matches_object(box)
        }
        ids, lows, highs = root_cluster.extract_matching(candidate_index)
        assert set(ids.tolist()) == expected_ids
        assert root_cluster.n_objects == 80 - len(expected_ids)
        # Candidate statistics stay consistent after the move.
        root_cluster.check_invariants()
        assert root_cluster.candidates.object_counts[candidate_index] == 0

    def test_drain_members(self, root_cluster, rng):
        for object_id, box in enumerate(random_boxes(rng, 10)):
            root_cluster.add_object(object_id, box)
        ids, lows, highs = root_cluster.drain_members()
        assert ids.shape == (10,)
        assert root_cluster.n_objects == 0
        assert root_cluster.candidates.object_counts.sum() == 0
        root_cluster.check_invariants()


class TestHierarchy:
    def test_children_management(self, root_cluster):
        root_cluster.add_child(5)
        root_cluster.add_child(7)
        assert root_cluster.children_ids == {5, 7}
        root_cluster.remove_child(5)
        assert root_cluster.children_ids == {7}
        root_cluster.remove_child(42)  # removing an absent child is a no-op

    def test_is_root(self, root_cluster, function):
        assert root_cluster.is_root
        child = Cluster(1, ClusterSignature.root(3), function, parent_id=0)
        assert not child.is_root


class TestInvariants:
    def test_detects_stale_candidate_counts(self, root_cluster, rng):
        for object_id, box in enumerate(random_boxes(rng, 10)):
            root_cluster.add_object(object_id, box)
        root_cluster.candidates.object_counts[0] += 3
        with pytest.raises(AssertionError):
            root_cluster.check_invariants()

    def test_detects_foreign_members(self, function, rng):
        signature = ClusterSignature.root(2).with_dimension(
            0, VariationInterval(0.0, 0.25, 0.0, 0.25)
        )
        cluster = Cluster(1, signature, function)
        # Bypass the membership check by writing to the store directly.
        cluster.store.append(0, HyperRectangle([0.9, 0.1], [0.95, 0.2]))
        with pytest.raises(AssertionError):
            cluster.check_invariants()
