"""Unit tests for :mod:`repro.core.candidates`.

Query matching and ``q(s)`` increments are checked through the reference
query loop's candidate steps (``reference.py``).
"""

import numpy as np
import pytest

from repro.core.candidates import CandidateSet
from repro.core.clustering_function import ClusteringFunction
from repro.core.signature import ClusterSignature
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

from reference import candidate_match_mask, record_query


@pytest.fixture
def function():
    return ClusteringFunction(division_factor=4)


@pytest.fixture
def root_candidates(function):
    return CandidateSet.generate(ClusterSignature.root(3), function)


def random_members(rng, count, dimensions=3):
    lows = rng.random((count, dimensions)) * 0.5
    highs = lows + rng.random((count, dimensions)) * 0.5
    return lows, np.minimum(highs, 1.0)


class TestGeneration:
    def test_size(self, root_candidates):
        assert len(root_candidates) == 10 * 3
        assert not root_candidates.is_empty

    def test_counts_start_at_zero(self, root_candidates):
        assert root_candidates.object_counts.sum() == 0
        assert root_candidates.query_counts.sum() == 0

    def test_descriptor_and_signature_access(self, root_candidates):
        descriptor = root_candidates.descriptor(0)
        signature = root_candidates.signature(0)
        assert signature.variation(descriptor.dimension).as_tuple() == (
            descriptor.start_low,
            descriptor.start_high,
            descriptor.end_low,
            descriptor.end_high,
        )

    def test_descriptor_out_of_range(self, root_candidates):
        with pytest.raises(IndexError):
            root_candidates.descriptor(len(root_candidates))


class TestObjectMatching:
    def test_mask_agrees_with_full_signature(self, root_candidates, rng):
        lows, highs = random_members(rng, 40)
        for row in range(40):
            obj = HyperRectangle(lows[row], highs[row])
            mask = root_candidates.object_match_mask(obj)
            for candidate_index in range(len(root_candidates)):
                expected = root_candidates.signature(candidate_index).matches_object(obj)
                assert mask[candidate_index] == expected

    def test_counts_agree_with_mask_sum(self, root_candidates, rng):
        lows, highs = random_members(rng, 60)
        counts = root_candidates.object_match_counts(lows, highs)
        manual = np.zeros(len(root_candidates), dtype=np.int64)
        for row in range(60):
            manual += root_candidates.object_match_mask(HyperRectangle(lows[row], highs[row]))
        assert np.array_equal(counts, manual)

    def test_objects_matching_candidate(self, root_candidates, rng):
        lows, highs = random_members(rng, 30)
        for candidate_index in (0, 5, len(root_candidates) - 1):
            mask = root_candidates.objects_matching_candidate(candidate_index, lows, highs)
            signature = root_candidates.signature(candidate_index)
            expected = [
                signature.matches_object(HyperRectangle(lows[row], highs[row]))
                for row in range(30)
            ]
            assert mask.tolist() == expected

    def test_empty_member_set(self, root_candidates):
        counts = root_candidates.object_match_counts(np.empty((0, 3)), np.empty((0, 3)))
        assert counts.shape == (len(root_candidates),)
        assert counts.sum() == 0


class TestQueryMatching:
    @pytest.mark.parametrize("relation", list(SpatialRelation))
    def test_mask_agrees_with_full_signature(self, root_candidates, rng, relation):
        for _ in range(20):
            q_lows = rng.random(3) * 0.6
            q_highs = q_lows + rng.random(3) * 0.4
            query = HyperRectangle(q_lows, np.minimum(q_highs, 1.0))
            mask = candidate_match_mask(root_candidates, query, relation)
            for candidate_index in range(len(root_candidates)):
                expected = root_candidates.signature(candidate_index).matches_query(query, relation)
                assert mask[candidate_index] == expected


class TestStatisticsMaintenance:
    def test_record_query_increments_matching(self, root_candidates):
        query = HyperRectangle([0.1, 0.1, 0.1], [0.2, 0.2, 0.2])
        mask = candidate_match_mask(root_candidates, query, SpatialRelation.INTERSECTS)
        record_query(root_candidates, query, SpatialRelation.INTERSECTS)
        assert np.array_equal(root_candidates.query_counts, mask.astype(np.int64))

    def test_insert_then_remove_restores_counts(self, root_candidates, rng):
        lows, highs = random_members(rng, 10)
        for row in range(10):
            root_candidates.record_insertion(HyperRectangle(lows[row], highs[row]))
        before = root_candidates.object_counts.copy()
        assert before.sum() > 0
        for row in range(10):
            root_candidates.record_removal(HyperRectangle(lows[row], highs[row]))
        assert root_candidates.object_counts.sum() == 0
        root_candidates.validate_counts()

    def test_bulk_add_then_subtract(self, root_candidates, rng):
        lows, highs = random_members(rng, 25)
        root_candidates.add_object_counts(lows, highs)
        expected = root_candidates.object_match_counts(lows, highs)
        assert np.array_equal(root_candidates.object_counts, expected)
        root_candidates.subtract_object_counts(lows, highs)
        assert root_candidates.object_counts.sum() == 0

    def test_recompute(self, root_candidates, rng):
        lows, highs = random_members(rng, 25)
        root_candidates.recompute_object_counts(lows, highs)
        assert np.array_equal(
            root_candidates.object_counts,
            root_candidates.object_match_counts(lows, highs),
        )

    def test_reset_query_counts(self, root_candidates):
        query = HyperRectangle.unit(3)
        record_query(root_candidates, query, SpatialRelation.INTERSECTS)
        assert root_candidates.query_counts.sum() > 0
        root_candidates.reset_query_counts()
        assert root_candidates.query_counts.sum() == 0

    def test_validate_counts_detects_negative(self, root_candidates):
        root_candidates.object_counts[0] = -1
        with pytest.raises(AssertionError):
            root_candidates.validate_counts()


class TestAccessProbabilities:
    def test_zero_window(self, root_candidates):
        assert root_candidates.access_probabilities(0).sum() == 0.0

    def test_ratio(self, root_candidates):
        root_candidates.query_counts[:] = 0
        root_candidates.query_counts[0] = 30
        probabilities = root_candidates.access_probabilities(60)
        assert probabilities[0] == pytest.approx(0.5)
        assert probabilities[1] == 0.0

    def test_smoothing_keeps_probabilities_positive(self, root_candidates):
        probabilities = root_candidates.access_probabilities(100, smoothing=1.0)
        assert np.all(probabilities > 0.0)
        assert np.all(probabilities <= 1.0)

    def test_probabilities_clipped_to_one(self, root_candidates):
        root_candidates.query_counts[0] = 500
        probabilities = root_candidates.access_probabilities(100)
        assert probabilities[0] == 1.0
