"""Unit tests for :mod:`repro.core.benefit` (equations 3 and 5 of the paper)."""

import numpy as np
import pytest

from repro.core.benefit import (
    materialization_benefit,
    materialization_benefits,
    merging_benefit,
    merging_benefits,
)
from repro.core.cost_model import CostParameters


@pytest.fixture
def memory_cost():
    return CostParameters.memory_defaults(16)


@pytest.fixture
def disk_cost():
    return CostParameters.disk_defaults(16)


class TestMaterializationBenefit:
    def test_equation_three(self, memory_cost):
        p_c, p_s, n_s = 0.8, 0.2, 500
        expected = (p_c - p_s) * n_s * memory_cost.C - p_s * memory_cost.B - memory_cost.A
        assert materialization_benefit(p_s, n_s, p_c, memory_cost) == pytest.approx(expected)

    def test_profitable_case(self, memory_cost):
        # Many objects, rarely accessed candidate, frequently accessed parent.
        assert materialization_benefit(0.05, 1000, 1.0, memory_cost) > 0

    def test_unprofitable_when_candidate_as_hot_as_parent(self, memory_cost):
        # No verification is saved, only overhead is added.
        assert materialization_benefit(0.5, 1000, 0.5, memory_cost) < 0

    def test_unprofitable_for_empty_candidate(self, memory_cost):
        assert materialization_benefit(0.0, 0, 1.0, memory_cost) < 0

    def test_benefit_grows_with_object_count(self, memory_cost):
        small = materialization_benefit(0.1, 10, 0.9, memory_cost)
        large = materialization_benefit(0.1, 1000, 0.9, memory_cost)
        assert large > small

    def test_benefit_decreases_with_candidate_probability(self, memory_cost):
        cold = materialization_benefit(0.05, 500, 0.9, memory_cost)
        warm = materialization_benefit(0.5, 500, 0.9, memory_cost)
        assert cold > warm

    def test_disk_requires_larger_clusters(self, memory_cost, disk_cost):
        """The 15 ms random access makes small candidates unprofitable on disk."""
        p_s, p_c, n_s = 0.3, 1.0, 50
        assert materialization_benefit(p_s, n_s, p_c, memory_cost) > 0
        assert materialization_benefit(p_s, n_s, p_c, disk_cost) < 0

    def test_invalid_probability(self, memory_cost):
        with pytest.raises(ValueError):
            materialization_benefit(1.5, 10, 0.5, memory_cost)
        with pytest.raises(ValueError):
            materialization_benefit(0.5, 10, -0.1, memory_cost)

    def test_invalid_count(self, memory_cost):
        with pytest.raises(ValueError):
            materialization_benefit(0.5, -1, 0.5, memory_cost)

    def test_vectorised_agrees_with_scalar(self, memory_cost, rng):
        probabilities = rng.random(50)
        counts = rng.integers(0, 2000, 50)
        p_c = 0.9
        vector = materialization_benefits(probabilities, counts, p_c, memory_cost)
        for i in range(50):
            scalar = materialization_benefit(
                float(probabilities[i]), int(counts[i]), p_c, memory_cost
            )
            assert vector[i] == pytest.approx(scalar)

    def test_per_candidate_cluster_probabilities(self, memory_cost, rng):
        """Candidates of many clusters at once equal the scalar benefit bit for bit."""
        hosts = rng.random(40)
        probabilities = hosts * rng.random(40)
        counts = rng.integers(0, 2000, 40)
        vector = materialization_benefits(probabilities, counts, hosts, memory_cost)
        for i in range(40):
            assert vector[i] == materialization_benefit(
                float(probabilities[i]), int(counts[i]), float(hosts[i]), memory_cost
            )

    def test_vectorised_shape_mismatch(self, memory_cost):
        with pytest.raises(ValueError):
            materialization_benefits(np.zeros(3), np.zeros(4), 0.5, memory_cost)


class TestMergingBenefit:
    def test_equation_five(self, memory_cost):
        p_c, p_a, n_c = 0.3, 0.8, 200
        expected = memory_cost.A + p_c * memory_cost.B - (p_a - p_c) * n_c * memory_cost.C
        assert merging_benefit(p_c, n_c, p_a, memory_cost) == pytest.approx(expected)

    def test_profitable_when_probabilities_converge(self, memory_cost):
        """A child accessed as often as its parent is pure overhead."""
        assert merging_benefit(0.8, 500, 0.8, memory_cost) > 0

    def test_profitable_when_child_nearly_empty(self, memory_cost):
        assert merging_benefit(0.1, 1, 1.0, memory_cost) > 0

    def test_unprofitable_for_cold_large_child(self, memory_cost):
        assert merging_benefit(0.01, 5000, 1.0, memory_cost) < 0

    def test_merge_and_split_are_antagonistic(self, memory_cost):
        """For the same statistics, a beneficial split is not a beneficial merge."""
        p_s, n_s, p_c = 0.05, 1000, 1.0
        split_gain = materialization_benefit(p_s, n_s, p_c, memory_cost)
        merge_gain = merging_benefit(p_s, n_s, p_c, memory_cost)
        assert split_gain > 0
        assert merge_gain < 0
        # The two gains are exact opposites (split then merge is a no-op).
        assert split_gain == pytest.approx(-merge_gain)

    def test_vectorised_equals_scalar(self, memory_cost, rng):
        children = rng.random(40)
        parents = rng.random(40)
        counts = rng.integers(0, 2000, 40)
        vector = merging_benefits(children, counts, parents, memory_cost)
        for i in range(40):
            assert vector[i] == merging_benefit(
                float(children[i]), int(counts[i]), float(parents[i]), memory_cost
            )
        with pytest.raises(ValueError):
            merging_benefits(
                np.array([0.5, 1.5]), np.array([1, 1]), np.array([0.5, 0.5]), memory_cost
            )

    def test_invalid_inputs(self, memory_cost):
        with pytest.raises(ValueError):
            merging_benefit(-0.1, 10, 0.5, memory_cost)
        with pytest.raises(ValueError):
            merging_benefit(0.1, 10, 1.5, memory_cost)
        with pytest.raises(ValueError):
            merging_benefit(0.1, -5, 0.5, memory_cost)
