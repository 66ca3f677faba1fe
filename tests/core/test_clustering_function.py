"""Unit tests for :mod:`repro.core.clustering_function`."""

import numpy as np
import pytest

from repro.core.clustering_function import (
    CandidateDescriptor,
    ClusteringFunction,
    interval_edges,
)
from repro.core.signature import ClusterSignature, VariationInterval
from repro.geometry.box import HyperRectangle


class TestConstruction:
    def test_defaults(self):
        function = ClusteringFunction()
        assert function.division_factor == 4

    def test_invalid_division_factor(self):
        with pytest.raises(ValueError):
            ClusteringFunction(division_factor=1)

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            ClusteringFunction(domain_low=1.0, domain_high=0.0)

    def test_counting_helpers(self):
        function = ClusteringFunction(division_factor=4)
        assert function.max_candidates_per_dimension() == 16
        assert function.symmetric_candidates_per_dimension() == 10


class TestRootCandidates:
    def test_symmetric_count_matches_paper_footnote(self):
        """For identical variation intervals only f(f+1)/2 combinations are valid."""
        function = ClusteringFunction(division_factor=4)
        root = ClusterSignature.root(1)
        candidates = function.candidates_for(root)
        assert len(candidates) == 10  # f(f+1)/2 with f=4 (paper Example 3)

    def test_candidate_count_is_linear_in_dimensions(self):
        function = ClusteringFunction(division_factor=4)
        for dimensions in (2, 5, 16):
            candidates = function.candidates_for(ClusterSignature.root(dimensions))
            assert len(candidates) == 10 * dimensions

    def test_paper_example_3_sub_signatures(self):
        """Example 3 of the paper: dimension d1 of the root split with f=4."""
        function = ClusteringFunction(division_factor=4)
        root = ClusterSignature.root(2)
        descriptors = [d for d in function.candidates_for(root) if d.dimension == 0]
        assert len(descriptors) == 10
        starts = sorted({(d.start_low, d.start_high) for d in descriptors})
        assert starts == [(0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]
        # The first start quarter combines with every end quarter.
        first_quarter = [d for d in descriptors if d.start_high == 0.25]
        assert len(first_quarter) == 4

    def test_candidates_cover_all_dimensions(self):
        function = ClusteringFunction(division_factor=3)
        candidates = function.candidates_for(ClusterSignature.root(5))
        assert {d.dimension for d in candidates} == set(range(5))


class TestCandidateProperties:
    def test_backward_compatibility(self, rng):
        """Objects qualifying for a candidate also qualify for the parent (Section 3.3)."""
        function = ClusteringFunction(division_factor=4)
        parent = ClusterSignature.root(3).with_dimension(0, VariationInterval(0.0, 0.5, 0.0, 1.0))
        signatures = function.candidate_signatures(parent)
        assert signatures
        for signature in signatures:
            assert parent.contains_signature(signature)
        for _ in range(100):
            lows = rng.random(3) * 0.5
            highs = lows + rng.random(3) * 0.5
            obj = HyperRectangle(lows, np.minimum(highs, 1.0))
            for signature in signatures:
                if signature.matches_object(obj):
                    assert parent.matches_object(obj)

    def test_candidates_differ_in_exactly_one_dimension(self):
        function = ClusteringFunction(division_factor=2)
        parent = ClusterSignature.root(4)
        for descriptor in function.candidates_for(parent):
            signature = descriptor.signature(parent)
            constrained = signature.constrained_dimensions()
            assert constrained == [descriptor.dimension]

    def test_impossible_combinations_are_skipped(self):
        """No candidate admits only intervals with start above end."""
        function = ClusteringFunction(division_factor=4)
        for descriptor in function.candidates_for(ClusterSignature.root(2)):
            assert descriptor.start_low <= descriptor.end_high

    def test_non_symmetric_parent_yields_more_candidates(self):
        """When the start and end variation intervals differ, up to f² combos exist."""
        function = ClusteringFunction(division_factor=4)
        parent = ClusterSignature.root(1).with_dimension(0, VariationInterval(0.0, 0.25, 0.5, 1.0))
        candidates = function.candidates_for(parent)
        assert len(candidates) == 16  # all combinations are valid and distinct

    def test_parent_signature_never_regenerated(self):
        """A candidate identical to its parent would cause an infinite split loop."""
        function = ClusteringFunction(division_factor=4)
        parent = ClusterSignature.root(2).with_dimension(0, VariationInterval(0.2, 0.2, 0.7, 0.7))
        for descriptor in function.candidates_for(parent):
            assert descriptor.signature(parent) != parent

    def test_every_parent_member_matches_some_candidate(self, rng):
        """The candidate family covers the parent's member space on each dimension."""
        function = ClusteringFunction(division_factor=4)
        parent = ClusterSignature.root(2)
        signatures = function.candidate_signatures(parent)
        for _ in range(100):
            lows = rng.random(2) * 0.5
            highs = lows + rng.random(2) * 0.5
            obj = HyperRectangle(lows, np.minimum(highs, 1.0))
            assert any(signature.matches_object(obj) for signature in signatures)


class TestDescriptor:
    def test_variation_and_signature(self):
        descriptor = CandidateDescriptor(1, 0.0, 0.25, 0.25, 0.5)
        parent = ClusterSignature.root(3)
        signature = descriptor.signature(parent)
        assert signature.variation(1) == descriptor.variation()
        assert signature.variation(0) == parent.variation(0)


# ----------------------------------------------------------------------
# The array generator against the per-dimension loop it replaced
# ----------------------------------------------------------------------
def reference_candidates(signature, factor):
    """Frozen copy of the per-dimension generator (one ``np.linspace`` per interval)."""

    def split_interval(low, high):
        edges = np.linspace(low, high, factor + 1)
        return [(float(edges[i]), float(edges[i + 1])) for i in range(factor)]

    found = []
    for dimension in range(signature.dimensions):
        parent = signature.variation(dimension)
        parent_key = parent.as_tuple()
        seen = set()
        for s_low, s_high in split_interval(parent.start_low, parent.start_high):
            for e_low, e_high in split_interval(parent.end_low, parent.end_high):
                if s_low >= e_high:
                    continue
                key = (s_low, s_high, e_low, e_high)
                if key == parent_key or key in seen:
                    continue
                seen.add(key)
                found.append((dimension,) + key)
    return found


def random_signature(rng, dimensions):
    """A signature mixing ordinary, zero-width, coinciding and near-denormal intervals."""
    tiny = np.finfo(np.float64).smallest_subnormal
    rows = []
    for _ in range(dimensions):
        low, high = np.sort(rng.random(2))
        kind = rng.integers(0, 6)
        if kind == 0:  # zero-width start and end intervals
            rows.append((low, low, high, high))
        elif kind == 1:  # start and end intervals coincide
            rows.append((low, high, low, high))
        elif kind == 2:  # widths of a few ulps
            start_width = np.spacing(low) * rng.integers(0, 4)
            end_width = np.spacing(high) * rng.integers(0, 9)
            rows.append((low, low + start_width, high, high + end_width))
        elif kind == 3:  # a point: every piece coincides
            rows.append((low, low, low, low))
        elif kind == 4:  # denormal widths at zero
            rows.append((0.0, tiny * rng.integers(0, 3), tiny, tiny * rng.integers(1, 5)))
        else:
            rows.append(tuple(np.sort(rng.random(4))))
    bounds = np.array(rows, dtype=np.float64)
    return ClusterSignature.from_arrays(bounds[:, 0], bounds[:, 1], bounds[:, 2], bounds[:, 3])


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestArrayGenerator:
    @pytest.mark.parametrize("factor", [2, 3, 4, 5, 6])
    def test_root_matches_reference_loop(self, factor):
        signature = ClusterSignature.root(4)
        self.assert_matches_reference(ClusteringFunction(factor), signature)

    @pytest.mark.parametrize("factor", [2, 3, 4, 5, 6])
    def test_random_signatures_match_reference_loop(self, factor):
        rng = np.random.default_rng(1000 + factor)
        function = ClusteringFunction(factor)
        for _ in range(60):
            signature = random_signature(rng, int(rng.integers(1, 6)))
            self.assert_matches_reference(function, signature)

    def test_refined_signatures_match_reference_loop(self):
        """Candidates of candidates, several levels down."""
        function = ClusteringFunction(4)
        signature = ClusterSignature.root(3)
        for level in range(6):
            self.assert_matches_reference(function, signature)
            descriptors = function.candidates_for(signature)
            signature = descriptors[(7 * level + 3) % len(descriptors)].signature(signature)

    @staticmethod
    def assert_matches_reference(function, signature):
        expected = reference_candidates(signature, function.division_factor)
        columns = function.candidate_columns(signature)
        assert columns[0].dtype == np.int64
        assert [int(d) for d in columns[0]] == [row[0] for row in expected]
        for position, column in enumerate(columns[1:], start=1):
            assert column.dtype == np.float64
            np.testing.assert_array_equal(
                bits(column), bits([row[position] for row in expected])
            )
        descriptors = function.candidates_for(signature)
        assert [
            (d.dimension, d.start_low, d.start_high, d.end_low, d.end_high) for d in descriptors
        ] == expected

    def test_interval_edges_equal_linspace_per_row(self):
        rng = np.random.default_rng(7)
        tiny = np.finfo(np.float64).smallest_subnormal
        lows = np.concatenate([rng.random(20), [0.3, 0.0, 0.0, 0.5]])
        widths = np.concatenate([rng.random(20) * 0.5, [0.0, tiny, 3 * tiny, 0.0]])
        highs = lows + widths
        for parts in (2, 3, 4, 7):
            edges = interval_edges(lows, highs, parts)
            assert edges.shape == (lows.size, parts + 1)
            for row in range(lows.size):
                np.testing.assert_array_equal(
                    bits(edges[row]), bits(np.linspace(lows[row], highs[row], parts + 1))
                )
