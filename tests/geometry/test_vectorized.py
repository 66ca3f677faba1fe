"""Unit tests for :mod:`repro.geometry.vectorized`."""

import numpy as np
import pytest

from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation, satisfies
from repro.geometry.vectorized import matching_mask


def stacked_bounds(boxes):
    return np.array([box.lows for box in boxes]), np.array([box.highs for box in boxes])


@pytest.fixture
def boxes():
    return [
        HyperRectangle([0.0, 0.0], [0.2, 0.2]),
        HyperRectangle([0.1, 0.1], [0.9, 0.9]),
        HyperRectangle([0.5, 0.6], [0.7, 0.8]),
        HyperRectangle([0.4, 0.4], [0.6, 0.6]),
    ]


class TestMatchingMask:
    @pytest.mark.parametrize("relation", list(SpatialRelation))
    def test_agrees_with_scalar_predicates(self, boxes, relation):
        query = HyperRectangle([0.3, 0.3], [0.65, 0.65])
        lows, highs = stacked_bounds(boxes)
        mask = matching_mask(lows, highs, query, relation)
        expected = [satisfies(box, query, relation) for box in boxes]
        assert mask.tolist() == expected

    def test_point_query(self, boxes):
        point = HyperRectangle.from_point([0.5, 0.5])
        lows, highs = stacked_bounds(boxes)
        mask = matching_mask(lows, highs, point, SpatialRelation.CONTAINS)
        expected = [box.contains_point([0.5, 0.5]) for box in boxes]
        assert mask.tolist() == expected

    def test_empty_input(self):
        mask = matching_mask(
            np.empty((0, 2)), np.empty((0, 2)),
            HyperRectangle([0, 0], [1, 1]), SpatialRelation.INTERSECTS,
        )
        assert mask.shape == (0,)

    def test_dimension_mismatch(self, boxes):
        lows, highs = stacked_bounds(boxes)
        with pytest.raises(ValueError):
            matching_mask(lows, highs, HyperRectangle([0], [1]), SpatialRelation.INTERSECTS)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            matching_mask(
                np.zeros((2, 2)), np.zeros((3, 2)),
                HyperRectangle([0, 0], [1, 1]), SpatialRelation.INTERSECTS,
            )
