"""Unit tests for :mod:`repro.geometry.box`."""

import numpy as np
import pytest

from repro.geometry.box import HyperRectangle, box_table
from repro.geometry.interval import Interval


class TestConstruction:
    def test_basic(self):
        box = HyperRectangle([0.1, 0.2], [0.4, 0.6])
        assert box.dimensions == 2
        assert box.lows.tolist() == [0.1, 0.2]
        assert box.highs.tolist() == [0.4, 0.6]

    def test_from_intervals(self):
        box = HyperRectangle.from_intervals([Interval(0.0, 0.5), Interval(0.2, 0.3)])
        assert box.interval(1) == Interval(0.2, 0.3)

    def test_from_point(self):
        box = HyperRectangle.from_point([0.3, 0.7])
        assert box.is_point()

    def test_unit(self):
        box = HyperRectangle.unit(5)
        assert box.dimensions == 5
        assert box.volume() == pytest.approx(1.0)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            HyperRectangle([0.1, 0.2], [0.4])

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            HyperRectangle([0.5, 0.2], [0.4, 0.6])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            HyperRectangle([], [])

    @pytest.mark.parametrize("side", ["lows", "highs"])
    def test_nan_coordinate_rejected_naming_its_dimension(self, side):
        lows, highs = [0.1, 0.2, 0.3], [0.4, 0.5, 0.6]
        (lows if side == "lows" else highs)[1] = float("nan")
        with pytest.raises(ValueError, match="NaN coordinate in dimension 1"):
            HyperRectangle(lows, highs)


class TestTables:
    def test_round_trip(self):
        boxes = [HyperRectangle([0.1, 0.2], [0.4, 0.6]), HyperRectangle.from_point([0.3, 0.7])]
        table = box_table(boxes, 2)
        assert table.shape == (2, 4)
        assert table[0].tolist() == [0.1, 0.2, 0.4, 0.6]
        assert HyperRectangle.from_table(table) == boxes

    def test_boxes_are_read_only_copies(self):
        table = np.array([[0.1, 0.2, 0.4, 0.6]])
        (box,) = HyperRectangle.from_table(table)
        table[0, 0] = 0.0
        assert box.lows.tolist() == [0.1, 0.2]
        with pytest.raises(ValueError):
            box.lows[0] = 0.5

    def test_empty_table(self):
        assert HyperRectangle.from_table(np.empty((0, 6))) == []
        assert box_table([], 3).shape == (0, 6)

    @pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 0), (1, 2, 2)])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(ValueError, match="shape"):
            HyperRectangle.from_table(np.zeros(shape))

    def test_nan_rejected_naming_box_and_dimension(self):
        table = np.array([[0.1, 0.2, 0.4, 0.6], [0.1, 0.2, 0.4, float("nan")]])
        with pytest.raises(ValueError, match="box 1: NaN coordinate in dimension 1"):
            HyperRectangle.from_table(table)

    def test_inverted_extent_rejected(self):
        table = np.array([[0.5, 0.2, 0.4, 0.6]])
        with pytest.raises(ValueError, match="box 0: invalid extent in dimension 0"):
            HyperRectangle.from_table(table)

    def test_box_table_rejects_mixed_dimensions(self):
        with pytest.raises(ValueError, match="box 1 has 3 dimensions, expected 2"):
            box_table([HyperRectangle.unit(2), HyperRectangle.unit(3)], 2)

    def test_internal_arrays_are_read_only(self):
        box = HyperRectangle([0.1], [0.4])
        with pytest.raises(ValueError):
            box.lows[0] = 0.0

    def test_input_arrays_are_copied(self):
        lows = np.array([0.1, 0.2])
        box = HyperRectangle(lows, [0.4, 0.6])
        lows[0] = 0.9
        assert box.lows[0] == 0.1

    def test_unit_invalid_dimensions(self):
        with pytest.raises(ValueError):
            HyperRectangle.unit(0)


class TestMeasures:
    def test_extents_and_center(self):
        box = HyperRectangle([0.0, 0.2], [0.4, 0.6])
        assert box.extents.tolist() == pytest.approx([0.4, 0.4])
        assert box.center.tolist() == pytest.approx([0.2, 0.4])

    def test_volume(self):
        assert HyperRectangle([0, 0], [0.5, 0.2]).volume() == pytest.approx(0.1)

    def test_margin(self):
        assert HyperRectangle([0, 0], [0.5, 0.2]).margin() == pytest.approx(0.7)

    def test_byte_size_matches_paper_layout(self):
        # 4-byte id plus 2 * Nd * 4-byte endpoints.
        assert HyperRectangle.unit(16).byte_size() == 4 + 2 * 16 * 4
        assert HyperRectangle.unit(40).byte_size() == 4 + 2 * 40 * 4


class TestPredicates:
    def test_intersects(self):
        a = HyperRectangle([0.0, 0.0], [0.5, 0.5])
        b = HyperRectangle([0.4, 0.4], [0.9, 0.9])
        c = HyperRectangle([0.6, 0.6], [0.9, 0.9])
        assert a.intersects(b)
        assert b.intersects(a)
        assert not a.intersects(c)

    def test_intersects_requires_overlap_in_every_dimension(self):
        a = HyperRectangle([0.0, 0.0], [0.5, 0.5])
        # Overlaps in dimension 0 but not in dimension 1.
        b = HyperRectangle([0.4, 0.6], [0.9, 0.9])
        assert not a.intersects(b)

    def test_contains(self):
        outer = HyperRectangle([0.0, 0.0], [1.0, 1.0])
        inner = HyperRectangle([0.2, 0.3], [0.4, 0.5])
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert inner.is_contained_by(outer)

    def test_contains_point(self):
        box = HyperRectangle([0.0, 0.0], [0.5, 0.5])
        assert box.contains_point([0.5, 0.0])
        assert not box.contains_point([0.6, 0.0])

    def test_contains_point_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HyperRectangle([0.0], [1.0]).contains_point([0.5, 0.5])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            HyperRectangle([0.0], [1.0]).intersects(HyperRectangle([0, 0], [1, 1]))


class TestConstructiveOperations:
    def test_intersection(self):
        a = HyperRectangle([0.0, 0.0], [0.6, 0.6])
        b = HyperRectangle([0.4, 0.2], [1.0, 0.5])
        inter = a.intersection(b)
        assert inter.lows.tolist() == pytest.approx([0.4, 0.2])
        assert inter.highs.tolist() == pytest.approx([0.6, 0.5])

    def test_intersection_disjoint_raises(self):
        a = HyperRectangle([0.0, 0.0], [0.2, 0.2])
        b = HyperRectangle([0.5, 0.5], [0.9, 0.9])
        with pytest.raises(ValueError):
            a.intersection(b)

    def test_overlap_volume(self):
        a = HyperRectangle([0.0, 0.0], [0.5, 0.5])
        b = HyperRectangle([0.25, 0.25], [0.75, 0.75])
        assert a.overlap_volume(b) == pytest.approx(0.0625)
        c = HyperRectangle([0.6, 0.6], [0.9, 0.9])
        assert a.overlap_volume(c) == 0.0

    def test_union_bounds(self):
        a = HyperRectangle([0.0, 0.4], [0.2, 0.6])
        b = HyperRectangle([0.5, 0.0], [0.9, 0.3])
        union = a.union_bounds(b)
        assert union.lows.tolist() == pytest.approx([0.0, 0.0])
        assert union.highs.tolist() == pytest.approx([0.9, 0.6])

    def test_expanded_and_clamped(self):
        box = HyperRectangle([0.1, 0.1], [0.2, 0.2]).expanded(0.2).clamped()
        assert box.lows.tolist() == pytest.approx([0.0, 0.0])
        assert box.highs.tolist() == pytest.approx([0.4, 0.4])


class TestSerialisation:
    def test_array_round_trip(self):
        box = HyperRectangle([0.1, 0.2, 0.3], [0.4, 0.5, 0.6])
        assert HyperRectangle.from_array(box.as_array()) == box

    def test_from_array_rejects_odd_length(self):
        with pytest.raises(ValueError):
            HyperRectangle.from_array([0.1, 0.2, 0.3])

    def test_equality_and_hash(self):
        a = HyperRectangle([0.1, 0.2], [0.4, 0.6])
        b = HyperRectangle([0.1, 0.2], [0.4, 0.6])
        assert a == b
        assert hash(a) == hash(b)
        assert a != HyperRectangle([0.1, 0.2], [0.4, 0.7])

    def test_iteration_yields_intervals(self):
        box = HyperRectangle([0.1, 0.2], [0.4, 0.6])
        assert list(box) == [Interval(0.1, 0.4), Interval(0.2, 0.6)]
        assert len(box) == 2
