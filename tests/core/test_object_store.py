"""Unit tests for :mod:`repro.core.object_store`, the sequential scan's store.

The AC index's member segments have their own tests in
``test_member_arena.py``.
"""

import numpy as np
import pytest

from repro.core.object_store import ObjectStore
from repro.geometry.box import HyperRectangle


def box(*values):
    half = len(values) // 2
    return HyperRectangle(values[:half], values[half:])


class TestConstruction:
    def test_empty(self):
        store = ObjectStore(3)
        assert len(store) == 0
        assert store.dimensions == 3
        assert store.capacity >= 8

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            ObjectStore(0)

    def test_invalid_growth(self):
        with pytest.raises(ValueError):
            ObjectStore(2, growth_factor=1.0)


class TestAppend:
    def test_append_and_views(self):
        store = ObjectStore(2)
        store.append(10, box(0.1, 0.2, 0.3, 0.4))
        store.append(11, box(0.5, 0.5, 0.6, 0.7))
        assert len(store) == 2
        assert store.ids.tolist() == [10, 11]
        assert store.lows.shape == (2, 2)
        assert store.highs[1].tolist() == pytest.approx([0.6, 0.7])

    def test_append_wrong_dimensions(self):
        store = ObjectStore(2)
        with pytest.raises(ValueError):
            store.append(1, HyperRectangle([0.1], [0.2]))

    def test_growth(self):
        store = ObjectStore(1, capacity=8)
        grew = False
        for i in range(20):
            grew = store.append(i, box(0.1, 0.2)) or grew
        assert grew
        assert len(store) == 20
        assert store.ids.tolist() == list(range(20))


class TestRemoval:
    @pytest.fixture
    def populated(self):
        store = ObjectStore(2)
        for i in range(10):
            store.append(i, box(i / 10.0, 0.0, i / 10.0 + 0.05, 1.0))
        return store

    def test_remove_id(self, populated):
        removed = populated.remove_id(3)
        assert removed is not None
        assert removed.lows[0] == pytest.approx(0.3)
        assert len(populated) == 9
        assert 3 not in populated.ids.tolist()

    def test_remove_missing_id(self, populated):
        assert populated.remove_id(99) is None
        assert len(populated) == 10

    def test_remove_mask(self, populated):
        mask = populated.ids % 2 == 0
        ids, lows, highs = populated.remove_mask(mask)
        assert sorted(ids.tolist()) == [0, 2, 4, 6, 8]
        assert lows.shape == (5, 2)
        assert sorted(populated.ids.tolist()) == [1, 3, 5, 7, 9]

    def test_remove_mask_wrong_length(self, populated):
        with pytest.raises(ValueError):
            populated.remove_mask(np.zeros(3, dtype=bool))

    def test_remove_all_via_mask(self, populated):
        ids, _, _ = populated.remove_mask(np.ones(10, dtype=bool))
        assert len(populated) == 0
        assert ids.shape == (10,)


class TestIntrospection:
    def test_views_reflect_mutation(self):
        store = ObjectStore(1)
        store.append(1, box(0.1, 0.2))
        lows_view = store.lows
        assert lows_view.shape == (1, 1)


class TestShrink:
    @staticmethod
    def filled(count):
        store = ObjectStore(1, capacity=count)
        for object_id, value in enumerate(np.linspace(0.0, 1.0, count)):
            store.append(object_id, box(value, value))
        return store

    def test_remove_mask_below_half_shrinks_to_growth_headroom(self):
        store = self.filled(100)
        store.remove_mask(store.ids >= 40)
        assert len(store) == 40
        assert store.capacity == 50  # ceil(40 * 1.25)
        assert store.ids.tolist() == list(range(40))
        assert store.lows[:, 0].tolist() == np.linspace(0.0, 1.0, 100)[:40].tolist()

    def test_removals_above_half_keep_the_allocation(self):
        store = self.filled(100)
        for object_id in range(99, 69, -1):
            store.remove_id(object_id)
        store.remove_mask(store.ids >= 50)
        assert len(store) == 50
        assert store.capacity == 100
        store.remove_id(0)  # 49 of 100: below half
        assert store.capacity == 62
        assert sorted(store.ids.tolist()) == list(range(1, 50))

    def test_regrowth_after_shrinking(self):
        store = self.filled(100)
        store.remove_mask(store.ids >= 10)
        for object_id in range(100, 200):
            store.append(object_id, box(0.0, 1.0))
        assert len(store) == 110
        assert store.ids.tolist() == list(range(10)) + list(range(100, 200))
