"""Unit tests for :mod:`repro.core.object_store`."""

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

    def test_extend(self):
        store = ObjectStore(2)
        ids = np.arange(5, dtype=np.int64)
        lows = np.zeros((5, 2))
        highs = np.ones((5, 2))
        store.extend(ids, lows, highs)
        assert len(store) == 5
        assert (
            store.extend(np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty((0, 2))) is False
        )

    def test_extend_shape_mismatch(self):
        store = ObjectStore(2)
        with pytest.raises(ValueError):
            store.extend(np.arange(3), np.zeros((3, 3)), np.ones((3, 3)))


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
        assert not populated.contains_id(3)

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

    def test_drain(self, populated):
        ids, lows, highs = populated.drain()
        assert ids.shape == (10,)
        assert len(populated) == 0
        # Drained copies stay valid after further appends.
        populated.append(100, box(0.0, 0.0, 1.0, 1.0))
        assert ids.tolist() == list(range(10))

    def test_clear(self, populated):
        populated.clear()
        assert len(populated) == 0


class TestIntrospection:
    def test_object_at_and_iteration(self):
        store = ObjectStore(2)
        store.append(7, box(0.1, 0.2, 0.3, 0.4))
        object_id, rect = store.object_at(0)
        assert object_id == 7
        assert rect == box(0.1, 0.2, 0.3, 0.4)
        assert list(store.iter_objects()) == [(7, rect)]

    def test_object_at_out_of_range(self):
        store = ObjectStore(2)
        with pytest.raises(IndexError):
            store.object_at(0)

    def test_utilization(self):
        store = ObjectStore(1, capacity=10)
        assert store.utilization() == 0.0
        for i in range(5):
            store.append(i, box(0.1, 0.2))
        assert 0.0 < store.utilization() <= 1.0

    def test_reserve(self):
        store = ObjectStore(2)
        store.reserve(100)
        assert store.capacity >= 100

    def test_views_reflect_mutation(self):
        store = ObjectStore(1)
        store.append(1, box(0.1, 0.2))
        lows_view = store.lows
        assert lows_view.shape == (1, 1)


class TestShrink:
    @staticmethod
    def filled(count):
        store = ObjectStore(1)
        ids = np.arange(count, dtype=np.int64)
        bounds = np.linspace(0.0, 1.0, count)[:, None]
        store.extend(ids, bounds, bounds)
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

    def test_drain_and_clear_release_the_slots(self):
        store = self.filled(100)
        ids, _, _ = store.drain()
        assert ids.size == 100
        assert store.capacity == 8
        store = self.filled(100)
        store.clear()
        assert store.capacity == 8

    def test_regrowth_after_shrinking(self):
        store = self.filled(100)
        store.remove_mask(store.ids >= 10)
        store.extend(np.arange(100, 200), np.zeros((100, 1)), np.ones((100, 1)))
        assert len(store) == 110
        assert store.ids.tolist() == list(range(10)) + list(range(100, 200))
