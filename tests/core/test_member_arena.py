"""The AC index's column-major member arena (:mod:`repro.core.arena`).

Every cluster owns one contiguous segment of the arena.  Each test drives
one arena event across its boundary (growing in place, relocating on
overflow, shrinking below half, merging into a parent without slack,
compacting at the live-share floor and loading a lazily opened cluster)
and, after every step, checks the index's invariants and that the batch
engine answers like the paper's per-cluster loop (``reference.py``): same
ids in the same order and the same core counters.  ``TestSegment`` drives a
segment on its own, as the sequential scan uses one, and ``TestVerify``
checks the shared verification kernel visit by visit.
"""

from __future__ import annotations

import math
import pickle

import numpy as np
import pytest

from repro.core import arena as arena_module
from repro.core.arena import MemberArena
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.geometry.vectorized import matching_mask
from repro.storage.pagefile import LazyCluster, PagedStore
from repro.workloads.queries import generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

from reference import reference_execute

DIMENSIONS = 2
QUERIES = [
    HyperRectangle.unit(DIMENSIONS),
    HyperRectangle([0.0, 0.2], [0.3, 0.7]),
    HyperRectangle([0.45, 0.0], [0.95, 0.6]),
    HyperRectangle.from_point([0.1, 0.5]),
]


def left_box(rng):
    """A box inside the root's first candidate (x within [0, 0.25])."""
    low = np.array([0.05, rng.random() * 0.8])
    return HyperRectangle(low, low + [0.1, 0.15])


def right_box(rng):
    """A box no child of the root accepts (x from 0.5 up)."""
    low = np.array([0.5, 0.0]) + rng.random(DIMENSIONS) * [0.3, 0.8]
    return HyperRectangle(low, low + 0.15)


def segment(index, cluster):
    """``(start, capacity, size)`` of *cluster*'s arena segment."""
    return tuple(index._arena.segments[cluster.cluster_id].bounds.tolist())


def arena_state(index):
    arena = index._arena
    return arena.capacity, arena.end, arena.live


def check(index):
    """Invariants hold and the engine answers like the per-cluster loop."""
    index.check_invariants()
    for query in QUERIES:
        for relation in SpatialRelation:
            expected = reference_execute(index, query, relation)
            found = index.execute(query, relation)
            assert np.array_equal(found.ids, expected.ids)
            assert found.execution.core_counters() == expected.execution.core_counters()


@pytest.fixture
def two_clusters():
    """Root with 200 members and a full child with 10: ``(index, child, rng)``.

    The root segment holds columns [0, 210) after the bulk load (the child's
    members moved out) and the child [210, 220), with the arena's free tail
    behind it.
    """
    rng = np.random.default_rng(5)
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", DIMENSIONS), auto_reorganize=False
    )
    index = AdaptiveClusteringIndex(config=config)
    boxes = [left_box(rng) for _ in range(10)] + [right_box(rng) for _ in range(200)]
    index.bulk_load(enumerate(boxes))
    child = index._materialize_candidate(index.root, 0)
    assert segment(index, index.root) == (0, 210, 200)
    assert segment(index, child) == (210, 10, 10)
    assert arena_state(index) == (263, 220, 220)
    check(index)
    return index, child, rng


def test_last_segment_grows_where_it_is(two_clusters):
    index, child, rng = two_clusters
    # The child is full and ends the arena: the next member extends it in
    # place, with the growth factor's headroom, into the free tail.
    index.insert(1_000, left_box(rng))
    assert segment(index, child) == (210, 13, 11)
    assert arena_state(index) == (263, 223, 223)
    check(index)
    # Then its reserved slots take members.
    index.insert(1_001, left_box(rng))
    assert segment(index, child) == (210, 13, 12)
    assert segment(index, index.root) == (0, 210, 200)
    check(index)


def test_relocate_on_overflow(two_clusters):
    index, child, rng = two_clusters
    # 200 -> 210 members fill the root in place; the 211th moves it, with
    # 263 columns, behind the child and leaves a 210-column hole.  The
    # arena grows to fit it.
    for object_id in range(1_000, 1_010):
        index.insert(object_id, right_box(rng))
    assert segment(index, index.root) == (0, 210, 210)
    index.insert(1_010, right_box(rng))
    assert segment(index, index.root) == (220, 263, 211)
    assert segment(index, child) == (210, 10, 10)
    assert arena_state(index) == (483, 483, 273)
    check(index)


def test_shrink_below_half(two_clusters):
    index, _, _ = two_clusters
    root = index.root
    right_ids = [int(i) for i in root.store.ids]
    # 105 of 210 slots used is half: no shrink yet.
    index.delete_bulk(right_ids[:95])
    assert segment(index, root) == (0, 210, 105)
    check(index)
    # 104 is below half: the segment keeps ceil(104 * 1.25) columns in place.
    index.delete(right_ids[95])
    assert segment(index, root) == (0, 130, 104)
    assert arena_state(index) == (263, 220, 140)
    check(index)


def test_merge_into_a_parent_without_slack(two_clusters):
    index, child, rng = two_clusters
    root = index.root
    index.delete_bulk([int(i) for i in root.store.ids[:96]])
    for object_id in range(1_000, 1_026):
        index.insert(object_id, right_box(rng))
    assert segment(index, root) == (0, 130, 130)
    check(index)
    merged = index._merge_into_parent(child)
    assert merged is root
    start, capacity, size = segment(index, root)
    assert (capacity, size) == (163, 140)
    assert child.cluster_id not in index._arena.segments
    assert sorted(int(i) for i in root.store.ids) == sorted(index._object_locations)
    check(index)


def test_compaction_at_the_live_share_floor(two_clusters):
    index, child, rng = two_clusters
    # Relocate the child twice so holes pile up, then delete root members one
    # at a time: the arena packs exactly when less than half of it is live.
    for object_id in range(1_000, 1_010):
        index.insert(object_id, left_box(rng))
    root_ids = [int(i) for i in index.root.store.ids]
    packed = 0
    for object_id in root_ids:
        capacity, _, _ = arena_state(index)
        index.delete(object_id)
        new_capacity, end, live = arena_state(index)
        if 2 * live < capacity:
            assert (new_capacity, end) == (math.ceil(live * 1.25), live)
            packed += 1
        else:
            assert new_capacity == capacity
        assert 2 * live >= new_capacity
        check(index)
    assert packed >= 2
    assert index.root.n_objects == 0


def test_lazy_cluster_loads_into_its_segment(tmp_path):
    rng = np.random.default_rng(3)
    eager = AdaptiveClusteringIndex(dimensions=DIMENSIONS)
    lows = rng.random((400, DIMENSIONS)) * 0.7
    eager.bulk_load((i, HyperRectangle(lows[i], lows[i] + 0.05)) for i in range(400))
    for _ in range(3):
        for center in rng.random((150, DIMENSIONS)) * 0.9:
            eager.execute(HyperRectangle(center, center + 0.05))
        eager.reorganize()
    assert eager.n_clusters > 1
    PagedStore.create(tmp_path / "store", page_size=512).commit(eager)

    lazy = PagedStore.open(tmp_path / "store").load_index(lazy=True)
    clusters = lazy.clusters()
    assert all(isinstance(cluster, LazyCluster) for cluster in clusters)
    # Nothing is resident yet: every segment is empty.
    assert arena_state(lazy) == (0, 0, 0)
    first = next(cluster for cluster in clusters if cluster.n_objects)
    members = first.store  # the first touch loads this cluster only
    assert segment(lazy, first) == (0, max(first.n_objects, 8), first.n_objects)
    assert sum(cluster.is_materialized for cluster in clusters) == 1
    np.testing.assert_array_equal(members.ids, eager.get_cluster(first.cluster_id).store.ids)
    # A query loads every cluster before it verifies members.
    check(lazy)
    assert all(cluster.is_materialized for cluster in clusters)
    for cluster in clusters:
        twin = eager.get_cluster(cluster.cluster_id)
        np.testing.assert_array_equal(cluster.store.ids, twin.store.ids)
        np.testing.assert_array_equal(cluster.store.lows, twin.store.lows)
        np.testing.assert_array_equal(cluster.store.highs, twin.store.highs)


def test_churned_pickle_is_no_larger_than_per_cluster_stores():
    """A churned index pickles its arena packed.

    452,611 bytes is this index's pickle when every cluster kept its own
    row-major store (numpy 2.4, default pickle protocol).
    """
    data = generate_uniform_dataset(3000, 4, seed=91, max_extent=0.15)
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", 4), reorganization_period=20
    )
    index = AdaptiveClusteringIndex(config=config)
    data.load_into(index)
    queries = generate_query_workload(data, 40, target_selectivity=0.002, seed=92).queries
    rng = np.random.default_rng(93)
    for step in range(400):
        index.execute(queries[step % len(queries)])
        victim = int(rng.integers(data.size))
        box = index.get(victim)
        index.delete(victim)
        index.insert(victim, box)
    index.delete_bulk(range(0, data.size, 3))
    assert (index.n_clusters, index.n_objects) == (32, 2000)
    assert index._arena.end > index._arena.live, "the churn left no holes to drop"

    copy = pickle.loads(pickle.dumps(index))
    assert len(pickle.dumps(index)) <= 452_611
    arena = copy._arena
    assert arena.end == arena.live == arena.capacity
    copy.check_invariants()
    for query in queries[:10]:
        assert np.array_equal(copy.execute(query).ids, index.execute(query).ids)


class TestSegment:
    """A segment's own operations, on a cluster-free arena."""

    @staticmethod
    def filled(count, dimensions=1):
        segment = MemberArena(dimensions).segment(0)
        bounds = np.linspace(0.0, 1.0, count)[:, None].repeat(dimensions, axis=1)
        segment.extend(np.arange(count, dtype=np.int64), bounds, bounds)
        return segment

    def test_empty_until_the_first_append(self):
        segment = MemberArena(3).segment(0)
        assert (len(segment), segment.capacity) == (0, 0)
        assert segment.ids.shape == (0,)
        assert segment.lows.shape == segment.highs.shape == (0, 3)
        segment.append(1, HyperRectangle.unit(3))
        assert (len(segment), segment.capacity) == (1, 8)

    def test_extend(self):
        segment = self.filled(5, dimensions=2)
        assert len(segment) == 5
        assert segment.lows.shape == (5, 2)
        empty = (np.empty(0, dtype=np.int64), np.empty((0, 2)), np.empty((0, 2)))
        assert segment.extend(*empty) is False

    def test_extend_shape_mismatch(self):
        segment = MemberArena(2).segment(0)
        with pytest.raises(ValueError):
            segment.extend(np.arange(3), np.zeros((3, 3)), np.ones((3, 3)))

    def test_object_at(self):
        segment = MemberArena(2).segment(0)
        segment.append(7, HyperRectangle([0.1, 0.2], [0.3, 0.4]))
        object_id, rect = segment.object_at(0)
        assert object_id == 7
        assert rect == HyperRectangle([0.1, 0.2], [0.3, 0.4])
        with pytest.raises(IndexError):
            segment.object_at(1)

    def test_appends_relocate_and_keep_the_order(self):
        segment = MemberArena(1).segment(0)
        relocations = [segment.append(i, HyperRectangle([0.1], [0.2])) for i in range(20)]
        # 8 slots, then ceil(8 * 1.25) = 10, 13, 17 and 22.
        assert [i for i, moved in enumerate(relocations) if moved] == [0, 8, 10, 13, 17]
        assert segment.ids.tolist() == list(range(20))
        assert segment.highs[:, 0].tolist() == [0.2] * 20

    def test_append_wrong_dimensions(self):
        segment = MemberArena(2).segment(0)
        with pytest.raises(ValueError):
            segment.append(1, HyperRectangle([0.1], [0.2]))
        assert len(segment) == 0

    def test_remove_mask_wrong_length(self):
        segment = self.filled(10)
        with pytest.raises(ValueError):
            segment.remove_mask(np.zeros(3, dtype=bool))
        assert len(segment) == 10

    def test_remove_id_moves_the_last_member_into_the_gap(self):
        segment = self.filled(10)
        removed = segment.remove_id(3)
        assert removed.lows[0] == pytest.approx(np.linspace(0.0, 1.0, 10)[3])
        assert segment.ids.tolist() == [0, 1, 2, 9, 4, 5, 6, 7, 8]
        assert segment.remove_id(99) is None

    def test_remove_the_last_member(self):
        segment = self.filled(10)
        removed = segment.remove_id(9)
        assert removed.highs[0] == pytest.approx(1.0)
        assert segment.ids.tolist() == list(range(9))
        assert segment.highs[:, 0].tolist() == np.linspace(0.0, 1.0, 10)[:9].tolist()

    def test_remove_mask_compacts_around_scattered_removals(self):
        segment = self.filled(10)
        ids, lows, highs = segment.remove_mask(segment.ids % 2 == 0)
        assert ids.tolist() == [0, 2, 4, 6, 8]
        assert lows.shape == highs.shape == (5, 1)
        assert segment.ids.tolist() == [1, 3, 5, 7, 9]
        assert segment.lows[:, 0].tolist() == np.linspace(0.0, 1.0, 10)[1::2].tolist()

    def test_remove_mask_keeps_the_order_and_shrinks_below_half(self):
        segment = self.filled(100)
        ids, lows, _ = segment.remove_mask(segment.ids >= 40)
        assert ids.tolist() == list(range(40, 100))
        assert lows.shape == (60, 1)
        assert segment.capacity == 50  # ceil(40 * 1.25)
        assert segment.ids.tolist() == list(range(40))
        assert segment.lows[:, 0].tolist() == np.linspace(0.0, 1.0, 100)[:40].tolist()

    def test_removals_above_half_keep_the_slots(self):
        segment = self.filled(100)
        for object_id in range(99, 69, -1):
            segment.remove_id(object_id)
        segment.remove_mask(segment.ids >= 50)
        assert (len(segment), segment.capacity) == (50, 100)
        segment.remove_id(0)  # 49 of 100: below half
        assert segment.capacity == 62  # ceil(49 * 1.25)
        assert sorted(segment.ids.tolist()) == list(range(1, 50))

    def test_regrowth_after_shrinking(self):
        segment = self.filled(100)
        segment.remove_mask(segment.ids >= 10)
        for object_id in range(100, 200):
            segment.append(object_id, HyperRectangle([0.0], [1.0]))
        assert len(segment) == 110
        assert segment.ids.tolist() == list(range(10)) + list(range(100, 200))
        segment.arena.check_invariants()

    def test_drain_releases_the_slots(self):
        segment = self.filled(100)
        ids, _, _ = segment.drain()
        assert ids.tolist() == list(range(100))
        assert (len(segment), segment.capacity) == (0, 8)
        # Drained copies stay valid after further appends.
        segment.append(100, HyperRectangle([0.0], [1.0]))
        assert ids.tolist() == list(range(100))

    def test_release_and_repack(self):
        arena = MemberArena(1)
        first, second = arena.segment(0), arena.segment(1)
        first.extend(np.arange(30), np.zeros((30, 1)), np.ones((30, 1)))
        second.extend(np.arange(30, 40), np.zeros((10, 1)), np.ones((10, 1)))
        arena.release(0)
        # 10 live columns of 50: the arena packs to the growth headroom.
        assert (arena.capacity, arena.end, arena.live) == (13, 10, 10)
        assert second.bounds.tolist() == [0, 10, 10]
        assert second.ids.tolist() == list(range(30, 40))
        arena.check_invariants()

    def test_invariants_catch_overlapping_and_sparse_arenas(self):
        arena = MemberArena(1)
        first, second = arena.segment(0), arena.segment(1)
        first.extend(np.arange(10), np.zeros((10, 1)), np.ones((10, 1)))
        second.extend(np.arange(10, 20), np.zeros((10, 1)), np.ones((10, 1)))
        arena.check_invariants()
        second.bounds[0] -= 1
        with pytest.raises(AssertionError, match="overlap"):
            arena.check_invariants()
        second.bounds[0] += 1
        arena.live -= 10
        with pytest.raises(AssertionError, match="live count"):
            arena.check_invariants()


class TestVerify:
    """:meth:`MemberArena.verify` against :func:`matching_mask`, visit by visit.

    Three segments, one relocated behind the others so its old columns are
    a hole.  Each query visits whole segments, a slice inside one and an
    empty slice; the visits of different queries interleave, and the last
    query has none.
    """

    DIMENSIONS = 3

    @classmethod
    def arena(cls, rng):
        arena = MemberArena(cls.DIMENSIONS)
        segments = [arena.segment(key) for key in range(3)]
        for key, segment in enumerate(segments):
            count = 30 + 10 * key
            lows = rng.random((count, cls.DIMENSIONS)) * 0.8
            extents = rng.random((count, cls.DIMENSIONS)) * 0.4
            segment.extend(np.arange(count) + 100 * key, lows, lows + extents)
        for object_id in range(60, 80):
            segments[0].append(object_id, HyperRectangle([0.2] * 3, [0.7] * 3))
        arena.check_invariants()
        return arena, segments

    @classmethod
    def queries(cls, rng, count):
        lows = rng.random((count, cls.DIMENSIONS)) * 0.6
        extents = np.array([0.0, 0.05, 0.7])[np.arange(count) % 3, None]
        return [HyperRectangle(low, low + extent) for low, extent in zip(lows, extents)]

    @staticmethod
    def visits(rng, segments, count):
        """``(query row, start column, size)`` triples in an interleaved order."""
        visits = []
        for row in range(count - 1):
            order = rng.permutation(len(segments))
            for key in order:
                start, _, size = segments[key].bounds.tolist()
                visits.append((row, start, size))
            start, _, size = segments[int(order[0])].bounds.tolist()
            visits.append((row, start + 5, size - 12))
            visits.append((row, start, 0))
        order = rng.permutation(len(visits))
        return [visits[v] for v in order]

    @pytest.mark.parametrize("relation", list(SpatialRelation))
    @pytest.mark.parametrize(
        "count, pair_block",
        [(4, None), (120, 5_000)],
        ids=["dimensions_at_once", "one_dimension_per_step"],
    )
    def test_matches_a_per_visit_loop(self, relation, count, pair_block, monkeypatch):
        """Few pairs test every dimension in one step; many pairs (over the
        sampling threshold, in several windows too wide for two dimensions
        a step) one dimension per step, most selective first."""
        if pair_block is not None:
            monkeypatch.setattr(arena_module, "_PAIR_BLOCK", pair_block)
        rng = np.random.default_rng(17)
        arena, segments = self.arena(rng)
        queries = self.queries(rng, count)
        visits = self.visits(rng, segments, count)
        visit_q, visit_starts, visit_sizes = (
            np.array(column, dtype=np.int64) for column in zip(*visits)
        )
        if pair_block is not None:
            assert int(visit_sizes.sum()) > 16_384

        ids, bounds = arena.verify(
            np.array([query.lows for query in queries]),
            np.array([query.highs for query in queries]),
            relation,
            visit_q,
            visit_starts,
            visit_sizes,
        )

        expected = [[] for _ in queries]
        for row, start, size in visits:
            columns = slice(start, start + size)
            lows, highs = arena.lows[:, columns].T, arena.highs[:, columns].T
            mask = matching_mask(lows, highs, queries[row], relation)
            expected[row].extend(arena.ids[columns][mask].tolist())
        assert sum(map(len, expected)) > 0
        assert bounds.tolist() == np.cumsum([0] + [len(found) for found in expected]).tolist()
        for row, found in enumerate(expected):
            assert ids[bounds[row] : bounds[row + 1]].tolist() == found
        assert bounds[-1] == bounds[-2], "the last query has no visits"

    def test_no_visits(self):
        arena, _ = self.arena(np.random.default_rng(3))
        none = np.empty(0, dtype=np.int64)
        ids, bounds = arena.verify(
            np.zeros((2, 3)), np.ones((2, 3)), SpatialRelation.INTERSECTS, none, none, none
        )
        assert ids.shape == (0,)
        assert bounds.tolist() == [0, 0, 0]
