"""Basic behaviour of :class:`~repro.core.index.AdaptiveClusteringIndex`."""

import numpy as np
import pytest

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters, StorageScenario, SystemCostConstants
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.storage.disk import SimulatedDisk


def make_index(dimensions=3, **overrides):
    config = AdaptiveClusteringConfig.for_memory(dimensions, **overrides)
    return AdaptiveClusteringIndex(config=config)


def random_box(rng, dimensions=3, max_extent=0.4):
    lows = rng.random(dimensions) * (1 - max_extent)
    highs = lows + rng.random(dimensions) * max_extent
    return HyperRectangle(lows, np.minimum(highs, 1.0))


class TestConstruction:
    def test_dimensions_only(self):
        index = AdaptiveClusteringIndex(dimensions=5)
        assert index.dimensions == 5
        assert index.n_clusters == 1
        assert index.root.is_root

    def test_config_only(self):
        config = AdaptiveClusteringConfig.for_disk(4)
        index = AdaptiveClusteringIndex(config=config)
        assert index.config.scenario is StorageScenario.DISK
        assert isinstance(index.storage, SimulatedDisk)

    def test_missing_arguments(self):
        with pytest.raises(ValueError):
            AdaptiveClusteringIndex()

    def test_conflicting_dimensions(self):
        with pytest.raises(ValueError):
            AdaptiveClusteringIndex(dimensions=4, config=AdaptiveClusteringConfig.for_memory(8))

    def test_matching_dimensions_accepted(self):
        index = AdaptiveClusteringIndex(dimensions=8, config=AdaptiveClusteringConfig.for_memory(8))
        assert index.dimensions == 8


class TestInsertion:
    def test_insert_and_len(self, rng):
        index = make_index()
        for object_id in range(20):
            index.insert(object_id, random_box(rng))
        assert len(index) == 20
        assert index.n_objects == 20
        assert 5 in index
        assert 99 not in index
        index.check_invariants()

    def test_duplicate_id_rejected(self, rng):
        index = make_index()
        index.insert(1, random_box(rng))
        with pytest.raises(KeyError):
            index.insert(1, random_box(rng))

    def test_nan_box_is_rejected_before_it_reaches_the_index(self, rng):
        """A NaN coordinate compares False with everything, so a NaN box in
        a cluster breaks its signature invariant; the box is refused."""
        index = make_index(dimensions=4)
        index.bulk_load((object_id, random_box(rng, 4)) for object_id in range(2_000))
        for _ in range(300):
            index.execute(random_box(rng, 4, max_extent=0.2))
        assert index.n_clusters > 1
        lows = random_box(rng, 4).lows.copy()
        lows[2] = np.nan
        with pytest.raises(ValueError, match="NaN coordinate in dimension 2"):
            index.insert(2_000, HyperRectangle(lows, np.full(4, 0.9)))
        with pytest.raises(ValueError, match="NaN"):
            index.insert(2_000, *HyperRectangle.from_table([np.append(lows, np.ones(4))]))
        assert 2_000 not in index
        index.check_invariants()

    def test_wrong_dimensionality_rejected(self, rng):
        index = make_index(dimensions=3)
        with pytest.raises(ValueError):
            index.insert(1, HyperRectangle([0.1, 0.2], [0.3, 0.4]))

    def test_non_integer_id_rejected(self, rng):
        index = make_index()
        with pytest.raises(TypeError):
            index.insert("a", random_box(rng))  # type: ignore[arg-type]

    def test_get_returns_stored_box(self, rng):
        index = make_index()
        box = random_box(rng)
        index.insert(3, box)
        assert index.get(3) == box
        assert index.get(4) is None

    def test_bulk_load_into_empty_index(self, rng):
        index = make_index()
        pairs = [(i, random_box(rng)) for i in range(50)]
        assert index.bulk_load(pairs) == 50
        assert index.n_objects == 50
        index.check_invariants()

    def test_bulk_load_empty_iterable(self):
        index = make_index()
        assert index.bulk_load([]) == 0

    def test_bulk_load_duplicate_ids_rejected(self, rng):
        index = make_index()
        box = random_box(rng)
        with pytest.raises(KeyError):
            index.bulk_load([(1, box), (1, box)])

    def test_bulk_load_routes_when_clusters_exist(self, rng):
        index = make_index(reorganization_period=10)
        index.bulk_load([(i, random_box(rng)) for i in range(300)])
        # Trigger clustering, then bulk-load more objects.
        query = HyperRectangle.unit(3)
        for _ in range(30):
            index.query(query)
        more = [(1000 + i, random_box(rng)) for i in range(50)]
        index.bulk_load(more)
        assert index.n_objects == 350
        index.check_invariants()


class TestDeletion:
    def test_delete_existing(self, rng):
        index = make_index()
        index.insert(1, random_box(rng))
        assert index.delete(1) is True
        assert index.n_objects == 0
        assert 1 not in index
        index.check_invariants()

    def test_delete_missing(self):
        index = make_index()
        assert index.delete(42) is False

    def test_delete_after_clustering(self, rng):
        # A cheap exploration cost makes the cost model split even this
        # small 3-dimensional database, so the deletions below exercise the
        # multi-cluster code path.
        constants = SystemCostConstants(exploration_setup_ms=1e-4)
        config = AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(3, constants),
            reorganization_period=20,
            min_cluster_objects=1,
        )
        index = AdaptiveClusteringIndex(config=config)
        index.bulk_load([(i, random_box(rng, max_extent=0.2)) for i in range(400)])
        for _ in range(60):
            index.query(random_box(rng, max_extent=0.2))
        assert index.n_clusters > 1
        for object_id in range(0, 400, 3):
            assert index.delete(object_id)
        assert index.n_objects == 400 - len(range(0, 400, 3))
        index.check_invariants()


class TestQueryBasics:
    def test_query_empty_index(self):
        index = make_index()
        results = index.query(HyperRectangle.unit(3))
        assert results.size == 0

    def test_query_relation_aliases(self, rng):
        index = make_index()
        index.insert(1, HyperRectangle([0.2, 0.2, 0.2], [0.4, 0.4, 0.4]))
        query = HyperRectangle([0.0, 0.0, 0.0], [0.5, 0.5, 0.5])
        assert index.query(query, "intersection").tolist() == [1]
        assert index.query(query, "containment").tolist() == [1]
        assert index.query(
            HyperRectangle.from_point([0.3, 0.3, 0.3]), "point_enclosing"
        ).tolist() == [1]

    def test_query_dimension_mismatch(self):
        index = make_index(dimensions=3)
        with pytest.raises(ValueError):
            index.query(HyperRectangle.unit(2))

    def test_execute_counters(self, rng):
        index = make_index()
        index.bulk_load([(i, random_box(rng)) for i in range(100)])
        results, stats = index.execute(HyperRectangle.unit(3))
        assert stats.signature_checks == index.n_clusters
        assert stats.groups_explored >= 1
        assert stats.objects_verified == 100
        assert stats.results == results.size == 100
        assert stats.bytes_read == 100 * index.config.cost.object_bytes
        assert stats.wall_time_ms >= 0.0

    def test_query_counter_increments(self, rng):
        index = make_index()
        index.insert(0, random_box(rng))
        for i in range(5):
            index.query(HyperRectangle.unit(3))
        assert index.total_queries == 5


class TestSnapshots:
    def test_snapshot_contents(self, rng):
        index = make_index(reorganization_period=20)
        index.bulk_load([(i, random_box(rng)) for i in range(300)])
        for _ in range(40):
            index.query(random_box(rng, max_extent=0.6))
        snapshot = index.snapshot()
        assert snapshot.n_objects == 300
        assert snapshot.n_clusters == index.n_clusters
        assert snapshot.total_queries == index.total_queries
        assert sum(c.n_objects for c in snapshot.clusters) == 300
        root_snapshot = [c for c in snapshot.clusters if c.parent_id is None]
        assert len(root_snapshot) == 1
        assert root_snapshot[0].access_probability == 1.0

    def test_cluster_accessors(self, rng):
        index = make_index()
        index.insert(0, random_box(rng))
        assert index.get_cluster(index.root.cluster_id) is index.root
        assert index.get_cluster(None) is None
        assert index.get_cluster(999) is None
        assert index.cluster_of(0) == index.root.cluster_id
        assert index.cluster_of(77) is None
        assert index.cluster_ids_top_down()[0] == index.root.cluster_id


class TestStorageIntegration:
    def test_memory_backend_records_reads(self, rng):
        index = make_index()
        index.bulk_load([(i, random_box(rng)) for i in range(50)])
        index.query(HyperRectangle.unit(3))
        assert index.storage.stats.cluster_reads >= 1
        assert index.storage.stats.bytes_read > 0
        assert index.storage.io_time_ms == 0.0  # memory scenario charges no I/O time

    def test_disk_backend_charges_time(self, rng):
        config = AdaptiveClusteringConfig.for_disk(3)
        index = AdaptiveClusteringIndex(config=config)
        index.bulk_load([(i, random_box(rng)) for i in range(50)])
        index.query(HyperRectangle.unit(3))
        assert index.storage.stats.random_accesses >= 1
        assert index.storage.io_time_ms > 0.0
