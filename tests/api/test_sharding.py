"""Unit tests of the sharded scatter-gather database and its routers."""

import numpy as np
import pytest

from repro.api import (
    Database,
    HashShardRouter,
    ShardedDatabase,
    SpatialBackend,
    SpatialShardRouter,
    UnsupportedOperation,
    create_backend,
    create_router,
)
from repro.api.protocol import COST_COUNTERS, PackedResults, QueryResult
from repro.api.sharding import router_from_manifest
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle

DIMENSIONS = 4


def make_box(rng, extent=0.2):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + extent, 1.0))


def make_pairs(count, seed=0):
    rng = np.random.default_rng(seed)
    return [(object_id, make_box(rng)) for object_id in range(count)]


@pytest.fixture
def sharded():
    database = ShardedDatabase.create("ac", DIMENSIONS, shards=3)
    database.bulk_load(make_pairs(120, seed=1))
    return database


class TestRouters:
    def test_hash_router_is_stable_and_id_addressable(self):
        router = HashShardRouter(4)
        box = HyperRectangle.unit(DIMENSIONS)
        for object_id in range(200):
            shard = router.shard_of(object_id, box)
            assert shard == router.shard_of_id(object_id)
            assert 0 <= shard < 4

    def test_hash_router_spreads_consecutive_ids(self):
        router = HashShardRouter(4)
        counts = np.bincount(
            [router.shard_of_id(object_id) for object_id in range(1_000)], minlength=4
        )
        # A mixed hash keeps every shard within 2x of a perfect split.
        assert counts.min() > 1_000 // 8
        assert counts.max() < 1_000 // 2

    def test_spatial_router_stripes_by_centroid(self):
        router = SpatialShardRouter(4, dimension=0)
        for low, expected in ((0.0, 0), (0.3, 1), (0.6, 2), (0.95, 3)):
            box = HyperRectangle(
                [low] + [0.1] * (DIMENSIONS - 1), [low + 0.02] + [0.2] * (DIMENSIONS - 1)
            )
            assert router.shard_of(7, box) == expected
        assert router.shard_of_id(7) is None

    def test_spatial_router_clamps_out_of_domain_centroids(self):
        router = SpatialShardRouter(2)
        below = HyperRectangle([-3.0] + [0.0] * (DIMENSIONS - 1), [-2.0] + [1.0] * (DIMENSIONS - 1))
        above = HyperRectangle([5.0] + [0.0] * (DIMENSIONS - 1), [6.0] + [1.0] * (DIMENSIONS - 1))
        assert router.shard_of(1, below) == 0
        assert router.shard_of(1, above) == 1

    def test_router_manifest_round_trip(self):
        for router in (HashShardRouter(3), SpatialShardRouter(3, dimension=2)):
            rebuilt = router_from_manifest(router.manifest(), 3)
            assert type(rebuilt) is type(router)
            assert rebuilt.n_shards == 3
        assert router_from_manifest({"kind": "spatial", "dimension": 2}, 2).dimension == 2
        with pytest.raises(ValueError):
            router_from_manifest({"kind": "zigzag"}, 2)

    def test_create_router_rejects_shard_count_mismatch(self):
        with pytest.raises(ValueError):
            create_router(HashShardRouter(2), 3)
        assert create_router("spatial", 2).n_shards == 2

    def test_invalid_shard_counts(self):
        with pytest.raises(ValueError):
            HashShardRouter(0)
        with pytest.raises(ValueError):
            SpatialShardRouter(2, dimension=-1)


class TestConstruction:
    def test_create_replicates_a_single_method(self):
        database = ShardedDatabase.create("ac", DIMENSIONS, shards=4)
        assert database.n_shards == 4
        assert isinstance(database, SpatialBackend)
        assert [shard.capabilities.name for shard in database.shards] == ["ac"] * 4

    def test_create_mixed_methods(self):
        database = ShardedDatabase.create(["ac", "SS", "rstar"], DIMENSIONS)
        assert [shard.capabilities.name for shard in database.shards] == ["ac", "ss", "rs"]
        assert database.capabilities.name == "sharded[ac,ss,rs]"

    def test_create_rejects_conflicting_shard_count(self):
        with pytest.raises(ValueError):
            ShardedDatabase.create(["ac", "ac"], DIMENSIONS, shards=3)
        with pytest.raises(ValueError):
            ShardedDatabase.create([], DIMENSIONS)

    def test_rejects_dimension_disagreement_and_non_backends(self):
        with pytest.raises(ValueError):
            ShardedDatabase(
                [create_backend("ss", 3), create_backend("ss", 4)], router="hash"
            )
        with pytest.raises(TypeError):
            ShardedDatabase([object()])
        with pytest.raises(ValueError):
            ShardedDatabase([])

    def test_database_facade_create_with_shards(self):
        database = Database.create("ac", DIMENSIONS, shards=2, router="spatial")
        assert isinstance(database.backend, ShardedDatabase)
        assert database.backend.router.kind == "spatial"
        mixed = Database.create(["ac", "rs"], DIMENSIONS)
        assert mixed.backend.n_shards == 2

    def test_facade_rejects_sharding_options_without_shards(self):
        # Silently discarding the router would mislabel the result.
        with pytest.raises(ValueError, match="sharded databases only"):
            Database.create("ac", DIMENSIONS, router="spatial")

    def test_facade_from_dataset_with_shards(self):
        from repro.workloads.uniform import generate_uniform_dataset

        dataset = generate_uniform_dataset(80, DIMENSIONS, seed=11)
        database = Database.from_dataset("ac", dataset, shards=2, router="spatial")
        assert isinstance(database.backend, ShardedDatabase)
        assert database.n_objects == 80
        everything = HyperRectangle.unit(DIMENSIONS)
        unsharded = Database.from_dataset("ac", dataset)
        assert np.array_equal(
            database.query(everything), np.sort(unsharded.query(everything))
        )
        with pytest.raises(ValueError, match="sharded databases only"):
            Database.from_dataset("ac", dataset, router="spatial")


class TestRoutedLifecycle:
    def test_objects_land_on_router_assigned_shards(self):
        database = ShardedDatabase.create("ss", DIMENSIONS, shards=3, router="hash")
        pairs = make_pairs(90, seed=2)
        database.bulk_load(pairs)
        router = database.router
        for object_id, _ in pairs:
            owner = router.shard_of_id(object_id)
            assert object_id in database.shards[owner]
            for position, shard in enumerate(database.shards):
                if position != owner:
                    assert object_id not in shard

    def test_spatial_router_keeps_slices_together(self):
        database = ShardedDatabase.create("ss", DIMENSIONS, shards=2, router="spatial")
        left = HyperRectangle([0.1] * DIMENSIONS, [0.2] * DIMENSIONS)
        right = HyperRectangle([0.8] * DIMENSIONS, [0.9] * DIMENSIONS)
        database.insert(1, left)
        database.insert(2, right)
        assert 1 in database.shards[0] and 2 in database.shards[1]

    def test_duplicate_insert_rejected_across_shards(self):
        database = ShardedDatabase.create("ss", DIMENSIONS, shards=2, router="spatial")
        database.insert(7, HyperRectangle([0.1] * DIMENSIONS, [0.2] * DIMENSIONS))
        # The re-insert would route to the *other* shard; it must still fail.
        with pytest.raises(KeyError):
            database.insert(7, HyperRectangle([0.8] * DIMENSIONS, [0.9] * DIMENSIONS))
        with pytest.raises(KeyError):
            database.bulk_load([(7, HyperRectangle.unit(DIMENSIONS))])
        with pytest.raises(KeyError):
            database.bulk_load(
                [
                    (8, HyperRectangle.unit(DIMENSIONS)),
                    (8, HyperRectangle.unit(DIMENSIONS)),
                ]
            )

    def test_delete_finds_owner_without_id_routing(self, sharded):
        spatial = ShardedDatabase.create("ac", DIMENSIONS, shards=2, router="spatial")
        pairs = make_pairs(60, seed=3)
        spatial.bulk_load(pairs)
        assert spatial.delete(10) is True
        assert spatial.delete(10) is False
        assert spatial.delete(10_000) is False
        assert spatial.delete_bulk([0, 1, 2, 10_000]) == 3
        assert spatial.n_objects == 56

    def test_reorganize_runs_on_supporting_shards_only(self):
        mixed = ShardedDatabase.create(["ac", "rs"], DIMENSIONS)
        mixed.bulk_load(make_pairs(40, seed=4))
        reports = mixed.reorganize()
        assert len(reports) == 1
        unsupporting = ShardedDatabase.create(["ss", "rs"], DIMENSIONS)
        with pytest.raises(UnsupportedOperation):
            unsupporting.reorganize()


class TestPackedResults:
    """The array form shard replies are gathered in."""

    @staticmethod
    def result(ids, base):
        counters = dict(zip(COST_COUNTERS, range(base, base + len(COST_COUNTERS))))
        return QueryResult(np.array(ids, dtype=np.int64), QueryExecution(**counters, wall_time_ms=0.5))

    def test_counter_columns_follow_the_execution_fields(self):
        fields = list(QueryExecution.__dataclass_fields__)
        assert fields == list(COST_COUNTERS) + ["wall_time_ms"]

    def test_pack_unpack_round_trip(self):
        results = [self.result([5, 2], 1), self.result([], 10), self.result([7], 20)]
        packed = PackedResults.pack(results)
        assert packed.n_queries == 3
        assert packed.offsets.tolist() == [0, 2, 2, 3]
        for got, want in zip(packed.unpack(), results):
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.execution == want.execution
        assert PackedResults.pack([]).unpack() == []

    def test_gather_sorts_ids_per_query_and_sums_counters(self):
        shard_a = PackedResults.pack([self.result([9, 1], 1), self.result([], 2)])
        shard_b = PackedResults.pack([self.result([4], 3), self.result([8, 3], 4)])
        merged = PackedResults.gather([shard_a, shard_b]).unpack()
        assert [result.ids.tolist() for result in merged] == [[1, 4, 9], [3, 8]]
        for position, result in enumerate(merged):
            expected = self.result([], 1 + position).execution.merge(
                self.result([], 3 + position).execution
            )
            assert result.execution == expected


class TestScatterGather:
    @pytest.mark.parametrize("relation", ["intersects", "contains", "contained_by"])
    @pytest.mark.parametrize("execution", ["thread", "process"])
    def test_execute_equals_one_query_batch(self, execution, relation):
        """``execute(q)`` answers and accounts exactly like ``execute_batch([q])[0]``.

        Ids, core counters, per-shard workload accounts, the recent-query
        ring, the adaptive shard's storage traffic and its reorganizations
        all agree, over mixed shards whose adaptive member reorganizes
        several times during the run.
        """
        from repro.core.config import AdaptiveClusteringConfig
        from repro.core.cost_model import CostParameters

        config = AdaptiveClusteringConfig(
            cost=CostParameters.disk_defaults(DIMENSIONS), reorganization_period=10
        )

        def build():
            backends = [
                create_backend(method, DIMENSIONS, config=config if method == "ac" else None)
                for method in ("ac", "ss", "rs")
            ]
            database = ShardedDatabase(backends, router="spatial", execution=execution)
            database.bulk_load(make_pairs(150, seed=21))
            return database

        def storage_stats(database):
            return [
                shard.storage.stats
                for shard in database.shards
                if shard.capabilities.supports_persistence
            ]

        looped, batched = build(), build()
        try:
            rng = np.random.default_rng(22)
            queries = [make_box(rng, extent=0.4) for _ in range(35)]
            for query in queries:
                one = looped.execute(query, relation)
                row = batched.execute_batch([query], relation)[0]
                assert one.ids.tobytes() == row.ids.tobytes()
                assert one.execution.core_counters() == row.execution.core_counters()
            for mine, theirs in zip(looped.workload_accounts(), batched.workload_accounts()):
                assert (mine.queries, mine.inserts, mine.deletes) == (
                    theirs.queries,
                    theirs.inserts,
                    theirs.deletes,
                )
                assert mine.execution.core_counters() == theirs.execution.core_counters()
            assert looped.recent_queries() == batched.recent_queries() == tuple(queries)
            assert storage_stats(looped) == storage_stats(batched)
            assert storage_stats(looped)[0].cluster_reads > 0
            assert looped.shards[0].reorganization_count >= 3
            assert (
                looped.shards[0].reorganization_count
                == batched.shards[0].reorganization_count
            )
        finally:
            looped.close()
            batched.close()

    def test_merged_ids_are_ascending(self, sharded):
        result = sharded.execute(HyperRectangle.unit(DIMENSIONS))
        assert np.array_equal(result.ids, np.sort(result.ids))
        assert result.execution.results == result.ids.size == 120

    def test_empty_batch_and_dimension_validation(self, sharded):
        assert sharded.execute_batch([]) == []
        with pytest.raises(ValueError):
            sharded.execute(HyperRectangle.unit(DIMENSIONS + 1))
        with pytest.raises(ValueError):
            sharded.execute_batch([HyperRectangle.unit(DIMENSIONS + 1)])
        with pytest.raises(ValueError):
            sharded.insert(9_999, HyperRectangle.unit(DIMENSIONS + 1))

    def test_persistence_contract_storage_and_snapshot_dict(self, sharded):
        """Advertising persistence commits the composite to the harness
        surface: a `storage` attribute with summed I/O stats and a
        snapshot that flattens to a dict."""
        view = sharded.storage
        stats = view.stats
        expected = {}
        for shard in sharded.shards:
            for key, value in shard.storage.stats.as_dict().items():
                expected[key] = expected.get(key, 0) + value
        assert stats.as_dict() == expected
        assert view.io_time_ms == sum(s.storage.io_time_ms for s in sharded.shards)
        flattened = sharded.snapshot().as_dict()
        assert flattened["n_shards"] == 3
        assert flattened["n_objects"] == 120
        assert len(flattened["shards"]) == 3
        # Unpersistable composites gate the attribute like snapshot().
        mixed = ShardedDatabase.create(["ac", "ss"], DIMENSIONS)
        with pytest.raises(UnsupportedOperation):
            mixed.storage

    def test_evaluation_harness_accepts_sharded_backend(self, sharded):
        """The harness's persistable-backend reporting path works on the
        composite (snapshot().as_dict() + storage.stats)."""
        from repro.core.cost_model import CostParameters
        from repro.evaluation.harness import ExperimentHarness
        from repro.geometry.relations import SpatialRelation
        from repro.workloads.queries import QueryWorkload
        from repro.workloads.uniform import generate_uniform_dataset

        rng = np.random.default_rng(9)
        workload = QueryWorkload(
            queries=[make_box(rng) for _ in range(5)],
            relation=SpatialRelation.INTERSECTS,
        )
        harness = ExperimentHarness(
            dataset=generate_uniform_dataset(50, DIMENSIONS, seed=9),
            cost=CostParameters.memory_defaults(DIMENSIONS),
            warmup_queries=0,
        )
        result = harness.run_method("AC", workload, method=sharded)
        assert result.extra["snapshot"]["n_shards"] == 3
        assert result.extra["io"] is not None

    def test_streaming_session_over_sharded_database(self, sharded):
        from repro.engine import StreamingConfig

        database = Database(sharded)
        session = database.session(StreamingConfig(max_batch_size=4, relation="contains"))
        session.register(50_000, HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5)))
        assert 50_000 in database
        records = []
        for event_id in range(4):
            records.extend(
                session.publish(event_id, HyperRectangle.from_point(np.full(DIMENSIONS, 0.25)))
            )
        assert len(records) == 4
        assert all(50_000 in record.matches for record in records)
        session.unregister(50_000)
        assert 50_000 not in database
