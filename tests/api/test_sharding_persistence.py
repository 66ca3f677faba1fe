"""Persistence round-trips and failure modes of the shard manifest layout."""

import json
import shutil

import numpy as np
import pytest

from repro.api import Database, ShardedDatabase, UnsupportedOperation
from repro.api.sharding import SHARD_MANIFEST_NAME, is_sharded_snapshot
from repro.geometry.box import HyperRectangle
from repro.storage.pagefile import PagedStore, is_paged_store

DIMENSIONS = 4


def make_pairs(count, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for object_id in range(count):
        lows = rng.random(DIMENSIONS) * 0.7
        pairs.append((object_id, HyperRectangle(lows, np.minimum(lows + 0.2, 1.0))))
    return pairs


@pytest.fixture
def sharded():
    database = ShardedDatabase.create("ac", DIMENSIONS, shards=3, router="spatial")
    database.bulk_load(make_pairs(150, seed=1))
    # Adapt a little so per-shard statistics are non-trivial.
    rng = np.random.default_rng(2)
    for _ in range(30):
        lows = rng.random(DIMENSIONS) * 0.6
        database.execute(HyperRectangle(lows, np.minimum(lows + 0.3, 1.0)))
    return database


@pytest.fixture
def snapshot_path(sharded, tmp_path):
    return sharded.save(tmp_path / "db.shards")


def shard_store(snapshot_path, position):
    """Resolve one shard's paged store through the manifest."""
    manifest = json.loads((snapshot_path / SHARD_MANIFEST_NAME).read_text())
    return snapshot_path / manifest["shards"][position]["store"]


class TestRoundTrip:
    def test_restores_shard_count_router_and_statistics(self, sharded, snapshot_path):
        recovered = ShardedDatabase.open(snapshot_path)
        assert recovered.n_shards == sharded.n_shards
        assert recovered.router.kind == "spatial"
        assert recovered.n_objects == sharded.n_objects
        # Per-shard statistics survive: object counts, group structure and
        # the adaptive query counters all match shard by shard.
        for restored, original in zip(recovered.shards, sharded.shards):
            assert restored.n_objects == original.n_objects
            assert restored.n_groups == original.n_groups
            assert restored.total_queries == original.total_queries

    def test_round_trip_preserves_results(self, sharded, snapshot_path):
        recovered = ShardedDatabase.open(snapshot_path)
        queries = [box for _, box in make_pairs(20, seed=3)]
        for one, two in zip(
            recovered.execute_batch(queries), sharded.execute_batch(queries)
        ):
            assert np.array_equal(one.ids, two.ids)
            assert one.execution.core_counters() == two.execution.core_counters()

    def test_layout_is_manifest_plus_one_store_per_shard(self, snapshot_path):
        assert is_sharded_snapshot(snapshot_path)
        manifest = json.loads((snapshot_path / SHARD_MANIFEST_NAME).read_text())
        assert manifest["shard_count"] == 3
        assert manifest["router"] == {"kind": "spatial", "dimension": 0}
        stores = sorted(entry["store"] for entry in manifest["shards"])
        assert stores == ["shard_000.pages", "shard_001.pages", "shard_002.pages"]
        for entry in manifest["shards"]:
            assert entry["generation"] == 1
            assert is_paged_store(snapshot_path / entry["store"])

    def test_resave_bumps_generation_and_cleans_the_old_one(self, sharded, snapshot_path):
        sharded.insert(9_000, make_pairs(1, seed=9)[0][1])
        sharded.save(snapshot_path)
        manifest = json.loads((snapshot_path / SHARD_MANIFEST_NAME).read_text())
        for entry in manifest["shards"]:
            assert entry["generation"] == 2
            store = snapshot_path / entry["store"]
            assert PagedStore.open(store).generation == 2
            assert not (store / "manifest-000001.json").exists()
        assert ShardedDatabase.open(snapshot_path).n_objects == sharded.n_objects

    def test_process_mode_open_answers_like_thread_mode(self, snapshot_path):
        # The lazily opened shards are pickled into their workers' state
        # files, which materializes them first.
        threaded = ShardedDatabase.open(snapshot_path)
        processed = ShardedDatabase.open(snapshot_path, execution="process")
        try:
            assert processed.execution == "process"
            queries = [box for _, box in make_pairs(20, seed=4)]
            for one, two in zip(processed.execute_batch(queries), threaded.execute_batch(queries)):
                assert np.array_equal(one.ids, two.ids)
                assert one.execution.core_counters() == two.execution.core_counters()
        finally:
            processed.close()

    def test_database_facade_dispatches_on_manifest(self, sharded, snapshot_path):
        database = Database(sharded)
        recovered = Database.open(snapshot_path)
        assert isinstance(recovered.backend, ShardedDatabase)
        everything = HyperRectangle.unit(DIMENSIONS)
        assert np.array_equal(
            recovered.query(everything), np.sort(database.query(everything))
        )
        # A facade-driven save round-trips the same way.
        path = database.save(snapshot_path.parent / "facade.shards")
        assert isinstance(Database.open(path).backend, ShardedDatabase)

    def test_facade_rejects_storage_override_for_sharded(self, snapshot_path):
        with pytest.raises(ValueError, match="storage"):
            Database.open(snapshot_path, storage=object())

    def test_snapshot_descriptor(self, sharded):
        snapshot = sharded.snapshot()
        assert snapshot.router_kind == "spatial"
        assert snapshot.n_shards == 3
        assert snapshot.n_objects == sharded.n_objects
        assert len(snapshot.shards) == 3

    def test_unpersistable_members_are_gated(self, tmp_path):
        mixed = ShardedDatabase.create(["ac", "ss"], DIMENSIONS)
        with pytest.raises(UnsupportedOperation):
            mixed.save(tmp_path / "nope.shards")
        with pytest.raises(UnsupportedOperation):
            mixed.snapshot()
        assert list(tmp_path.iterdir()) == []


class TestStatisticsRoundTrip:
    """Reorganization counters and candidate statistics survive a save.

    The adaptive schedule state (``queries_since_reorganization`` /
    ``reorganization_count``) and the per-cluster candidate query counts
    feed the reorganization decisions and the tuning advisor's profiles; a
    silent drop would reset every restored shard's schedule and skew the
    first post-recovery recommendations.
    """

    def assert_statistics_match(self, recovered, sharded):
        for restored, original in zip(recovered.shards, sharded.shards):
            assert restored.total_queries == original.total_queries
            assert (
                restored.queries_since_reorganization
                == original.queries_since_reorganization
            )
            assert restored.reorganization_count == original.reorganization_count
            for cluster in original.clusters():
                twin = restored.get_cluster(cluster.cluster_id)
                assert twin is not None
                assert twin.query_count == cluster.query_count
                assert np.array_equal(
                    twin.candidates.query_counts, cluster.candidates.query_counts
                )

    def test_generation_save_round_trips_reorganization_state(
        self, sharded, snapshot_path
    ):
        assert any(shard.queries_since_reorganization > 0 for shard in sharded.shards)
        self.assert_statistics_match(ShardedDatabase.open(snapshot_path), sharded)

    def test_generation_save_can_drop_statistics_explicitly(self, sharded, tmp_path):
        path = sharded.save(tmp_path / "bare.shards", include_statistics=False)
        recovered = ShardedDatabase.open(path)
        assert recovered.n_objects == sharded.n_objects
        for shard in recovered.shards:
            for cluster in shard.clusters():
                assert cluster.candidates.query_counts.sum() == 0

    def test_paged_facade_attach_round_trips_reorganization_state(
        self, sharded, tmp_path
    ):
        path = Database(sharded).save(tmp_path / "attach.pages")
        attached = Database.attach(path)
        self.assert_statistics_match(attached.backend, sharded)


class TestFailureModes:
    def test_missing_snapshot_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ShardedDatabase.open(tmp_path / "nowhere")

    def test_directory_without_manifest(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValueError, match="no manifest"):
            ShardedDatabase.open(empty)

    def test_missing_shard_file_is_a_clean_error(self, snapshot_path):
        shutil.rmtree(shard_store(snapshot_path, 1))
        with pytest.raises(ValueError, match="missing shard snapshot shard_001.pages"):
            ShardedDatabase.open(snapshot_path)

    def test_corrupt_shard_file_is_a_clean_error(self, snapshot_path):
        (manifest,) = shard_store(snapshot_path, 2).glob("manifest-*.json")
        manifest.write_bytes(b"this is not a page table")
        with pytest.raises(ValueError, match="corrupt shard snapshot shard_002.pages"):
            ShardedDatabase.open(snapshot_path)

    def test_truncated_shard_file_is_a_clean_error(self, snapshot_path):
        (target,) = shard_store(snapshot_path, 0).glob("pages-*.dat")
        target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])
        with pytest.raises(ValueError, match="corrupt shard snapshot shard_000.pages"):
            ShardedDatabase.open(snapshot_path)

    def test_manifest_with_different_shard_count(self, snapshot_path):
        manifest_path = snapshot_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shard_count"] = 5
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="shard_count 5 disagrees with 3"):
            ShardedDatabase.open(snapshot_path)

    def test_manifest_object_count_mismatch(self, snapshot_path):
        manifest_path = snapshot_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"][0]["n_objects"] = 9_999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="records 9999 objects"):
            ShardedDatabase.open(snapshot_path)

    def test_manifest_entry_without_store_key(self, snapshot_path):
        manifest_path = snapshot_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest["shards"][1]["store"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="shard entry 1 names no store generation"):
            ShardedDatabase.open(snapshot_path)

    def test_unparseable_manifest(self, snapshot_path):
        (snapshot_path / SHARD_MANIFEST_NAME).write_text("{not json")
        with pytest.raises(ValueError, match="corrupt shard manifest"):
            ShardedDatabase.open(snapshot_path)

    def test_unknown_manifest_version(self, snapshot_path):
        manifest_path = snapshot_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 99
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unsupported shard manifest format"):
            ShardedDatabase.open(snapshot_path)

    def test_unknown_router_kind(self, snapshot_path):
        manifest_path = snapshot_path / SHARD_MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["router"] = {"kind": "zigzag"}
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="unknown shard router"):
            ShardedDatabase.open(snapshot_path)
