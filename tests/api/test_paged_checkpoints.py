"""Paged checkpoints and paged snapshots at the API layer.

Every :class:`~repro.api.durability.DurableBackend` checkpoint commits
into per-shard :class:`PagedStore` directories: the second checkpoint
after a small mutation is *incremental* (writes a fraction of the pages),
recovery reopens the stores lazily and replays the WAL tail, and the
same holds through the ``DatabaseConfig`` surface.

Plus the ``Database.save`` / ``Database.open`` / ``Database.attach``
standalone-store path (no WAL), for plain and sharded databases.
"""

import numpy as np
import pytest

from repro.api import Database, DurableBackend, create_backend
from repro.api.config import DatabaseConfig
from repro.api.sharding import ShardedDatabase
from repro.geometry.box import HyperRectangle
from repro.storage.pagefile import PagedStore, is_paged_store

DIMENSIONS = 3


def make_pairs(count, seed=0, first_id=0):
    rng = np.random.default_rng(seed)
    pairs = []
    for offset in range(count):
        lows = rng.random(DIMENSIONS) * 0.7
        pairs.append(
            (first_id + offset, HyperRectangle(lows, np.minimum(lows + 0.2, 1.0)))
        )
    return pairs


def fingerprint(backend):
    result = backend.execute(HyperRectangle.unit(DIMENSIONS))
    return (backend.n_objects, tuple(sorted(int(i) for i in result.ids)))


def adapt(db, rng, rounds=3):
    """Form clusters from query feedback; a lone root makes nothing incremental."""
    for _ in range(rounds):
        queries = []
        for _query in range(150):
            center = rng.random(DIMENSIONS) * 0.9
            queries.append(HyperRectangle(center, np.minimum(center + 0.05, 1.0)))
        db.execute_batch(queries)
        db.reorganize()


def rewritten_clusters(before, after):
    """Clusters of page table *after* whose extents differ from *before*."""
    previous = {entry.cluster_id: (entry.ids, entry.members) for entry in before.clusters}
    return [
        entry
        for entry in after.clusters
        if previous.get(entry.cluster_id) != (entry.ids, entry.members)
    ]


def store_table(wal_dir, position):
    return PagedStore.open(wal_dir / f"pages-{position:03d}").table


class TestPagedDurability:
    def test_checkpoint_recover_round_trip(self, tmp_path):
        inner = create_backend("ac", DIMENSIONS)
        db = DurableBackend.create(inner, tmp_path / "wal")
        db.bulk_load(make_pairs(80, seed=1))
        db.checkpoint()
        expected = fingerprint(db)
        db.close()

        recovered = DurableBackend.recover(tmp_path / "wal")
        assert fingerprint(recovered) == expected
        recovered.close()

    def test_second_checkpoint_is_incremental(self, tmp_path):
        inner = create_backend("ac", DIMENSIONS)
        db = DurableBackend.create(inner, tmp_path / "wal")
        rng = np.random.default_rng(2)
        db.bulk_load(
            (
                object_id,
                HyperRectangle(lows, np.minimum(lows + 0.05, 1.0)),
            )
            for object_id, lows in enumerate(rng.random((400, DIMENSIONS)) * 0.8)
        )
        adapt(db, rng)
        db.checkpoint()
        full = store_table(tmp_path / "wal", 0)
        assert len(full.clusters) > 1

        db.insert(9_000, make_pairs(1, seed=3, first_id=9_000)[0][1])
        db.checkpoint()
        incremental = store_table(tmp_path / "wal", 0)
        # Appended to the same page file: only the touched clusters moved.
        assert incremental.pagefile == full.pagefile
        assert 0 < len(rewritten_clusters(full, incremental)) < len(incremental.clusters)
        assert incremental.total_pages - full.total_pages < full.live_pages
        db.close()

    def test_process_shards_checkpoint_only_their_changed_clusters(self, tmp_path):
        wal_dir = tmp_path / "wal"
        database = Database.create("ac", DIMENSIONS, shards=2, execution="process", wal_dir=wal_dir)
        try:
            rng = np.random.default_rng(22)
            database.bulk_load(
                (object_id, HyperRectangle(lows, np.minimum(lows + 0.05, 1.0)))
                for object_id, lows in enumerate(rng.random((1600, DIMENSIONS)) * 0.8)
            )
            adapt(database, rng)
            database.checkpoint()
            before = [store_table(wal_dir, position) for position in range(2)]

            object_id, box = make_pairs(1, seed=23, first_id=9_000)[0]
            touched = database.backend.inner.router.shard_of(object_id, box)
            database.insert(object_id, box)
            database.checkpoint()
            for position in range(2):
                after = store_table(wal_dir, position)
                assert after.generation == before[position].generation + 1
                rewritten = rewritten_clusters(before[position], after)
                if position == touched:
                    assert len(before[position].clusters) > 1
                    assert 0 < len(rewritten) < len(after.clusters)
                    appended = after.total_pages - before[position].total_pages
                    assert 0 < appended < before[position].live_pages
                else:
                    assert rewritten == []
                    assert after.total_pages == before[position].total_pages
            expected = fingerprint(database)
        finally:
            database.close()
        recovered = Database.recover(wal_dir)
        assert fingerprint(recovered) == expected
        recovered.close()

    def test_wal_tail_replays_over_paged_checkpoint(self, tmp_path):
        inner = create_backend("ac", DIMENSIONS)
        db = DurableBackend.create(inner, tmp_path / "wal")
        db.bulk_load(make_pairs(60, seed=4))
        db.checkpoint()
        # Mutations after the checkpoint live only in the WAL tail.
        db.insert(500, make_pairs(1, seed=5, first_id=500)[0][1])
        db.delete(3)
        expected = fingerprint(db)
        # No close/checkpoint: recovery must replay the tail.
        recovered = DurableBackend.recover(tmp_path / "wal")
        assert fingerprint(recovered) == expected
        recovered.close()

    def test_sharded_paged_checkpoint_recovers_with_router(self, tmp_path):
        inner = ShardedDatabase.create("ac", DIMENSIONS, shards=3, router="spatial")
        db = DurableBackend.create(inner, tmp_path / "wal")
        db.bulk_load(make_pairs(90, seed=6))
        db.checkpoint()
        db.insert(700, make_pairs(1, seed=7, first_id=700)[0][1])
        expected = fingerprint(db)
        db.close()

        recovered = DurableBackend.recover(tmp_path / "wal")
        assert isinstance(recovered.inner, ShardedDatabase)  # repro-lint: disable=RL003 -- pins that recovery rebuilt the sharded composite, not a flat store
        assert len(recovered.inner.shards) == 3
        assert fingerprint(recovered) == expected
        recovered.close()

    def test_paged_mode_requires_persistable_shards(self, tmp_path):
        from repro.api import UnsupportedOperation

        inner = create_backend("rs", DIMENSIONS)
        with pytest.raises(UnsupportedOperation, match="persistence"):
            DurableBackend.create(inner, tmp_path / "wal")


class TestConfigSurface:
    def test_from_config_builds_a_paged_durable_database(self, tmp_path):
        config = DatabaseConfig(
            method="ac",
            dimensions=DIMENSIONS,
            durable=True,
            wal_dir=tmp_path / "wal",
        )
        database = Database.from_config(config)
        database.bulk_load(make_pairs(40, seed=11))
        database.backend.checkpoint()
        expected = fingerprint(database.backend)
        database.backend.close()
        attached = Database.attach(tmp_path / "wal")
        assert fingerprint(attached.backend) == expected


class TestStandalonePagedStores:
    def test_save_open_round_trip(self, tmp_path):
        database = Database.create("ac", DIMENSIONS)
        database.bulk_load(make_pairs(120, seed=12))
        path = database.save(tmp_path / "store.pages")
        assert is_paged_store(path)
        reopened = Database.open(path)
        assert fingerprint(reopened.backend) == fingerprint(database.backend)
        attached = Database.attach(path)
        assert fingerprint(attached.backend) == fingerprint(database.backend)

    def test_second_save_is_incremental(self, tmp_path):
        database = Database.create("ac", DIMENSIONS)
        database.bulk_load(make_pairs(120, seed=13))
        database.save(tmp_path / "store.pages")
        generation_one = PagedStore.open(tmp_path / "store.pages").generation

        database.insert(9_000, make_pairs(1, seed=14, first_id=9_000)[0][1])
        database.save(tmp_path / "store.pages")
        store = PagedStore.open(tmp_path / "store.pages")
        assert store.generation == generation_one + 1
        reopened = Database.open(tmp_path / "store.pages")
        assert fingerprint(reopened.backend) == fingerprint(database.backend)

    def test_sharded_save_round_trip(self, tmp_path):
        database = Database.create("ac", DIMENSIONS, shards=2, router="spatial")
        database.bulk_load(make_pairs(100, seed=15))
        path = database.save(tmp_path / "sharded.pages")
        reopened = Database.open(path)
        assert isinstance(reopened.backend, ShardedDatabase)  # repro-lint: disable=RL003 -- pins that the paged manifest restored the sharded layout
        assert fingerprint(reopened.backend) == fingerprint(database.backend)

    def test_save_requires_a_persistable_backend(self, tmp_path):
        from repro.api import UnsupportedOperation

        database = Database.create("rs", DIMENSIONS)
        database.bulk_load(make_pairs(10, seed=16))
        with pytest.raises(UnsupportedOperation):
            database.save(tmp_path / "store.pages")
