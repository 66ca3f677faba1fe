"""Behavior of the durability subsystem under crash-free operation.

The fault-injection suite (``test_durability_faults.py``) pins what
survives a crash; this module pins everything else: the WAL file format,
checkpoint/recover round-trips (ids *and* execution counters byte-equal),
group commit, the facade wiring and the error paths.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.api import (
    AsyncDatabase,
    Database,
    DurableBackend,
    ShardedDatabase,
    UnsupportedOperation,
    create_backend,
)
from repro.api.durability import CHECKPOINT_MANIFEST_NAME, PENDING_OP_NAME
from repro.geometry.box import HyperRectangle
from repro.storage.wal import FileSystem, WriteAheadLog, read_wal

DIMENSIONS = 4


def make_box(rng):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + 0.25, 1.0))


def make_pairs(count, seed=0, first_id=0):
    rng = np.random.default_rng(seed)
    return [(first_id + offset, make_box(rng)) for offset in range(count)]


def sweep_ids(backend):
    return backend.execute(HyperRectangle.unit(DIMENSIONS)).ids.tolist()


# ----------------------------------------------------------------------
# WAL format
# ----------------------------------------------------------------------
class TestWalFormat:
    def test_round_trips_every_record_kind(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, DIMENSIONS, create=True)
        box = make_box(rng)
        assert wal.append_insert(7, box.lows, box.highs) == 0
        assert wal.append_delete(7) == 1
        pairs = make_pairs(3, seed=1, first_id=10)
        ids = [object_id for object_id, _ in pairs]
        lows = np.stack([b.lows for _, b in pairs])
        highs = np.stack([b.highs for _, b in pairs])
        assert wal.append_bulk_load(ids, lows, highs, gid=9) == 2
        assert wal.append_delete_bulk([10, 12], gid=9) == 3
        assert wal.append_reorganize() == 4
        wal.sync()
        wal.close()

        scan = read_wal(path)
        assert not scan.torn
        assert [record.lsn for record in scan.records] == [0, 1, 2, 3, 4]
        assert [record.op_name for record in scan.records] == [
            "insert",
            "delete",
            "bulk_load",
            "delete_bulk",
            "reorganize",
        ]
        insert = scan.records[0]
        assert insert.object_ids == (7,)
        np.testing.assert_array_equal(insert.lows[0], box.lows)
        np.testing.assert_array_equal(insert.highs[0], box.highs)
        bulk = scan.records[2]
        assert bulk.gid == 9
        assert bulk.object_ids == (10, 11, 12)
        np.testing.assert_array_equal(bulk.lows, lows)
        np.testing.assert_array_equal(bulk.highs, highs)

    def test_torn_tail_is_truncated_not_interpreted(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, DIMENSIONS, create=True)
        box = make_box(rng)
        wal.append_insert(1, box.lows, box.highs)
        wal.sync()
        good = wal.size
        wal.append_insert(2, box.lows, box.highs)
        wal.sync()
        wal.close()
        full = path.read_bytes()
        # Chop the second record mid-payload: a torn append.
        path.write_bytes(full[: good + (len(full) - good) // 2])
        scan = read_wal(path)
        assert scan.torn
        assert [record.object_ids for record in scan.records] == [(1,)]
        assert scan.good_length == good
        # Reopening truncates the tail and appends cleanly after it.
        reopened = WriteAheadLog(path, DIMENSIONS)
        assert reopened.next_lsn == 1
        reopened.append_delete(1)
        reopened.sync()
        reopened.close()
        scan = read_wal(path)
        assert not scan.torn
        assert [record.op_name for record in scan.records] == ["insert", "delete"]

    def test_corrupted_crc_stops_the_scan(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, DIMENSIONS, create=True)
        box = make_box(rng)
        wal.append_insert(1, box.lows, box.highs)
        first = wal.size
        wal.append_insert(2, box.lows, box.highs)
        wal.sync()
        wal.close()
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip one payload byte of the second record
        path.write_bytes(bytes(data))
        scan = read_wal(path)
        assert scan.torn
        assert len(scan.records) == 1
        assert scan.good_length == first

    def test_reset_starts_a_fresh_monotonic_segment(self, tmp_path, rng):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, DIMENSIONS, create=True)
        box = make_box(rng)
        for object_id in range(5):
            wal.append_insert(object_id, box.lows, box.highs)
        wal.sync()
        wal.reset()
        assert wal.next_lsn == 5
        wal.append_delete(3)
        wal.sync()
        wal.close()
        scan = read_wal(path)
        assert scan.start_lsn == 5
        assert [record.lsn for record in scan.records] == [5]

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "not-a-wal"
        path.write_bytes(b"definitely not a write-ahead log, far too long")
        with pytest.raises(ValueError, match="bad magic"):
            read_wal(path)
        (tmp_path / "short").write_bytes(b"tiny")
        with pytest.raises(ValueError, match="no header"):
            read_wal(tmp_path / "short")


# ----------------------------------------------------------------------
# Durable lifecycle: create / log / checkpoint / recover
# ----------------------------------------------------------------------
class TestDurableLifecycle:
    def test_recover_equals_live_including_counters(self, tmp_path):
        db = Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        db.bulk_load(make_pairs(80, seed=3))
        db.insert(500, make_pairs(1, seed=4, first_id=500)[0][1])
        db.delete(10)
        db.delete_bulk([11, 12, 13, 9_999])
        recovered = Database.recover(tmp_path / "d")
        assert sweep_ids(recovered.backend) == sweep_ids(db.backend)
        probes = [box for _, box in make_pairs(6, seed=5)]
        for live, rec in zip(db.execute_batch(probes), recovered.execute_batch(probes)):
            assert live.ids.tobytes() == rec.ids.tobytes()
            assert live.execution.core_counters() == rec.execution.core_counters()

    def test_replay_happens_only_for_the_wal_tail(self, tmp_path):
        db = Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        db.bulk_load(make_pairs(40, seed=6))
        db.checkpoint()
        db.insert(700, make_pairs(1, seed=7, first_id=700)[0][1])
        recovered = Database.recover(tmp_path / "d")
        # Only the post-checkpoint insert replays; the bulk load is in the
        # checkpoint.
        assert recovered.backend.stats.replayed_records == 1
        assert 700 in recovered.backend

    def test_checkpoint_resets_wals_and_prunes_old_directories(self, tmp_path):
        db = Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        db.bulk_load(make_pairs(30, seed=8))
        first = json.loads((tmp_path / "d" / CHECKPOINT_MANIFEST_NAME).read_text())
        db.checkpoint()
        manifest = json.loads((tmp_path / "d" / CHECKPOINT_MANIFEST_NAME).read_text())
        assert manifest["seq"] == first["seq"] + 1
        # Each paged store keeps only the generation the manifest names.
        for entry in manifest["stores"]:
            store = tmp_path / "d" / entry["directory"]
            assert sorted(path.name for path in store.glob("manifest-*.json")) == [
                f"manifest-{entry['generation']:06d}.json"
            ]
        for entry in manifest["wals"]:
            scan = read_wal(tmp_path / "d" / entry["file"])
            assert scan.records == ()
            assert scan.start_lsn == entry["lsn"]

    def test_recovered_database_keeps_logging_durably(self, tmp_path):
        db = Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        db.bulk_load(make_pairs(30, seed=9))
        once = Database.recover(tmp_path / "d")
        once.insert(901, make_pairs(1, seed=10, first_id=901)[0][1])
        twice = Database.recover(tmp_path / "d")
        assert 901 in twice.backend
        assert sweep_ids(twice.backend) == sweep_ids(once.backend)

    def test_sharded_durable_routes_one_wal_per_shard(self, tmp_path):
        db = Database.create(
            "ac",
            DIMENSIONS,
            shards=3,
            router="hash",
            durable=True,
            wal_dir=tmp_path / "d",
        )
        backend = db.backend
        assert isinstance(backend, DurableBackend)
        assert len(backend.wal_paths) == 3
        pairs = make_pairs(30, seed=11)
        db.bulk_load(pairs)
        router = backend.inner.router
        # Deletion records land in the owning shard's WAL.
        victim = pairs[4][0]
        owner = router.shard_of_id(victim)
        db.delete(victim)
        scan = read_wal(backend.wal_paths[owner])
        assert scan.records[-1].op_name == "delete"
        assert scan.records[-1].object_ids == (victim,)
        # Recovery resets the WALs, so the live handle must not log after
        # this point — recovery owns the directory from here on.
        recovered = Database.recover(tmp_path / "d")
        assert sweep_ids(recovered.backend) == sweep_ids(db.backend)

    def test_sharded_recover_matches_live_for_both_routers(self, tmp_path):
        for router in ("hash", "spatial"):
            db = Database.create(
                "ac",
                DIMENSIONS,
                shards=2,
                router=router,
                durable=True,
                wal_dir=tmp_path / router,
            )
            db.bulk_load(make_pairs(40, seed=12))
            db.delete_bulk([1, 3, 5, 7])
            db.insert(800, make_pairs(1, seed=13, first_id=800)[0][1])
            recovered = Database.recover(tmp_path / router)
            assert sweep_ids(recovered.backend) == sweep_ids(db.backend)

    def test_staged_multi_shard_bulk_load_commits_cleanly(self, tmp_path):
        db = Database.create(
            "ac",
            DIMENSIONS,
            shards=2,
            router="hash",
            durable=True,
            wal_dir=tmp_path / "d",
        )
        db.bulk_load(make_pairs(24, seed=14))  # spans both shards: staged
        assert not (tmp_path / "d" / PENDING_OP_NAME).exists()
        gids = set()
        for wal_path in db.backend.wal_paths:
            for record in read_wal(wal_path).records:
                if record.op_name == "bulk_load":
                    gids.add(record.gid)
        assert len(gids) == 1 and gids != {0}
        recovered = Database.recover(tmp_path / "d")
        assert recovered.n_objects == 24


# ----------------------------------------------------------------------
# Validation and error paths
# ----------------------------------------------------------------------
class TestDurabilityErrors:
    def test_durable_requires_wal_dir(self):
        with pytest.raises(ValueError, match="wal_dir"):
            Database.create("ac", DIMENSIONS, durable=True)

    def test_durable_requires_persistable_backend(self, tmp_path):
        with pytest.raises(UnsupportedOperation):
            Database.create("ss", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")

    def test_create_refuses_an_existing_durable_directory(self, tmp_path):
        Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        with pytest.raises(ValueError, match="recover"):
            Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")

    def test_recover_requires_a_durable_directory(self, tmp_path):
        with pytest.raises(ValueError, match="not a durable database"):
            Database.recover(tmp_path)

    def test_open_redirects_durable_directories_to_recover(self, tmp_path):
        Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        with pytest.raises(ValueError, match="Database.recover"):
            Database.open(tmp_path / "d")

    def test_checkpoint_is_gated_on_durability(self):
        db = Database.create("ac", DIMENSIONS)
        assert db.durable is False
        with pytest.raises(UnsupportedOperation, match="durable"):
            db.checkpoint()

    def test_rejected_operations_leave_no_record(self, tmp_path):
        db = Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        db.insert(1, make_pairs(1, seed=15, first_id=1)[0][1])
        backend = db.backend
        before = [record.lsn for record in read_wal(backend.wal_paths[0]).records]
        with pytest.raises(KeyError):
            db.insert(1, make_pairs(1, seed=16, first_id=1)[0][1])  # duplicate
        with pytest.raises(ValueError):
            db.insert(2, HyperRectangle.unit(2))  # wrong dimensionality
        with pytest.raises(KeyError):
            db.bulk_load([(3, HyperRectangle.unit(DIMENSIONS))] * 2)  # batch dup
        assert [record.lsn for record in read_wal(backend.wal_paths[0]).records] == before
        recovered = Database.recover(tmp_path / "d")
        assert sweep_ids(recovered.backend) == [1]

    def test_corrupt_manifest_is_a_clean_error(self, tmp_path):
        Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        (tmp_path / "d" / CHECKPOINT_MANIFEST_NAME).write_text("{broken")
        with pytest.raises(ValueError, match="corrupt checkpoint manifest"):
            Database.recover(tmp_path / "d")


# ----------------------------------------------------------------------
# Group commit
# ----------------------------------------------------------------------
class TestGroupCommit:
    def test_one_sync_per_group(self, tmp_path):
        backend = DurableBackend.create(
            create_backend("ac", DIMENSIONS), tmp_path / "d"
        )
        pairs = make_pairs(32, seed=17)
        with backend.group_commit():
            for object_id, box in pairs:
                backend.insert(object_id, box)
        assert backend.stats.appends == 32
        assert backend.stats.syncs == 1
        recovered = DurableBackend.recover(tmp_path / "d")
        assert recovered.n_objects == 32

    def test_async_database_group_commits_per_tick(self, tmp_path):
        db = Database.create("ac", DIMENSIONS, durable=True, wal_dir=tmp_path / "d")
        rng = np.random.default_rng(18)

        async def main():
            async with AsyncDatabase(db) as served:
                await asyncio.gather(
                    *(served.subscribe(100 + offset, make_box(rng)) for offset in range(24))
                )
                return await served.query(HyperRectangle.unit(DIMENSIONS))

        result = asyncio.run(main())
        stats = db.backend.stats
        assert stats.appends == 24
        # Batched ticks: far fewer fsyncs than mutations.
        assert stats.syncs < stats.appends / 2
        assert len(result.ids) == 24
        recovered = Database.recover(tmp_path / "d")
        assert recovered.n_objects == 24

    def test_ticks_acknowledge_only_after_the_group_fsync(self, tmp_path, monkeypatch):
        # A caller must never observe its acknowledgement before the fsync
        # that makes the mutation durable: the tick defers every future
        # resolution until the group_commit block has exited.
        order = []

        class RecordingFS(FileSystem):
            def fsync(self, handle):
                order.append("fsync")
                super().fsync(handle)

        backend = DurableBackend.create(
            create_backend("ac", DIMENSIONS), tmp_path / "d", fs=RecordingFS()
        )
        rng = np.random.default_rng(20)
        real_dispatch = AsyncDatabase._dispatch

        def recording_dispatch(self, future, result, error):
            order.append("ack")
            real_dispatch(self, future, result, error)

        monkeypatch.setattr(AsyncDatabase, "_dispatch", recording_dispatch)

        async def main():
            async with AsyncDatabase(Database(backend)) as served:
                order.clear()  # drop creation-time fsyncs
                await asyncio.gather(
                    *(served.subscribe(offset, make_box(rng)) for offset in range(12))
                )

        asyncio.run(main())
        assert "ack" in order and "fsync" in order
        first_ack = order.index("ack")
        assert "fsync" in order[:first_ack], (
            f"acknowledgement dispatched before the tick's WAL fsync: {order}"
        )

    def test_sharded_group_commit_survives_recovery(self, tmp_path):
        inner = ShardedDatabase.create("ac", DIMENSIONS, shards=2, router="hash")
        backend = DurableBackend.create(inner, tmp_path / "d")
        pairs = make_pairs(20, seed=19)
        with backend.group_commit():
            for object_id, box in pairs:
                backend.insert(object_id, box)
            backend.delete(pairs[0][0])
        assert backend.stats.syncs == 1
        recovered = DurableBackend.recover(tmp_path / "d")
        assert sweep_ids(recovered) == sweep_ids(backend)
