"""Unit tests of the page codec and the paged store.

The codec half pins the byte-level contract of :mod:`repro.storage.pages`:
round-trips, CRC rejection of every single-bit flip in a page, the
compression decision (only when it saves a page), and superblock framing.
The store half pins :class:`repro.storage.pagefile.PagedStore`: commit /
reopen equivalence (eager and lazy), content-addressed incremental
commits that skip clean clusters and survive a reopen, compaction when
live pages fall below the threshold, generation pruning, and superblock
rollback of uncommitted generations (``resync``).
"""

import pickle
import shutil

import numpy as np
import pytest

from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.storage import pages
from repro.storage.pagefile import (
    COMPACTION_THRESHOLD,
    SUPERBLOCK_NAME,
    LazyCluster,
    PagedStore,
    is_paged_store,
)

DIMENSIONS = 3


# ----------------------------------------------------------------------
# Page codec
# ----------------------------------------------------------------------
class TestPageCodec:
    def test_page_round_trip(self):
        payload = b"spatial index page payload"
        raw = pages.encode_page(7, 2, 5, payload, page_size=256)
        assert len(raw) == 256
        page = pages.decode_page(raw, page_size=256)
        assert page is not None
        assert (page.blob_id, page.seq, page.count) == (7, 2, 5)
        assert page.payload == payload
        assert not page.compressed

    def test_every_corrupted_byte_is_detected(self):
        raw = bytearray(pages.encode_page(1, 0, 1, b"abc" * 20, page_size=128))
        for position in range(pages.PAGE_HEADER_SIZE + 60):
            corrupted = bytearray(raw)
            corrupted[position] ^= 0xFF
            assert pages.decode_page(bytes(corrupted), page_size=128) is None, (
                f"flip at byte {position} went undetected"
            )

    def test_short_buffer_and_bad_offset_are_damage(self):
        raw = pages.encode_page(1, 0, 1, b"x", page_size=128)
        assert pages.decode_page(raw[:-1], page_size=128) is None
        assert pages.decode_page(raw, offset=64, page_size=128) is None

    def test_oversized_payload_is_rejected(self):
        capacity = pages.payload_capacity(128)
        with pytest.raises(ValueError):
            pages.encode_page(1, 0, 1, b"x" * (capacity + 1), page_size=128)

    def test_blob_round_trip_multi_page(self):
        data = np.arange(500, dtype=np.int64).tobytes()
        raw, count, compressed = pages.encode_blob(9, data, page_size=256, compress=False)
        assert count > 1
        assert not compressed
        assert len(raw) == count * 256
        restored = pages.decode_blob(
            raw, 0, count, page_size=256, blob_id=9, expected_crc=pages.blob_crc(data)
        )
        assert restored == data

    def test_blob_compresses_only_when_it_saves_a_page(self):
        compressible = b"\x00" * 4000
        raw, count, compressed = pages.encode_blob(1, compressible, page_size=256)
        assert compressed
        assert count < -(-len(compressible) // pages.payload_capacity(256))
        assert pages.decode_blob(raw, 0, count, page_size=256) == compressible

        tiny = b"abc"  # deflate cannot save a page on a one-page blob
        _, count, compressed = pages.encode_blob(1, tiny, page_size=256)
        assert (count, compressed) == (1, False)

    def test_empty_blob_still_occupies_a_page(self):
        raw, count, compressed = pages.encode_blob(1, b"", page_size=128)
        assert (count, compressed) == (1, False)
        assert pages.decode_blob(raw, 0, count, page_size=128) == b""

    def test_blob_rejects_wrong_identity_and_crc(self):
        data = b"payload" * 10
        raw, count, _ = pages.encode_blob(5, data, page_size=128)
        assert pages.decode_blob(raw, 0, count, page_size=128, blob_id=6) is None
        assert (
            pages.decode_blob(raw, 0, count, page_size=128, expected_crc=pages.blob_crc(b"no"))
            is None
        )

    def test_superblock_round_trip_and_damage(self):
        raw = pages.encode_superblock(4096, 17)
        decoded = pages.decode_superblock(raw)
        assert decoded is not None
        assert (decoded.page_size, decoded.generation) == (4096, 17)
        assert pages.decode_superblock(raw[:-1]) is None
        corrupted = bytearray(raw)
        corrupted[-1] ^= 0xFF
        assert pages.decode_superblock(bytes(corrupted)) is None

    def test_members_round_trip(self):
        rng = np.random.default_rng(0)
        lows = rng.random((40, DIMENSIONS))
        highs = lows + rng.random((40, DIMENSIONS))
        data = pages.pack_members(lows, highs)
        restored_lows, restored_highs = pages.unpack_members(data, DIMENSIONS)
        np.testing.assert_array_equal(restored_lows, lows)
        np.testing.assert_array_equal(restored_highs, highs)
        ids = np.arange(40, dtype=np.int64)
        np.testing.assert_array_equal(pages.unpack_ids(pages.pack_ids(ids)), ids)


# ----------------------------------------------------------------------
# Paged store
# ----------------------------------------------------------------------
def build_index(objects=150, seed=0):
    rng = np.random.default_rng(seed)
    index = AdaptiveClusteringIndex(dimensions=DIMENSIONS)
    for object_id in range(objects):
        lows = rng.random(DIMENSIONS) * 0.7
        index.insert(object_id, HyperRectangle(lows, np.minimum(lows + 0.2, 1.0)))
    return index


def build_clustered_index(objects=400, seed=0):
    """An index with several materialized clusters (queried + reorganized)."""
    rng = np.random.default_rng(seed)
    index = AdaptiveClusteringIndex(dimensions=DIMENSIONS)
    for object_id in range(objects):
        lows = rng.random(DIMENSIONS) * 0.7
        index.insert(object_id, HyperRectangle(lows, np.minimum(lows + 0.05, 1.0)))
    for _ in range(3):
        for _query in range(150):
            center = rng.random(DIMENSIONS) * 0.9
            index.execute(
                HyperRectangle(center, np.minimum(center + 0.05, 1.0)),
                SpatialRelation.INTERSECTS,
            )
        index.reorganize()
    assert index.n_clusters > 1
    return index


def sweep(index):
    result = index.execute(HyperRectangle.unit(DIMENSIONS), SpatialRelation.INTERSECTS)
    return tuple(sorted(int(i) for i in result.ids))


class TestPagedStore:
    def test_commit_and_reopen_eager(self, tmp_path):
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        stats = store.commit(index, incremental=False)
        assert stats.mode == "full"
        assert stats.clusters_written == stats.clusters_total
        assert is_paged_store(tmp_path / "store")

        restored = PagedStore.open(tmp_path / "store").load_index()
        assert restored.n_objects == index.n_objects
        assert sweep(restored) == sweep(index)

    def test_lazy_open_defers_members_until_queried(self, tmp_path):
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)

        lazy = PagedStore.open(tmp_path / "store").load_index(lazy=True)
        lazy_clusters = [
            cluster for cluster in lazy._clusters.values() if isinstance(cluster, LazyCluster)
        ]
        assert lazy_clusters, "lazy open materialized every cluster"
        assert all(not cluster.is_materialized for cluster in lazy_clusters)
        # Counts are served from the manifest without touching member pages.
        assert lazy.n_objects == index.n_objects
        assert all(not cluster.is_materialized for cluster in lazy_clusters)
        # A query materializes what it explores — and only then.
        assert sweep(lazy) == sweep(index)

    def test_lazy_index_pickles_like_the_eager_one(self, tmp_path):
        """Pickling (and so a process-shard state file) materializes first."""
        index = build_clustered_index()
        PagedStore.create(tmp_path / "store", page_size=512).commit(index)
        eager = PagedStore.open(tmp_path / "store").load_index()
        lazy = PagedStore.open(tmp_path / "store").load_index(lazy=True)

        copy = pickle.loads(pickle.dumps(lazy))
        assert copy.n_clusters == eager.n_clusters
        for cluster in eager.clusters():
            twin = copy.get_cluster(cluster.cluster_id)
            np.testing.assert_array_equal(twin.store.ids, cluster.store.ids)
            np.testing.assert_array_equal(twin.store.lows, cluster.store.lows)
            np.testing.assert_array_equal(twin.store.highs, cluster.store.highs)
            np.testing.assert_array_equal(
                twin.candidates.object_counts, cluster.candidates.object_counts
            )
        copy.check_invariants()
        query = HyperRectangle(np.full(DIMENSIONS, 0.2), np.full(DIMENSIONS, 0.5))
        for relation in SpatialRelation:
            assert np.array_equal(
                copy.execute(query, relation).ids, eager.execute(query, relation).ids
            )
        # The copy never reads the page file again.
        shutil.rmtree(tmp_path / "store")
        assert sweep(copy) == sweep(eager)

    def test_incremental_commit_skips_clean_clusters(self, tmp_path):
        index = build_clustered_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        first = store.commit(index, incremental=False)

        clean = store.commit(index, incremental=True)
        assert clean.clusters_written == 0
        assert clean.pages_written == 0

        index.insert(9_000, HyperRectangle.unit(DIMENSIONS))
        dirty = store.commit(index, incremental=True)
        assert 0 < dirty.clusters_written < first.clusters_total
        assert dirty.page_bytes_written < first.page_bytes_written
        restored = PagedStore.open(tmp_path / "store").load_index()
        assert sweep(restored) == sweep(index)

    def test_incremental_diffing_survives_reopen(self, tmp_path):
        """Dirty tracking is content-addressed, not in-memory state."""
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)
        del store

        reopened = PagedStore.open(tmp_path / "store")
        stats = reopened.commit(index, incremental=True)
        assert stats.pages_written == 0, "an unchanged index re-wrote pages after reopen"

    def test_full_churn_triggers_compaction(self, tmp_path):
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)
        compactions = 0
        for round_ in range(4):
            for object_id in list(index._object_locations)[:50]:
                box = index.get(object_id)
                index.delete(object_id)
                index.insert(object_id, box)
            stats = store.commit(index, incremental=True)
            compactions += int(stats.compacted)
        assert compactions > 0, "full-churn commits never compacted"
        # Compaction bounds the dead-page carry: the pagefile never holds
        # less than the threshold's worth of live pages.
        assert stats.live_pages / max(stats.total_pages, 1) >= COMPACTION_THRESHOLD
        restored = PagedStore.open(tmp_path / "store").load_index()
        assert sweep(restored) == sweep(index)

    def test_prune_removes_superseded_generations(self, tmp_path):
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)
        index.insert(9_000, HyperRectangle.unit(DIMENSIONS))
        store.commit(index, incremental=True, prune=False)
        manifests = sorted(p.name for p in (tmp_path / "store").glob("manifest-*.json"))
        assert len(manifests) == 2
        store.prune()
        manifests = sorted(p.name for p in (tmp_path / "store").glob("manifest-*.json"))
        assert len(manifests) == 1
        restored = PagedStore.open(tmp_path / "store").load_index()
        assert sweep(restored) == sweep(index)

    def test_resync_rolls_back_uncommitted_generations(self, tmp_path):
        """A store left a generation ahead of its caller rolls back cleanly."""
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)
        committed = store.generation
        baseline = sweep(index)

        index.insert(9_000, HyperRectangle.unit(DIMENSIONS))
        store.commit(index, incremental=True, prune=False)
        assert store.generation == committed + 1

        rolled_back = PagedStore.open_generation(
            tmp_path / "store", committed, resync=True
        )
        assert rolled_back.generation == committed
        assert sweep(rolled_back.load_index()) == baseline
        # The rolled-back store keeps working: commit and reopen again.
        index2 = rolled_back.load_index()
        index2.insert(9_001, HyperRectangle.unit(DIMENSIONS))
        rolled_back.commit(index2, incremental=True)
        assert sweep(PagedStore.open(tmp_path / "store").load_index()) == sweep(index2)

    def test_open_refuses_damaged_store(self, tmp_path):
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)
        pagefile = store.pagefile_path
        data = bytearray(pagefile.read_bytes())
        data[600] ^= 0xFF
        pagefile.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            PagedStore.open(tmp_path / "store").load_index()

    def test_open_refuses_non_store_directory(self, tmp_path):
        (tmp_path / "plain").mkdir()
        assert not is_paged_store(tmp_path / "plain")
        with pytest.raises(ValueError):
            PagedStore.open(tmp_path / "plain")

    def test_superblock_is_the_commit_point(self, tmp_path):
        index = build_index()
        store = PagedStore.create(tmp_path / "store", page_size=512)
        store.commit(index, incremental=False)
        superblock = pages.decode_superblock(
            (tmp_path / "store" / SUPERBLOCK_NAME).read_bytes()
        )
        assert superblock is not None
        assert superblock.generation == store.generation
        assert superblock.page_size == 512
