"""Behavior of WAL-shipping replication under crash-free operation.

The fault-injection suite (``test_replication_faults.py``) pins what an
acknowledged operation guarantees across crashes; this module pins
everything else: the wire encoding, byte-faithful bootstrap, frame
streaming for every operation kind (staged multi-shard ops included),
acknowledgement modes, catch-up and its refusal cases, promotion, read
routing and the socket deployment path.
"""

import json
import shutil
import zlib

import numpy as np
import pytest

from repro.api import (
    InProcessTransport,
    ReplicatedBackend,
    ReplicaNode,
    ReplicaServer,
    ReplicationError,
    ShardedDatabase,
    SocketTransport,
    choose_promotion_target,
    create_backend,
    durable_lsns,
    is_replica_directory,
    promote,
)
from repro.api.replication import (
    REPLICA_MARKER_NAME,
    decode_message,
    encode_message,
)
from repro import wire
from repro.geometry.box import HyperRectangle
from repro.storage.pagefile import PagedStore
from repro.storage.wal import read_frames

DIMENSIONS = 4


def make_box(rng):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + 0.25, 1.0))


def make_pairs(count, seed=0, first_id=0):
    rng = np.random.default_rng(seed)
    return [(first_id + offset, make_box(rng)) for offset in range(count)]


def sweep(backend):
    return sorted(backend.execute(HyperRectangle.unit(DIMENSIONS)).ids.tolist())


def make_primary(tmp_path, *, shards=2, mode="semi-sync"):
    inner = ShardedDatabase.create("ac", DIMENSIONS, shards=shards)
    return ReplicatedBackend.create(inner, tmp_path / "primary", mode=mode)


def attached_node(primary, directory):
    node = ReplicaNode(directory)
    primary.attach_replica(InProcessTransport(node))
    return node


def directory_bytes(directory):
    """Every file under *directory* → its bytes (relative posix paths)."""
    return {
        path.relative_to(directory).as_posix(): path.read_bytes()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


# ----------------------------------------------------------------------
# Wire encoding
# ----------------------------------------------------------------------
class TestWireEncoding:
    def test_round_trip(self):
        header = {"kind": "frames", "shard": 3, "sync": True}
        blobs = [b"", b"\x00\x01\x02", b"frame" * 100]
        decoded_header, decoded_blobs = decode_message(encode_message(header, blobs))
        assert decoded_header == header
        assert decoded_blobs == blobs

    def test_truncated_message_raises(self):
        message = encode_message({"kind": "status"}, [b"blob"])
        for cut in (1, 3, len(message) // 2, len(message) - 1):
            with pytest.raises(ReplicationError, match="truncated"):
                decode_message(message[:cut])

    def test_non_object_header_raises(self):
        body = b"".join(
            [
                len(b"[1, 2]").to_bytes(4, "little"),
                b"[1, 2]",
                (0).to_bytes(4, "little"),
            ]
        )
        head = len(body).to_bytes(4, "little") + zlib.crc32(body).to_bytes(4, "little")
        with pytest.raises(ReplicationError, match="header is not an object"):
            decode_message(head + body)

    def test_every_changed_byte_raises(self):
        """A message is CRC-checked: no single-byte change decodes — not
        even one that still parses, like ``"shard": 1`` becoming 0."""
        message = encode_message({"kind": "frames", "shard": 1}, [b"abc"])
        for position in range(len(message)):
            for mask in (0x01, 0x80, 0xFF):
                corrupt = bytearray(message)
                corrupt[position] ^= mask
                with pytest.raises(ReplicationError):
                    decode_message(bytes(corrupt))

    def test_oversize_reply_length_is_refused_before_its_payload(self):
        """A garbage length prefix in a follower's reply fails the request
        at once instead of waiting for gigabytes that never come."""
        import socket
        import threading

        with socket.create_server(("127.0.0.1", 0)) as listener:
            done = threading.Event()

            def garbage_reply():
                connection, _peer = listener.accept()
                with connection:
                    connection.recv(1 << 16)  # the request
                    connection.sendall((0xFFFFFFF0).to_bytes(4, "little") + b"z" * 12)
                    done.wait(10.0)  # hold the connection open

            thread = threading.Thread(target=garbage_reply, daemon=True)
            thread.start()
            transport = SocketTransport(listener.getsockname(), timeout=5.0)
            try:
                with pytest.raises(ReplicationError, match="exceeds the frame limit"):
                    transport.request({"kind": "status"})
                assert transport._connection is None
            finally:
                done.set()
                thread.join(timeout=10.0)

    def test_server_drops_an_oversize_request_without_reading_it(self, tmp_path):
        import socket

        node = ReplicaNode(tmp_path / "replica")
        with ReplicaServer(node) as server:
            with socket.create_connection(server.address) as rogue:
                rogue.settimeout(5.0)
                # A whole frame head and nothing else: the server reads it
                # all, so its close is a clean EOF rather than a reset.
                rogue.sendall((0xFFFFFFF0).to_bytes(4, "little") + bytes(4))
                assert rogue.recv(1) == b""  # dropped at the head, no reply


# ----------------------------------------------------------------------
# Bootstrap
# ----------------------------------------------------------------------
class TestBootstrap:
    def test_replica_directory_is_a_byte_faithful_clone(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.bulk_load(make_pairs(40, seed=1))
        node = attached_node(primary, tmp_path / "replica")
        primary.sync()
        primary_files = directory_bytes(primary.wal_dir)
        replica_files = directory_bytes(node.directory)
        marker = replica_files.pop(REPLICA_MARKER_NAME)
        assert json.loads(marker)["role"] == "replica"
        assert replica_files == primary_files

    def test_live_materialisation_matches_primary(self, tmp_path):
        primary = make_primary(tmp_path)
        primary.bulk_load(make_pairs(30, seed=2))
        node = attached_node(primary, tmp_path / "replica")
        assert sweep(node.live_backend) == sweep(primary)
        assert node.n_shards == 2
        for shard in range(2):
            assert node.applied_lsn(shard) == primary.next_lsns[shard]

    def test_bootstrap_refuses_a_used_directory(self, tmp_path):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(10, seed=30))
        # A raw bootstrap message must never overwrite installed state.
        with pytest.raises(ReplicationError, match="already holds replica state"):
            node.handle({"kind": "bootstrap", "files": ["CHECKPOINT.json"]}, [b"{}"])
        # And a *different* (fresh) primary cannot adopt it either: the
        # follower is ahead of that primary's empty history.
        other = ReplicatedBackend.create(
            ShardedDatabase.create("ac", DIMENSIONS, shards=2), tmp_path / "other"
        )
        reopened = ReplicaNode(tmp_path / "replica")
        assert reopened.initialized
        with pytest.raises(ReplicationError, match="must be promoted"):
            other.attach_replica(InProcessTransport(reopened))

    def test_bootstrap_rejects_escaping_paths(self, tmp_path):
        node = ReplicaNode(tmp_path / "replica")
        with pytest.raises(ReplicationError, match="escapes the replica directory"):
            node.handle(
                {"kind": "bootstrap", "files": ["../evil", "CHECKPOINT.json"]},
                [b"x", b"{}"],
            )

    def test_bootstrap_requires_manifest_last(self, tmp_path):
        node = ReplicaNode(tmp_path / "replica")
        with pytest.raises(ReplicationError, match="manifest last"):
            node.handle({"kind": "bootstrap", "files": ["wal-000.log"]}, [b"x"])

    def test_unknown_message_kind_raises(self, tmp_path):
        node = ReplicaNode(tmp_path / "replica")
        with pytest.raises(ReplicationError, match="unknown replication message kind"):
            node.handle({"kind": "launch-missiles"}, [])

    def test_messages_before_bootstrap_raise(self, tmp_path):
        node = ReplicaNode(tmp_path / "replica")
        with pytest.raises(ReplicationError, match="not bootstrapped"):
            node.handle({"kind": "frames", "shard": 0}, [])
        with pytest.raises(ReplicationError, match="not bootstrapped"):
            node.live_backend


class TestPagedBootstrap:
    """Followers start from the primary's committed paged generation."""

    @pytest.mark.parametrize("shards", [None, 2], ids=["plain", "sharded"])
    def test_follower_clones_the_committed_generation_and_promotes(
        self, tmp_path, shards
    ):
        if shards is None:
            inner = create_backend("ac", DIMENSIONS)
        else:
            inner = ShardedDatabase.create("ac", DIMENSIONS, shards=shards)
        primary = ReplicatedBackend.create(inner, tmp_path / "primary")
        primary.bulk_load(make_pairs(60, seed=40))
        primary.checkpoint()
        primary.insert(500, make_pairs(1, seed=41, first_id=500)[0][1])
        node = attached_node(primary, tmp_path / "replica")
        manifest = json.loads((primary.wal_dir / "CHECKPOINT.json").read_text())
        assert len(manifest["stores"]) == (shards or 1)
        for entry in manifest["stores"]:
            # Superblock, manifest and page file of exactly that generation.
            clone = node.directory / entry["directory"]
            assert PagedStore.open(clone).generation == entry["generation"]
            assert directory_bytes(clone) == directory_bytes(
                primary.wal_dir / entry["directory"]
            )
        primary.delete(5)
        expected = sweep(primary)
        assert sweep(node.live_backend) == expected
        primary.detach_replicas()
        primary.close()
        node.close()
        promoted = promote(node.directory)
        assert sweep(promoted) == expected
        promoted.close()

    def test_bootstrap_over_the_frame_ceiling_leaves_the_primary_untouched(
        self, tmp_path, monkeypatch
    ):
        primary = make_primary(tmp_path)
        primary.bulk_load(make_pairs(200, seed=42))
        before = directory_bytes(primary.wal_dir)
        monkeypatch.setattr(wire, "_MAX_FRAME_BYTES", 4096)
        node = ReplicaNode(tmp_path / "replica")
        with pytest.raises(ReplicationError, match="bootstrap message refused"):
            primary.attach_replica(InProcessTransport(node))
        assert primary.replicas == ()
        assert not node.initialized
        assert directory_bytes(primary.wal_dir) == before
        monkeypatch.undo()
        # The primary keeps serving and can still bootstrap a follower.
        primary.insert(900, make_pairs(1, seed=43, first_id=900)[0][1])
        follower = attached_node(primary, tmp_path / "second")
        assert sweep(follower.live_backend) == sweep(primary)


# ----------------------------------------------------------------------
# Streaming
# ----------------------------------------------------------------------
class TestStreaming:
    def test_every_operation_kind_replicates(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.insert(0, make_box(rng))
        primary.insert(1, make_box(rng))
        primary.delete(0)
        primary.bulk_load(make_pairs(20, seed=3, first_id=10))  # staged (gid)
        primary.delete_bulk([10, 11, 12])  # staged (gid)
        primary.reorganize()
        assert sweep(node.live_backend) == sweep(primary)
        assert not node.has_pending
        primary.sync()
        for shard, path in enumerate(primary.wal_paths):
            assert (node.directory / path.name).read_bytes() == path.read_bytes()
            assert node.applied_lsn(shard) == primary.next_lsns[shard]

    def test_streams_to_multiple_followers(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        nodes = [attached_node(primary, tmp_path / f"replica-{i}") for i in range(3)]
        assert primary.replicas == ("replica-0", "replica-1", "replica-2")
        primary.bulk_load(make_pairs(25, seed=4))
        primary.delete(3)
        for node in nodes:
            assert sweep(node.live_backend) == sweep(primary)

    def test_duplicate_frames_are_idempotent(self, tmp_path, rng):
        """A retry after a lost acknowledgement redelivers; the follower skips."""
        primary = make_primary(tmp_path, shards=1)
        node = attached_node(primary, tmp_path / "replica")
        primary.insert(1, make_box(rng))
        primary.sync()
        frames = [frame for _, frame in read_frames(primary.wal_paths[0]).frames]
        before = node.applied_lsn(0)
        reply, _ = node.handle({"kind": "frames", "shard": 0, "sync": True}, frames)
        assert reply["lsn"] == before  # everything skipped as duplicate
        assert sweep(node.live_backend) == sweep(primary)

    def test_frame_gap_raises(self, tmp_path, rng):
        primary = make_primary(tmp_path, shards=1)
        node = attached_node(primary, tmp_path / "replica")
        primary.insert(1, make_box(rng))
        primary.insert(2, make_box(rng))
        primary.sync()
        last = [frame for _, frame in read_frames(primary.wal_paths[0]).frames][-1]
        fresh = ReplicaNode(tmp_path / "fresh")
        spare = ReplicatedBackend.create(
            ShardedDatabase.create("ac", DIMENSIONS, shards=1), tmp_path / "spare"
        )
        spare.attach_replica(InProcessTransport(fresh))
        with pytest.raises(ReplicationError, match="replication gap"):
            fresh.handle({"kind": "frames", "shard": 0, "sync": True}, [last])

    def test_frames_for_unknown_shard_raise(self, tmp_path):
        primary = make_primary(tmp_path, shards=1)
        node = attached_node(primary, tmp_path / "replica")
        with pytest.raises(ReplicationError, match="unknown shard"):
            node.handle({"kind": "frames", "shard": 5, "sync": False}, [])

    def test_rejected_operation_ships_nothing(self, tmp_path, rng):
        """A failed apply rolls back the WAL *and* the ship buffer."""
        primary = make_primary(tmp_path, shards=1)
        node = attached_node(primary, tmp_path / "replica")
        primary.insert(1, make_box(rng))
        with pytest.raises(KeyError):
            primary.insert(1, make_box(rng))  # duplicate id: apply refuses
        primary.insert(2, make_box(rng))
        assert sweep(node.live_backend) == sweep(primary) == [1, 2]
        assert node.applied_lsn(0) == primary.next_lsns[0]


# ----------------------------------------------------------------------
# Acknowledgement modes
# ----------------------------------------------------------------------
class TestAckModes:
    def test_semi_sync_follower_is_durable_at_ack(self, tmp_path, rng):
        primary = make_primary(tmp_path, mode="semi-sync")
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(10, seed=5))
        for shard in range(node.n_shards):
            assert node.durable_lsn(shard) == node.applied_lsn(shard)

    def test_async_follower_lags_on_durability(self, tmp_path, rng):
        primary = make_primary(tmp_path, shards=1, mode="async")
        node = attached_node(primary, tmp_path / "replica")
        primary.insert(1, make_box(rng))
        assert node.applied_lsn(0) == primary.next_lsns[0]
        assert node.durable_lsn(0) < node.applied_lsn(0)
        # An explicit follower sync catches durability up.
        node.handle({"kind": "sync"}, [])
        assert node.durable_lsn(0) == node.applied_lsn(0)

    def test_mode_switching(self, tmp_path, rng):
        primary = make_primary(tmp_path, shards=1, mode="async")
        node = attached_node(primary, tmp_path / "replica")
        primary.insert(1, make_box(rng))
        assert node.durable_lsn(0) < node.applied_lsn(0)
        primary.set_mode("semi-sync")
        assert primary.mode == "semi-sync"
        primary.insert(2, make_box(rng))
        assert node.durable_lsn(0) == node.applied_lsn(0)

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown replication mode"):
            make_primary(tmp_path, mode="telepathy")
        primary = make_primary(tmp_path)
        with pytest.raises(ValueError, match="unknown replication mode"):
            primary.set_mode("hope")

    def test_semi_sync_rejects_an_undurable_acknowledgement(self, tmp_path, rng):
        class UndurableTransport(InProcessTransport):
            """A follower whose fsync claims are doctored down."""

            def request(self, header, blobs=()):
                reply, reply_blobs = super().request(header, blobs)
                if header.get("kind") == "frames":
                    reply = dict(reply, durable_lsn=0)
                return reply, reply_blobs

        primary = make_primary(tmp_path, shards=1, mode="semi-sync")
        node = ReplicaNode(tmp_path / "replica")
        primary.attach_replica(UndurableTransport(node))
        with pytest.raises(ReplicationError, match="semi-sync follower acknowledged"):
            primary.insert(1, make_box(np.random.default_rng(0)))


# ----------------------------------------------------------------------
# Catch-up
# ----------------------------------------------------------------------
class TestCatchUp:
    def test_detached_follower_catches_up_on_reattach(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(20, seed=6))
        primary.detach_replicas()
        primary.bulk_load(make_pairs(20, seed=7, first_id=100))
        primary.delete(5)
        assert sweep(node.live_backend) != sweep(primary)
        primary.attach_replica(InProcessTransport(node))
        assert sweep(node.live_backend) == sweep(primary)
        primary.sync()
        for shard, path in enumerate(primary.wal_paths):
            assert (node.directory / path.name).read_bytes() == path.read_bytes()
            assert node.durable_lsn(shard) == primary.next_lsns[shard]

    def test_reattach_at_the_checkpoint_cut(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(15, seed=8))
        primary.detach_replicas()
        primary.checkpoint()  # resets the WALs exactly at the follower's lsn
        primary.insert(500, make_box(rng))
        primary.attach_replica(InProcessTransport(node))
        assert sweep(node.live_backend) == sweep(primary)

    def test_follower_behind_the_cut_must_rebootstrap(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.detach_replicas()
        primary.bulk_load(make_pairs(10, seed=9))  # follower misses these
        primary.checkpoint()  # ...and the cut moves past them
        with pytest.raises(ReplicationError, match="bootstrap a fresh replica directory"):
            primary.attach_replica(InProcessTransport(node))

    def test_follower_ahead_must_be_promoted(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(10, seed=10))
        snapshot = tmp_path / "old-primary"
        primary.sync()
        shutil.copytree(primary.wal_dir, snapshot)
        primary.bulk_load(make_pairs(5, seed=11, first_id=50))
        primary.detach_replicas()
        primary.close()
        # An older incarnation of the primary comes back without the last ops.
        old = ReplicatedBackend.recover(snapshot)
        with pytest.raises(ReplicationError, match="must be promoted"):
            old.attach_replica(InProcessTransport(node))

    def test_layout_mismatch_refused(self, tmp_path):
        primary = make_primary(tmp_path, shards=2)
        node = attached_node(primary, tmp_path / "replica")
        primary.detach_replicas()
        other = ReplicatedBackend.create(
            ShardedDatabase.create("ac", DIMENSIONS, shards=3), tmp_path / "wide"
        )
        with pytest.raises(ReplicationError, match="different shard layout"):
            other.attach_replica(InProcessTransport(node))

    def test_pending_follower_refused(self, tmp_path):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.detach_replicas()
        record = json.dumps({"gid": 999, "op": "bulk_load"}).encode("utf-8")
        node.handle({"kind": "pending_put"}, [record])
        with pytest.raises(ReplicationError, match="staged operation in flight"):
            primary.attach_replica(InProcessTransport(node))

    def test_duplicate_replica_name_refused(self, tmp_path):
        primary = make_primary(tmp_path)
        attached_node(primary, tmp_path / "replica-a")
        node = ReplicaNode(tmp_path / "replica-b")
        with pytest.raises(ReplicationError, match="already attached"):
            primary.attach_replica(InProcessTransport(node), name="replica-0")


# ----------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------
class TestPromotion:
    def test_promoted_replica_equals_the_lost_primary(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(30, seed=12))
        primary.delete(7)
        expected = sweep(primary)
        counters = primary.execute(HyperRectangle.unit(DIMENSIONS)).execution.core_counters()
        primary.detach_replicas()
        primary.close()
        node.close()
        assert is_replica_directory(node.directory)
        promoted = promote(node.directory)
        assert not is_replica_directory(node.directory)
        assert sweep(promoted) == expected
        # Byte-faithful cloning preserves the execution counters too.
        assert (
            promoted.execute(HyperRectangle.unit(DIMENSIONS)).execution.core_counters()
            == counters
        )
        # The promoted node is a full primary: it accepts writes and replicas.
        promoted.insert(999, make_box(rng))
        follower = attached_node(promoted, tmp_path / "second-generation")
        assert sweep(follower.live_backend) == sweep(promoted)

    def test_choose_promotion_target_prefers_highest_lsn(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        ahead = attached_node(primary, tmp_path / "ahead")
        primary.bulk_load(make_pairs(10, seed=13))
        primary.detach_replicas()
        behind = ReplicaNode(tmp_path / "behind")
        primary.attach_replica(InProcessTransport(behind))
        # `behind` bootstraps at the current state; now only `ahead` re-joins
        # for the last writes.
        primary.detach_replicas()
        primary.attach_replica(InProcessTransport(ahead))
        primary.insert(700, make_box(rng))
        primary.close()
        candidates = [
            tmp_path / "missing",
            tmp_path / "behind",
            tmp_path / "ahead",
        ]
        assert choose_promotion_target(candidates) == tmp_path / "ahead"
        assert sum(durable_lsns(tmp_path / "ahead")) > sum(durable_lsns(tmp_path / "behind"))

    def test_choose_promotion_target_with_no_candidates(self, tmp_path):
        with pytest.raises(ReplicationError, match="no promotable replica"):
            choose_promotion_target([tmp_path / "nothing", tmp_path / "here"])

    def test_promotion_is_restartable(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(12, seed=14))
        expected = sweep(primary)
        primary.detach_replicas()
        primary.close()
        node.close()
        first = promote(node.directory)
        first.close()
        # Promoting again (e.g. after a crash between marker removal and
        # the recovery checkpoint) lands on the identical state.
        second = promote(node.directory)
        assert sweep(second) == expected


# ----------------------------------------------------------------------
# Read routing
# ----------------------------------------------------------------------
class TestReadRouting:
    def test_reads_route_to_a_caught_up_replica(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(30, seed=15))
        primary.route_reads_to(node)
        expected = sweep(primary)
        # The replica's live shards actually serve: sabotage the primary's
        # own shards and the scatter still answers from the delegates.
        for shard in range(node.n_shards):
            assert node.read_backend(shard) is not None
        assert sweep(primary) == expected

    def test_lagging_replica_falls_back_to_the_primary(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.bulk_load(make_pairs(10, seed=16))
        primary.route_reads_to(node)
        primary.detach_replicas()  # the node stops receiving the stream
        primary.bulk_load(make_pairs(10, seed=17, first_id=100))
        # Replica is behind: reads must come from the primary (fresh ids
        # included), not the stale delegate.
        assert set(range(100, 110)) <= set(sweep(primary))

    def test_read_your_writes_through_churn(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = attached_node(primary, tmp_path / "replica")
        primary.route_reads_to(node)
        for object_id, box in make_pairs(25, seed=18):
            primary.insert(object_id, box)
            assert object_id in set(sweep(primary))  # immediately visible
        primary.delete(3)
        assert 3 not in set(sweep(primary))

    def test_routing_requires_a_sharded_inner(self, tmp_path):
        primary = ReplicatedBackend.create(
            create_backend("ac", DIMENSIONS), tmp_path / "plain"
        )
        node = attached_node(primary, tmp_path / "replica")
        with pytest.raises(ReplicationError, match="must be sharded"):
            primary.route_reads_to(node)


# ----------------------------------------------------------------------
# Socket deployment
# ----------------------------------------------------------------------
class TestSocketTransport:
    def test_full_lifecycle_over_tcp(self, tmp_path, rng):
        primary = make_primary(tmp_path)
        node = ReplicaNode(tmp_path / "replica")
        with ReplicaServer(node) as server:
            primary.attach_replica(SocketTransport(server.address))
            primary.bulk_load(make_pairs(20, seed=19))
            primary.delete(2)
            assert sweep(node.live_backend) == sweep(primary)
            expected = sweep(primary)
            primary.detach_replicas()
        primary.close()
        node.close()
        promoted = promote(node.directory)
        assert sweep(promoted) == expected

    def test_server_turns_node_errors_into_replies(self, tmp_path):
        primary = make_primary(tmp_path)
        node = ReplicaNode(tmp_path / "replica")
        with ReplicaServer(node) as server:
            primary.attach_replica(SocketTransport(server.address))
            # The server handles one connection at a time: release the
            # primary's before the second attach, or it waits for a timeout.
            primary.close()
            other = ReplicatedBackend.create(
                ShardedDatabase.create("ac", DIMENSIONS, shards=3), tmp_path / "other"
            )
            # The node refuses the mismatched stream; the error crosses the
            # wire as a reply and resurfaces as ReplicationError.
            with pytest.raises(ReplicationError, match="different shard layout"):
                other.attach_replica(SocketTransport(server.address))

    def test_lost_server_surfaces_as_replication_error(self, tmp_path):
        node = ReplicaNode(tmp_path / "replica")
        server = ReplicaServer(node).start()
        address = server.address
        server.stop()
        primary = make_primary(tmp_path)
        with pytest.raises(ReplicationError, match="replication transport failed"):
            primary.attach_replica(SocketTransport(address))

    def test_truncated_reply_surfaces_replication_error(self):
        """A peer dying mid-reply-frame yields ReplicationError — never a raw
        struct.error or ConnectionResetError — and drops the cached
        connection so the next request reconnects instead of reading
        garbage."""
        import socket
        import struct
        import threading

        with socket.create_server(("127.0.0.1", 0)) as listener:

            def half_reply():
                connection, _peer = listener.accept()
                with connection:
                    connection.recv(1 << 16)  # the request
                    # Promise a 100-byte message, deliver ten bytes, vanish.
                    connection.sendall(struct.pack("<I", 100) + b"z" * 10)

            thread = threading.Thread(target=half_reply, daemon=True)
            thread.start()
            transport = SocketTransport(listener.getsockname())
            with pytest.raises(ReplicationError):
                transport.request({"kind": "status"})
            # The desynchronised connection was dropped.
            assert transport._connection is None
            thread.join(timeout=10.0)

    def test_peer_vanishing_mid_frame_keeps_the_server_serving(self, tmp_path):
        """A client that dies mid-request-frame costs only its own
        connection: the server closes it and keeps serving followers."""
        import socket
        import struct

        primary = make_primary(tmp_path)
        node = ReplicaNode(tmp_path / "replica")
        with ReplicaServer(node) as server:
            rogue = socket.create_connection(server.address)
            try:
                rogue.settimeout(10.0)
                rogue.sendall(struct.pack("<I", 128) + b"x" * 30)
                rogue.shutdown(socket.SHUT_WR)
                assert rogue.recv(1) == b""  # dropped, no reply, no crash
            finally:
                rogue.close()
            primary.attach_replica(SocketTransport(server.address))
            primary.bulk_load(make_pairs(10, seed=31))
            assert sweep(node.live_backend) == sweep(primary)
            primary.detach_replicas()
        primary.close()
        node.close()
