"""End-to-end tests of the TCP serving front door (`repro.api.server`).

The acceptance path: a remote client drives a process-backed, sharded,
durable database over TCP and gets byte-identical results — ascending
identifier bytes and exactly-summed work counters — versus a local
thread-mode run of the same workload.  Fault coverage pins the failure
discipline: request failures become structured error replies on a still
serving connection, while an undecodable frame (truncated mid-frame,
checksum mismatch) tears down that one connection and surfaces to the
client as :class:`ServingError`, never a raw ``struct.error`` or
``ConnectionResetError``.
"""

import os
import socket
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Database,
    DurableBackend,
    RemoteDatabase,
    ServingError,
    ShardedDatabase,
    serve_in_thread,
)
from repro.api.server import SERVING_FORMAT_VERSION, _SERVING, decode_payload, encode_frame
from repro.geometry.box import HyperRectangle
from repro.wire import recv_frame

DIMENSIONS = 4


def _recv_frame(connection):
    return decode_payload(recv_frame(connection, _SERVING))


def make_box(rng, extent=0.25):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + extent, 1.0))


def make_pairs(count, seed=0):
    rng = np.random.default_rng(seed)
    return [(object_id, make_box(rng)) for object_id in range(count)]


@pytest.fixture
def served(tmp_path):
    """A process-backed sharded durable database behind TCP, plus a
    thread-mode oracle loaded with the identical objects."""
    sharded = ShardedDatabase.create(
        ["ac", "ac"], DIMENSIONS, router="hash", execution="process"
    )
    database = Database(DurableBackend.create(sharded, tmp_path / "wal"))
    database.bulk_load(make_pairs(150, seed=1))
    oracle = ShardedDatabase.create(["ac", "ac"], DIMENSIONS, router="hash")
    oracle.bulk_load(make_pairs(150, seed=1))
    handle = serve_in_thread(database)
    try:
        yield handle, oracle
    finally:
        handle.stop()
        database.close()
        oracle.close()


class TestRemoteRoundTrip:
    def test_queries_byte_identical_including_counters(self, served):
        handle, oracle = served
        rng = np.random.default_rng(2)
        queries = [make_box(rng) for _ in range(12)]
        with RemoteDatabase(handle.address) as remote:
            for query in queries:
                got = remote.query(query)
                want = oracle.execute(query)
                assert got.ids.tobytes() == want.ids.tobytes()
                assert got.execution.core_counters() == want.execution.core_counters()

    def test_batch_round_trip(self, served):
        handle, oracle = served
        rng = np.random.default_rng(3)
        queries = [make_box(rng) for _ in range(8)]
        with RemoteDatabase(handle.address) as remote:
            results = remote.query_batch(queries, "contains")
        for got, want in zip(results, oracle.execute_batch(queries, "contains")):
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.execution.core_counters() == want.execution.core_counters()
        assert remote.query_batch([]) == []

    def test_publish_subscribe_round_trip(self, served):
        handle, _ = served
        subscription = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5))
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.25))
        with RemoteDatabase(handle.address) as remote:
            remote.subscribe(10_000, subscription)
            first = remote.publish(1, inside)
            remote.unsubscribe(10_000)
            second = remote.publish(2, inside)
        assert 10_000 in first.matches
        assert 10_000 not in second.matches
        assert first.event_id == 1 and second.event_id == 2
        stats = handle.serving_stats
        assert stats.publishes == 2 and stats.subscribes == 1 and stats.unsubscribes == 1

    def test_stats_op(self, served):
        handle, _ = served
        with RemoteDatabase(handle.address) as remote:
            remote.query(HyperRectangle.unit(DIMENSIONS))
            info = remote.stats()
        assert info["dimensions"] == DIMENSIONS
        assert info["format_version"] == SERVING_FORMAT_VERSION == 2
        assert info["serving"]["queries"] >= 1

    def test_json_box_payload(self, served):
        """Boxes may travel as JSON in the header instead of a binary blob."""
        handle, oracle = served
        query = make_box(np.random.default_rng(4))
        header = {"op": "query", "boxes": [[query.lows.tolist(), query.highs.tolist()]]}
        with socket.create_connection(handle.address) as connection:
            connection.sendall(encode_frame(header))
            reply, blobs = _recv_frame(connection)
        assert reply["ok"] is True
        ids = np.frombuffer(blobs[0], dtype=np.int64)
        assert ids.tobytes() == oracle.execute(query).ids.tobytes()


class TestFailureDiscipline:
    def test_request_error_keeps_the_connection_serving(self, served):
        handle, _ = served
        with RemoteDatabase(handle.address) as remote:
            with pytest.raises(ServingError, match="ValueError"):
                remote.query(HyperRectangle.unit(DIMENSIONS + 2))
            # Same connection, next request: served normally.
            assert remote.query(HyperRectangle.unit(DIMENSIONS)).ids.size == 150

    def test_nan_box_gets_error_reply_and_connection_keeps_serving(self, served):
        handle, _ = served
        table = np.array([[0.1, 0.1, 0.1, 0.1, 0.5, np.nan, 0.5, 0.5]])
        header = {"op": "subscribe", "subscription_id": 10_000, "count": 1, "dimensions": 4}
        with socket.create_connection(handle.address) as connection:
            connection.sendall(encode_frame(header, [table.tobytes()]))
            reply, _blobs = _recv_frame(connection)
            assert reply["ok"] is False
            assert reply["error"] == "ValueError"
            assert "NaN coordinate in dimension 1" in reply["message"]
            connection.sendall(encode_frame({"op": "stats"}))
            again, _blobs = _recv_frame(connection)
            assert again["ok"] is True
            assert again["serving"]["subscribes"] == 0

    def test_unknown_op_gets_structured_error_reply(self, served):
        handle, _ = served
        with socket.create_connection(handle.address) as connection:
            connection.sendall(encode_frame({"op": "never-heard-of-it"}))
            header, _blobs = _recv_frame(connection)
            assert header["ok"] is False
            assert header["error"] == "ValueError"
            assert "unknown serving op" in header["message"]
            connection.sendall(encode_frame({"op": "stats"}))
            again, _blobs = _recv_frame(connection)
            assert again["ok"] is True

    def test_truncated_request_tears_down_only_that_connection(self, served):
        handle, _ = served
        with RemoteDatabase(handle.address) as healthy:
            baseline = healthy.query(HyperRectangle.unit(DIMENSIONS))
            rogue = socket.create_connection(handle.address)
            try:
                rogue.settimeout(10.0)
                # Declare an 80-byte payload, deliver half of it, vanish.
                rogue.sendall(struct.pack("<II", 80, 0) + b"x" * 40)
                rogue.shutdown(socket.SHUT_WR)
                assert rogue.recv(1) == b""  # server closed the rogue peer
            finally:
                rogue.close()
            again = healthy.query(HyperRectangle.unit(DIMENSIONS))
            assert again.ids.tobytes() == baseline.ids.tobytes()

    def test_checksum_mismatch_closes_the_connection(self, served):
        handle, _ = served
        payload = encode_frame({"op": "stats"})[8:]
        with socket.create_connection(handle.address) as connection:
            connection.settimeout(10.0)
            connection.sendall(struct.pack("<II", len(payload), 0xDEADBEEF) + payload)
            assert connection.recv(1) == b""

    def test_truncated_reply_surfaces_serving_error(self):
        """A peer that dies mid-reply-frame yields ServingError, never a raw
        struct.error or ConnectionResetError."""
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def half_reply():
                connection, _peer = listener.accept()
                with connection:
                    _recv_frame(connection)  # consume the full request
                    connection.sendall(struct.pack("<II", 64, 0) + b"y" * 10)

            thread = threading.Thread(target=half_reply, daemon=True)
            thread.start()
            with RemoteDatabase(listener.getsockname()) as remote:
                with pytest.raises(ServingError, match="truncated serving frame"):
                    remote.stats()
            thread.join(timeout=10.0)

    def test_malformed_packed_reply_surfaces_serving_error(self):
        """A query reply whose packed arrays disagree with its count is
        refused, never turned into results."""
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def short_reply():
                connection, _peer = listener.accept()
                with connection:
                    _recv_frame(connection)
                    offsets = np.array([0, 1], dtype=np.int64)  # one query, not two
                    blobs = [np.arange(1, dtype=np.int64).tobytes(), offsets.tobytes(), b"", b""]
                    connection.sendall(encode_frame({"ok": True, "count": 2}, blobs))

            thread = threading.Thread(target=short_reply, daemon=True)
            thread.start()
            with RemoteDatabase(listener.getsockname()) as remote:
                with pytest.raises(ServingError, match="malformed serving reply"):
                    remote.query_batch([HyperRectangle.unit(DIMENSIONS)] * 2)
            thread.join(timeout=10.0)

    def test_peer_close_between_frames_surfaces_serving_error(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def close_after_request():
                connection, _peer = listener.accept()
                with connection:
                    _recv_frame(connection)

            thread = threading.Thread(target=close_after_request, daemon=True)
            thread.start()
            with RemoteDatabase(listener.getsockname()) as remote:
                with pytest.raises(ServingError, match="mid-request"):
                    remote.stats()
            thread.join(timeout=10.0)


CLI_BOOTSTRAP = "import sys; from repro.cli import main; sys.exit(main(sys.argv[1:]))"


class TestServeCommand:
    def test_cli_serve_round_trip(self):
        """`repro serve` hosts a process-backed database a remote client can
        drive, and shuts down cleanly on SIGINT."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
        process = subprocess.Popen(
            [
                sys.executable, "-u", "-c", CLI_BOOTSTRAP,
                "serve", "--method", "ac", "--shards", "2",
                "--execution", "process", "--objects", "300",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            line = process.stdout.readline().strip()
            assert line.startswith("serving on "), line
            host, _, port = line.removeprefix("serving on ").rpartition(":")
            with RemoteDatabase((host, int(port))) as remote:
                info = remote.stats()
                assert info["dimensions"] == 2
                result = remote.query(HyperRectangle.unit(2))
                assert result.ids.size == 300
                assert np.array_equal(result.ids, np.arange(300, dtype=np.int64))
        finally:
            process.send_signal(subprocess.signal.SIGINT)
            try:
                assert process.wait(timeout=30) == 0
            except subprocess.TimeoutExpired:
                process.kill()
                raise
