"""Unit tests for the :class:`repro.api.Database` facade."""

import numpy as np
import pytest

from repro.api import (
    Database,
    DatabaseConfig,
    QueryResult,
    ReplicationOptions,
    UnsupportedOperation,
)
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.engine import StreamingConfig, StreamingMatcher
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.uniform import generate_uniform_dataset

DIMENSIONS = 4


def make_box(rng):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + 0.2, 1.0))


@pytest.fixture
def database(rng):
    database = Database.create("ac", DIMENSIONS)
    database.bulk_load((object_id, make_box(rng)) for object_id in range(200))
    return database


class TestConstruction:
    def test_create_by_any_registry_name(self):
        for name in ("ac", "SS", "rstar"):
            database = Database.create(name, DIMENSIONS)
            assert database.dimensions == DIMENSIONS
            assert database.n_objects == 0

    def test_rejects_non_backend(self):
        with pytest.raises(TypeError):
            Database(object())

    def test_from_dataset(self):
        dataset = generate_uniform_dataset(150, DIMENSIONS, seed=9)
        cost = CostParameters.memory_defaults(DIMENSIONS)
        database = Database.from_dataset("ss", dataset, cost=cost)
        assert database.n_objects == dataset.size
        assert database.capabilities.name == "ss"

    def test_create_with_config(self):
        config = AdaptiveClusteringConfig.for_memory(DIMENSIONS, division_factor=2)
        database = Database.create("ac", DIMENSIONS, config=config)
        assert database.backend.config.division_factor == 2


class TestDelegation:
    def test_lifecycle_and_queries(self, database, rng):
        everything = HyperRectangle.unit(DIMENSIONS)
        assert len(database) == 200
        assert 0 in database and 10_000 not in database
        assert database.n_groups >= 1

        result = database.execute(everything)
        assert isinstance(result, QueryResult)
        assert set(result.ids.tolist()) == set(range(200))

        batch = database.execute_batch([everything, everything])
        assert [sorted(r.ids.tolist()) for r in batch] == [sorted(result.ids.tolist())] * 2
        assert [ids.tolist() for ids in database.query_batch([everything])] == [
            database.query(everything).tolist()
        ]

        database.insert(500, make_box(rng))
        assert database.delete(500) is True
        assert database.delete_bulk([0, 1, 2]) == 3
        assert database.n_objects == 197

    def test_reorganize_delegates_capability_gate(self):
        adaptive = Database.create("ac", DIMENSIONS)
        assert adaptive.reorganize() is not None
        with pytest.raises(UnsupportedOperation):
            Database.create("rs", DIMENSIONS).reorganize()


class TestPersistence:
    def test_save_open_round_trip(self, database, tmp_path):
        path = database.save(tmp_path / "db.npz")
        recovered = Database.open(path)
        everything = HyperRectangle.unit(DIMENSIONS)
        assert sorted(recovered.query(everything).tolist()) == sorted(
            database.query(everything).tolist()
        )
        assert recovered.capabilities.supports_persistence

    def test_unsupported_backends_raise_before_touching_disk(self, tmp_path):
        for name in ("ss", "rs"):
            database = Database.create(name, DIMENSIONS)
            with pytest.raises(UnsupportedOperation):
                database.save(tmp_path / f"{name}.npz")
        assert list(tmp_path.iterdir()) == []


class TestStreamingSessions:
    def test_session_shares_the_backend(self, database, rng):
        session = database.session(
            StreamingConfig(max_batch_size=4, relation=SpatialRelation.CONTAINS)
        )
        assert isinstance(session, StreamingMatcher)
        assert session.backend is database.backend

        subscription = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5))
        session.register(10_000, subscription)
        assert 10_000 in database  # churn through the session is visible

        records = []
        for event_id in range(4):
            records.extend(
                session.publish(
                    event_id,
                    HyperRectangle.from_point(np.full(DIMENSIONS, 0.25)),
                )
            )
        assert len(records) == 4
        assert all(10_000 in record.matches for record in records)

    def test_multiple_sessions_serve_one_subscription_set(self, database):
        first = database.session()
        second = database.session()
        assert first is not second
        assert first.backend is second.backend


class TestDatabaseConfig:
    def test_defaults_describe_a_plain_backend(self):
        config = DatabaseConfig(dimensions=DIMENSIONS)
        assert not config.sharded and not config.logged
        database = Database.from_config(config)
        assert database.capabilities.name == "ac"
        assert database.dimensions == DIMENSIONS

    def test_method_sequence_implies_sharding(self):
        config = DatabaseConfig(method=("ac", "ss"), dimensions=DIMENSIONS)
        assert config.sharded
        database = Database.from_config(config)
        assert database.backend.n_shards == 2

    def test_shard_count_must_agree_with_method_names(self):
        with pytest.raises(ValueError, match="disagrees with 2 method names"):
            DatabaseConfig(method=("ac", "ss"), shards=3)
        with pytest.raises(ValueError, match="at least one shard"):
            DatabaseConfig(method=())
        with pytest.raises(ValueError, match="at least one shard"):
            DatabaseConfig(shards=0)

    def test_router_and_workers_apply_to_sharded_only(self):
        with pytest.raises(ValueError, match="sharded databases only"):
            DatabaseConfig(router="round-robin")

    def test_logging_needs_a_wal_dir(self):
        with pytest.raises(ValueError, match="requires a wal_dir"):
            DatabaseConfig(durable=True)
        with pytest.raises(ValueError, match="ships the write-ahead log"):
            DatabaseConfig(replication=ReplicationOptions())

    def test_replication_options_validate_role_mode_and_peers(self):
        with pytest.raises(ValueError, match="unknown replication role"):
            ReplicationOptions(role="observer")
        with pytest.raises(ValueError, match="unknown replication mode"):
            ReplicationOptions(mode="sync")
        with pytest.raises(ValueError, match="peers apply to the primary role"):
            ReplicationOptions(role="replica", peers=("db1:7000",))
        with pytest.raises(ValueError, match="is not a 'host:port' address"):
            ReplicationOptions(peers=("7000",))
        with pytest.raises(ValueError, match="non-numeric port"):
            ReplicationOptions(peers=("db1:wal",))
        options = ReplicationOptions(peers=("db1:7000", "10.0.0.2:7001"))
        assert options.parsed_peers() == (("db1", 7000), ("10.0.0.2", 7001))

    def test_as_dict_flattens_for_reporting(self, tmp_path):
        config = DatabaseConfig(
            method=("ac", "ac"),
            dimensions=DIMENSIONS,
            wal_dir=tmp_path / "wal",
            replication=ReplicationOptions(peers=("db1:7000",)),
        )
        summary = config.as_dict()
        assert summary["method"] == ["ac", "ac"]
        assert summary["wal_dir"] == str(tmp_path / "wal")
        assert summary["replication"] == {
            "role": "primary",
            "mode": "semi-sync",
            "peers": ["db1:7000"],
        }
        assert "shards" not in summary  # None entries are dropped

    def test_from_config_builds_a_durable_database(self, tmp_path, rng):
        config = DatabaseConfig(method="ac", dimensions=DIMENSIONS, wal_dir=tmp_path / "wal")
        database = Database.from_config(config)
        assert database.durable and not database.replicated
        database.insert(7, make_box(rng))
        recovered = Database.recover(tmp_path / "wal")
        assert 7 in recovered

    def test_from_config_builds_a_replicated_primary(self, tmp_path):
        config = DatabaseConfig(
            method="ac",
            dimensions=DIMENSIONS,
            wal_dir=tmp_path / "wal",
            replication=ReplicationOptions(),
        )
        database = Database.from_config(config)
        assert database.replicated and database.durable

    def test_from_config_rejects_the_replica_role(self, tmp_path):
        config = DatabaseConfig(
            method="ac",
            dimensions=DIMENSIONS,
            wal_dir=tmp_path / "wal",
            replication=ReplicationOptions(role="replica"),
        )
        with pytest.raises(ValueError, match="from_config builds primaries"):
            Database.from_config(config)

    def test_create_shim_matches_from_config(self):
        via_kwargs = Database.create("ac", DIMENSIONS, shards=2, router="spatial")
        via_config = Database.from_config(
            DatabaseConfig(method="ac", dimensions=DIMENSIONS, shards=2, router="spatial")
        )
        assert via_kwargs.backend.n_shards == via_config.backend.n_shards == 2

    def test_from_dataset_single_shard_stays_unsharded(self):
        dataset = generate_uniform_dataset(50, DIMENSIONS, seed=4)
        database = Database.from_dataset("ac", dataset, shards=1)
        assert database.capabilities.name == "ac"
        assert database.n_objects == 50


class TestAttach:
    def test_attach_plain_snapshot(self, database, tmp_path):
        path = database.save(tmp_path / "db.npz")
        attached = Database.attach(path)
        everything = HyperRectangle.unit(DIMENSIONS)
        assert sorted(attached.query(everything).tolist()) == sorted(
            database.query(everything).tolist()
        )

    def test_attach_sharded_snapshot(self, rng, tmp_path):
        database = Database.create("ac", DIMENSIONS, shards=2)
        database.bulk_load((object_id, make_box(rng)) for object_id in range(40))
        database.save(tmp_path / "sharded")
        attached = Database.attach(tmp_path / "sharded")
        assert attached.backend.n_shards == 2
        assert attached.n_objects == 40

    def test_attach_durable_directory(self, rng, tmp_path):
        database = Database.create("ac", DIMENSIONS, wal_dir=tmp_path / "wal")
        database.insert(11, make_box(rng))
        attached = Database.attach(tmp_path / "wal")
        assert attached.durable
        assert 11 in attached

    def test_attach_replica_directory_promotes(self, rng, tmp_path):
        from repro.api import InProcessTransport, ReplicaNode, is_replica_directory

        database = Database.from_config(
            DatabaseConfig(
                method="ac", dimensions=DIMENSIONS, wal_dir=tmp_path / "primary",
                replication=ReplicationOptions(),
            )
        )
        replica_dir = tmp_path / "replica"
        database.backend.attach_replica(InProcessTransport(ReplicaNode(replica_dir)))
        database.bulk_load((object_id, make_box(rng)) for object_id in range(20))
        database.backend.detach_replicas()
        assert is_replica_directory(replica_dir)

        promoted = Database.attach(replica_dir)
        assert promoted.replicated
        assert not is_replica_directory(replica_dir)
        assert sorted(promoted.query(HyperRectangle.unit(DIMENSIONS)).tolist()) == list(range(20))

    def test_attach_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no database at"):
            Database.attach(tmp_path / "nowhere")


class TestLifecycle:
    def test_context_manager_closes_the_whole_stack(self, rng, tmp_path):
        """`with Database(...)` tears down WAL handles and shard worker
        processes on exit; close() stays idempotent and re-entrant."""
        import os

        database = Database.create(
            "ac",
            DIMENSIONS,
            shards=2,
            execution="process",
            wal_dir=tmp_path / "wal",
        )
        with database:
            database.bulk_load((object_id, make_box(rng)) for object_id in range(40))
            pids = [shard.worker_pid for shard in database.backend.inner.shards]
            assert all(pid is not None for pid in pids)
            assert not database.closed
        assert database.closed
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        # close() after __exit__ is a no-op, not an error.
        database.close()
        database.close()
        # The WAL directory was finalized cleanly: attach recovers the data.
        attached = Database.attach(tmp_path / "wal")
        assert attached.n_objects == 40
        attached.close()

    def test_close_without_closable_backend_is_fine(self):
        database = Database.create("ac", DIMENSIONS)
        assert not database.closed
        database.close()
        assert database.closed
        database.close()
