"""Backend conformance suite: every registered backend, one contract.

Parametrised over the registry, so a backend added via
``register_backend`` is automatically held to the same contract as the
built-ins: full insert / delete / bulk lifecycle, ``execute_batch``
equivalent to a per-query loop, honest capability flags (advertised
operations work, unadvertised ones raise ``UnsupportedOperation``) and
no resurrected ``*_with_stats`` shims (removed after their deprecation
cycle; ``QueryResult`` unpacking covers the old call shape).

``ShardedDatabase`` satisfies the same protocol, so a matrix of sharded
variants — hash and spatial routers, 1/2/4 shards, homogeneous and mixed
member backends — runs through every case as well, and
``TestShardedEquivalence`` additionally pins sharding invisibility:
byte-identical ascending identifiers and exactly-summed work counters
versus the unsharded single-backend run, through churn (delete +
reinsert) and mid-batch reorganization.  ``DurableBackend`` wrappers
(WAL-logged plain and sharded stores, fresh and recovered from their paged
checkpoint) run through every case too — the durability layer must be
invisible to the protocol surface — as do
``ReplicatedBackend`` primaries streaming semi-sync to a live in-process
follower, pinning that replication never leaks into query results or
counters either.  ``proc:sharded:*`` variants run the same matrix with
``execution="process"``, so each shard lives in a worker process and the
executor must be protocol-invisible too.
"""

import copy
import itertools
import tempfile
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    COST_COUNTERS,
    Database,
    QueryResult,
    ShardedDatabase,
    SpatialBackend,
    UnsupportedOperation,
    backend_spec,
    create_backend,
    registered_backends,
)
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

DIMENSIONS = 5
RELATIONS = (
    SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINS,
    SpatialRelation.CONTAINED_BY,
)

#: Sharded conformance matrix: ``sharded:<router>:<methods, one per shard>``.
#: Covers both routers, 1/2/4 shards, and homogeneous + mixed backends.
SHARDED_VARIANTS = (
    "sharded:hash:ac",
    "sharded:hash:ac+ac",
    "sharded:spatial:ac+ac",
    "sharded:hash:ss+ss+ss+ss",
    "sharded:spatial:rs+rs+rs+rs",
    "sharded:hash:ac+rs",
    "sharded:spatial:ac+ss+rs",
)

#: Durable conformance variants: the WAL wrapper over a plain and a
#: sharded store must be protocol-invisible.
DURABLE_VARIANTS = (
    "durable:ac",
    "durable:sharded:spatial:ac+ac",
)

#: Replicated conformance variants: a primary with a live in-process
#: follower attached, so every mutation actually ships (semi-sync) while
#: the protocol surface stays indistinguishable from the plain backend.
REPLICATED_VARIANTS = (
    "replicated:ac",
    "replicated:sharded:hash:ac+ac",
)

#: Recovered conformance variants: a durable store closed and reopened by
#: ``DurableBackend.recover``, so every case runs against clusters served
#: lazily from the paged checkpoint rather than built in memory.
RECOVERED_VARIANTS = (
    "recovered:ac",
    "recovered:sharded:spatial:ac+ac",
)

#: Process-executor conformance variants: each shard hosted in a worker
#: process (``execution="process"``) must be indistinguishable from the
#: in-process thread executor, across both routers and mixed backends.
PROC_VARIANTS = (
    "proc:sharded:hash:ac+ac",
    "proc:sharded:spatial:ac+ss+rs",
)

ALL_BACKEND_NAMES = (
    tuple(registered_backends())
    + SHARDED_VARIANTS
    + DURABLE_VARIANTS
    + REPLICATED_VARIANTS
    + RECOVERED_VARIANTS
    + PROC_VARIANTS
)

#: One scratch root for every durable conformance store (cleaned at exit).
_DURABLE_SCRATCH = tempfile.TemporaryDirectory(prefix="repro-conformance-wal-")
_DURABLE_COUNTER = itertools.count()


def parse_sharded_name(name):
    """``"[proc:]sharded:hash:ac+rs"`` → ``("hash", ["ac", "rs"])``."""
    _, router, methods = name.removeprefix("proc:").split(":")
    return router, methods.split("+")


def close_backend(backend):
    """Release executor resources (worker processes, thread pools)."""
    closer = getattr(backend, "close", None)
    if callable(closer):
        closer()


def make_backend(name, dimensions=DIMENSIONS):
    """Build a registry backend or one of the conformance variants."""
    if name.startswith("replicated:"):
        from repro.api import InProcessTransport, ReplicaNode, ReplicatedBackend

        inner = make_backend(name.split(":", 1)[1], dimensions)
        store = Path(_DURABLE_SCRATCH.name) / f"repl-{next(_DURABLE_COUNTER)}"
        primary = ReplicatedBackend.create(inner, store / "primary")
        primary.attach_replica(InProcessTransport(ReplicaNode(store / "follower")))
        return primary
    if name.startswith("durable:"):
        from repro.api import DurableBackend

        inner = make_backend(name.split(":", 1)[1], dimensions)
        wal_dir = Path(_DURABLE_SCRATCH.name) / f"store-{next(_DURABLE_COUNTER)}"
        return DurableBackend.create(inner, wal_dir)
    if name.startswith("recovered:"):
        from repro.api import DurableBackend

        inner = make_backend(name.split(":", 1)[1], dimensions)
        wal_dir = Path(_DURABLE_SCRATCH.name) / f"recovered-{next(_DURABLE_COUNTER)}"
        DurableBackend.create(inner, wal_dir).close()
        return DurableBackend.recover(wal_dir)
    if name.startswith(("sharded:", "proc:sharded:")):
        router, methods = parse_sharded_name(name)
        execution = "process" if name.startswith("proc:") else "thread"
        return ShardedDatabase.create(methods, dimensions, router=router, execution=execution)
    return create_backend(name, dimensions)


def make_boxes(count, seed=0):
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(count):
        lows = rng.random(DIMENSIONS) * 0.7
        extents = rng.random(DIMENSIONS) * 0.25
        boxes.append(HyperRectangle(lows, np.minimum(lows + extents, 1.0)))
    return boxes


@pytest.fixture(params=ALL_BACKEND_NAMES)
def backend_name(request):
    return request.param


@pytest.fixture
def backend(backend_name):
    instance = make_backend(backend_name)
    yield instance
    close_backend(instance)


@pytest.fixture
def loaded_backend(backend):
    for object_id, box in enumerate(make_boxes(120, seed=1)):
        backend.insert(object_id, box)
    return backend


class TestProtocolSurface:
    def test_satisfies_protocol(self, backend):
        assert isinstance(backend, SpatialBackend)

    def test_capabilities_identity(self, backend, backend_name):
        if backend_name.startswith(("durable:", "recovered:", "replicated:")):
            # The durability wrapper adds no capabilities of its own: it
            # exposes the wrapped backend's descriptor untouched.
            assert backend.capabilities is backend.inner.capabilities
            assert backend.capabilities.supports_persistence is True
            return
        if backend_name.startswith(("sharded:", "proc:sharded:")):
            # Sharded capabilities are derived from the members: persistence
            # and bulk deletion need every shard, reorganization any shard,
            # and the composite populates the union of member counters.
            _, methods = parse_sharded_name(backend_name)
            members = [backend_spec(method).capabilities for method in methods]
            caps = backend.capabilities
            assert caps.name == "sharded[" + ",".join(m.name for m in members) + "]"
            assert caps.label == "SH"
            assert caps.supports_delete_bulk == all(m.supports_delete_bulk for m in members)
            assert caps.supports_persistence == all(m.supports_persistence for m in members)
            assert caps.supports_reorganization == any(
                m.supports_reorganization for m in members
            )
            assert set(caps.cost_counters) == {
                counter for m in members for counter in m.cost_counters
            }
            return
        spec = backend_spec(backend_name)
        assert backend.capabilities is spec.capabilities
        assert backend.capabilities.name == spec.name
        assert backend.capabilities.label == spec.label

    def test_empty_backend(self, backend):
        assert backend.n_objects == 0
        assert len(backend) == 0
        assert 0 not in backend
        assert backend.n_groups >= 0
        result = backend.execute(HyperRectangle.unit(DIMENSIONS))
        assert result.ids.size == 0

    def test_dimension_validation(self, backend):
        with pytest.raises(ValueError):
            backend.insert(0, HyperRectangle.unit(DIMENSIONS + 1))
        with pytest.raises(ValueError):
            backend.execute(HyperRectangle.unit(DIMENSIONS + 1))


class TestLifecycleRoundTrips:
    def test_insert_query_delete_round_trip(self, loaded_backend):
        everything = HyperRectangle.unit(DIMENSIONS)
        assert loaded_backend.n_objects == 120
        assert set(loaded_backend.query(everything).tolist()) == set(range(120))

        assert loaded_backend.delete(7) is True
        assert loaded_backend.delete(7) is False
        assert 7 not in loaded_backend
        assert set(loaded_backend.query(everything).tolist()) == (set(range(120)) - {7})

    def test_duplicate_insert_rejected(self, loaded_backend):
        with pytest.raises(KeyError):
            loaded_backend.insert(0, HyperRectangle.unit(DIMENSIONS))

    def test_bulk_load_round_trip(self, backend):
        pairs = list(enumerate(make_boxes(80, seed=2)))
        assert backend.bulk_load(pairs) == 80
        assert backend.n_objects == 80
        everything = HyperRectangle.unit(DIMENSIONS)
        assert set(backend.query(everything).tolist()) == set(range(80))

    def test_delete_bulk_round_trip(self, loaded_backend):
        doomed = [3, 11, 17, 42, 99, 100, 101]
        removed = loaded_backend.delete_bulk(doomed + [1_000, 2_000])
        assert removed == len(doomed)
        assert loaded_backend.n_objects == 120 - len(doomed)
        everything = HyperRectangle.unit(DIMENSIONS)
        assert set(loaded_backend.query(everything).tolist()) == (set(range(120)) - set(doomed))

    def test_delete_bulk_of_nothing(self, loaded_backend):
        assert loaded_backend.delete_bulk([]) == 0
        assert loaded_backend.delete_bulk([10_000]) == 0
        assert loaded_backend.n_objects == 120

    def test_delete_bulk_everything(self, loaded_backend):
        assert loaded_backend.delete_bulk(range(120)) == 120
        assert loaded_backend.n_objects == 0
        assert loaded_backend.query(HyperRectangle.unit(DIMENSIONS)).size == 0
        # The emptied backend accepts new objects.
        loaded_backend.insert(500, HyperRectangle.unit(DIMENSIONS))
        assert loaded_backend.query(HyperRectangle.unit(DIMENSIONS)).tolist() == [500]

    def test_delete_bulk_equals_delete_loop(self, backend_name):
        bulk = make_backend(backend_name)
        loop = make_backend(backend_name)
        try:
            pairs = list(enumerate(make_boxes(90, seed=3)))
            for object_id, box in pairs:
                bulk.insert(object_id, box)
                loop.insert(object_id, box)
            doomed = list(range(0, 90, 3))
            assert bulk.delete_bulk(doomed) == sum(
                1 for object_id in doomed if loop.delete(object_id)
            )
            for relation in RELATIONS:
                for query in make_boxes(15, seed=4):
                    assert sorted(bulk.query(query, relation).tolist()) == sorted(
                        loop.query(query, relation).tolist()
                    )
        finally:
            close_backend(bulk)
            close_backend(loop)


class TestExecutionEquivalence:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_batch_equals_per_query_loop(self, loaded_backend, relation):
        # Adaptive backends evolve with every executed query, so both
        # strategies run on identical deep copies of the loaded backend.
        queries = make_boxes(25, seed=5)
        batch_backend = copy.deepcopy(loaded_backend)
        loop_backend = copy.deepcopy(loaded_backend)
        batch = batch_backend.execute_batch(queries, relation)
        assert len(batch) == len(queries)
        for query, batch_result in zip(queries, batch):
            loop_result = loop_backend.execute(query, relation)
            assert np.array_equal(np.sort(batch_result.ids), np.sort(loop_result.ids))
            assert batch_result.execution.core_counters() == loop_result.execution.core_counters()

    def test_query_batch_strips_executions(self, loaded_backend):
        queries = make_boxes(10, seed=6)
        id_lists = loaded_backend.query_batch(queries)
        batch = loaded_backend.execute_batch(queries)
        for ids, result in zip(id_lists, batch):
            assert np.array_equal(np.sort(ids), np.sort(result.ids))

    def test_empty_batch(self, loaded_backend):
        assert loaded_backend.execute_batch([]) == []

    def test_query_result_shape(self, loaded_backend):
        result = loaded_backend.execute(HyperRectangle.unit(DIMENSIONS))
        assert isinstance(result, QueryResult)
        assert result.ids.dtype == np.int64
        assert len(result) == result.ids.size == result.execution.results
        # Tuple-compatibility with the deprecated API's return shape.
        ids, execution = result
        assert ids is result.ids and execution is result.execution
        assert np.array_equal(result.sorted_ids(), np.sort(result.ids))

    def test_only_advertised_counters_populated(self, loaded_backend):
        advertised = set(loaded_backend.capabilities.cost_counters)
        for relation in RELATIONS:
            for query in make_boxes(10, seed=7):
                counters = loaded_backend.execute(query, relation).execution
                populated = {name for name in COST_COUNTERS if getattr(counters, name)}
                assert populated <= advertised


class TestCapabilityHonesty:
    def test_reorganization_flag(self, loaded_backend):
        if loaded_backend.capabilities.supports_reorganization:
            report = loaded_backend.reorganize()
            assert report is not None
        else:
            with pytest.raises(UnsupportedOperation):
                loaded_backend.reorganize()

    def test_persistence_flag(self, loaded_backend, tmp_path):
        database = Database(loaded_backend)
        path = tmp_path / "snapshot.npz"
        if loaded_backend.capabilities.supports_persistence:
            database.save(path)
            recovered = Database.open(path)
            everything = HyperRectangle.unit(DIMENSIONS)
            assert sorted(recovered.query(everything).tolist()) == sorted(
                database.query(everything).tolist()
            )
            assert database.snapshot() is not None
        else:
            with pytest.raises(UnsupportedOperation):
                database.save(path)
            with pytest.raises(UnsupportedOperation):
                database.snapshot()
            with pytest.raises(UnsupportedOperation):
                loaded_backend.snapshot()
            assert not path.exists()

    def test_delete_bulk_flag(self, loaded_backend):
        # All built-ins advertise bulk deletion; the advertised operation
        # must actually work (exercised throughout this suite), and the
        # flag must match the declared capability descriptor.
        assert loaded_backend.capabilities.supports_delete_bulk is True


class TestRemovedShims:
    def test_with_stats_shims_are_gone(self, loaded_backend):
        # The deprecated tuple methods were removed after their deprecation
        # cycle; the public names must not resurface on any backend.
        assert not hasattr(loaded_backend, "query_with_stats")
        assert not hasattr(loaded_backend, "query_batch_with_stats")

    def test_query_result_unpacking_covers_the_old_call_shape(self, loaded_backend):
        # Old call sites migrated by unpacking QueryResult in place of the
        # removed tuple returns; both shapes must agree.
        query = HyperRectangle.unit(DIMENSIONS)
        ids, execution = loaded_backend.execute(query)
        result = loaded_backend.execute(query)
        assert np.array_equal(np.sort(ids), np.sort(result.ids))
        assert execution.results == result.execution.results
        for unpacked, result in zip(
            [tuple(item) for item in loaded_backend.execute_batch(make_boxes(5, seed=8))],
            loaded_backend.execute_batch(make_boxes(5, seed=8)),
        ):
            assert np.array_equal(np.sort(unpacked[0]), np.sort(result.ids))
            assert unpacked[1].results == result.execution.results


# ----------------------------------------------------------------------
# Sharding invisibility
# ----------------------------------------------------------------------
def summed_counters(results_per_shard, row):
    """Element-wise sum of the shards' counters for one query row."""
    total = QueryExecution()
    for shard_results in results_per_shard:
        total = total.merge(shard_results[row].execution)
    return total.core_counters()


def oracle_name(methods):
    """Single-backend comparator: the method itself when homogeneous, the
    exhaustive scan for mixed shards (all methods agree on results)."""
    return methods[0] if len(set(methods)) == 1 else "ss"


@pytest.fixture(params=SHARDED_VARIANTS)
def sharded_variant(request):
    return request.param


class TestShardedEquivalence:
    """Sharding is invisible: same ids, exactly accounted counters."""

    def test_matches_unsharded_run(self, sharded_variant):
        router, methods = parse_sharded_name(sharded_variant)
        sharded = make_backend(sharded_variant)
        unsharded = make_backend(oracle_name(methods))
        pairs = list(enumerate(make_boxes(150, seed=20)))
        sharded.bulk_load(pairs)
        unsharded.bulk_load(pairs)
        for relation in RELATIONS:
            queries = make_boxes(12, seed=21)
            for merged, single in zip(
                sharded.execute_batch(queries, relation),
                unsharded.execute_batch(queries, relation),
            ):
                # Byte-identical ascending identifiers, and the summed
                # `results` counter agrees with the single-backend run.
                assert merged.ids.tobytes() == np.sort(single.ids).tobytes()
                assert merged.execution.results == single.execution.results

    def test_counters_sum_over_shards(self, sharded_variant):
        """Scatter-gather accounting is exact: the merged counters equal the
        element-wise sum of the same workload run on each shard alone."""
        sharded = make_backend(sharded_variant)
        sharded.bulk_load(list(enumerate(make_boxes(150, seed=20))))
        mirrors = [copy.deepcopy(shard) for shard in sharded.shards]
        queries = make_boxes(15, seed=22)
        merged_results = sharded.execute_batch(queries)
        per_shard = [mirror.execute_batch(queries) for mirror in mirrors]
        for row, merged in enumerate(merged_results):
            assert merged.execution.core_counters() == summed_counters(per_shard, row)
            shard_ids = np.concatenate([shard[row].ids for shard in per_shard])
            assert np.array_equal(merged.ids, np.sort(shard_ids))

    def test_batch_equals_per_query_loop_on_sharded(self, sharded_variant):
        """The batch path over shards is invisible, counters included."""
        sharded = make_backend(sharded_variant)
        sharded.bulk_load(list(enumerate(make_boxes(150, seed=20))))
        queries = make_boxes(20, seed=23)
        batch_db = copy.deepcopy(sharded)
        loop_db = copy.deepcopy(sharded)
        for query, merged in zip(queries, batch_db.execute_batch(queries)):
            single = loop_db.execute(query)
            assert merged.ids.tobytes() == single.ids.tobytes()
            assert merged.execution.core_counters() == single.execution.core_counters()

    def test_churn_stays_equivalent(self, sharded_variant):
        """Delete + reinsert churn: sharded and unsharded never diverge."""
        _, methods = parse_sharded_name(sharded_variant)
        sharded = make_backend(sharded_variant)
        unsharded = make_backend(oracle_name(methods))
        boxes = make_boxes(150, seed=24)
        pairs = list(enumerate(boxes))
        sharded.bulk_load(pairs)
        unsharded.bulk_load(pairs)
        rng = np.random.default_rng(25)
        queries = make_boxes(6, seed=26)
        for round_index in range(4):
            doomed = rng.choice(150, size=25, replace=False).tolist()
            assert sharded.delete_bulk(doomed) == unsharded.delete_bulk(doomed)
            reborn = doomed[: 12 + round_index]
            for object_id in reborn:
                sharded.insert(object_id, boxes[object_id])
                unsharded.insert(object_id, boxes[object_id])
            assert sharded.n_objects == unsharded.n_objects
            for merged, single in zip(
                sharded.execute_batch(queries), unsharded.execute_batch(queries)
            ):
                assert merged.ids.tobytes() == np.sort(single.ids).tobytes()
            missing = [object_id for object_id in doomed if object_id not in reborn]
            for object_id in missing:
                sharded.insert(object_id, boxes[object_id])
                unsharded.insert(object_id, boxes[object_id])

    def test_mid_batch_reorganization(self, sharded_variant):
        """A batch spanning automatic reorganizations stays invisible."""
        router, methods = parse_sharded_name(sharded_variant)
        if not any(
            backend_spec(method).capabilities.supports_reorganization
            for method in methods
        ):
            pytest.skip("no adaptive shard to reorganize")
        from repro.core.config import AdaptiveClusteringConfig
        from repro.core.cost_model import CostParameters

        config = AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(DIMENSIONS),
            reorganization_period=10,
        )

        def build(methods_list):
            backends = [
                create_backend(
                    method,
                    DIMENSIONS,
                    config=config if method == "ac" else None,
                )
                for method in methods_list
            ]
            return backends

        sharded = ShardedDatabase(build(methods), router=router)
        unsharded = (
            build([methods[0]])[0] if len(set(methods)) == 1 else create_backend("ss", DIMENSIONS)
        )
        pairs = list(enumerate(make_boxes(150, seed=27)))
        sharded.bulk_load(pairs)
        unsharded.bulk_load(pairs)
        # 35 queries over period-10 shards: at least three reorganizations
        # fire inside the batch on every adaptive shard.
        queries = make_boxes(35, seed=28)
        loop_mirror = copy.deepcopy(sharded)
        batch = sharded.execute_batch(queries)
        for query, merged, single in zip(
            queries, batch, unsharded.execute_batch(queries)
        ):
            looped = loop_mirror.execute(query)
            assert merged.ids.tobytes() == np.sort(single.ids).tobytes()
            assert merged.ids.tobytes() == looped.ids.tobytes()
            assert merged.execution.core_counters() == looped.execution.core_counters()
        if any(method == "ac" for method in methods):
            adaptive_shards = [
                shard
                for shard in sharded.shards
                if shard.capabilities.supports_reorganization
            ]
            assert all(shard.reorganization_count >= 3 for shard in adaptive_shards)
