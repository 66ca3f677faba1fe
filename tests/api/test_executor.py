"""Lifecycle and fault-injection tests for :class:`ProcessShardExecutor`.

The executor's crash contract: a worker found dead at request time fails
*that request only* with a structured :class:`WorkerCrashError` naming
the shard and operation, leaves no trace of the failed request on any
shard, and the next request restarts the worker from ``baseline +
oplog``.  ``test_kill_worker_at_every_request_index`` enumerates a
worker kill before every fan-out request in a fixed script and pins the
survivors byte-identical to an untouched thread-mode oracle.  Running it
at fold thresholds 1, 2 and 3 lands the kills before, on and after the
worker-side folds into new state-file generations.
"""

import gc
import os
import signal
import time
from copy import deepcopy
from pathlib import Path

import numpy as np
import pytest

from repro.api import ShardedDatabase, SpatialBackend, WorkerCrashError, create_backend
from repro.api import executor as executor_module
from repro.api.executor import START_METHOD_ENV, ProcessShardExecutor
from repro.geometry.box import HyperRectangle

DIMENSIONS = 3
N_SHARDS = 2


@pytest.fixture
def fold_every_two(monkeypatch):
    """Fold each shard's log into a new state file every two operations."""
    monkeypatch.setattr(executor_module, "_COMPACT_THRESHOLD", 2)


def make_boxes(count, seed=0):
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(count):
        lows = rng.random(DIMENSIONS) * 0.7
        extents = rng.random(DIMENSIONS) * 0.25
        boxes.append(HyperRectangle(lows, np.minimum(lows + extents, 1.0)))
    return boxes


def make_pair():
    """A process-backed database plus a thread-mode oracle, identically loaded."""
    process_db = ShardedDatabase.create(
        ["ac"] * N_SHARDS, DIMENSIONS, router="hash", execution="process"
    )
    oracle = ShardedDatabase.create(
        ["ac"] * N_SHARDS, DIMENSIONS, router="hash", execution="thread"
    )
    pairs = list(enumerate(make_boxes(100, seed=1)))
    process_db.bulk_load(pairs)
    oracle.bulk_load(pairs)
    return process_db, oracle


def kill_worker(database, shard):
    """SIGKILL shard *shard*'s worker and wait until it is observably dead."""
    pid = database.shards[shard].worker_pid
    assert pid is not None, "worker must be running before it can be killed"
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 10.0
    while database.shards[shard].worker_pid is not None:
        assert time.monotonic() < deadline, "killed worker never became dead"
        time.sleep(0.01)
    return pid


def run_step(database, step):
    """Run one script step; returns comparable bytes + counters."""
    kind = payload = None
    kind, payload = step
    if kind == "query":
        result = database.execute(payload)
        return [(result.ids.tobytes(), result.execution.core_counters())]
    batch = database.execute_batch(payload)
    return [(result.ids.tobytes(), result.execution.core_counters()) for result in batch]


#: Fan-out request script: five single queries and one batch, so the kill
#: enumeration covers both shared-memory operations.
def make_script():
    queries = make_boxes(5, seed=2)
    steps = [("query", query) for query in queries]
    steps.insert(3, ("batch", make_boxes(4, seed=3)))
    return steps


def executor_of(database):
    return database._process_executor


def state_files(database):
    """Names of the state files in the database's spill directory."""
    return sorted(path.name for path in executor_of(database)._spill_dir.iterdir())


def churn(database, oracle, seed):
    """Queries, batches, inserts and deletes on both; answers must agree."""
    for step, query in enumerate(make_boxes(10, seed=seed)):
        assert run_step(database, ("query", query)) == run_step(oracle, ("query", query))
        if step % 3 == 0:
            batch = ("batch", make_boxes(3, seed=seed * 100 + step))
            assert run_step(database, batch) == run_step(oracle, batch)
        if step % 3 == 1:
            box = make_boxes(1, seed=seed * 100 + step)[0]
            database.insert(seed * 1_000 + step, box)
            oracle.insert(seed * 1_000 + step, box)
        if step % 4 == 2:
            assert database.delete(seed * 7 + step) is oracle.delete(seed * 7 + step)


def answers(backend, seed):
    """Ids plus core counters of a few queries run on *backend*."""
    return [run_step(backend, ("query", query)) for query in make_boxes(4, seed=seed)]


class TestKillEnumeration:
    @pytest.mark.parametrize("kill_index", range(6))
    @pytest.mark.parametrize("threshold", [1, 2, 3, 64])
    def test_kill_worker_at_every_request_index(self, kill_index, threshold, monkeypatch):
        """Killing a worker before request *k* fails request *k* only.

        The failed request names the dead shard, leaves no trace, and
        every other request in the script stays byte-identical to the
        thread-mode oracle — including the retried request *k* itself,
        served by the restarted worker.  Small fold thresholds put folds
        (and restarts from a worker-written state file) inside the script.
        """
        monkeypatch.setattr(executor_module, "_COMPACT_THRESHOLD", threshold)
        script = make_script()
        victim = kill_index % N_SHARDS
        database, oracle = make_pair()
        try:
            for index, step in enumerate(script):
                if index == kill_index:
                    killed_pid = kill_worker(database, victim)
                    with pytest.raises(WorkerCrashError) as crash:
                        run_step(database, step)
                    assert crash.value.shard == victim
                    assert f"shard {victim}" in str(crash.value)
                    # The retried request is served by a fresh worker and
                    # is indistinguishable from the oracle's run: the
                    # failed request left no trace on any shard.
                    assert run_step(database, step) == run_step(oracle, step)
                    assert database.shards[victim].worker_pid not in (None, killed_pid)
                else:
                    assert run_step(database, step) == run_step(oracle, step)
                if index == 1:
                    box = make_boxes(1, seed=4)[0]
                    database.insert(1_000, box)
                    oracle.insert(1_000, box)
                if index == 4:
                    assert database.delete(7) is oracle.delete(7) is True
            assert database.n_objects == oracle.n_objects
        finally:
            database.close()
            oracle.close()

    def test_dead_worker_fails_logged_operation_and_rolls_back(self):
        """A mutation sent to a dead worker errors cleanly and is undone."""
        database, oracle = make_pair()
        try:
            victim = 0
            before = database.shards[victim].n_objects
            kill_worker(database, victim)
            with pytest.raises(WorkerCrashError) as crash:
                database.shards[victim].insert(2_000, make_boxes(1, seed=5)[0])
            assert crash.value.shard == victim
            assert crash.value.operation == "insert"
            # The restarted worker reconstructs the pre-failure state.
            assert database.shards[victim].n_objects == before
            assert 2_000 not in database.shards[victim]
            everything = HyperRectangle.unit(DIMENSIONS)
            assert (
                database.execute(everything).ids.tobytes()
                == oracle.execute(everything).ids.tobytes()
            )
        finally:
            database.close()
            oracle.close()

    def test_kill_during_checkpoint(self, fold_every_two, monkeypatch, tmp_path):
        """A worker dying mid-checkpoint fails neither the triggering
        request nor any later one, and its partial state file is never used.

        The first checkpoint any worker runs writes half a file and
        SIGKILLs its own process; later checkpoints (restarted workers
        included) write normally.
        """
        monkeypatch.setenv(START_METHOD_ENV, "fork")  # workers inherit the patch
        parent = os.getpid()
        crashed = tmp_path / "crashed"
        write_state = executor_module._write_state

        def dying_write_state(path, backend):
            if os.getpid() != parent and not crashed.exists():
                crashed.touch()
                with open(path, "wb") as handle:
                    handle.write(b"partial")
                os.kill(os.getpid(), signal.SIGKILL)
            write_state(path, backend)

        monkeypatch.setattr(executor_module, "_write_state", dying_write_state)
        database, oracle = make_pair()  # bulk_load: one logged operation per shard
        try:
            query = make_boxes(1, seed=9)[0]
            # The second logged operation folds: shard 0's worker dies while
            # checkpointing, yet the query itself is answered.
            assert run_step(database, ("query", query)) == run_step(oracle, ("query", query))
            assert crashed.exists()
            assert database.shards[0].worker_pid is None
            assert state_files(database) == ["shard-0-0.state", "shard-1-1.state"]
            # Shard 0 restarts from generation 0 plus the full log.
            churn(database, oracle, seed=10)
            assert database.n_objects == oracle.n_objects
            assert [name.split("-")[1] for name in state_files(database)] == ["0", "1"]
        finally:
            database.close()
            oracle.close()


class TestFolds:
    """Worker-written state files round-trip to the thread-mode oracle."""

    def test_deepcopy_equals_oracle_after_folds(self, fold_every_two):
        database, oracle = make_pair()
        try:
            churn(database, oracle, seed=11)
            clone, oracle_clone = deepcopy(database), deepcopy(oracle)
            try:
                assert answers(clone, seed=12) == answers(oracle_clone, seed=12)
            finally:
                clone.close()
                oracle_clone.close()
            # Copying left the original serving the same state.
            assert answers(database, seed=13) == answers(oracle, seed=13)
        finally:
            database.close()
            oracle.close()

    def test_materialize_equals_oracle_shards(self, fold_every_two):
        database, oracle = make_pair()
        try:
            churn(database, oracle, seed=14)
            for index in range(N_SHARDS):
                local = executor_of(database).materialize(index)
                expected = deepcopy(oracle.shards[index])
                assert not isinstance(local, executor_module.ProcessShardProxy)
                assert local.n_objects == expected.n_objects
                assert answers(local, seed=15) == answers(expected, seed=15)
            assert answers(database, seed=16) == answers(oracle, seed=16)
        finally:
            database.close()
            oracle.close()

    def test_migrate_shard_equals_oracle(self, fold_every_two):
        database, oracle = make_pair()
        try:
            churn(database, oracle, seed=17)
            old, old_oracle = database.migrate_shard(0, "ac"), oracle.migrate_shard(0, "ac")
            assert answers(old, seed=18) == answers(old_oracle, seed=18)
            churn(database, oracle, seed=19)
            assert database.n_objects == oracle.n_objects
        finally:
            database.close()
            oracle.close()

    def test_one_state_file_per_shard(self, fold_every_two):
        database, oracle = make_pair()
        try:
            for seed in range(20, 24):
                churn(database, oracle, seed=seed)
            assert [name.split("-")[1] for name in state_files(database)] == ["0", "1"]
            for slot in executor_of(database)._slots:
                assert slot.generation > 5
                assert slot.baseline.name.endswith(f"-{slot.generation}.state")
                assert len(slot.oplog) < 2
        finally:
            database.close()
            oracle.close()

    def test_executor_holds_no_backend(self):
        backends = [create_backend("ac", DIMENSIONS) for _ in range(N_SHARDS)]
        executor = ProcessShardExecutor(backends)
        try:
            for proxy, (object_id, box) in zip(executor.proxies, enumerate(make_boxes(2))):
                proxy.insert(object_id, box)
            held = list(vars(executor).values())
            for slot in executor._slots:
                assert isinstance(slot.baseline, Path)
                held.extend(vars(slot).values())
            for proxy in executor.proxies:
                held.extend(vars(proxy).values())
            assert not any(isinstance(value, SpatialBackend) for value in held)
        finally:
            executor.close()

    def test_close_removes_spill_directory(self):
        database, oracle = make_pair()
        oracle.close()
        spill = executor_of(database)._spill_dir
        assert spill.is_dir()
        database.close()
        assert not spill.exists()

    def test_garbage_collection_removes_spill_directory(self):
        executor = ProcessShardExecutor([create_backend("ac", DIMENSIONS) for _ in range(N_SHARDS)])
        executor.proxies[0].insert(1, make_boxes(1)[0])  # spawns a worker
        spill = executor._spill_dir
        assert spill.is_dir()
        del executor
        gc.collect()
        assert not spill.exists()


class TestLifecycle:
    def test_workers_spawn_on_first_use(self):
        database = ShardedDatabase.create(
            ["ac"] * N_SHARDS, DIMENSIONS, router="hash", execution="process"
        )
        try:
            assert database.execution == "process"
            assert all(shard.worker_pid is None for shard in database.shards)
            database.bulk_load(list(enumerate(make_boxes(20, seed=6))))
            pids = [shard.worker_pid for shard in database.shards]
            assert all(pid is not None and pid != os.getpid() for pid in pids)
            assert len(set(pids)) == N_SHARDS
        finally:
            database.close()

    def test_close_joins_workers_and_is_idempotent(self):
        database, oracle = make_pair()
        oracle.close()
        pids = [shard.worker_pid for shard in database.shards]
        assert all(pid is not None for pid in pids)
        database.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert all(shard.worker_pid is None for shard in database.shards)
        database.close()  # idempotent

    def test_request_after_close_raises(self):
        database, oracle = make_pair()
        oracle.close()
        database.close()
        with pytest.raises(RuntimeError):
            database.execute(HyperRectangle.unit(DIMENSIONS))

    def test_deepcopy_materializes_to_thread_mode(self):
        database, oracle = make_pair()
        try:
            everything = HyperRectangle.unit(DIMENSIONS)
            database.execute(everything)
            oracle.execute(everything)
            clone = deepcopy(database)
            try:
                assert clone.execution == "thread"
                query = make_boxes(1, seed=7)[0]
                assert (
                    clone.execute(query).ids.tobytes()
                    == oracle.execute(query).ids.tobytes()
                )
            finally:
                clone.close()
            # The original keeps serving through its workers.
            assert database.execute(everything).ids.size == database.n_objects
        finally:
            database.close()
            oracle.close()
