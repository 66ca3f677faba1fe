"""Sharded scatter-gather engine: throughput and equivalence gates.

Two claims are gated on the fig-7 workload (uniform 16-dimensional
objects, 1% selectivity):

* **invisibility** — the merged scatter-gather results are byte-identical
  to the unsharded index (ascending identifiers), and the merged work
  counters are exactly the element-wise sum of what the shards report when
  run independently;
* **throughput** — at the benchmark's default scale (20k objects) and on
  multi-core hardware, the faster of two 2-shard scatter-gather
  ``execute_batch`` rows must beat the single unsharded index by at least
  1.5x: serial in-process shards, and ``execution="process"`` shards (one
  worker per shard, spawned before the timer, all reading one
  shared-memory query table).  On a 2-core host three runs read
  unsharded 0.26–0.31 s, serial 0.29–0.31 s (0.89–1.08x) and process
  0.24–0.42 s (0.75–1.27x), so the gate is red there.  Steady-state total
  work is conserved by partitioning, so a single-core host cannot express
  the parallel win — there the gate asserts scatter-gather overhead stays
  bounded (>= 0.9x) instead, and the report records the core count.  At
  reduced smoke scale (``REPRO_BENCH_SCALE``) databases are too small for
  stable ratios and only equivalence plus a coarse overhead bound are
  asserted.
"""

import copy
import os
import time

import numpy as np
import pytest

from benchmarks.conftest import scaled, write_report
from repro.api import create_backend
from repro.api.sharding import ShardedDatabase
from repro.core.statistics import QueryExecution
from repro.workloads.queries import generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

OBJECTS = scaled(20_000, 100_000)
DIMENSIONS = 16
QUERIES = 100
SHARDS = 2

#: The 1.5x acceptance floor needs both paper-scale databases and real
#: cores to overlap the shards on; otherwise the gate bounds the
#: scatter-gather overhead instead (see module docstring).
CPUS = os.cpu_count() or 1
if OBJECTS >= 20_000 and CPUS >= 2:
    SPEEDUP_FLOOR = 1.5
elif OBJECTS >= 20_000:
    SPEEDUP_FLOOR = 0.9
else:
    SPEEDUP_FLOOR = 0.55


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(OBJECTS, DIMENSIONS, seed=7)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_query_workload(
        dataset, count=QUERIES, target_selectivity=0.01, seed=8
    )


@pytest.fixture(scope="module")
def unsharded(dataset):
    index = create_backend("ac", DIMENSIONS)
    dataset.load_into(index)
    return index


@pytest.fixture(scope="module")
def sharded(dataset):
    database = ShardedDatabase.create("ac", DIMENSIONS, shards=SHARDS)
    database.bulk_load(dataset.iter_objects())
    return database


def best_of(runs, build, queries, relation):
    """Best wall-clock of *runs* executions, each on a fresh deep copy."""
    times, results = [], None
    for _ in range(runs):
        backend = build()
        try:
            start = time.perf_counter()
            results = backend.execute_batch(queries, relation)
            times.append(time.perf_counter() - start)
        finally:
            if isinstance(backend, ShardedDatabase):
                backend.close()
    return min(times), results


def process_copy(sharded):
    """A process-mode copy of *sharded* with every worker already running."""
    database = ShardedDatabase(
        [copy.deepcopy(shard) for shard in sharded.shards],
        router=sharded.router,
        execution="process",
    )
    # A read-only request per shard spawns its worker outside the timer.
    assert database.n_groups == sharded.n_groups
    return database


def test_scatter_gather_speedup_and_equivalence(
    unsharded, sharded, workload, results_dir
):
    queries, relation = workload.queries, workload.relation
    unsharded_time, unsharded_results = best_of(
        3, lambda: copy.deepcopy(unsharded), queries, relation
    )
    serial_time, serial_results = best_of(
        3, lambda: copy.deepcopy(sharded), queries, relation
    )
    process_time, process_results = best_of(
        3, lambda: process_copy(sharded), queries, relation
    )

    # Invisibility: merged ascending ids match the unsharded index, with
    # identical `results` counters; serial and process scatter agree.
    for merged, single, process in zip(serial_results, unsharded_results, process_results):
        assert merged.ids.tobytes() == np.sort(single.ids).tobytes()
        assert merged.execution.results == single.execution.results
        assert process.ids.tobytes() == merged.ids.tobytes()
        assert process.execution.core_counters() == merged.execution.core_counters()

    # Accounting: merged counters are exactly the sum of what the shards
    # report when the same workload runs on them independently.
    mirrors = [copy.deepcopy(shard) for shard in sharded.shards]
    per_shard = [mirror.execute_batch(queries, relation) for mirror in mirrors]
    for row, merged in enumerate(serial_results):
        summed = QueryExecution()
        for shard_results in per_shard:
            summed = summed.merge(shard_results[row].execution)
        assert merged.execution.core_counters() == summed.core_counters()

    best_sharded = min(serial_time, process_time)
    speedup = unsharded_time / best_sharded
    report = "\n".join(
        [
            "== sharding-throughput: scatter-gather execute_batch vs one index ==",
            f"objects: {OBJECTS}, dimensions: {DIMENSIONS}, queries: {QUERIES}, "
            f"shards: {SHARDS}, cpus: {CPUS}",
            f"unsharded        : {unsharded_time:8.3f} s",
            f"sharded (serial) : {serial_time:8.3f} s "
            f"({unsharded_time / serial_time:.2f}x)",
            f"sharded (process): {process_time:8.3f} s "
            f"({unsharded_time / process_time:.2f}x)",
            f"speedup          : {speedup:8.2f}x (gate: {SPEEDUP_FLOOR:.2f}x)",
        ]
    )
    write_report(results_dir, "sharding_throughput", report)
    assert speedup >= SPEEDUP_FLOOR, (
        f"scatter-gather speedup {speedup:.2f}x below the "
        f"{SPEEDUP_FLOOR:.2f}x gate"
    )


@pytest.mark.benchmark(group="sharding-scatter-gather")
class TestScatterGatherThroughput:
    """pytest-benchmark timings of the two execution strategies."""

    def test_unsharded_batch(self, benchmark, unsharded, workload):
        def run():
            return copy.deepcopy(unsharded).execute_batch(
                workload.queries, workload.relation
            )

        benchmark.pedantic(run, rounds=3, iterations=1)

    def test_sharded_batch(self, benchmark, sharded, workload):
        def run():
            return copy.deepcopy(sharded).execute_batch(
                workload.queries, workload.relation
            )

        benchmark.pedantic(run, rounds=3, iterations=1)
