"""Exactness of the AC index's statistics at every read.

Batch execution updates ``q(c)`` eagerly but defers the candidate counters
``q(s)`` to a log of visits that is folded in before anything reads them.
This suite interleaves batch and per-query execution with every operation
that reads, resets, copies, persists or restructures the statistics, and
after every step compares ``q(s)``, ``q(c)``, ``n(s)`` and the outcome of
the next reorganization pass with a twin index that ran every query
through the per-query loop.

A step is a query operation, another operation and a second query
operation, so the middle operation meets a pending log whenever the first
query ran as a batch, and a row change it makes (a split or merge) meets
the log the second query appends to.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.core import index as index_module
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.storage.pagefile import LazyCluster, PagedStore
from repro.workloads.queries import generate_point_queries, generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset


def load_index(path):
    """Eagerly reopen the paged store an index ``save`` wrote."""
    return PagedStore.open(path).load_index()


RELATIONS = [
    SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINED_BY,
    SpatialRelation.CONTAINS,
]

QUERY_OPS = ["batch_one", "batch_many", "execute"]
OTHER_OPS = [
    "insert",
    "delete",
    "delete_bulk",
    "reset",
    "reorganize",
    "split",
    "merge",
    "deepcopy",
    "pickle",
    "save",
    "save_paged",
]

DIMENSIONS = 3


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(1200, DIMENSIONS, seed=41, max_extent=0.25)


@pytest.fixture(scope="module")
def query_pools(dataset):
    """Twenty queries per relation."""
    points = generate_point_queries(20, DIMENSIONS, seed=42).queries
    return {
        SpatialRelation.INTERSECTS: generate_query_workload(
            dataset, 20, target_selectivity=0.02, relation=SpatialRelation.INTERSECTS, seed=43
        ).queries,
        SpatialRelation.CONTAINED_BY: generate_query_workload(
            dataset, 20, target_selectivity=0.02, relation=SpatialRelation.CONTAINED_BY, seed=44
        ).queries,
        # Small boxes rather than points, so both query bounds matter.
        SpatialRelation.CONTAINS: [
            HyperRectangle(np.clip(p.lows - 0.01, 0.0, 1.0), np.clip(p.highs + 0.01, 0.0, 1.0))
            for p in points
        ],
    }


def assert_same_statistics(loop_index, batch_index):
    """Every statistic and the next reorganization pass agree with the loop twin."""
    assert batch_index.total_queries == loop_index.total_queries
    assert batch_index.queries_since_reorganization == loop_index.queries_since_reorganization
    assert batch_index.reorganization_count == loop_index.reorganization_count
    assert [c.cluster_id for c in batch_index.clusters()] == [
        c.cluster_id for c in loop_index.clusters()
    ]
    for cluster in loop_index.clusters():
        twin = batch_index.get_cluster(cluster.cluster_id)
        # Lazily opened clusters count n(s) once their members are loaded.
        cluster.ensure_materialized()
        twin.ensure_materialized()
        assert twin.query_count == cluster.query_count
        assert twin.creation_query == cluster.creation_query
        assert np.array_equal(twin.candidates.query_counts, cluster.candidates.query_counts)
        assert np.array_equal(twin.candidates.object_counts, cluster.candidates.object_counts)
    batch_index.check_invariants()
    loop_next = copy.deepcopy(loop_index)
    batch_next = copy.deepcopy(batch_index)
    assert batch_next.reorganize() == loop_next.reorganize()


class Run:
    """A batch-executed index, its per-query-loop twin and the shared inputs."""

    def __init__(self, base, query_pools, rng, tmp_path):
        self.loop = copy.deepcopy(base)
        self.batch = copy.deepcopy(base)
        self.pools = query_pools
        self.rng = rng
        self.tmp_path = tmp_path
        self.live = sorted(object_id for object_id, _ in base.iter_objects())
        self.next_id = 100_000
        self.saves = 0

    def queries(self, count):
        relation = RELATIONS[int(self.rng.integers(len(RELATIONS)))]
        pool = self.pools[relation]
        picks = self.rng.integers(len(pool), size=count)
        return [pool[int(i)] for i in picks], relation

    def query_op(self, op):
        queries, relation = self.queries(1 if op != "batch_many" else 30)
        expected = [self.loop.execute(query, relation) for query in queries]
        if op == "execute":
            actual = [self.batch.execute(queries[0], relation)]
        else:
            actual = self.batch.execute_batch(queries, relation)
        for want, got in zip(expected, actual):
            assert np.array_equal(want.ids, got.ids)
            assert got.execution.core_counters() == want.execution.core_counters()

    def take_live(self, count):
        picks = self.rng.choice(len(self.live), size=count, replace=False)
        taken = [self.live[int(i)] for i in picks]
        gone = set(taken)
        self.live = [object_id for object_id in self.live if object_id not in gone]
        return taken

    def other_op(self, op):
        loop, batch = self.loop, self.batch
        if op == "insert":
            low = self.rng.random(DIMENSIONS) * 0.8
            box = HyperRectangle(low, low + self.rng.random(DIMENSIONS) * 0.2)
            loop.insert(self.next_id, box)
            batch.insert(self.next_id, box)
            self.live.append(self.next_id)
            self.next_id += 1
        elif op == "delete":
            (object_id,) = self.take_live(1)
            assert loop.delete(object_id) and batch.delete(object_id)
        elif op == "delete_bulk":
            object_ids = self.take_live(5)
            assert loop.delete_bulk(object_ids) == batch.delete_bulk(object_ids) == 5
        elif op == "reset":
            loop.reset_statistics()
            batch.reset_statistics()
        elif op == "reorganize":
            assert batch.reorganize() == loop.reorganize()
        elif op == "split":
            # The reorganizer's split mechanics, called directly: the new
            # cluster's row reaches the stacked matrices at the next query.
            for index in (loop, batch):
                host = max(index.clusters(), key=lambda c: (c.n_objects, -c.cluster_id))
                counts = host.candidates.object_counts
                index._materialize_candidate(host, int(np.argmax(counts)))
        elif op == "merge":
            # The merge mechanics, called directly: rows after the merged
            # cluster's shift down at the next query.
            for index in (loop, batch):
                leaf = max(index.clusters(), key=lambda c: c.cluster_id)
                if not leaf.is_root:
                    index._merge_into_parent(leaf)
        elif op == "deepcopy":
            self.batch = copy.deepcopy(batch)
        elif op == "pickle":
            self.batch = pickle.loads(pickle.dumps(batch))
        elif op in ("save", "save_paged"):
            # Both twins go through the snapshot: a restored index numbers
            # new clusters from its highest surviving id, so a twin that
            # skipped the round trip would name later splits differently.
            self.loop, self.batch = (self.restore(op, index) for index in (loop, batch))
        else:  # pragma: no cover - the op lists are fixed
            raise ValueError(op)

    def restore(self, op, index):
        self.saves += 1
        if op == "save":
            return load_index(index.save(self.tmp_path / f"snapshot-{self.saves}"))
        directory = self.tmp_path / f"paged-{self.saves}"
        PagedStore.create(directory).commit(index)
        restored = PagedStore.open(directory).load_index(lazy=True)
        assert all(isinstance(c, LazyCluster) for c in restored.clusters())
        return restored


def build_base(dataset, query_pools, reset_on_reorganization):
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario("memory", DIMENSIONS),
        reorganization_period=15,
        reset_statistics_on_reorganization=reset_on_reorganization,
    )
    index = AdaptiveClusteringIndex(config=config)
    dataset.load_into(index)
    pool = query_pools[SpatialRelation.INTERSECTS]
    for i in range(45):
        index.execute(pool[i % len(pool)], SpatialRelation.INTERSECTS)
    assert index.n_clusters > 2
    return index


def steps(rng):
    """Every (query op, other op) pair once, shuffled, each closed by a random query op."""
    pairs = [(first, other) for other in OTHER_OPS for first in QUERY_OPS]
    order = rng.permutation(len(pairs))
    return [(*pairs[int(k)], QUERY_OPS[int(rng.integers(len(QUERY_OPS)))]) for k in order]


# The default block, and one so small (6 visits of 3 dimensions) that the
# visit log fills and folds in the middle of a batch.
@pytest.mark.parametrize("pair_block", [None, 20])
@pytest.mark.parametrize("reset_on_reorganization", [False, True])
def test_statistics_exact_after_every_step(
    dataset, query_pools, reset_on_reorganization, pair_block, tmp_path, monkeypatch
):
    if pair_block is not None:
        monkeypatch.setattr(index_module, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(45 + 2 * int(reset_on_reorganization) + (pair_block is None))
    base = build_base(dataset, query_pools, reset_on_reorganization)
    run = Run(base, query_pools, rng, tmp_path)
    for first, other, last in steps(rng):
        run.query_op(first)
        run.other_op(other)
        run.query_op(last)
        assert_same_statistics(run.loop, run.batch)
    assert run.batch.reorganization_count > base.reorganization_count


def test_copies_and_saves_carry_folded_counters(dataset, query_pools, tmp_path):
    """A copy or snapshot taken over a pending log restores exactly, with an empty log."""
    base = build_base(dataset, query_pools, reset_on_reorganization=False)
    pool = query_pools[SpatialRelation.CONTAINS]
    loop = copy.deepcopy(base)
    for query in pool[:5]:
        loop.execute(query, SpatialRelation.CONTAINS)

    restores = {
        "deepcopy": copy.deepcopy,
        "pickle": lambda index: pickle.loads(pickle.dumps(index)),
        "save": lambda index: load_index(index.save(tmp_path / "snapshot")),
    }
    for name, restore in restores.items():
        batch = copy.deepcopy(base)
        for query in pool[:5]:
            batch.execute_batch([query], SpatialRelation.CONTAINS)
        assert batch._pending_visits > 0, name
        restored = restore(batch)
        assert restored._pending_visits == 0, name
        assert batch._pending_visits == 0, name
        assert_same_statistics(loop, restored)


def test_pickled_clusters_carry_folded_counters(dataset, query_pools):
    base = build_base(dataset, query_pools, reset_on_reorganization=False)
    pool = query_pools[SpatialRelation.INTERSECTS]
    loop = copy.deepcopy(base)
    batch = copy.deepcopy(base)
    for query in pool[:5]:
        loop.execute(query, SpatialRelation.INTERSECTS)
        batch.execute_batch([query], SpatialRelation.INTERSECTS)
    assert batch._pending_visits > 0
    copies = pickle.loads(pickle.dumps(batch.clusters()))
    for cluster, twin in zip(loop.clusters(), copies):
        assert np.array_equal(twin.candidates.query_counts, cluster.candidates.query_counts)
        assert twin.query_count == cluster.query_count


def test_lazy_clusters_alias_the_stacked_buffers(dataset, query_pools, tmp_path):
    base = build_base(dataset, query_pools, reset_on_reorganization=False)
    PagedStore.create(tmp_path / "paged").commit(base)
    index = PagedStore.open(tmp_path / "paged").load_index(lazy=True)
    pool = query_pools[SpatialRelation.INTERSECTS]
    index.execute_batch(pool[:3], SpatialRelation.INTERSECTS)
    for cluster in index.clusters():
        assert isinstance(cluster, LazyCluster)
        assert cluster.statistics.base is index._cluster_statistics
    assert index._candidate_views_valid()
