"""Engine ≡ reference for the baseline access methods.

``SequentialScan`` and ``RStarTree`` each have one query engine,
``execute_batch``; ``execute`` is its one-query batch.  Both are held to the
plain one-query loops in ``tests/baselines/reference.py``: ids in the same
order and the same core counters, for every relation, in one-row and
multi-row batches, on a freshly loaded scan and tree, an STR bulk-loaded
tree and a scan and tree churned by inserts, ``delete`` and
``delete_bulk`` between queries.  The churned scan also pins its storage
order: an append goes last, ``delete`` moves the last member into the gap
and ``delete_bulk`` keeps the survivors' order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.rtree import RStarTree, RStarTreeConfig
from repro.baselines.sequential_scan import SequentialScan
from repro.core import arena as arena_module
from repro.core.cost_model import CostParameters
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.queries import generate_point_queries, generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

from tests.baselines.reference import reference_scan, reference_walk

RELATIONS = [
    SpatialRelation.INTERSECTS,
    SpatialRelation.CONTAINED_BY,
    SpatialRelation.CONTAINS,
]


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(1200, 5, seed=81, max_extent=0.4)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_query_workload(dataset, 20, target_selectivity=0.02, seed=82)


def new_scan(dimensions):
    return SequentialScan(dimensions, cost=CostParameters.disk_defaults(dimensions))


def new_tree(dimensions):
    return RStarTree(
        config=RStarTreeConfig(dimensions=dimensions),
        cost=CostParameters.disk_defaults(dimensions),
    )


@pytest.fixture(scope="module")
def scan(dataset):
    scan = new_scan(dataset.dimensions)
    dataset.load_into(scan)
    return scan


@pytest.fixture(scope="module")
def tree(dataset):
    """A tree built by R* dynamic insertion."""
    tree = new_tree(dataset.dimensions)
    for object_id, box in dataset.iter_objects():
        tree.insert(object_id, box)
    assert tree.height > 1
    return tree


@pytest.fixture(scope="module")
def packed_tree(dataset):
    tree = new_tree(dataset.dimensions)
    tree.bulk_load(dataset.iter_objects())
    return tree


def reference_for(method):
    return reference_scan if isinstance(method, SequentialScan) else reference_walk


def assert_same(expected, actual):
    assert np.array_equal(actual.ids, expected.ids)
    assert actual.execution.core_counters() == expected.execution.core_counters()


def assert_engine_matches_reference(method, queries, relation):
    """``execute``, a one-row batch per query and one multi-row batch all match."""
    reference = reference_for(method)
    expected = [reference(method, query, relation) for query in queries]
    batch = method.execute_batch(queries, relation)
    assert len(batch) == len(queries)
    for query, want, got in zip(queries, expected, batch):
        assert_same(want, got)
        assert_same(want, method.execute(query, relation))
        (single,) = method.execute_batch([query], relation)
        assert_same(want, single)


class TestSequentialScan:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_matches_reference(self, scan, workload, relation):
        assert_engine_matches_reference(scan, workload.queries, relation)

    def test_point_queries(self, scan, dataset):
        points = generate_point_queries(10, dataset.dimensions, seed=83)
        assert_engine_matches_reference(scan, points.queries, points.relation)

    @pytest.mark.parametrize("pair_block", [7, 500])
    def test_visits_straddle_pair_windows(self, scan, workload, pair_block, monkeypatch):
        """Shrunk kernel windows cut every query's visit of the segment."""
        monkeypatch.setattr(arena_module, "_PAIR_BLOCK", pair_block)
        assert_engine_matches_reference(scan, workload.queries[:5], workload.relation)

    def test_empty_batch(self, scan):
        assert scan.execute_batch([]) == []

    def test_empty_scan(self):
        empty = SequentialScan(3)
        results = empty.execute_batch([HyperRectangle.unit(3)] * 2)
        for result in results:
            assert result.ids.size == 0
            assert_same(reference_scan(empty, HyperRectangle.unit(3)), result)

    def test_dimension_mismatch(self, scan):
        with pytest.raises(ValueError):
            scan.query_batch([HyperRectangle.unit(2)])


class TestRStarTree:
    @pytest.mark.parametrize("relation", RELATIONS)
    def test_matches_reference(self, tree, workload, relation):
        assert_engine_matches_reference(tree, workload.queries, relation)

    def test_point_queries(self, tree, dataset):
        points = generate_point_queries(10, dataset.dimensions, seed=84)
        assert_engine_matches_reference(tree, points.queries, points.relation)

    @pytest.mark.parametrize("relation", RELATIONS)
    def test_bulk_loaded_tree(self, packed_tree, workload, relation):
        """STR packing (``bulk_load``, which ``Dataset.load_into`` calls)."""
        assert packed_tree.height > 1
        assert_engine_matches_reference(packed_tree, workload.queries, relation)

    def test_empty_tree(self):
        empty = RStarTree(3)
        results = empty.execute_batch([HyperRectangle.unit(3)] * 2)
        for result in results:
            assert result.ids.size == 0
            assert_same(reference_walk(empty, HyperRectangle.unit(3)), result)

    def test_empty_batch(self, tree):
        assert tree.execute_batch([]) == []

    def test_dimension_mismatch(self, tree):
        with pytest.raises(ValueError):
            tree.query_batch([HyperRectangle.unit(2)])


@pytest.mark.parametrize("make", [new_scan, new_tree], ids=["scan", "tree"])
def test_churned_backend_matches_reference(make, dataset, workload):
    """Inserts, ``delete`` and ``delete_bulk`` between queries of every relation."""
    rng = np.random.default_rng(85)
    method = make(dataset.dimensions)
    boxes = dict(dataset.iter_objects())
    stored = list(range(800))
    method.bulk_load((object_id, boxes[object_id]) for object_id in stored)
    spare = list(range(800, dataset.size))
    queries = workload.queries
    for step in range(12):
        relation = RELATIONS[step % len(RELATIONS)]
        # Inserts append; one delete moves the last member into its gap.
        for object_id in spare[step * 30 : (step + 1) * 30]:
            method.insert(object_id, boxes[object_id])
            stored.append(object_id)
        for victim in rng.choice(stored, size=5, replace=False).tolist():
            assert method.delete(victim)
            row = stored.index(victim)
            stored[row] = stored[-1]
            stored.pop()
        assert_engine_matches_reference(method, queries[step : step + 4], relation)
        # A bulk delete keeps the order of the members that stay.
        doomed = set(rng.choice(stored, size=40, replace=False).tolist())
        assert method.delete_bulk(list(doomed) + [10**6]) == len(doomed)
        stored = [object_id for object_id in stored if object_id not in doomed]
        if isinstance(method, SequentialScan):
            assert method._members.ids.tolist() == stored
        assert_engine_matches_reference(method, queries[step + 4 : step + 8], relation)
    assert len(method) == len(stored)
    if isinstance(method, RStarTree):
        method.check_invariants()
