"""Query correctness of the adaptive clustering index.

The ground truth is a brute-force check of every object against the
selection criterion — exactly what the Sequential Scan baseline does.  The
index must return the same answer sets before, during and after
reorganizations, for all three spatial relations, in both storage
scenarios, and under insertions and deletions.  The per-query reference
loop (``reference.py``), the oracle of the batch equivalence suites, is
held to the same ground truth.
"""

import numpy as np
import pytest

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.geometry.vectorized import matching_mask
from repro.workloads.queries import generate_point_queries, generate_query_workload
from repro.workloads.skewed import generate_skewed_dataset
from repro.workloads.uniform import generate_uniform_dataset

from reference import reference_execute


def brute_force(dataset, query, relation):
    mask = matching_mask(dataset.lows, dataset.highs, query, relation)
    return set(dataset.ids[mask].tolist())


def build_index(dataset, scenario="memory", **overrides):
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario(scenario, dataset.dimensions),
        reorganization_period=overrides.pop("reorganization_period", 25),
        **overrides,
    )
    index = AdaptiveClusteringIndex(config=config)
    dataset.load_into(index)
    return index


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(1200, 6, seed=5, max_extent=0.5)


@pytest.fixture(scope="module")
def queries(dataset):
    rng = np.random.default_rng(9)
    boxes = []
    for _ in range(25):
        lows = rng.random(6) * 0.7
        highs = lows + rng.random(6) * 0.3
        boxes.append(HyperRectangle(lows, np.minimum(highs, 1.0)))
    return boxes


@pytest.mark.parametrize("relation", list(SpatialRelation))
def test_results_match_brute_force_after_adaptation(dataset, queries, relation):
    index = build_index(dataset)
    reference = build_index(dataset)
    # Warm up so several reorganizations take place.
    for _ in range(6):
        for query in queries:
            index.query(query, relation)
            reference_execute(reference, query, relation)
    assert index.n_clusters > 1
    assert reference.n_clusters > 1
    index.check_invariants()
    reference.check_invariants()
    for query in queries:
        expected = brute_force(dataset, query, relation)
        assert set(index.query(query, relation).tolist()) == expected
        assert set(reference_execute(reference, query, relation).ids.tolist()) == expected


@pytest.mark.parametrize("scenario", ["memory", "disk"])
def test_results_match_in_both_storage_scenarios(dataset, queries, scenario):
    index = build_index(dataset, scenario=scenario)
    for _ in range(4):
        for query in queries:
            index.query(query)
    for query in queries:
        assert set(index.query(query).tolist()) == brute_force(
            dataset, query, SpatialRelation.INTERSECTS
        )


def test_point_enclosing_matches_brute_force(dataset):
    index = build_index(dataset)
    workload = generate_point_queries(30, dataset.dimensions, seed=21)
    for _ in range(4):
        for query in workload.queries:
            index.query(query, workload.relation)
    for query in workload.queries:
        expected = brute_force(dataset, query, SpatialRelation.CONTAINS)
        assert set(index.query(query, SpatialRelation.CONTAINS).tolist()) == expected


def test_correctness_with_skewed_data():
    dataset = generate_skewed_dataset(800, 10, seed=6)
    index = build_index(dataset)
    workload = generate_query_workload(dataset, 20, target_selectivity=0.01, seed=7)
    for _ in range(6):
        for query in workload.queries:
            index.query(query, workload.relation)
    index.check_invariants()
    for query in workload.queries:
        expected = brute_force(dataset, query, workload.relation)
        assert set(index.query(query, workload.relation).tolist()) == expected


def test_correctness_under_interleaved_updates(dataset, queries):
    """Insertions and deletions interleaved with queries never lose results."""
    rng = np.random.default_rng(31)
    index = build_index(dataset, reorganization_period=15)
    live = {int(i): dataset.box(row) for row, i in enumerate(dataset.ids)}
    next_id = int(dataset.ids.max()) + 1

    for step in range(300):
        action = rng.random()
        if action < 0.3:
            lows = rng.random(6) * 0.6
            highs = lows + rng.random(6) * 0.4
            box = HyperRectangle(lows, np.minimum(highs, 1.0))
            index.insert(next_id, box)
            live[next_id] = box
            next_id += 1
        elif action < 0.5 and live:
            victim = int(rng.choice(list(live)))
            assert index.delete(victim)
            del live[victim]
        else:
            query = queries[step % len(queries)]
            found = set(index.query(query).tolist())
            expected = {object_id for object_id, box in live.items() if box.intersects(query)}
            assert found == expected
    index.check_invariants()
    assert index.n_objects == len(live)


def test_results_stable_across_manual_reorganizations(dataset, queries):
    index = build_index(dataset, reorganization_period=0, auto_reorganize=False)
    baseline = {
        id(query): brute_force(dataset, query, SpatialRelation.INTERSECTS)
        for query in queries
    }
    for round_number in range(5):
        for query in queries:
            assert set(index.query(query).tolist()) == baseline[id(query)]
        report = index.reorganize()
        assert report.clusters_after == index.n_clusters
        index.check_invariants()


def test_every_query_type_returns_unique_ids(dataset, queries):
    index = build_index(dataset)
    for query in queries:
        for relation in SpatialRelation:
            results = index.query(query, relation)
            assert len(results) == len(set(results.tolist()))
