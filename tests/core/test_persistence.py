"""Tests for the crash-recovery snapshot (paper Section 6, Fail Recovery).

An index ``save`` commits a paged store (:mod:`repro.storage.pagefile`):
the signatures with their members, plus a page-table manifest recording
where each cluster lives.
"""

import json

import numpy as np
import pytest

from repro.api import Database
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters, StorageScenario
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.storage import pagefile
from repro.storage.pagefile import PagedStore
from repro.workloads.queries import generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_uniform_dataset(1500, 6, seed=61, max_extent=0.4)


@pytest.fixture(scope="module")
def workload(dataset):
    return generate_query_workload(dataset, 20, target_selectivity=0.01, seed=62)


def save_index(index, path, include_statistics=True):
    return index.save(path, include_statistics=include_statistics)


def load_index(path):
    return PagedStore.open(path).load_index()


def adapted_index(dataset, workload, scenario="memory"):
    config = AdaptiveClusteringConfig(
        cost=CostParameters.for_scenario(scenario, dataset.dimensions),
        reorganization_period=30,
    )
    index = AdaptiveClusteringIndex(config=config)
    dataset.load_into(index)
    for i in range(200):
        index.query(workload.queries[i % len(workload.queries)], workload.relation)
    return index


class TestRoundTrip:
    def test_structure_and_results_preserved(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        snapshot = save_index(original, tmp_path / "index")
        recovered = load_index(snapshot)

        assert recovered.n_objects == original.n_objects
        assert recovered.n_clusters == original.n_clusters
        assert recovered.total_queries == original.total_queries
        assert recovered.dimensions == original.dimensions
        recovered.check_invariants()
        for query in workload.queries:
            assert set(recovered.query(query, workload.relation).tolist()) == set(
                original.query(query, workload.relation).tolist()
            )

    def test_statistics_preserved(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        recovered = load_index(save_index(original, tmp_path / "stats"))
        for cluster in original.clusters():
            twin = recovered.get_cluster(cluster.cluster_id)
            assert twin is not None
            assert twin.query_count == cluster.query_count
            assert np.array_equal(twin.candidates.query_counts, cluster.candidates.query_counts)
            assert twin.signature == cluster.signature
            assert twin.parent_id == cluster.parent_id

    def test_statistics_can_be_dropped(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        recovered = load_index(
            save_index(original, tmp_path / "bare", include_statistics=False)
        )
        recovered.check_invariants()
        assert recovered.n_objects == original.n_objects
        for cluster in recovered.clusters():
            assert cluster.candidates.query_counts.sum() == 0

    def test_disk_scenario_round_trip(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload, scenario="disk")
        recovered = load_index(save_index(original, tmp_path / "disk"))
        assert recovered.config.scenario is StorageScenario.DISK
        # Every recovered cluster has an extent in the simulated disk layout.
        assert len(recovered.storage.layout) == recovered.n_clusters
        recovered.check_invariants()

    def test_config_round_trip(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        recovered = load_index(save_index(original, tmp_path / "config"))
        assert recovered.config.division_factor == original.config.division_factor
        assert recovered.config.reorganization_period == original.config.reorganization_period
        assert recovered.config.cost.constants == original.config.cost.constants


class TestRecoveredIndexKeepsWorking:
    def test_updates_and_reorganization_after_recovery(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        recovered = load_index(save_index(original, tmp_path / "live"))
        next_id = int(dataset.ids.max()) + 1
        rng = np.random.default_rng(63)
        for i in range(50):
            lows = rng.random(6) * 0.6
            recovered.insert(next_id + i, HyperRectangle(lows, lows + 0.2))
        for i in range(100):
            recovered.query(workload.queries[i % len(workload.queries)], workload.relation)
        recovered.delete(next_id)
        recovered.check_invariants()
        assert recovered.n_objects == original.n_objects + 49

    def test_fresh_empty_index_round_trip(self, tmp_path):
        index = AdaptiveClusteringIndex(dimensions=4)
        recovered = load_index(save_index(index, tmp_path / "empty"))
        assert recovered.n_objects == 0
        assert recovered.n_clusters == 1
        recovered.insert(1, HyperRectangle([0.1] * 4, [0.2] * 4))
        assert recovered.query(HyperRectangle.unit(4)).tolist() == [1]


class TestReorganizationSchedule:
    def test_counters_round_trip(self, dataset, workload, tmp_path):
        # 200 warm-up queries with period 30 leave the index 20 queries
        # into its reorganization window; a recovered index must resume
        # from the same point, not restart the window from zero.
        original = adapted_index(dataset, workload)
        assert original.queries_since_reorganization == 20
        assert original.reorganization_count == 6
        recovered = load_index(save_index(original, tmp_path / "sched"))
        assert recovered.queries_since_reorganization == original.queries_since_reorganization
        assert recovered.reorganization_count == original.reorganization_count

    def test_recovered_index_reorganizes_on_schedule(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        recovered = load_index(save_index(original, tmp_path / "resume"))
        remaining = original.config.reorganization_period - original.queries_since_reorganization
        for i in range(remaining):
            original.query(workload.queries[i % len(workload.queries)], workload.relation)
            recovered.query(workload.queries[i % len(workload.queries)], workload.relation)
        assert recovered.reorganization_count == original.reorganization_count
        assert recovered.queries_since_reorganization == 0

    def test_mismatched_candidate_statistics_raise(self, dataset, workload, tmp_path):
        original = adapted_index(dataset, workload)
        path = save_index(original, tmp_path / "tampered")
        # Corrupt the snapshot: truncate one cluster's saved candidate
        # query counts so the shape no longer matches its signature.
        (manifest_path,) = path.glob("manifest-*.json")
        manifest = json.loads(manifest_path.read_text())
        manifest["clusters"][0]["candidate_queries"].pop()
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="candidate query counts"):
            load_index(path)


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            Database.open(tmp_path / "does-not-exist")

    def test_bad_format_version(self, dataset, workload, tmp_path, monkeypatch):
        original = adapted_index(dataset, workload)
        monkeypatch.setattr(pagefile, "MANIFEST_FORMAT_VERSION", 999)
        path = save_index(original, tmp_path / "versioned")
        monkeypatch.setattr(pagefile, "MANIFEST_FORMAT_VERSION", 1)
        with pytest.raises(ValueError):
            load_index(path)
