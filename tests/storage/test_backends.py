"""Unit tests for the memory and simulated-disk storage backends."""

import numpy as np
import pytest

from repro.core.cost_model import CostParameters, StorageScenario
from repro.storage import MemoryStorage, SimulatedDisk, storage_for_scenario


@pytest.fixture
def memory_backend():
    return MemoryStorage(CostParameters.memory_defaults(16))


@pytest.fixture
def disk_backend():
    return SimulatedDisk(CostParameters.disk_defaults(16))


class TestFactory:
    def test_memory(self):
        backend = storage_for_scenario("memory", CostParameters.memory_defaults(8))
        assert isinstance(backend, MemoryStorage)

    def test_disk(self):
        backend = storage_for_scenario(StorageScenario.DISK, CostParameters.disk_defaults(8))
        assert isinstance(backend, SimulatedDisk)


class TestMemoryBackend:
    def test_reads_cost_no_io_time(self, memory_backend):
        memory_backend.on_cluster_created(0, 0)
        memory_backend.on_objects_appended(0, 100)
        memory_backend.on_cluster_reads_bulk(np.array([100]), np.array([1]))
        assert memory_backend.io_time_ms == 0.0
        assert memory_backend.stats.cluster_reads == 1
        assert memory_backend.stats.bytes_read == 100 * memory_backend.object_bytes
        assert memory_backend.stats.random_accesses == 0

    def test_writes_counted(self, memory_backend):
        memory_backend.on_cluster_created(0, 50)
        assert memory_backend.stats.bytes_written == 50 * memory_backend.object_bytes

    def test_object_size_matches_cost_model(self, memory_backend):
        assert memory_backend.object_bytes == 132


class TestSimulatedDisk:
    def test_read_charges_access_and_transfer(self, disk_backend):
        disk_backend.on_cluster_created(0, 0)
        disk_backend.on_objects_appended(0, 1000)
        time_before = disk_backend.io_time_ms
        disk_backend.on_cluster_reads_bulk(np.array([1000]), np.array([1]))
        constants = disk_backend.cost_parameters.constants
        expected = constants.disk_access_ms + (
            1000 * disk_backend.object_bytes * constants.disk_transfer_ms_per_byte
        )
        assert disk_backend.io_time_ms - time_before == pytest.approx(expected)
        assert disk_backend.stats.random_accesses >= 1

    def test_append_within_reserved_slots_is_cheap(self, disk_backend):
        disk_backend.on_cluster_created(0, 100)
        relocations_before = disk_backend.stats.cluster_relocations
        disk_backend.on_objects_appended(0, 5)
        assert disk_backend.stats.cluster_relocations == relocations_before

    def test_overflow_relocation_rewrites_cluster(self, disk_backend):
        disk_backend.on_cluster_created(0, 100)
        bytes_before = disk_backend.stats.bytes_written
        disk_backend.on_objects_appended(0, 200)  # exceeds the reserved slots
        assert disk_backend.stats.cluster_relocations == 1
        written = disk_backend.stats.bytes_written - bytes_before
        assert written >= 300 * disk_backend.object_bytes

    def test_cluster_lifecycle(self, disk_backend):
        disk_backend.on_cluster_created(1, 10)
        disk_backend.on_cluster_resized(1, 500)
        disk_backend.on_objects_removed(1, 100)
        disk_backend.on_cluster_removed(1)
        assert disk_backend.stats.allocations == 1
        assert disk_backend.stats.frees == 1

    def test_removing_unknown_cluster_is_noop(self, disk_backend):
        disk_backend.on_cluster_removed(42)
        assert disk_backend.stats.frees == 0

    def test_zero_count_events_are_noops(self, disk_backend):
        disk_backend.on_cluster_created(0, 10)
        stats_before = disk_backend.stats.as_dict()
        disk_backend.on_objects_appended(0, 0)
        disk_backend.on_objects_removed(0, 0)
        assert disk_backend.stats.as_dict() == stats_before

    def test_reset_measurements(self, disk_backend):
        disk_backend.on_cluster_created(0, 10)
        disk_backend.on_cluster_reads_bulk(np.array([10]), np.array([1]))
        disk_backend.reset_measurements()
        assert disk_backend.io_time_ms == 0.0
        assert disk_backend.stats.cluster_reads == 0
        # The layout itself (placement) survives the measurement reset.
        assert 0 in disk_backend.layout

    def test_storage_utilization_reported(self, disk_backend):
        disk_backend.on_cluster_created(0, 100)
        assert 0.0 < disk_backend.storage_utilization() <= 1.0
