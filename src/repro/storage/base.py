"""Abstract storage backend interface.

The adaptive clustering index notifies its storage backend of every
structural event (cluster creation / removal, member appends, bulk moves)
and of every cluster scan performed by query execution.  Backends account
for the I/O cost of those events: the memory backend only tracks byte
counters, the simulated disk charges access and transfer time to a
simulated clock.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.cost_model import CostParameters
from repro.storage.iostats import IOStatistics
from repro.storage.layout import DiskLayout
from repro.storage.simclock import SimulatedClock


class StorageBackend(abc.ABC):
    """Common bookkeeping shared by the memory and disk backends."""

    def __init__(
        self,
        cost_parameters: CostParameters,
        reserved_slot_fraction: float = 0.25,
    ) -> None:
        self.cost_parameters = cost_parameters
        self.object_bytes = cost_parameters.object_bytes
        self.layout = DiskLayout(
            object_bytes=self.object_bytes,
            reserved_slot_fraction=reserved_slot_fraction,
        )
        self.stats = IOStatistics()
        self.clock = SimulatedClock()

    # ------------------------------------------------------------------
    # Structural events (cluster lifecycle)
    # ------------------------------------------------------------------
    def on_cluster_created(self, cluster_id: int, n_objects: int = 0) -> None:
        """A cluster was materialized with *n_objects* initial members."""
        self.layout.allocate(cluster_id, n_objects)
        self.stats.allocations += 1
        if n_objects > 0:
            self._charge_write(n_objects)

    def on_cluster_removed(self, cluster_id: int) -> None:
        """A cluster was merged away or dropped."""
        if cluster_id in self.layout:
            self.layout.free(cluster_id)
            self.stats.frees += 1

    def on_objects_appended(self, cluster_id: int, count: int = 1) -> None:
        """*count* members were appended to the cluster."""
        if count <= 0:
            return
        extent_before = self.layout.extent(cluster_id)
        live_before = extent_before.used_objects
        relocated = self.layout.append(cluster_id, count)
        if relocated:
            self.stats.cluster_relocations += 1
            # Relocation rewrites the whole cluster at its new position.
            self._charge_write(live_before + count)
        else:
            self._charge_write(count)

    def on_objects_removed(self, cluster_id: int, count: int = 1) -> None:
        """*count* members were removed from the cluster."""
        if count <= 0:
            return
        self.layout.remove(cluster_id, count)

    def on_cluster_resized(self, cluster_id: int, n_objects: int) -> None:
        """The cluster's member count changed wholesale (split / merge)."""
        relocated = self.layout.resize(cluster_id, n_objects)
        if relocated:
            self.stats.cluster_relocations += 1
            self._charge_write(n_objects)

    # ------------------------------------------------------------------
    # Query-time events
    # ------------------------------------------------------------------
    def on_cluster_reads_bulk(self, n_objects: np.ndarray, counts: np.ndarray) -> None:
        """Query execution scanned many clusters, each possibly several times.

        ``n_objects`` and ``counts`` are aligned arrays: cluster ``i`` was
        scanned ``counts[i]`` times at ``n_objects[i]`` members each.
        """
        total_reads = int(counts.sum())
        if total_reads <= 0:
            return
        self.stats.cluster_reads += total_reads
        self.stats.bytes_read += int((counts * n_objects).sum()) * self.object_bytes
        self._charge_reads_bulk(n_objects, counts)

    # ------------------------------------------------------------------
    # Paged-store events
    # ------------------------------------------------------------------
    def on_pages_read(self, n_pages: int, n_bytes: int) -> None:
        """A paged store fetched one blob extent of *n_pages* pages.

        The extent's pages are contiguous, so the disk scenario prices
        the fetch as one random access plus a sequential transfer.
        """
        if n_pages <= 0:
            return
        self.stats.page_reads += n_pages
        self.stats.page_bytes_read += n_bytes
        self._charge_page_read(n_pages, n_bytes)

    def on_pages_written(self, n_pages: int, n_bytes: int) -> None:
        """A paged-store commit appended *n_pages* pages in one pass."""
        if n_pages <= 0:
            return
        self.stats.page_writes += n_pages
        self.stats.page_bytes_written += n_bytes
        self._charge_page_write(n_pages, n_bytes)

    def _charge_page_read(self, n_pages: int, n_bytes: int) -> None:
        """Charge one contiguous page fetch (no cost in the memory scenario)."""

    def _charge_page_write(self, n_pages: int, n_bytes: int) -> None:
        """Charge one contiguous page append (no cost in the memory scenario)."""

    # ------------------------------------------------------------------
    # Scenario-specific cost accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _charge_reads_bulk(self, n_objects: np.ndarray, counts: np.ndarray) -> None:
        """Charge ``counts[i]`` reads of ``n_objects[i]`` members, for every ``i``."""

    @abc.abstractmethod
    def _charge_write(self, n_objects: int) -> None:
        """Charge the simulated cost of writing *n_objects* members."""

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    @property
    def io_time_ms(self) -> float:
        """Total simulated I/O time charged so far."""
        return self.clock.elapsed_ms

    def storage_utilization(self) -> float:
        """Live data over allocated extent space (paper target: >= 0.7)."""
        return self.layout.overall_utilization()

    def reset_measurements(self) -> None:
        """Zero statistics and the clock (start of a measurement window)."""
        self.stats.reset()
        self.clock.reset()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(clusters={len(self.layout)}, "
            f"io_time_ms={self.io_time_ms:.3f})"
        )
