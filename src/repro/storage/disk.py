"""Simulated disk storage scenario (Section 5, scenario ii).

The paper's experimental platform used a SCSI disk with a 15 ms access time
and a 20 MB/s sustained transfer rate, with the main memory capped at 64 MB
to force I/O.  This reproduction replaces the physical disk with cost
accounting (see DESIGN.md §5): every cluster read costs one random access
plus the sequential transfer of its members, every relocation rewrites the
cluster at a new position, and all of it is charged to a simulated clock
using the paper's own constants.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import CostParameters
from repro.storage.base import StorageBackend


class SimulatedDisk(StorageBackend):
    """Storage backend charging simulated random-access and transfer time."""

    def __init__(
        self,
        cost_parameters: CostParameters,
        reserved_slot_fraction: float = 0.25,
    ) -> None:
        super().__init__(cost_parameters, reserved_slot_fraction)
        constants = cost_parameters.constants
        self._access_ms = constants.disk_access_ms
        self._transfer_ms_per_byte = constants.disk_transfer_ms_per_byte

    def _charge_reads_bulk(self, n_objects: np.ndarray, counts: np.ndarray) -> None:
        total_reads = int(counts.sum())
        self.stats.random_accesses += total_reads
        transfer_bytes = int((counts * n_objects).sum()) * self.object_bytes
        self.clock.charge(
            total_reads * self._access_ms
            + transfer_bytes * self._transfer_ms_per_byte
        )

    def _charge_write(self, n_objects: int) -> None:
        bytes_written = n_objects * self.object_bytes
        self.stats.bytes_written += bytes_written
        self.stats.random_accesses += 1
        self.clock.charge(self._access_ms + bytes_written * self._transfer_ms_per_byte)

    def _charge_page_read(self, n_pages: int, n_bytes: int) -> None:
        # One blob extent is contiguous: a single seek, then sequential
        # transfer of every page it spans.
        self.stats.random_accesses += 1
        self.clock.charge(self._access_ms + n_bytes * self._transfer_ms_per_byte)

    def _charge_page_write(self, n_pages: int, n_bytes: int) -> None:
        # Commits append at the end of the page file: one seek per pass.
        self.stats.random_accesses += 1
        self.clock.charge(self._access_ms + n_bytes * self._transfer_ms_per_byte)
