"""In-memory storage scenario (Section 5, scenario i).

Cluster members are stored sequentially in main memory, so the only costs
are CPU costs — which the cost model charges through ``B`` and ``C`` at
query-evaluation time, not through the storage backend.  The backend still
maintains the layout (so storage-utilisation metrics are available) and the
byte counters, but charges no I/O time.
"""

from __future__ import annotations

import numpy as np

from repro.core.cost_model import CostParameters
from repro.storage.base import StorageBackend


class MemoryStorage(StorageBackend):
    """Storage backend for the in-memory scenario: no I/O time is charged."""

    def __init__(
        self,
        cost_parameters: CostParameters,
        reserved_slot_fraction: float = 0.25,
    ) -> None:
        super().__init__(cost_parameters, reserved_slot_fraction)

    def _charge_reads_bulk(self, n_objects: np.ndarray, counts: np.ndarray) -> None:
        # Reading from memory costs no I/O time; the CPU verification cost
        # is charged by the cost model (parameter C), not by the backend.
        return None

    def _charge_write(self, n_objects: int) -> None:
        self.stats.bytes_written += n_objects * self.object_bytes
        return None
