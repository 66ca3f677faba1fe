"""Memory bound of the sequential scan's batch execution, measured with ``tracemalloc``.

The scan verifies a batch with the arena's windowed kernel, one visit per
query over its whole member segment, so its transient memory (the
allocation peak above the results it returns) stays under one fixed bound
whatever the batch size.  An ``(queries, objects)`` boolean mask with
broadcast temporaries reads about 9.6 MB for 100 queries and 22.5 MB for
800 queries here, and grows without bound with the database; the windowed
kernel reads about 7 and 8 MB.
"""

from __future__ import annotations

import pytest

from repro.baselines.sequential_scan import SequentialScan
from repro.workloads.queries import generate_query_workload
from repro.workloads.uniform import generate_uniform_dataset

from test_index_memory import MB, transient_peak

DIMENSIONS = 16
OBJECTS = 20_000


@pytest.fixture(scope="module")
def loaded():
    data = generate_uniform_dataset(OBJECTS, DIMENSIONS, seed=5, max_extent=0.3)
    scan = SequentialScan(DIMENSIONS)
    data.load_into(scan)
    return data, scan


@pytest.mark.parametrize("queries", [100, 800])
def test_execute_batch_peak_is_bounded(loaded, queries):
    data, scan = loaded
    batch = generate_query_workload(data, queries, target_selectivity=0.01, seed=6).queries
    results, peak = transient_peak(lambda: scan.execute_batch(batch))
    assert len(results) == queries
    assert sum(result.ids.size for result in results) > queries  # about 1% each
    assert peak < 12 * MB
