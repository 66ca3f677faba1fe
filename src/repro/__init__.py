"""repro — adaptive cost-based clustering of multidimensional extended objects.

A faithful, pure-Python reproduction of *"Clustering Multidimensional
Extended Objects to Speed Up Execution of Spatial Queries"* (Saita &
Llirbat, EDBT 2004), including the paper's competitors (Sequential Scan,
R*-tree), the simulated disk storage scenario, the workload generators and
the full evaluation harness.

Quickstart
----------
>>> import numpy as np
>>> from repro import AdaptiveClusteringIndex, HyperRectangle, SpatialRelation
>>> index = AdaptiveClusteringIndex(dimensions=4)
>>> index.insert(1, HyperRectangle([0.1, 0.1, 0.1, 0.1], [0.3, 0.2, 0.4, 0.2]))
>>> index.insert(2, HyperRectangle([0.6, 0.5, 0.7, 0.6], [0.9, 0.8, 0.9, 0.9]))
>>> sorted(index.query(HyperRectangle([0.0, 0.0, 0.0, 0.0],
...                                   [0.5, 0.5, 0.5, 0.5]),
...                    SpatialRelation.INTERSECTS).tolist())
[1]

Whole workloads go through the vectorised batch engine — one call prunes
every cluster for every query at once and returns per-query results (and,
via ``execute_batch``, the per-query cost counters), identical to running
the queries one at a time:

>>> queries = [HyperRectangle.from_point([0.2, 0.15, 0.2, 0.15]),
...            HyperRectangle.from_point([0.7, 0.6, 0.8, 0.7])]
>>> [ids.tolist() for ids in index.query_batch(queries, SpatialRelation.CONTAINS)]
[[1], [2]]

Every access method satisfies the same :class:`~repro.api.SpatialBackend`
protocol — ``insert`` / ``bulk_load`` / ``delete`` / ``delete_bulk`` /
``query(_batch)`` / ``execute(_batch)`` — and is constructible by name
through the backend registry:

>>> from repro import create_backend
>>> scan = create_backend("ss", dimensions=4)
>>> scan.capabilities.supports_reorganization
False

The :class:`~repro.api.Database` facade composes a backend with snapshot
persistence and attached streaming (pub/sub) sessions.
"""

from repro.geometry import HyperRectangle, Interval, SpatialRelation
from repro.core import (
    AdaptiveClusteringConfig,
    AdaptiveClusteringIndex,
    ClusterSignature,
    ClusteringFunction,
    CostParameters,
    QueryExecution,
    StorageScenario,
    SystemCostConstants,
    VariationInterval,
)
from repro.baselines import RStarTree, RStarTreeConfig, SequentialScan

# The backend API package is imported after the core (it is already fully
# loaded as a side effect of ``repro.core.index`` adopting the mixin; an
# earlier import would leave ``repro.api.protocol`` partially initialized
# when the core pulls it in).
from repro.api import (
    AsyncDatabase,
    Capabilities,
    Database,
    QueryResult,
    ServingConfig,
    ShardedDatabase,
    SpatialBackend,
    UnsupportedOperation,
    create_backend,
    register_backend,
    registered_backends,
)
from repro.storage import MemoryStorage, SimulatedDisk
from repro.workloads import (
    Dataset,
    QueryWorkload,
    generate_point_queries,
    generate_query_workload,
    generate_skewed_dataset,
    generate_uniform_dataset,
)
from repro.evaluation import (
    ExperimentHarness,
    ExperimentResult,
    MethodResult,
    format_experiment_result,
)
from repro.engine import (
    LRUResultCache,
    MatchRecord,
    StreamingConfig,
    StreamingMatcher,
    StreamStats,
)

__version__ = "1.0.0"

__all__ = [
    # geometry
    "HyperRectangle",
    "Interval",
    "SpatialRelation",
    # backend API
    "SpatialBackend",
    "Capabilities",
    "QueryResult",
    "UnsupportedOperation",
    "Database",
    "ShardedDatabase",
    "AsyncDatabase",
    "ServingConfig",
    "create_backend",
    "register_backend",
    "registered_backends",
    # core
    "AdaptiveClusteringIndex",
    "AdaptiveClusteringConfig",
    "ClusterSignature",
    "ClusteringFunction",
    "VariationInterval",
    "CostParameters",
    "SystemCostConstants",
    "StorageScenario",
    "QueryExecution",
    # baselines
    "SequentialScan",
    "RStarTree",
    "RStarTreeConfig",
    # storage
    "MemoryStorage",
    "SimulatedDisk",
    # workloads
    "Dataset",
    "QueryWorkload",
    "generate_uniform_dataset",
    "generate_skewed_dataset",
    "generate_query_workload",
    "generate_point_queries",
    # evaluation
    "ExperimentHarness",
    "ExperimentResult",
    "MethodResult",
    "format_experiment_result",
    # streaming engine
    "StreamingMatcher",
    "StreamingConfig",
    "StreamStats",
    "MatchRecord",
    "LRUResultCache",
    "__version__",
]
