"""Core contribution: adaptive cost-based clustering of extended objects.

This sub-package implements Sections 3–6 of the paper:

* :mod:`repro.core.signature` — cluster signatures (the grouping criterion).
* :mod:`repro.core.clustering_function` — candidate sub-cluster generation
  using the division factor.
* :mod:`repro.core.candidates` — candidate sub-cluster statistics kept per
  materialized cluster.
* :mod:`repro.core.cost_model` — the ``T = A + p (B + n C)`` cost model and
  its memory / disk parameterisations.
* :mod:`repro.core.benefit` — materialization and merging benefit functions.
* :mod:`repro.core.cluster` / :mod:`repro.core.arena` — materialized
  clusters and the column-major member arena they store their members in,
  with the member-verification kernel every query runs.  The sequential
  scan baseline keeps its members in one segment of an arena too.
* :mod:`repro.core.reorganize` — merge / split reorganization algorithms.
* :mod:`repro.core.index` — :class:`AdaptiveClusteringIndex`, the public
  access method.
"""

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters, StorageScenario, SystemCostConstants
from repro.core.signature import ClusterSignature, VariationInterval
from repro.core.clustering_function import ClusteringFunction
from repro.core.candidates import CandidateSet
from repro.core.benefit import materialization_benefit, merging_benefit
from repro.core.cluster import Cluster
from repro.core.statistics import QueryExecution, IndexSnapshot
from repro.core.index import AdaptiveClusteringIndex

__all__ = [
    "AdaptiveClusteringConfig",
    "CostParameters",
    "StorageScenario",
    "SystemCostConstants",
    "ClusterSignature",
    "VariationInterval",
    "ClusteringFunction",
    "CandidateSet",
    "materialization_benefit",
    "merging_benefit",
    "Cluster",
    "QueryExecution",
    "IndexSnapshot",
    "AdaptiveClusteringIndex",
]
