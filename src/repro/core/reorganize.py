"""Cluster reorganization: merge and split decisions (Section 3.4).

The reorganizer walks the materialized clusters (top-down from the root)
and, for each of them, applies the paper's `ReorganizeCluster` procedure
(Fig. 1):

1. if merging the cluster into its parent has a positive benefit, merge it
   (Fig. 2);
2. otherwise try to split it by greedily materializing the candidate
   sub-clusters with the best positive materialization benefit (Fig. 3),
   re-evaluating the benefits after every materialization because moving
   objects changes the remaining candidates' statistics.

Both actions are rare in an adapted index: a steady-state pass over
hundreds of clusters merges or splits a few percent of them.  A pass
therefore starts with one vectorised **screen** that evaluates, from the
statistics at the start of the pass, every cluster's merging benefit
(equation 5) and its best eligible materialization benefit (equation 3) over
stacked per-cluster and per-candidate arrays.  The per-cluster procedure
above runs only for clusters that could act, plus clusters whose parent an
earlier merge of the same pass replaced.  Nothing else a decision reads
changes before the cluster's turn — merges only move objects up into
clusters already visited, splits only into clusters created by the pass —
so the outcome is the one a pass running the procedure for every cluster
would produce.

The mechanics of moving objects between clusters live in
:class:`~repro.core.index.AdaptiveClusteringIndex`
(``_materialize_candidate`` / ``_merge_into_parent``); this module only
takes the decisions, so the policy can be unit-tested and ablated
independently of the data movement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Sequence

import numpy as np

from repro.core.benefit import materialization_benefits, merging_benefit, merging_benefits
from repro.core.candidates import access_probabilities
from repro.core.config import AdaptiveClusteringConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.cluster import Cluster
    from repro.core.index import AdaptiveClusteringIndex


@dataclass
class ReorganizationReport:
    """Summary of one reorganization pass."""

    #: Clusters materialized (splits) during the pass.
    materializations: int = 0
    #: Clusters merged back into their parent during the pass.
    merges: int = 0
    #: Number of materialized clusters before the pass.
    clusters_before: int = 0
    #: Number of materialized clusters after the pass.
    clusters_after: int = 0
    #: Identifiers of the clusters created during the pass.
    created_cluster_ids: List[int] = field(default_factory=list)
    #: Identifiers of the clusters removed during the pass.
    removed_cluster_ids: List[int] = field(default_factory=list)

    @property
    def changed(self) -> bool:
        """True when the pass modified the clustering."""
        return self.materializations > 0 or self.merges > 0


class Reorganizer:
    """Implements the merge / split decision policy."""

    def __init__(self, config: AdaptiveClusteringConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------
    def reorganize(self, index: "AdaptiveClusteringIndex") -> ReorganizationReport:
        """Run one full reorganization pass over the index."""
        report = ReorganizationReport(clusters_before=index.n_clusters)
        # Snapshot: clusters created during this pass have no statistics yet
        # and are not reconsidered until the next pass.
        clusters = [index.get_cluster(cluster_id) for cluster_id in index.cluster_ids_top_down()]
        parents = [cluster.parent_id for cluster in clusters]
        can_act = self._screen(index, clusters)
        for cluster, parent_id, acts in zip(clusters, parents, can_act):
            if index.get_cluster(cluster.cluster_id) is None:
                # Removed by an earlier merge during this same pass.
                continue
            if acts or cluster.parent_id != parent_id:
                self._reorganize_cluster(index, cluster, report)
        report.clusters_after = index.n_clusters
        if self.config.reset_statistics_on_reorganization:
            index.reset_statistics()
        return report

    def _screen(
        self, index: "AdaptiveClusteringIndex", clusters: Sequence["Cluster"]
    ) -> np.ndarray:
        """Which of *clusters* could merge or split, from their current statistics.

        One array evaluation of the benefits :meth:`_merge_is_beneficial`
        and :meth:`_best_candidate` compute per cluster, with the same
        formulas and operation order.  It leaves out only the check against
        existing children and the ``max_clusters`` cap, which can merely
        veto a split, so a cluster screened out would not act.
        """
        total = index.total_queries
        count = len(clusters)
        row_of = {cluster.cluster_id: row for row, cluster in enumerate(clusters)}
        probabilities = np.fromiter(
            (cluster.access_probability(total) for cluster in clusters), np.float64, count
        )
        sizes = np.fromiter((cluster.n_objects for cluster in clusters), np.int64, count)

        parents = np.fromiter(
            (row_of.get(cluster.parent_id, -1) for cluster in clusters), np.int64, count
        )
        has_parent = parents >= 0
        can_act = np.zeros(count, dtype=bool)
        can_act[has_parent] = (
            merging_benefits(
                probabilities[has_parent],
                sizes[has_parent],
                probabilities[parents[has_parent]],
                self.config.cost,
            )
            > 0.0
        )

        # Only candidates at or above the size floor can be eligible.
        object_counts = np.concatenate([cluster.candidates.object_counts for cluster in clusters])
        rows = np.flatnonzero(object_counts >= self.config.min_cluster_objects)
        lengths = np.fromiter((len(cluster.candidates) for cluster in clusters), np.int64, count)
        owner = np.repeat(np.arange(count), lengths).take(rows)
        object_counts = object_counts.take(rows)
        query_counts = np.concatenate(
            [cluster.candidates.query_counts for cluster in clusters]
        ).take(rows)
        windows = np.fromiter(
            (total - cluster.creation_query for cluster in clusters), np.int64, count
        ).take(owner)
        host_probabilities = probabilities.take(owner)
        candidate_probabilities = np.minimum(
            access_probabilities(query_counts, windows, self.config.probability_smoothing),
            host_probabilities,
        )
        benefits = materialization_benefits(
            candidate_probabilities, object_counts, host_probabilities, self.config.cost
        )
        can_split = np.bincount(owner[benefits > 0.0], minlength=count) > 0
        return can_act | (can_split & (sizes > 0))

    # ------------------------------------------------------------------
    def _reorganize_cluster(
        self,
        index: "AdaptiveClusteringIndex",
        cluster: "Cluster",
        report: ReorganizationReport,
    ) -> None:
        """Paper Fig. 1: merge if beneficial, otherwise try to split."""
        if not cluster.is_root and self._merge_is_beneficial(index, cluster):
            index._merge_into_parent(cluster)
            report.merges += 1
            report.removed_cluster_ids.append(cluster.cluster_id)
            return
        self._try_split(index, cluster, report)

    # ------------------------------------------------------------------
    def _merge_is_beneficial(self, index: "AdaptiveClusteringIndex", cluster: "Cluster") -> bool:
        parent = index.get_cluster(cluster.parent_id)
        if parent is None:  # pragma: no cover - defensive
            return False
        total = index.total_queries
        benefit = merging_benefit(
            cluster_access_probability=cluster.access_probability(total),
            cluster_object_count=cluster.n_objects,
            parent_access_probability=parent.access_probability(total),
            cost=self.config.cost,
        )
        return benefit > 0.0

    # ------------------------------------------------------------------
    def _try_split(
        self,
        index: "AdaptiveClusteringIndex",
        cluster: "Cluster",
        report: ReorganizationReport,
    ) -> None:
        """Paper Fig. 3: greedily materialize the most profitable candidates."""
        while True:
            if cluster.candidates.is_empty or cluster.n_objects == 0:
                return
            if not index.can_materialize_more():
                return
            best_index = self._best_candidate(index, cluster)
            if best_index is None:
                return
            new_cluster = index._materialize_candidate(cluster, best_index)
            report.materializations += 1
            report.created_cluster_ids.append(new_cluster.cluster_id)

    def _best_candidate(self, index: "AdaptiveClusteringIndex", cluster: "Cluster") -> "int | None":
        """Return the index of the most profitable candidate, or ``None``."""
        total = index.total_queries
        cluster_probability = cluster.access_probability(total)
        probabilities = cluster.candidate_access_probabilities(
            total, self.config.probability_smoothing
        )
        # A candidate cannot be accessed more often than its host cluster.
        probabilities = np.minimum(probabilities, cluster_probability)
        counts = cluster.candidates.object_counts
        benefits = materialization_benefits(
            probabilities, counts, cluster_probability, self.config.cost
        )

        eligible = (counts >= self.config.min_cluster_objects) & (benefits > 0.0)
        # Never materialize a candidate whose signature already exists as a
        # materialized child: the duplicate cluster would add overhead
        # without improving pruning.  A candidate differs from the parent
        # in exactly one dimension, so comparing its refined constraint
        # against the children's single-dimension overrides is equivalent
        # to (and far cheaper than) building and comparing full signatures.
        if eligible.any() and cluster.children_ids:
            existing = index.child_single_dimension_overrides(cluster)
            if existing:
                candidates = cluster.candidates
                for candidate_index in np.flatnonzero(eligible):
                    i = int(candidate_index)
                    key = (
                        int(candidates.dimension[i]),
                        float(candidates.start_low[i]),
                        float(candidates.start_high[i]),
                        float(candidates.end_low[i]),
                        float(candidates.end_high[i]),
                    )
                    if key in existing:
                        eligible[candidate_index] = False

        if not eligible.any():
            return None
        masked_benefits = np.where(eligible, benefits, -np.inf)
        return int(np.argmax(masked_benefits))
