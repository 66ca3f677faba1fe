"""The adaptive cost-based clustering index (Sections 3–6).

:class:`AdaptiveClusteringIndex` is the paper's primary contribution: a flat
collection of variable-size clusters organised in a (conceptual) hierarchy,
whose granularity adapts to the observed data and query distributions under
the cost model of Section 5.

Public interface
----------------
``insert(object_id, box)``
    Place an extended object in the matching cluster with the lowest access
    probability (Fig. 4 of the paper).
``delete(object_id)``
    Remove an object.
``query(box, relation)`` / ``execute(box, relation)``
    Execute a spatial selection (Fig. 5); ``execute`` returns a
    :class:`~repro.api.protocol.QueryResult` carrying the per-query work
    counters used by the evaluation harness.
``query_batch(queries, relation)`` / ``execute_batch(...)``
    Execute a whole workload in one vectorised pass: signatures of all
    clusters are pruned for all queries with one broadcasted comparison
    and member verification runs once per surviving cluster.  Results and
    counters are identical to the per-query loop.
``reorganize()`` / ``maybe_reorganize()``
    Run the merge / split reorganization pass (Figs. 1–3); automatically
    triggered every ``reorganization_period`` queries.
``snapshot()`` / ``check_invariants()``
    Introspection helpers used by tests, examples and experiments.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.api.protocol import BackendBase, Capabilities, QueryResult
from repro.core.cluster import Cluster
from repro.core.clustering_function import ClusteringFunction
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import StorageScenario
from repro.core.reorganize import ReorganizationReport, Reorganizer
from repro.core.signature import ClusterSignature
from repro.core.statistics import ClusterSnapshot, IndexSnapshot, QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.storage import StorageBackend, storage_for_scenario


#: Upper bound on (query, object) pairs a single batch-execution chunk may
#: materialize; chunks are split to stay under it (worst case: every query
#: of the chunk explores every object).
_PAIR_BUDGET = 8_000_000

#: Reorganization passes changing at most this many clusters update the
#: stacked matrices row-by-row; larger passes invalidate them wholesale and
#: rebuild lazily (cheaper than many incremental splices).
_INCREMENTAL_REORG_LIMIT = 8


class AdaptiveClusteringIndex(BackendBase):
    """Adaptive cost-based clustering of multidimensional extended objects."""

    CAPABILITIES = Capabilities(
        name="ac",
        label="AC",
        supports_delete_bulk=True,
        supports_persistence=True,
        supports_reorganization=True,
    )

    def __init__(
        self,
        dimensions: Optional[int] = None,
        config: Optional[AdaptiveClusteringConfig] = None,
        storage: Optional[StorageBackend] = None,
    ) -> None:
        """Create an empty index.

        Parameters
        ----------
        dimensions:
            Dimensionality of the data space.  Optional when *config* is
            given (the config already fixes it).
        config:
            Full configuration; defaults to the in-memory scenario with the
            paper's constants.
        storage:
            Storage backend; defaults to the backend matching the config's
            storage scenario.
        """
        if config is None:
            if dimensions is None:
                raise ValueError("either dimensions or config must be provided")
            config = AdaptiveClusteringConfig.for_memory(dimensions)
        elif dimensions is not None and dimensions != config.dimensions:
            raise ValueError(
                f"dimensions ({dimensions}) disagrees with config "
                f"({config.dimensions})"
            )
        self._config = config
        self._clustering_function = ClusteringFunction(config.division_factor)
        self._reorganizer = Reorganizer(config)
        self._storage = storage or storage_for_scenario(
            config.scenario, config.cost, config.reserved_slot_fraction
        )

        self._clusters: Dict[int, Cluster] = {}
        self._object_locations: Dict[int, int] = {}
        self._next_cluster_id = 0
        self._total_queries = 0
        self._queries_since_reorganization = 0
        self._reorganization_count = 0
        # Stacked signature arrays of every materialized cluster, maintained
        # incrementally (row append on materialize, row delete on merge) so
        # queries and insertions match all cluster signatures with a handful
        # of vectorised comparisons instead of a per-cluster Python loop.
        self._signature_matrix: Optional[Tuple[np.ndarray, ...]] = None
        self._signature_cluster_ids: List[int] = []
        self._signature_constrained: Optional[np.ndarray] = None
        # Stacked candidate descriptors of every materialized cluster
        # (refined dimension + bounds), maintained alongside the signature
        # matrix.  ``_candidate_offsets[row]`` is the first candidate row of
        # cluster ``_signature_cluster_ids[row]``.
        # ``_candidate_query_counts`` backs every cluster's
        # ``candidates.query_counts`` as slice views, so batch execution
        # updates the counters of the clusters a chunk explored with one
        # vectorised add at those clusters' candidate rows.
        self._candidate_matrix: Optional[Tuple[np.ndarray, ...]] = None
        self._candidate_offsets: Optional[np.ndarray] = None
        self._candidate_query_counts: Optional[np.ndarray] = None
        # Grid decomposition of the candidate families (see
        # _ensure_candidate_grid): lets batch execution count matching
        # candidates per (explored cluster, dimension) with a small
        # histogram instead of one comparison per (candidate, query) pair.
        # None = not built yet; () = verification failed, use the pairwise
        # path.
        self._candidate_grid: "Optional[Tuple[np.ndarray, ...]]" = None
        # Transposed concatenation of every cluster's member bounds, kept
        # contiguous per dimension so the verification cascade gathers from
        # cache-friendly rows.  Invalidated by any member mutation.
        self._member_matrix: Optional[Tuple[np.ndarray, ...]] = None
        # True while a reorganization pass runs: per-row matrix maintenance
        # is deferred and applied once at the end of the pass.
        self._matrix_maintenance_suspended = False

        root = self._new_cluster(ClusterSignature.root(config.dimensions), parent=None)
        self._root_id = root.cluster_id

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def config(self) -> AdaptiveClusteringConfig:
        """The index configuration."""
        return self._config

    @property
    def dimensions(self) -> int:
        """Dimensionality of the data space."""
        return self._config.dimensions

    @property
    def storage(self) -> StorageBackend:
        """The storage backend accounting for I/O."""
        return self._storage

    @property
    def n_objects(self) -> int:
        """Number of indexed objects."""
        return len(self._object_locations)

    @property
    def n_clusters(self) -> int:
        """Number of materialized clusters (including the root)."""
        return len(self._clusters)

    @property
    def n_groups(self) -> int:
        """Number of explorable groups: the materialized cluster count."""
        return self.n_clusters

    @property
    def total_queries(self) -> int:
        """Number of spatial queries executed so far."""
        return self._total_queries

    @property
    def reorganization_count(self) -> int:
        """Number of reorganization passes executed so far."""
        return self._reorganization_count

    @property
    def queries_since_reorganization(self) -> int:
        """Queries executed since the last reorganization pass.

        Drives the automatic reorganization schedule; persisted by
        :mod:`repro.core.persistence` so a recovered index reorganizes on
        the same schedule as the one that was saved.
        """
        return self._queries_since_reorganization

    @property
    def root(self) -> Cluster:
        """The root cluster (accepts every object)."""
        return self._clusters[self._root_id]

    def __len__(self) -> int:
        return self.n_objects

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._object_locations

    def clusters(self) -> List[Cluster]:
        """All materialized clusters (stable id order)."""
        return [self._clusters[cid] for cid in sorted(self._clusters)]

    def get_cluster(self, cluster_id: Optional[int]) -> Optional[Cluster]:
        """Return a cluster by id, or ``None`` when absent."""
        if cluster_id is None:
            return None
        return self._clusters.get(cluster_id)

    def cluster_of(self, object_id: int) -> Optional[int]:
        """Identifier of the cluster currently hosting *object_id*."""
        return self._object_locations.get(object_id)

    def cluster_ids_top_down(self) -> List[int]:
        """Cluster identifiers in breadth-first order from the root."""
        order: List[int] = []
        queue = deque([self._root_id])
        seen: Set[int] = set()
        while queue:
            cluster_id = queue.popleft()
            if cluster_id in seen or cluster_id not in self._clusters:
                continue
            seen.add(cluster_id)
            order.append(cluster_id)
            queue.extend(sorted(self._clusters[cluster_id].children_ids))
        return order

    def cluster_depth(self, cluster_id: int) -> int:
        """Depth of a cluster in the hierarchy (root is 0)."""
        depth = 0
        cluster = self._clusters[cluster_id]
        while cluster.parent_id is not None:
            depth += 1
            cluster = self._clusters[cluster.parent_id]
        return depth

    def child_single_dimension_overrides(
        self, cluster: Cluster
    ) -> Set[Tuple[int, float, float, float, float]]:
        """Constraint overrides of children differing from *cluster* in one dimension.

        Every entry is ``(dimension, start_low, start_high, end_low,
        end_high)``.  A candidate signature equals a child's signature
        exactly when the child differs from the parent in the candidate's
        refined dimension alone with these bounds, so the reorganizer can
        deduplicate candidates against this set without constructing any
        :class:`ClusterSignature` objects.
        """
        parent = cluster.signature
        overrides: Set[Tuple[int, float, float, float, float]] = set()
        for child_id in cluster.children_ids:
            child = self._clusters.get(child_id)
            if child is None:
                continue
            sig = child.signature
            differs = np.flatnonzero(
                (parent.start_low != sig.start_low)
                | (parent.start_high != sig.start_high)
                | (parent.end_low != sig.end_low)
                | (parent.end_high != sig.end_high)
            )
            if differs.size == 1:
                dim = int(differs[0])
                overrides.add(
                    (
                        dim,
                        float(sig.start_low[dim]),
                        float(sig.start_high[dim]),
                        float(sig.end_low[dim]),
                        float(sig.end_high[dim]),
                    )
                )
        return overrides

    def can_materialize_more(self) -> bool:
        """True while the optional ``max_clusters`` cap allows another split."""
        cap = self._config.max_clusters
        return cap is None or self.n_clusters < cap

    # ==================================================================
    # Insertion / deletion (Fig. 4)
    # ==================================================================
    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        """Insert an extended object.

        The object is placed in the matching materialized cluster with the
        lowest access probability (the root always matches, so placement
        never fails).
        """
        self._validate_object(object_id, obj)
        if object_id in self._object_locations:
            raise KeyError(f"object {object_id} is already indexed")
        target = self._select_insertion_cluster(obj)
        grew = target.add_object(object_id, obj)
        self._object_locations[object_id] = target.cluster_id
        self._storage.on_objects_appended(target.cluster_id, 1)
        self._invalidate_member_matrix()
        del grew  # in-memory growth is tracked by the storage layout instead

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        """Insert many objects at once.

        The whole batch is routed with one vectorised signature match per
        cluster (the same placement rule as :meth:`insert`, evaluated for
        all objects at once) and appended cluster by cluster, so bulk loads
        stay fast even after the index has materialized many clusters.

        Returns the number of objects loaded.
        """
        pairs = list(objects)
        if not pairs:
            return 0
        ids = np.empty(len(pairs), dtype=np.int64)
        lows = np.empty((len(pairs), self.dimensions), dtype=np.float64)
        highs = np.empty((len(pairs), self.dimensions), dtype=np.float64)
        for row, (object_id, obj) in enumerate(pairs):
            self._validate_object(object_id, obj)
            if object_id in self._object_locations:
                raise KeyError(f"object {object_id} is already indexed")
            ids[row] = object_id
            lows[row] = obj.lows
            highs[row] = obj.highs
        if len(np.unique(ids)) != len(ids):
            raise KeyError("bulk_load received duplicate object identifiers")

        if self.n_clusters == 1:
            assignments = np.zeros(len(pairs), dtype=np.int64)
        else:
            assignments = self._route_objects_bulk(lows, highs)
        for row_index in np.unique(assignments):
            target = self._clusters[self._signature_cluster_ids[int(row_index)]] \
                if self._signature_cluster_ids else self.root
            member_rows = assignments == row_index
            count = int(member_rows.sum())
            target.add_objects_bulk(ids[member_rows], lows[member_rows], highs[member_rows])
            for object_id in ids[member_rows]:
                self._object_locations[int(object_id)] = target.cluster_id
            self._storage.on_objects_appended(target.cluster_id, count)
        self._invalidate_member_matrix()
        return len(pairs)

    def delete(self, object_id: int) -> bool:
        """Remove an object; returns ``False`` when it was not indexed."""
        cluster_id = self._object_locations.pop(object_id, None)
        if cluster_id is None:
            return False
        cluster = self._clusters[cluster_id]
        removed = cluster.remove_object(object_id)
        if removed is None:  # pragma: no cover - defensive, should not happen
            raise RuntimeError(
                f"object {object_id} mapped to cluster {cluster_id} but was "
                "not stored there"
            )
        self._storage.on_objects_removed(cluster_id, 1)
        self._invalidate_member_matrix()
        return True

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Remove a batch of objects; returns the number actually removed.

        Equivalent to calling :meth:`delete` for every identifier
        (identifiers that are not indexed are ignored), but every touched
        cluster removes its members with one vectorised mask and the
        member matrix is invalidated once for the whole batch, so churn
        bursts — the streaming engine's unsubscribe path — do not pay a
        per-object maintenance round-trip.  The signature and candidate
        matrices are untouched: deletion never changes cluster signatures
        or candidate descriptors, only member rows (dropped here) and
        candidate object counts (patched per touched cluster).
        """
        by_cluster: Dict[int, List[int]] = {}
        for object_id in object_ids:
            cluster_id = self._object_locations.pop(int(object_id), None)
            if cluster_id is not None:
                by_cluster.setdefault(cluster_id, []).append(int(object_id))
        if not by_cluster:
            return 0
        removed = 0
        for cluster_id, ids in by_cluster.items():
            cluster = self._clusters[cluster_id]
            count = cluster.remove_objects_bulk(np.asarray(ids, dtype=np.int64))
            if count != len(ids):  # pragma: no cover - defensive
                raise RuntimeError(
                    f"cluster {cluster_id} stored {count} of {len(ids)} objects "
                    "mapped to it"
                )
            self._storage.on_objects_removed(cluster_id, count)
            removed += count
        self._invalidate_member_matrix()
        return removed

    def get(self, object_id: int) -> Optional[HyperRectangle]:
        """Return the box of an indexed object, or ``None``."""
        cluster_id = self._object_locations.get(object_id)
        if cluster_id is None:
            return None
        store = self._clusters[cluster_id].store
        rows = np.flatnonzero(store.ids == object_id)
        if rows.size == 0:  # pragma: no cover - defensive
            return None
        row = int(rows[0])
        return HyperRectangle(store.lows[row], store.highs[row])

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        """Every indexed object as ``(id, box)`` in ascending-id order.

        The order is independent of the clustering layout, so draining one
        index and bulk-loading another reproduces the same structure a
        from-scratch rebuild would (the shard-migration contract).
        """
        stores = [self._clusters[cid].store for cid in sorted(self._clusters)]
        stores = [store for store in stores if len(store)]
        if not stores:
            return
        ids = np.concatenate([store.ids for store in stores])
        lows = np.concatenate([store.lows for store in stores])
        highs = np.concatenate([store.highs for store in stores])
        for row in np.argsort(ids, kind="stable"):
            yield int(ids[row]), HyperRectangle(lows[row], highs[row])

    def _select_insertion_cluster(self, obj: HyperRectangle) -> Cluster:
        """Matching cluster with the lowest access probability (Fig. 4, step 1)."""
        row = int(self._route_objects_bulk(obj.lows[None, :], obj.highs[None, :])[0])
        return self._clusters[self._signature_cluster_ids[row]]

    def _cluster_access_probabilities(self) -> np.ndarray:
        """Access probability of every cluster, in signature-matrix row order."""
        total = self._total_queries
        probabilities = np.empty(len(self._signature_cluster_ids), dtype=np.float64)
        for row, cluster_id in enumerate(self._signature_cluster_ids):
            probabilities[row] = self._clusters[cluster_id].access_probability(total)
        return probabilities

    def _route_objects_bulk(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Signature-matrix placement of a batch of objects (Fig. 4, step 1).

        Returns, for every object row, the signature-matrix row of the
        matching cluster with the lowest access probability, with the same
        tie-breaks as sequential insertion: prefer the most refined
        signature, then the smaller cluster (counting the objects of this
        very batch already routed to it), then the lowest cluster id.

        The batch is processed in slices so the broadcast temporaries stay
        bounded, and the member-count tie-break is replayed with one
        ``bincount`` per unambiguous stretch — only genuinely tied rows pay
        a Python-level step.
        """
        if self._signature_matrix is None:
            self._rebuild_signature_matrix()
        start_low, start_high, end_low, end_high = self._signature_matrix
        n_rows = len(self._signature_cluster_ids)
        root_row = self._signature_cluster_ids.index(self._root_id)
        probabilities = self._cluster_access_probabilities()
        constrained = self._signature_constrained

        total = lows.shape[0]
        choice = np.empty(total, dtype=np.int64)
        #: Member counts including this batch's earlier placements; built
        #: lazily when the first probability/refinement tie appears.
        counts: Optional[np.ndarray] = None
        step = max(1, _PAIR_BUDGET // max(n_rows * self.dimensions, 1))
        for begin in range(0, total, step):
            stop = min(begin + step, total)
            chunk_lows = lows[begin:stop, None, :]
            chunk_highs = highs[begin:stop, None, :]
            matches = np.all(
                (start_low[None] <= chunk_lows)
                & (chunk_lows <= start_high[None])
                & (end_low[None] <= chunk_highs)
                & (chunk_highs <= end_high[None]),
                axis=2,
            )
            # Objects outside every signature (including the root's domain)
            # fall back to the root, mirroring the old loop's defensive
            # branch.
            matches[~matches.any(axis=1), root_row] = True

            masked = np.where(matches, probabilities[None, :], np.inf)
            best_probability = masked.min(axis=1)
            ties = matches & (probabilities[None, :] == best_probability[:, None])
            refinement = np.where(ties, constrained[None, :], -1)
            best_refinement = refinement.max(axis=1)
            ties &= constrained[None, :] == best_refinement[:, None]

            # argmax picks the first (lowest cluster id) among remaining
            # ties — the same winner as the old first-strictly-smaller-key
            # loop.
            chunk_choice = np.argmax(ties, axis=1)
            ambiguous_rows = np.flatnonzero(ties.sum(axis=1) > 1)
            if counts is None and ambiguous_rows.size:
                counts = np.fromiter(
                    (
                        self._clusters[cluster_id].n_objects
                        for cluster_id in self._signature_cluster_ids
                    ),
                    dtype=np.int64,
                    count=n_rows,
                )
                counts += np.bincount(choice[:begin], minlength=n_rows)
            if counts is not None:
                previous = 0
                for row in ambiguous_rows:
                    row = int(row)
                    counts += np.bincount(chunk_choice[previous:row], minlength=n_rows)
                    candidates = np.flatnonzero(ties[row])
                    chunk_choice[row] = candidates[np.argmin(counts[candidates])]
                    counts[chunk_choice[row]] += 1
                    previous = row + 1
                counts += np.bincount(chunk_choice[previous:], minlength=n_rows)
            choice[begin:stop] = chunk_choice
        return choice

    def _validate_object(self, object_id: int, obj: HyperRectangle) -> None:
        if obj.dimensions != self.dimensions:
            raise ValueError(
                f"object has {obj.dimensions} dimensions, index expects "
                f"{self.dimensions}"
            )
        if not isinstance(object_id, (int, np.integer)):
            raise TypeError("object_id must be an integer")

    # ==================================================================
    # Query execution (Fig. 5)
    # ==================================================================
    def execute(
        self,
        query: HyperRectangle,
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> QueryResult:
        """Execute a spatial selection and return ids plus execution counters."""
        relation = SpatialRelation.parse(relation)
        if query.dimensions != self.dimensions:
            raise ValueError(
                f"query has {query.dimensions} dimensions, index expects "
                f"{self.dimensions}"
            )
        start = time.perf_counter()
        execution = QueryExecution()
        matches: List[np.ndarray] = []
        object_bytes = self._config.cost.object_bytes
        disk = self._config.scenario is StorageScenario.DISK

        execution.signature_checks = self.n_clusters
        for cluster in self._matching_clusters(query, relation):
            execution.groups_explored += 1
            execution.objects_verified += cluster.n_objects
            execution.bytes_read += cluster.n_objects * object_bytes
            if disk:
                execution.random_accesses += 1
            self._storage.on_cluster_read(cluster.cluster_id, cluster.n_objects)
            found = cluster.verify_members(query, relation)
            if found.size:
                matches.append(found)
            cluster.record_exploration(query, relation)

        results = np.concatenate(matches) if matches else np.empty(0, dtype=np.int64)
        execution.results = int(results.size)
        execution.wall_time_ms = (time.perf_counter() - start) * 1000.0

        self._total_queries += 1
        self._queries_since_reorganization += 1
        self.maybe_reorganize()
        return QueryResult(ids=results, execution=execution)

    # ------------------------------------------------------------------
    # Batch query execution
    # ------------------------------------------------------------------
    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Batch variant of :meth:`execute`.

        The workload is stacked into ``(m, Nd)`` arrays, every cluster is
        pruned for every query with one broadcasted signature comparison,
        and member verification runs once per surviving cluster for all of
        its queries together.  Per-query :class:`QueryExecution` counters
        are produced exactly as the per-query loop would, and the batch is
        split at reorganization boundaries so automatic reorganizations
        fire after the same query they would fire after in a loop —
        results are identical to executing the queries one at a time.
        """
        relation = SpatialRelation.parse(relation)
        query_list = list(queries)
        for query in query_list:
            if query.dimensions != self.dimensions:
                raise ValueError(
                    f"query has {query.dimensions} dimensions, index expects "
                    f"{self.dimensions}"
                )
        total = len(query_list)
        results: List[Optional[np.ndarray]] = [None] * total
        executions: List[Optional[QueryExecution]] = [None] * total
        if total == 0:
            return []
        q_lows = np.vstack([query.lows for query in query_list])
        q_highs = np.vstack([query.highs for query in query_list])

        if self._signature_matrix is not None and not self._candidate_views_valid():
            # Copies (deepcopy / pickle) break the aliasing between the
            # shared counter buffer and the per-cluster views; re-adopt the
            # current per-cluster values (row layout is unchanged, so the
            # other cached matrices stay valid).
            self._adopt_candidate_query_counts(
                np.concatenate(
                    [
                        self._clusters[cid].candidates.query_counts
                        for cid in self._signature_cluster_ids
                    ]
                )
            )

        position = 0
        period = self._config.reorganization_period
        chunked = self._config.auto_reorganize and period > 0
        while position < total:
            chunk = total - position
            if chunked:
                remaining = period - self._queries_since_reorganization
                chunk = min(chunk, max(remaining, 1))
            # Cap the chunk so the (query, object) pair expansion of the
            # verification cascade stays bounded even for reorganization-free
            # batches over large databases (worst case: every query explores
            # every object).
            chunk = min(chunk, max(1, _PAIR_BUDGET // max(self.n_objects, 1)))
            end = position + chunk
            self._execute_query_chunk(
                q_lows[position:end],
                q_highs[position:end],
                relation,
                results,
                executions,
                position,
            )
            self._total_queries += chunk
            self._queries_since_reorganization += chunk
            self.maybe_reorganize()
            position = end
        return [
            QueryResult(ids=ids, execution=execution)  # type: ignore[arg-type]
            for ids, execution in zip(results, executions)
        ]

    @staticmethod
    def _ragged_arange(lengths: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """Concatenate ``[arange(s, s + l) for s, l in zip(starts, lengths)]``."""
        total = int(lengths.sum())
        block_starts = np.cumsum(lengths) - lengths
        return np.arange(total, dtype=np.int64) + np.repeat(starts - block_starts, lengths)

    def _execute_query_chunk(
        self,
        q_lows: np.ndarray,
        q_highs: np.ndarray,
        relation: SpatialRelation,
        results: List[Optional[np.ndarray]],
        executions: List[Optional[QueryExecution]],
        offset: int,
    ) -> None:
        """Execute a reorganization-free slice of a query batch.

        The whole slice runs as a handful of fused array computations:

        1. one broadcasted signature comparison prunes all clusters for all
           queries at once;
        2. member verification expands the surviving (query, cluster) pairs
           into a (query, object) pair list and narrows it one dimension at
           a time — pairs that fail an early dimension never pay for the
           remaining ones, unlike the dense per-cluster broadcast;
        3. candidate query counters are updated for the explored clusters
           only — the paper's ``q(s)`` rule — from one histogram over those
           clusters, so the cost scales with the visits, not with the
           number of clusters.
        """
        start = time.perf_counter()
        count = q_lows.shape[0]
        if self._signature_matrix is None:
            self._rebuild_signature_matrix()
        start_low, start_high, end_low, end_high = self._signature_matrix
        # Prune all clusters for all queries, one dimension at a time on a
        # cache-resident (queries, clusters) mask.
        explore: Optional[np.ndarray] = None
        for dim in range(self.dimensions):
            if relation is SpatialRelation.INTERSECTS:
                admits = (start_low[:, dim][None, :] <= q_highs[:, dim][:, None]) & (
                    end_high[:, dim][None, :] >= q_lows[:, dim][:, None]
                )
            elif relation is SpatialRelation.CONTAINED_BY:
                admits = (start_high[:, dim][None, :] >= q_lows[:, dim][:, None]) & (
                    end_low[:, dim][None, :] <= q_highs[:, dim][:, None]
                )
            elif relation is SpatialRelation.CONTAINS:
                admits = (start_low[:, dim][None, :] <= q_lows[:, dim][:, None]) & (
                    end_high[:, dim][None, :] >= q_highs[:, dim][:, None]
                )
            else:  # pragma: no cover - relation is validated by the caller
                raise ValueError(f"unsupported relation: {relation!r}")
            if explore is None:
                explore = admits
            else:
                np.logical_and(explore, admits, out=explore)

        n_clusters = self.n_clusters
        object_bytes = self._config.cost.object_bytes
        disk = self._config.scenario is StorageScenario.DISK
        dimensions = self.dimensions
        groups_explored = explore.sum(axis=1)

        member_lows_t, member_highs_t, member_ids, member_starts = self._ensure_member_matrix()
        sizes = np.empty(len(self._signature_cluster_ids), dtype=np.int64)
        sizes[:-1] = member_starts[1:] - member_starts[:-1]
        sizes[-1] = member_ids.shape[0] - member_starts[-1]
        objects_verified = explore.astype(np.int64) @ sizes

        # Visits ordered column-major: ascending cluster row, then ascending
        # query row — the order the per-query loop explores clusters in.
        visit_col, visit_q = np.nonzero(explore.T)
        visits_per_col = explore.sum(axis=0)
        explored_cols = np.flatnonzero(visits_per_col)
        self._storage.on_cluster_reads_bulk(sizes[explored_cols], visits_per_col[explored_cols])
        for column in explored_cols:
            cluster = self._clusters[self._signature_cluster_ids[int(column)]]
            cluster.query_count += int(visits_per_col[column])

        # ---- member verification: (query, object) pair cascade ----------
        keep_visit = sizes[visit_col] > 0
        pair_q = pair_obj = None
        if keep_visit.any():
            v_col = visit_col[keep_visit]
            v_q = visit_q[keep_visit]
            lengths = sizes[v_col]
            # One fused repeat expands both the query index and the ragged
            # arange offset for every pair.
            block_starts = np.cumsum(lengths) - lengths
            expanded = np.repeat(
                np.stack([v_q, member_starts[v_col] - block_starts]),
                lengths,
                axis=1,
            )
            pair_q = expanded[0]
            pair_obj = np.arange(int(lengths.sum()), dtype=np.int64) + expanded[1]

            q_lows_t = np.ascontiguousarray(q_lows.T)
            q_highs_t = np.ascontiguousarray(q_highs.T)

            def dim_alive(dim: int, obj_rows: np.ndarray, query_rows: np.ndarray) -> np.ndarray:
                obj_low = member_lows_t[dim].take(obj_rows)
                obj_high = member_highs_t[dim].take(obj_rows)
                query_low = q_lows_t[dim].take(query_rows)
                query_high = q_highs_t[dim].take(query_rows)
                if relation is SpatialRelation.INTERSECTS:
                    return (obj_low <= query_high) & (query_low <= obj_high)
                if relation is SpatialRelation.CONTAINED_BY:
                    return (query_low <= obj_low) & (obj_high <= query_high)
                # CONTAINS
                return (obj_low <= query_low) & (query_high <= obj_high)

            # Evaluate the most selective dimensions first (estimated on a
            # strided sample) so the pair list shrinks as fast as possible;
            # the surviving set is the same whatever the order.
            if pair_obj.size > 16_384:
                step = max(1, pair_obj.size // 1024)
                sample_obj = pair_obj[::step]
                sample_q = pair_q[::step]
                sample_rates = np.array(
                    [
                        dim_alive(dim, sample_obj, sample_q).mean()
                        for dim in range(dimensions)
                    ]
                )
                dim_order = np.argsort(sample_rates, kind="stable")
            else:
                dim_order = np.arange(dimensions)

            for dim in dim_order:
                if pair_obj.size == 0:
                    break
                alive = dim_alive(int(dim), pair_obj, pair_q)
                survivors = np.flatnonzero(alive)
                pair_obj = pair_obj.take(survivors)
                pair_q = pair_q.take(survivors)

        # ---- candidate statistics: histogram over the explored clusters --
        grid = self._ensure_candidate_grid()
        cand_dim, cand_sl, cand_sh, cand_el, cand_eh = self._candidate_matrix
        cand_offsets = self._candidate_offsets
        cand_counts = cand_offsets[1:] - cand_offsets[:-1]
        if grid is not None and visit_col.size and int(cand_offsets[-1]):
            grid_s_low, grid_s_high, grid_e_low, grid_e_high, cell_prefix, cell_suffix = grid
            factor = self._config.division_factor
            side = factor + 1
            visit_q_lows = q_lows[visit_q][:, :, None]
            visit_q_highs = q_highs[visit_q][:, :, None]
            if relation is SpatialRelation.INTERSECTS:
                pass_a = (grid_s_low[visit_col] <= visit_q_highs).sum(axis=2)
                pass_b = (grid_e_high[visit_col] >= visit_q_lows).sum(axis=2)
                cells = cell_prefix
            elif relation is SpatialRelation.CONTAINED_BY:
                pass_a = (grid_s_high[visit_col] >= visit_q_lows).sum(axis=2)
                pass_b = (grid_e_low[visit_col] <= visit_q_highs).sum(axis=2)
                cells = cell_suffix
            else:  # CONTAINS
                pass_a = (grid_s_low[visit_col] <= visit_q_lows).sum(axis=2)
                pass_b = (grid_e_high[visit_col] >= visit_q_highs).sum(axis=2)
                cells = cell_prefix
            # Histogram rows are indexed by the compact position of each
            # explored cluster (visit_col is ascending, so each explored
            # column's visits form one run); unexplored clusters would only
            # contribute zeros.
            n_explored = explored_cols.size
            block = dimensions * side * side
            compact = np.repeat(np.arange(n_explored), visits_per_col[explored_cols])
            rows_cd = compact[:, None] * dimensions + np.arange(dimensions)[None, :]
            code = (rows_cd * side + pass_a) * side + pass_b
            hist = np.bincount(code.ravel(), minlength=n_explored * block).reshape(-1, side, side)
            # S[tA, tB] = number of visits with pass_a >= tA and pass_b >= tB.
            suffix = hist[:, ::-1, ::-1].cumsum(axis=1).cumsum(axis=2)[:, ::-1, ::-1]
            # Candidate rows of the explored clusters, and their cells moved
            # from cluster-row to compact-row histogram blocks.
            lengths = cand_counts[explored_cols]
            cand_idx = self._ragged_arange(lengths, cand_offsets[explored_cols])
            shift = np.repeat((explored_cols - np.arange(n_explored)) * block, lengths)
            counts = np.ascontiguousarray(suffix).reshape(-1).take(cells.take(cand_idx) - shift)
            # cand_idx is unique, so the fancy add writes each counter once.
            self._candidate_query_counts[cand_idx] += counts
            with_cands = np.zeros(0, dtype=bool)
        else:
            with_cands = cand_counts[visit_col] > 0
        if with_cands.any():
            c_col = visit_col[with_cands]
            c_q = visit_q[with_cands]
            lengths = cand_counts[c_col]
            cq = np.repeat(c_q, lengths)
            cand_idx = self._ragged_arange(lengths, cand_offsets[:-1][c_col])
            # Flattened (dimension, query) lookup: one contiguous gather per
            # bound instead of two 2-d fancy gathers.
            flat = cand_dim.take(cand_idx) * count + cq
            q_lows_flat = np.ascontiguousarray(q_lows.T).ravel()
            q_highs_flat = np.ascontiguousarray(q_highs.T).ravel()
            query_low = q_lows_flat.take(flat)
            query_high = q_highs_flat.take(flat)
            if relation is SpatialRelation.INTERSECTS:
                matched = (cand_sl.take(cand_idx) <= query_high) & (
                    cand_eh.take(cand_idx) >= query_low
                )
            elif relation is SpatialRelation.CONTAINED_BY:
                matched = (cand_sh.take(cand_idx) >= query_low) & (
                    cand_el.take(cand_idx) <= query_high
                )
            else:  # CONTAINS
                matched = (cand_sl.take(cand_idx) <= query_low) & (
                    cand_eh.take(cand_idx) >= query_high
                )
            self._candidate_query_counts += np.bincount(
                cand_idx, weights=matched, minlength=int(cand_offsets[-1])
            ).astype(np.int64)

        # ---- per-query results and counters -----------------------------
        if pair_q is not None and pair_q.size:
            matched_ids = member_ids.take(pair_obj)
            # Stable sort by query preserves the per-query cluster/member
            # order the loop produces.
            order = np.argsort(pair_q, kind="stable")
            sorted_ids = matched_ids.take(order)
            counts_per_query = np.bincount(pair_q, minlength=count)
            bounds = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(counts_per_query, out=bounds[1:])
        else:
            sorted_ids = np.empty(0, dtype=np.int64)
            bounds = np.zeros(count + 1, dtype=np.int64)

        per_query_ms = (time.perf_counter() - start) * 1000.0 / count
        for row in range(count):
            ids = sorted_ids[bounds[row] : bounds[row + 1]].copy()
            results[offset + row] = ids
            executions[offset + row] = QueryExecution(
                signature_checks=n_clusters,
                groups_explored=int(groups_explored[row]),
                objects_verified=int(objects_verified[row]),
                results=int(ids.size),
                bytes_read=int(objects_verified[row]) * object_bytes,
                random_accesses=int(groups_explored[row]) if disk else 0,
                wall_time_ms=per_query_ms,
            )

    # ------------------------------------------------------------------
    # Vectorised cluster pruning
    # ------------------------------------------------------------------
    def _invalidate_signature_matrix(self) -> None:
        self._signature_matrix = None
        self._signature_cluster_ids = []
        self._signature_constrained = None
        self._candidate_matrix = None
        self._candidate_offsets = None
        self._candidate_query_counts = None
        self._candidate_grid = None
        self._member_matrix = None

    def _invalidate_member_matrix(self) -> None:
        self._member_matrix = None

    def _rebuild_signature_matrix(self) -> None:
        cluster_ids = sorted(self._clusters)
        start_low = np.vstack([self._clusters[cid].signature.start_low for cid in cluster_ids])
        start_high = np.vstack([self._clusters[cid].signature.start_high for cid in cluster_ids])
        end_low = np.vstack([self._clusters[cid].signature.end_low for cid in cluster_ids])
        end_high = np.vstack([self._clusters[cid].signature.end_high for cid in cluster_ids])
        self._signature_matrix = (start_low, start_high, end_low, end_high)
        self._signature_cluster_ids = cluster_ids
        # Vectorised equivalent of len(signature.constrained_dimensions())
        # per cluster (for the unit domain [0, 1]).
        unconstrained = (
            (start_low <= 0.0)
            & (start_high >= 1.0)
            & (end_low <= 0.0)
            & (end_high >= 1.0)
        )
        self._signature_constrained = (~unconstrained).sum(axis=1).astype(np.int64)
        candidate_sets = [self._clusters[cid].candidates for cid in cluster_ids]
        counts = np.array([len(cands) for cands in candidate_sets], dtype=np.int64)
        offsets = np.zeros(len(cluster_ids) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        self._candidate_offsets = offsets
        self._candidate_matrix = (
            np.concatenate([cands.dimension for cands in candidate_sets]),
            np.concatenate([cands.start_low for cands in candidate_sets]),
            np.concatenate([cands.start_high for cands in candidate_sets]),
            np.concatenate([cands.end_low for cands in candidate_sets]),
            np.concatenate([cands.end_high for cands in candidate_sets]),
        )
        self._adopt_candidate_query_counts(
            np.concatenate([cands.query_counts for cands in candidate_sets])
        )
        self._candidate_grid = None
        self._member_matrix = None

    def _adopt_candidate_query_counts(self, stacked: np.ndarray) -> None:
        """Make *stacked* the backing buffer of every cluster's ``q(s)`` vector.

        Each cluster's ``candidates.query_counts`` becomes a slice view of
        the shared buffer, so batch execution increments the counters of
        all explored clusters with a single vectorised add while per-query
        execution keeps writing through the views.
        """
        offsets = self._candidate_offsets
        self._candidate_query_counts = stacked
        for row, cluster_id in enumerate(self._signature_cluster_ids):
            cluster = self._clusters.get(cluster_id)
            if cluster is None:
                # Deferred maintenance after a reorganization pass: rows of
                # other merged-away clusters are still pending removal.
                continue
            cluster.candidates.query_counts = stacked[int(offsets[row]) : int(offsets[row + 1])]

    def _candidate_views_valid(self) -> bool:
        """True while every cluster's ``q(s)`` vector still aliases the buffer.

        Copies of an index (``copy.deepcopy``, pickling) duplicate the
        views into independent arrays; detecting that here lets the copy
        lazily re-adopt a fresh shared buffer instead of silently updating
        counters nobody reads.
        """
        stacked = self._candidate_query_counts
        if stacked is None:
            return False
        for cluster_id in self._signature_cluster_ids:
            cluster = self._clusters.get(cluster_id)
            if cluster is None:
                # Mid-removal: the merged cluster is deregistered but its
                # matrix row is still present; its counters no longer matter.
                continue
            counts = cluster.candidates.query_counts
            if counts.base is not stacked and counts is not stacked:
                return False
        return True

    def _ensure_member_matrix(self) -> Tuple[np.ndarray, ...]:
        """Concatenated per-dimension member bounds of all clusters.

        Returns ``(lows_t, highs_t, ids, starts)`` where ``lows_t`` /
        ``highs_t`` are ``(Nd, n_objects)`` contiguous arrays, ``ids`` the
        matching identifiers and ``starts[row]`` the first column of the
        cluster at signature-matrix row ``row``.
        """
        if self._member_matrix is None:
            clusters = [self._clusters[cid] for cid in self._signature_cluster_ids]
            sizes = np.fromiter(
                (cluster.n_objects for cluster in clusters),
                dtype=np.int64,
                count=len(clusters),
            )
            starts = np.cumsum(sizes) - sizes
            if int(sizes.sum()):
                lows_t = np.ascontiguousarray(
                    np.concatenate([cluster.store.lows for cluster in clusters]).T
                )
                highs_t = np.ascontiguousarray(
                    np.concatenate([cluster.store.highs for cluster in clusters]).T
                )
                ids = np.concatenate([cluster.store.ids for cluster in clusters])
            else:
                lows_t = np.empty((self.dimensions, 0), dtype=np.float64)
                highs_t = np.empty((self.dimensions, 0), dtype=np.float64)
                ids = np.empty(0, dtype=np.int64)
            self._member_matrix = (lows_t, highs_t, ids, starts)
        return self._member_matrix

    def _ensure_candidate_grid(self) -> Optional[Tuple[np.ndarray, ...]]:
        """Grid decomposition of every cluster's candidate family.

        The clustering function derives candidates from a per-dimension
        grid: both variation intervals are split into ``f`` consecutive
        pieces and a candidate combines one start piece ``i`` with one end
        piece ``j``.  Matching a candidate against a query therefore only
        depends on how many grid values pass a one-sided comparison, which
        lets batch execution count matching candidates with a per
        (explored cluster, dimension) histogram over those pass counts
        instead of one comparison per (candidate, query) pair.

        Returns ``(s_low, s_high, e_low, e_high, cell_prefix, cell_suffix)``
        — the grid value arrays of shape ``(C, Nd, f)`` and the
        per-candidate flattened histogram cells for the prefix-oriented
        (INTERSECTS / CONTAINS) and suffix-oriented (CONTAINED_BY)
        relations — or ``None`` when the stored candidate bounds do not
        exactly reproduce the grid (the pairwise path is used instead).
        The cells index a ``(C · Nd, f+1, f+1)`` histogram by cluster row;
        batch execution builds the histogram for the explored rows only
        and shifts each explored cluster's cells onto its compact row.
        """
        if self._candidate_grid is None:
            self._candidate_grid = self._build_candidate_grid()
        return self._candidate_grid or None

    def _build_candidate_grid(self) -> Tuple[np.ndarray, ...]:
        factor = self._config.division_factor
        dimensions = self.dimensions
        start_low, start_high, end_low, end_high = self._signature_matrix
        s_edges = np.linspace(start_low, start_high, factor + 1, axis=-1)
        e_edges = np.linspace(end_low, end_high, factor + 1, axis=-1)
        grid_s_low = np.ascontiguousarray(s_edges[..., :factor])
        grid_s_high = np.ascontiguousarray(s_edges[..., 1:])
        grid_e_low = np.ascontiguousarray(e_edges[..., :factor])
        grid_e_high = np.ascontiguousarray(e_edges[..., 1:])

        cand_dim, cand_sl, cand_sh, cand_el, cand_eh = self._candidate_matrix
        offsets = self._candidate_offsets
        counts = offsets[1:] - offsets[:-1]
        cand_row = np.repeat(np.arange(len(self._signature_cluster_ids)), counts)
        if cand_dim.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return (grid_s_low, grid_s_high, grid_e_low, grid_e_high, empty, empty)

        start_grid = grid_s_low[cand_row, cand_dim]  # (n_cand, f)
        end_grid = grid_e_high[cand_row, cand_dim]
        i_idx = np.minimum((start_grid < cand_sl[:, None]).sum(axis=1), factor - 1)
        j_idx = np.minimum((end_grid < cand_eh[:, None]).sum(axis=1), factor - 1)
        exact = (
            np.all(start_grid[np.arange(cand_dim.size), i_idx] == cand_sl)
            and np.all(grid_s_high[cand_row, cand_dim, i_idx] == cand_sh)
            and np.all(grid_e_low[cand_row, cand_dim, j_idx] == cand_el)
            and np.all(end_grid[np.arange(cand_dim.size), j_idx] == cand_eh)
        )
        if not exact:  # pragma: no cover - defensive (custom clustering functions)
            return ()

        side = factor + 1
        base = (cand_row * dimensions + cand_dim) * side * side
        cell_prefix = base + (i_idx + 1) * side + (factor - j_idx)
        cell_suffix = base + (factor - i_idx) * side + (j_idx + 1)
        return (
            grid_s_low,
            grid_s_high,
            grid_e_low,
            grid_e_high,
            cell_prefix,
            cell_suffix,
        )

    def _append_signature_row(self, cluster: Cluster) -> None:
        """Incremental matrix maintenance: a cluster was materialized.

        Cluster ids grow monotonically, so appending keeps the matrix rows
        in ascending id order (the order ``_rebuild_signature_matrix``
        produces).
        """
        self._member_matrix = None
        if self._matrix_maintenance_suspended or self._signature_matrix is None:
            return
        if not self._candidate_views_valid():
            # A copy of the index (deepcopy / pickle) decoupled the shared
            # counter buffer from the per-cluster views; the buffer can no
            # longer be trusted as a value source, so rebuild from the
            # clusters (the new cluster is already registered).
            self._rebuild_signature_matrix()
            return
        signature = cluster.signature
        start_low, start_high, end_low, end_high = self._signature_matrix
        self._signature_matrix = (
            np.vstack([start_low, signature.start_low[None, :]]),
            np.vstack([start_high, signature.start_high[None, :]]),
            np.vstack([end_low, signature.end_low[None, :]]),
            np.vstack([end_high, signature.end_high[None, :]]),
        )
        self._signature_cluster_ids.append(cluster.cluster_id)
        self._signature_constrained = np.append(
            self._signature_constrained,
            len(signature.constrained_dimensions()),
        )
        candidates = cluster.candidates
        dimension, start_low, start_high, end_low, end_high = self._candidate_matrix
        self._candidate_matrix = (
            np.concatenate([dimension, candidates.dimension]),
            np.concatenate([start_low, candidates.start_low]),
            np.concatenate([start_high, candidates.start_high]),
            np.concatenate([end_low, candidates.end_low]),
            np.concatenate([end_high, candidates.end_high]),
        )
        self._candidate_offsets = np.append(
            self._candidate_offsets,
            self._candidate_offsets[-1] + len(candidates),
        )
        self._adopt_candidate_query_counts(
            np.concatenate(
                [self._candidate_query_counts, candidates.query_counts]
            )
        )
        self._candidate_grid = None

    def _remove_signature_row(self, cluster_id: int) -> None:
        """Incremental matrix maintenance: a cluster was merged away."""
        self._member_matrix = None
        if self._matrix_maintenance_suspended or self._signature_matrix is None:
            return
        if not self._candidate_views_valid():
            # See _append_signature_row: a decoupled buffer holds stale
            # values; rebuild from the clusters (the merged cluster is
            # already deregistered).
            self._rebuild_signature_matrix()
            return
        try:
            row = self._signature_cluster_ids.index(cluster_id)
        except ValueError:  # pragma: no cover - defensive
            self._invalidate_signature_matrix()
            return
        keep = np.ones(len(self._signature_cluster_ids), dtype=bool)
        keep[row] = False
        start_low, start_high, end_low, end_high = self._signature_matrix
        self._signature_matrix = (start_low[keep], start_high[keep], end_low[keep], end_high[keep])
        del self._signature_cluster_ids[row]
        self._signature_constrained = self._signature_constrained[keep]
        offsets = self._candidate_offsets
        first, last = int(offsets[row]), int(offsets[row + 1])
        self._candidate_matrix = tuple(
            np.concatenate([column[:first], column[last:]])
            for column in self._candidate_matrix
        )
        stacked = self._candidate_query_counts
        self._candidate_offsets = np.concatenate(
            [offsets[:row + 1], offsets[row + 2:] - (last - first)]
        )
        self._adopt_candidate_query_counts(np.concatenate([stacked[:first], stacked[last:]]))
        self._candidate_grid = None

    def _matching_clusters(self, query: HyperRectangle, relation: SpatialRelation) -> List[Cluster]:
        """Clusters whose signature is matched by the query (Fig. 5, step 2).

        Equivalent to calling ``cluster.matches_query`` on every cluster,
        evaluated with vectorised comparisons over the stacked signature
        arrays of all materialized clusters.
        """
        if self._signature_matrix is None:
            self._rebuild_signature_matrix()
        start_low, start_high, end_low, end_high = self._signature_matrix
        q_lows = query.lows
        q_highs = query.highs
        if relation is SpatialRelation.INTERSECTS:
            mask = np.all((start_low <= q_highs) & (end_high >= q_lows), axis=1)
        elif relation is SpatialRelation.CONTAINED_BY:
            mask = np.all((start_high >= q_lows) & (end_low <= q_highs), axis=1)
        elif relation is SpatialRelation.CONTAINS:
            mask = np.all((start_low <= q_lows) & (end_high >= q_highs), axis=1)
        else:  # pragma: no cover - relation is validated by the caller
            raise ValueError(f"unsupported relation: {relation!r}")
        return [self._clusters[self._signature_cluster_ids[row]] for row in np.flatnonzero(mask)]

    # ==================================================================
    # Reorganization (Figs. 1-3)
    # ==================================================================
    def maybe_reorganize(self) -> Optional[ReorganizationReport]:
        """Run a reorganization pass when the configured period elapsed."""
        period = self._config.reorganization_period
        if not self._config.auto_reorganize or period <= 0:
            return None
        if self._queries_since_reorganization < period:
            return None
        return self.reorganize()

    def reorganize(self) -> ReorganizationReport:
        """Run one merge / split reorganization pass immediately.

        Matrix maintenance is suspended for the duration of the pass and
        applied once at the end: a pass with no structural change keeps
        every cached matrix, a small pass (the steady state of an adapted
        index) patches the matrices row-by-row, and a churn-heavy pass
        invalidates them wholesale so the next query rebuilds from scratch
        (cheaper than many incremental splices).
        """
        # The reorganizer reads candidate object counts, which lazily
        # loaded clusters only gain once their member arrays are resident.
        for cluster in self._clusters.values():
            cluster.ensure_materialized()
        had_matrix = self._signature_matrix is not None
        self._matrix_maintenance_suspended = True
        try:
            report = self._reorganizer.reorganize(self)
        finally:
            self._matrix_maintenance_suspended = False
        changes = len(report.created_cluster_ids) + len(report.removed_cluster_ids)
        if changes:
            self._invalidate_member_matrix()
            if not had_matrix or changes > _INCREMENTAL_REORG_LIMIT:
                self._invalidate_signature_matrix()
            else:
                created = set(report.created_cluster_ids)
                for cluster_id in report.removed_cluster_ids:
                    if cluster_id not in created:
                        self._remove_signature_row(cluster_id)
                for cluster_id in report.created_cluster_ids:
                    cluster = self._clusters.get(cluster_id)
                    if cluster is not None:
                        self._append_signature_row(cluster)
        self._queries_since_reorganization = 0
        self._reorganization_count += 1
        return report

    def reset_statistics(self) -> None:
        """Start a fresh statistics window for every cluster."""
        for cluster in self._clusters.values():
            cluster.reset_statistics(self._total_queries)

    # ------------------------------------------------------------------
    # Reorganization mechanics (called by the Reorganizer)
    # ------------------------------------------------------------------
    def _new_cluster(self, signature: ClusterSignature, parent: Optional[Cluster]) -> Cluster:
        cluster = Cluster(
            cluster_id=self._next_cluster_id,
            signature=signature,
            clustering_function=self._clustering_function,
            parent_id=parent.cluster_id if parent is not None else None,
            creation_query=self._total_queries,
        )
        self._next_cluster_id += 1
        self._clusters[cluster.cluster_id] = cluster
        if parent is not None:
            parent.add_child(cluster.cluster_id)
        self._storage.on_cluster_created(cluster.cluster_id, 0)
        self._append_signature_row(cluster)
        return cluster

    def _materialize_candidate(self, cluster: Cluster, candidate_index: int) -> Cluster:
        """Materialize one candidate sub-cluster of *cluster* (Fig. 3, steps 3-11)."""
        signature = cluster.candidates.signature(candidate_index)
        new_cluster = self._new_cluster(signature, parent=cluster)
        ids, lows, highs = cluster.extract_matching(candidate_index)
        if ids.size:
            new_cluster.add_objects_bulk(ids, lows, highs)
            for object_id in ids:
                self._object_locations[int(object_id)] = new_cluster.cluster_id
            self._storage.on_cluster_resized(new_cluster.cluster_id, new_cluster.n_objects)
            self._storage.on_cluster_resized(cluster.cluster_id, cluster.n_objects)
        return new_cluster

    def _merge_into_parent(self, cluster: Cluster) -> Cluster:
        """Merge *cluster* back into its parent (Fig. 2)."""
        if cluster.is_root:
            raise ValueError("the root cluster cannot be merged")
        parent = self._clusters[cluster.parent_id]
        ids, lows, highs = cluster.drain_members()
        if ids.size:
            parent.add_objects_bulk(ids, lows, highs)
            for object_id in ids:
                self._object_locations[int(object_id)] = parent.cluster_id
        # Re-parent the children of the merged cluster (Fig. 2, steps 7-8).
        for child_id in list(cluster.children_ids):
            child = self._clusters.get(child_id)
            if child is None:
                continue
            child.parent_id = parent.cluster_id
            parent.add_child(child_id)
        parent.remove_child(cluster.cluster_id)
        del self._clusters[cluster.cluster_id]
        self._storage.on_cluster_removed(cluster.cluster_id)
        self._storage.on_cluster_resized(parent.cluster_id, parent.n_objects)
        self._remove_signature_row(cluster.cluster_id)
        return parent

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def snapshot(self) -> IndexSnapshot:
        """Return a read-only description of the index state."""
        clusters = [
            ClusterSnapshot(
                cluster_id=cluster.cluster_id,
                parent_id=cluster.parent_id,
                n_objects=cluster.n_objects,
                query_count=cluster.query_count,
                access_probability=cluster.access_probability(self._total_queries),
                depth=self.cluster_depth(cluster.cluster_id),
                constrained_dimensions=len(
                    cluster.signature.constrained_dimensions()
                ),
            )
            for cluster in self.clusters()
        ]
        return IndexSnapshot(
            n_objects=self.n_objects,
            n_clusters=self.n_clusters,
            total_queries=self._total_queries,
            clusters=clusters,
        )

    def save(self, path: "str | Path", include_statistics: bool = True) -> "Path":
        """Write a crash-recovery snapshot to *path* (see :mod:`repro.core.persistence`).

        The persistable half of the :class:`~repro.api.protocol.SpatialBackend`
        contract; recover with :func:`repro.core.persistence.load_index` or
        :meth:`repro.api.Database.open`.
        """
        from repro.core.persistence import save_index

        return save_index(self, path, include_statistics=include_statistics)

    def check_invariants(self) -> None:
        """Verify structural consistency; raises :class:`AssertionError` on failure.

        Checks that every object is stored exactly where the location map
        says, that cluster members match their signatures, that candidate
        statistics are consistent, that parent/child links are symmetric and
        that child signatures are contained in their parent's.
        """
        stored_total = 0
        for cluster in self._clusters.values():
            cluster.check_invariants()
            stored_total += cluster.n_objects
            for object_id in cluster.store.ids:
                location = self._object_locations.get(int(object_id))
                if location != cluster.cluster_id:
                    raise AssertionError(
                        f"object {object_id} stored in cluster "
                        f"{cluster.cluster_id} but mapped to {location}"
                    )
            if cluster.parent_id is not None:
                parent = self._clusters.get(cluster.parent_id)
                if parent is None:
                    raise AssertionError(
                        f"cluster {cluster.cluster_id} references missing "
                        f"parent {cluster.parent_id}"
                    )
                if cluster.cluster_id not in parent.children_ids:
                    raise AssertionError(
                        f"parent {parent.cluster_id} does not list child "
                        f"{cluster.cluster_id}"
                    )
                if not parent.signature.contains_signature(cluster.signature):
                    raise AssertionError(
                        f"child {cluster.cluster_id} signature is not contained "
                        f"in parent {parent.cluster_id}"
                    )
            for child_id in cluster.children_ids:
                if child_id not in self._clusters:
                    raise AssertionError(
                        f"cluster {cluster.cluster_id} lists missing child "
                        f"{child_id}"
                    )
        if stored_total != self.n_objects:
            raise AssertionError(
                f"location map tracks {self.n_objects} objects but clusters "
                f"store {stored_total}"
            )
        if self._root_id not in self._clusters:
            raise AssertionError("the root cluster disappeared")

    def __deepcopy__(self, memo: Dict[int, object]) -> "AdaptiveClusteringIndex":
        """Deep copy that restores the shared candidate-counter buffer.

        A naive deep copy duplicates the per-cluster ``query_counts`` views
        into independent arrays, decoupling them from the copied shared
        buffer; re-adopting here keeps the batch engine's single-add update
        path valid on copies.
        """
        import copy as _copy

        cls = self.__class__
        clone = cls.__new__(cls)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            setattr(clone, key, _copy.deepcopy(value, memo))
        if clone._signature_matrix is not None and not clone._candidate_views_valid():
            clone._adopt_candidate_query_counts(
                np.concatenate(
                    [
                        clone._clusters[cid].candidates.query_counts
                        for cid in clone._signature_cluster_ids
                    ]
                )
            )
        return clone

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"AdaptiveClusteringIndex(dimensions={self.dimensions}, "
            f"objects={self.n_objects}, clusters={self.n_clusters}, "
            f"queries={self._total_queries})"
        )
