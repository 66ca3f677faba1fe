"""The R*-tree access method.

Implements dynamic insertion (ChooseSubtree, forced reinsertion, R* split),
deletion with tree condensation (single and bulk), and spatial queries
returning the same :class:`~repro.core.statistics.QueryExecution` counters
as the other access methods.  Large datasets can also be bulk-loaded with
the STR packing in :mod:`repro.baselines.rtree.bulk`.

The class implements the full :class:`~repro.api.protocol.SpatialBackend`
lifecycle (via :class:`~repro.api.protocol.BackendBase`); its capability
descriptor advertises no persistence and no reorganization.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.api.protocol import BackendBase, Capabilities, QueryResult
from repro.baselines.rtree.config import RStarTreeConfig
from repro.baselines.rtree.metrics import (
    area,
    area_enlargement,
    overlap_with_set,
)
from repro.baselines.rtree.node import RTreeNode
from repro.baselines.rtree.split import rstar_split
from repro.core.cost_model import CostParameters, StorageScenario
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

#: Orphaned entries collected while condensing: ``(lows, highs, payload,
#: level)`` — the payload is an object id at level 0 and a subtree root
#: above it.
_Orphan = Tuple[np.ndarray, np.ndarray, object, int]


class RStarTree(BackendBase):
    """R*-tree over multidimensional extended objects."""

    CAPABILITIES = Capabilities(
        name="rs",
        label="RS",
        supports_delete_bulk=True,
        supports_persistence=False,
        supports_reorganization=False,
    )

    def __init__(
        self,
        dimensions: Optional[int] = None,
        config: Optional[RStarTreeConfig] = None,
        cost: Optional[CostParameters] = None,
    ) -> None:
        """Create an empty tree.

        Parameters
        ----------
        dimensions:
            Dimensionality of the data space (optional when *config* is
            given).
        config:
            Structural parameters; defaults to the paper's 16 KB pages.
        cost:
            Cost parameters used to report byte counts; defaults to the
            in-memory scenario.
        """
        if config is None:
            if dimensions is None:
                raise ValueError("either dimensions or config must be provided")
            config = RStarTreeConfig(dimensions=dimensions)
        elif dimensions is not None and dimensions != config.dimensions:
            raise ValueError("dimensions disagrees with config")
        self.config = config
        self._cost = cost or CostParameters.memory_defaults(config.dimensions)
        self._root = RTreeNode(0, config.dimensions, config.max_entries)
        self._object_boxes: Dict[int, HyperRectangle] = {}
        self._reinserted_levels: Set[int] = set()
        self._bulk_loaded = False

    # ==================================================================
    # Introspection
    # ==================================================================
    @property
    def dimensions(self) -> int:
        """Dimensionality of the data space."""
        return self.config.dimensions

    @property
    def n_objects(self) -> int:
        """Number of indexed objects."""
        return len(self._object_boxes)

    @property
    def n_groups(self) -> int:
        """Number of explorable groups: the tree's node (page) count."""
        return self.node_count()

    @property
    def height(self) -> int:
        """Height of the tree (a single leaf root has height 1)."""
        return self._root.level + 1

    @property
    def root(self) -> RTreeNode:
        """The root node."""
        return self._root

    def __len__(self) -> int:
        return self.n_objects

    def __contains__(self, object_id: int) -> bool:
        return object_id in self._object_boxes

    def node_count(self) -> int:
        """Total number of nodes (pages) in the tree."""
        return sum(1 for _ in self.iter_nodes())

    def leaf_count(self) -> int:
        """Number of leaf nodes."""
        return sum(1 for node in self.iter_nodes() if node.is_leaf)

    def iter_nodes(self) -> Iterable[RTreeNode]:
        """Iterate over every node, parents before children."""
        stack = [self._root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.extend(node.children)

    def iter_objects(self) -> Iterator[Tuple[int, HyperRectangle]]:
        """Every indexed object as ``(id, box)`` in ascending-id order.

        The order is independent of the tree shape, so draining one tree
        and bulk-loading another reproduces the structure a from-scratch
        rebuild would (the shard-migration contract).
        """
        leaves = [node for node in self.iter_nodes() if node.is_leaf and node.count]
        if not leaves:
            return
        ids = np.concatenate([leaf.entry_ids() for leaf in leaves])
        lows = np.concatenate([leaf.entry_lows() for leaf in leaves])
        highs = np.concatenate([leaf.entry_highs() for leaf in leaves])
        for row in np.argsort(ids, kind="stable"):
            yield int(ids[row]), HyperRectangle(lows[row], highs[row])

    # ==================================================================
    # Insertion
    # ==================================================================
    def insert(self, object_id: int, obj: HyperRectangle) -> None:
        """Insert one object (R*-tree dynamic insertion)."""
        if obj.dimensions != self.dimensions:
            raise ValueError(f"object has {obj.dimensions} dimensions, expected {self.dimensions}")
        if object_id in self._object_boxes:
            raise KeyError(f"object {object_id} is already indexed")
        self._object_boxes[object_id] = obj
        self._reinserted_levels = set()
        self._insert_entry(obj.lows.copy(), obj.highs.copy(), int(object_id), level=0)

    def bulk_load(self, objects: Iterable[Tuple[int, HyperRectangle]]) -> int:
        """Bulk-load objects with STR packing (only into an empty tree)."""
        from repro.baselines.rtree.bulk import str_pack

        pairs = list(objects)
        if not pairs:
            return 0
        if self.n_objects:
            raise ValueError("bulk_load requires an empty tree")
        # Validate the whole batch before mutating anything, so a rejected
        # batch leaves the tree untouched.
        seen = set()
        for object_id, obj in pairs:
            if obj.dimensions != self.dimensions:
                raise ValueError("object dimensionality mismatch")
            if object_id in seen:
                raise KeyError(f"duplicate object id {object_id}")
            seen.add(object_id)
        for object_id, obj in pairs:
            self._object_boxes[int(object_id)] = obj
        self._root = str_pack(pairs, self.config)
        self._bulk_loaded = True
        return len(pairs)

    # ------------------------------------------------------------------
    def _insert_entry(
        self, lows: np.ndarray, highs: np.ndarray, payload: object, level: int
    ) -> None:
        path = self._choose_path(lows, highs, level)
        node = path[-1]
        if level == 0:
            node.add_leaf_entry(int(payload), lows, highs)
        else:
            node.add_child_entry(payload)  # type: ignore[arg-type]
        self._update_path_bounds(path)
        self._handle_overflow(path, len(path) - 1)

    def _choose_path(self, lows: np.ndarray, highs: np.ndarray, level: int) -> List[RTreeNode]:
        """Descend from the root to the node at *level* chosen for the entry."""
        path = [self._root]
        node = self._root
        while node.level > level:
            child_row = self._choose_subtree(node, lows, highs)
            node = node.children[child_row]
            path.append(node)
        return path

    def _choose_subtree(self, node: RTreeNode, lows: np.ndarray, highs: np.ndarray) -> int:
        """R* ChooseSubtree: pick the child entry row to descend into."""
        entry_lows = node.entry_lows()
        entry_highs = node.entry_highs()
        enlargements = area_enlargement(entry_lows, entry_highs, lows, highs)
        areas = area(entry_lows, entry_highs)

        if node.level == 1:
            # Children are leaves: minimise overlap enlargement, computed for
            # the `choose_subtree_candidates` entries with the smallest area
            # enlargement (the "nearly minimum overlap cost" optimisation).
            candidate_count = min(self.config.choose_subtree_candidates, node.count)
            candidate_rows = np.argsort(enlargements, kind="stable")[:candidate_count]
            best_row = int(candidate_rows[0])
            best_key: Optional[Tuple[float, float, float]] = None
            for row in candidate_rows:
                row = int(row)
                before = overlap_with_set(
                    entry_lows[row], entry_highs[row], entry_lows, entry_highs, exclude=row
                )
                grown_low = np.minimum(entry_lows[row], lows)
                grown_high = np.maximum(entry_highs[row], highs)
                after = overlap_with_set(
                    grown_low, grown_high, entry_lows, entry_highs, exclude=row
                )
                key = (after - before, float(enlargements[row]), float(areas[row]))
                if best_key is None or key < best_key:
                    best_key = key
                    best_row = row
            return best_row

        # Children are internal nodes: minimise area enlargement, ties by area.
        order = np.lexsort((areas, enlargements))
        return int(order[0])

    def _update_path_bounds(self, path: List[RTreeNode]) -> None:
        for depth in range(len(path) - 1, 0, -1):
            path[depth - 1].update_child_bounds(path[depth])

    # ------------------------------------------------------------------
    def _handle_overflow(self, path: List[RTreeNode], depth: int) -> None:
        node = path[depth]
        if not node.is_overflowing:
            return
        if depth == 0:
            self._split_root()
            return
        if node.level not in self._reinserted_levels:
            self._reinserted_levels.add(node.level)
            self._force_reinsert(node, path[: depth + 1])
            return
        self._split_node(path, depth)

    def _force_reinsert(self, node: RTreeNode, path: List[RTreeNode]) -> None:
        """Remove the entries farthest from the node centre and reinsert them."""
        entry_lows = node.entry_lows()
        entry_highs = node.entry_highs()
        node_low, node_high = node.mbb_bounds()
        node_center = (node_low + node_high) / 2.0
        centers = (entry_lows + entry_highs) / 2.0
        distances = np.linalg.norm(centers - node_center, axis=1)
        count = min(self.config.reinsert_count, node.count - 1)
        farthest = np.argsort(distances, kind="stable")[::-1][:count]
        removed = node.remove_entries([int(i) for i in farthest])
        self._update_path_bounds(path)
        # Close reinsert: entries closest to the centre first.
        removed.reverse()
        for lows, highs, payload in removed:
            if node.is_leaf:
                self._insert_entry(lows, highs, payload, level=0)
            else:
                self._insert_entry(lows, highs, payload, level=node.level)

    def _split_node(self, path: List[RTreeNode], depth: int) -> None:
        node = path[depth]
        sibling = self._split_into_sibling(node)
        parent = path[depth - 1]
        parent.update_child_bounds(node)
        parent.add_child_entry(sibling)
        self._update_path_bounds(path[:depth])
        self._handle_overflow(path, depth - 1)

    def _split_root(self) -> None:
        old_root = self._root
        sibling = self._split_into_sibling(old_root)
        new_root = RTreeNode(old_root.level + 1, self.dimensions, self.config.max_entries)
        new_root.add_child_entry(old_root)
        new_root.add_child_entry(sibling)
        self._root = new_root

    def _split_into_sibling(self, node: RTreeNode) -> RTreeNode:
        """Distribute the node's entries R*-style; return the new sibling."""
        lows = node.entry_lows().copy()
        highs = node.entry_highs().copy()
        if node.is_leaf:
            payloads: List[object] = [int(i) for i in node.entry_ids()]
        else:
            payloads = list(node.children)
        decision = rstar_split(lows, highs, self.config.min_entries)

        sibling = RTreeNode(node.level, self.dimensions, self.config.max_entries)
        node.clear()
        for row in decision.group_one:
            self._append_raw(node, lows[row], highs[row], payloads[int(row)])
        for row in decision.group_two:
            self._append_raw(sibling, lows[row], highs[row], payloads[int(row)])
        return sibling

    @staticmethod
    def _append_raw(node: RTreeNode, lows: np.ndarray, highs: np.ndarray, payload: object) -> None:
        if node.is_leaf:
            node.add_leaf_entry(int(payload), lows, highs)
        else:
            node.add_child_entry(payload)  # type: ignore[arg-type]

    # ==================================================================
    # Deletion
    # ==================================================================
    def delete(self, object_id: int) -> bool:
        """Remove an object; returns ``False`` when it was not indexed."""
        obj = self._object_boxes.pop(object_id, None)
        if obj is None:
            return False
        path = self._find_leaf(self._root, [], object_id, obj.lows, obj.highs)
        if path is None:  # pragma: no cover - defensive
            raise RuntimeError(f"object {object_id} tracked but not found in the tree")
        leaf = path[-1]
        rows = np.flatnonzero(leaf.entry_ids() == object_id)
        leaf.remove_entries([int(rows[0])])
        self._condense(path)
        return True

    def _find_leaf(
        self,
        node: RTreeNode,
        path: List[RTreeNode],
        object_id: int,
        lows: np.ndarray,
        highs: np.ndarray,
    ) -> Optional[List[RTreeNode]]:
        path = path + [node]
        if node.is_leaf:
            if np.any(node.entry_ids() == object_id):
                return path
            return None
        entry_lows = node.entry_lows()
        entry_highs = node.entry_highs()
        covers = np.all((entry_lows <= lows) & (highs <= entry_highs), axis=1)
        for row in np.flatnonzero(covers):
            found = self._find_leaf(node.children[int(row)], path, object_id, lows, highs)
            if found is not None:
                return found
        return None

    def delete_bulk(self, object_ids: Iterable[int]) -> int:
        """Remove a batch of objects; returns the number actually removed.

        Identifiers that are not indexed are ignored.  The tree is walked
        once for the whole batch, descending only into subtrees whose
        bounds cover at least one doomed object (the same pruning
        :meth:`delete` uses, evaluated for all targets at once): visited
        leaves drop their matching entries with one vectorised membership
        mask, underflowing nodes are condensed bottom-up in the same pass
        (collecting their surviving entries), and the orphans are
        reinserted once at the end — the standard condense-tree treatment,
        amortised over the batch, costing O(k log N)-ish like the per-id
        loop rather than a full-tree scan.
        """
        targets: Set[int] = set()
        for object_id in object_ids:
            object_id = int(object_id)
            if object_id in self._object_boxes:
                targets.add(object_id)
        if not targets:
            return 0
        target_ids = np.fromiter(targets, dtype=np.int64)
        target_lows = np.vstack([self._object_boxes[int(i)].lows for i in target_ids])
        target_highs = np.vstack([self._object_boxes[int(i)].highs for i in target_ids])
        for object_id in targets:
            del self._object_boxes[object_id]
        orphans: List[_Orphan] = []
        self._bulk_remove(self._root, target_ids, target_lows, target_highs, orphans)
        self._shrink_root()
        self._reinsert_orphans(orphans)
        return len(targets)

    def _bulk_remove(
        self,
        node: RTreeNode,
        target_ids: np.ndarray,
        target_lows: np.ndarray,
        target_highs: np.ndarray,
        orphans: List[_Orphan],
    ) -> None:
        """Drop the targets under *node*; condense underflowing descendants."""
        if node.is_leaf:
            if node.count:
                rows = np.flatnonzero(np.isin(node.entry_ids(), target_ids))
                if rows.size:
                    node.remove_entries([int(row) for row in rows])
            return
        entry_lows = node.entry_lows()
        entry_highs = node.entry_highs()
        # One (child, target, dimension) broadcast: which children's bounds
        # cover at least one doomed box?  Untouched subtrees are skipped —
        # they cannot contain targets and cannot newly underflow.
        covers = np.any(
            np.all(
                (entry_lows[:, None, :] <= target_lows[None])
                & (target_highs[None] <= entry_highs[:, None, :]),
                axis=2,
            ),
            axis=1,
        )
        touched = [node.children[int(row)] for row in np.flatnonzero(covers)]
        for child in touched:
            self._bulk_remove(child, target_ids, target_lows, target_highs, orphans)
        underflowing = [child for child in touched if child.count < self.config.min_entries]
        for child in underflowing:
            node.remove_entries([node.child_index(child)])
            self._collect_orphans(child, orphans)
        for child in touched:
            if child.count and child in node.children:
                node.update_child_bounds(child)

    @staticmethod
    def _collect_orphans(node: RTreeNode, orphans: List[_Orphan]) -> None:
        """Append every entry of an underflowing *node* to *orphans*."""
        level = node.level
        for entry_row in range(node.count):
            payload: object
            if node.is_leaf:
                payload = int(node.object_ids[entry_row])
            else:
                payload = node.children[entry_row]
            orphans.append(
                (
                    node.lows[entry_row].copy(),
                    node.highs[entry_row].copy(),
                    payload,
                    level,
                )
            )

    def _condense(self, path: List[RTreeNode]) -> None:
        """Propagate underflows upward, collecting orphaned entries."""
        orphans: List[_Orphan] = []
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            parent = path[depth - 1]
            if node.count < self.config.min_entries:
                parent.remove_entries([parent.child_index(node)])
                self._collect_orphans(node, orphans)
            elif parent.count:
                parent.update_child_bounds(node)
        self._shrink_root()
        self._reinsert_orphans(orphans)

    def _shrink_root(self) -> None:
        """Collapse a trivial internal root after deletions."""
        while not self._root.is_leaf and self._root.count == 1:
            self._root = self._root.children[0]
        if not self._root.is_leaf and self._root.count == 0:
            self._root = RTreeNode(0, self.dimensions, self.config.max_entries)

    def _reinsert_orphans(self, orphans: List[_Orphan]) -> None:
        """Re-add the entries condensing removed from the tree."""
        self._reinserted_levels = set()
        for lows, highs, payload, level in orphans:
            if level == 0:
                self._insert_entry(lows, highs, payload, level=0)
            else:
                # The orphaned payload is a subtree rooted at ``level - 1``;
                # it must become the entry of a node at ``level``.
                if self._root.level < level:
                    # The tree shrank below the subtree's level; re-add its
                    # descendants individually at leaf level.
                    for leaf_entry in self._collect_leaf_entries(payload):  # type: ignore[arg-type]
                        self._insert_entry(*leaf_entry, level=0)
                else:
                    self._insert_entry(lows, highs, payload, level=level)

    def _collect_leaf_entries(self, node: RTreeNode) -> List[Tuple[np.ndarray, np.ndarray, int]]:
        entries: List[Tuple[np.ndarray, np.ndarray, int]] = []
        stack = [node]
        while stack:
            current = stack.pop()
            if current.is_leaf:
                for row in range(current.count):
                    entries.append(
                        (
                            current.lows[row].copy(),
                            current.highs[row].copy(),
                            int(current.object_ids[row]),
                        )
                    )
            else:
                stack.extend(current.children)
        return entries

    # ==================================================================
    # Query execution
    # ==================================================================
    def execute_batch(
        self,
        queries: Sequence[HyperRectangle],
        relation: "SpatialRelation | str" = SpatialRelation.INTERSECTS,
    ) -> List[QueryResult]:
        """Execute spatial selections; ids plus execution counters per query.

        The tree is traversed once for the whole batch: every node is
        visited at most once, carrying the rows of the queries that reach
        it, its entries are tested against all of those queries with one
        broadcasted comparison, and only the children some query reaches
        are pushed.  Children are pushed in entry order and popped last
        first, so each query sees its nodes, and its ids come out, in the
        order of a depth-first walk for that query alone.  Visits are
        logged per node and summed into per-query counters once, at the
        end.
        """
        relation = SpatialRelation.parse(relation)
        query_list = list(queries)
        for query in query_list:
            if query.dimensions != self.dimensions:
                raise ValueError(
                    f"query has {query.dimensions} dimensions, expected "
                    f"{self.dimensions}"
                )
        count = len(query_list)
        if count == 0:
            return []
        start = time.perf_counter()
        q_lows = np.array([query.lows for query in query_list])
        q_highs = np.array([query.highs for query in query_list])
        single = count == 1
        if single:
            # One query: its bounds broadcast against every entry as they are.
            query_low, query_high = q_lows[0], q_highs[0]

        # (query rows, node entries) of every visit, split by node kind.
        internal_rows: List[np.ndarray] = []
        internal_sizes: List[int] = []
        leaf_rows: List[np.ndarray] = []
        leaf_sizes: List[int] = []
        found_rows: List[np.ndarray] = []
        found_ids: List[np.ndarray] = []

        stack: List[Tuple[RTreeNode, np.ndarray]] = [(self._root, np.arange(count))]
        while stack:
            node, rows = stack.pop()
            if not single:
                query_low = q_lows[rows, None, :]
                query_high = q_highs[rows, None, :]
            entry_lows = node.entry_lows()
            entry_highs = node.entry_highs()
            if node.is_leaf:
                leaf_rows.append(rows)
                leaf_sizes.append(node.count)
                if not node.count:
                    continue
                if relation is SpatialRelation.INTERSECTS:
                    hits = (entry_lows <= query_high) & (query_low <= entry_highs)
                elif relation is SpatialRelation.CONTAINED_BY:
                    hits = (query_low <= entry_lows) & (entry_highs <= query_high)
                else:
                    hits = (entry_lows <= query_low) & (query_high <= entry_highs)
                hits = hits.all(axis=-1)
                if single:
                    found_ids.append(node.entry_ids()[hits])
                else:
                    hit_rows, hit_entries = hits.nonzero()
                    found_rows.append(rows.take(hit_rows))
                    found_ids.append(node.entry_ids().take(hit_entries))
                continue
            internal_rows.append(rows)
            internal_sizes.append(node.count)
            if relation is SpatialRelation.CONTAINS:
                visit = (entry_lows <= query_low) & (query_high <= entry_highs)
            else:
                visit = (entry_lows <= query_high) & (query_low <= entry_highs)
            visit = visit.all(axis=-1)
            children = node.children
            if single:
                stack.extend((children[row], rows) for row in np.flatnonzero(visit).tolist())
            else:
                for row in np.flatnonzero(visit.any(axis=0)).tolist():
                    stack.append((children[row], rows[visit[:, row]]))

        def per_query(visits: List[np.ndarray], sizes: Optional[List[int]] = None) -> np.ndarray:
            """Each query's sum of *sizes* over its visits; its visit count without *sizes*."""
            if not visits:
                return np.zeros(count, dtype=np.int64)
            rows = np.concatenate(visits)
            weights = None
            if sizes is not None:
                # bincount sums weights as float64: exact below 2**53.
                weights = np.repeat(np.array(sizes, dtype=np.float64), [r.size for r in visits])
            return np.bincount(rows, weights=weights, minlength=count).astype(np.int64)

        signature_checks = per_query(internal_rows, internal_sizes)
        objects_verified = per_query(leaf_rows, leaf_sizes)
        groups_explored = per_query(internal_rows + leaf_rows)
        bytes_read = (signature_checks + objects_verified) * self._cost.object_bytes

        if single:
            ids = np.concatenate(found_ids) if found_ids else np.empty(0, dtype=np.int64)
            bounds = np.array([0, ids.size])
        elif found_ids:
            hit_rows = np.concatenate(found_rows)
            # Stable sort by query preserves each query's visit order.
            ids = np.concatenate(found_ids).take(hit_rows.argsort(kind="stable"))
            bounds = np.zeros(count + 1, dtype=np.int64)
            np.bincount(hit_rows, minlength=count).cumsum(out=bounds[1:])
        else:
            ids = np.empty(0, dtype=np.int64)
            bounds = np.zeros(count + 1, dtype=np.int64)

        disk = self._cost.scenario is StorageScenario.DISK
        per_query_ms = (time.perf_counter() - start) * 1000.0 / count
        return [
            QueryResult(
                ids=ids[low:high].copy(),
                execution=QueryExecution(
                    signature_checks=checks,
                    groups_explored=explored,
                    objects_verified=verified,
                    results=high - low,
                    bytes_read=read,
                    random_accesses=explored if disk else 0,
                    wall_time_ms=per_query_ms,
                ),
            )
            for checks, explored, verified, read, low, high in zip(
                signature_checks.tolist(),
                groups_explored.tolist(),
                objects_verified.tolist(),
                bytes_read.tolist(),
                bounds[:-1].tolist(),
                bounds[1:].tolist(),
            )
        ]

    # ==================================================================
    # Diagnostics
    # ==================================================================
    def check_invariants(self) -> None:
        """Verify structural invariants; raises :class:`AssertionError` on failure."""
        leaf_levels: Set[int] = set()
        total_objects = 0
        stack: List[Tuple[RTreeNode, Optional[HyperRectangle], bool]] = [(self._root, None, True)]
        while stack:
            node, parent_mbb, is_root = stack.pop()
            if node.count == 0 and not is_root:
                raise AssertionError("non-root node with zero entries")
            if not is_root and not self._bulk_loaded and node.count < self.config.min_entries:
                # STR-packed trees may leave a trailing node under-filled;
                # dynamically built trees must respect the minimum fill.
                raise AssertionError(f"node underflow: {node.count} < {self.config.min_entries}")
            if node.count > self.config.max_entries:
                raise AssertionError(f"node overflow: {node.count} > {self.config.max_entries}")
            if node.count and parent_mbb is not None:
                node_mbb = node.mbb()
                if not parent_mbb.contains(node_mbb):
                    raise AssertionError("parent entry does not cover child MBB")
            if node.is_leaf:
                leaf_levels.add(node.level)
                total_objects += node.count
            else:
                for row, child in enumerate(node.children):
                    if child.level != node.level - 1:
                        raise AssertionError("child level mismatch")
                    stack.append((child, node.entry_box(row), False))
        if leaf_levels and leaf_levels != {0}:
            raise AssertionError("leaves found at non-zero levels")
        if total_objects != self.n_objects:
            raise AssertionError(
                f"tree stores {total_objects} objects, map tracks {self.n_objects}"
            )

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"RStarTree(dimensions={self.dimensions}, objects={self.n_objects}, "
            f"height={self.height}, nodes={self.node_count()})"
        )
