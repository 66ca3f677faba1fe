"""Paged-checkpoint benchmark: incremental vs full commit cost by churn.

``page_bench`` answers the question the paged store
(:mod:`repro.storage.pagefile`) exists to answer: **how much write work
does an incremental checkpoint save when only part of the index changed
since the last one?**  A multi-cluster adaptive index is built, then for
each churn fraction a random sample of that fraction of its *clusters*
is mutated (delete + reinsert of one member per touched cluster) and the
same dirty state is committed twice:

* **incrementally** into the store holding the previous generation —
  only clusters whose content CRC changed write pages, clean clusters
  keep their extents;
* **fully** into a fresh store — every cluster writes, the way a first
  save or checkpoint (or a compaction) always behaves.

The page bytes written by each (from :class:`~repro.storage.pagefile.
CommitStats`) give the headline ratio: at low churn an incremental
checkpoint should write a small fraction of the full rewrite.  The bench
also times **lazy vs eager open** of the final store — lazy open reads
only the manifest and the identifier blobs, deferring member pages until
a cluster is actually explored — and verifies the reopened store is
query-equivalent to the live index (full-sweep ids byte-identical).
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters, StorageScenario, SystemCostConstants
from repro.core.index import AdaptiveClusteringIndex
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.storage.pagefile import PagedStore

DEFAULT_CHURN_FRACTIONS = (0.01, 0.10, 1.0)


@dataclass
class PageChurnRow:
    """Full vs incremental commit cost at one churn fraction."""

    #: Fraction of the clusters sampled for mutation.
    churn: float
    #: Clusters actually mutated (one member deleted + reinserted each).
    clusters_touched: int
    #: Clusters whose content changed (reported by the incremental commit;
    #: a reinsert that re-routes can dirty one more than was touched).
    dirty_clusters: int
    full_ms: float
    full_bytes: int
    incremental_ms: float
    incremental_bytes: int
    #: True when the incremental commit gave up and compacted (full rewrite).
    compacted: bool

    @property
    def bytes_ratio(self) -> float:
        """Incremental page bytes as a fraction of the full rewrite."""
        if self.full_bytes <= 0:
            return float("inf")
        return self.incremental_bytes / self.full_bytes

    def as_dict(self) -> Dict[str, object]:
        return {
            "churn": self.churn,
            "clusters_touched": self.clusters_touched,
            "dirty_clusters": self.dirty_clusters,
            "full_ms": self.full_ms,
            "full_bytes": self.full_bytes,
            "incremental_ms": self.incremental_ms,
            "incremental_bytes": self.incremental_bytes,
            "bytes_ratio": self.bytes_ratio,
            "compacted": self.compacted,
        }


@dataclass
class PageBenchResult:
    """Result of one paged-checkpoint benchmark run."""

    experiment_id: str
    title: str
    scenario: StorageScenario
    parameters: Dict[str, object] = field(default_factory=dict)
    #: Clusters in the benchmarked index (churn slices are taken from it).
    n_clusters: int = 0
    rows: List[PageChurnRow] = field(default_factory=list)
    #: Opening the final store with every member blob materialized, ms.
    open_eager_ms: float = 0.0
    #: Opening the same store lazily (manifest + identifier blobs only), ms.
    open_lazy_ms: float = 0.0
    #: True when the reopened store is query-equivalent to the live index.
    identical: bool = False

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "scenario": self.scenario.value,
            "parameters": dict(self.parameters),
            "n_clusters": self.n_clusters,
            "rows": [row.as_dict() for row in self.rows],
            "open_eager_ms": self.open_eager_ms,
            "open_lazy_ms": self.open_lazy_ms,
            "identical": self.identical,
        }


def _build_index(
    objects: int,
    dimensions: int,
    seed: int,
    cost: CostParameters,
    division_factor: int,
) -> AdaptiveClusteringIndex:
    """Build a reorganized multi-cluster index over a uniform workload."""
    rng = np.random.default_rng(seed)
    config = AdaptiveClusteringConfig(
        cost=cost,
        division_factor=division_factor,
        reorganization_period=0,
        auto_reorganize=False,
    )
    index = AdaptiveClusteringIndex(config=config)
    lows = rng.random((objects, dimensions)) * 0.9
    highs = np.minimum(lows + 0.05, 1.0)
    for object_id in range(objects):
        index.insert(object_id, HyperRectangle(lows[object_id], highs[object_id]))
    # Queries feed the candidate statistics; reorganization materializes
    # the clusters the statistics justify.  Two rounds settle the shape.
    for _ in range(2):
        for _query in range(max(100, objects // 10)):
            center = rng.random(dimensions) * 0.95
            index.execute(
                HyperRectangle(center, np.minimum(center + 0.05, 1.0)),
                SpatialRelation.INTERSECTS,
            )
        index.reorganize()
    return index


def _churn(index: AdaptiveClusteringIndex, fraction: float, rng: np.random.Generator) -> int:
    """Mutate one member in a random ``fraction`` of the clusters.

    Each touched cluster has one object deleted and reinserted with a
    slightly nudged bound, so its content CRC provably changes while the
    hierarchy keeps its shape; the untouched clusters stay byte-identical
    and an incremental commit can keep their extents.
    """
    clusters = sorted(index._clusters.values(), key=lambda c: c.cluster_id)
    populated = [cluster for cluster in clusters if cluster.n_objects > 0]
    count = min(len(populated), max(1, int(round(fraction * len(clusters)))))
    picked = rng.choice(len(populated), size=count, replace=False)
    touched = 0
    for position in sorted(int(p) for p in picked):
        cluster = populated[position]
        object_id = int(cluster.store.ids[0])
        box = index.get(object_id)
        if box is None:
            continue
        index.delete(object_id)
        lows = np.asarray(box.lows, dtype=np.float64).copy()
        highs = np.asarray(box.highs, dtype=np.float64).copy()
        # Nudge one coordinate inside the unit domain so the content CRC
        # provably changes.
        lows[0] = min(max(lows[0] * 0.999, 0.0), highs[0])
        index.insert(object_id, HyperRectangle(lows, highs))
        touched += 1
    return touched


def _sweep(index: AdaptiveClusteringIndex, dimensions: int) -> bytes:
    result = index.execute(HyperRectangle.unit(dimensions), SpatialRelation.INTERSECTS)
    return np.sort(np.asarray(result.ids, dtype=np.int64)).tobytes()


def page_bench(
    scenario: "StorageScenario | str" = StorageScenario.MEMORY,
    objects: int = 3_000,
    dimensions: int = 2,
    page_size: int = 1_024,
    division_factor: int = 12,
    churn_fractions: "tuple[float, ...]" = DEFAULT_CHURN_FRACTIONS,
    seed: int = 0,
    compress: bool = True,
    work_dir: "str | Path | None" = None,
    constants: Optional[SystemCostConstants] = None,
) -> PageBenchResult:
    """Measure incremental vs full paged-commit cost at several churn levels.

    For each fraction the index is churned, then committed incrementally
    (into the store carrying the previous generation) and fully (into a
    fresh store); page bytes and wall time of both are reported.  The
    final store is reopened eagerly and lazily and checked for
    query-equivalence with the live index.
    """
    if objects <= 0:
        raise ValueError("objects must be positive")
    if page_size <= 0:
        raise ValueError("page_size must be positive")
    if not churn_fractions:
        raise ValueError("churn_fractions must not be empty")
    for fraction in churn_fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("churn fractions must be in (0, 1]")
    scenario = StorageScenario.parse(scenario)
    cost = CostParameters.for_scenario(scenario, dimensions, constants)

    result = PageBenchResult(
        experiment_id=f"page-bench-{scenario.value}",
        title="Paged checkpoints: incremental vs full commit cost by churn",
        scenario=scenario,
        parameters={
            "objects": objects,
            "dimensions": dimensions,
            "page_size": page_size,
            "division_factor": division_factor,
            "churn_fractions": list(churn_fractions),
            "seed": seed,
            "compress": compress,
        },
    )

    index = _build_index(objects, dimensions, seed, cost, division_factor)
    result.n_clusters = index.n_clusters
    rng = np.random.default_rng(seed + 1)

    scratch = None
    if work_dir is None:
        scratch = tempfile.mkdtemp(prefix="repro-page-bench-")
        work_dir = scratch
    work_dir = Path(work_dir)
    try:
        store = PagedStore.create(work_dir / "store", page_size=page_size, compress=compress)
        store.commit(index, incremental=False)
        for fraction in sorted(churn_fractions):
            churned = _churn(index, fraction, rng)

            # Full rewrite of the dirty state into a fresh store.
            full_dir = work_dir / f"full-{fraction:g}"
            if full_dir.exists():
                shutil.rmtree(full_dir)
            full_store = PagedStore.create(full_dir, page_size=page_size, compress=compress)
            start = time.perf_counter()
            full_stats = full_store.commit(index, incremental=False)
            full_ms = (time.perf_counter() - start) * 1_000.0

            # Incremental commit of the same dirty state on top of the
            # previous generation.
            start = time.perf_counter()
            incremental_stats = store.commit(index, incremental=True)
            incremental_ms = (time.perf_counter() - start) * 1_000.0

            result.rows.append(
                PageChurnRow(
                    churn=fraction,
                    clusters_touched=churned,
                    dirty_clusters=incremental_stats.clusters_written,
                    full_ms=full_ms,
                    full_bytes=full_stats.page_bytes_written,
                    incremental_ms=incremental_ms,
                    incremental_bytes=incremental_stats.page_bytes_written,
                    compacted=incremental_stats.compacted,
                )
            )

        start = time.perf_counter()
        eager = PagedStore.open(work_dir / "store").load_index(lazy=False)
        result.open_eager_ms = (time.perf_counter() - start) * 1_000.0
        start = time.perf_counter()
        lazy = PagedStore.open(work_dir / "store").load_index(lazy=True)
        result.open_lazy_ms = (time.perf_counter() - start) * 1_000.0
        live_sweep = _sweep(index, dimensions)
        result.identical = (
            _sweep(eager, dimensions) == live_sweep and _sweep(lazy, dimensions) == live_sweep
        )
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)
    return result
