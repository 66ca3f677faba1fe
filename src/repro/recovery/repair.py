"""Scavenge every intact page of a damaged paged store (``repro repair``).

A paged store validates everything it reads: each page carries a CRC over
its header and payload, each blob a content CRC in the page-table
manifest.  A normal open refuses a store that fails any of those checks.
This module is the other way out: instead of refusing, it keeps every
cluster whose pages still check out, drops exactly what is provably
damaged, and commits the survivors as a fresh consistent store.

Salvage strategy
----------------

1. **Pick a page table.**  The superblock names the committed generation;
   when it is torn, or its manifest does not parse, every
   ``manifest-NNNNNN.json`` in the directory is tried newest-first.
   Manifests are written atomically, so a readable one is internally
   consistent — the damage model is torn/corrupted *pages*.
2. **Validate every extent page by page.**  A cluster whose two blobs
   (identifiers + member bounds) reassemble and match their content CRCs
   is recovered whole.  A cluster with any damaged page loses its
   members — but keeps its signature, statistics and place in the
   hierarchy (all carried by the manifest), so the rebuilt index stays
   structurally valid and reports exactly how many objects were lost.
3. **Commit a fresh store.**  The survivors are written to a new
   directory with a full commit; reopening it behaves like any other
   paged store.

The report says what was scanned, what was salvaged and what was lost;
the CLI prints it and exits 1 when objects were lost (salvage happened,
but not everything survived) and 0 on a lossless repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.cluster import Cluster
from repro.core.index import AdaptiveClusteringIndex
from repro.storage.pagefile import (
    SUPERBLOCK_NAME,
    _MANIFEST_RE,
    _ids_blob_id,
    _members_blob_id,
    BlobExtent,
    PagedStore,
    PageTable,
    config_from_dict,
    signature_from_array,
)
from repro.storage.pages import (
    blob_crc,
    decode_page,
    decode_superblock,
    unpack_ids,
    unpack_members,
)
from repro.storage.wal import REAL_FS, FileSystem

PathLike = Union[str, Path]


@dataclass(frozen=True)
class RepairReport:
    """What a salvage pass scanned, recovered and lost."""

    source: str
    destination: str
    #: Generation the salvage worked from.
    generation: int
    #: True when the superblock was unreadable and a manifest scan chose
    #: the generation instead.
    superblock_damaged: bool
    clusters_total: int
    #: Clusters recovered with all their members.
    clusters_recovered: int
    #: Clusters kept structurally but stripped of their members.
    clusters_damaged: int
    objects_recovered: int
    objects_lost: int
    pages_scanned: int
    pages_corrupt: int

    @property
    def lossless(self) -> bool:
        """True when every object of the chosen generation survived."""
        return self.objects_lost == 0 and self.clusters_damaged == 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "source": self.source,
            "destination": self.destination,
            "generation": self.generation,
            "superblock_damaged": self.superblock_damaged,
            "clusters_total": self.clusters_total,
            "clusters_recovered": self.clusters_recovered,
            "clusters_damaged": self.clusters_damaged,
            "objects_recovered": self.objects_recovered,
            "objects_lost": self.objects_lost,
            "pages_scanned": self.pages_scanned,
            "pages_corrupt": self.pages_corrupt,
            "lossless": self.lossless,
        }


# ----------------------------------------------------------------------
# Choosing the page table
# ----------------------------------------------------------------------
def _candidate_generations(directory: Path) -> List[int]:
    generations: List[int] = []
    for path in directory.iterdir():
        match = _MANIFEST_RE.match(path.name)
        if match:
            generations.append(int(match.group(1)))
    return sorted(generations, reverse=True)


def _choose_table(directory: Path) -> Tuple[PageTable, bool]:
    """Pick the page table to salvage from; returns ``(table, sb_damaged)``."""
    superblock = None
    super_path = directory / SUPERBLOCK_NAME
    if super_path.is_file():
        superblock = decode_superblock(super_path.read_bytes())
    tried: List[int] = []
    if superblock is not None:
        tried.append(superblock.generation)
    for generation in _candidate_generations(directory):
        if generation not in tried:
            tried.append(generation)
    for generation in tried:
        manifest_path = directory / f"manifest-{generation:06d}.json"
        if not manifest_path.is_file():
            continue
        try:
            table = PageTable.from_json(manifest_path.read_bytes(), path=manifest_path)
        except ValueError:
            continue
        if table.generation != generation:
            continue
        damaged = superblock is None or superblock.generation != generation
        return table, damaged
    raise ValueError(f"no readable page-table manifest in {directory}; nothing to salvage")


# ----------------------------------------------------------------------
# Page-level salvage
# ----------------------------------------------------------------------
def _salvage_blob(
    buffer: bytes, extent: BlobExtent, blob_id: int, page_size: int
) -> Tuple[Optional[bytes], int]:
    """Validate one blob page by page; returns ``(data | None, bad_pages)``.

    Unlike :func:`repro.storage.pages.decode_blob` this keeps counting
    after the first damaged page, so the report can say how many pages
    were actually corrupt rather than just that the blob failed.
    """
    import zlib

    parts: List[bytes] = []
    bad_pages = 0
    compressed = False
    for seq in range(extent.page_count):
        page = decode_page(buffer, (extent.start_page + seq) * page_size, page_size=page_size)
        if (
            page is None
            or page.blob_id != blob_id
            or page.seq != seq
            or page.count != extent.page_count
        ):
            bad_pages += 1
            continue
        compressed = page.compressed
        parts.append(page.payload)
    if bad_pages:
        return None, bad_pages
    stored = b"".join(parts)
    if compressed:
        try:
            data = zlib.decompress(stored)
        except zlib.error:
            return None, extent.page_count
    else:
        data = stored
    if blob_crc(data) != extent.crc or len(data) != extent.length:
        return None, extent.page_count
    return data, 0


# ----------------------------------------------------------------------
# The salvage pass
# ----------------------------------------------------------------------
def repair_store(
    source: PathLike,
    destination: PathLike,
    *,
    fs: FileSystem = REAL_FS,
    compress: bool = True,
) -> RepairReport:
    """Salvage *source* into a fresh consistent paged store at *destination*.

    Raises :class:`ValueError` when *source* holds no readable manifest
    (nothing to salvage from) or *destination* already holds a store —
    a repair never overwrites existing data.
    """
    source = Path(source)
    destination = Path(destination)
    if not source.is_dir():
        raise ValueError(f"no paged store at {source}")
    table, superblock_damaged = _choose_table(source)
    page_size = table.page_size
    pagefile_path = source / table.pagefile
    buffer = pagefile_path.read_bytes() if pagefile_path.is_file() else b""

    config = config_from_dict(table.config)
    dimensions = int(config.dimensions)
    index = AdaptiveClusteringIndex(config=config)
    auto_root_id = index.root.cluster_id
    index._storage.on_cluster_removed(auto_root_id)
    index._arena.release(auto_root_id)
    index._clusters.clear()
    index._object_locations.clear()

    clusters_recovered = 0
    clusters_damaged = 0
    objects_recovered = 0
    objects_lost = 0
    pages_scanned = 0
    pages_corrupt = 0
    root_id: Optional[int] = None
    max_cluster_id = -1
    for entry in table.clusters:
        cluster_id = entry.cluster_id
        max_cluster_id = max(max_cluster_id, cluster_id)
        pages_scanned += entry.ids.page_count + entry.members.page_count
        ids_data, ids_bad = _salvage_blob(
            buffer, entry.ids, _ids_blob_id(cluster_id), page_size
        )
        members_data, members_bad = _salvage_blob(
            buffer, entry.members, _members_blob_id(cluster_id), page_size
        )
        pages_corrupt += ids_bad + members_bad

        members: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None
        if ids_data is not None and members_data is not None:
            try:
                ids = unpack_ids(ids_data)
                lows, highs = unpack_members(members_data, dimensions)
            except ValueError:
                members = None
            else:
                if int(ids.shape[0]) == entry.n_objects == int(lows.shape[0]):
                    members = (ids, lows, highs)

        cluster = Cluster(
            cluster_id=cluster_id,
            signature=signature_from_array(np.asarray(entry.signature, dtype=np.float64)),
            clustering_function=index._clustering_function,
            parent_id=entry.parent_id,
            creation_query=entry.creation_query,
            arena=index._arena,
        )
        if members is not None:
            ids, lows, highs = members
            if ids.size:
                cluster.add_objects_bulk(ids, lows, highs)
            clusters_recovered += 1
            objects_recovered += entry.n_objects
        else:
            # The manifest still vouches for the cluster's signature and
            # place in the hierarchy; only its members are gone.
            clusters_damaged += 1
            objects_lost += entry.n_objects
        cluster.query_count = entry.query_count
        if table.include_statistics and entry.candidate_queries is not None:
            saved = np.asarray(entry.candidate_queries, dtype=np.int64)
            if saved.shape == cluster.candidates.query_counts.shape:
                cluster.candidates.query_counts = saved.copy()
        index._clusters[cluster_id] = cluster
        if members is not None:
            for object_id in members[0]:
                index._object_locations[int(object_id)] = cluster_id
        index._storage.on_cluster_created(cluster_id, cluster.n_objects)
        if entry.parent_id is None:
            root_id = cluster_id

    if root_id is None:
        raise ValueError(f"manifest of {source} defines no root cluster; nothing to salvage")
    for cluster in index._clusters.values():
        if cluster.parent_id is not None:
            parent = index._clusters.get(cluster.parent_id)
            if parent is not None:
                parent.add_child(cluster.cluster_id)
            else:
                # Orphaned subtree: reattach under the root so the
                # salvaged hierarchy stays navigable.
                cluster.parent_id = root_id
                index._clusters[root_id].add_child(cluster.cluster_id)
    index._root_id = root_id
    index._next_cluster_id = max_cluster_id + 1
    index._total_queries = table.total_queries
    index._queries_since_reorganization = table.queries_since_reorganization
    index._reorganization_count = table.reorganization_count
    index._invalidate_signature_matrix()

    store = PagedStore.create(destination, page_size=page_size, compress=compress, fs=fs)
    store.commit(index, incremental=False, include_statistics=table.include_statistics)

    return RepairReport(
        source=str(source),
        destination=str(destination),
        generation=table.generation,
        superblock_damaged=superblock_damaged,
        clusters_total=len(table.clusters),
        clusters_recovered=clusters_recovered,
        clusters_damaged=clusters_damaged,
        objects_recovered=objects_recovered,
        objects_lost=objects_lost,
        pages_scanned=pages_scanned,
        pages_corrupt=pages_corrupt,
    )
