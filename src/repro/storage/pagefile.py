"""Paged store layout: page files, the page-table manifest, generations.

This module is the policy half of the paged storage engine (the byte-level
codec lives in :mod:`repro.storage.pages`).  A *paged store* is a directory
holding an adaptive-clustering index as checksummed fixed-size pages:

``SUPERBLOCK``
    A small binary record naming the committed manifest generation
    (:func:`repro.storage.pages.encode_superblock`).  Replaced atomically
    through the :class:`~repro.storage.wal.FileSystem` seam, it is the
    commit point of a standalone store.  (A sharded snapshot's
    ``manifest.json`` and a durable directory's ``CHECKPOINT.json`` are
    the commit point instead, and name each store's generation.)

``pages-NNNNNN.dat``
    The page file: a sequence of fixed-size pages, each carrying a slice
    of one *blob*.  Every cluster owns two blobs — its member identifiers
    (``blob_id = 2 * cluster_id``) and its member bounds
    (``blob_id = 2 * cluster_id + 1``).  The file is **append-only**
    between compactions: an incremental commit appends the pages of the
    clusters whose content changed and leaves every committed page in
    place, so a crash mid-append can only ever tear bytes no manifest
    references yet.

``manifest-NNNNNN.json``
    The page table of one generation: the index configuration and
    statistics, plus one entry per cluster mapping it to the extents of
    its two blobs (start page, page count, byte length, content CRC,
    compression flag).  Written atomically; never modified.

Commit protocol
---------------

1. Pack each cluster's arrays into blob bytes and fingerprint them with a
   content CRC.  A cluster whose CRCs match the previous generation's
   entry is *clean*: it writes zero pages and keeps its extents.  (A
   cluster still lazily unloaded from this very store is clean by
   construction — mutating it would have materialized it.)
2. Append the dirty clusters' pages to the page file and fsync it.  When
   live pages would fall below half of the file ("compaction threshold"),
   rewrite everything into a fresh ``pages-NNNNNN.dat`` instead.
3. Write ``manifest-NNNNNN.json`` atomically — the new generation now
   exists on disk but nothing points at it.
4. Cross the named barrier and atomically replace ``SUPERBLOCK``.  This
   is the commit point: a crash before it leaves the previous generation,
   after it the new one.
5. Prune superseded manifests and page files.  A sharded save and a
   durable checkpoint defer this step until their own manifest — the
   commit point above the stores — names the new generations.

Lazy loading
------------

:meth:`PagedStore.load_index` can defer the member arrays: identifiers
are read eagerly (the index needs its object directory up front), member
bounds load into the cluster's arena segment on first touch of
``cluster.store`` via :class:`LazyCluster`.
Page reads and writes are charged to the index's storage backend through
:meth:`~repro.storage.base.StorageBackend.on_pages_read` /
``on_pages_written`` so the simulated cost models price page I/O.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.cluster import Cluster
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters, StorageScenario, SystemCostConstants
from repro.core.index import AdaptiveClusteringIndex
from repro.core.signature import ClusterSignature
from repro.storage import storage_for_scenario
from repro.storage.base import StorageBackend
from repro.storage.pages import (
    DEFAULT_PAGE_SIZE,
    blob_crc,
    decode_blob,
    decode_superblock,
    encode_blob,
    encode_superblock,
    pack_ids,
    pack_members,
    unpack_ids,
    unpack_members,
    validate_page_size,
)
from repro.storage.wal import REAL_FS, FileSystem

PathLike = Union[str, Path]

#: Bump on any change to the manifest schema.
MANIFEST_FORMAT_VERSION = 1

SUPERBLOCK_NAME = "SUPERBLOCK"

#: An incremental commit compacts when live pages fall below this share
#: of the page file (append-only files only ever grow between commits).
COMPACTION_THRESHOLD = 0.5

_MANIFEST_RE = re.compile(r"^manifest-(\d{6,})\.json$")
_PAGEFILE_RE = re.compile(r"^pages-(\d{6,})\.dat$")


def _manifest_name(generation: int) -> str:
    return f"manifest-{generation:06d}.json"


def _pagefile_name(generation: int) -> str:
    return f"pages-{generation:06d}.dat"


def _ids_blob_id(cluster_id: int) -> int:
    return 2 * cluster_id


def _members_blob_id(cluster_id: int) -> int:
    return 2 * cluster_id + 1


def is_paged_store(directory: PathLike) -> bool:
    """True when *directory* looks like a paged store (has a superblock)."""
    return (Path(directory) / SUPERBLOCK_NAME).is_file()


# ----------------------------------------------------------------------
# Configuration and signature codecs (the page table's JSON payload)
# ----------------------------------------------------------------------
def config_to_dict(config: AdaptiveClusteringConfig) -> Dict[str, Any]:
    """The index configuration as the page table records it."""
    constants = config.cost.constants
    return {
        "scenario": config.cost.scenario.value,
        "dimensions": config.cost.dimensions,
        "constants": {
            "disk_access_ms": constants.disk_access_ms,
            "disk_transfer_ms_per_byte": constants.disk_transfer_ms_per_byte,
            "signature_check_ms": constants.signature_check_ms,
            "verification_ms_per_byte": constants.verification_ms_per_byte,
            "exploration_setup_ms": constants.exploration_setup_ms,
        },
        "division_factor": config.division_factor,
        "reorganization_period": config.reorganization_period,
        "min_cluster_objects": config.min_cluster_objects,
        "probability_smoothing": config.probability_smoothing,
        "reserved_slot_fraction": config.reserved_slot_fraction,
        "max_clusters": config.max_clusters,
        "reset_statistics_on_reorganization": config.reset_statistics_on_reorganization,
        "auto_reorganize": config.auto_reorganize,
    }


def config_from_dict(data: Dict[str, Any]) -> AdaptiveClusteringConfig:
    """Invert :func:`config_to_dict`."""
    cost = CostParameters(
        scenario=StorageScenario.parse(data["scenario"]),
        dimensions=int(data["dimensions"]),
        constants=SystemCostConstants(**data["constants"]),
    )
    return AdaptiveClusteringConfig(
        cost=cost,
        division_factor=int(data["division_factor"]),
        reorganization_period=int(data["reorganization_period"]),
        min_cluster_objects=int(data["min_cluster_objects"]),
        probability_smoothing=float(data["probability_smoothing"]),
        reserved_slot_fraction=float(data["reserved_slot_fraction"]),
        max_clusters=data["max_clusters"],
        reset_statistics_on_reorganization=bool(
            data["reset_statistics_on_reorganization"]
        ),
        auto_reorganize=bool(data["auto_reorganize"]),
    )


def signature_to_array(signature: ClusterSignature) -> np.ndarray:
    """Signature rows ``[start_low, start_high, end_low, end_high]``."""
    return np.vstack(
        [signature.start_low, signature.start_high, signature.end_low, signature.end_high]
    )


def signature_from_array(values: np.ndarray) -> ClusterSignature:
    """Invert :func:`signature_to_array`."""
    return ClusterSignature.from_arrays(values[0], values[1], values[2], values[3])


# ----------------------------------------------------------------------
# The page table (manifest)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BlobExtent:
    """Where one blob lives in the page file, and how to validate it."""

    start_page: int
    page_count: int
    #: Uncompressed byte length of the blob.
    length: int
    #: Content CRC of the uncompressed bytes (the dirty fingerprint).
    crc: int
    compressed: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "start_page": self.start_page,
            "page_count": self.page_count,
            "length": self.length,
            "crc": self.crc,
            "compressed": self.compressed,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "BlobExtent":
        return cls(
            start_page=int(data["start_page"]),
            page_count=int(data["page_count"]),
            length=int(data["length"]),
            crc=int(data["crc"]),
            compressed=bool(data["compressed"]),
        )


@dataclass(frozen=True)
class ClusterEntry:
    """One cluster's directory record in the page table."""

    cluster_id: int
    parent_id: Optional[int]
    query_count: int
    creation_query: int
    n_objects: int
    #: Signature rows ``[start_low, start_high, end_low, end_high]``.
    signature: List[List[float]]
    #: Candidate query counters; ``None`` when statistics were not saved.
    candidate_queries: Optional[List[int]]
    ids: BlobExtent
    members: BlobExtent

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cluster_id": self.cluster_id,
            "parent_id": self.parent_id,
            "query_count": self.query_count,
            "creation_query": self.creation_query,
            "n_objects": self.n_objects,
            "signature": self.signature,
            "candidate_queries": self.candidate_queries,
            "ids": self.ids.to_dict(),
            "members": self.members.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterEntry":
        parent = data["parent_id"]
        candidates = data["candidate_queries"]
        return cls(
            cluster_id=int(data["cluster_id"]),
            parent_id=None if parent is None else int(parent),
            query_count=int(data["query_count"]),
            creation_query=int(data["creation_query"]),
            n_objects=int(data["n_objects"]),
            signature=[[float(v) for v in row] for row in data["signature"]],
            candidate_queries=None if candidates is None else [int(v) for v in candidates],
            ids=BlobExtent.from_dict(data["ids"]),
            members=BlobExtent.from_dict(data["members"]),
        )


@dataclass(frozen=True)
class PageTable:
    """One committed generation: configuration, statistics and extents."""

    generation: int
    page_size: int
    #: Page file this generation's extents refer to.
    pagefile: str
    #: Pages the page file holds as of this generation (the append point).
    total_pages: int
    config: Dict[str, Any]
    total_queries: int
    queries_since_reorganization: int
    reorganization_count: int
    include_statistics: bool
    clusters: Tuple[ClusterEntry, ...]

    @property
    def live_pages(self) -> int:
        """Pages still referenced by this generation's extents."""
        return sum(e.ids.page_count + e.members.page_count for e in self.clusters)

    @property
    def n_objects(self) -> int:
        return sum(e.n_objects for e in self.clusters)

    def to_json(self) -> bytes:
        document = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "generation": self.generation,
            "page_size": self.page_size,
            "pagefile": self.pagefile,
            "total_pages": self.total_pages,
            "config": self.config,
            "total_queries": self.total_queries,
            "queries_since_reorganization": self.queries_since_reorganization,
            "reorganization_count": self.reorganization_count,
            "include_statistics": self.include_statistics,
            "clusters": [entry.to_dict() for entry in self.clusters],
        }
        return json.dumps(document, sort_keys=True).encode("utf-8")

    @classmethod
    def from_json(cls, data: bytes, *, path: PathLike = "<manifest>") -> "PageTable":
        try:
            document = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"corrupt page-table manifest {path}: {exc}") from exc
        if not isinstance(document, dict):
            raise ValueError(f"corrupt page-table manifest {path}: not an object")
        version = document.get("format_version")
        if version != MANIFEST_FORMAT_VERSION:
            raise ValueError(f"unsupported page-table format {version!r} in {path}")
        try:
            return cls(
                generation=int(document["generation"]),
                page_size=validate_page_size(int(document["page_size"])),
                pagefile=str(document["pagefile"]),
                total_pages=int(document["total_pages"]),
                config=dict(document["config"]),
                total_queries=int(document["total_queries"]),
                queries_since_reorganization=int(document["queries_since_reorganization"]),
                reorganization_count=int(document["reorganization_count"]),
                include_statistics=bool(document["include_statistics"]),
                clusters=tuple(
                    ClusterEntry.from_dict(entry) for entry in document["clusters"]
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"corrupt page-table manifest {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Commit statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommitStats:
    """What one :meth:`PagedStore.commit` actually wrote."""

    generation: int
    #: ``"full"`` or ``"incremental"``.
    mode: str
    #: True when an incremental commit fell back to a full rewrite
    #: because live pages dropped below the compaction threshold.
    compacted: bool
    clusters_total: int
    #: Clusters whose content changed (wrote pages this commit).
    clusters_written: int
    pages_written: int
    #: Page bytes written (``pages_written * page_size``).
    page_bytes_written: int
    manifest_bytes: int
    total_pages: int
    live_pages: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "generation": self.generation,
            "mode": self.mode,
            "compacted": self.compacted,
            "clusters_total": self.clusters_total,
            "clusters_written": self.clusters_written,
            "pages_written": self.pages_written,
            "page_bytes_written": self.page_bytes_written,
            "manifest_bytes": self.manifest_bytes,
            "total_pages": self.total_pages,
            "live_pages": self.live_pages,
        }


# ----------------------------------------------------------------------
# Lazily-loaded clusters
# ----------------------------------------------------------------------
#: Loader signature: returns ``(ids, lows, highs)`` for the member arrays.
MembersLoader = Callable[[], Tuple[np.ndarray, np.ndarray, np.ndarray]]


class LazyCluster(Cluster):
    """A cluster whose members load from the page file on first touch.

    Identifiers are already known (read eagerly at open); the bounds blob
    is fetched into the cluster's arena segment — and candidate object
    counts recomputed — the first time anything touches ``self.store``.
    Every mutation path goes through the store, so an unmaterialized lazy
    cluster is guaranteed unchanged since its last commit;
    :meth:`PagedStore.commit` exploits that to keep it clean without
    reading a byte.
    """

    __slots__ = ("_store", "_members_loader", "_pending_count", "source_pagefile", "source_extents")

    def __init__(
        self,
        cluster_id: int,
        signature: Any,
        clustering_function: Any,
        parent_id: Optional[int] = None,
        creation_query: int = 0,
        arena: Any = None,
        *,
        members_loader: MembersLoader,
        n_objects: int,
        source_pagefile: Optional[Path] = None,
        source_extents: Optional[Tuple[BlobExtent, BlobExtent]] = None,
    ) -> None:
        # The base initializer assigns ``self.store``; route it into the
        # shadow slot with the loader disarmed so nothing materializes yet.
        self._members_loader: Optional[MembersLoader] = None
        self._pending_count = int(n_objects)
        #: Page file the pending extents refer to (reuse guard).
        self.source_pagefile = source_pagefile
        #: ``(ids, members)`` extents this cluster was loaded from.
        self.source_extents = source_extents
        super().__init__(
            cluster_id=cluster_id,
            signature=signature,
            clustering_function=clustering_function,
            parent_id=parent_id,
            creation_query=creation_query,
            arena=arena,
        )
        self._members_loader = members_loader

    @property  # type: ignore[override]
    def store(self) -> Any:
        self.ensure_materialized()
        return self._store

    @store.setter
    def store(self, value: Any) -> None:
        self._store = value

    @property
    def n_objects(self) -> int:  # type: ignore[override]
        if self._members_loader is not None:
            return self._pending_count
        return len(self._store)

    @property
    def is_materialized(self) -> bool:
        """True once the member arrays are resident."""
        return self._members_loader is None

    def ensure_materialized(self) -> None:
        """Fetch the member arrays from the page file, once."""
        loader = self._members_loader
        if loader is None:
            return
        ids, lows, highs = loader()
        if int(ids.shape[0]) != self._pending_count:
            raise ValueError(
                f"corrupt paged store: cluster {self.cluster_id} manifest says "
                f"{self._pending_count} members, page file holds {int(ids.shape[0])}"
            )
        if ids.size:
            self._store.extend(ids, lows, highs)
            self.candidates.add_object_counts(lows, highs)
        self._members_loader = None


# ----------------------------------------------------------------------
# Blob I/O helpers
# ----------------------------------------------------------------------
def _read_extent(
    pagefile: Path, extent: BlobExtent, blob_id: int, page_size: int
) -> bytes:
    """Read and validate one blob straight from the page file (lazy path)."""
    with open(pagefile, "rb") as handle:
        handle.seek(extent.start_page * page_size)
        buffer = handle.read(extent.page_count * page_size)
    data = decode_blob(
        buffer,
        0,
        extent.page_count,
        page_size=page_size,
        blob_id=blob_id,
        expected_crc=extent.crc,
    )
    if data is None or len(data) != extent.length:
        raise ValueError(
            f"corrupt paged store: blob {blob_id} of {pagefile} failed validation "
            "(run `repro repair` to salvage the intact pages)"
        )
    return data


def _extract_blob(
    buffer: bytes, extent: BlobExtent, blob_id: int, page_size: int, pagefile: Path
) -> bytes:
    """Validate one blob out of an already-read page file (eager path)."""
    data = decode_blob(
        buffer,
        extent.start_page,
        extent.page_count,
        page_size=page_size,
        blob_id=blob_id,
        expected_crc=extent.crc,
    )
    if data is None or len(data) != extent.length:
        raise ValueError(
            f"corrupt paged store: blob {blob_id} of {pagefile} failed validation "
            "(run `repro repair` to salvage the intact pages)"
        )
    return data


def _make_members_loader(
    pagefile: Path,
    extent: BlobExtent,
    blob_id: int,
    ids: np.ndarray,
    dimensions: int,
    page_size: int,
    storage: Optional[StorageBackend],
) -> MembersLoader:
    def load() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        data = _read_extent(pagefile, extent, blob_id, page_size)
        if storage is not None:
            storage.on_pages_read(extent.page_count, extent.page_count * page_size)
        lows, highs = unpack_members(data, dimensions)
        return ids, lows, highs

    return load


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
#: Per-blob commit plan: reuse a committed extent, or write new bytes.
_Reuse = Tuple[str, BlobExtent]
_Write = Tuple[str, bytes, int, bool, int, int]  # pages, count, compressed, length, crc


class PagedStore:
    """One paged store directory: commit, open and load index snapshots."""

    def __init__(
        self,
        directory: PathLike,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        compress: bool = True,
        fs: FileSystem = REAL_FS,
        _table: Optional[PageTable] = None,
    ) -> None:
        self._directory = Path(directory)
        self._page_size = validate_page_size(page_size)
        self._compress = bool(compress)
        self._fs = fs
        self._table = _table

    # -- constructors ----------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: PathLike,
        *,
        page_size: int = DEFAULT_PAGE_SIZE,
        compress: bool = True,
        fs: FileSystem = REAL_FS,
    ) -> "PagedStore":
        """Prepare a fresh store directory (committed by the first commit)."""
        directory = Path(directory)
        if is_paged_store(directory):
            raise ValueError(f"{directory} already holds a paged store; open it instead")
        fs.mkdir(directory)
        return cls(directory, page_size=page_size, compress=compress, fs=fs)

    @classmethod
    def open(
        cls, directory: PathLike, *, compress: bool = True, fs: FileSystem = REAL_FS
    ) -> "PagedStore":
        """Open the generation the superblock names as committed."""
        directory = Path(directory)
        super_path = directory / SUPERBLOCK_NAME
        if not super_path.is_file():
            raise ValueError(f"not a paged store (no {SUPERBLOCK_NAME}): {directory}")
        superblock = decode_superblock(super_path.read_bytes())
        if superblock is None:
            raise ValueError(
                f"corrupt superblock in {directory} "
                "(run `repro repair` to salvage the intact pages)"
            )
        store = cls.open_generation(
            directory, superblock.generation, compress=compress, fs=fs
        )
        if store.page_size != superblock.page_size:
            raise ValueError(
                f"superblock of {directory} says {superblock.page_size}-byte pages, "
                f"manifest says {store.page_size}"
            )
        return store

    @classmethod
    def open_generation(
        cls,
        directory: PathLike,
        generation: int,
        *,
        compress: bool = True,
        fs: FileSystem = REAL_FS,
        resync: bool = False,
    ) -> "PagedStore":
        """Open one explicit generation (the durable-recovery entry point).

        With ``resync=True`` the directory is rolled back to *generation*:
        newer, uncommitted manifests and page files are removed, a torn
        append tail is truncated, and the superblock is rewritten to name
        *generation* — recovering from a crash between a store commit and
        the durable checkpoint manifest that would have referenced it.
        """
        directory = Path(directory)
        manifest_path = directory / _manifest_name(generation)
        if not manifest_path.is_file():
            raise ValueError(f"paged store {directory} has no generation {generation}")
        table = PageTable.from_json(manifest_path.read_bytes(), path=manifest_path)
        if table.generation != generation:
            raise ValueError(
                f"manifest {manifest_path} claims generation {table.generation}"
            )
        store = cls(
            directory,
            page_size=table.page_size,
            compress=compress,
            fs=fs,
            _table=table,
        )
        if resync:
            store._resync()
        return store

    # -- introspection ---------------------------------------------------
    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def generation(self) -> int:
        """Generation of the last committed page table (0 = none yet)."""
        return self._table.generation if self._table is not None else 0

    @property
    def table(self) -> Optional[PageTable]:
        """The last committed page table, if any."""
        return self._table

    @property
    def pagefile_path(self) -> Optional[Path]:
        """Path of the committed pagefile, if a generation exists."""
        if self._table is None:
            return None
        return self._directory / self._table.pagefile

    # -- committing ------------------------------------------------------
    def commit(
        self,
        index: AdaptiveClusteringIndex,
        *,
        incremental: bool = True,
        include_statistics: bool = True,
        prune: bool = True,
    ) -> CommitStats:
        """Write *index* as the next generation; returns what was written.

        With ``incremental=True`` (and a previous generation to diff
        against) only clusters whose blob fingerprints changed write
        pages; everything else keeps its extents.  ``prune=False`` defers
        the removal of superseded files to an explicit :meth:`prune` —
        the durable checkpoint uses that to keep the previous generation
        until its own manifest commits.
        """
        fs = self._fs
        fs.mkdir(self._directory)
        previous = self._table if incremental else None
        generation = self._next_generation()
        page_size = self._page_size
        clusters: List[Cluster] = sorted(
            index._clusters.values(), key=lambda c: int(c.cluster_id)
        )
        mode = "full" if previous is None else "incremental"
        compacted = False

        plans = self._plan(clusters, previous)
        if previous is not None:
            appended = sum(p[2] for _, ip, mp in plans for p in (ip, mp) if p[0] == "write")
            reused = sum(
                p[1].page_count for _, ip, mp in plans for p in (ip, mp) if p[0] == "reuse"
            )
            total_after = previous.total_pages + appended
            if total_after > 0 and (appended + reused) / total_after < COMPACTION_THRESHOLD:
                # Too much of the file would be dead weight: rewrite.
                previous = None
                mode = "incremental"
                compacted = True
                plans = self._plan(clusters, None)

        # Lay the written blobs out: appended after the committed pages of
        # the current file, or from page zero of a fresh file.
        if previous is not None:
            pagefile = previous.pagefile
            cursor = previous.total_pages
        else:
            pagefile = _pagefile_name(generation)
            cursor = 0
        written_chunks: List[bytes] = []
        entries: List[ClusterEntry] = []
        clusters_written = 0
        pages_written = 0
        for cluster, ids_plan, members_plan in plans:
            extents: List[BlobExtent] = []
            dirty = False
            for plan in (ids_plan, members_plan):
                if plan[0] == "reuse":
                    extents.append(plan[1])
                    continue
                _, encoded, count, compressed, length, crc = plan
                extents.append(
                    BlobExtent(
                        start_page=cursor,
                        page_count=count,
                        length=length,
                        crc=crc,
                        compressed=compressed,
                    )
                )
                written_chunks.append(encoded)
                cursor += count
                pages_written += count
                dirty = True
            if dirty:
                clusters_written += 1
            entries.append(
                self._entry(cluster, extents[0], extents[1], include_statistics)
            )

        pagefile_path = self._directory / pagefile
        if previous is None:
            handle = fs.open_write(pagefile_path)
            try:
                for chunk in written_chunks:
                    handle.write(chunk)
                fs.fsync(handle)
            finally:
                handle.close()
        elif written_chunks:
            expected = previous.total_pages * page_size
            if pagefile_path.stat().st_size != expected:
                # A crash mid-append left a torn, unreferenced tail.
                fs.truncate(pagefile_path, expected)
            handle = fs.open_append(pagefile_path)
            try:
                for chunk in written_chunks:
                    handle.write(chunk)
                fs.fsync(handle)
            finally:
                handle.close()

        table = PageTable(
            generation=generation,
            page_size=page_size,
            pagefile=pagefile,
            total_pages=cursor,
            config=config_to_dict(index.config),
            total_queries=int(index.total_queries),
            queries_since_reorganization=int(index.queries_since_reorganization),
            reorganization_count=int(index.reorganization_count),
            include_statistics=include_statistics,
            clusters=tuple(entries),
        )
        manifest = table.to_json()
        fs.write_file(self._directory / _manifest_name(generation), manifest)
        fs.barrier("paged-commit")
        fs.write_file(
            self._directory / SUPERBLOCK_NAME, encode_superblock(page_size, generation)
        )
        self._table = table
        if pages_written:
            index._storage.on_pages_written(pages_written, pages_written * page_size)
        if prune:
            self.prune()
        return CommitStats(
            generation=generation,
            mode=mode,
            compacted=compacted,
            clusters_total=len(clusters),
            clusters_written=clusters_written,
            pages_written=pages_written,
            page_bytes_written=pages_written * page_size,
            manifest_bytes=len(manifest),
            total_pages=table.total_pages,
            live_pages=table.live_pages,
        )

    def _plan(
        self, clusters: List[Cluster], previous: Optional[PageTable]
    ) -> List[Tuple[Cluster, Any, Any]]:
        """Decide, per blob, between keeping extents and writing pages."""
        prev_entries: Dict[int, ClusterEntry] = (
            {e.cluster_id: e for e in previous.clusters} if previous is not None else {}
        )
        current_pagefile = (
            self._directory / previous.pagefile if previous is not None else None
        )
        plans: List[Tuple[Cluster, Any, Any]] = []
        for cluster in clusters:
            cluster_id = int(cluster.cluster_id)
            if current_pagefile is not None:
                extents = self._resident_extents(cluster, current_pagefile)
                if extents is not None:
                    plans.append((cluster, ("reuse", extents[0]), ("reuse", extents[1])))
                    continue
            cluster.ensure_materialized()
            prev_entry = prev_entries.get(cluster_id)
            ids_data = pack_ids(cluster.store.ids)
            members_data = pack_members(cluster.store.lows, cluster.store.highs)
            plans.append(
                (
                    cluster,
                    self._blob_plan(
                        _ids_blob_id(cluster_id),
                        ids_data,
                        prev_entry.ids if prev_entry is not None else None,
                    ),
                    self._blob_plan(
                        _members_blob_id(cluster_id),
                        members_data,
                        prev_entry.members if prev_entry is not None else None,
                    ),
                )
            )
        return plans

    def _resident_extents(
        self, cluster: Cluster, current_pagefile: Path
    ) -> Optional[Tuple[BlobExtent, BlobExtent]]:
        """Committed extents still valid for an unmaterialized lazy cluster."""
        if not isinstance(cluster, LazyCluster) or cluster.is_materialized:
            return None
        if cluster.source_extents is None or cluster.source_pagefile is None:
            return None
        if cluster.source_pagefile != current_pagefile:
            return None
        return cluster.source_extents

    def _blob_plan(
        self, blob_id: int, data: bytes, prev_extent: Optional[BlobExtent]
    ) -> Any:
        crc = blob_crc(data)
        if (
            prev_extent is not None
            and prev_extent.crc == crc
            and prev_extent.length == len(data)
        ):
            return ("reuse", prev_extent)
        encoded, count, compressed = encode_blob(
            blob_id, data, page_size=self._page_size, compress=self._compress
        )
        return ("write", encoded, count, compressed, len(data), crc)

    def _entry(
        self,
        cluster: Cluster,
        ids_extent: BlobExtent,
        members_extent: BlobExtent,
        include_statistics: bool,
    ) -> ClusterEntry:
        candidate_queries: Optional[List[int]] = None
        if include_statistics:
            candidate_queries = [int(v) for v in cluster.candidates.query_counts]
        return ClusterEntry(
            cluster_id=int(cluster.cluster_id),
            parent_id=None if cluster.parent_id is None else int(cluster.parent_id),
            query_count=int(cluster.query_count) if include_statistics else 0,
            creation_query=int(cluster.creation_query) if include_statistics else 0,
            n_objects=int(cluster.n_objects),
            signature=[
                [float(v) for v in row] for row in signature_to_array(cluster.signature)
            ],
            candidate_queries=candidate_queries,
            ids=ids_extent,
            members=members_extent,
        )

    def _next_generation(self) -> int:
        """One past every generation on disk (committed or orphaned)."""
        newest = self.generation
        if self._directory.is_dir():
            for path in self._directory.iterdir():
                match = _MANIFEST_RE.match(path.name)
                if match:
                    newest = max(newest, int(match.group(1)))
        return newest + 1

    def generation_files(self) -> List[Tuple[str, bytes]]:
        """The committed generation as ``(file name, bytes)`` pairs.

        Exactly what a copy of the store needs to reopen at this
        generation: the superblock naming it, its page-table manifest and
        the page file up to the generation's append point (an uncommitted
        append tail is left out).  Replication bootstraps followers from
        these files.
        """
        table = self._table
        if table is None:
            raise ValueError(f"paged store {self._directory} has no committed generation")
        manifest = _manifest_name(table.generation)
        with open(self._directory / table.pagefile, "rb") as handle:
            pages = handle.read(table.total_pages * table.page_size)
        return [
            (SUPERBLOCK_NAME, encode_superblock(table.page_size, table.generation)),
            (manifest, (self._directory / manifest).read_bytes()),
            (table.pagefile, pages),
        ]

    # -- maintenance -----------------------------------------------------
    def prune(self) -> None:
        """Remove every manifest and page file the committed table outgrew."""
        table = self._table
        if table is None or not self._directory.is_dir():
            return
        for path in sorted(self._directory.iterdir()):
            match = _MANIFEST_RE.match(path.name)
            if match and int(match.group(1)) != table.generation:
                self._fs.remove(path)
                continue
            if _PAGEFILE_RE.match(path.name) and path.name != table.pagefile:
                self._fs.remove(path)

    def _resync(self) -> None:
        """Roll the directory back to the opened generation (recovery)."""
        table = self._table
        if table is None:  # pragma: no cover - open_generation guarantees a table
            return
        for path in sorted(self._directory.iterdir()):
            match = _MANIFEST_RE.match(path.name) or _PAGEFILE_RE.match(path.name)
            if match and int(match.group(1)) > table.generation:
                if path.name != table.pagefile:
                    self._fs.remove(path)
        pagefile_path = self._directory / table.pagefile
        expected = table.total_pages * self._page_size
        if pagefile_path.is_file() and pagefile_path.stat().st_size > expected:
            self._fs.truncate(pagefile_path, expected)
        super_path = self._directory / SUPERBLOCK_NAME
        superblock = (
            decode_superblock(super_path.read_bytes()) if super_path.is_file() else None
        )
        if superblock is None or superblock.generation != table.generation:
            self._fs.write_file(
                super_path, encode_superblock(self._page_size, table.generation)
            )

    # -- loading ---------------------------------------------------------
    def load_index(
        self, storage: Optional[StorageBackend] = None, *, lazy: bool = False
    ) -> AdaptiveClusteringIndex:
        """Rebuild the committed index; ``lazy=True`` defers member arrays.

        Candidate object counts are never stored: they are recomputed from
        the member arrays (on load, or on first touch for lazy clusters),
        so the statistics invariants hold either way.
        """
        table = self._table
        if table is None:
            raise ValueError(f"paged store {self._directory} has no committed generation")
        config = config_from_dict(table.config)
        dimensions = int(config.dimensions)
        storage = storage or storage_for_scenario(
            config.scenario, config.cost, config.reserved_slot_fraction
        )
        index = AdaptiveClusteringIndex(config=config, storage=storage)

        # Drop the automatically created root: the page table defines the
        # full cluster set, including its own root.
        auto_root_id = index.root.cluster_id
        index._storage.on_cluster_removed(auto_root_id)
        index._arena.release(auto_root_id)
        index._clusters.clear()
        index._object_locations.clear()

        pagefile_path = self._directory / table.pagefile
        page_size = table.page_size
        # A truncated page file fails here, not at a lazy cluster's first touch.
        size = pagefile_path.stat().st_size if pagefile_path.is_file() else 0
        if size < table.total_pages * page_size:
            raise ValueError(
                f"corrupt paged store: {pagefile_path} holds {size} bytes, "
                f"generation {table.generation} needs {table.total_pages * page_size} "
                "(run `repro repair` to salvage the intact pages)"
            )
        buffer: Optional[bytes] = None if lazy else pagefile_path.read_bytes()

        root_id: Optional[int] = None
        max_cluster_id = -1
        for entry in table.clusters:
            cluster_id = entry.cluster_id
            max_cluster_id = max(max_cluster_id, cluster_id)
            signature = signature_from_array(np.asarray(entry.signature, dtype=np.float64))
            ids_blob = _ids_blob_id(cluster_id)
            if buffer is not None:
                ids_data = _extract_blob(
                    buffer, entry.ids, ids_blob, page_size, pagefile_path
                )
            else:
                ids_data = _read_extent(pagefile_path, entry.ids, ids_blob, page_size)
            storage.on_pages_read(entry.ids.page_count, entry.ids.page_count * page_size)
            ids = unpack_ids(ids_data)
            if int(ids.shape[0]) != entry.n_objects:
                raise ValueError(
                    f"corrupt paged store: cluster {cluster_id} manifest says "
                    f"{entry.n_objects} members, identifier blob holds {int(ids.shape[0])}"
                )
            cluster: Cluster
            if lazy:
                cluster = LazyCluster(
                    cluster_id=cluster_id,
                    signature=signature,
                    clustering_function=index._clustering_function,
                    parent_id=entry.parent_id,
                    creation_query=entry.creation_query,
                    arena=index._arena,
                    members_loader=_make_members_loader(
                        pagefile_path,
                        entry.members,
                        _members_blob_id(cluster_id),
                        ids,
                        dimensions,
                        page_size,
                        storage,
                    ),
                    n_objects=entry.n_objects,
                    source_pagefile=pagefile_path,
                    source_extents=(entry.ids, entry.members),
                )
            else:
                cluster = Cluster(
                    cluster_id=cluster_id,
                    signature=signature,
                    clustering_function=index._clustering_function,
                    parent_id=entry.parent_id,
                    creation_query=entry.creation_query,
                    arena=index._arena,
                )
                members_data = _extract_blob(
                    buffer or b"",
                    entry.members,
                    _members_blob_id(cluster_id),
                    page_size,
                    pagefile_path,
                )
                storage.on_pages_read(
                    entry.members.page_count, entry.members.page_count * page_size
                )
                lows, highs = unpack_members(members_data, dimensions)
                if int(lows.shape[0]) != entry.n_objects:
                    raise ValueError(
                        f"corrupt paged store: cluster {cluster_id} manifest says "
                        f"{entry.n_objects} members, member blob holds {int(lows.shape[0])}"
                    )
                if ids.size:
                    cluster.add_objects_bulk(ids, lows, highs)
            cluster.query_count = entry.query_count
            if table.include_statistics and entry.candidate_queries is not None:
                saved = np.asarray(entry.candidate_queries, dtype=np.int64)
                if saved.shape != cluster.candidates.query_counts.shape:
                    raise ValueError(
                        f"corrupt paged store: cluster {cluster_id} stores "
                        f"{saved.shape} candidate query counts, its signature "
                        f"defines {cluster.candidates.query_counts.shape} candidates"
                    )
                cluster.candidates.query_counts = saved.copy()
            index._clusters[cluster_id] = cluster
            for object_id in ids:
                index._object_locations[int(object_id)] = cluster_id
            index._storage.on_cluster_created(cluster_id, entry.n_objects)
            if entry.parent_id is None:
                root_id = cluster_id

        if root_id is None:
            raise ValueError("corrupt paged store: no root cluster found")
        for cluster in index._clusters.values():
            if cluster.parent_id is not None:
                parent = index._clusters.get(cluster.parent_id)
                if parent is None:
                    raise ValueError(
                        f"corrupt paged store: cluster {cluster.cluster_id} references "
                        f"missing parent {cluster.parent_id}"
                    )
                parent.add_child(cluster.cluster_id)
        index._root_id = root_id
        index._next_cluster_id = max_cluster_id + 1
        index._total_queries = table.total_queries
        index._queries_since_reorganization = table.queries_since_reorganization
        index._reorganization_count = table.reorganization_count
        index._invalidate_signature_matrix()
        return index

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"PagedStore({str(self._directory)!r}, generation={self.generation}, "
            f"page_size={self._page_size})"
        )


def open_store(directory: PathLike, *, fs: FileSystem = REAL_FS) -> PagedStore:
    """The store at *directory* (at its superblock generation), or a new one."""
    if is_paged_store(directory):
        return PagedStore.open(directory, fs=fs)
    return PagedStore.create(directory, fs=fs)
