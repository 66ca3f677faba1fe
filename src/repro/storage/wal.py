"""Write-ahead log: append-only, checksummed, length-prefixed mutation records.

This module is the storage half of the durability subsystem (the policy
half — checkpoints, recovery, the pending-op commit protocol — lives in
:mod:`repro.api.durability`).  It provides two things:

* a tiny **filesystem seam** (:class:`FileSystem`) through which every
  *commit-critical* file operation flows — WAL appends, fsyncs, atomic
  renames, truncations, removals.  (Bulk snapshot-payload bytes are the
  one exception: they are written with plain OS calls into staged
  locations that recovery cannot see, then made durable by seam fsyncs
  before the rename/manifest that commits them.)  Production code uses
  :data:`REAL_FS`; the fault-injection harness (``tests/conftest.py``)
  substitutes a wrapper that counts operations, models an OS page cache
  (unsynced writes may be lost, partially or wholly, at a crash) and
  kills the process at an enumerated crash point;
* the **WAL file format** and its reader/writer.

WAL record format (little-endian throughout)
--------------------------------------------

A WAL file starts with a fixed 20-byte header::

    magic     4 bytes   b"RWAL"
    version   u16       WAL_FORMAT_VERSION
    reserved  u16       0
    dims      u32       dimensionality of the logged boxes
    start_lsn u64       LSN of the first record this file may contain

followed by zero or more records, each one :mod:`repro.wire` frame
(u32 payload length, u32 CRC-32 of the payload, payload — the same
frame replication ships byte for byte), and each payload starting with::

    lsn       u64       monotonically increasing log sequence number
    opcode    u8        one of the OP_* codes
    gid       u64       global operation id (0 = single-shard operation)

then an opcode-specific body:

========  ==========================================================
opcode    body
========  ==========================================================
INSERT    i64 object_id, f64[dims] lows, f64[dims] highs
DELETE    i64 object_id
BULK      u32 count, then count x (i64 id, f64[dims] lows+highs)
DELBULK   u32 count, then count x i64 object_id
REORG     (empty)
========  ==========================================================

Atomic-commit invariants
------------------------

* **Torn tails are truncated, never interpreted.**  The reader stops at the
  first frame whose length field runs past the end of the file or whose
  CRC does not match; everything before that point is valid, everything
  after is discarded.  A record therefore either exists completely
  (applied on replay → post-op state) or not at all (→ pre-op state).
* **A record is durable only after ``sync()``.**  Appends go through the
  filesystem seam so the page-cache model of the fault harness applies;
  callers acknowledge an operation only after the fsync.
* **Reset is an atomic rename.**  ``reset()`` writes a fresh header (with
  the new ``start_lsn``) to a temp file, fsyncs it and renames it over the
  log, so a crash mid-reset leaves either the full old log or the fresh
  empty one — both consistent, because replay filters records by LSN
  against the checkpoint manifest.
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import wire

PathLike = Union[str, Path]

#: Bump on any change to the header or record layout.
WAL_FORMAT_VERSION = 1

WAL_MAGIC = b"RWAL"
_HEADER = struct.Struct("<4sHHIQ")  # magic, version, reserved, dims, start_lsn
_FRAME = wire.FRAME_HEAD  # payload length, payload crc32
_PREFIX = struct.Struct("<QBQ")  # lsn, opcode, gid
_WAL = wire.Codec("WAL", "WAL frame", ValueError)

OP_INSERT = 1
OP_DELETE = 2
OP_BULK_LOAD = 3
OP_DELETE_BULK = 4
OP_REORGANIZE = 5

_OP_NAMES = {
    OP_INSERT: "insert",
    OP_DELETE: "delete",
    OP_BULK_LOAD: "bulk_load",
    OP_DELETE_BULK: "delete_bulk",
    OP_REORGANIZE: "reorganize",
}


# ----------------------------------------------------------------------
# The filesystem seam
# ----------------------------------------------------------------------
class FileSystem:
    """Every durability-critical file operation, behind one injectable seam.

    The durability layer never calls ``os`` / ``open`` directly for a write
    it relies on for crash consistency; it goes through an instance of this
    class.  The default implementation simply forwards to the OS.  The
    fault-injection harness subclasses it to count operations, buffer
    unsynced writes like a page cache and crash at an enumerated point.

    Reads do not need the seam: recovery reads whatever survived with plain
    ``open``.
    """

    def open_append(self, path: PathLike) -> BinaryIO:
        """Open *path* for appending bytes."""
        return open(path, "ab")

    def open_write(self, path: PathLike) -> BinaryIO:
        """Open *path* for writing bytes (truncating)."""
        return open(path, "wb")

    def fsync(self, handle: BinaryIO) -> None:
        """Flush *handle* and force its bytes to stable storage."""
        handle.flush()
        os.fsync(handle.fileno())

    def fsync_path(self, path: PathLike) -> None:
        """Force an already-written file's bytes to stable storage."""
        with open(path, "rb+") as handle:
            os.fsync(handle.fileno())

    def replace(self, src: PathLike, dst: PathLike) -> None:
        """Atomically rename *src* over *dst* (files or directories)."""
        os.replace(src, dst)

    def remove(self, path: PathLike) -> None:
        """Remove one file."""
        os.remove(path)

    def rmtree(self, path: PathLike) -> None:
        """Remove a directory tree (used for superseded checkpoints)."""
        shutil.rmtree(path)

    def truncate(self, path: PathLike, size: int) -> None:
        """Truncate *path* to *size* bytes."""
        with open(path, "rb+") as handle:
            handle.truncate(size)

    def mkdir(self, path: PathLike) -> None:
        """Create a directory (parents included, existing ok)."""
        Path(path).mkdir(parents=True, exist_ok=True)

    def barrier(self, label: str) -> None:
        """A named no-op: an enumerable crash point with no I/O of its own."""

    def write_file(self, path: PathLike, data: bytes) -> None:
        """Write *data* to *path* atomically: temp file, fsync, rename."""
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        handle = self.open_write(tmp)
        try:
            handle.write(data)
            self.fsync(handle)
        finally:
            handle.close()
        self.replace(tmp, path)


#: The production filesystem: plain OS calls.
REAL_FS = FileSystem()


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(frozen=True, eq=False)
class WalRecord:
    """One decoded WAL record.

    ``eq=False``: the generated field-tuple ``__eq__`` would raise on the
    ndarray fields; records compare by identity, contents by field.
    """

    lsn: int
    opcode: int
    #: Global operation id tying together the per-shard pieces of one
    #: multi-shard logical operation; 0 for single-shard operations.
    gid: int
    #: Object identifiers (one for insert/delete, many for bulk ops).
    object_ids: Tuple[int, ...] = ()
    #: Box bounds for insert/bulk_load, shape (n, dims); ``None`` otherwise.
    lows: Optional[np.ndarray] = None
    highs: Optional[np.ndarray] = None

    @property
    def op_name(self) -> str:
        return _OP_NAMES.get(self.opcode, f"op{self.opcode}")


def encode_record(
    lsn: int,
    opcode: int,
    *,
    gid: int = 0,
    object_ids: Sequence[int] = (),
    lows: Optional[np.ndarray] = None,
    highs: Optional[np.ndarray] = None,
) -> bytes:
    """Encode one record (frame + payload) ready to append."""
    parts = [_PREFIX.pack(lsn, opcode, gid)]
    if opcode == OP_INSERT:
        assert lows is not None and highs is not None and len(object_ids) == 1
        parts.append(struct.pack("<q", int(object_ids[0])))
        parts.append(np.ascontiguousarray(lows, dtype=np.float64).tobytes())
        parts.append(np.ascontiguousarray(highs, dtype=np.float64).tobytes())
    elif opcode == OP_DELETE:
        assert len(object_ids) == 1
        parts.append(struct.pack("<q", int(object_ids[0])))
    elif opcode == OP_BULK_LOAD:
        assert lows is not None and highs is not None
        parts.append(struct.pack("<I", len(object_ids)))
        parts.append(np.asarray(object_ids, dtype=np.int64).tobytes())
        parts.append(np.ascontiguousarray(lows, dtype=np.float64).tobytes())
        parts.append(np.ascontiguousarray(highs, dtype=np.float64).tobytes())
    elif opcode == OP_DELETE_BULK:
        parts.append(struct.pack("<I", len(object_ids)))
        parts.append(np.asarray(object_ids, dtype=np.int64).tobytes())
    elif opcode == OP_REORGANIZE:
        pass
    else:
        raise ValueError(f"unknown WAL opcode: {opcode}")
    return wire.seal(b"".join(parts))


def decode_payload(payload: bytes, dims: int) -> WalRecord:
    """Decode one record payload (already CRC-verified)."""
    lsn, opcode, gid = _PREFIX.unpack_from(payload, 0)
    offset = _PREFIX.size
    box_bytes = 8 * dims
    if opcode == OP_INSERT:
        (object_id,) = struct.unpack_from("<q", payload, offset)
        offset += 8
        lows = np.frombuffer(payload, dtype=np.float64, count=dims, offset=offset)
        offset += box_bytes
        highs = np.frombuffer(payload, dtype=np.float64, count=dims, offset=offset)
        return WalRecord(
            lsn, opcode, gid, (int(object_id),), lows.reshape(1, dims), highs.reshape(1, dims)
        )
    if opcode == OP_DELETE:
        (object_id,) = struct.unpack_from("<q", payload, offset)
        return WalRecord(lsn, opcode, gid, (int(object_id),))
    if opcode == OP_BULK_LOAD:
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        ids = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
        offset += 8 * count
        lows = np.frombuffer(payload, dtype=np.float64, count=count * dims, offset=offset)
        offset += box_bytes * count
        highs = np.frombuffer(payload, dtype=np.float64, count=count * dims, offset=offset)
        return WalRecord(
            lsn,
            opcode,
            gid,
            tuple(int(x) for x in ids),
            lows.reshape(count, dims),
            highs.reshape(count, dims),
        )
    if opcode == OP_DELETE_BULK:
        (count,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        ids = np.frombuffer(payload, dtype=np.int64, count=count, offset=offset)
        return WalRecord(lsn, opcode, gid, tuple(int(x) for x in ids))
    if opcode == OP_REORGANIZE:
        return WalRecord(lsn, opcode, gid)
    raise ValueError(f"unknown WAL opcode: {opcode}")


@dataclass(frozen=True)
class WalScan:
    """Result of reading a WAL file tolerantly."""

    dimensions: int
    start_lsn: int
    records: Tuple[WalRecord, ...]
    #: Byte offset of the end of the last valid record; anything after this
    #: offset is a torn tail and must be truncated before appending.
    good_length: int
    #: True when bytes beyond ``good_length`` existed (a torn record).
    torn: bool

    @property
    def next_lsn(self) -> int:
        if self.records:
            return self.records[-1].lsn + 1
        return self.start_lsn


def _read_header(data: bytes, path: PathLike) -> Tuple[int, int]:
    """Validate a WAL header; returns ``(dimensions, start_lsn)``."""
    if len(data) < _HEADER.size:
        raise ValueError(f"not a WAL file (no header): {path}")
    magic, version, _reserved, dims, start_lsn = _HEADER.unpack_from(data, 0)
    if magic != WAL_MAGIC:
        raise ValueError(f"not a WAL file (bad magic): {path}")
    if version != WAL_FORMAT_VERSION:
        raise ValueError(f"unsupported WAL format version {version}: {path}")
    return int(dims), int(start_lsn)


def _scan_payloads(data: bytes, start_lsn: int) -> Tuple[List[bytes], int]:
    """Split a WAL body into validated record payloads, stopping at the tail.

    The one tolerant scanner behind both :func:`read_wal` (decoded records
    for replay) and :func:`read_frames` (raw frames for replication): a
    frame whose length runs past the file, whose CRC mismatches or whose
    LSN breaks monotonicity ends the scan.  Returns the payloads and the
    byte offset of the end of the last valid record.
    """
    payloads: List[bytes] = []
    offset = _HEADER.size
    good = offset
    expected_lsn = start_lsn
    while offset + _FRAME.size <= len(data):
        length, crc = _FRAME.unpack_from(data, offset)
        payload_start = offset + _FRAME.size
        payload_end = payload_start + length
        if payload_end > len(data):
            break  # torn: the payload never fully hit the disk
        payload = data[payload_start:payload_end]
        if zlib.crc32(payload) != crc:
            break  # torn: partially persisted or garbage bytes
        if len(payload) < _PREFIX.size:
            break  # torn: too short to carry even the record prefix
        (lsn,) = struct.unpack_from("<Q", payload, 0)
        if lsn != expected_lsn:
            break  # torn: stale bytes from a previous generation of the file
        payloads.append(payload)
        expected_lsn += 1
        offset = payload_end
        good = offset
    return payloads, good


def read_wal(path: PathLike) -> WalScan:
    """Read a WAL file, tolerating (and reporting) a torn trailing record.

    Raises :class:`ValueError` only for damage that cannot result from a
    crash mid-append: a missing/mismatched header.  Everything after the
    last intact record — a half-written frame, a payload shorter than its
    length field, a CRC mismatch — is treated as the torn tail of the
    crashed append and excluded.
    """
    data = Path(path).read_bytes()
    dims, start_lsn = _read_header(data, path)
    payloads, good = _scan_payloads(data, start_lsn)
    records = tuple(decode_payload(payload, dims) for payload in payloads)
    return WalScan(
        dimensions=dims,
        start_lsn=start_lsn,
        records=records,
        good_length=good,
        torn=good < len(data),
    )


@dataclass(frozen=True)
class FrameScan:
    """Raw-frame view of a WAL file: the unit replication ships.

    Each entry is ``(lsn, frame_bytes)`` where the frame bytes are the
    exact on-disk framing (u32 length + u32 crc32 + payload), ready to be
    re-appended verbatim on a follower with :meth:`WriteAheadLog.append_frame`.
    """

    dimensions: int
    start_lsn: int
    frames: Tuple[Tuple[int, bytes], ...]
    good_length: int
    torn: bool

    @property
    def next_lsn(self) -> int:
        if self.frames:
            return self.frames[-1][0] + 1
        return self.start_lsn


def frame_lsn(frame: bytes) -> int:
    """LSN carried by one encoded frame (framing length check only)."""
    if len(frame) < _FRAME.size + 8:
        raise ValueError("WAL frame shorter than its framing")
    (lsn,) = struct.unpack_from("<Q", frame, _FRAME.size)
    return int(lsn)


def decode_frame(frame: bytes, dims: int) -> WalRecord:
    """Decode one shipped frame (CRC-verified) into a :class:`WalRecord`."""
    return decode_payload(_unseal(frame), dims)


def _unseal(frame: bytes) -> bytes:
    """The checked payload of one shipped frame; :class:`ValueError` otherwise."""
    payload = wire.unseal(frame, _WAL)
    if len(payload) < _PREFIX.size:
        raise ValueError("WAL frame shorter than its framing")
    return payload


def read_frames(path: PathLike, *, min_lsn: int = 0) -> FrameScan:
    """Re-read a WAL file as raw checksummed frames, LSN-tagged.

    The replication catch-up path: a follower bootstraps from a checkpoint
    plus the WAL tail, so frames with ``lsn < min_lsn`` (already contained
    in the checkpoint cut) are excluded.  The same torn-tail rules as
    :func:`read_wal` apply — a divergent unacknowledged suffix is simply
    never returned.
    """
    data = Path(path).read_bytes()
    dims, start_lsn = _read_header(data, path)
    payloads, good = _scan_payloads(data, start_lsn)
    frames: List[Tuple[int, bytes]] = []
    for index, payload in enumerate(payloads):
        lsn = start_lsn + index
        if lsn < min_lsn:
            continue
        frames.append((lsn, wire.seal(payload)))
    return FrameScan(
        dimensions=dims,
        start_lsn=start_lsn,
        frames=tuple(frames),
        good_length=good,
        torn=good < len(data),
    )


# ----------------------------------------------------------------------
# The writer
# ----------------------------------------------------------------------
class WriteAheadLog:
    """Append-only writer over one WAL file.

    The writer keeps a persistent append handle (an open/close per record
    would dominate the logging cost).  ``append_*`` methods frame, checksum
    and buffer a record and return its LSN; nothing is durable until
    :meth:`sync`.  The owning :class:`~repro.api.durability.DurableBackend`
    decides the sync cadence (per operation, or once per group-commit
    batch).
    """

    def __init__(
        self,
        path: PathLike,
        dimensions: int,
        *,
        fs: FileSystem = REAL_FS,
        create: bool = False,
        start_lsn: int = 0,
    ) -> None:
        self._path = Path(path)
        self._dimensions = int(dimensions)
        self._fs = fs
        self._handle: Optional[BinaryIO] = None
        self._observer: Optional[Callable[[int, bytes], None]] = None
        if create or not self._path.exists():
            self._write_fresh(start_lsn)
            self._next_lsn = start_lsn
            self._size = _HEADER.size
        else:
            scan = read_wal(self._path)
            if scan.dimensions != self._dimensions:
                raise ValueError(
                    f"WAL {self._path} logs {scan.dimensions}-dimensional boxes, "
                    f"expected {self._dimensions}"
                )
            if scan.torn:
                fs.truncate(self._path, scan.good_length)
            self._next_lsn = scan.next_lsn
            self._size = scan.good_length

    # -- introspection ---------------------------------------------------
    @property
    def path(self) -> Path:
        return self._path

    @property
    def dimensions(self) -> int:
        return self._dimensions

    @property
    def next_lsn(self) -> int:
        """LSN the next appended record will carry."""
        return self._next_lsn

    @property
    def size(self) -> int:
        """Current byte length of the log (valid content only)."""
        return self._size

    # -- writing ---------------------------------------------------------
    def _write_fresh(self, start_lsn: int) -> None:
        """Atomically replace the file with an empty log starting at *start_lsn*."""
        self.close()
        tmp = self._path.with_name(self._path.name + ".tmp")
        handle = self._fs.open_write(tmp)
        try:
            handle.write(
                _HEADER.pack(WAL_MAGIC, WAL_FORMAT_VERSION, 0, self._dimensions, start_lsn)
            )
            self._fs.fsync(handle)
        finally:
            handle.close()
        self._fs.replace(tmp, self._path)

    def _ensure_handle(self) -> BinaryIO:
        if self._handle is None:
            self._handle = self._fs.open_append(self._path)
        return self._handle

    def append(
        self,
        opcode: int,
        *,
        gid: int = 0,
        object_ids: Sequence[int] = (),
        lows: Optional[np.ndarray] = None,
        highs: Optional[np.ndarray] = None,
    ) -> int:
        """Frame, checksum and buffer one record; returns its LSN.

        Not durable until :meth:`sync`.
        """
        record = encode_record(
            self._next_lsn, opcode, gid=gid, object_ids=object_ids, lows=lows, highs=highs
        )
        self._ensure_handle().write(record)
        lsn = self._next_lsn
        self._next_lsn += 1
        self._size += len(record)
        if self._observer is not None:
            self._observer(lsn, record)
        return lsn

    def append_frame(self, frame: bytes) -> int:
        """Append one already-encoded frame verbatim (the replication path).

        A follower re-validates the framing before trusting the wire: the
        length field must cover the frame exactly, the CRC must match, and
        the payload's LSN must be exactly this writer's ``next_lsn`` — a
        follower never accepts a gap, a rewind or a corrupted frame.
        Returns the appended LSN; not durable until :meth:`sync`.
        """
        (lsn,) = struct.unpack_from("<Q", _unseal(frame), 0)
        if lsn != self._next_lsn:
            raise ValueError(f"out-of-order WAL frame: lsn {lsn}, expected {self._next_lsn}")
        self._ensure_handle().write(frame)
        self._next_lsn += 1
        self._size += len(frame)
        if self._observer is not None:
            self._observer(lsn, frame)
        return int(lsn)

    def set_observer(self, observer: Optional[Callable[[int, bytes], None]]) -> None:
        """Install a hook receiving every appended frame as ``(lsn, bytes)``.

        The replication layer captures frames for shipping at the moment
        they are framed — before any fsync — so the primary never has to
        re-read its own log on the hot path.  Pass ``None`` to remove.
        """
        self._observer = observer

    def append_insert(self, object_id: int, lows: np.ndarray, highs: np.ndarray) -> int:
        return self.append(OP_INSERT, object_ids=(object_id,), lows=lows, highs=highs)

    def append_delete(self, object_id: int) -> int:
        return self.append(OP_DELETE, object_ids=(object_id,))

    def append_bulk_load(
        self, object_ids: Sequence[int], lows: np.ndarray, highs: np.ndarray, *, gid: int = 0
    ) -> int:
        return self.append(OP_BULK_LOAD, gid=gid, object_ids=object_ids, lows=lows, highs=highs)

    def append_delete_bulk(self, object_ids: Sequence[int], *, gid: int = 0) -> int:
        return self.append(OP_DELETE_BULK, gid=gid, object_ids=object_ids)

    def append_reorganize(self, *, gid: int = 0) -> int:
        return self.append(OP_REORGANIZE, gid=gid)

    def sync(self) -> None:
        """Force every appended record to stable storage."""
        if self._handle is not None:
            self._fs.fsync(self._handle)

    def rollback_to(self, size: int, lsn: int) -> None:
        """Discard appended-but-unapplied records (apply failed mid-operation).

        Truncates the file back to *size* bytes and rewinds the LSN counter
        to *lsn*; only ever called with values captured immediately before
        the failed append, with no appends in between.
        """
        self.close()
        self._fs.truncate(self._path, size)
        self._size = size
        self._next_lsn = lsn

    def reset(self, start_lsn: Optional[int] = None) -> None:
        """Empty the log after a checkpoint, atomically.

        The replacement file's header records *start_lsn* (default: the
        current ``next_lsn``) so LSNs stay monotonic across checkpoints.
        """
        if start_lsn is None:
            start_lsn = self._next_lsn
        self._write_fresh(start_lsn)
        self._next_lsn = start_lsn
        self._size = _HEADER.size

    def close(self) -> None:
        """Close the append handle (reopened lazily by the next append)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"WriteAheadLog({str(self._path)!r}, next_lsn={self._next_lsn})"
