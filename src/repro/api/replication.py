"""Per-shard WAL-shipping replication: primaries, followers, promotion.

PR 5 made one node crash-consistent; this module makes a shard survive the
*machine*.  A :class:`ReplicatedBackend` is a :class:`~repro.api.durability.
DurableBackend` that streams its WAL frames, byte for byte and in LSN
order, to one or more followers over a pluggable transport.  Every
request and reply is one :mod:`repro.wire` message frame (a JSON header
plus blobs, CRC-checked and size-capped), and the shipped WAL frames
inside it are themselves :mod:`repro.wire` frames:

* :class:`InProcessTransport` delivers messages synchronously to a
  :class:`ReplicaNode` in the same process (round-tripping through the wire
  encoding, so serialization is exercised everywhere) — the deterministic
  choice for tests and the fault harness;
* :class:`SocketTransport` / :class:`ReplicaServer` carry the same frames
  over TCP for real deployments.

Design invariants
-----------------

* **A replica directory is a byte-faithful clone.**  Bootstrap copies the
  primary's committed checkpoint — per paged store, the superblock, the
  generation's page-table manifest and its page file — then its WAL files,
  any staged operation and (last, as the commit point) the
  ``CHECKPOINT.json`` manifest; every shipped frame is appended verbatim
  afterwards.  The follower's catch-up state is therefore
  *byte-identical* to the primary's durable directory at the same LSN —
  execution counters included — and **promotion is literally durable
  recovery**: :func:`promote` removes the replica marker and runs
  :meth:`DurableBackend.recover`, inheriting the torn-tail truncation,
  staged-operation resolution and restartability the durability suite pins.
* **Ship points are acknowledgement points.**  The primary captures frames
  at append time (a :meth:`WriteAheadLog.set_observer` hook) and ships them
  from :meth:`DurableBackend._after_sync` — after its own fsync, before the
  operation acknowledges.  In ``semi-sync`` mode the follower appends *and
  fsyncs* before acknowledging, so an acknowledged operation is durable on
  every attached follower; in ``async`` mode the follower appends without
  an immediate fsync and its unsynced tail is at the page cache's mercy.
* **Everything crashes through the seam.**  Both ends route every
  durability-critical file operation through their own
  :class:`~repro.storage.wal.FileSystem`, and the transports mark the wire
  with ``barrier("replication-send")`` / ``barrier("replication-ack")``
  crash points, so ``FaultyFS`` enumerates primary, wire and follower
  crashes alike (``tests/api/test_replication_faults.py``).
* **Followers validate, never trust.**  :meth:`WriteAheadLog.append_frame`
  re-checks the CRC and LSN continuity of every shipped frame; a gap, a
  rewind or a corrupted frame raises instead of diverging silently.
* **Read replicas serve reads.**  :meth:`ReplicatedBackend.route_reads_to`
  installs per-shard read delegates on a sharded inner database; a
  delegate answers only while its replica is exactly caught up
  (read-your-writes), falling back to the primary shard otherwise.

Multi-shard staged operations replicate by shipping the same three-step
protocol the WAL uses locally: the ``PENDING.json`` record (put), the
gid-tagged per-shard frames, then the pending clear — so a follower
promoted mid-operation resolves it exactly like local recovery does.
"""

from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    cast,
)

from repro import wire
from repro.api.durability import (
    CHECKPOINT_MANIFEST_NAME,
    PENDING_OP_NAME,
    DurableBackend,
    open_checkpoint,
    read_manifest,
    read_pending,
    replay_pending,
    replay_record,
)
from repro.api.protocol import SpatialBackend
from repro.api.sharding import ShardedDatabase
from repro.storage.wal import (
    REAL_FS,
    FileSystem,
    WriteAheadLog,
    decode_frame,
    frame_lsn,
    read_frames,
    read_wal,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.storage.pagefile import PagedStore

#: Marker file a bootstrap writes last: the directory is a follower clone.
REPLICA_MARKER_NAME = "REPLICA.json"

#: Bump on any change to the message protocol or the marker layout.
REPLICATION_FORMAT_VERSION = 2

#: Acknowledged replication modes (see the module docstring).
REPLICATION_MODES = ("async", "semi-sync")


class ReplicationError(RuntimeError):
    """A replication request failed (protocol violation, gap, lost peer)."""


_REPLICATION = wire.Codec("replication", "replication message", ReplicationError)

#: Encode one replication message frame.
encode_message = wire.encode_message


def decode_message(data: bytes) -> Tuple[Dict[str, Any], List[bytes]]:
    """Invert :func:`encode_message` (the frame head included)."""
    return wire.decode_body(wire.unseal(data, _REPLICATION), _REPLICATION)


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------
class ReplicationTransport:
    """One RPC channel from a primary to one follower.

    ``request`` carries a JSON-serialisable header plus binary blobs (WAL
    frames, checkpoint files) and blocks until the follower's reply — the
    acknowledgement semantics of semi-sync replication live in that
    blocking.  Implementations must mark the wire with the two seam
    barriers so the fault harness can crash between send and acknowledge.
    """

    def request(
        self, header: Dict[str, Any], blobs: Sequence[bytes] = ()
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        """Deliver one message and return the follower's reply."""
        raise NotImplementedError

    def close(self) -> None:
        """Release the channel (idempotent)."""


class InProcessTransport(ReplicationTransport):
    """Synchronous delivery to a :class:`ReplicaNode` in the same process.

    Every message round-trips through the wire encoding, so the in-process
    tests exercise exactly the bytes the socket transport would send.  The
    *fs* seam is the **primary's**: its ``barrier`` calls are the wire's
    enumerable crash points (a crash between "send" and "ack" models a
    primary dying after the follower applied — the lost-ack case).
    """

    def __init__(self, node: "ReplicaNode", *, fs: FileSystem = REAL_FS) -> None:
        self._node = node
        self._fs = fs

    @property
    def node(self) -> "ReplicaNode":
        """The follower this transport delivers to."""
        return self._node

    def request(
        self, header: Dict[str, Any], blobs: Sequence[bytes] = ()
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        message = encode_message(dict(header), list(blobs))
        self._fs.barrier("replication-send")
        decoded_header, decoded_blobs = decode_message(message)
        reply, reply_blobs = self._node.handle(decoded_header, decoded_blobs)
        encoded = encode_message(reply, reply_blobs)
        self._fs.barrier("replication-ack")
        return decode_message(encoded)


class SocketTransport(wire.Connection, ReplicationTransport):
    """Request/response over TCP to a :class:`ReplicaServer`.

    The connection is created lazily and reused; any socket or frame
    failure closes it and surfaces as :class:`ReplicationError` (the
    primary treats the follower as lost — reattach to catch up).  Each
    request is bracketed by the same seam barriers as the in-process
    transport.
    """

    codec = _REPLICATION

    def __init__(
        self,
        address: Tuple[str, int],
        *,
        fs: FileSystem = REAL_FS,
        timeout: float = 30.0,
    ) -> None:
        super().__init__(address, timeout=timeout)
        self._fs = fs

    def request(
        self, header: Dict[str, Any], blobs: Sequence[bytes] = ()
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        payload = self._exchange(
            encode_message(dict(header), list(blobs)),
            lambda: self._fs.barrier("replication-send"),
        )
        reply = wire.decode_body(payload, _REPLICATION)
        self._fs.barrier("replication-ack")
        return reply


class ReplicaServer:
    """Serves one :class:`ReplicaNode` over a listening TCP socket.

    One connection is served at a time, requests strictly in order — the
    same sequential semantics as the in-process transport, so the two
    deployments are behaviourally interchangeable.  Use as a context
    manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(
        self, node: "ReplicaNode", host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self._node = node
        self._listener = socket.create_server((host, port))
        self._listener.settimeout(0.1)
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` to hand to :class:`SocketTransport`."""
        name = self._listener.getsockname()
        return str(name[0]), int(name[1])

    def start(self) -> "ReplicaServer":
        """Start the serving thread; idempotent until :meth:`stop`."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._serve, name="repro-replica-server", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop serving and close the listener."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._listener.close()

    def __enter__(self) -> "ReplicaServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _serve(self) -> None:
        while not self._stop.is_set():
            try:
                connection, _peer = self._listener.accept()
            except TimeoutError:
                continue
            except OSError:  # pragma: no cover - listener closed under us
                break
            with connection:
                self._serve_connection(connection)

    def _serve_connection(self, connection: socket.socket) -> None:
        connection.settimeout(30.0)
        while not self._stop.is_set():
            try:
                payload = wire.recv_frame(connection, _REPLICATION)
                if payload is None:
                    return
                header, blobs = wire.decode_body(payload, _REPLICATION)
            except (OSError, ReplicationError):
                return
            try:
                reply, reply_blobs = self._node.handle(header, blobs)
            except Exception as error:
                reply, reply_blobs = (
                    {"status": "error", "error": f"{type(error).__name__}: {error}"},
                    [],
                )
            try:
                connection.sendall(encode_message(reply, reply_blobs))
            except OSError:
                return


# ----------------------------------------------------------------------
# The follower
# ----------------------------------------------------------------------
class ReplicaNode:
    """A follower: a byte-faithful clone of one primary's durable directory.

    The node owns *directory* and mutates it exclusively through its *fs*
    seam.  After a bootstrap the directory holds the primary's checkpoint,
    manifest and WAL files byte for byte; every shipped frame is appended
    verbatim and also applied to a live in-memory materialisation of the
    store, so the node can serve its shards' reads.  Promotion never uses
    the live state: :func:`promote` recovers from disk, exactly like the
    primary would after a crash.
    """

    def __init__(self, directory: "str | Path", *, fs: FileSystem = REAL_FS) -> None:
        self._directory = Path(directory)
        self._fs = fs
        self._inner: Optional[SpatialBackend] = None
        self._dimensions = 0
        self._wals: List[WriteAheadLog] = []
        self._durable_lsns: List[int] = []
        self._pending: Optional[Dict[str, Any]] = None
        if (self._directory / CHECKPOINT_MANIFEST_NAME).is_file():
            self._open()

    # -- introspection ---------------------------------------------------
    @property
    def directory(self) -> Path:
        """The replica directory (a promotable durable-database directory)."""
        return self._directory

    @property
    def initialized(self) -> bool:
        """True once a bootstrap (or a reopen of one) has installed state."""
        return self._inner is not None

    @property
    def live_backend(self) -> SpatialBackend:
        """The live materialisation of the replicated store (reads only)."""
        if self._inner is None:
            raise ReplicationError("replica is not bootstrapped yet")
        return self._inner

    @property
    def has_pending(self) -> bool:
        """True while a staged multi-shard operation is in flight."""
        return self._pending is not None

    @property
    def n_shards(self) -> int:
        """Number of replicated WAL streams (0 before bootstrap)."""
        return len(self._wals)

    def applied_lsn(self, shard: int) -> int:
        """Next LSN shard *shard* expects — everything below it is applied."""
        return self._wals[shard].next_lsn

    def durable_lsn(self, shard: int) -> int:
        """LSN up to which shard *shard*'s stream is fsynced on this node."""
        return self._durable_lsns[shard]

    def read_backend(self, shard: int) -> SpatialBackend:
        """The live backend serving shard *shard*'s reads."""
        if self._inner is None:
            raise ReplicationError("replica is not bootstrapped yet")
        return self._targets()[shard]

    def _targets(self) -> Sequence[SpatialBackend]:
        assert self._inner is not None
        if isinstance(self._inner, ShardedDatabase):
            return self._inner.shards
        return (self._inner,)

    # -- message dispatch ------------------------------------------------
    def handle(
        self, header: Dict[str, Any], blobs: List[bytes]
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        """Process one replication message; returns the reply.

        Protocol violations raise :class:`ReplicationError` (the in-process
        transport propagates them straight into the primary; the socket
        server turns them into error replies, which the primary's transport
        raises again) — and an injected crash on this node's filesystem
        seam propagates like any crash would: the primary sees a dead
        follower mid-request.
        """
        kind = header.get("kind")
        if kind == "status":
            return self._handle_status()
        if kind == "bootstrap":
            return self._handle_bootstrap(header, blobs)
        if kind == "frames":
            return self._handle_frames(header, blobs)
        if kind == "pending_put":
            return self._handle_pending_put(blobs)
        if kind == "pending_clear":
            return self._handle_pending_clear()
        if kind == "sync":
            return self._handle_sync()
        raise ReplicationError(f"unknown replication message kind: {kind!r}")

    def _handle_status(self) -> Tuple[Dict[str, Any], List[bytes]]:
        return (
            {
                "status": "ok",
                "initialized": self.initialized,
                "pending": self.has_pending,
                "lsns": [wal.next_lsn for wal in self._wals],
                "durable_lsns": list(self._durable_lsns),
            },
            [],
        )

    def _handle_bootstrap(
        self, header: Dict[str, Any], blobs: List[bytes]
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        if self.initialized or (self._directory / CHECKPOINT_MANIFEST_NAME).is_file():
            raise ReplicationError(
                f"{self._directory} already holds replica state; catch up "
                "incrementally or bootstrap into a fresh directory"
            )
        names = header.get("files")
        if not isinstance(names, list) or len(names) != len(blobs):
            raise ReplicationError("bootstrap message files/blobs mismatch")
        if not names or str(names[-1]) != CHECKPOINT_MANIFEST_NAME:
            raise ReplicationError(
                "bootstrap must ship the checkpoint manifest last (the commit point)"
            )
        self._fs.mkdir(self._directory)
        for name, blob in zip(names, blobs):
            relative = Path(str(name))
            if relative.is_absolute() or ".." in relative.parts:
                raise ReplicationError(f"bootstrap file escapes the replica directory: {name!r}")
            target = self._directory / relative
            if len(relative.parts) > 1:
                self._fs.mkdir(target.parent)
            # Atomic (temp + fsync + rename) per file; the manifest lands
            # last, so a crash mid-bootstrap leaves an uncommitted pile a
            # fresh bootstrap may simply overwrite.
            self._fs.write_file(target, blob)
        self._fs.write_file(
            self._directory / REPLICA_MARKER_NAME,
            (
                json.dumps(
                    {"format_version": REPLICATION_FORMAT_VERSION, "role": "replica"}
                )
                + "\n"
            ).encode("utf-8"),
        )
        self._open()
        return (
            {"status": "ok", "lsns": [wal.next_lsn for wal in self._wals]},
            [],
        )

    def _handle_frames(
        self, header: Dict[str, Any], blobs: List[bytes]
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        self._require_open()
        shard = wire.header_int(header, "shard", ReplicationError)
        if not 0 <= shard < len(self._wals):
            raise ReplicationError(f"frames for unknown shard {shard}")
        wal = self._wals[shard]
        target = self._targets()[shard]
        pending_gid = int(self._pending["gid"]) if self._pending is not None else 0
        for frame in blobs:
            lsn = frame_lsn(frame)
            if lsn < wal.next_lsn:
                continue  # duplicate from a retry after a lost acknowledgement
            if lsn > wal.next_lsn:
                raise ReplicationError(
                    f"replication gap on shard {shard}: got lsn {lsn}, "
                    f"expected {wal.next_lsn}; reattach to catch up"
                )
            record = decode_frame(frame, self._dimensions)
            wal.append_frame(frame)
            if pending_gid and record.gid == pending_gid:
                # Part of the staged operation: applied whole at the
                # pending clear (or by recovery), exactly like replay.
                continue
            replay_record(target, record)
        if bool(header.get("sync")):
            wal.sync()
            self._durable_lsns[shard] = wal.next_lsn
        return (
            {
                "status": "ok",
                "lsn": wal.next_lsn,
                "durable_lsn": self._durable_lsns[shard],
            },
            [],
        )

    def _handle_pending_put(
        self, blobs: List[bytes]
    ) -> Tuple[Dict[str, Any], List[bytes]]:
        self._require_open()
        if len(blobs) != 1:
            raise ReplicationError("pending_put carries exactly one record blob")
        try:
            pending = json.loads(blobs[0].decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            raise ReplicationError(f"malformed pending record: {error}") from error
        self._fs.write_file(self._directory / PENDING_OP_NAME, blobs[0])
        self._pending = dict(pending)
        return {"status": "ok"}, []

    def _handle_pending_clear(self) -> Tuple[Dict[str, Any], List[bytes]]:
        self._require_open()
        if self._pending is None:
            raise ReplicationError("pending_clear without a staged operation")
        assert self._inner is not None
        replay_pending(self._inner, self._pending)
        self._fs.remove(self._directory / PENDING_OP_NAME)
        self._pending = None
        return {"status": "ok"}, []

    def _handle_sync(self) -> Tuple[Dict[str, Any], List[bytes]]:
        self._require_open()
        for shard, wal in enumerate(self._wals):
            wal.sync()
            self._durable_lsns[shard] = wal.next_lsn
        return (
            {"status": "ok", "lsns": [wal.next_lsn for wal in self._wals]},
            [],
        )

    # -- materialisation -------------------------------------------------
    def _require_open(self) -> None:
        if self._inner is None:
            raise ReplicationError("replica is not bootstrapped yet")

    def _open(self) -> None:
        """Materialise the live store: checkpoint plus WAL tails, like recovery.

        Unlike :meth:`DurableBackend.recover` this mutates nothing durable —
        no post-recovery checkpoint, no WAL resets — because the directory
        must stay a faithful clone of the primary's stream.  A staged
        operation still pending is *not* re-applied here: its gid-tagged
        frames are skipped and the operation lands whole when the primary
        ships the pending clear (or when promotion recovers it from disk).
        """
        manifest = read_manifest(self._directory)
        try:
            inner, _ = open_checkpoint(self._directory, manifest, fs=self._fs, resync=False)
        except ValueError as error:
            raise ReplicationError(f"corrupt replica checkpoint: {error}") from error
        self._inner = inner
        self._dimensions = int(manifest["dimensions"])
        next_gid = int(manifest["next_gid"])
        pending = read_pending(self._directory)
        if pending is not None and int(pending["gid"]) < next_gid:
            pending = None
        self._pending = pending
        skip_gid = int(pending["gid"]) if pending is not None else 0
        targets = self._targets()
        wal_entries = manifest["wals"]
        if not isinstance(wal_entries, list) or len(wal_entries) != len(targets):
            raise ReplicationError(
                "corrupt replica manifest: WAL list disagrees with the shard count"
            )
        self._wals = []
        self._durable_lsns = []
        for entry, target in zip(wal_entries, targets):
            wal_path = self._directory / str(entry["file"])
            cut = int(entry["lsn"])
            for record in read_wal(wal_path).records:
                if record.lsn < cut:
                    continue
                if skip_gid and record.gid == skip_gid:
                    continue
                replay_record(target, record)
            wal = WriteAheadLog(wal_path, self._dimensions, fs=self._fs)
            self._wals.append(wal)
            self._durable_lsns.append(wal.next_lsn)

    def close(self) -> None:
        """Close the WAL append handles."""
        for wal in self._wals:
            wal.close()


# ----------------------------------------------------------------------
# The primary
# ----------------------------------------------------------------------
@dataclass
class _ReplicaLink:
    """One attached follower: its name and the transport reaching it."""

    name: str
    transport: ReplicationTransport


class ReplicatedBackend(DurableBackend):
    """A durable primary that streams its WAL frames to attached followers.

    Behaviourally a :class:`DurableBackend` — same protocol surface, same
    crash-equivalence contract locally — plus replication: frames captured
    at append time ship from the ``_after_sync`` acknowledgement hook, the
    staged-operation records ship around their per-shard frames, and
    :meth:`attach_replica` bootstraps or incrementally catches up a
    follower.  Create one through :meth:`create` / :meth:`recover` (or
    :func:`promote` on a follower's directory).
    """

    def __init__(
        self,
        inner: SpatialBackend,
        wal_dir: Path,
        *,
        fs: FileSystem,
        fsync: bool,
        wals: Sequence[WriteAheadLog],
        seq: int,
        next_gid: int,
        stores: Optional[List["PagedStore"]] = None,
    ) -> None:
        super().__init__(
            inner,
            wal_dir,
            fs=fs,
            fsync=fsync,
            wals=wals,
            seq=seq,
            next_gid=next_gid,
            stores=stores,
        )
        self._mode: str = "semi-sync"
        self._links: List[_ReplicaLink] = []
        self._ship_buffers: List[List[Tuple[int, bytes]]] = [[] for _ in self._wals]
        for position, wal in enumerate(self._wals):
            wal.set_observer(self._make_observer(position))

    def _make_observer(self, position: int) -> Callable[[int, bytes], None]:
        def observe(lsn: int, frame: bytes) -> None:
            self._ship_buffers[position].append((lsn, frame))

        return observe

    # -- creation --------------------------------------------------------
    @classmethod
    def create(
        cls,
        inner: SpatialBackend,
        wal_dir: "str | Path",
        *,
        fs: FileSystem = REAL_FS,
        fsync: bool = True,
        mode: str = "semi-sync",
    ) -> "ReplicatedBackend":
        """Make *inner* a replicable durable primary under *wal_dir*."""
        _validate_mode(mode)
        backend = cast("ReplicatedBackend", super().create(inner, wal_dir, fs=fs, fsync=fsync))
        backend._mode = mode
        return backend

    @classmethod
    def recover(
        cls,
        wal_dir: "str | Path",
        *,
        fs: FileSystem = REAL_FS,
        fsync: bool = True,
        mode: str = "semi-sync",
    ) -> "ReplicatedBackend":
        """Recover a replicable durable primary from *wal_dir*."""
        _validate_mode(mode)
        backend = cast("ReplicatedBackend", super().recover(wal_dir, fs=fs, fsync=fsync))
        backend._mode = mode
        return backend

    def __deepcopy__(self, memo: Dict[int, object]) -> "ReplicatedBackend":
        """An independent replicable copy (same mode, no attached replicas).

        Transports hold sockets and follower state that cannot be copied,
        so the duplicate starts with an empty link set in a fresh scratch
        directory, exactly like the base durable copy.
        """
        duplicate = cast("ReplicatedBackend", super().__deepcopy__(memo))
        duplicate._mode = self._mode
        return duplicate

    # -- introspection ---------------------------------------------------
    @property
    def mode(self) -> str:
        """The acknowledgement mode: ``"async"`` or ``"semi-sync"``."""
        return self._mode

    def set_mode(self, mode: str) -> None:
        """Switch the acknowledgement mode for subsequent operations."""
        _validate_mode(mode)
        self._mode = mode

    @property
    def replicas(self) -> Tuple[str, ...]:
        """Names of the attached followers, in attach order."""
        return tuple(link.name for link in self._links)

    # -- follower management ---------------------------------------------
    def attach_replica(
        self, transport: ReplicationTransport, *, name: Optional[str] = None
    ) -> str:
        """Bootstrap (or incrementally catch up) a follower, then stream to it.

        A fresh follower receives the full byte-faithful bootstrap; a
        follower that already holds an earlier clone of *this* stream is
        caught up from the primary's WAL tails, provided its position is
        still at or past every WAL's checkpoint cut — otherwise (the
        primary checkpointed past it) a fresh directory must be
        bootstrapped instead, and this raises :class:`ReplicationError`.
        Returns the follower's name for :meth:`detach_replica`.
        """
        # Flush so the directory read below sees every appended byte, and
        # so previously attached followers are at the same point.
        self.sync()
        status, _ = _rpc(transport, {"kind": "status"})
        if bool(status.get("initialized")):
            self._catch_up(transport, status)
        else:
            self._bootstrap(transport)
        link_name = name or f"replica-{len(self._links)}"
        if any(link.name == link_name for link in self._links):
            raise ReplicationError(f"a replica named {link_name!r} is already attached")
        self._links.append(_ReplicaLink(link_name, transport))
        return link_name

    def detach_replica(self, name: str) -> None:
        """Stop streaming to the follower *name* and close its transport."""
        for position, link in enumerate(self._links):
            if link.name == name:
                del self._links[position]
                link.transport.close()
                return
        raise ReplicationError(f"no attached replica named {name!r}")

    def detach_replicas(self) -> None:
        """Detach every follower (transports closed)."""
        while self._links:
            link = self._links.pop()
            link.transport.close()

    def route_reads_to(self, node: ReplicaNode) -> None:
        """Serve each shard's reads from *node* whenever it is caught up.

        Requires a sharded inner database (the delegates plug into its
        scatter phase).  Read-your-writes holds by design: a delegate
        answers only while the replica's applied LSN equals the primary's
        next LSN for that shard and no staged operation is in flight;
        otherwise the scatter silently falls back to the primary's shard.
        """
        if not isinstance(self._inner, ShardedDatabase):
            raise ReplicationError(
                "read routing plugs into the scatter phase; the inner "
                "database must be sharded"
            )
        inner = self._inner
        for position in range(inner.n_shards):
            inner.set_read_delegate(position, self._delegate_provider(node, position))

    def _delegate_provider(
        self, node: ReplicaNode, position: int
    ) -> Callable[[], Optional[SpatialBackend]]:
        def provider() -> Optional[SpatialBackend]:
            if not node.initialized or node.has_pending:
                return None
            if node.n_shards <= position:
                return None
            if node.applied_lsn(position) != self._wals[position].next_lsn:
                return None
            return node.read_backend(position)

        return provider

    # -- bootstrap and catch-up ------------------------------------------
    def _bootstrap(self, transport: ReplicationTransport) -> None:
        from repro.storage.pagefile import PagedStore

        manifest = read_manifest(self._wal_dir)
        names: List[str] = []
        blobs: List[bytes] = []
        # The committed generation of every store, never a later one a
        # crashed checkpoint may have left behind.
        for entry in manifest["stores"]:
            store = PagedStore.open_generation(
                self._wal_dir / str(entry["directory"]), int(entry["generation"])
            )
            for name, data in store.generation_files():
                names.append(f"{store.directory.name}/{name}")
                blobs.append(data)
        wal_entries = manifest["wals"]
        assert isinstance(wal_entries, list)
        for entry in wal_entries:
            wal_path = self._wal_dir / str(entry["file"])
            names.append(wal_path.name)
            blobs.append(wal_path.read_bytes())
        pending_path = self._wal_dir / PENDING_OP_NAME
        if pending_path.is_file():
            names.append(PENDING_OP_NAME)
            blobs.append(pending_path.read_bytes())
        # The manifest ships last: it is the follower-side commit point.
        names.append(CHECKPOINT_MANIFEST_NAME)
        blobs.append((self._wal_dir / CHECKPOINT_MANIFEST_NAME).read_bytes())
        reply, _ = _rpc(transport, {"kind": "bootstrap", "files": names}, blobs)
        lsns = reply.get("lsns")
        expected = [wal.next_lsn for wal in self._wals]
        if lsns != expected:
            raise ReplicationError(
                f"bootstrap landed at lsns {lsns}, primary is at {expected}"
            )

    def _catch_up(self, transport: ReplicationTransport, status: Dict[str, Any]) -> None:
        if bool(status.get("pending")):
            raise ReplicationError(
                "follower has a staged operation in flight; promote it or "
                "bootstrap a fresh directory"
            )
        lsns = status.get("lsns")
        if not isinstance(lsns, list) or len(lsns) != len(self._wals):
            raise ReplicationError(
                "follower replicates a different shard layout; bootstrap a "
                "fresh directory"
            )
        for position, wal in enumerate(self._wals):
            follower_lsn = int(lsns[position])
            if follower_lsn > wal.next_lsn:
                raise ReplicationError(
                    f"follower is ahead of the primary on shard {position} "
                    f"({follower_lsn} > {wal.next_lsn}); it must be promoted, "
                    "not reattached"
                )
            scan = read_frames(wal.path, min_lsn=follower_lsn)
            if follower_lsn < scan.start_lsn:
                raise ReplicationError(
                    f"follower shard {position} is at lsn {follower_lsn}, "
                    f"behind the primary's checkpoint cut {scan.start_lsn}; "
                    "bootstrap a fresh replica directory"
                )
            frames = [frame for _, frame in scan.frames]
            if frames:
                self._send_frames(transport, position, frames)
        _rpc(transport, {"kind": "sync"})

    # -- the shipping hot path -------------------------------------------
    def _after_sync(self, positions: Iterable[int]) -> None:
        for position in sorted(set(positions)):
            buffered = self._ship_buffers[position]
            if not buffered:
                continue
            self._ship_buffers[position] = []
            frames = [frame for _, frame in buffered]
            for link in self._links:
                self._send_frames(link.transport, position, frames)

    def _send_frames(
        self, transport: ReplicationTransport, position: int, frames: Sequence[bytes]
    ) -> None:
        semi_sync = self._mode == "semi-sync"
        reply, _ = _rpc(
            transport,
            {"kind": "frames", "shard": position, "sync": semi_sync},
            frames,
        )
        if semi_sync:
            expected = frame_lsn(frames[-1]) + 1
            durable = wire.header_int(reply, "durable_lsn", ReplicationError)
            if durable < expected:
                raise ReplicationError(
                    f"semi-sync follower acknowledged durable lsn {durable}, "
                    f"expected at least {expected} on shard {position}"
                )

    def _logged_apply(
        self,
        position: int,
        append: Callable[[WriteAheadLog], int],
        apply: Callable[[], object],
    ) -> None:
        try:
            super()._logged_apply(position, append, apply)
        except BaseException:
            # The superclass rolled the WAL back past the failed append;
            # drop the captured frames the rollback invalidated so they are
            # never shipped.
            wal = self._wals[position]
            self._ship_buffers[position] = [
                (lsn, frame)
                for lsn, frame in self._ship_buffers[position]
                if lsn < wal.next_lsn
            ]
            raise

    def _stage_pending(self, op: str, payload: Dict[str, object]) -> int:
        gid = super()._stage_pending(op, payload)
        record = (self._wal_dir / PENDING_OP_NAME).read_bytes()
        for link in self._links:
            _rpc(link.transport, {"kind": "pending_put"}, [record])
        return gid

    def _finish_pending(self) -> None:
        super()._finish_pending()
        for link in self._links:
            _rpc(link.transport, {"kind": "pending_clear"})

    def close(self) -> None:
        """Flush, stop streaming and close the WAL handles."""
        super().close()
        self.detach_replicas()

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ReplicatedBackend(inner={self._inner!r}, "
            f"wal_dir={str(self._wal_dir)!r}, mode={self._mode!r}, "
            f"replicas={len(self._links)})"
        )


# ----------------------------------------------------------------------
# Promotion
# ----------------------------------------------------------------------
def durable_lsns(directory: "str | Path") -> Tuple[int, ...]:
    """Per-shard durable LSNs readable from a (possibly crashed) directory.

    Reads what actually survived: each WAL's intact record count past its
    torn tail.  Works on primary and replica directories alike.
    """
    directory = Path(directory)
    manifest = read_manifest(directory)
    wal_entries = manifest["wals"]
    assert isinstance(wal_entries, list)
    return tuple(
        read_wal(directory / str(entry["file"])).next_lsn for entry in wal_entries
    )


def choose_promotion_target(directories: Sequence["str | Path"]) -> Path:
    """Pick the replica to promote: highest durable LSN wins.

    Candidates that never committed a bootstrap manifest are skipped (they
    hold no promotable state).  LSNs are summed across shards — under
    semi-sync every acknowledged operation is durable on *every* follower,
    so any survivor covers the acknowledged history and the sum simply
    prefers the follower with the most in-flight suffix.  Ties keep the
    earliest candidate (deterministic).
    """
    best: Optional[Path] = None
    best_score = -1
    for candidate in directories:
        try:
            score = sum(durable_lsns(candidate))
        except (ValueError, FileNotFoundError):
            continue
        if score > best_score:
            best = Path(candidate)
            best_score = score
    if best is None:
        raise ReplicationError("no promotable replica directory among the candidates")
    return best


def promote(
    directory: "str | Path",
    *,
    fs: FileSystem = REAL_FS,
    fsync: bool = True,
    mode: str = "semi-sync",
) -> ReplicatedBackend:
    """Promote a follower's directory to a fresh primary.

    Removes the replica marker, then runs standard durable recovery on the
    directory: the torn-tail reader truncates any divergent unacknowledged
    suffix, a staged operation is resolved whole-or-not-at-all, and the
    post-recovery checkpoint commits the promoted state.  Promotion is
    restartable — a crash mid-promotion re-promotes to the identical state,
    because recovery itself is.
    """
    directory = Path(directory)
    marker = directory / REPLICA_MARKER_NAME
    if marker.is_file():
        fs.remove(marker)
    return ReplicatedBackend.recover(directory, fs=fs, fsync=fsync, mode=mode)


def is_replica_directory(path: "str | Path") -> bool:
    """True when *path* holds a follower clone (the replica marker exists)."""
    return (Path(path) / REPLICA_MARKER_NAME).is_file()


def _validate_mode(mode: str) -> None:
    if mode not in REPLICATION_MODES:
        raise ValueError(
            f"unknown replication mode {mode!r}; expected one of "
            f"{', '.join(REPLICATION_MODES)}"
        )


def _rpc(
    transport: ReplicationTransport,
    header: Dict[str, Any],
    blobs: Sequence[bytes] = (),
) -> Tuple[Dict[str, Any], List[bytes]]:
    try:
        reply, reply_blobs = transport.request(header, blobs)
    except wire.FrameTooLarge as error:
        raise ReplicationError(f"{header.get('kind')} message refused: {error}") from error
    if reply.get("status") != "ok":
        raise ReplicationError(str(reply.get("error", "replication request failed")))
    return reply, reply_blobs
