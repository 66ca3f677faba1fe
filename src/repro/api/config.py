"""Frozen database configuration: one validated description of a deployment.

``Database.create`` / ``Database.from_dataset`` grew one keyword at a time
— method, shards, router, max_workers, durability, and now replication —
and every caller (CLI, benchmarks, tests) re-spelled the same kwarg sprawl
with the same implicit validity rules.  :class:`DatabaseConfig` lifts that
surface into a single frozen dataclass validated in one place:

* what backend(s) to build (``method``, ``dimensions``, ``cost``,
  ``backend_config``),
* how to shard them (``shards``, ``router``, ``max_workers``),
* whether mutations are write-ahead logged (``durable``, ``wal_dir``,
  ``fsync``),
* and whether the WAL streams to followers
  (:class:`ReplicationOptions`: role, mode, peers).

A config is inert data — hashable, comparable, printable — so benches can
put it in their parameter dicts and tests can build variants with
:func:`dataclasses.replace`.  ``Database.from_config`` turns one into a
live database; the legacy keyword constructors remain as thin shims that
build a config and delegate.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Tuple, Union

from repro.api.replication import REPLICATION_MODES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.sharding import ShardRouter
    from repro.core.cost_model import CostParameters

#: Roles a node can play in a replicated deployment.
REPLICATION_ROLES = ("primary", "replica")


@dataclass(frozen=True)
class AutoTuneOptions:
    """How the tuning advisor explores the per-shard design space.

    Carried by :class:`DatabaseConfig` (``auto_tune=``) and consumed by
    :meth:`Database.advise`: *methods* names the registry backends to
    consider per shard, the two grids parameterise candidates that
    advertise reorganization, and the sample caps bound the what-if
    replay's cost (``None`` disables the cap — exact but expensive).
    Advising is always report-only; applying a recommendation is an
    explicit :meth:`Database.migrate_shard` call (or ``repro tune-bench``).
    """

    methods: Tuple[str, ...] = ("ac", "rs", "ss")
    division_factors: Tuple[int, ...] = (2, 4, 8)
    reorganization_periods: Tuple[int, ...] = (25, 100, 400)
    sample_objects: Optional[int] = 2048
    sample_queries: Optional[int] = 128
    warmup_queries: int = 256

    def __post_init__(self) -> None:
        object.__setattr__(self, "methods", tuple(str(name) for name in self.methods))
        object.__setattr__(
            self, "division_factors", tuple(int(value) for value in self.division_factors)
        )
        object.__setattr__(
            self,
            "reorganization_periods",
            tuple(int(value) for value in self.reorganization_periods),
        )
        if not self.methods:
            raise ValueError("auto-tune needs at least one candidate method")
        if not self.division_factors or any(f < 2 for f in self.division_factors):
            raise ValueError("division_factors must be a non-empty grid of values >= 2")
        if not self.reorganization_periods or any(
            p < 0 for p in self.reorganization_periods
        ):
            raise ValueError(
                "reorganization_periods must be a non-empty grid of values >= 0"
            )
        if self.sample_objects is not None and self.sample_objects < 1:
            raise ValueError("sample_objects must be positive (or None for no cap)")
        if self.sample_queries is not None and self.sample_queries < 1:
            raise ValueError("sample_queries must be positive (or None for no cap)")
        if self.warmup_queries < 0:
            raise ValueError("warmup_queries must be non-negative")

    def as_dict(self) -> Dict[str, object]:
        """Flatten for reporting / JSON."""
        return {
            "methods": list(self.methods),
            "division_factors": list(self.division_factors),
            "reorganization_periods": list(self.reorganization_periods),
            "sample_objects": self.sample_objects,
            "sample_queries": self.sample_queries,
            "warmup_queries": self.warmup_queries,
        }


@dataclass(frozen=True)
class ReplicationOptions:
    """How a durable database participates in WAL-shipping replication.

    ``role="primary"`` streams the write-ahead log to the *peers* —
    ``"host:port"`` addresses of running
    :class:`~repro.api.replication.ReplicaServer` processes — in the given
    acknowledgement *mode*.  ``role="replica"`` only validates; followers
    are constructed as :class:`~repro.api.replication.ReplicaNode` servers
    and promoted through :meth:`Database.attach`, not built by config.
    """

    role: str = "primary"
    mode: str = "semi-sync"
    peers: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.role not in REPLICATION_ROLES:
            raise ValueError(
                f"unknown replication role {self.role!r}; expected one of "
                f"{', '.join(REPLICATION_ROLES)}"
            )
        if self.mode not in REPLICATION_MODES:
            raise ValueError(
                f"unknown replication mode {self.mode!r}; expected one of "
                f"{', '.join(REPLICATION_MODES)}"
            )
        object.__setattr__(self, "peers", tuple(str(peer) for peer in self.peers))
        if self.role == "replica" and self.peers:
            raise ValueError(
                "peers apply to the primary role; a replica receives its "
                "stream from whichever primary attaches it"
            )
        for peer in self.peers:
            self._parse_peer(peer)

    @staticmethod
    def _parse_peer(peer: str) -> Tuple[str, int]:
        host, separator, port = peer.rpartition(":")
        if not separator or not host:
            raise ValueError(
                f"replication peer {peer!r} is not a 'host:port' address"
            )
        try:
            return host, int(port)
        except ValueError as error:
            raise ValueError(
                f"replication peer {peer!r} has a non-numeric port"
            ) from error

    def parsed_peers(self) -> Tuple[Tuple[str, int], ...]:
        """The peers as ``(host, port)`` pairs ready for a socket transport."""
        return tuple(self._parse_peer(peer) for peer in self.peers)

    def as_dict(self) -> Dict[str, object]:
        """Flatten for reporting / JSON."""
        return {"role": self.role, "mode": self.mode, "peers": list(self.peers)}


@dataclass(frozen=True)
class DatabaseConfig:
    """One validated, immutable description of a database deployment.

    Validity rules (enforced at construction, nowhere else):

    * ``method`` is one registry name, or a sequence of per-shard names
      (which implies sharding, like passing ``shards=``);
    * ``router`` / ``max_workers`` apply to sharded databases only;
    * ``execution="process"`` (worker-process shards) requires sharding;
    * ``durable=True`` requires a ``wal_dir`` to log into;
    * ``replication`` requires a ``wal_dir`` (it ships the WAL) and —
      for database construction — the primary role;
    * ``auto_tune`` options describe the per-shard tuning advisor and
      therefore require a sharded config.
    """

    method: Union[str, Tuple[str, ...]] = "ac"
    dimensions: int = 2
    shards: Optional[int] = None
    router: "ShardRouter | str" = "hash"
    max_workers: Optional[int] = None
    execution: str = "thread"
    cost: "Optional[CostParameters]" = None
    backend_config: Optional[object] = None
    durable: bool = False
    wal_dir: Optional[Path] = None
    fsync: bool = True
    replication: Optional[ReplicationOptions] = field(default=None)
    auto_tune: Optional[AutoTuneOptions] = field(default=None)

    def __post_init__(self) -> None:
        if not isinstance(self.method, str):
            object.__setattr__(self, "method", tuple(str(name) for name in self.method))
            if not self.method:
                raise ValueError("a sharded database needs at least one shard")
            if self.shards is not None and self.shards != len(self.method):
                raise ValueError(
                    f"shards={self.shards} disagrees with {len(self.method)} method names"
                )
        if self.dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        if self.shards is not None and self.shards < 1:
            raise ValueError("a sharded database needs at least one shard")
        if self.wal_dir is not None:
            object.__setattr__(self, "wal_dir", Path(self.wal_dir))
        if not self.sharded and (self.router != "hash" or self.max_workers is not None):
            raise ValueError(
                "router and max_workers apply to sharded databases only; "
                "pass shards=N (or a sequence of method names)"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if self.execution not in ("thread", "process"):
            raise ValueError(
                f"unknown execution mode {self.execution!r}; expected "
                "'thread' or 'process'"
            )
        if self.execution == "process" and not self.sharded:
            raise ValueError(
                "execution='process' hosts each shard in a worker process; "
                "pass shards=N (or a sequence of method names)"
            )
        if self.durable and self.wal_dir is None:
            raise ValueError("durable=True requires a wal_dir to log into")
        if self.replication is not None and self.wal_dir is None:
            raise ValueError(
                "replication ships the write-ahead log; pass wal_dir=... "
                "so there is a WAL to stream"
            )
        if self.auto_tune is not None and not self.sharded:
            raise ValueError(
                "auto_tune describes the per-shard tuning advisor; pass "
                "shards=N (or a sequence of method names)"
            )

    @property
    def sharded(self) -> bool:
        """True when this config builds a :class:`ShardedDatabase`."""
        return self.shards is not None or not isinstance(self.method, str)

    @property
    def logged(self) -> bool:
        """True when mutations are write-ahead logged (durable or replicated)."""
        return self.wal_dir is not None

    def as_dict(self) -> Dict[str, object]:
        """Flatten for reporting / JSON (cost and backend_config summarised)."""
        summary: Dict[str, object] = {}
        for entry in fields(self):
            value = getattr(self, entry.name)
            if value is None:
                continue
            if entry.name == "replication":
                assert isinstance(value, ReplicationOptions)
                summary[entry.name] = value.as_dict()
            elif entry.name == "auto_tune":
                assert isinstance(value, AutoTuneOptions)
                summary[entry.name] = value.as_dict()
            elif entry.name in {"cost", "backend_config", "router"}:
                summary[entry.name] = value if isinstance(value, str) else repr(value)
            elif isinstance(value, Path):
                summary[entry.name] = str(value)
            elif isinstance(value, tuple):
                summary[entry.name] = list(value)
            else:
                summary[entry.name] = value
        return summary
