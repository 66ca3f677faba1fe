"""Streaming pub/sub matching engine over the batch query path.

The paper's motivating application is a notification (SDI) system:
millions of standing subscriptions — extended objects over tens of
attributes — matched against a continuous stream of incoming events.  The
:class:`StreamingMatcher` turns the vectorised ``query_batch`` engine into
that serving loop:

* :meth:`StreamingMatcher.match` matches a batch of events synchronously:
  cache hits and in-batch duplicates are resolved first, the remaining
  events go through one ``execute_batch`` call, and the records come back
  in input order.  A front-end that batches requests itself (the asyncio
  serving layer) calls it once per run of publishes;
* standalone sessions **micro-batch** through ``publish``: events
  accumulate in a pending buffer that is handed to ``match`` when it
  reaches ``max_batch_size`` or the oldest pending event exceeds
  ``max_delay_ms``;
* **subscription churn** (``register`` / ``unregister``) maps to the
  index's ``insert`` / ``delete``.  A churn operation first flushes the
  pending events, so every event is matched against exactly the
  subscription set that was active when it arrived — the delivered match
  sets are identical to processing the stream one operation at a time;
* repeated events are served from an **LRU result cache** keyed on the
  normalized query box.  Matching is a pure function of the box, the
  relation and the subscription set; churn does not empty the cache but
  patches it precisely — a registered subscription is inserted into the
  cached match sets it matches, an unregistered one is removed from the
  sets containing it — so entries stay warm across churn.

The engine is backend-agnostic: any access method satisfying the
:class:`~repro.api.protocol.SpatialBackend` protocol works, which covers
the adaptive clustering index, both baselines (``SequentialScan``,
``RStarTree``), the scatter-gather
:class:`~repro.api.sharding.ShardedDatabase` composite (whose merged
ascending-id results are already in the engine's canonical delivery
order) and anything registered through
:func:`repro.api.register_backend`.  Sessions stay correct over a
backend recovered from a snapshot — ``tests/engine/test_matcher_restore.py``
pins serving-after-``Database.open()`` equivalence, sharded included.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.api.protocol import SpatialBackend
from repro.core.statistics import QueryExecution
from repro.engine.cache import LRUResultCache, result_cache_key
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation

#: Number of most recent per-event latencies kept for the percentile
#: estimates — a rolling window, so a matcher serving an unbounded stream
#: holds O(1) memory instead of one float per event forever.
LATENCY_WINDOW = 65_536


@dataclass(frozen=True)
class StreamingConfig:
    """Tuning knobs of the streaming matcher.

    Parameters
    ----------
    max_batch_size:
        Pending-event count that triggers an automatic flush.  1 degrades
        to a per-event loop (every publish flushes immediately).
    max_delay_ms:
        Upper bound on how long an event may sit in the pending buffer
        before a publish (or an explicit :meth:`StreamingMatcher.poll`)
        flushes it.  ``None`` disables latency-based flushing — only batch
        size, churn and explicit flushes drain the buffer.
    cache_size:
        Capacity of the LRU result cache (0 disables caching).
    relation:
        Spatial relation events are matched with.  The pub/sub default is
        ``CONTAINS``: a subscription matches when it encloses the event.
    """

    max_batch_size: int = 256
    max_delay_ms: Optional[float] = None
    cache_size: int = 1024
    relation: SpatialRelation = SpatialRelation.CONTAINS

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_delay_ms is not None and self.max_delay_ms < 0:
            raise ValueError("max_delay_ms must be non-negative")
        if self.cache_size < 0:
            raise ValueError("cache_size must be non-negative")
        object.__setattr__(self, "relation", SpatialRelation.parse(self.relation))


class StreamOperation(Protocol):
    """Structural shape of one stream operation, as :meth:`StreamingMatcher.run`
    consumes it — :class:`repro.workloads.pubsub.StreamOp` satisfies it.

    Read-only properties rather than attributes, so frozen dataclasses
    conform.
    """

    @property
    def kind(self) -> str: ...

    @property
    def op_id(self) -> int: ...

    @property
    def box(self) -> Optional[HyperRectangle]: ...


@dataclass(frozen=True)
class MatchRecord:
    """One delivered event: which subscriptions matched, and how fast."""

    #: Identifier the event was published under.
    event_id: int
    #: Identifiers of the matching subscriptions, in ascending order — a
    #: canonical order independent of the backend's internal layout, so a
    #: cached result is byte-identical to a recomputed one even after the
    #: backend reorganized in between.
    matches: np.ndarray
    #: Submit-to-delivery latency in milliseconds.  For an event published
    #: into the pending buffer it includes the queueing; for a direct
    #: :meth:`StreamingMatcher.match` call (the served path) it is the
    #: duration of that call.
    latency_ms: float
    #: True when the match set was served from the result cache.
    cached: bool


@dataclass
class StreamStats:
    """Aggregate statistics of one matcher's lifetime."""

    #: Events delivered so far.
    events: int = 0
    #: Micro-batches matched, by trigger (the four trigger counters sum to
    #: ``batches``; a direct :meth:`StreamingMatcher.match` call counts as a
    #: manual flush, and an empty batch delivers nothing and is not
    #: counted).
    batches: int = 0
    size_flushes: int = 0
    latency_flushes: int = 0
    churn_flushes: int = 0
    manual_flushes: int = 0
    #: Subscription churn operations applied.
    registered: int = 0
    unregistered: int = 0
    #: Result-cache behaviour (mirrored from the LRU cache).
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    #: Cached match sets patched in place by churn operations.
    cache_patches: int = 0
    #: Events answered by another identical event of the same batch.
    deduplicated: int = 0
    #: Wall-clock seconds spent inside the engine (flushes and churn).
    busy_seconds: float = 0.0
    #: Element-wise sum of every executed query's work counters.
    total_execution: QueryExecution = field(default_factory=QueryExecution)
    #: Submit-to-delivery latencies in delivery order — the most recent
    #: ``LATENCY_WINDOW`` events (percentiles describe that window).
    latencies_ms: Deque[float] = field(default_factory=lambda: deque(maxlen=LATENCY_WINDOW))

    # ------------------------------------------------------------------
    def events_per_second(self) -> float:
        """Delivered events per second of engine busy time."""
        if self.busy_seconds <= 0.0:
            return 0.0
        return self.events / self.busy_seconds

    def average_batch_size(self) -> float:
        """Mean number of events per flushed micro-batch."""
        if self.batches == 0:
            return 0.0
        return self.events / self.batches

    def latency_percentiles(
        self, percentiles: Sequence[float] = (50.0, 95.0, 99.0)
    ) -> Dict[str, float]:
        """Latency percentiles in milliseconds, keyed ``"p50"``-style.

        Every summary carries a ``"latency_window"`` entry — the number of
        delivered events the percentiles describe — because a tail
        percentile over a short window is only as meaningful as the window
        is long (the p99 of three events is just their maximum).  An empty
        window returns ``{"latency_window": 0}`` alone: no event has a
        latency yet, and fabricated ``0.0`` percentiles would read as
        "instantaneous", not "unmeasured".
        """
        window = len(self.latencies_ms)
        summary: Dict[str, float] = {"latency_window": float(window)}
        if window == 0:
            return summary
        values = np.percentile(np.asarray(self.latencies_ms), list(percentiles))
        summary.update(
            {f"p{percentile:g}": float(value) for percentile, value in zip(percentiles, values)}
        )
        return summary

    def as_dict(self) -> Dict[str, object]:
        """Flatten the statistics for reporting / JSON."""
        summary: Dict[str, object] = {
            "events": self.events,
            "batches": self.batches,
            "size_flushes": self.size_flushes,
            "latency_flushes": self.latency_flushes,
            "churn_flushes": self.churn_flushes,
            "manual_flushes": self.manual_flushes,
            "registered": self.registered,
            "unregistered": self.unregistered,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_patches": self.cache_patches,
            "deduplicated": self.deduplicated,
            "busy_seconds": self.busy_seconds,
            "events_per_second": self.events_per_second(),
            "average_batch_size": self.average_batch_size(),
            "total_execution": self.total_execution.as_dict(),
        }
        summary.update(self.latency_percentiles())
        return summary


class StreamingMatcher:
    """Micro-batching pub/sub matcher over any batch-capable access method."""

    def __init__(
        self,
        backend: SpatialBackend,
        config: Optional[StreamingConfig] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        """Wrap *backend* in a streaming serving loop.

        Parameters
        ----------
        backend:
            Access method holding the subscriptions; must satisfy the
            :class:`~repro.api.protocol.SpatialBackend` protocol
            (verified at construction).
        config:
            Batching / caching configuration; defaults to
            :class:`StreamingConfig`'s defaults.
        clock:
            Monotonic time source in seconds (injectable for tests).
        """
        if not isinstance(backend, SpatialBackend):
            raise TypeError(
                "backend does not satisfy the SpatialBackend protocol; "
                "see repro.api.protocol"
            )
        self._backend = backend
        self._config = config or StreamingConfig()
        self._clock = clock
        self._cache = LRUResultCache(self._config.cache_size)
        #: Pending events as ``(event_id, box, submit_time)`` tuples.
        self._pending: List[Tuple[int, HyperRectangle, float]] = []
        self._stats = StreamStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> SpatialBackend:
        """The wrapped access method."""
        return self._backend

    @property
    def config(self) -> StreamingConfig:
        """The streaming configuration."""
        return self._config

    @property
    def stats(self) -> StreamStats:
        """Aggregate statistics (mutated in place as the stream advances)."""
        return self._stats

    @property
    def pending_events(self) -> int:
        """Number of events waiting for the next flush."""
        return len(self._pending)

    # ------------------------------------------------------------------
    # Subscription churn
    # ------------------------------------------------------------------
    def register(self, subscription_id: int, box: HyperRectangle) -> List[MatchRecord]:
        """Add a standing subscription.

        Pending events are flushed first (they arrived before the
        subscription and must not match it), then the box is inserted and
        the cached match sets it matches are patched.  Returns the records
        delivered by the forced flush.  Invalid registrations (wrong
        dimensionality, already-registered identifier) are rejected before
        the flush, so a failed call leaves the stream untouched.
        """
        subscription_id = int(subscription_id)
        self._reject_invalid_registration(subscription_id, box)
        records = self._flush("churn") if self._pending else []
        start = self._clock()
        self._backend.insert(subscription_id, box)
        self._cache.apply_insert(subscription_id, box, self._config.relation)
        self._stats.registered += 1
        self._sync_cache_stats()
        self._stats.busy_seconds += self._clock() - start
        return records

    def register_many(
        self, subscriptions: Iterable[Tuple[int, HyperRectangle]]
    ) -> List[MatchRecord]:
        """Add a batch of subscriptions with one flush and one bulk insert.

        The whole batch is validated — dimensionality, in-batch duplicates,
        already-registered identifiers — before the pending events are
        flushed or the backend is touched, so a rejected call leaves the
        stream and backend untouched.  If an exotic backend still fails a
        later pair, the cache is patched for the prefix that did enter the
        backend (or dropped when the extent of a partial bulk load is
        unknown) before the error propagates — cached match sets always
        describe the backend's actual subscription set.
        """
        pairs = [(int(subscription_id), box) for subscription_id, box in subscriptions]
        if not pairs:
            return []
        seen: Set[int] = set()
        for subscription_id, box in pairs:
            self._reject_invalid_registration(subscription_id, box)
            if subscription_id in seen:
                raise KeyError(f"duplicate subscription id {subscription_id}")
            seen.add(subscription_id)
        records = self._flush("churn") if self._pending else []
        start = self._clock()
        applied: List[Tuple[int, HyperRectangle]] = []
        try:
            loaded = False
            size_before = len(self._backend)
            try:
                self._backend.bulk_load(pairs)
                applied.extend(pairs)
                loaded = True
            except Exception as error:
                if len(self._backend) != size_before:
                    # Unknown partial application: drop the cache rather
                    # than serve match sets for an unknown subscription
                    # set.
                    self._cache.clear()
                    raise
                if not isinstance(error, ValueError):
                    raise
                # A ValueError with nothing applied is the loader's
                # precondition failing (the R*-tree's STR loader only
                # works from an empty tree); fall back to incremental
                # inserts.
            if not loaded:
                for subscription_id, box in pairs:
                    self._backend.insert(subscription_id, box)
                    applied.append((subscription_id, box))
        finally:
            self._cache.apply_inserts(applied, self._config.relation)
            self._stats.registered += len(applied)
            self._sync_cache_stats()
            self._stats.busy_seconds += self._clock() - start
        return records

    def unregister(self, subscription_id: int) -> List[MatchRecord]:
        """Drop a subscription (ignored when it is not registered).

        Pending events are flushed first (they arrived while the
        subscription was still active and must match it), then the
        identifier is removed from the cached match sets containing it.
        Returns the records delivered by the forced flush.
        """
        records = self._flush("churn") if self._pending else []
        start = self._clock()
        if self._backend.delete(int(subscription_id)):
            self._cache.apply_delete(int(subscription_id))
            self._stats.unregistered += 1
        self._sync_cache_stats()
        self._stats.busy_seconds += self._clock() - start
        return records

    def unregister_many(self, subscription_ids: Iterable[int]) -> List[MatchRecord]:
        """Drop a batch of subscriptions with one flush and one bulk delete.

        A backend that does not advertise ``supports_delete_bulk`` is
        served by per-identifier deletes behind the same single flush.
        """
        ids = [int(subscription_id) for subscription_id in subscription_ids]
        if not ids:
            return []
        records = self._flush("churn") if self._pending else []
        start = self._clock()
        if self._backend.capabilities.supports_delete_bulk:
            removed = int(self._backend.delete_bulk(ids))
        else:
            removed = sum(
                1 for subscription_id in ids if self._backend.delete(subscription_id)
            )
        if removed:
            # Identifiers that were not registered appear in no cached match
            # set, so patching every requested one is safe.
            self._cache.apply_deletes(ids)
            self._stats.unregistered += removed
        self._sync_cache_stats()
        self._stats.busy_seconds += self._clock() - start
        return records

    # ------------------------------------------------------------------
    # Event ingestion
    # ------------------------------------------------------------------
    def publish(self, event_id: int, box: HyperRectangle) -> List[MatchRecord]:
        """Submit one event; returns the records of any flush it triggered.

        The event is appended to the pending buffer.  The buffer is
        flushed when it reaches ``max_batch_size``, or when its oldest
        event has been waiting longer than ``max_delay_ms``.  An empty
        list means the event is still pending (a later publish, churn
        operation, :meth:`poll` or :meth:`flush` will deliver it).

        A box of the wrong dimensionality is rejected here rather than at
        flush time, so one malformed event can never poison a whole
        pending batch.
        """
        self.validate_box(box)
        now = self._clock()
        self._pending.append((int(event_id), box, now))
        if len(self._pending) >= self._config.max_batch_size:
            return self._flush("size")
        if self._deadline_expired(now):
            return self._flush("latency")
        return []

    def poll(self) -> List[MatchRecord]:
        """Flush the pending buffer if its oldest event exceeded the deadline.

        Lets a driver honour ``max_delay_ms`` during event-stream lulls,
        when no publish would otherwise trigger the latency flush.
        """
        if self._pending and self._deadline_expired(self._clock()):
            return self._flush("latency")
        return []

    def flush(self) -> List[MatchRecord]:
        """Deliver every pending event now, regardless of batch size."""
        return self._flush("manual")

    def match(self, events: Iterable[Tuple[int, HyperRectangle]]) -> List[MatchRecord]:
        """Match ``(event_id, box)`` pairs now, bypassing the pending buffer.

        Every box is validated before the cache or the backend is touched.
        Cache hits and in-batch duplicates are resolved first; the
        remaining events go through one ``execute_batch`` call whose
        results fill the cache.  Returns one record per event, in input
        order, each matched against the subscription set active now.  The
        call counts as one manual flush.  If the backend call fails, the
        error propagates and the cache and the statistics are left as they
        were.
        """
        now = self._clock()
        rows = [(int(event_id), box, now) for event_id, box in events]
        for _, box, _ in rows:
            self.validate_box(box)
        return self._match(rows, "manual")

    def run(self, operations: Iterable[StreamOperation]) -> List[MatchRecord]:
        """Drive the matcher from a stream of operations and drain it.

        Every operation must expose ``kind`` (``"subscribe"``,
        ``"unsubscribe"`` or ``"event"``), ``op_id`` and — except for
        unsubscriptions — ``box``: the :class:`StreamOperation` shape,
        which :class:`repro.workloads.pubsub.StreamOp` satisfies.  Returns
        every delivered record in delivery order, including the final
        drain.
        """
        delivered: List[MatchRecord] = []
        for operation in operations:
            kind = operation.kind
            if kind == "unsubscribe":
                delivered.extend(self.unregister(operation.op_id))
                continue
            if kind not in ("event", "subscribe"):
                raise ValueError(f"unknown stream operation kind: {kind!r}")
            box = operation.box
            if box is None:
                raise ValueError(f"stream operation {operation.op_id} ({kind}) has no box")
            if kind == "event":
                delivered.extend(self.publish(operation.op_id, box))
            else:
                delivered.extend(self.register(operation.op_id, box))
        delivered.extend(self.flush())
        return delivered

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def validate_box(self, box: HyperRectangle) -> None:
        """Raise :class:`ValueError` unless *box* has the backend's dimensionality."""
        dimensions = self._backend.dimensions
        if box.dimensions != dimensions:
            raise ValueError(
                f"box has {box.dimensions} dimensions, backend expects "
                f"{dimensions}"
            )

    def _reject_invalid_registration(self, subscription_id: int, box: HyperRectangle) -> None:
        """Raise for registrations the backend would reject after the flush.

        Churn flushes the pending events before mutating the backend;
        failing the predictable ways *first* keeps a rejected registration
        from consuming the pending buffer (whose delivered records the
        raised exception would discard from the caller's return path).
        """
        self.validate_box(box)
        if subscription_id in self._backend:
            raise KeyError(f"subscription {subscription_id} is already registered")

    def _sync_cache_stats(self) -> None:
        self._stats.cache_hits = self._cache.hits
        self._stats.cache_misses = self._cache.misses
        self._stats.cache_evictions = self._cache.evictions
        self._stats.cache_patches = self._cache.patches

    def _deadline_expired(self, now: float) -> bool:
        if self._config.max_delay_ms is None or not self._pending:
            return False
        oldest = self._pending[0][2]
        return (now - oldest) * 1000.0 >= self._config.max_delay_ms

    def _flush(self, reason: str) -> List[MatchRecord]:
        pending, self._pending = self._pending, []
        try:
            return self._match(pending, reason)
        except Exception:
            # A failing backend call must not silently drop events: put the
            # batch back ahead of anything published meanwhile.
            self._pending = pending + self._pending
            raise

    def _match(
        self, events: List[Tuple[int, HyperRectangle, float]], reason: str
    ) -> List[MatchRecord]:
        """Match ``(event_id, box, submit_time)`` rows; see :meth:`match`."""
        if not events:
            return []
        start = self._clock()
        relation = self._config.relation

        # Resolve each event against the cache, deduplicating identical
        # boxes within the batch: the first occurrence of a missing key
        # queries the backend, later ones share its result.  Nothing here
        # touches the cache or the statistics, so a failing backend call
        # leaves both as they were.
        keys = [result_cache_key(box, relation) for _, box, _ in events]
        hit_rows: List[int] = []
        miss_rows: Dict[bytes, List[int]] = {}
        deduplicated = 0
        for row, key in enumerate(keys):
            rows = miss_rows.get(key)
            if rows is not None:
                rows.append(row)
                deduplicated += 1
            elif key in self._cache:
                hit_rows.append(row)
            else:
                miss_rows[key] = [row]
        miss_boxes = [events[rows[0]][1] for rows in miss_rows.values()]
        query_results = self._backend.execute_batch(miss_boxes, relation) if miss_boxes else []

        matches: List[Optional[np.ndarray]] = [None] * len(events)
        cached_rows = [False] * len(events)
        for row in hit_rows:
            matches[row] = self._cache.get(keys[row])
            cached_rows[row] = True
        for key, box, result in zip(miss_rows, miss_boxes, query_results):
            # The lookup counts the miss; the entry is filled below.
            self._cache.get(key)
            ids = result.ids
            ids.sort()  # canonical delivery order (see MatchRecord)
            self._cache.put(key, box, ids)
            self._stats.total_execution = self._stats.total_execution.merge(result.execution)
            rows = miss_rows[key]
            matches[rows[0]] = ids
            for duplicate in rows[1:]:
                matches[duplicate] = ids.copy()
        self._stats.deduplicated += deduplicated

        now = self._clock()
        records: List[MatchRecord] = []
        for (event_id, _, submitted), found, was_cached in zip(events, matches, cached_rows):
            # Every row was resolved above: from the cache, by the backend
            # call, or by sharing a duplicate's result.
            assert found is not None
            records.append(
                MatchRecord(
                    event_id=event_id,
                    matches=found,
                    latency_ms=(now - submitted) * 1000.0,
                    cached=was_cached,
                )
            )

        self._stats.events += len(records)
        self._stats.batches += 1
        counter = f"{reason}_flushes"
        setattr(self._stats, counter, getattr(self._stats, counter) + 1)
        self._stats.latencies_ms.extend(record.latency_ms for record in records)
        self._sync_cache_stats()
        self._stats.busy_seconds += now - start
        return records

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StreamingMatcher(pending={self.pending_events}, "
            f"events={self._stats.events}, batches={self._stats.batches})"
        )
