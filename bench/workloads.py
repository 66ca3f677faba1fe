"""The benchmark's workloads and their seeded input generators.

Every input a run uses — the preloaded subscriptions, the server's warm-up
events and the client's request sequence — is a pure function of
``--seed``.  How many of the generated requests a run gets through depends
on the measured duration, never which requests they are: the *k*-th request
is the same on every run with that seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.box import HyperRectangle
from repro.workloads.datasets import Dataset
from repro.workloads.pubsub import apartment_ads_scenario

#: Events the server runs through ``query_batch`` before it starts listening.
WARMUP_EVENTS = 1_000

#: Subscription ids the client creates start here, above every preloaded id.
FIRST_NEW_ID = 10_000_000

#: Generated boxes are drawn this many at a time.
_CHUNK = 256

#: Independent random streams derived from one ``--seed``.
_STREAMS = {"subscriptions": 1, "warmup": 2, "client": 3, "boxes": 4}


@dataclass(frozen=True)
class Workload:
    """One traffic mix served by one server configuration."""

    name: str
    why: str
    #: Subscriptions preloaded before the server starts listening.
    subscriptions: int
    #: Shares of requests by kind (they sum to 1).
    publish: float = 0.0
    subscribe: float = 0.0
    unsubscribe: float = 0.0
    query_batch: float = 0.0
    #: Process-backed shards behind the spatial router; ``None`` = unsharded.
    shards: Optional[int] = None
    #: Events per ``query_batch`` request and their width per attribute.
    batch_size: int = 16
    range_fraction: float = 0.0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="notify-read",
            why=(
                "the paper's matching path: every event is fresh, so index prune and "
                "verify plus the fixed per-request cost dominate and no write path runs"
            ),
            subscriptions=50_000,
            publish=1.0,
        ),
        Workload(
            name="shard-mixed",
            why=(
                "process shards: shared-memory fan-out, gather and the parent-side "
                "baseline+oplog fold dominate, and the matcher is bypassed"
            ),
            subscriptions=20_000,
            query_batch=0.50,
            subscribe=0.25,
            unsubscribe=0.25,
            shards=2,
            range_fraction=0.02,
        ),
    )
}


def derive_seed(seed: int, stream: str) -> int:
    """An independent integer seed for one named input stream of *seed*."""
    sequence = np.random.SeedSequence([int(seed), _STREAMS[stream]])
    return int(sequence.generate_state(1)[0])


def preloaded_subscriptions(workload: Workload, seed: int) -> Dataset:
    """The subscriptions the server loads before listening (ids ``0..n-1``)."""
    scenario = apartment_ads_scenario(seed=derive_seed(seed, "subscriptions"))
    return scenario.generate_subscriptions(workload.subscriptions)


def warmup_events(workload: Workload, seed: int) -> List[HyperRectangle]:
    """The events the server runs through ``query_batch`` while warming up."""
    scenario = apartment_ads_scenario(seed=derive_seed(seed, "warmup"))
    return list(scenario.generate_events(WARMUP_EVENTS, workload.range_fraction).queries)


@dataclass(frozen=True)
class Request:
    """One request a client sends.

    ``key`` is the event id of a publish and the subscription id of a
    subscribe or unsubscribe; ``boxes`` holds one box, or the events of a
    ``query_batch`` (none for an unsubscribe).
    """

    kind: str
    key: int
    boxes: Sequence[HyperRectangle] = ()


class ClientStream:
    """The deterministic request sequence of the client connection."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self._workload = workload
        self._rng = np.random.default_rng(derive_seed(seed, "client"))
        self._scenario = apartment_ads_scenario(seed=derive_seed(seed, "boxes"))
        kinds = ("publish", "subscribe", "unsubscribe", "query_batch")
        shares = np.array([getattr(workload, kind) for kind in kinds])
        if not np.isclose(shares.sum(), 1.0):
            raise ValueError(f"request shares of {workload.name!r} do not sum to 1")
        self._kinds = kinds
        self._thresholds = np.cumsum(shares)
        self._events: List[HyperRectangle] = []
        self._subscriptions: List[HyperRectangle] = []
        #: Preloaded ids still subscribed, and the client's own live ids.
        self._preloaded = list(range(workload.subscriptions))
        self._own: List[int] = []
        self._next_subscription = FIRST_NEW_ID
        self._next_event = 0

    def _fresh_event(self) -> HyperRectangle:
        if not self._events:
            workload = self._scenario.generate_events(_CHUNK, self._workload.range_fraction)
            self._events = list(reversed(workload.queries))
        return self._events.pop()

    def _fresh_subscription(self) -> HyperRectangle:
        if not self._subscriptions:
            dataset = self._scenario.generate_subscriptions(_CHUNK)
            self._subscriptions = [
                HyperRectangle(dataset.lows[row], dataset.highs[row])
                for row in range(_CHUNK - 1, -1, -1)
            ]
        return self._subscriptions.pop()

    def _take(self, ids: List[int]) -> int:
        """Remove and return a random element (swap with the last)."""
        position = int(self._rng.integers(len(ids)))
        ids[position], ids[-1] = ids[-1], ids[position]
        return ids.pop()

    def next(self) -> Request:
        """The client's next request."""
        pick = float(self._rng.random())
        kind = self._kinds[int(np.searchsorted(self._thresholds, pick, side="right"))]
        if kind == "publish":
            event_id = self._next_event
            self._next_event += 1
            return Request("publish", event_id, (self._fresh_event(),))
        if kind == "subscribe":
            subscription_id = self._next_subscription
            self._next_subscription += 1
            self._own.append(subscription_id)
            return Request("subscribe", subscription_id, (self._fresh_subscription(),))
        if kind == "unsubscribe":
            # Half hit the client's own new ids, half the preloaded ids; ids
            # are never reused, so every unsubscribe removes a registered
            # subscription.
            own = bool(self._own) and self._rng.random() < 0.5
            return Request("unsubscribe", self._take(self._own if own else self._preloaded))
        boxes = tuple(self._fresh_event() for _ in range(self._workload.batch_size))
        return Request("query_batch", 0, boxes)
