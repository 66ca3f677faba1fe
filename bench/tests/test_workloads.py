"""The generators give the same inputs for the same seed, and only then."""

import pytest

from bench.workloads import (
    FIRST_NEW_ID,
    WORKLOADS,
    ClientStream,
    derive_seed,
    preloaded_subscriptions,
    warmup_events,
)


def _fingerprint(workload_name: str, seed: int, count: int = 300) -> list:
    stream = ClientStream(WORKLOADS[workload_name], seed)
    requests = [stream.next() for _ in range(count)]
    return [
        (request.kind, request.key, [box.lows.tobytes() + box.highs.tobytes()
                                     for box in request.boxes])
        for request in requests
    ]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_client_streams_repeat_for_a_seed(name: str) -> None:
    assert _fingerprint(name, 7) == _fingerprint(name, 7)
    assert _fingerprint(name, 7) != _fingerprint(name, 8)


def test_derived_seeds_are_independent_streams() -> None:
    assert derive_seed(3, "client") == derive_seed(3, "client")
    assert len({derive_seed(3, stream) for stream in ("subscriptions", "warmup", "boxes")}) == 3


def test_warmup_and_preload_repeat_for_a_seed() -> None:
    workload = WORKLOADS["shard-mixed"]
    first, again = warmup_events(workload, 5), warmup_events(workload, 5)
    assert [box.lows.tobytes() for box in first] == [box.lows.tobytes() for box in again]
    other = warmup_events(workload, 6)
    assert [box.lows.tobytes() for box in first] != [box.lows.tobytes() for box in other]
    preloaded = preloaded_subscriptions(workload, 5)
    assert preloaded.lows.tobytes() == preloaded_subscriptions(workload, 5).lows.tobytes()


def test_churn_never_reuses_or_repeats_an_id() -> None:
    workload = WORKLOADS["shard-mixed"]
    stream = ClientStream(workload, 11)
    subscribed, unsubscribed = set(), []
    kinds = []
    for _ in range(3_000):
        request = stream.next()
        kinds.append(request.kind)
        if request.kind == "subscribe":
            assert request.key not in subscribed
            subscribed.add(request.key)
        elif request.kind == "unsubscribe":
            # Either the client's own live id or a preloaded id.
            assert request.key in subscribed or 0 <= request.key < workload.subscriptions
            unsubscribed.append(request.key)
    assert len(unsubscribed) == len(set(unsubscribed))
    assert min(subscribed) >= FIRST_NEW_ID
    assert kinds.count("query_batch") / len(kinds) == pytest.approx(0.50, abs=0.03)
