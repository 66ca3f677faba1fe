"""The oracle catches a wrong, missing or extra id."""

import numpy as np

from repro.geometry.box import HyperRectangle
from repro.workloads.datasets import Dataset

from bench.check import build_oracle, check_replies, sample
from bench.load import Outcome
from bench.workloads import Request

# Four preloaded 2-d subscriptions; the event (0.5, 0.5) lies in 0, 1 and 3.
PRELOADED = Dataset(
    ids=np.arange(4, dtype=np.int64),
    lows=np.array([[0.0, 0.0], [0.4, 0.4], [0.6, 0.6], [0.1, 0.2]]),
    highs=np.array([[1.0, 1.0], [0.6, 0.6], [0.9, 0.9], [0.7, 0.8]]),
)
EVENT = HyperRectangle([0.5, 0.5], [0.5, 0.5])


def _publish(matches, key: int = 0) -> Outcome:
    return Outcome(Request("publish", key, (EVENT,)), 0.0, 0.001,
                   np.asarray(matches, dtype=np.int64))


def _problems(outcomes) -> list:
    oracle, stable = build_oracle(PRELOADED, outcomes)
    return check_replies(oracle, stable, sample(outcomes, 100))


def test_a_right_reply_passes() -> None:
    assert _problems([_publish([0, 1, 3])]) == []


def test_a_missing_id_is_caught() -> None:
    problems = _problems([_publish([0, 3])])
    assert len(problems) == 1 and "missing [1]" in problems[0]


def test_a_wrong_id_is_caught() -> None:
    assert "extra [2]" in _problems([_publish([0, 1, 2, 3])])[0]
    assert "unknown ids [99]" in _problems([_publish([0, 1, 3, 99])])[0]
    assert "duplicate" in _problems([_publish([0, 1, 1, 3])])[0]


def test_churned_ids_may_appear_only_when_they_match() -> None:
    inside = HyperRectangle([0.45, 0.45], [0.55, 0.55])
    outside = HyperRectangle([0.0, 0.0], [0.1, 0.1])
    churn = [
        Outcome(Request("subscribe", 10, (inside,)), 0.0, 0.0),
        Outcome(Request("subscribe", 11, (outside,)), 0.0, 0.0),
        Outcome(Request("unsubscribe", 1), 0.0, 0.0),
    ]
    # Whether the concurrent churn was seen is unknown: with or without the
    # churned ids 1 and 10, the reply is right.
    assert _problems(churn + [_publish([0, 1, 3, 10])]) == []
    assert _problems(churn + [_publish([0, 3])]) == []
    assert "churned ids [11]" in _problems(churn + [_publish([0, 3, 11])])[0]
    # A stable id is still checked exactly.
    assert "missing [3]" in _problems(churn + [_publish([0, 10])])[0]


def test_sample_takes_the_first_replies() -> None:
    outcomes = [_publish([0, 1, 3], key) for key in range(10)]
    outcomes[2] = Outcome(Request("unsubscribe", 3), 0.0, 0.0)
    assert len(sample(outcomes, 4)) == 4
    assert len(sample(outcomes, 100)) == 9
