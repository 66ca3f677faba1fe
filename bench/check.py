"""Brute-force NumPy oracle for the benchmark's replies.

Every reply is a set of subscription ids whose box *contains* the event
(the pub/sub relation).  The check does not replay the run's churn in
request order, so it splits ids in two:

* **stable** ids — preloaded and never subscribed or unsubscribed during
  the run — must appear exactly as the oracle says;
* **churned** ids may appear only if their box contains the event.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.geometry.box import HyperRectangle
from repro.workloads.datasets import Dataset

from bench.load import Outcome

#: Replies checked per workload: the client's first replies — the same
#: positions of the same inputs on every run.
CHECKED_REPLIES = 1_000

#: Problems reported in full; the rest are only counted.
_SHOWN = 5


class Oracle:
    """All subscription boxes ever known in a run, searchable by id."""

    def __init__(self, ids: np.ndarray, lows: np.ndarray, highs: np.ndarray) -> None:
        order = np.argsort(ids, kind="stable")
        self.ids = np.asarray(ids, dtype=np.int64)[order]
        if np.unique(self.ids).size != self.ids.size:
            raise ValueError("subscription ids must be unique")
        self._lows = np.ascontiguousarray(np.asarray(lows, dtype=np.float64)[order].T)
        self._highs = np.ascontiguousarray(np.asarray(highs, dtype=np.float64)[order].T)

    def containing(self, box: HyperRectangle) -> np.ndarray:
        """Row mask of the boxes that contain *box*."""
        mask = np.ones(self.ids.size, dtype=bool)
        for dim, (low, high) in enumerate(zip(box.lows, box.highs)):
            mask &= self._lows[dim] <= low
            mask &= high <= self._highs[dim]
        return mask

    def rows(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Row of each id, and whether the id is known at all."""
        rows = np.searchsorted(self.ids, ids)
        rows = np.minimum(rows, max(self.ids.size - 1, 0))
        return rows, self.ids[rows] == ids


def _churn(outcomes: Iterable[Outcome]) -> Tuple[List[Tuple[int, HyperRectangle]], Set[int]]:
    subscribed: List[Tuple[int, HyperRectangle]] = []
    unsubscribed: Set[int] = set()
    for outcome in outcomes:
        request = outcome.request
        if request.kind == "subscribe":
            subscribed.append((request.key, request.boxes[0]))
        elif request.kind == "unsubscribe":
            unsubscribed.add(request.key)
    return subscribed, unsubscribed


def build_oracle(preloaded: Dataset, outcomes: Iterable[Outcome]) -> Tuple[Oracle, np.ndarray]:
    """The oracle over every known box, and the sorted stable ids."""
    subscribed, unsubscribed = _churn(outcomes)
    ids = np.concatenate([preloaded.ids, [key for key, _ in subscribed]]).astype(np.int64)
    lows = np.vstack([preloaded.lows] + [box.lows[None, :] for _, box in subscribed])
    highs = np.vstack([preloaded.highs] + [box.highs[None, :] for _, box in subscribed])
    churned = np.fromiter(
        (key for key, _ in subscribed), dtype=np.int64, count=len(subscribed)
    )
    churned = np.union1d(churned, np.fromiter(unsubscribed, dtype=np.int64))
    stable = np.setdiff1d(preloaded.ids.astype(np.int64), churned)
    return Oracle(ids, lows, highs), stable


def sample(outcomes: Sequence[Outcome], limit: int) -> List[Tuple[HyperRectangle, np.ndarray]]:
    """(event, reply ids) pairs of the first *limit* replies, in order."""
    pairs: List[Tuple[HyperRectangle, np.ndarray]] = []
    for outcome in outcomes:
        if len(pairs) >= limit:
            break
        if outcome.error is not None or outcome.request.kind not in ("publish", "query_batch"):
            continue
        if outcome.request.kind == "publish":
            pairs.append((outcome.request.boxes[0], outcome.reply))
        else:
            pairs.extend(
                (box, result.ids) for box, result in zip(outcome.request.boxes, outcome.reply)
            )
    return pairs


def check_replies(
    oracle: Oracle, stable: np.ndarray, pairs: Sequence[Tuple[HyperRectangle, np.ndarray]]
) -> List[str]:
    """Problems found in *pairs*; empty when every reply is right."""
    problems: List[str] = []
    stable_rows, _ = oracle.rows(stable)
    is_stable = np.zeros(oracle.ids.size, dtype=bool)
    is_stable[stable_rows] = True
    for position, (box, reply) in enumerate(pairs):
        got = np.asarray(reply, dtype=np.int64)
        mask = oracle.containing(box)
        rows, known = oracle.rows(got)
        if np.unique(got).size != got.size:
            problems.append(f"reply {position}: duplicate ids")
        elif not known.all():
            problems.append(f"reply {position}: unknown ids {got[~known][:5].tolist()}")
        else:
            from_stable = is_stable[rows]
            expected = oracle.ids[mask & is_stable]
            if not np.array_equal(np.sort(got[from_stable]), expected):
                missing = np.setdiff1d(expected, got)
                extra = np.setdiff1d(got[from_stable], expected)
                problems.append(
                    f"reply {position}: stable ids missing {missing[:5].tolist()} "
                    f"extra {extra[:5].tolist()}"
                )
            elif not mask[rows[~from_stable]].all():
                wrong = got[~from_stable][~mask[rows[~from_stable]]]
                problems.append(f"reply {position}: churned ids {wrong[:5].tolist()} do not match")
    return _capped(problems)


def _capped(problems: List[str]) -> List[str]:
    if len(problems) <= _SHOWN:
        return problems
    return problems[:_SHOWN] + [f"... and {len(problems) - _SHOWN} more"]
