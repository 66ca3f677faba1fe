"""Load generation over TCP, and what ``/proc`` says about the server.

The load is a closed loop in the benchmark process's main thread over one
:class:`~repro.api.server.RemoteDatabase` connection: the client sends its
next request as soon as the previous reply arrives.  One connection keeps
the server's requests from queueing behind each other, so a latency is one
request's service time and not a mix of whichever interleaving a run fell
into.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple

from repro.api.server import RemoteDatabase, ServingError
from repro.geometry.relations import SpatialRelation

from bench.workloads import ClientStream, Request

Address = Tuple[str, int]


@dataclass
class Outcome:
    """One request as the client saw it (times from ``time.perf_counter``)."""

    request: Request
    sent: float
    done: float
    #: Match ids of a publish, ``QueryResult`` list of a batch, else ``None``.
    reply: Any = None
    error: Optional[str] = None

    @property
    def latency(self) -> float:
        return self.done - self.sent


def _send(client: RemoteDatabase, request: Request) -> Any:
    if request.kind == "publish":
        return client.publish(request.key, request.boxes[0]).matches
    if request.kind == "subscribe":
        client.subscribe(request.key, request.boxes[0])
        return None
    if request.kind == "unsubscribe":
        client.unsubscribe(request.key)
        return None
    return client.query_batch(request.boxes, SpatialRelation.CONTAINS)


def _issue(client: RemoteDatabase, request: Request) -> Outcome:
    sent = time.perf_counter()
    try:
        reply = _send(client, request)
    except ServingError as error:
        return Outcome(request, sent, time.perf_counter(), error=str(error))
    return Outcome(request, sent, time.perf_counter(), reply)


def closed_loop(
    address: Address, stream: ClientStream, seconds: float
) -> Tuple[float, List[Outcome]]:
    """Send, wait, repeat for *seconds*; the start time and the outcomes."""
    outcomes: List[Outcome] = []
    with RemoteDatabase(address) as client:
        client.stats()  # connect before the clock starts
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            outcomes.append(_issue(client, stream.next()))
    return start, outcomes


# ----------------------------------------------------------------------
# /proc
# ----------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    text = Path(f"/proc/{pid}/stat").read_text()
    # The command name may hold spaces; fields resume after its ')'.
    return text[text.rindex(")") + 2 :].split()


def process_tree(pid: int) -> List[int]:
    """*pid* and its descendants (the server and its shard workers)."""
    parents = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                parents[int(entry.name)] = int(_stat_fields(int(entry.name))[1])
            except (OSError, ValueError):
                continue  # exited while we looked
    tree, frontier = [pid], [pid]
    while frontier:
        frontier = [child for child, parent in parents.items() if parent in frontier]
        tree.extend(frontier)
    return tree


def cpu_seconds(pids: Sequence[int]) -> float:
    """User plus system CPU time of *pids*, skipping any that exited."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLOCK_TICKS


def rss_mb(pids: Sequence[int], field: str = "VmRSS") -> float:
    """Summed resident set size (``VmHWM``: its peak) of *pids* in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            lines = Path(f"/proc/{pid}/status").read_text().splitlines()
        except OSError:
            continue
        for line in lines:
            if line.startswith(field + ":"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


#: Seconds between two CPU samples; a trace run interpolates between them.
_SAMPLE_INTERVAL_S = 0.25


class CpuSampler:
    """Samples ``(time, cpu_seconds)`` of *pids* while in its ``with`` block."""

    def __init__(self, pids: Sequence[int]) -> None:
        self._pids = list(pids)
        self._stop = threading.Event()
        self.samples: List[Tuple[float, float]] = []
        self._thread = threading.Thread(target=self._run, name="bench-cpu-sampler")

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), cpu_seconds(self._pids)))

    def _run(self) -> None:
        while not self._stop.wait(_SAMPLE_INTERVAL_S):
            self._sample()

    def __enter__(self) -> "CpuSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc: Any) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()
