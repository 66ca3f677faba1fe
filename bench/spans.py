"""Spans around the layers' public callables, and the self-time arithmetic.

The benchmark traces the program from outside: :meth:`Tracer.install`
replaces public functions and methods with wrappers that time each call,
inside the server process only.  Nothing in the program changes.

A span is ``(name, pid, thread, start, end, cpu, span_id, parent_id)``:
wall-clock start and end, and the CPU time its thread spent inside it.
Calls that nest on one thread form a tree through ``parent_id`` (0 for a
root).  Coroutine spans are recorded detached (``parent_id`` -1, no CPU
time): concurrent coroutines interleave on the event-loop thread, so they
neither have nor are parents.  A span's *self time* is its duration minus
the part of it that its child spans cover; its *self CPU* is its CPU time
minus its children's.

Shard workers fork from the server process after :meth:`Tracer.install`,
so they inherit the wrappers and the shared on/off flag; each worker
appends its spans to ``worker-<pid>.spans`` in the tracer's sink
directory, which :func:`load_worker_spans` reads back.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import mmap
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

DETACHED = -1


class Span(NamedTuple):
    name: str
    pid: int
    thread: int
    start: float
    end: float
    cpu: float
    span_id: int
    parent_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


#: One traced callable: (module, class name or None for a module function,
#: attribute, span name).  The span name's prefix before the first dot is
#: the layer.
Hook = Tuple[str, Optional[str], str, str]


class Tracer:
    """Records spans in memory while enabled; injectable clocks for tests."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        cpu_clock: Callable[[], float] = time.thread_time,
        sink_dir: "Path | None" = None,
    ) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        self._sink_dir = sink_dir
        self._pid = os.getpid()
        # An anonymous shared mapping: forked shard workers see the switch.
        self._flag = mmap.mmap(-1, 1)
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._sink: Optional[Any] = None
        self.spans: List[Span] = []

    def enable(self) -> None:
        self._flag[0] = 1

    def disable(self) -> None:
        self._flag[0] = 0

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        if span.pid == self._pid:
            self.spans.append(span)
            return
        if self._sink is None:
            if self._sink_dir is None:
                return
            self._sink = open(  # noqa: SIM115 - lives as long as the worker
                Path(self._sink_dir) / f"worker-{span.pid}.spans", "a", buffering=1
            )
        self._sink.write("\t".join([span.name] + [repr(field) for field in span[2:]]) + "\n")

    def wrap(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A synchronous wrapper that records one nested span per call."""

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._flag[0]:
                return function(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start, cpu = self._clock(), self._cpu_clock()
            try:
                return function(*args, **kwargs)
            finally:
                cpu = self._cpu_clock() - cpu
                end = self._clock()
                stack.pop()
                self._record(
                    Span(
                        name,
                        os.getpid(),
                        threading.get_ident(),
                        start,
                        end,
                        cpu,
                        span_id,
                        parent,
                    )
                )

        return traced

    def wrap_async(self, function: Callable[..., Any], name: str) -> Callable[..., Any]:
        """A coroutine wrapper that records one detached span per call."""

        @functools.wraps(function)
        async def traced(*args: Any, **kwargs: Any) -> Any:
            if not self._flag[0]:
                return await function(*args, **kwargs)
            start = self._clock()
            try:
                return await function(*args, **kwargs)
            finally:
                self._record(
                    Span(
                        name,
                        os.getpid(),
                        threading.get_ident(),
                        start,
                        self._clock(),
                        0.0,
                        next(self._ids),
                        DETACHED,
                    )
                )

        return traced

    # -- patching -------------------------------------------------------
    def install(self, hooks: Iterable[Hook]) -> None:
        """Replace each hooked callable with its traced wrapper."""
        for module_name, class_name, attribute, name in hooks:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attribute] if class_name else getattr(owner, attribute)
            wrapper = (
                self.wrap_async(original, name)
                if inspect.iscoroutinefunction(original)
                else self.wrap(original, name)
            )
            setattr(owner, attribute, wrapper)


def load_worker_spans(sink_dir: Path) -> List[Span]:
    """Spans appended by forked shard workers (see :class:`Tracer`)."""
    spans: List[Span] = []
    for path in sorted(Path(sink_dir).glob("worker-*.spans")):
        pid = int(path.stem.split("-", 1)[1])
        # The last piece is empty, or a line cut short by the worker's exit.
        for line in path.read_text().split("\n")[:-1]:
            name, thread, start, end, cpu, span_id, parent = line.split("\t")
            spans.append(
                Span(
                    name,
                    pid,
                    int(thread),
                    float(start),
                    float(end),
                    float(cpu),
                    int(span_id),
                    int(parent),
                )
            )
    return spans


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of *intervals*."""
    clipped = sorted(
        (max(lo, start), min(hi, end)) for lo, hi in intervals if hi > start and lo < end
    )
    total = 0.0
    current_lo = current_hi = None
    for lo, hi in clipped:
        if current_hi is None or lo > current_hi:
            if current_hi is not None:
                total += current_hi - current_lo  # type: ignore[operator]
            current_lo, current_hi = lo, hi
        else:
            current_hi = max(current_hi, hi)
    if current_hi is not None:
        total += current_hi - current_lo  # type: ignore[operator]
    return total


class SelfTime(NamedTuple):
    wall: float
    cpu: float


def self_times(
    spans: Sequence[Span],
    foreign: Optional[Dict[str, Sequence[Tuple[float, float]]]] = None,
) -> Dict[Tuple[int, int], SelfTime]:
    """Each span's duration and CPU time minus its children's.

    Children are the spans naming it as parent (same process, same thread),
    so their CPU time lies inside the parent's.  *foreign* adds, for spans
    of a given name, intervals of work that runs elsewhere on its behalf
    (shard workers during a fan-out); they cover wall time only.
    """
    children: Dict[Tuple[int, int], List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent_id > 0:
            children[(span.pid, span.parent_id)].append(span)
    result: Dict[Tuple[int, int], SelfTime] = {}
    for span in spans:
        key = (span.pid, span.span_id)
        nested = children.get(key, [])
        intervals = [(child.start, child.end) for child in nested]
        if foreign and span.name in foreign:
            intervals.extend(foreign[span.name])
        result[key] = SelfTime(
            span.duration - covered(intervals, span.start, span.end),
            span.cpu - sum(child.cpu for child in nested),
        )
    return result


class NameStats(NamedTuple):
    count: int
    self_time: float
    self_cpu: float


def summarize(
    spans: Sequence[Span],
    inclusive: Sequence[str] = (),
    foreign: Optional[Dict[str, Sequence[Tuple[float, float]]]] = None,
) -> Dict[str, NameStats]:
    """Count, self time and self CPU per span name.

    A span named in *inclusive* keeps its children's time as its own, and its
    descendants are left out: work a fold replays is fold cost, not served
    work of the layers it calls.
    """
    by_key = {(span.pid, span.span_id): span for span in spans}
    selfs = self_times(spans, foreign)

    def folded(span: Span) -> bool:
        parent = by_key.get((span.pid, span.parent_id))
        while parent is not None:
            if parent.name in inclusive:
                return True
            parent = by_key.get((parent.pid, parent.parent_id))
        return False

    counts: Dict[str, int] = defaultdict(int)
    own: Dict[str, float] = defaultdict(float)
    own_cpu: Dict[str, float] = defaultdict(float)
    for span in spans:
        if folded(span):
            continue
        counts[span.name] += 1
        if span.name in inclusive:
            own[span.name] += span.duration
            own_cpu[span.name] += span.cpu
        else:
            wall, cpu = selfs[(span.pid, span.span_id)]
            own[span.name] += wall
            own_cpu[span.name] += cpu
    return {name: NameStats(counts[name], own[name], own_cpu[name]) for name in counts}


def request_waits(requests: Sequence[Span], ticks: Sequence[Span]) -> List[float]:
    """Time each front-end request spent outside the tick that served it.

    A request's future resolves at the end of its tick, so the serving tick
    is the one whose end lies nearest the request's end; everything else in
    the request's span is queue wait and hand-off.
    """
    ordered = sorted(ticks, key=lambda tick: tick.end)
    ends = [tick.end for tick in ordered]
    waits: List[float] = []
    for request in requests:
        position = bisect.bisect_left(ends, request.end)
        nearby = [ordered[i] for i in (position - 1, position) if 0 <= i < len(ordered)]
        if not nearby:
            waits.append(request.duration)
            continue
        tick = min(nearby, key=lambda candidate: abs(candidate.end - request.end))
        overlap = max(0.0, min(request.end, tick.end) - max(request.start, tick.start))
        waits.append(request.duration - overlap)
    return waits
