"""Span self time and self CPU, with fake clocks."""

import asyncio

import pytest

from bench.spans import (
    DETACHED,
    Span,
    Tracer,
    covered,
    load_worker_spans,
    request_waits,
    self_times,
    summarize,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_nested_calls_subtract_their_children() -> None:
    clock, cpu_clock = FakeClock(), FakeClock()
    tracer = Tracer(clock=clock, cpu_clock=cpu_clock)

    def leaf(seconds: float) -> None:
        clock.advance(seconds)
        cpu_clock.advance(seconds / 2)  # half of it waiting

    traced_leaf = tracer.wrap(leaf, "index.query")

    def outer() -> None:
        clock.advance(1.0)
        cpu_clock.advance(1.0)
        traced_leaf(2.0)
        clock.advance(0.5)
        traced_leaf(3.0)

    traced_outer = tracer.wrap(outer, "matcher.flush")
    traced_outer()  # disabled: nothing recorded
    assert tracer.spans == []
    tracer.enable()
    traced_outer()
    stats = summarize(tracer.spans)
    assert stats["matcher.flush"] == (1, 1.5, 1.0)
    assert stats["index.query"] == (2, 5.0, 2.5)


def test_coroutine_spans_are_detached() -> None:
    clock = FakeClock()
    tracer = Tracer(clock=clock, cpu_clock=clock)

    async def request() -> str:
        clock.advance(4.0)
        return "done"

    tracer.enable()
    assert asyncio.run(tracer.wrap_async(request, "serving.publish")()) == "done"
    (span,) = tracer.spans
    assert span.parent_id == DETACHED and span.duration == 4.0 and span.cpu == 0.0


class Layer:
    def work(self) -> int:
        return 3


def test_install_wraps_the_named_method() -> None:
    tracer = Tracer(clock=FakeClock(), cpu_clock=FakeClock())
    tracer.install([(__name__, "Layer", "work", "layer.work")])
    tracer.enable()
    assert Layer().work() == 3
    assert [span.name for span in tracer.spans] == ["layer.work"]


def test_covered_is_the_union_clipped_to_the_span() -> None:
    assert covered([(1, 3), (2, 4), (6, 7), (9, 12)], 0, 10) == pytest.approx(5.0)
    assert covered([], 0, 10) == 0.0


def test_foreign_children_and_inclusive_folds() -> None:
    spans = [
        Span("executor.fanout", 1, 1, 0.0, 10.0, 3.0, 1, 0),
        Span("index.query", 2, 5, 1.0, 7.0, 6.0, 1, 0),  # a shard worker
        Span("executor.fold", 1, 1, 20.0, 30.0, 10.0, 2, 0),
        Span("index.query", 1, 1, 21.0, 29.0, 8.0, 3, 2),  # replayed by the fold
    ]
    selfs = self_times(spans, foreign={"executor.fanout": [(1.0, 7.0)]})
    # The worker's span covers the fan-out's wall time, not its CPU time.
    assert selfs[(1, 1)] == (4.0, 3.0)
    stats = summarize(spans, inclusive=("executor.fold",),
                      foreign={"executor.fanout": [(1.0, 7.0)]})
    assert stats["executor.fold"] == (1, 10.0, 10.0)
    assert stats["index.query"] == (1, 6.0, 6.0)


def test_request_wait_excludes_the_serving_tick() -> None:
    ticks = [Span("serving.tick", 1, 2, 0.0, 4.0, 4.0, 1, 0),
             Span("serving.tick", 1, 2, 5.0, 6.0, 1.0, 2, 0)]
    requests = [
        # Waited through the first tick, served by the second.
        Span("serving.publish", 1, 1, 1.0, 6.2, 0.0, 3, DETACHED),
        # Served by the first tick, resolved just before it returned.
        Span("serving.publish", 1, 1, -0.5, 3.99, 0.0, 4, DETACHED),
    ]
    assert request_waits(requests, ticks) == [pytest.approx(4.2), pytest.approx(0.5)]


def test_worker_spans_round_trip_and_skip_a_cut_line(tmp_path) -> None:
    span = Span("index.query", 4242, 7, 1.25, 2.5, 0.75, 3, 1)
    tracer = Tracer(sink_dir=tmp_path)
    tracer._pid = 1  # as if the span came from a forked worker
    tracer._record(span)
    tracer._sink.close()
    path = tmp_path / "worker-4242.spans"
    path.write_text(path.read_text() + "index.query\t7\t3.0")  # cut short
    assert load_worker_spans(tmp_path) == [span]
