"""The serving benchmark: set up, load, check and report each workload.

Each workload is served by its own spawned server process (see
:mod:`bench.server`) and loaded over TCP from this process by one client
connection (see :mod:`bench.load`).  A run prints every metric as
``workload metric value unit``, checks the replies against a brute-force
oracle, writes one JSON record per workload to ``--out``, and ends with one
JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` (the default) reports the end-to-end metrics of
``BENCHMARK.json`` with the program untraced; ``--trace 1`` switches
tracing on and off in alternate one-second slices of the run and reports
the per-layer metrics.  The exit code is 1 when a reply is wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.cost_model import CostParameters
from repro.core.statistics import QueryExecution
from repro.evaluation.metrics import ModeledCostModel

from bench.check import CHECKED_REPLIES, build_oracle, check_replies, sample
from bench.load import CpuSampler, Outcome, closed_loop, process_tree, rss_mb
from bench.server import ServerProcess, Switch
from bench.spans import Span, load_worker_spans, request_waits, summarize
from bench.workloads import WORKLOADS, ClientStream, Workload, preloaded_subscriptions

BENCH_DIR = Path(__file__).resolve().parent

#: Server set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Request kinds whose replies are match results.
READS = ("publish", "query_batch")

Metrics = Dict[str, Tuple[float, str]]


def _percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q)) if values else 0.0


def _reads(outcomes: Sequence[Outcome]) -> List[Outcome]:
    return [outcome for outcome in outcomes if outcome.request.kind in READS]


def _inside(moment: float, windows: Sequence[Tuple[float, float]]) -> bool:
    return any(lo <= moment < hi for lo, hi in windows)


@dataclass
class Phase:
    """One measured stretch of load against a running server."""

    start: float
    end: float
    #: In request order.
    outcomes: List[Outcome]
    #: Server counters (see ``bench.server``) before and after.
    before: Dict[str, Any]
    after: Dict[str, Any]
    #: ``(time, CPU seconds)`` of the server and its shard workers.
    cpu: List[Tuple[float, float]]
    load_cpu_s: float
    #: Resident memory after the phase, and its peak since start-up.
    parent_rss_mb: float
    worker_rss_mb: float
    parent_peak_mb: float
    worker_peak_mb: float
    #: The tracer's switches (``--trace`` only), see ``bench.server``.
    switches: List[Switch]

    def delta(self, key: str) -> float:
        return float(self.after.get(key, 0) - self.before.get(key, 0))

    def latencies_ms(self, outcomes: Optional[Sequence[Outcome]] = None) -> List[float]:
        # A failed request misses any latency limit: it counts as infinitely slow.
        return [
            outcome.latency * 1000.0 if outcome.error is None else float("inf")
            for outcome in (self.outcomes if outcomes is None else outcomes)
        ]

    def of_kind(self, *kinds: str) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.request.kind in kinds]

    def ops_per_s(self) -> float:
        done = [outcome.done for outcome in self.outcomes if outcome.error is None]
        return len(done) / (max(done) - self.start) if done else 0.0

    def cpu_s(self, windows: Optional[Sequence[Tuple[float, float]]] = None) -> float:
        """Server CPU seconds over the phase, or within *windows*."""
        times, seconds = zip(*self.cpu)
        if windows is None:
            return seconds[-1] - seconds[0]
        return sum(
            float(np.interp(hi, times, seconds) - np.interp(lo, times, seconds))
            for lo, hi in windows
        )

    def traced_windows(self) -> List[Tuple[float, float]]:
        """The traced slices, clipped to the load."""
        times = [moment for moment, _, _ in self.switches]
        return [
            (max(lo, self.start), min(hi, self.end))
            for (lo, on, _), hi in zip(self.switches, times[1:])
            if on and hi > self.start and lo < self.end
        ]

    def traced_delta(self, key: str) -> float:
        """Growth of a server counter within the traced slices."""
        return float(
            sum(
                after.get(key, 0) - before.get(key, 0)
                for (_, on, before), (_, _, after) in zip(self.switches, self.switches[1:])
                if on
            )
        )


def _measure(server: ServerProcess, stream: ClientStream, seconds: float, traced: bool) -> Phase:
    tree = process_tree(server.pid)
    before = server.call("counters")
    load_cpu = time.process_time()
    switches: List[Switch] = []
    with CpuSampler(tree) as sampler:
        if traced:
            server.call("trace-start")
        start, outcomes = closed_loop(server.address, stream, seconds)
        end = time.perf_counter()
        if traced:
            switches = server.call("trace-stop")
    load_cpu = time.process_time() - load_cpu
    after = server.call("counters")
    return Phase(
        start=start,
        end=end,
        outcomes=outcomes,
        before=before,
        after=after,
        cpu=sampler.samples,
        load_cpu_s=load_cpu,
        parent_rss_mb=rss_mb(tree[:1]),
        worker_rss_mb=rss_mb(tree[1:]),
        parent_peak_mb=rss_mb(tree[:1], "VmHWM"),
        worker_peak_mb=rss_mb(tree[1:], "VmHWM"),
        switches=switches,
    )


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(phase: Phase, setups: Sequence[float]) -> Metrics:
    """The gated metrics of ``BENCHMARK.json``.

    The median latency is of reads only: on a mix, the pooled median would
    sit where fast writes give way to slow reads and jump between the two.
    """
    return {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (phase.ops_per_s(), "1/s"),
        "read_p50_ms": (_percentile(phase.latencies_ms(_reads(phase.outcomes)), 50), "ms"),
        "cpu_ms_per_op": (phase.cpu_s() * 1000.0 / max(len(phase.outcomes), 1), "ms"),
        "peak_rss_mb": (phase.parent_peak_mb + phase.worker_peak_mb, "MB"),
    }


def by_kind(phase: Phase) -> Metrics:
    """Ungated end-to-end figures: other percentiles, latency per request kind."""
    metrics: Metrics = {}
    pooled = phase.latencies_ms()
    for q in (50, 90, 95, 99):
        metrics[f"p{q}_ms"] = (_percentile(pooled, q), "ms")
    kinds = {
        "publish": ("publish",),
        "write": ("subscribe", "unsubscribe"),
        "batch": ("query_batch",),
    }
    for label, members in kinds.items():
        values = phase.latencies_ms(phase.of_kind(*members))
        if values:
            metrics[f"{label}_p50_ms"] = (_percentile(values, 50), "ms")
            metrics[f"{label}_p99_ms"] = (_percentile(values, 99), "ms")
    metrics["rss_mb"] = (phase.parent_rss_mb + phase.worker_rss_mb, "MB")
    failed = sum(1 for outcome in phase.outcomes if outcome.error is not None)
    metrics["failed_ratio"] = (failed / max(len(phase.outcomes), 1), "ratio")
    return metrics


def _index_work(phase: Phase, workload: Workload) -> Tuple[QueryExecution, int]:
    """Summed index counters of the phase's queries, and the query count."""
    if workload.shards:
        # The queries run in the shard workers; their counters come back
        # with every reply, summed over the shards.
        execution, queries = QueryExecution(), 0
        for outcome in phase.of_kind("query_batch"):
            for result in outcome.reply or ():
                execution = execution.merge(result.execution)
                queries += 1
        return execution, queries
    # Every query the matcher sends is a result-cache miss.
    keys = ("signature_checks", "groups_explored", "objects_verified", "results")
    totals = {key: phase.after["execution"][key] - phase.before["execution"][key] for key in keys}
    return QueryExecution(**totals), int(phase.delta("cache_misses"))


#: Span names whose self time is each layer's (``executor`` covers
#: ``api.sharding`` and ``api.executor``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "server": ("server.decode", "server.encode"),
    "serving": ("serving.tick",),
    "matcher": ("matcher.publish", "matcher.flush", "matcher.register", "matcher.unregister"),
    "index": ("index.query", "index.insert", "index.delete", "index.reorg"),
    "executor": (
        "sharding.gather",
        "executor.fanout",
        "executor.fold",
        "executor.insert",
        "executor.delete",
    ),
}

#: Parent-side spans that wait for shard workers: the workers' spans cover them.
_DELEGATING = ("executor.fanout", "executor.insert", "executor.delete")


def per_layer(
    phase: Phase, spans: Sequence[Span], server_pid: int, workload: Workload
) -> Tuple[Metrics, Metrics]:
    """The traced slices' per-layer metrics, and the workload-specific extras.

    Times (``*_ms_*``) are wall-clock self times; shares are self CPU over
    the CPU the server and its workers used in the traced slices.
    """
    windows = phase.traced_windows()
    inside = [span for span in spans if _inside(span.start, windows)]
    traced = [outcome for outcome in phase.outcomes if _inside(outcome.sent, windows)]
    untraced = [outcome for outcome in phase.outcomes if not _inside(outcome.sent, windows)]
    # A shard worker's spans run on behalf of the parent's request to it.
    workers = [(span.start, span.end) for span in inside if span.pid != server_pid]
    stats = summarize(
        inside, inclusive=("executor.fold",), foreign={name: workers for name in _DELEGATING}
    )

    def self_ms(*names: str) -> float:
        return sum(stats[name].self_time for name in names if name in stats) * 1000.0

    def count(name: str) -> float:
        return float(stats[name].count if name in stats else 0)

    def per(value: float, count: float) -> float:
        return value / count if count else 0.0

    requests = len(traced)
    kinds = [outcome.request.kind for outcome in traced]
    writes = kinds.count("subscribe") + kinds.count("unsubscribe")
    batches = kinds.count("query_batch")
    if workload.shards:
        # Every query_batch request carries the same number of events.
        queries = float(batches * workload.batch_size)
    else:
        queries = phase.traced_delta("cache_misses")
    execution, all_queries = _index_work(phase, workload)
    model = ModeledCostModel(CostParameters.memory_defaults(16))
    calls = [span for span in inside if span.name.split(".")[0] == "serving"]
    ticks = [span for span in calls if span.name == "serving.tick"]
    waits = request_waits([span for span in calls if span.name != "serving.tick"], ticks)

    busy_ms = phase.cpu_s(windows) * 1000.0
    shares: Metrics = {
        f"{layer}.share_pct": (
            100.0 * per(sum(stats[n].self_cpu for n in names if n in stats) * 1000.0, busy_ms),
            "%",
        )
        for layer, names in LAYERS.items()
    }
    shares["unattributed.share_pct"] = (100.0 - sum(value for value, _ in shares.values()), "%")

    on_s = sum(hi - lo for lo, hi in windows)
    off_s = phase.end - phase.start - on_s
    done_on = sum(1 for outcome in phase.outcomes if _inside(outcome.done, windows))
    untraced_ops = per(len(phase.outcomes) - done_on, off_s)
    untraced_p50 = _percentile(phase.latencies_ms(_reads(untraced)), 50)
    traced_p50 = _percentile(phase.latencies_ms(_reads(traced)), 50)
    metrics: Metrics = {
        "server.decode_ms_per_req": (per(self_ms("server.decode"), requests), "ms"),
        "server.encode_ms_per_req": (per(self_ms("server.encode"), requests), "ms"),
        "server.bytes_per_req": (per(phase.delta("frame_bytes"), len(phase.outcomes)), "B"),
        "serving.wait_ms_per_req": (1000.0 * per(sum(waits), len(waits)), "ms"),
        "serving.tick_ms": (1000.0 * per(sum(tick.duration for tick in ticks), len(ticks)), "ms"),
        "serving.reqs_per_tick": (per(phase.delta("requests"), phase.delta("ticks")), "count"),
        "serving.self_ms_per_req": (per(self_ms(*LAYERS["serving"]), requests), "ms"),
        "matcher.self_ms_per_req": (per(self_ms(*LAYERS["matcher"]), requests), "ms"),
        "index.query_ms_per_query": (per(self_ms("index.query"), queries), "ms"),
        "index.modeled_ms_per_query": (
            per(model.query_time_ms(execution), all_queries),
            "ms",
        ),
        "index.reorg_ms_per_query": (per(self_ms("index.reorg"), queries), "ms"),
        "index.reorgs": (count("index.reorg"), "count"),
        "index.signature_checks_per_query": (
            per(execution.signature_checks, all_queries),
            "count",
        ),
        "index.objects_verified_per_query": (
            per(execution.objects_verified, all_queries),
            "count",
        ),
        "index.verify_yield": (per(execution.results, execution.objects_verified), "ratio"),
        "executor.folds": (count("executor.fold"), "count"),
        "executor.parent_peak_rss_mb": (phase.parent_peak_mb, "MB"),
        "executor.worker_peak_rss_mb": (phase.worker_peak_mb, "MB"),
        "gen.cpu_ms_per_op": (per(phase.load_cpu_s * 1000.0, len(phase.outcomes)), "ms"),
        "trace.overhead_pct": (100.0 * (per(untraced_ops, per(done_on, on_s)) - 1), "%"),
        "trace.p50_overhead_pct": (100.0 * (per(traced_p50, untraced_p50) - 1), "%"),
    }
    metrics.update(shares)

    extras: Metrics = {
        f"{layer}.layer_ms_per_req": (per(self_ms(*names), requests), "ms")
        for layer, names in LAYERS.items()
    }
    extras["server.cpu_ms_per_req"] = (per(busy_ms, requests), "ms")
    extras["trace.traced_requests"] = (float(requests), "count")
    extras["trace.untraced_requests"] = (float(len(untraced)), "count")
    publishes = kinds.count("publish")
    if publishes:
        flush_ms = self_ms("matcher.flush", "matcher.publish")
        extras["matcher.flush_ms_per_event"] = (per(flush_ms, publishes), "ms")
    if writes:
        churn_ms = self_ms("matcher.register", "matcher.unregister")
        extras["matcher.churn_ms_per_write"] = (per(churn_ms, writes), "ms")
        write_ms = self_ms("index.insert", "index.delete")
        extras["index.write_ms_per_write"] = (per(write_ms, writes), "ms")
    if workload.shards:
        extras["sharding.gather_ms_per_batch"] = (per(self_ms("sharding.gather"), batches), "ms")
        extras["executor.fanout_ms_per_batch"] = (per(self_ms("executor.fanout"), batches), "ms")
        extras["executor.fold_ms_per_write"] = (per(self_ms("executor.fold"), writes), "ms")
    return metrics, extras


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
@dataclass
class Result:
    workload: str
    correct: bool
    attempted: int
    failed: int
    #: The metrics of the final JSON line, and everything else reported.
    metrics: Metrics
    extras: Metrics
    problems: List[str]
    checked: int


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> Result:
    """Set up, load, stop and check one workload."""
    workload = WORKLOADS[name]
    work = out_dir / f"work-{name}"
    shutil.rmtree(work, ignore_errors=True)
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True)
    setups: List[float] = []
    server: Optional[ServerProcess] = None
    try:
        for _ in range(1 if trace else SETUPS):
            if server is not None:
                server.discard()
            server = ServerProcess(workload, seed, spans_dir if trace else None)
            setups.append(server.setup_s)
        assert server is not None
        phase = _measure(server, ClientStream(workload, seed), seconds, traced=trace)
        final = server.stop()
        server_pid = server.pid
        server = None
    finally:
        if server is not None:
            server.kill()

    outcomes = phase.outcomes
    oracle, stable = build_oracle(preloaded_subscriptions(workload, seed), outcomes)
    pairs = sample(outcomes, CHECKED_REPLIES)
    problems = check_replies(oracle, stable, pairs)
    unsubscribed = {
        outcome.request.key for outcome in outcomes if outcome.request.kind == "unsubscribe"
    }
    if final["objects"] != len(oracle.ids) - len(unsubscribed):
        problems.append(f"the server holds {final['objects']} subscriptions at the end")
    extras = by_kind(phase)

    if trace:
        spans = [Span(*fields) for fields in final["spans"]] + load_worker_spans(spans_dir)
        metrics, layer_extras = per_layer(phase, spans, server_pid, workload)
        extras.update(layer_extras)
        trace_file = {
            "workload": name,
            "seed": seed,
            "server_pid": server_pid,
            "fields": list(Span._fields),
            "traced_slices": phase.traced_windows(),
            "spans": [list(span) for span in spans],
        }
        _write_json(out_dir / f"trace-{name}.json", trace_file)
    else:
        metrics = end_to_end(phase, setups)
    shutil.rmtree(work, ignore_errors=True)
    return Result(
        workload=name,
        correct=not problems,
        attempted=len(outcomes),
        failed=sum(1 for outcome in outcomes if outcome.error is not None),
        metrics=metrics,
        extras=extras,
        problems=problems,
        checked=len(pairs),
    )


def _write_json(path: Path, payload: Dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def _entries(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()}


def _record(result: Result, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    return {
        "workload": result.workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "checked_replies": result.checked,
        "problems": result.problems,
        "metrics": _entries(result.metrics),
        "extras": _entries(result.extras),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="Serving benchmark (see bench/README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    args.out.mkdir(parents=True, exist_ok=True)
    reported = [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]

    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, trace, args.out)
        results.append(result)
        suffix = "-trace" if trace else ""
        record = _record(result, args.seed, args.seconds, trace)
        _write_json(args.out / f"{name}-seed{args.seed}{suffix}.json", record)
        for key, (value, unit) in {**result.metrics, **result.extras}.items():
            print(f"{name} {key} {value:.6g} {unit}")
        print(f"{name} checked_replies {result.checked} count")
        for problem in result.problems:
            print(f"{name} WRONG {problem}", file=sys.stderr)
        missing = set(reported) - set(result.metrics)
        if missing:
            raise RuntimeError(f"{name} did not report {sorted(missing)}")

    summary = {
        "correct": all(result.correct for result in results),
        "attempted": sum(result.attempted for result in results),
        "failed": sum(result.failed for result in results),
        "metrics": {
            (key if len(results) == 1 else f"{result.workload}/{key}"): {
                "value": result.metrics[key][0],
                "unit": result.metrics[key][1],
            }
            for result in results
            for key in reported
        },
    }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def stop_resource_tracker() -> None:
    """End and reap the helper process that spawning a server started.

    Left alone, it outlives this process by a moment and lingers unreaped.
    """
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
