"""Command-line experiment runner.

``repro-experiments`` (or ``python -m repro.cli``) regenerates the paper's
figures and tables from the terminal::

    repro-experiments fig7 --scenario memory --objects 20000
    repro-experiments fig8 --scenario disk --objects 5000
    repro-experiments point-enclosing --scenario memory --methods ac ss
    repro-experiments ablation-division-factor
    repro-experiments pubsub-bench --subscriptions 5000 --events 2000
    repro-experiments serve-bench --clients 16 --shards 4 --router spatial
    repro-experiments serve --shards 3 --execution process --objects 10000 --port 8765
    repro-experiments wal-bench --objects 5000 --mutations 1500 --shards 2
    repro-experiments repl-bench --objects 5000 --mutations 1500 --shards 2
    repro-experiments page-bench --objects 3000 --churn 0.01 0.1 1.0
    repro-experiments repair /data/broken.pages /data/salvaged.pages
    repro-experiments advise --objects 6000 --shards 3 --format json
    repro-experiments tune-bench --objects 6000 --shards 3

Every command prints a paper-style report (and optionally writes it to a
file with ``--output``).  Method names are resolved through the backend
registry (:mod:`repro.api.registry`), so ``--methods`` accepts canonical
names, chart labels and aliases ("ac", "AC", "adaptive", ...).  Invalid
parameter values exit with status 2 and a one-line error message instead
of a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence

from repro.api.registry import backend_spec, registered_backends, resolve_method_label
from repro.core.cost_model import StorageScenario
from repro.evaluation.experiments import (
    PAPER_DIMENSIONALITIES,
    PAPER_SELECTIVITIES,
    ablation_disk_access_time,
    ablation_division_factor,
    ablation_reorganization_period,
    dimensionality_sweep,
    point_enclosing_experiment,
    selectivity_sweep,
)
from repro.evaluation.durability import wal_durability_bench
from repro.evaluation.replication import replication_bench
from repro.evaluation.reporting import (
    format_durability_result,
    format_experiment_result,
    format_pages_result,
    format_replication_result,
    format_serving_result,
    format_streaming_result,
    format_tuning_result,
)
from repro.evaluation.pages import page_bench
from repro.evaluation.serving import async_serving_bench
from repro.evaluation.streaming import pubsub_streaming_bench
from repro.evaluation.tuning import tuning_bench


# ----------------------------------------------------------------------
# Shared argument helpers: every option is defined exactly once and the
# subcommands compose the groups they need.
# ----------------------------------------------------------------------
def _add_scenario_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        choices=[scenario.value for scenario in StorageScenario],
        default=StorageScenario.MEMORY.value,
        help="storage scenario of the cost model (default: memory)",
    )


def _add_methods_argument(parser: argparse.ArgumentParser) -> None:
    names = ", ".join(
        f"{name} ({backend_spec(name).description})" for name in registered_backends()
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=None,
        metavar="METHOD",
        help=f"access methods to run, by any registry name or alias: {names}",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Options shared by every subcommand: seeding and report output."""
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument("--output", type=str, default=None, help="write the report to this file")


def _add_common_arguments(
    parser: argparse.ArgumentParser,
    include_scenario: bool = True,
    include_methods: bool = True,
) -> None:
    if include_scenario:
        _add_scenario_argument(parser)
    if include_methods:
        _add_methods_argument(parser)
    parser.add_argument("--objects", type=int, default=None, help="database size")
    parser.add_argument("--queries", type=int, default=None, help="measured queries per point")
    parser.add_argument("--warmup", type=int, default=None, help="warm-up queries")
    _add_run_arguments(parser)


def _add_sharding_arguments(parser: argparse.ArgumentParser) -> None:
    """Sharded serving options shared by the serving-shaped subcommands."""
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        help="serve from a sharded database of this many shards (default: unsharded)",
    )
    parser.add_argument(
        "--router",
        choices=["hash", "spatial"],
        default=None,
        help="shard router: identifier hash or spatial grid (default: hash)",
    )


def _add_wal_bench_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_argument(parser)
    _add_sharding_arguments(parser)
    parser.add_argument("--objects", type=int, default=None, help="pre-loaded database size")
    parser.add_argument(
        "--mutations", type=int, default=None, help="logged single-object inserts per mode"
    )
    parser.add_argument(
        "--batch-size", type=int, default=None, help="mutations per group-commit fsync"
    )
    _add_run_arguments(parser)


def _add_page_bench_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_argument(parser)
    parser.add_argument("--objects", type=int, default=None, help="indexed object count")
    parser.add_argument(
        "--page-size", type=int, default=None, help="page size of the benchmarked stores, bytes"
    )
    parser.add_argument(
        "--division-factor",
        type=int,
        default=None,
        help="clustering division factor (higher means more, smaller clusters)",
    )
    parser.add_argument(
        "--churn",
        type=float,
        nargs="+",
        default=None,
        metavar="FRACTION",
        help="cluster churn fractions to measure (default: 0.01 0.1 1.0)",
    )
    parser.add_argument(
        "--no-compress",
        action="store_true",
        help="write pages uncompressed (isolates the zlib cost)",
    )
    _add_run_arguments(parser)


def _add_execution_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--execution",
        choices=["thread", "process"],
        default=None,
        help="shard execution mode: serial in-process shards or one worker "
        "process per shard (default: thread; process requires --shards)",
    )


def _add_serve_arguments(parser: argparse.ArgumentParser) -> None:
    """Options of the ``serve`` subcommand: what to serve, and where."""
    parser.add_argument(
        "--data",
        type=str,
        default=None,
        help="serve an existing on-disk database layout (Database.attach); "
        "mutually exclusive with the construction options below",
    )
    parser.add_argument(
        "--method",
        type=str,
        default=None,
        help="registry backend of a freshly built database (default: ac)",
    )
    parser.add_argument(
        "--dimensions", type=int, default=None, help="dimensionality of a fresh database"
    )
    _add_sharding_arguments(parser)
    _add_execution_argument(parser)
    parser.add_argument(
        "--objects",
        type=int,
        default=None,
        help="pre-load a fresh database with this many uniform objects",
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed of the pre-load")
    parser.add_argument("--host", type=str, default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (default: 0, an ephemeral port)"
    )


def _add_serve_bench_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_argument(parser)
    _add_methods_argument(parser)
    _add_sharding_arguments(parser)
    _add_execution_argument(parser)
    parser.add_argument(
        "--transport",
        choices=["local", "tcp"],
        default=None,
        help="how clients reach the front-end: in-process asyncio tasks or "
        "RemoteDatabase clients over a TCP DatabaseServer (default: local)",
    )
    parser.add_argument(
        "--durable",
        action="store_true",
        help="serve from a write-ahead-logged database (WAL in a temp "
        "directory); measures the durability wrapper's serving-path "
        "pass-through — write-path costs are wal-bench's job",
    )
    parser.add_argument(
        "--subscriptions", type=int, default=None, help="initial subscription count"
    )
    parser.add_argument("--requests", type=int, default=None, help="query requests to serve")
    parser.add_argument(
        "--clients", type=int, default=None, help="concurrent client tasks (default 8)"
    )
    parser.add_argument("--batch-size", type=int, default=None, help="micro-batch tick size")
    parser.add_argument(
        "--max-delay-ms",
        type=float,
        default=None,
        help="tick deadline: how long the first request waits for company",
    )
    parser.add_argument("--warmup", type=int, default=None, help="warm-up events")
    _add_run_arguments(parser)


def _add_pubsub_bench_arguments(parser: argparse.ArgumentParser) -> None:
    _add_scenario_argument(parser)
    _add_methods_argument(parser)
    _add_sharding_arguments(parser)
    parser.add_argument(
        "--subscriptions", type=int, default=None, help="initial subscription count"
    )
    parser.add_argument("--events", type=int, default=None, help="events to stream")
    parser.add_argument("--batch-size", type=int, default=None, help="micro-batch flush size")
    parser.add_argument(
        "--cache-size", type=int, default=None, help="LRU result cache capacity (0 disables)"
    )
    parser.add_argument(
        "--subscribe-prob", type=float, default=None, help="per-event subscribe probability"
    )
    parser.add_argument(
        "--unsubscribe-prob",
        type=float,
        default=None,
        help="per-event unsubscribe probability",
    )
    parser.add_argument(
        "--repeat-prob",
        type=float,
        default=None,
        help="probability an event re-publishes a recent offer (what the "
        "result cache exploits; default 0.25)",
    )
    parser.add_argument(
        "--range-fraction",
        type=float,
        default=None,
        help="event interval width as a domain fraction (0 = point events)",
    )
    parser.add_argument("--warmup", type=int, default=None, help="warm-up events")
    _add_run_arguments(parser)


def _add_tuning_arguments(
    parser: argparse.ArgumentParser, include_format: bool = False
) -> None:
    """Options of the advisor-shaped subcommands (advise, tune-bench)."""
    _add_scenario_argument(parser)
    _add_methods_argument(parser)
    parser.add_argument("--objects", type=int, default=None, help="pre-loaded database size")
    parser.add_argument("--dimensions", type=int, default=None, help="dataset dimensionality")
    parser.add_argument(
        "--shards", type=int, default=None, help="shards of the advised deployment (default 3)"
    )
    parser.add_argument(
        "--queries", type=int, default=None, help="observed workload queries (the replay window)"
    )
    parser.add_argument(
        "--warmup", type=int, default=None, help="cyclic warm-up replays for adaptive candidates"
    )
    parser.add_argument(
        "--division-factors",
        type=int,
        nargs="+",
        default=None,
        metavar="F",
        help="division-factor grid for reorganizing candidates (default: 2 4 8)",
    )
    parser.add_argument(
        "--reorg-periods",
        type=int,
        nargs="+",
        default=None,
        metavar="P",
        help="reorganization-period grid for reorganizing candidates "
        "(default: 25 100 400)",
    )
    parser.add_argument(
        "--sample-objects",
        type=int,
        default=None,
        help="per-shard object-sample cap of the what-if replay (default 2048)",
    )
    if include_format:
        parser.add_argument(
            "--format",
            choices=["human", "json"],
            default="human",
            help="report format (default: human)",
        )
    _add_run_arguments(parser)


def _collect_kwargs(args: argparse.Namespace, mapping: Dict[str, str]) -> Dict[str, object]:
    kwargs: Dict[str, object] = {}
    for cli_name, kw_name in mapping.items():
        value = getattr(args, cli_name, None)
        if value is not None:
            kwargs[kw_name] = value
    return kwargs


_SWEEP_ARGUMENTS = {
    "objects": "object_count",
    "queries": "queries_per_point",
    "warmup": "warmup_queries",
    "seed": "seed",
    "methods": "methods",
}


def _run_fig7(args: argparse.Namespace):
    kwargs = _collect_kwargs(args, _SWEEP_ARGUMENTS)
    return selectivity_sweep(scenario=args.scenario, **kwargs)


def _run_fig8(args: argparse.Namespace):
    kwargs = _collect_kwargs(args, _SWEEP_ARGUMENTS)
    return dimensionality_sweep(scenario=args.scenario, **kwargs)


def _run_point_enclosing(args: argparse.Namespace):
    kwargs = _collect_kwargs(
        args,
        {
            "objects": "object_count",
            "queries": "queries",
            "warmup": "warmup_queries",
            "seed": "seed",
            "methods": "methods",
        },
    )
    return point_enclosing_experiment(scenario=args.scenario, **kwargs)


_ABLATION_ARGUMENTS = {
    "objects": "object_count",
    "queries": "queries",
    "warmup": "warmup_queries",
    "seed": "seed",
}


def _run_ablation_division_factor(args: argparse.Namespace):
    kwargs = _collect_kwargs(args, _ABLATION_ARGUMENTS)
    return ablation_division_factor(scenario=args.scenario, **kwargs)


def _run_ablation_reorganization(args: argparse.Namespace):
    kwargs = _collect_kwargs(args, _ABLATION_ARGUMENTS)
    return ablation_reorganization_period(scenario=args.scenario, **kwargs)


def _run_ablation_disk_access(args: argparse.Namespace):
    kwargs = _collect_kwargs(args, _ABLATION_ARGUMENTS)
    return ablation_disk_access_time(**kwargs)


def _run_pubsub_bench(args: argparse.Namespace):
    kwargs = _collect_kwargs(
        args,
        {
            "subscriptions": "subscriptions",
            "events": "events",
            "batch_size": "batch_size",
            "cache_size": "cache_size",
            "subscribe_prob": "subscribe_probability",
            "unsubscribe_prob": "unsubscribe_probability",
            "repeat_prob": "repeat_probability",
            "range_fraction": "range_fraction",
            "warmup": "warmup_events",
            "shards": "shards",
            "router": "router",
            "seed": "seed",
            "methods": "methods",
        },
    )
    return pubsub_streaming_bench(scenario=args.scenario, **kwargs)


def _run_serve_bench(args: argparse.Namespace):
    kwargs = _collect_kwargs(
        args,
        {
            "subscriptions": "subscriptions",
            "requests": "requests",
            "clients": "clients",
            "batch_size": "batch_size",
            "max_delay_ms": "max_delay_ms",
            "shards": "shards",
            "router": "router",
            "warmup": "warmup_events",
            "seed": "seed",
            "methods": "methods",
            "durable": "durable",
            "execution": "execution",
            "transport": "transport",
        },
    )
    return async_serving_bench(scenario=args.scenario, **kwargs)


def _run_serve(args: argparse.Namespace) -> int:
    """Serve a database over TCP until interrupted (self-reporting).

    ``--data`` reopens an existing on-disk layout; otherwise a fresh
    database is built from the construction options (optionally pre-loaded
    with uniform objects).  Prints ``serving on HOST:PORT`` once the
    listener is up and blocks until Ctrl-C, then shuts down cleanly —
    worker processes joined, WAL handles closed.
    """
    from repro.api.database import Database
    from repro.api.server import serve

    if args.data is not None:
        if args.method or args.shards or args.router or args.execution or args.objects:
            raise ValueError(
                "--data serves an existing layout; the construction options "
                "(--method, --shards, --router, --execution, --objects) "
                "apply to a fresh database only"
            )
        database = Database.attach(args.data)
    else:
        database = Database.create(
            resolve_method_label(args.method) if args.method else "ac",
            args.dimensions if args.dimensions else 2,
            shards=args.shards,
            router=args.router if args.router else "hash",
            execution=args.execution if args.execution else "thread",
        )
        if args.objects:
            from repro.workloads.uniform import generate_uniform_dataset

            dataset = generate_uniform_dataset(
                args.objects,
                database.dimensions,
                seed=args.seed if args.seed is not None else 0,
                max_extent=0.1,
            )
            database.bulk_load(dataset.iter_objects())

    def announce(address) -> None:
        print(f"serving on {address[0]}:{address[1]}", flush=True)

    with database:
        serve(database, host=args.host, port=args.port, on_ready=announce)
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    """Run the invariant checker; prints its own report, returns exit status.

    Unlike the experiment subcommands this returns the lint status (0
    clean, 1 violations) rather than a result object for a formatter —
    bad paths and unknown rule codes still raise :class:`ValueError` and
    exit 2 like every other parameter error.
    """
    from repro.analysis import run_lint

    report = run_lint(args.paths, select=args.select)
    rendered = report.to_json() if args.format == "json" else report.to_human()
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return report.exit_code


def _run_wal_bench(args: argparse.Namespace):
    kwargs = _collect_kwargs(
        args,
        {
            "objects": "objects",
            "mutations": "mutations",
            "batch_size": "batch_size",
            "shards": "shards",
            "router": "router",
            "seed": "seed",
        },
    )
    return wal_durability_bench(scenario=args.scenario, **kwargs)


def _run_page_bench(args: argparse.Namespace):
    kwargs = _collect_kwargs(
        args,
        {
            "objects": "objects",
            "page_size": "page_size",
            "division_factor": "division_factor",
            "seed": "seed",
        },
    )
    if args.churn is not None:
        kwargs["churn_fractions"] = tuple(args.churn)
    if args.no_compress:
        kwargs["compress"] = False
    return page_bench(scenario=args.scenario, **kwargs)


def _run_repair(args: argparse.Namespace) -> int:
    """Salvage a damaged paged store; prints the report, returns exit status.

    Like lint this is self-reporting: 0 means a lossless repair, 1 means
    the salvage succeeded but objects were lost (some pages were beyond
    saving), and unusable paths — no store, no readable manifest, an
    occupied destination — raise :class:`ValueError` and exit 2 like
    every other parameter error.
    """
    import json

    from repro.recovery import repair_store

    report = repair_store(args.source, args.destination, compress=not args.no_compress)
    if args.format == "json":
        rendered = json.dumps(report.as_dict(), indent=2, sort_keys=True)
    else:
        status = "lossless" if report.lossless else "LOSSY"
        lines = [
            f"repaired {report.source} -> {report.destination} ({status})",
            f"  generation:  {report.generation}"
            + ("  (superblock damaged; chosen by manifest scan)" if report.superblock_damaged else ""),
            f"  clusters:    {report.clusters_recovered}/{report.clusters_total} recovered"
            + (f", {report.clusters_damaged} stripped of members" if report.clusters_damaged else ""),
            f"  objects:     {report.objects_recovered} recovered, {report.objects_lost} lost",
            f"  pages:       {report.pages_scanned} scanned, {report.pages_corrupt} corrupt",
        ]
        rendered = "\n".join(lines)
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 0 if report.lossless else 1


_TUNING_ARGUMENTS = {
    "objects": "object_count",
    "dimensions": "dimensions",
    "shards": "shards",
    "queries": "queries",
    "warmup": "warmup_queries",
    "division_factors": "division_factors",
    "reorg_periods": "reorganization_periods",
    "sample_objects": "sample_objects",
    "seed": "seed",
    "methods": "methods",
}


def _run_advise(args: argparse.Namespace) -> int:
    """Report-only advisor run; prints the recommendation, applies nothing.

    Self-reporting (like lint and repair) so ``--format json`` emits the
    recommendation's JSON schema verbatim; always exits 0 — the advice is
    the product, acting on it is ``tune-bench``'s (or the operator's) job.
    """
    kwargs = _collect_kwargs(args, _TUNING_ARGUMENTS)
    result = tuning_bench(scenario=args.scenario, apply=False, **kwargs)
    recommendation = result.recommendation
    assert recommendation is not None
    if args.format == "json":
        rendered = recommendation.to_json()
    else:
        rendered = recommendation.to_human().rstrip("\n")
    print(rendered)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
    return 0


def _run_tune_bench(args: argparse.Namespace):
    kwargs = _collect_kwargs(args, _TUNING_ARGUMENTS)
    return tuning_bench(scenario=args.scenario, **kwargs)


def _run_repl_bench(args: argparse.Namespace):
    kwargs = _collect_kwargs(
        args,
        {
            "objects": "objects",
            "mutations": "mutations",
            "batch_size": "batch_size",
            "shards": "shards",
            "router": "router",
            "seed": "seed",
        },
    )
    return replication_bench(scenario=args.scenario, **kwargs)


_COMMANDS: Dict[str, Callable[[argparse.Namespace], object]] = {
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "point-enclosing": _run_point_enclosing,
    "ablation-division-factor": _run_ablation_division_factor,
    "ablation-reorganization-period": _run_ablation_reorganization,
    "ablation-disk-access-time": _run_ablation_disk_access,
}

#: Subcommands that fix the storage scenario by construction and therefore
#: reject ``--scenario`` (the disk-access-time ablation is disk-only: it
#: sweeps a disk cost constant).
_SCENARIO_FIXED_COMMANDS = frozenset({"ablation-disk-access-time"})

#: Ablations compare the adaptive index against the scan baseline by
#: design, so they take no ``--methods``.
_METHOD_FIXED_COMMANDS = frozenset(
    {
        "ablation-division-factor",
        "ablation-reorganization-period",
        "ablation-disk-access-time",
    }
)


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's evaluation figures and tables.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "fig7": "Fig. 7: uniform workload, varying query selectivity "
        f"(paper values: {', '.join(f'{s:g}' for s in PAPER_SELECTIVITIES)})",
        "fig8": "Fig. 8: skewed workload, varying dimensionality "
        f"({', '.join(str(d) for d in PAPER_DIMENSIONALITIES)})",
        "point-enclosing": "Section 7.2: point-enclosing queries",
        "ablation-division-factor": "Ablation: clustering function division factor",
        "ablation-reorganization-period": "Ablation: reorganization period",
        "ablation-disk-access-time": "Ablation: disk access time sensitivity",
    }
    for name, runner in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=descriptions.get(name, name))
        _add_common_arguments(
            sub,
            include_scenario=name not in _SCENARIO_FIXED_COMMANDS,
            include_methods=name not in _METHOD_FIXED_COMMANDS,
        )
        sub.set_defaults(runner=runner, formatter=format_experiment_result)
    bench = subparsers.add_parser(
        "pubsub-bench",
        help="Streaming pub/sub benchmark: micro-batched matching with "
        "subscription churn over the apartment-ads scenario",
    )
    _add_pubsub_bench_arguments(bench)
    bench.set_defaults(runner=_run_pubsub_bench, formatter=format_streaming_result)
    serve = subparsers.add_parser(
        "serve-bench",
        help="Async serving benchmark: concurrent clients micro-batched "
        "through the asyncio front-end (optionally over a sharded database)",
    )
    _add_serve_bench_arguments(serve)
    serve.set_defaults(runner=_run_serve_bench, formatter=format_serving_result)
    serve_cmd = subparsers.add_parser(
        "serve",
        help="serve a database over TCP: RemoteDatabase clients (or any "
        "frame-speaking peer) connect to one shared micro-batching "
        "front-end; Ctrl-C shuts down cleanly",
    )
    _add_serve_arguments(serve_cmd)
    serve_cmd.set_defaults(runner=_run_serve, formatter=None)
    wal = subparsers.add_parser(
        "wal-bench",
        help="WAL durability benchmark: write-path overhead (plain vs "
        "group-commit vs per-op fsync) and recovery replay throughput",
    )
    _add_wal_bench_arguments(wal)
    wal.set_defaults(runner=_run_wal_bench, formatter=format_durability_result)
    repl = subparsers.add_parser(
        "repl-bench",
        help="replication benchmark: WAL-shipping write-path overhead "
        "(semi-sync vs async vs durable-only), async catch-up lag, and "
        "failover promotion latency",
    )
    _add_wal_bench_arguments(repl)
    repl.set_defaults(runner=_run_repl_bench, formatter=format_replication_result)
    pages = subparsers.add_parser(
        "page-bench",
        help="paged-checkpoint benchmark: incremental vs full commit cost "
        "at several cluster-churn levels, and lazy vs eager reopen",
    )
    _add_page_bench_arguments(pages)
    pages.set_defaults(runner=_run_page_bench, formatter=format_pages_result)
    repair = subparsers.add_parser(
        "repair",
        help="salvage every CRC-intact page of a damaged paged store into "
        "a fresh consistent store (exit 0 lossless, 1 objects lost)",
    )
    repair.add_argument("source", help="directory of the damaged paged store")
    repair.add_argument(
        "destination", help="directory for the repaired store (must not hold one)"
    )
    repair.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="report format (default: human)",
    )
    repair.add_argument(
        "--no-compress", action="store_true", help="write the repaired store uncompressed"
    )
    repair.add_argument("--output", type=str, default=None, help="write the report to this file")
    repair.set_defaults(runner=_run_repair, formatter=None)
    advise = subparsers.add_parser(
        "advise",
        help="workload-aware tuning advisor (report-only): profile a "
        "seeded sharded deployment's workload and rank candidate designs "
        "per shard; applies nothing",
    )
    _add_tuning_arguments(advise, include_format=True)
    advise.set_defaults(runner=_run_advise, formatter=None)
    tune = subparsers.add_parser(
        "tune-bench",
        help="tuning benchmark: advise a seeded sharded deployment, apply "
        "the recommended migrations live, and measure the modeled "
        "query-time before and after",
    )
    _add_tuning_arguments(tune)
    tune.set_defaults(runner=_run_tune_bench, formatter=format_tuning_result)
    lint = subparsers.add_parser(
        "lint",
        help="check the repository invariants (seam discipline, capability "
        "gating, determinism, fsync-before-ack, replication-seam) with the "
        "AST analyzer",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="report format (default: human)",
    )
    lint.add_argument(
        "--select",
        nargs="+",
        default=None,
        metavar="CODE",
        help="restrict the run to these rule codes (e.g. RL001 RL004)",
    )
    lint.add_argument("--output", type=str, default=None, help="write the report to this file")
    lint.set_defaults(runner=_run_lint, formatter=None)
    return parser


#: Integer arguments that must be strictly positive / non-negative, and
#: float arguments that must be probabilities, checked before the runner
#: starts so a bad value produces a one-line error instead of a traceback
#: from deep inside a generator.
_POSITIVE_ARGUMENTS = (
    "objects",
    "queries",
    "subscriptions",
    "events",
    "batch_size",
    "requests",
    "clients",
    "shards",
    "mutations",
    "page_size",
    "division_factor",
    "dimensions",
    "sample_objects",
)
_NON_NEGATIVE_ARGUMENTS = ("warmup", "cache_size", "max_delay_ms")
_PROBABILITY_ARGUMENTS = ("subscribe_prob", "unsubscribe_prob", "repeat_prob")


def _validate_args(args: argparse.Namespace) -> None:
    for name in _POSITIVE_ARGUMENTS:
        value = getattr(args, name, None)
        if value is not None and value <= 0:
            raise ValueError(f"--{name.replace('_', '-')} must be a positive integer")
    for name in _NON_NEGATIVE_ARGUMENTS:
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name.replace('_', '-')} must be non-negative")
    for name in _PROBABILITY_ARGUMENTS:
        value = getattr(args, name, None)
        if value is not None and not 0.0 <= value <= 1.0:
            raise ValueError(f"--{name.replace('_', '-')} must lie in [0, 1]")
    factors = getattr(args, "division_factors", None)
    if factors is not None and any(value < 2 for value in factors):
        raise ValueError("--division-factors must all be at least 2")
    periods = getattr(args, "reorg_periods", None)
    if periods is not None and any(value < 0 for value in periods):
        raise ValueError("--reorg-periods must all be non-negative")
    range_fraction = getattr(args, "range_fraction", None)
    if range_fraction is not None and not 0.0 <= range_fraction < 1.0:
        raise ValueError("--range-fraction must lie in [0, 1)")
    methods = getattr(args, "methods", None)
    if methods is not None:
        # Resolve through the registry up front: an unknown method name is
        # a parameter error (exit 2), and the runners receive chart labels.
        args.methods = [resolve_method_label(name) for name in methods]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``repro-experiments``.

    Returns 0 on success and 2 on invalid parameters; every parameter
    error (including ones only detected while building the workload, such
    as object counts too small for the requested scenario) prints a
    one-line message to stderr instead of raising a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate_args(args)
        result = args.runner(args)
    except ValueError as error:
        # Parameter errors — upfront validation or values only rejected
        # deeper in a generator — exit cleanly; anything else is a bug and
        # keeps its traceback.
        print(f"{parser.prog}: error: {error}", file=sys.stderr)
        return 2
    if args.formatter is None:
        # Self-reporting subcommands (lint) print their own output and
        # return their exit status directly.
        return int(result)
    report = args.formatter(result)
    print(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
