"""Async serving benchmark: concurrent clients over the batching front-end.

``async_serving_bench`` measures the traffic shape the paper's SDI
motivation implies but the batch harness cannot produce: many independent
clients, each submitting one request at a time, concurrently.  Every access
method serves the same request sequence twice —

* **sequential baseline**: one ``execute`` call per request, in order (what
  a naive per-request server would do);
* **async front-end**: the requests are dealt to *clients* concurrent
  asyncio tasks over one :class:`~repro.api.serving.AsyncDatabase`, whose
  worker micro-batches them across callers into ``execute_batch`` ticks —

and the report compares requests/s, confirms the per-request results are
identical, and records the tick shape (how much cross-client batching the
deadline actually harvested).  With ``shards > 1`` the served database is a
:class:`~repro.api.sharding.ShardedDatabase`, so the same benchmark also
exercises scatter-gather execution under concurrent load.
"""

from __future__ import annotations

import asyncio
import copy
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api.database import Database
from repro.api.registry import registered_backends, resolve_method_label
from repro.api.serving import AsyncDatabase, ServingConfig, ServingStats, run_round_robin
from repro.core.cost_model import CostParameters, StorageScenario, SystemCostConstants
from repro.core.statistics import QueryExecution
from repro.evaluation.metrics import ModeledCostModel
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.pubsub import PublishSubscribeScenario, apartment_ads_scenario


@dataclass
class ServingMethodResult:
    """Serving metrics of one access method under concurrent clients."""

    #: Method label ("AC", "SS", "RS").
    method: str
    #: Requests served (same count on both sides).
    requests: int
    #: Concurrent client tasks of the async run.
    clients: int
    #: Requests per second, sequential baseline vs async front-end.
    sequential_rps: float
    async_rps: float
    #: True when every async result matched its sequential counterpart.
    identical: bool
    #: Front-end statistics of the async run (ticks, batching shape).
    stats: ServingStats
    #: Modeled cost (paper cost model) of the async run's queries, in ms.
    modeled_time_ms: float

    @property
    def speedup(self) -> float:
        """Async front-end throughput over the sequential baseline."""
        if self.sequential_rps <= 0.0:
            return 0.0
        return self.async_rps / self.sequential_rps

    def as_dict(self) -> Dict[str, object]:
        """Flatten the result for reporting / JSON."""
        summary: Dict[str, object] = {
            "method": self.method,
            "requests": self.requests,
            "clients": self.clients,
            "sequential_rps": self.sequential_rps,
            "async_rps": self.async_rps,
            "speedup": self.speedup,
            "identical": self.identical,
            "modeled_time_ms": self.modeled_time_ms,
        }
        summary.update(self.stats.as_dict())
        return summary


@dataclass
class ServingBenchResult:
    """Result of one async serving benchmark run."""

    experiment_id: str
    title: str
    scenario: StorageScenario
    parameters: Dict[str, object] = field(default_factory=dict)
    results: Dict[str, ServingMethodResult] = field(default_factory=dict)

    def methods(self) -> List[str]:
        """Method labels present in the result."""
        return list(self.results)


def run_sequential(
    database: Database,
    queries: Sequence[HyperRectangle],
    relation: SpatialRelation,
) -> "tuple[List[np.ndarray], QueryExecution]":
    """Per-request baseline: one ``execute`` per query, in order.

    Returns the per-request sorted identifier arrays and the element-wise
    sum of every request's work counters (the cost-model input).
    """
    total = QueryExecution()
    expected: List[np.ndarray] = []
    for query in queries:
        outcome = database.execute(query, relation)
        expected.append(np.sort(outcome.ids))
        total = total.merge(outcome.execution)
    return expected, total


def run_async_clients(
    database: Database,
    queries: Sequence[HyperRectangle],
    relation: SpatialRelation,
    clients: int,
    config: ServingConfig,
) -> "tuple[List[np.ndarray], ServingStats]":
    """Serve *queries* through an :class:`AsyncDatabase` with *clients* tasks."""
    requests = [("query", (query, relation)) for query in queries]

    async def main() -> "tuple[List[object], ServingStats]":
        async with AsyncDatabase(database, config) as served:
            results = await run_round_robin(served, requests, clients)
        return results, served.stats

    results, stats = asyncio.run(main())
    return [np.sort(outcome.ids) for outcome in results], stats  # type: ignore[union-attr]


def run_remote_clients(
    database: Database,
    queries: Sequence[HyperRectangle],
    relation: SpatialRelation,
    clients: int,
    config: ServingConfig,
) -> "tuple[List[np.ndarray], ServingStats]":
    """Serve *queries* over TCP: :class:`RemoteDatabase` clients per thread.

    Hosts a :class:`~repro.api.server.DatabaseServer` over *database* on a
    background event-loop thread and deals the queries round-robin to
    *clients* blocking :class:`~repro.api.server.RemoteDatabase` clients,
    one per worker thread — the wire-protocol analogue of
    :func:`run_async_clients`, measuring framing + socket overhead on top
    of the same micro-batching front-end.
    """
    from concurrent.futures import ThreadPoolExecutor

    from repro.api.server import RemoteDatabase, serve_in_thread

    handle = serve_in_thread(database, config=config)
    results: List[np.ndarray] = [np.empty(0, dtype=np.int64)] * len(queries)
    try:
        address = handle.address

        def run_client(offset: int) -> None:
            with RemoteDatabase(address) as client:
                for position in range(offset, len(queries), clients):
                    outcome = client.query(queries[position], relation)
                    results[position] = np.sort(outcome.ids)

        with ThreadPoolExecutor(
            max_workers=clients, thread_name_prefix="repro-remote-client"
        ) as pool:
            for future in [pool.submit(run_client, offset) for offset in range(clients)]:
                future.result()
        stats = handle.serving_stats
    finally:
        handle.stop()
    return results, stats


def async_serving_bench(
    scenario: "StorageScenario | str" = StorageScenario.MEMORY,
    subscriptions: int = 2_000,
    requests: int = 1_000,
    clients: int = 8,
    batch_size: int = 64,
    max_delay_ms: float = 0.0,
    shards: int = 1,
    router: str = "hash",
    range_fraction: float = 0.0,
    warmup_events: int = 200,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
    pubsub_scenario: Optional[PublishSubscribeScenario] = None,
    constants: Optional[SystemCostConstants] = None,
    durable: bool = False,
    execution: str = "thread",
    transport: str = "local",
) -> ServingBenchResult:
    """Benchmark the async front-end against a per-request serving loop.

    A subscription database is generated from the apartment-ads scenario
    (or *pubsub_scenario*), *requests* point-enclosing queries are drawn
    from the event distribution, and each method serves them twice: one
    sequential ``execute`` loop, then *clients* concurrent tasks over the
    micro-batching front-end.  Results are verified identical per request.

    With ``durable=True`` both sides serve from a write-ahead-logged
    database (WAL directories in a temp dir, deleted afterwards).  The
    request stream is read-only, so this measures the durability
    wrapper's *serving-path* pass-through cost — reads are not logged and
    the pre-loaded subscriptions land in the initial checkpoint; the
    write-path cost (per-operation fsync vs per-tick group commit) is
    measured by ``wal-bench``, and the group-commit-per-tick behavior is
    pinned by ``tests/api/test_durability.py``.  Requires a persistable
    method ("AC").

    ``execution="process"`` (requires ``shards >= 2``) serves the async
    side from a process-backed sharded database — one worker process per
    shard — while the sequential baseline stays a thread-mode deep copy
    of the same loaded state, so the identity check doubles as a
    process-executor conformance check.  ``transport="tcp"`` swaps the
    in-process asyncio clients for blocking
    :class:`~repro.api.server.RemoteDatabase` clients over a
    :class:`~repro.api.server.DatabaseServer`, adding wire framing and
    socket hops to the measured path.
    """
    if subscriptions <= 0:
        raise ValueError("subscriptions must be positive")
    if requests <= 0:
        raise ValueError("requests must be positive")
    if clients <= 0:
        raise ValueError("clients must be positive")
    if shards <= 0:
        raise ValueError("shards must be positive")
    if warmup_events < 0:
        raise ValueError("warmup_events must be non-negative")
    if transport not in ("local", "tcp"):
        raise ValueError(f"unknown transport {transport!r}; use 'local' or 'tcp'")
    scenario = StorageScenario.parse(scenario)
    pubsub = pubsub_scenario or apartment_ads_scenario(seed=seed)
    cost = CostParameters.for_scenario(scenario, pubsub.dimensions, constants)
    model = ModeledCostModel(cost)
    dataset = pubsub.generate_subscriptions(subscriptions)
    workload = pubsub.generate_events(requests, range_fraction=range_fraction)
    warmup = (
        pubsub.generate_events(warmup_events, range_fraction=range_fraction)
        if warmup_events
        else None
    )
    config = ServingConfig(
        max_batch_size=batch_size,
        max_delay_ms=max_delay_ms,
        relation=workload.relation,
    )

    result = ServingBenchResult(
        experiment_id=f"serve-bench-{scenario.value}",
        title="Async serving front-end vs per-request loop (apartment-ads scenario)",
        scenario=scenario,
        parameters={
            "subscriptions": subscriptions,
            "requests": requests,
            "clients": clients,
            "batch_size": batch_size,
            "max_delay_ms": max_delay_ms,
            "shards": shards,
            "router": router,
            "range_fraction": range_fraction,
            "warmup_events": warmup_events,
            "seed": seed,
            "durable": durable,
            "execution": execution,
            "transport": transport,
        },
    )
    names = list(methods) if methods is not None else registered_backends()
    labels = [resolve_method_label(name) for name in names]
    for label in labels:
        database = Database.from_dataset(
            label,
            dataset,
            cost=cost,
            shards=shards if shards > 1 else None,
            router=router,
            execution=execution,
        )
        if durable and not database.capabilities.supports_persistence:
            raise ValueError(
                f"--durable requires persistable methods; {label} does not "
                "support persistence (run with --methods ac)"
            )
        if database.capabilities.supports_reorganization and warmup is not None:
            database.query_batch(warmup.queries, warmup.relation)
            database.query_batch([warmup.queries[0]], warmup.relation)

        # The sequential oracle is always a thread-mode deep copy of the
        # loaded state (a deepcopy of a process-backed database
        # materializes its worker shards locally); the async side keeps
        # the original, so execution="process" actually measures the
        # worker-process fan-out.
        sequential_db = copy.deepcopy(database)
        async_db = database if execution == "process" else copy.deepcopy(database)
        scratch: Optional[str] = None
        try:
            if durable:
                import tempfile
                from pathlib import Path

                from repro.api.durability import DurableBackend

                scratch = tempfile.mkdtemp(prefix="repro-serve-wal-")
                sequential_db = Database(
                    DurableBackend.create(sequential_db.backend, Path(scratch) / "seq")
                )
                async_db = Database(
                    DurableBackend.create(async_db.backend, Path(scratch) / "async")
                )
            start = time.perf_counter()
            expected, total_execution = run_sequential(
                sequential_db, workload.queries, workload.relation
            )
            sequential_seconds = time.perf_counter() - start

            run_clients = run_remote_clients if transport == "tcp" else run_async_clients
            start = time.perf_counter()
            served, stats = run_clients(
                async_db, workload.queries, workload.relation, clients, config
            )
            async_seconds = time.perf_counter() - start
        finally:
            sequential_db.close()
            if async_db is not database:
                async_db.close()
            database.close()
            if scratch is not None:
                import shutil

                shutil.rmtree(scratch, ignore_errors=True)

        identical = all(
            np.array_equal(got, want) for got, want in zip(served, expected)
        )
        result.results[label] = ServingMethodResult(
            method=label,
            requests=len(workload.queries),
            clients=clients,
            sequential_rps=len(expected) / sequential_seconds if sequential_seconds else 0.0,
            async_rps=len(served) / async_seconds if async_seconds else 0.0,
            identical=identical,
            stats=stats,
            modeled_time_ms=model.query_time_ms(total_execution),
        )
    return result
