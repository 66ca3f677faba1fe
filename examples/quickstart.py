"""Quickstart: index extended objects and run the three spatial query types.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    AdaptiveClusteringConfig,
    AdaptiveClusteringIndex,
    HyperRectangle,
    SpatialRelation,
)


def main() -> None:
    rng = np.random.default_rng(42)
    dimensions = 6

    # An index over 6-dimensional extended objects, in-memory cost model.
    index = AdaptiveClusteringIndex(config=AdaptiveClusteringConfig.for_memory(dimensions))

    # Insert 5,000 random hyper-rectangles.
    for object_id in range(5_000):
        extents = rng.uniform(0.0, 0.3, size=dimensions)
        lows = rng.uniform(0.0, 1.0, size=dimensions) * (1.0 - extents)
        index.insert(object_id, HyperRectangle(lows, lows + extents))

    print(f"indexed {index.n_objects} objects in {index.n_clusters} cluster(s)")

    # A query box covering the "lower quadrant" of the space.
    query = HyperRectangle(np.zeros(dimensions), np.full(dimensions, 0.35))

    intersecting = index.query(query, SpatialRelation.INTERSECTS)
    contained = index.query(query, SpatialRelation.CONTAINED_BY)
    point = HyperRectangle.from_point(np.full(dimensions, 0.2))
    enclosing = index.query(point, SpatialRelation.CONTAINS)

    print(f"objects intersecting the query box : {intersecting.size}")
    print(f"objects contained in the query box : {contained.size}")
    print(f"objects enclosing the probe point  : {enclosing.size}")

    # Run a stream of similar queries so the cost-based clustering adapts,
    # then look at the structure it produced.
    for _ in range(500):
        center = rng.uniform(0.1, 0.9, size=dimensions)
        half_width = rng.uniform(0.05, 0.2, size=dimensions)
        box = HyperRectangle(np.clip(center - half_width, 0, 1), np.clip(center + half_width, 0, 1))
        index.query(box, SpatialRelation.INTERSECTS)

    snapshot = index.snapshot()
    print(
        f"after 500 more queries: {snapshot.n_clusters} clusters, "
        f"max depth {snapshot.max_depth}, "
        f"average {snapshot.average_cluster_size:.1f} objects per cluster"
    )

    # Per-query work statistics are available for any query: execute()
    # returns a QueryResult carrying the ids and the execution counters
    # (tuple-unpackable: `ids, stats = index.execute(...)`).
    result = index.execute(query, SpatialRelation.INTERSECTS)
    stats = result.execution
    print(
        f"last query explored {stats.groups_explored}/{index.n_clusters} clusters "
        f"and verified {stats.objects_verified}/{index.n_objects} objects "
        f"to return {stats.results} results"
    )

    # Whole workloads run fastest through the batch engine: one call prunes
    # every cluster for every query at once, returning the same per-query
    # results and counters as a Python loop over index.query(...).
    batch = []
    for _ in range(200):
        center = rng.uniform(0.1, 0.9, size=dimensions)
        half_width = rng.uniform(0.05, 0.2, size=dimensions)
        batch.append(
            HyperRectangle(
                np.clip(center - half_width, 0, 1), np.clip(center + half_width, 0, 1)
            )
        )
    batch_results = index.execute_batch(batch, SpatialRelation.INTERSECTS)
    total_verified = sum(r.execution.objects_verified for r in batch_results)
    print(
        f"batch of {len(batch)} queries returned "
        f"{sum(len(r) for r in batch_results)} results "
        f"({total_verified} member verifications, all vectorised)"
    )

    # ------------------------------------------------------------------
    # The backend API: registry, capabilities and the Database facade.
    # ------------------------------------------------------------------
    # Every access method (the adaptive index and the SequentialScan /
    # RStarTree baselines) satisfies the same SpatialBackend protocol and
    # is constructible by registry name — "ac", "ss", "rs" or any alias.
    from repro import Database, UnsupportedOperation, create_backend

    scan = create_backend("ss", dimensions)
    scan.bulk_load((object_id, index.get(object_id)) for object_id in range(100))
    print(
        f"registry backend {scan.capabilities.name!r} loaded "
        f"{scan.n_objects} objects; persistence supported: "
        f"{scan.capabilities.supports_persistence}"
    )

    # The Database facade composes a backend with persistence and
    # streaming sessions; unsupported operations raise instead of
    # failing deep inside duck-typed code.
    import shutil
    import tempfile
    from pathlib import Path

    database = Database(index)
    try:
        Database.create("rs", dimensions).save("unused.db")
    except UnsupportedOperation as error:
        print(f"capability gate: {error}")

    # save() commits a paged store: each cluster's signature with its
    # member pages plus a page-table manifest.  A second save into the same
    # directory writes only the pages of clusters that changed; open()
    # reloads lazily, reading a cluster's members on first access.
    snapshot_root = Path(tempfile.mkdtemp(prefix="repro-quickstart-db-"))
    try:
        database.save(snapshot_root / "subscriptions.db")
        reopened = Database.open(snapshot_root / "subscriptions.db")
        print(
            f"paged snapshot: reopened {reopened.n_objects} objects in "
            f"{reopened.n_groups} clusters"
        )
    finally:
        shutil.rmtree(snapshot_root, ignore_errors=True)

    # ------------------------------------------------------------------
    # Streaming: serve a live event stream through the same index.
    # ------------------------------------------------------------------
    # A session attached through the Database facade micro-batches
    # published events into execute_batch calls, maps subscription churn
    # to insert/delete (flushing pending events first, so every event
    # sees exactly the subscriptions that were active when it arrived)
    # and answers repeated events from an LRU result cache.
    from repro import StreamingConfig

    matcher = database.session(
        StreamingConfig(max_batch_size=32, relation=SpatialRelation.CONTAINS)
    )
    matcher.register(10_000, HyperRectangle(np.zeros(dimensions), np.ones(dimensions)))
    delivered = []
    for event_id in range(100):
        probe = rng.uniform(0.1, 0.9, size=dimensions)
        delivered.extend(matcher.publish(event_id, HyperRectangle.from_point(probe)))
    delivered.extend(matcher.unregister(10_000))  # churn flushes pending events
    delivered.extend(matcher.flush())
    stats = matcher.stats
    print(
        f"streamed {stats.events} events in {stats.batches} micro-batches: "
        f"{sum(r.matches.size for r in delivered)} notifications, "
        f"{stats.events_per_second():.0f} events/s, "
        f"p95 latency {stats.latency_percentiles()['p95']:.2f} ms"
    )

    # ------------------------------------------------------------------
    # Sharding: scatter-gather over N registry-created backends.
    # ------------------------------------------------------------------
    # A ShardedDatabase satisfies the same SpatialBackend protocol, so it
    # slots behind the facade (and its streaming sessions) unchanged.  A
    # router assigns every object to exactly one shard — "hash" spreads
    # identifiers evenly, "spatial" stripes the domain by box centroid —
    # while queries scatter to every shard and gather into merged
    # ascending-id results with summed cost counters.
    from repro import ShardedDatabase

    sharded = Database.create("ac", dimensions, shards=4, router="spatial")
    sharded.bulk_load(
        (object_id, index.get(object_id)) for object_id in range(2_000)
    )
    merged = sharded.execute(query)
    print(
        f"sharded database: {sharded.backend.n_shards} shards holding "
        f"{sharded.n_objects} objects returned {merged.ids.size} results "
        f"(ids ascending: {bool(np.all(np.diff(merged.ids) > 0))})"
    )

    # Mixed member backends work too, and persistence (all shards must
    # support it) writes a manifest plus one paged store per shard;
    # Database.open dispatches on the layout.
    mixed = ShardedDatabase.create(["ac", "ac", "rs"], dimensions)
    print(f"mixed shards: {mixed.capabilities.name}")

    # ------------------------------------------------------------------
    # Async serving: many concurrent callers, one batch engine.
    # ------------------------------------------------------------------
    # AsyncDatabase micro-batches concurrent query/publish/subscribe
    # requests across callers: within a tick, each run of queries is one
    # execute_batch and each run of publishes one matcher `match` call.
    # Each caller awaits exactly the result a sequential execution would
    # produce.
    import asyncio

    from repro import AsyncDatabase

    async def serve_concurrently() -> int:
        async with AsyncDatabase(sharded) as served:
            results = await asyncio.gather(
                *(served.query(box) for box in batch[:32])
            )
            return sum(len(result) for result in results)

    total = asyncio.run(serve_concurrently())
    served_stats = f"{total} results from 32 concurrent clients"
    print(f"async front-end: {served_stats}")

    # ------------------------------------------------------------------
    # Durability: write-ahead logging, checkpoints, crash recovery.
    # ------------------------------------------------------------------
    # durable=True wraps the backend so every mutation is appended to a
    # checksummed write-ahead log (one WAL per shard) and acknowledged
    # only after an fsync.  checkpoint() appends the pages of changed
    # clusters to each shard's paged store, commits the manifest last and
    # resets the log; Database.recover() reopens the committed generation
    # and replays the WAL tail — so a crash at any point loses at most the
    # one unacknowledged operation in flight, never committed state.
    wal_root = Path(tempfile.mkdtemp(prefix="repro-quickstart-wal-"))
    try:
        durable = Database.create(
            "ac", dimensions, durable=True, wal_dir=wal_root / "store"
        )
        durable.bulk_load(
            (object_id, index.get(object_id)) for object_id in range(500)
        )
        durable.checkpoint()  # changed pages committed, WAL reset
        durable.insert(90_000, HyperRectangle.from_point(np.full(dimensions, 0.5)))

        # Simulate the crash: just walk away and recover the directory.
        recovered = Database.recover(wal_root / "store")
        print(
            f"durable store: recovered {recovered.n_objects} objects "
            f"({recovered.backend.stats.replayed_records} WAL record(s) "
            f"replayed); object 90000 survived: {90_000 in recovered.backend}"
        )
    finally:
        shutil.rmtree(wal_root, ignore_errors=True)


if __name__ == "__main__":
    main()
