"""Tests of the asyncio serving front-end (`repro.api.serving`)."""

import asyncio
import copy

import numpy as np
import pytest

from repro.api import (
    AsyncDatabase,
    Database,
    QueryResult,
    ServingConfig,
    ShardedDatabase,
    create_backend,
    serve_requests,
)
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.engine import StreamingConfig
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.pubsub import apartment_ads_scenario

DIMENSIONS = 4


def make_box(rng, extent=0.25):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + extent, 1.0))


def make_pairs(count, seed=0):
    rng = np.random.default_rng(seed)
    return [(object_id, make_box(rng)) for object_id in range(count)]


class RecordingBackend:
    """Delegating backend that records its calls and can fail once.

    ``calls`` holds every ``execute_batch``, ``insert`` and ``delete`` in
    the order the backend received them; ``fail_relation`` arms one
    ``execute_batch`` failure for the next call with that relation.
    """

    def __init__(self, inner):
        self._inner = inner
        self.fail_relation = None
        self.calls = []

    def execute_batch(self, queries, relation):
        if relation is self.fail_relation:
            self.fail_relation = None
            raise RuntimeError("transient backend failure")
        self.calls.append(("execute_batch", list(queries), relation))
        return self._inner.execute_batch(queries, relation)

    def insert(self, object_id, box):
        self.calls.append(("insert", object_id, box))
        return self._inner.insert(object_id, box)

    def delete(self, object_id):
        self.calls.append(("delete", object_id, None))
        return self._inner.delete(object_id)

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def __contains__(self, object_id):
        return object_id in self._inner

    def __len__(self):
        return len(self._inner)


def replay(backend, calls):
    """Re-run recorded backend calls one by one; the sorted ids of each
    query, in call order."""
    matches = []
    for name, argument, extra in calls:
        if name == "insert":
            backend.insert(argument, extra)
        elif name == "delete":
            backend.delete(argument)
        else:
            for query in argument:
                matches.append(np.sort(backend.execute(query, extra).ids))
    return matches


@pytest.fixture
def database():
    database = Database.create("ac", DIMENSIONS)
    database.bulk_load(make_pairs(150, seed=1))
    return database


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServingConfig(max_delay_ms=-1.0)
        assert ServingConfig(relation="contains").relation is SpatialRelation.CONTAINS

    def test_wraps_raw_backends(self):
        served = AsyncDatabase(ShardedDatabase.create("ss", DIMENSIONS, shards=2))
        assert isinstance(served.database, Database)
        assert not served.started


class TestQueries:
    def test_concurrent_clients_match_sequential_execution(self, database):
        rng = np.random.default_rng(2)
        queries = [make_box(rng) for _ in range(60)]
        expected = [
            np.sort(copy.deepcopy(database).execute(query).ids) for query in queries
        ]

        async def main():
            results = [None] * len(queries)

            async def client(offset, served, clients):
                for position in range(offset, len(queries), clients):
                    outcome = await served.query(queries[position])
                    results[position] = outcome.ids

            async with AsyncDatabase(copy.deepcopy(database)) as served:
                await asyncio.gather(*(client(i, served, 6) for i in range(6)))
                return results, served.stats

        results, stats = asyncio.run(main())
        for got, want in zip(results, expected):
            assert np.array_equal(np.sort(got), want)
        assert stats.queries == len(queries)
        assert stats.failed == 0
        # Micro-batching happened: far fewer ticks than requests.
        assert stats.ticks < len(queries)
        assert stats.average_tick_size() > 1.0

    def test_single_caller_is_served_immediately(self, database):
        async def main():
            async with AsyncDatabase(database) as served:
                result = await served.query(HyperRectangle.unit(DIMENSIONS))
                assert isinstance(result, QueryResult)
                return result

        result = asyncio.run(main())
        assert result.ids.size == 150

    def test_query_many_and_relation_override(self, database):
        rng = np.random.default_rng(3)
        queries = [make_box(rng) for _ in range(10)]
        reference = copy.deepcopy(database)
        expected = [
            np.sort(reference.execute(query, "contained_by").ids) for query in queries
        ]

        async def main():
            async with AsyncDatabase(database) as served:
                return await served.query_many(queries, "contained_by")

        results = asyncio.run(main())
        for got, want in zip(results, expected):
            assert np.array_equal(np.sort(got.ids), want)

    def test_per_request_errors_do_not_poison_the_tick(self, database):
        async def main():
            async with AsyncDatabase(database) as served:
                good = asyncio.ensure_future(served.query(HyperRectangle.unit(DIMENSIONS)))
                bad = asyncio.ensure_future(served.query(HyperRectangle.unit(DIMENSIONS + 2)))
                outcomes = await asyncio.gather(good, bad, return_exceptions=True)
                return outcomes, served.stats.failed

        (good, bad), failed = asyncio.run(main())
        assert isinstance(good, QueryResult) and good.ids.size == 150
        assert isinstance(bad, ValueError)
        assert failed == 1

    def test_query_many_is_one_request_that_fails_as_a_whole(self, database):
        """A ``query_many`` holding one box of the wrong dimensionality fails
        as a whole, runs none of its boxes, and leaves the other requests of
        its tick alone."""
        rng = np.random.default_rng(7)
        good = [make_box(rng) for _ in range(5)]
        bad = [good[0], HyperRectangle.unit(DIMENSIONS + 1), good[1]]
        reference = copy.deepcopy(database)
        expected = reference.execute_batch([good[2]] + good[3:5])

        async def main():
            async with AsyncDatabase(database) as served:
                before = database.backend.total_queries
                outcomes = await asyncio.gather(
                    served.query_many(bad), return_exceptions=True
                )
                after_bad = database.backend.total_queries
                mixed = await asyncio.gather(
                    served.query(good[2]),
                    served.query_many(bad),
                    served.query_many(good[3:5]),
                    return_exceptions=True,
                )
                return outcomes, before, after_bad, mixed, served.stats

        (failed,), before, after_bad, mixed, stats = asyncio.run(main())
        assert isinstance(failed, ValueError) and "dimensions" in str(failed)
        assert after_bad == before
        single, failed_again, pair = mixed
        assert isinstance(failed_again, ValueError)
        assert isinstance(single, QueryResult) and len(pair) == 2
        for got, want in zip([single] + pair, expected):
            assert got.ids.tobytes() == want.ids.tobytes()
            assert got.execution.core_counters() == want.execution.core_counters()
        # Every box is counted, those of the failed requests included; the
        # good requests of the second tick ran as one execute_batch.
        assert stats.queries == 3 + 1 + 3 + 2
        assert stats.failed == 2
        assert stats.query_batches == 1
        assert database.backend.total_queries == before + 3

    def test_failed_run_fails_every_query_and_runs_once(self):
        """A tick's run of queries is one scatter to the shards.  When a
        shard fails it, every query of the run gets the error, and the
        healthy shard has counted the run exactly once — its q(c), q(s) and
        reorganization clock never see a query twice."""
        healthy = create_backend("ac", DIMENSIONS)
        failing = RecordingBackend(create_backend("ac", DIMENSIONS))
        backend = ShardedDatabase([healthy, failing], router="spatial")
        backend.bulk_load(make_pairs(90, seed=4))
        queries = [HyperRectangle.unit(DIMENSIONS), make_box(np.random.default_rng(6))]
        before = healthy.total_queries

        async def main():
            async with AsyncDatabase(backend) as served:
                failing.fail_relation = SpatialRelation.INTERSECTS
                outcomes = await asyncio.gather(
                    *(served.query(query, SpatialRelation.INTERSECTS) for query in queries),
                    return_exceptions=True,
                )
                return outcomes, served.stats

        outcomes, stats = asyncio.run(main())
        assert stats.ticks == 1 and stats.failed == len(queries)
        assert all(isinstance(outcome, RuntimeError) for outcome in outcomes)
        assert healthy.total_queries - before == len(queries)

    def test_sharded_backend_composes(self):
        backend = ShardedDatabase.create("ac", DIMENSIONS, shards=3, router="spatial")
        backend.bulk_load(make_pairs(90, seed=4))
        expected = np.arange(90, dtype=np.int64)

        async def main():
            async with AsyncDatabase(backend) as served:
                result = await served.query(HyperRectangle.unit(DIMENSIONS))
                return result

        result = asyncio.run(main())
        assert np.array_equal(result.ids, expected)


class TestPubSub:
    def test_publish_subscribe_flow(self, database):
        subscription = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5))
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.25))

        async def main():
            async with AsyncDatabase(database) as served:
                await served.subscribe(10_000, subscription)
                first = await served.publish(1, inside)
                await served.unsubscribe(10_000)
                second = await served.publish(2, inside)
                return first, second, served.stats

        first, second, stats = asyncio.run(main())
        assert 10_000 in first.matches
        assert 10_000 not in second.matches
        assert first.event_id == 1 and second.event_id == 2
        assert stats.publishes == 2 and stats.subscribes == 1 and stats.unsubscribes == 1

    def test_publish_results_equal_streaming_matcher(self, database):
        """Concurrent publishes match a sequential StreamingMatcher run."""
        rng = np.random.default_rng(5)
        events = [(event_id, make_box(rng, extent=0.05)) for event_id in range(40)]
        matcher = copy.deepcopy(database).session(
            StreamingConfig(max_batch_size=1, relation="contains")
        )
        expected = {}
        for event_id, box in events:
            for record in matcher.publish(event_id, box):
                expected[record.event_id] = record.matches

        async def main():
            delivered = {}

            async def client(offset, served, clients):
                for position in range(offset, len(events), clients):
                    event_id, box = events[position]
                    record = await served.publish(event_id, box)
                    delivered[record.event_id] = record.matches

            async with AsyncDatabase(copy.deepcopy(database)) as served:
                await asyncio.gather(*(client(i, served, 5) for i in range(5)))
            return delivered

        delivered = asyncio.run(main())
        assert delivered.keys() == expected.keys()
        for event_id, matches in expected.items():
            assert np.array_equal(delivered[event_id], matches)

    def test_failed_flush_keeps_later_publishes_aligned(self, database):
        """A transient backend failure fails exactly the affected publishes;
        later publishes pair with their own records, not stale ones."""

        flaky = RecordingBackend(database.backend)
        subscription = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5))
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.25))

        async def main():
            async with AsyncDatabase(flaky) as served:
                await served.subscribe(60_000, subscription)
                flaky.fail_relation = SpatialRelation.CONTAINS
                with pytest.raises(RuntimeError, match="transient"):
                    await served.publish(1, inside)
                record = await served.publish(2, inside)
                return record, served.stats.failed

        record, failed = asyncio.run(main())
        assert record.event_id == 2
        assert 60_000 in record.matches
        assert failed == 1

    def test_flush_failure_inside_publish_fails_all_inflight_publishes(self, database):
        """With a small matcher batch size, a publish can itself trigger the
        failing flush: every in-flight publish of that buffer gets the
        error, and the stream realigns afterwards."""
        from repro.engine import StreamingConfig

        flaky = RecordingBackend(database.backend)
        subscription = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5))
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.25))
        nearby = HyperRectangle.from_point(np.full(DIMENSIONS, 0.3))
        config = ServingConfig(
            matcher=StreamingConfig(max_batch_size=2, relation="contains")
        )

        async def main():
            async with AsyncDatabase(flaky, config) as served:
                await served.subscribe(61_000, subscription)
                flaky.fail_relation = SpatialRelation.CONTAINS
                # Two publishes fill the matcher's buffer; the second
                # triggers the failing size-flush, so both must error.
                first = asyncio.ensure_future(served.publish(1, inside))
                second = asyncio.ensure_future(served.publish(2, nearby))
                outcomes = await asyncio.gather(first, second, return_exceptions=True)
                # The stream realigns: the next publish pairs with its own
                # record, not a stale one.
                record = await served.publish(3, inside)
                return outcomes, record

        (first, second), record = asyncio.run(main())
        assert isinstance(first, RuntimeError) and isinstance(second, RuntimeError)
        assert record.event_id == 3
        assert 61_000 in record.matches

    def test_fault_fails_only_its_request(self, database):
        """One tick of query, publish, subscribe, publish, unsubscribe,
        query over a backend that fails the first publish run: only that
        publish fails, and the churn behind it is applied."""
        flaky = RecordingBackend(database.backend)
        subscription = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.5))
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.25))
        everything = HyperRectangle.unit(DIMENSIONS)

        async def main():
            async with AsyncDatabase(flaky) as served:
                flaky.fail_relation = SpatialRelation.CONTAINS
                outcomes = await asyncio.gather(
                    served.query(everything),
                    served.publish(1, inside),
                    served.subscribe(62_000, subscription),
                    served.publish(2, inside),
                    served.unsubscribe(149),
                    served.query(everything),
                    return_exceptions=True,
                )
                return outcomes, served.stats

        outcomes, stats = asyncio.run(main())
        assert stats.ticks == 1  # the six requests shared one tick
        first_query, first, subscribed, second, unsubscribed, last_query = outcomes
        assert isinstance(first, RuntimeError)
        assert subscribed is None and unsubscribed is None
        assert 62_000 in database.backend and 149 not in database.backend
        assert second.event_id == 2 and 62_000 in second.matches
        assert first_query.ids.size == 150
        assert np.array_equal(np.sort(last_query.ids), np.append(np.arange(149), 62_000))
        assert stats.requests == len(outcomes)
        assert stats.failed == 1 <= stats.requests

    def test_failed_requests_count_in_their_kind(self, database):
        """``requests`` counts every completed request, failed ones included."""
        flat = HyperRectangle.unit(DIMENSIONS - 1)

        async def main():
            async with AsyncDatabase(database) as served:
                await served.subscribe(78_000, HyperRectangle.unit(DIMENSIONS))
                outcomes = await asyncio.gather(
                    served.subscribe(78_000, HyperRectangle.unit(DIMENSIONS)),
                    served.publish(1, flat),
                    served.query(flat),
                    return_exceptions=True,
                )
                return outcomes, served.stats

        outcomes, stats = asyncio.run(main())
        assert isinstance(outcomes[0], KeyError)
        assert all(isinstance(outcome, ValueError) for outcome in outcomes[1:])
        assert (stats.subscribes, stats.publishes, stats.queries) == (2, 1, 1)
        assert stats.requests == 4 and stats.failed == 3
        assert stats.as_dict()["requests"] == 4

    def test_malformed_publish_fails_alone_inside_its_run(self, database):
        recorder = RecordingBackend(database.backend)
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.25))
        flat = HyperRectangle.unit(DIMENSIONS - 1)

        async def main():
            async with AsyncDatabase(recorder) as served:
                outcomes = await asyncio.gather(
                    served.publish(1, inside),
                    served.publish(2, flat),
                    served.publish(3, HyperRectangle.from_point(np.full(DIMENSIONS, 0.3))),
                    return_exceptions=True,
                )
                return outcomes, served.stats.ticks

        (first, bad, third), ticks = asyncio.run(main())
        assert ticks == 1
        assert isinstance(bad, ValueError)
        assert (first.event_id, third.event_id) == (1, 3)
        # The two valid events were matched by one backend call.
        assert len(recorder.calls) == 1 and len(recorder.calls[0][1]) == 2

    def test_duplicate_subscription_fails_only_that_request(self, database):
        async def main():
            async with AsyncDatabase(database) as served:
                await served.subscribe(77_000, HyperRectangle.unit(DIMENSIONS))
                with pytest.raises(KeyError):
                    await served.subscribe(77_000, HyperRectangle.unit(DIMENSIONS))
                # The worker is still serving.
                result = await served.query(HyperRectangle.unit(DIMENSIONS))
                return result

        result = asyncio.run(main())
        assert result.ids.size == 151  # 150 objects + the subscription


class TestArrivalOrder:
    @pytest.mark.parametrize("period", [2, 100])
    def test_publish_and_query_ticks_equal_arrival_order_execution(self, period):
        """Each tick is ``gather(publish(i), query(q_i))``: the publish must
        reach the backend before the query, so an adaptive index that
        reorganizes on the query stream serves every query exactly as a
        one-by-one run in arrival order does.  Events repeat, so cache hits
        shift where the reorganization periods end relative to the ticks."""
        scenario = apartment_ads_scenario(seed=3)
        config = AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(scenario.dimensions),
            reorganization_period=period,
        )
        database = Database.from_dataset(
            "ac", scenario.generate_subscriptions(3_000), config=config
        )
        offers = scenario.generate_events(120).queries
        picks = np.random.default_rng(period).integers(0, len(offers), size=400)
        events = [offers[pick] for pick in picks]
        queries = scenario.generate_events(400, range_fraction=0.1).queries
        reference = copy.deepcopy(database)
        session = reference.session(StreamingConfig(max_batch_size=1))
        expected = []
        for event_id, (event, query) in enumerate(zip(events, queries)):
            (record,) = session.publish(event_id, event)
            expected.append((record.matches, reference.execute(query)))

        async def main():
            served_results = []
            async with AsyncDatabase(database) as served:
                for event_id, (event, query) in enumerate(zip(events, queries)):
                    served_results.append(
                        await asyncio.gather(served.publish(event_id, event), served.query(query))
                    )
                return served_results, served.stats

        served_results, stats = asyncio.run(main())
        assert stats.ticks == len(events)
        for (record, result), (matches, want) in zip(served_results, expected):
            assert record.matches.tobytes() == matches.tobytes()
            assert np.array_equal(result.ids, want.ids)
            assert result.execution.core_counters() == want.execution.core_counters()


    @pytest.mark.parametrize("period", [2, 100])
    def test_query_many_between_publishes_keeps_arrival_order(self, period):
        """Each tick is ``gather(publish, query_many, publish)``: the batch
        reaches the backend after the first publish and before the second,
        as one ``execute_batch``."""
        scenario = apartment_ads_scenario(seed=5)
        config = AdaptiveClusteringConfig(
            cost=CostParameters.memory_defaults(scenario.dimensions),
            reorganization_period=period,
        )
        database = Database.from_dataset(
            "ac", scenario.generate_subscriptions(2_000), config=config
        )
        events = scenario.generate_events(160).queries
        queries = scenario.generate_events(240, range_fraction=0.1).queries
        ticks = [
            (events[2 * tick], queries[3 * tick : 3 * tick + 3], events[2 * tick + 1])
            for tick in range(80)
        ]
        reference = copy.deepcopy(database)
        session = reference.session(StreamingConfig(max_batch_size=1))
        expected = []
        for tick, (first, batch, second) in enumerate(ticks):
            (before,) = session.publish(2 * tick, first)
            results = reference.execute_batch(batch)
            (after,) = session.publish(2 * tick + 1, second)
            expected.append((before, results, after))

        async def main():
            served_results = []
            async with AsyncDatabase(database) as served:
                for tick, (first, batch, second) in enumerate(ticks):
                    served_results.append(
                        await asyncio.gather(
                            served.publish(2 * tick, first),
                            served.query_many(batch),
                            served.publish(2 * tick + 1, second),
                        )
                    )
                return served_results, served.stats

        served_results, stats = asyncio.run(main())
        assert stats.ticks == len(ticks)
        assert stats.queries == 3 * len(ticks)
        for got, want in zip(served_results, expected):
            assert got[0].matches.tobytes() == want[0].matches.tobytes()
            assert got[2].matches.tobytes() == want[2].matches.tobytes()
            for result, reference_result in zip(got[1], want[1]):
                assert result.ids.tobytes() == reference_result.ids.tobytes()
                assert (
                    result.execution.core_counters()
                    == reference_result.execution.core_counters()
                )


class TestPublishDuringChurn:
    @pytest.mark.parametrize("layout", ["ac", "sharded"])
    def test_concurrent_publishers_and_churn_equal_a_replay(self, layout):
        """Eight clients mix publishes with subscribes and unsubscribes.
        Every delivered match set equals a one-by-one replay of the calls
        in the order the backend received them."""
        if layout == "ac":
            backend = Database.create("ac", DIMENSIONS).backend
        else:
            backend = ShardedDatabase.create("ac", DIMENSIONS, shards=2, router="spatial")
        backend.bulk_load(make_pairs(150, seed=8))
        replayed = copy.deepcopy(backend)
        recorder = RecordingBackend(backend)
        clients, steps = 8, 30

        async def client(served, number):
            rng = np.random.default_rng(100 + number)
            own = []
            records = []
            for step in range(steps):
                roll = rng.random()
                if roll < 0.25:
                    subscription_id = 10_000 * (number + 1) + step
                    await served.subscribe(subscription_id, make_box(rng, extent=0.6))
                    own.append(subscription_id)
                elif roll < 0.4:
                    victim = own.pop() if own else int(rng.integers(150))
                    await served.unsubscribe(victim)
                else:
                    # Distinct boxes: every event reaches the backend once.
                    event = make_box(rng, extent=0.0)
                    records.append((event, await served.publish(number * steps + step, event)))
            return records

        async def main():
            async with AsyncDatabase(recorder) as served:
                delivered = await asyncio.gather(
                    *(client(served, number) for number in range(clients))
                )
                return [pair for records in delivered for pair in records], served.stats

        delivered, stats = asyncio.run(main())
        assert stats.failed == 0
        assert stats.average_tick_size() > 1.0
        assert any(name == "delete" for name, _, _ in recorder.calls)
        queried = [
            query for name, batch, _ in recorder.calls if name == "execute_batch" for query in batch
        ]
        expected = {
            query.lows.tobytes(): matches
            for query, matches in zip(queried, replay(replayed, recorder.calls))
        }
        assert len(expected) == len(queried) == len(delivered)
        for event, record in delivered:
            assert record.matches.tobytes() == expected[event.lows.tobytes()].tobytes()


class TestLifecycle:
    def test_close_drains_queued_requests(self, database):
        async def main():
            served = await AsyncDatabase(database).start()
            futures = [
                asyncio.ensure_future(served.query(HyperRectangle.unit(DIMENSIONS)))
                for _ in range(10)
            ]
            await asyncio.sleep(0)  # let the requests enqueue
            await served.close()
            return await asyncio.gather(*futures)

        results = asyncio.run(main())
        assert len(results) == 10
        assert all(result.ids.size == 150 for result in results)

    def test_requests_after_close_are_rejected(self, database):
        async def main():
            served = await AsyncDatabase(database).start()
            await served.close()
            with pytest.raises(RuntimeError):
                await served.query(HyperRectangle.unit(DIMENSIONS))

        asyncio.run(main())

    def test_requests_without_start_are_rejected(self, database):
        async def main():
            served = AsyncDatabase(database)
            with pytest.raises(RuntimeError):
                await served.query(HyperRectangle.unit(DIMENSIONS))

        asyncio.run(main())

    def test_close_is_idempotent_and_start_after_close_fails(self, database):
        async def main():
            served = await AsyncDatabase(database).start()
            await served.close()
            await served.close()
            with pytest.raises(RuntimeError):
                await served.start()

        asyncio.run(main())

    def test_close_races_a_concurrent_submitter(self, database):
        """Every request enqueued before close() resolves with a real result;
        the racing submitter eventually gets a clean RuntimeError — never a
        hang, never a stranded future."""

        async def main():
            served = await AsyncDatabase(database).start()
            queued = [
                asyncio.ensure_future(served.query(HyperRectangle.unit(DIMENSIONS)))
                for _ in range(25)
            ]

            async def submitter():
                outcomes = []
                while True:
                    try:
                        outcomes.append(await served.query(HyperRectangle.unit(DIMENSIONS)))
                    except RuntimeError as error:
                        outcomes.append(error)
                        return outcomes

            racer = asyncio.ensure_future(submitter())
            await asyncio.sleep(0)  # let the racer enqueue at least once
            await served.close()
            outcomes = await racer
            settled = await asyncio.gather(*queued, return_exceptions=True)
            return outcomes, settled

        outcomes, settled = asyncio.run(main())
        assert all(isinstance(item, QueryResult) for item in settled)
        assert isinstance(outcomes[-1], RuntimeError)
        assert "AsyncDatabase" in str(outcomes[-1])
        assert all(isinstance(item, QueryResult) for item in outcomes[:-1])

    def test_submit_after_worker_death_fails_fast(self, database):
        """A died worker task fails new submissions immediately instead of
        stranding their futures; close() surfaces the worker's error."""

        async def main():
            served = await AsyncDatabase(database).start()
            # Simulate the worker task dying out from under the front-end.
            worker = served._worker
            worker.cancel()
            await asyncio.sleep(0)
            with pytest.raises(RuntimeError, match="worker has stopped"):
                await served.query(HyperRectangle.unit(DIMENSIONS))
            with pytest.raises(asyncio.CancelledError):
                await served.close()

        asyncio.run(main())


class TestServeRequests:
    def test_mixed_request_stream(self, database):
        rng = np.random.default_rng(6)
        sub_box = HyperRectangle(np.zeros(DIMENSIONS), np.full(DIMENSIONS, 0.4))
        inside = HyperRectangle.from_point(np.full(DIMENSIONS, 0.2))
        requests = [
            ("subscribe", (90_000, sub_box)),
            ("publish", (1, inside)),
            ("query", (make_box(rng), SpatialRelation.INTERSECTS)),
            ("unsubscribe", 90_000),
            ("publish", (2, inside)),
        ]
        results = asyncio.run(serve_requests(database, requests, clients=1))
        assert results[0] is None
        assert 90_000 in results[1].matches
        assert isinstance(results[2], QueryResult)
        assert 90_000 not in results[4].matches

    def test_rejects_bad_inputs(self, database):
        with pytest.raises(ValueError):
            asyncio.run(serve_requests(database, [], clients=0))
        with pytest.raises(ValueError):
            asyncio.run(serve_requests(database, [("nonsense", None)]))
