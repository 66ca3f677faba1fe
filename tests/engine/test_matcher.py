"""Unit and equivalence tests for the streaming pub/sub matcher."""

import numpy as np
import pytest

from repro.api import create_backend
from repro.core.config import AdaptiveClusteringConfig
from repro.core.cost_model import CostParameters
from repro.engine import StreamingConfig, StreamingMatcher
from repro.engine.matcher import StreamStats
from repro.geometry.box import HyperRectangle
from repro.geometry.relations import SpatialRelation
from repro.workloads.pubsub import AttributeSpec, PublishSubscribeScenario

DIMENSIONS = 4
RELATION = SpatialRelation.CONTAINS


@pytest.fixture
def scenario():
    attributes = [
        AttributeSpec("a", 0, 100, typical_width=0.3),
        AttributeSpec("b", 0, 100, typical_width=0.4, wildcard_probability=0.2),
        AttributeSpec("c", 0, 100, typical_width=0.5, wildcard_probability=0.3),
        AttributeSpec("d", 0, 100, typical_width=0.4),
    ]
    return PublishSubscribeScenario(attributes, seed=11)


@pytest.fixture
def subscriptions(scenario):
    return scenario.generate_subscriptions(400)


def build_backend(label, subscriptions):
    cost = CostParameters.memory_defaults(DIMENSIONS)
    config = (
        AdaptiveClusteringConfig(cost=cost, reorganization_period=50)
        if label == "ac"
        else None
    )
    backend = create_backend(label, DIMENSIONS, cost=cost, config=config)
    subscriptions.load_into(backend)
    return backend


def reference_loop(backend, operations):
    """Process the stream one operation at a time (the ground truth)."""
    matches = {}
    for operation in operations:
        if operation.kind == "subscribe":
            backend.insert(operation.op_id, operation.box)
        elif operation.kind == "unsubscribe":
            backend.delete(operation.op_id)
        else:
            ids = backend.execute(operation.box, RELATION).ids
            matches[operation.op_id] = np.sort(ids)  # canonical delivery order
    return matches


class FakeClock:
    """Deterministic, manually advanced time source."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def point(*coordinates):
    return HyperRectangle.from_point(np.asarray(coordinates, dtype=np.float64))


class TestBatching:
    def test_publish_buffers_until_batch_size(self, subscriptions):
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions),
            StreamingConfig(max_batch_size=4, cache_size=0),
        )
        delivered = []
        for event_id in range(3):
            delivered.extend(matcher.publish(event_id, point(0.5, 0.5, 0.5, 0.5)))
        assert delivered == []
        assert matcher.pending_events == 3
        delivered.extend(matcher.publish(3, point(0.2, 0.2, 0.2, 0.2)))
        assert [record.event_id for record in delivered] == [0, 1, 2, 3]
        assert matcher.pending_events == 0
        assert matcher.stats.batches == 1
        assert matcher.stats.size_flushes == 1

    def test_flush_delivers_partial_batch_in_order(self, subscriptions):
        matcher = StreamingMatcher(build_backend("ss", subscriptions))
        matcher.publish(7, point(0.1, 0.1, 0.1, 0.1))
        matcher.publish(3, point(0.9, 0.9, 0.9, 0.9))
        records = matcher.flush()
        assert [record.event_id for record in records] == [7, 3]
        assert matcher.stats.manual_flushes == 1
        # Draining an empty buffer delivers nothing and counts no flush, so
        # the per-trigger counters always sum to `batches`.
        assert matcher.flush() == []
        assert matcher.stats.manual_flushes == 1
        stats = matcher.stats
        assert (
            stats.size_flushes
            + stats.latency_flushes
            + stats.churn_flushes
            + stats.manual_flushes
            == stats.batches
        )

    def test_latency_deadline_flushes_on_publish(self, subscriptions):
        clock = FakeClock()
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions),
            StreamingConfig(max_batch_size=100, max_delay_ms=50.0),
            clock=clock,
        )
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        clock.advance(0.2)
        records = matcher.publish(1, point(0.6, 0.6, 0.6, 0.6))
        assert [record.event_id for record in records] == [0, 1]
        assert matcher.stats.latency_flushes == 1
        # The first event waited 200 ms, the second was delivered at once.
        assert records[0].latency_ms == pytest.approx(200.0)
        assert records[1].latency_ms == pytest.approx(0.0)

    def test_poll_honours_deadline_during_lulls(self, subscriptions):
        clock = FakeClock()
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions),
            StreamingConfig(max_batch_size=100, max_delay_ms=50.0),
            clock=clock,
        )
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        assert matcher.poll() == []
        clock.advance(0.1)
        assert [record.event_id for record in matcher.poll()] == [0]


class TestChurnSemantics:
    def test_register_flushes_pending_events_first(self, subscriptions):
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions), StreamingConfig(max_batch_size=100)
        )
        event = point(0.5, 0.5, 0.5, 0.5)
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        matcher.publish(0, event)
        records = matcher.register(9_999, everything)
        # The pending event predates the subscription and must not match it.
        assert len(records) == 1
        assert 9_999 not in records[0].matches.tolist()
        assert matcher.stats.churn_flushes == 1
        # An event published after the registration does match.
        matcher.publish(1, event)
        assert 9_999 in matcher.flush()[0].matches.tolist()

    def test_unregister_flushes_pending_events_first(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=100))
        event = point(0.5, 0.5, 0.5, 0.5)
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        matcher.register(9_999, everything)
        matcher.publish(0, event)
        records = matcher.unregister(9_999)
        # The pending event was published while the subscription was live.
        assert 9_999 in records[0].matches.tolist()
        matcher.publish(1, event)
        assert 9_999 not in matcher.flush()[0].matches.tolist()

    def test_unregister_unknown_id_is_ignored(self, subscriptions):
        matcher = StreamingMatcher(build_backend("ss", subscriptions))
        matcher.unregister(123_456)
        assert matcher.stats.unregistered == 0

    def test_invalid_registration_rejected_before_the_flush(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=100))
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        with pytest.raises(KeyError):
            matcher.register(0, everything)  # id 0 is already registered
        with pytest.raises(ValueError):
            matcher.register(99_999, HyperRectangle([0.0], [1.0]))  # 1-dim box
        with pytest.raises(KeyError):
            matcher.register_many([(99_999, everything), (0, everything)])
        with pytest.raises(KeyError):
            matcher.register_many([(99_999, everything), (99_999, everything)])
        # The rejected churn never flushed the pending event or mutated the
        # backend, so its delivered record is not lost to the exceptions.
        assert matcher.pending_events == 1
        assert backend.n_objects == subscriptions.size
        assert [record.event_id for record in matcher.flush()] == [0]

    @pytest.mark.parametrize("label", ["ac", "ss", "rs"])
    def test_register_many_and_unregister_many(self, subscriptions, label):
        # The backends are pre-loaded, so this also covers batch
        # registration into a non-empty R*-tree (whose STR bulk loader
        # only works from an empty tree — the matcher must fall back to
        # incremental inserts).
        backend = build_backend(label, subscriptions)
        matcher = StreamingMatcher(backend)
        base = subscriptions.size
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        matcher.register_many((base + offset, everything) for offset in range(5))
        assert backend.n_objects == base + 5
        assert matcher.stats.registered == 5
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        records = matcher.unregister_many([base, base + 1, base + 77])
        assert backend.n_objects == base + 3
        assert matcher.stats.unregistered == 2
        # The pending event saw all five batch-registered subscriptions.
        assert {base + offset for offset in range(5)} <= set(records[0].matches.tolist())

    def test_register_many_patches_cached_entries_in_one_pass(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=1))
        event = point(0.5, 0.5, 0.5, 0.5)
        matcher.publish(0, event)  # prime the cache
        base = subscriptions.size
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        nowhere = HyperRectangle(np.full(DIMENSIONS, 0.9), np.full(DIMENSIONS, 0.95))
        matcher.register_many([(base, everything), (base + 1, nowhere)])
        record = matcher.publish(1, event)[0]
        assert record.cached
        assert base in record.matches.tolist()
        assert base + 1 not in record.matches.tolist()

    def test_churn_patches_the_result_cache(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=1))
        event = point(0.5, 0.5, 0.5, 0.5)
        matcher.publish(0, event)
        first = matcher.publish(1, event)
        assert first[0].cached
        # A matching subscription is inserted into the warm entry; the
        # repeated event stays a cache hit and still sees it.
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        matcher.register(9_999, everything)
        second = matcher.publish(2, event)
        assert second[0].cached
        assert 9_999 in second[0].matches.tolist()
        assert matcher.stats.cache_patches >= 1
        # Unregistering removes it again, still without dropping the entry.
        matcher.unregister(9_999)
        third = matcher.publish(3, event)
        assert third[0].cached
        assert 9_999 not in third[0].matches.tolist()
        # A non-matching subscription leaves the cached match set untouched.
        nowhere = HyperRectangle(np.full(DIMENSIONS, 0.9), np.full(DIMENSIONS, 0.95))
        matcher.register(8_888, nowhere)
        fourth = matcher.publish(4, event)
        assert fourth[0].cached
        assert fourth[0].matches.tolist() == first[0].matches.tolist()

    def test_cached_results_equal_recomputation_under_churn(self, subscriptions):
        """Cache-served match sets equal what the backend would recompute."""
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=1))
        reference = build_backend("ss", subscriptions)
        rng = np.random.default_rng(77)
        events = [point(*rng.random(DIMENSIONS)) for _ in range(12)]
        for event_id, event in enumerate(events):
            matcher.publish(event_id, event)  # prime the cache
        next_sub = subscriptions.size
        for round_number in range(4):
            box = HyperRectangle(rng.random(DIMENSIONS) * 0.4, 0.6 + rng.random(DIMENSIONS) * 0.4)
            matcher.register(next_sub, box)
            reference.insert(next_sub, box)
            victim = int(rng.integers(subscriptions.size))
            matcher.unregister(victim)
            reference.delete(victim)
            next_sub += 1
            for event_id, event in enumerate(events):
                record = matcher.publish(100 * (round_number + 1) + event_id, event)[0]
                assert record.cached
                expected = reference.execute(event, RELATION).ids
                assert record.matches.tolist() == sorted(expected.tolist())


class TestCachingBehaviour:
    def test_repeated_event_skips_the_backend(self, subscriptions):
        backend = build_backend("ac", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=1))
        event = point(0.4, 0.4, 0.4, 0.4)
        first = matcher.publish(0, event)[0]
        queries_after_miss = backend.total_queries
        second = matcher.publish(1, event)[0]
        assert backend.total_queries == queries_after_miss
        assert second.cached and not first.cached
        assert second.matches.tolist() == first.matches.tolist()
        assert matcher.stats.cache_hits == 1

    def test_in_batch_duplicates_are_deduplicated(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=100))
        event = point(0.4, 0.4, 0.4, 0.4)
        matcher.publish(0, event)
        matcher.publish(1, event)
        matcher.publish(2, event)
        records = matcher.flush()
        assert matcher.stats.deduplicated == 2
        # One backend query answered all three events identically.
        assert matcher.stats.total_execution.groups_explored == 1
        assert len({record.matches.tobytes() for record in records}) == 1

    def test_cache_can_be_disabled(self, subscriptions):
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions),
            StreamingConfig(max_batch_size=1, cache_size=0),
        )
        event = point(0.4, 0.4, 0.4, 0.4)
        matcher.publish(0, event)
        records = matcher.publish(1, event)
        assert not records[0].cached
        assert matcher.stats.cache_hits == 0


class TestStreamEquivalence:
    """Streaming delivery must equal the per-operation reference loop."""

    @pytest.mark.parametrize("label", ["ac", "ss", "rs"])
    @pytest.mark.parametrize("cache_size", [0, 64])
    def test_churn_stream_matches_reference(self, scenario, subscriptions, label, cache_size):
        operations = scenario.generate_event_stream(
            150,
            subscriptions.ids,
            subscribe_probability=0.2,
            unsubscribe_probability=0.2,
            resubscribe_probability=0.5,
        )
        assert any(op.kind == "unsubscribe" for op in operations)
        assert any(op.kind == "subscribe" for op in operations)
        expected = reference_loop(build_backend(label, subscriptions), operations)
        matcher = StreamingMatcher(
            build_backend(label, subscriptions),
            StreamingConfig(max_batch_size=16, cache_size=cache_size),
        )
        records = matcher.run(operations)
        assert len(records) == len(expected)
        for record in records:
            assert record.matches.tobytes() == expected[record.event_id].tobytes()

    def test_delete_then_reinsert_mid_stream(self, subscriptions):
        """Churn that removes and re-registers the same id stays consistent."""
        backend = build_backend("ac", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=8))
        event = point(0.5, 0.5, 0.5, 0.5)
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        nothing = HyperRectangle(np.full(DIMENSIONS, 0.9), np.full(DIMENSIONS, 0.95))
        delivered = []
        delivered.extend(matcher.register(9_999, everything))
        delivered.extend(matcher.publish(0, event))
        delivered.extend(matcher.unregister(9_999))
        delivered.extend(matcher.publish(1, event))
        delivered.extend(matcher.register(9_999, nothing))  # same id, new box
        delivered.extend(matcher.publish(2, event))
        delivered.extend(matcher.flush())
        records = {record.event_id: record for record in delivered}
        assert 9_999 in records[0].matches.tolist()
        assert 9_999 not in records[1].matches.tolist()
        assert 9_999 not in records[2].matches.tolist()
        backend.check_invariants()


class TestStatistics:
    def test_throughput_and_percentiles(self, scenario, subscriptions):
        operations = scenario.generate_event_stream(60, subscriptions.ids)
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions), StreamingConfig(max_batch_size=16)
        )
        records = matcher.run(operations)
        stats = matcher.stats
        assert stats.events == sum(op.kind == "event" for op in operations)
        assert stats.events == len(records)
        assert stats.batches >= 1
        assert stats.events_per_second() > 0
        assert len(stats.latencies_ms) == stats.events
        percentiles = stats.latency_percentiles()
        assert percentiles["p50"] <= percentiles["p95"] <= percentiles["p99"]
        summary = stats.as_dict()
        assert summary["events"] == stats.events
        assert summary["total_execution"]["results"] >= 0

    def test_percentiles_of_an_empty_window_report_only_the_window(self):
        """No events: no fabricated 0.0 percentiles, just latency_window=0."""
        stats = StreamStats()
        assert stats.latency_percentiles() == {"latency_window": 0.0}
        summary = stats.as_dict()
        assert summary["latency_window"] == 0.0
        assert "p50" not in summary

    def test_percentiles_of_a_single_entry_window(self):
        stats = StreamStats()
        stats.latencies_ms.append(4.25)
        percentiles = stats.latency_percentiles()
        assert percentiles["latency_window"] == 1.0
        assert percentiles["p50"] == percentiles["p95"] == percentiles["p99"] == 4.25

    def test_percentiles_label_the_window_size(self, scenario, subscriptions):
        """A short window's p99 is only as meaningful as the window is long
        — the summary says how many events it describes."""
        operations = scenario.generate_event_stream(8, subscriptions.ids)
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions), StreamingConfig(max_batch_size=4)
        )
        matcher.run(operations)
        stats = matcher.stats
        percentiles = stats.latency_percentiles()
        assert percentiles["latency_window"] == float(len(stats.latencies_ms))
        assert percentiles["p99"] == pytest.approx(
            float(np.percentile(np.asarray(stats.latencies_ms), 99.0))
        )

    def test_average_batch_size(self, subscriptions):
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions), StreamingConfig(max_batch_size=2)
        )
        for event_id in range(4):
            matcher.publish(event_id, point(0.5, 0.5, 0.5, 0.5))
        assert matcher.stats.average_batch_size() == pytest.approx(2.0)


class TestDirectMatch:
    def test_records_follow_input_order(self, subscriptions):
        backend = build_backend("ac", subscriptions)
        reference = build_backend("ac", subscriptions)
        matcher = StreamingMatcher(backend)
        rng = np.random.default_rng(5)
        events = [(event_id, point(*rng.random(DIMENSIONS))) for event_id in (9, 2, 7, 4)]
        records = matcher.match(events)
        assert [record.event_id for record in records] == [9, 2, 7, 4]
        for (_, event), record in zip(events, records):
            expected = np.sort(reference.execute(event, RELATION).ids)
            assert record.matches.tobytes() == expected.tobytes()
            assert not record.cached

    def test_duplicates_cache_hits_and_churn_patches(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend)
        event = point(0.5, 0.5, 0.5, 0.5)
        other = point(0.3, 0.3, 0.3, 0.3)
        first = matcher.match([(0, event), (1, other), (2, event)])
        assert matcher.stats.deduplicated == 1
        assert matcher.stats.total_execution.groups_explored == 2
        assert first[0].matches.tobytes() == first[2].matches.tobytes()
        everything = HyperRectangle(np.zeros(DIMENSIONS), np.ones(DIMENSIONS))
        matcher.register(9_999, everything)
        matcher.unregister(int(first[1].matches[0]))
        boxes = [other, event, other]
        second = matcher.match(list(zip([3, 4, 5], boxes)))
        # Every event is a cache hit, patched by the churn in between.
        assert [record.cached for record in second] == [True, True, True]
        assert matcher.stats.cache_hits == 3
        assert matcher.stats.total_execution.groups_explored == 2
        for box, record in zip(boxes, second):
            expected = np.sort(backend.execute(box, RELATION).ids)
            assert record.matches.tobytes() == expected.tobytes()
        assert 9_999 in second[1].matches.tolist()
        assert int(first[1].matches[0]) not in second[0].matches.tolist()

    def test_direct_match_counts_as_a_manual_flush(self, subscriptions):
        matcher = StreamingMatcher(
            build_backend("ss", subscriptions), StreamingConfig(max_batch_size=2)
        )
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        matcher.publish(1, point(0.6, 0.6, 0.6, 0.6))
        matcher.match([(2, point(0.7, 0.7, 0.7, 0.7))])
        assert matcher.match([]) == []
        stats = matcher.stats
        assert (stats.batches, stats.size_flushes, stats.manual_flushes) == (2, 1, 1)
        assert stats.events == 3
        assert (
            stats.size_flushes
            + stats.latency_flushes
            + stats.churn_flushes
            + stats.manual_flushes
            == stats.batches
        )

    def test_malformed_event_rejects_the_whole_call_first(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend)
        with pytest.raises(ValueError):
            matcher.match([(0, point(0.5, 0.5, 0.5, 0.5)), (1, point(0.5, 0.5, 0.5))])
        assert matcher.stats.cache_misses == 0
        assert matcher.stats.batches == 0

    def test_failing_backend_leaves_cache_and_buffer_untouched(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend, StreamingConfig(max_batch_size=100))
        warm = point(0.5, 0.5, 0.5, 0.5)
        matcher.match([(0, warm)])
        matcher.publish(1, point(0.2, 0.2, 0.2, 0.2))
        before = matcher.stats.as_dict()
        original = backend.execute_batch

        def failing(queries, relation):
            raise RuntimeError("transient backend failure")

        backend.execute_batch = failing
        with pytest.raises(RuntimeError):
            matcher.match([(2, warm), (3, point(0.6, 0.6, 0.6, 0.6)), (4, warm)])
        assert matcher.stats.as_dict() == before
        assert matcher.pending_events == 1
        # The failed call stored nothing: the retry misses on the new box
        # and counts each lookup once.
        backend.execute_batch = original
        records = matcher.match([(2, warm), (3, point(0.6, 0.6, 0.6, 0.6)), (4, warm)])
        assert [record.cached for record in records] == [True, False, True]
        assert (matcher.stats.cache_hits, matcher.stats.cache_misses) == (2, 2)
        assert [record.event_id for record in matcher.flush()] == [1]


class TestValidation:
    def test_backend_protocol_is_checked(self):
        with pytest.raises(TypeError):
            StreamingMatcher(object())

    def test_publish_rejects_wrong_dimensionality(self, subscriptions):
        matcher = StreamingMatcher(build_backend("ss", subscriptions))
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            matcher.publish(1, point(0.5, 0.5, 0.5))  # 3-dim box, 4-dim backend
        # The malformed event never entered the buffer; the valid one is
        # still deliverable.
        assert matcher.pending_events == 1
        assert [record.event_id for record in matcher.flush()] == [0]

    def test_failing_backend_query_requeues_the_batch(self, subscriptions):
        backend = build_backend("ss", subscriptions)
        matcher = StreamingMatcher(backend)
        matcher.publish(0, point(0.5, 0.5, 0.5, 0.5))
        matcher.publish(1, point(0.6, 0.6, 0.6, 0.6))
        matcher.publish(2, point(0.5, 0.5, 0.5, 0.5))  # in-batch duplicate
        original = backend.execute_batch
        calls = {"n": 0}

        def flaky(queries, relation):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("transient backend failure")
            return original(queries, relation)

        backend.execute_batch = flaky
        with pytest.raises(RuntimeError):
            matcher.flush()
        # Nothing was dropped: the events are pending again and a retry
        # delivers them in the original order.
        assert matcher.pending_events == 3
        assert [record.event_id for record in matcher.flush()] == [0, 1, 2]
        # The failed attempt's cache resolution was rolled back, so the
        # retry does not double-count dedups or cache lookups.
        assert matcher.stats.deduplicated == 1
        assert matcher.stats.cache_hits == 0
        assert matcher.stats.cache_misses == 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            StreamingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            StreamingConfig(max_delay_ms=-1.0)
        with pytest.raises(ValueError):
            StreamingConfig(cache_size=-1)

    def test_config_parses_string_relation(self):
        config = StreamingConfig(relation="intersects")
        assert config.relation is SpatialRelation.INTERSECTS

    def test_unknown_stream_operation_rejected(self, subscriptions):
        matcher = StreamingMatcher(build_backend("ss", subscriptions))

        class Bogus:
            kind = "frobnicate"
            op_id = 0
            box = None

        with pytest.raises(ValueError):
            matcher.run([Bogus()])
