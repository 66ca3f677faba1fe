"""The tuning advisor stack: accounting, migration, profiles, rankings.

Covers the per-shard workload accounting of :class:`ShardedDatabase` (the
counter-attribution fix: gather-time sums keep their shard of origin),
live shard migration, the :mod:`repro.tuning` profiles and advisor, the
``auto_tune`` configuration surface, and the :class:`Database` facade
wiring.  The advisor-vs-measured-ablation accuracy gate lives in the
gated ``benchmarks/test_bench_tuning.py``.
"""

import numpy as np
import pytest

from repro.api import (
    AutoTuneOptions,
    Database,
    DatabaseConfig,
    ShardedDatabase,
    UnsupportedOperation,
    create_backend,
)
from repro.api.sharding import RECENT_QUERY_WINDOW
from repro.core.statistics import QueryExecution
from repro.geometry.box import HyperRectangle
from repro.tuning import (
    CandidateDesign,
    advise,
    apply_recommendation,
    candidate_designs,
    profile_shards,
)
from repro.core.cost_model import CostParameters

DIMENSIONS = 4


def make_box(rng, extent=0.25):
    lows = rng.random(DIMENSIONS) * 0.7
    return HyperRectangle(lows, np.minimum(lows + extent, 1.0))


def make_pairs(count, seed=0):
    rng = np.random.default_rng(seed)
    return [(object_id, make_box(rng)) for object_id in range(count)]


def make_queries(count, seed=3):
    rng = np.random.default_rng(seed)
    return [make_box(rng, extent=0.35) for _ in range(count)]


@pytest.fixture
def mixed():
    """A mixed-backend deployment with recorded workload history."""
    database = ShardedDatabase.create(["ac", "rs", "ss"], DIMENSIONS)
    database.bulk_load(make_pairs(180, seed=1))
    database.execute_batch(make_queries(12, seed=2))
    return database


# ----------------------------------------------------------------------
# Satellite: per-shard counter attribution
# ----------------------------------------------------------------------
class TestWorkloadAccounting:
    def test_accounts_attribute_queries_per_shard(self, mixed):
        accounts = mixed.workload_accounts()
        assert len(accounts) == 3
        # Every query scatters to every shard.
        assert [account.queries for account in accounts] == [12, 12, 12]

    def test_insert_churn_follows_the_router(self, mixed):
        accounts = mixed.workload_accounts()
        assert sum(account.inserts for account in accounts) == 180
        assert [account.inserts for account in accounts] == [
            shard.n_objects for shard in mixed.shards
        ]

    def test_per_shard_counters_sum_to_the_merged_view(self):
        """The attribution fix: per-shard sums must rebuild the merged total.

        The gather element-wise-sums the counters into one
        :class:`QueryExecution`; the accounts keep the same numbers split
        by shard of origin, so summing them must reproduce the gathered
        totals exactly — under mixed backends whose counter mixes differ.
        """
        database = ShardedDatabase.create(["ac", "rs", "ss"], DIMENSIONS)
        database.bulk_load(make_pairs(150, seed=4))
        merged = QueryExecution()
        for result in database.execute_batch(make_queries(9, seed=5)):
            merged = merged.merge(result.execution)
        for query in make_queries(4, seed=6):
            merged = merged.merge(database.execute(query).execution)
        from_accounts = QueryExecution()
        for account in database.workload_accounts():
            from_accounts = from_accounts.merge(account.execution)
        assert from_accounts.core_counters() == merged.core_counters()

    def test_delete_churn_counts_only_removed_objects(self, mixed):
        before = mixed.workload_accounts()
        assert mixed.delete(0) is True
        assert mixed.delete(0) is False  # already gone: no churn recorded
        after = mixed.workload_accounts()
        assert sum(a.deletes for a in after) == sum(a.deletes for a in before) + 1

    def test_reset_restarts_the_observation_window(self, mixed):
        mixed.reset_workload_accounts()
        assert all(
            account.queries == 0 and account.inserts == 0 and account.deletes == 0
            for account in mixed.workload_accounts()
        )
        assert mixed.recent_queries() == ()

    def test_recent_query_ring_is_bounded(self, mixed):
        mixed.execute_batch(make_queries(RECENT_QUERY_WINDOW + 40, seed=7))
        assert len(mixed.recent_queries()) == RECENT_QUERY_WINDOW

    def test_short_shard_row_raises_instead_of_truncating(self, mixed):
        """The zip-truncation fix: a short row is an error, not lost data."""

        class ShortRow:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                return getattr(self._inner, name)

            def execute_batch(self, queries, relation):
                return self._inner.execute_batch(queries, relation)[:-1]

        mixed._shards[1] = ShortRow(mixed._shards[1])
        with pytest.raises(RuntimeError, match="shard 1 returned"):
            mixed.execute_batch(make_queries(5, seed=8))


# ----------------------------------------------------------------------
# iter_objects contract and live migration
# ----------------------------------------------------------------------
class TestIterObjects:
    @pytest.mark.parametrize("method", ["ac", "rs", "ss"])
    def test_yields_every_object_in_ascending_id_order(self, method):
        backend = create_backend(method, DIMENSIONS)
        pairs = make_pairs(90, seed=9)
        backend.bulk_load(pairs)
        drained = list(backend.iter_objects())
        assert [object_id for object_id, _ in drained] == sorted(
            object_id for object_id, _ in pairs
        )
        by_id = dict(pairs)
        for object_id, box in drained:
            assert np.array_equal(box.lows, by_id[object_id].lows)
            assert np.array_equal(box.highs, by_id[object_id].highs)

    def test_sharded_merge_is_globally_sorted(self, mixed):
        ids = [object_id for object_id, _ in mixed.iter_objects()]
        assert ids == sorted(ids)
        assert len(ids) == mixed.n_objects


class TestMigrateShard:
    def test_results_are_byte_identical_across_migration(self, mixed):
        queries = make_queries(10, seed=11)
        before = [mixed.execute(query).ids.tobytes() for query in queries]
        mixed.migrate_shard(1, "ac")
        after = [mixed.execute(query).ids.tobytes() for query in queries]
        assert before == after

    def test_migrated_shard_equals_a_rebuilt_one(self, mixed):
        """Migration == drain + bulk_load: same ids, same work counters."""
        old = mixed.shards[2]
        rebuilt = create_backend("ac", DIMENSIONS)
        rebuilt.bulk_load(list(old.iter_objects()))
        mixed.migrate_shard(2, "ac")
        migrated = mixed.shards[2]
        assert list(migrated.iter_objects()) == list(rebuilt.iter_objects())
        probes = make_queries(6, seed=12)
        for probe in probes:
            ours = migrated.execute(probe)
            theirs = rebuilt.execute(probe)
            assert np.array_equal(ours.ids, theirs.ids)
            assert ours.execution.core_counters() == theirs.execution.core_counters()

    def test_migration_rederives_capabilities(self, mixed):
        assert "rs" in mixed.capabilities.name
        mixed.migrate_shard(1, "ac")
        assert "rs" not in mixed.capabilities.name

    def test_workload_account_survives_migration(self, mixed):
        before = mixed.workload_accounts()[1]
        mixed.migrate_shard(1, "ss")
        # The account describes the partition's traffic, not the backend.
        assert mixed.workload_accounts()[1] == before

    def test_out_of_range_position(self, mixed):
        with pytest.raises(ValueError):
            mixed.migrate_shard(3, "ac")

    def test_returns_the_replaced_backend(self, mixed):
        old = mixed.shards[0]
        assert mixed.migrate_shard(0, "ss") is old


# ----------------------------------------------------------------------
# Profiles and the advisor
# ----------------------------------------------------------------------
class TestProfiles:
    def test_capability_gated_fields(self, mixed):
        profiles = profile_shards(mixed)
        by_method = {profile.method: profile for profile in profiles}
        assert by_method["ac"].division_factor is not None
        assert by_method["ac"].reorganization_period is not None
        assert by_method["ac"].reorganization_count is not None
        assert by_method["ss"].division_factor is None
        assert by_method["ss"].reorganization_count is None

    def test_profile_mirrors_the_account(self, mixed):
        profiles = profile_shards(mixed)
        accounts = mixed.workload_accounts()
        for profile, account, shard in zip(profiles, accounts, mixed.shards):
            assert profile.queries == account.queries
            assert profile.inserts == account.inserts
            assert profile.n_objects == shard.n_objects
            assert profile.execution is account.execution


class TestAdvisor:
    def test_candidate_grid_expands_only_reorganizing_methods(self):
        cost = CostParameters.memory_defaults(DIMENSIONS)
        designs = candidate_designs(
            ["ac", "ss"],
            DIMENSIONS,
            cost,
            division_factors=(2, 4),
            reorganization_periods=(50,),
        )
        described = [design.describe() for design in designs]
        assert described == ["ac(f=2, p=50)", "ac(f=4, p=50)", "ss"]

    def test_advise_requires_a_replay_window(self):
        database = ShardedDatabase.create("ss", DIMENSIONS, shards=2)
        database.bulk_load(make_pairs(40, seed=13))
        with pytest.raises(ValueError, match="no queries to replay"):
            advise(database)

    def test_advise_ranks_ascending_and_is_deterministic(self, mixed):
        first = advise(mixed, warmup_queries=30)
        second = advise(mixed, warmup_queries=30)
        assert first.to_json() == second.to_json()
        for shard in first.shards:
            scores = [scored.modeled_time_ms for scored in shard.ranked]
            assert scores == sorted(scores)
            assert shard.best is shard.ranked[0]

    def test_recommendations_can_diverge_per_shard(self, mixed):
        recommendation = advise(mixed, warmup_queries=30)
        assert len(recommendation.shards) == 3
        report = recommendation.to_human()
        for position in range(3):
            assert f"shard {position}" in report

    def test_apply_recommendation_migrates_suggested_shards(self, mixed):
        queries = make_queries(8, seed=14)
        before = [mixed.execute(query).ids.tobytes() for query in queries]
        recommendation = advise(mixed, warmup_queries=30)
        suggested = [s.profile.position for s in recommendation.shards if s.migration_suggested]
        migrations = apply_recommendation(mixed, recommendation)
        assert [entry["position"] for entry in migrations] == suggested
        after = [mixed.execute(query).ids.tobytes() for query in queries]
        assert before == after

    def test_design_describe_and_dict(self):
        gridded = CandidateDesign("ac", division_factor=4, reorganization_period=100)
        assert gridded.describe() == "ac(f=4, p=100)"
        assert CandidateDesign("rs").describe() == "rs"
        assert gridded.as_dict()["division_factor"] == 4


# ----------------------------------------------------------------------
# Configuration surface and the Database facade
# ----------------------------------------------------------------------
class TestAutoTuneOptions:
    def test_defaults_are_the_ablation_grids(self):
        options = AutoTuneOptions()
        assert options.division_factors == (2, 4, 8)
        assert options.reorganization_periods == (25, 100, 400)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"methods": ()},
            {"division_factors": (1,)},
            {"division_factors": ()},
            {"reorganization_periods": (-1,)},
            {"sample_objects": 0},
            {"sample_queries": -2},
            {"warmup_queries": -1},
        ],
    )
    def test_invalid_options(self, kwargs):
        with pytest.raises(ValueError):
            AutoTuneOptions(**kwargs)

    def test_config_requires_sharding(self):
        with pytest.raises(ValueError, match="auto_tune"):
            DatabaseConfig(method="ac", auto_tune=AutoTuneOptions())
        config = DatabaseConfig(method="ac", shards=2, auto_tune=AutoTuneOptions())
        assert config.as_dict()["auto_tune"]["methods"] == ["ac", "rs", "ss"]


class TestDatabaseFacade:
    def test_from_config_carries_auto_tune_into_advise(self):
        options = AutoTuneOptions(
            methods=("ac", "ss"),
            division_factors=(2,),
            reorganization_periods=(50,),
            warmup_queries=20,
        )
        database = Database.from_config(
            DatabaseConfig(method="ss", shards=2, dimensions=DIMENSIONS, auto_tune=options)
        )
        assert database.auto_tune == options
        database.bulk_load(make_pairs(60, seed=15))
        database.query_batch(make_queries(6, seed=16))
        recommendation = advise_via_facade = database.advise()
        assert recommendation.parameters["methods"] == ["ac", "ss"]
        assert recommendation.parameters["division_factors"] == [2]
        assert advise_via_facade.parameters["warmup_queries"] == 20

    def test_advise_and_migrate_require_sharding(self):
        database = Database.create("ac", dimensions=DIMENSIONS)
        with pytest.raises(UnsupportedOperation):
            database.advise()
        with pytest.raises(UnsupportedOperation):
            database.migrate_shard(0, "ss")

    def test_facade_migrate_shard_delegates(self):
        database = Database.create("ss", dimensions=DIMENSIONS, shards=2)
        database.bulk_load(make_pairs(50, seed=17))
        queries = make_queries(5, seed=18)
        before = [database.query(query).tobytes() for query in queries]
        database.migrate_shard(0, "ac")
        assert [database.query(query).tobytes() for query in queries] == before

    def test_durable_migration_is_refused(self, tmp_path):
        database = Database.create(
            "ac", dimensions=DIMENSIONS, shards=2, durable=True, wal_dir=tmp_path / "wal"
        )
        with pytest.raises(UnsupportedOperation, match="write-ahead log"):
            database.migrate_shard(0, "ac")
