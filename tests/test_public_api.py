"""Tests of the top-level public API surface (`import repro`)."""

import numpy as np
import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_core_entry_points_exported(self):
        for name in (
            "AdaptiveClusteringIndex",
            "AdaptiveClusteringConfig",
            "SequentialScan",
            "RStarTree",
            "HyperRectangle",
            "SpatialRelation",
            "CostParameters",
            "generate_uniform_dataset",
            "generate_query_workload",
            "ExperimentHarness",
            "format_experiment_result",
            # the backend API
            "SpatialBackend",
            "Capabilities",
            "QueryResult",
            "UnsupportedOperation",
            "Database",
            "create_backend",
            "register_backend",
            "registered_backends",
        ):
            assert name in repro.__all__

    def test_module_docstring_mentions_the_paper(self):
        assert "EDBT 2004" in repro.__doc__


class TestDocstringExample:
    def test_quickstart_snippet_from_module_docstring(self):
        """The example shown in the package docstring works as written."""
        from repro import AdaptiveClusteringIndex, HyperRectangle, SpatialRelation

        index = AdaptiveClusteringIndex(dimensions=4)
        index.insert(1, HyperRectangle([0.1, 0.1, 0.1, 0.1], [0.3, 0.2, 0.4, 0.2]))
        index.insert(2, HyperRectangle([0.6, 0.5, 0.7, 0.6], [0.9, 0.8, 0.9, 0.9]))
        results = index.query(
            HyperRectangle([0.0, 0.0, 0.0, 0.0], [0.5, 0.5, 0.5, 0.5]),
            SpatialRelation.INTERSECTS,
        )
        assert sorted(results.tolist()) == [1]


class TestUniformMethodInterface:
    """All three access methods honour the same public protocol."""

    @pytest.fixture(params=["adaptive", "scan", "rstar"])
    def method(self, request):
        dimensions = 4
        if request.param == "adaptive":
            return repro.AdaptiveClusteringIndex(dimensions=dimensions)
        if request.param == "scan":
            return repro.SequentialScan(dimensions)
        return repro.RStarTree(dimensions)

    def test_insert_query_delete_cycle(self, method, rng):
        assert isinstance(method, repro.SpatialBackend)
        boxes = {}
        for object_id in range(60):
            lows = rng.random(4) * 0.6
            box = repro.HyperRectangle(lows, np.minimum(lows + 0.3, 1.0))
            method.insert(object_id, box)
            boxes[object_id] = box
        assert method.n_objects == 60
        assert len(method) == 60
        assert 10 in method

        query = repro.HyperRectangle.unit(4)
        result = method.execute(query)
        assert isinstance(result, repro.QueryResult)
        assert set(result.ids.tolist()) == set(boxes)
        stats = result.execution
        assert stats.results == 60
        assert stats.objects_verified >= stats.results

        assert method.delete(10) is True
        assert method.delete(10) is False
        assert 10 not in method
        assert set(method.query(query).tolist()) == set(boxes) - {10}

    def test_stats_shims_are_gone_and_unpacking_replaces_them(self, method):
        method.insert(0, repro.HyperRectangle.unit(4))
        assert not hasattr(method, "query_with_stats")
        assert not hasattr(method, "query_batch_with_stats")
        # QueryResult tuple-unpacks, covering the removed tuple call shape.
        results, stats = method.execute(repro.HyperRectangle.unit(4))
        assert results.tolist() == [0]
        assert stats.results == 1
