"""Tests for the command-line experiment runner."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["fig7"])
        assert args.command == "fig7"
        for command in (
            "fig7",
            "fig8",
            "point-enclosing",
            "ablation-division-factor",
            "ablation-reorganization-period",
            "ablation-disk-access-time",
            "page-bench",
        ):
            assert parser.parse_args([command]).command == command

    def test_repair_takes_source_and_destination(self):
        parser = build_parser()
        args = parser.parse_args(["repair", "broken", "fixed", "--format", "json"])
        assert args.command == "repair"
        assert args.source == "broken"
        assert args.destination == "fixed"
        assert args.format == "json"
        with pytest.raises(SystemExit):
            parser.parse_args(["repair", "broken"])  # destination is required

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenario_choices(self):
        parser = build_parser()
        assert parser.parse_args(["fig7", "--scenario", "disk"]).scenario == "disk"
        with pytest.raises(SystemExit):
            parser.parse_args(["fig7", "--scenario", "tape"])

    def test_methods_flag_accepts_any_registry_name(self):
        parser = build_parser()
        args = parser.parse_args(["fig7", "--methods", "adaptive", "SCAN", "rs"])
        assert args.methods == ["adaptive", "SCAN", "rs"]
        args = parser.parse_args(["pubsub-bench", "--methods", "ac"])
        assert args.methods == ["ac"]

    def test_ablations_reject_methods(self, capsys):
        # The ablations compare AC against the scan baseline by design.
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["ablation-division-factor", "--methods", "ac"])
        assert "--methods" in capsys.readouterr().err

    def test_disk_access_ablation_rejects_scenario(self, capsys):
        # The disk-access-time ablation is disk-only by construction: it
        # sweeps a disk cost constant, so --scenario must not be accepted
        # (it used to be parsed and then silently dropped).
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["ablation-disk-access-time", "--scenario", "memory"])
        assert "--scenario" in capsys.readouterr().err
        args = parser.parse_args(["ablation-disk-access-time", "--objects", "300"])
        assert not hasattr(args, "scenario")
        assert args.objects == 300


class TestExecution:
    def test_fig7_tiny_run(self, capsys, tmp_path):
        output_file = tmp_path / "report.txt"
        exit_code = main(
            [
                "fig7",
                "--objects", "500",
                "--queries", "4",
                "--warmup", "40",
                "--seed", "1",
                "--output", str(output_file),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "fig7-memory" in printed
        assert "modeled query execution time" in printed
        assert output_file.exists()
        assert "fig7-memory" in output_file.read_text()

    def test_point_enclosing_tiny_run(self, capsys):
        exit_code = main(
            ["point-enclosing", "--objects", "500", "--queries", "4", "--warmup", "40"]
        )
        assert exit_code == 0
        assert "point-enclosing-memory" in capsys.readouterr().out

    def test_methods_subset_resolved_through_registry(self, capsys):
        # Registry aliases select the methods; the report shows only their
        # chart labels.
        exit_code = main(
            [
                "point-enclosing",
                "--objects", "500",
                "--queries", "4",
                "--warmup", "40",
                "--methods", "adaptive", "scan",
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "AC" in printed and "SS" in printed
        assert "RS" not in printed

    def test_pubsub_bench_tiny_run(self, capsys, tmp_path):
        output_file = tmp_path / "stream.txt"
        exit_code = main(
            [
                "pubsub-bench",
                "--subscriptions", "300",
                "--events", "60",
                "--batch-size", "16",
                "--warmup", "20",
                "--seed", "3",
                "--output", str(output_file),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "pubsub-stream-memory" in printed
        assert "events/s" in printed
        assert "subscription churn" in printed
        assert "events/s" in output_file.read_text()

    def test_pubsub_bench_sharded_tiny_run(self, capsys):
        exit_code = main(
            [
                "pubsub-bench",
                "--subscriptions", "300",
                "--events", "60",
                "--shards", "2",
                "--router", "spatial",
                "--methods", "ac",
                "--seed", "3",
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "'shards': 2" in printed and "'router': 'spatial'" in printed

    def test_serve_bench_tiny_run(self, capsys, tmp_path):
        output_file = tmp_path / "serve.txt"
        exit_code = main(
            [
                "serve-bench",
                "--subscriptions", "300",
                "--requests", "80",
                "--clients", "4",
                "--warmup", "20",
                "--methods", "ac", "ss",
                "--seed", "3",
                "--output", str(output_file),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "serve-bench-memory" in printed
        assert "async req/s" in printed
        assert "identical" in printed
        assert "async req/s" in output_file.read_text()

    def test_serve_bench_durable_tiny_run(self, capsys):
        exit_code = main(
            [
                "serve-bench",
                "--subscriptions", "200",
                "--requests", "40",
                "--clients", "2",
                "--warmup", "10",
                "--methods", "ac",
                "--durable",
                "--seed", "4",
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "'durable': True" in printed

    def test_wal_bench_tiny_run(self, capsys, tmp_path):
        output_file = tmp_path / "wal.txt"
        exit_code = main(
            [
                "wal-bench",
                "--objects", "400",
                "--mutations", "80",
                "--batch-size", "16",
                "--seed", "5",
                "--output", str(output_file),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "wal-bench-memory" in printed
        assert "group commit" in printed
        assert "replay rec/s" in printed
        assert "group commit" in output_file.read_text()

    def test_wal_bench_sharded_tiny_run(self, capsys):
        exit_code = main(
            [
                "wal-bench",
                "--objects", "300",
                "--mutations", "60",
                "--shards", "2",
                "--router", "spatial",
                "--seed", "6",
            ]
        )
        assert exit_code == 0
        assert "'shards': 2" in capsys.readouterr().out


    def test_page_bench_tiny_run(self, capsys, tmp_path):
        output_file = tmp_path / "pages.txt"
        exit_code = main(
            [
                "page-bench",
                "--objects", "800",
                "--division-factor", "12",
                "--churn", "0.1", "1.0",
                "--seed", "3",
                "--output", str(output_file),
            ]
        )
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "page-bench-memory" in printed
        assert "incr/full" in printed
        assert "lazy" in printed
        assert "incr/full" in output_file.read_text()

    def test_repair_human_run(self, capsys, tmp_path):
        from repro.api import Database
        from repro.geometry.box import HyperRectangle

        database = Database.create("ac", 2)
        database.bulk_load(
            (object_id, HyperRectangle([0.08 * (object_id % 8), 0.1], [0.7, 0.8]))
            for object_id in range(40)
        )
        source = database.save(tmp_path / "store")
        exit_code = main(["repair", str(source), str(tmp_path / "fixed")])
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "repaired" in printed
        assert "lossless" in printed

    def test_repair_json_run(self, capsys, tmp_path):
        import json

        from repro.api import Database
        from repro.geometry.box import HyperRectangle

        database = Database.create("ac", 2)
        database.bulk_load(
            (object_id, HyperRectangle([0.05 * (object_id % 9), 0.2], [0.6, 0.9]))
            for object_id in range(30)
        )
        source = database.save(tmp_path / "store")
        exit_code = main(
            ["repair", str(source), str(tmp_path / "fixed"), "--format", "json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lossless"] is True
        assert payload["objects_recovered"] == 30

    def test_repair_missing_source_exits_with_code_2(self, capsys, tmp_path):
        exit_code = main(["repair", str(tmp_path / "nowhere"), str(tmp_path / "fixed")])
        assert exit_code == 2
        assert "no paged store" in capsys.readouterr().err


class TestErrorPaths:
    """Bad parameter values exit non-zero with a message, not a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["fig7", "--objects", "-5"],
            ["fig7", "--objects", "0"],
            ["fig7", "--objects", "500", "--queries", "0"],
            ["fig7", "--objects", "500", "--warmup", "-1"],
            ["point-enclosing", "--queries", "-3"],
            ["pubsub-bench", "--subscriptions", "-1"],
            ["pubsub-bench", "--events", "0"],
            ["pubsub-bench", "--batch-size", "0"],
            ["pubsub-bench", "--cache-size", "-1"],
            ["pubsub-bench", "--subscribe-prob", "1.5"],
            ["pubsub-bench", "--unsubscribe-prob", "-0.1"],
            ["pubsub-bench", "--repeat-prob", "2.0"],
            ["pubsub-bench", "--range-fraction", "1.0"],
            ["fig7", "--methods", "btree"],
            ["pubsub-bench", "--methods", "ac", "nonsense"],
            ["pubsub-bench", "--shards", "0"],
            # --router without --shards would silently run unsharded while
            # labelling the report with the requested router.
            ["pubsub-bench", "--router", "spatial"],
            ["serve-bench", "--requests", "0"],
            ["serve-bench", "--clients", "-2"],
            ["serve-bench", "--max-delay-ms", "-1"],
            ["serve-bench", "--router", "spatial"],
            ["wal-bench", "--mutations", "0"],
            ["wal-bench", "--objects", "-1"],
            ["wal-bench", "--batch-size", "0"],
            ["wal-bench", "--router", "spatial"],
            ["page-bench", "--objects", "0"],
            ["page-bench", "--page-size", "-8"],
            ["page-bench", "--division-factor", "0"],
            ["page-bench", "--churn", "0"],
            ["page-bench", "--churn", "1.5"],
            # --durable over a method without snapshot persistence cannot
            # checkpoint; it must fail upfront, not deep in the bench.
            ["serve-bench", "--subscriptions", "50", "--requests", "5",
             "--methods", "ss", "--durable"],
        ],
    )
    def test_invalid_values_exit_with_code_2(self, argv, capsys):
        exit_code = main(argv)
        assert exit_code == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert captured.out == ""

    def test_runner_value_errors_are_reported_cleanly(self, capsys, monkeypatch):
        # Errors the upfront validation cannot anticipate (raised deep
        # inside an experiment) are still reported as a one-line message.
        import repro.cli as cli

        def boom(args):
            raise ValueError("deep experiment failure")

        monkeypatch.setitem(cli._COMMANDS, "fig7", boom)
        exit_code = main(["fig7"])
        assert exit_code == 2
        assert "deep experiment failure" in capsys.readouterr().err
