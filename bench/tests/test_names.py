"""The runner emits exactly the workload and metric names of BENCHMARK.json.

Runs the real runner at tiny scale: one untraced and one traced run of the
process-sharded workload, whose trace path (forked shard workers) has the
most moving parts.
"""

import json
from pathlib import Path

import pytest

from bench.runner import main, run_workload
from bench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _names(section: str) -> list:
    return [entry["name"] for entry in SPEC[section]]


def test_workload_names_match() -> None:
    assert _names("workloads") == list(WORKLOADS)
    assert [entry["why"] for entry in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_metric_names_match(tmp_path: Path, trace: bool, section: str) -> None:
    result = run_workload("shard-mixed", 3, 1.5, trace, tmp_path)
    assert result.correct, result.problems
    assert result.failed == 0 and result.attempted > 0
    assert sorted(result.metrics) == sorted(_names(section))
    units = {entry["name"]: entry["unit"] for entry in SPEC[section]}
    assert {name: unit for name, (_, unit) in result.metrics.items()} == units


def test_last_line_is_the_result(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    code = main(["--workload", "shard-mixed", "--seed", "4", "--seconds", "1",
                 "--trace", "1", "--out", str(tmp_path)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True
    assert sorted(last["metrics"]) == sorted(_names("per_layer"))
    assert (tmp_path / "shard-mixed-seed4-trace.json").is_file()
    assert (tmp_path / "trace-shard-mixed.json").is_file()
