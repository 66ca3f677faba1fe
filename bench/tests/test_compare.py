"""``compare``: medians against each metric's bound and direction."""

import json
from pathlib import Path

import pytest

from bench.compare import compare, load_side, main, spread, verdict


def test_spread_is_quartile_distance_over_median() -> None:
    assert spread([100.0]) == 0.0
    assert spread([90.0, 95.0, 100.0, 105.0, 110.0]) == pytest.approx(0.15)


@pytest.mark.parametrize(
    "b, better, status",
    [
        ([100.0, 101.0, 99.0, 100.5, 99.5], "lower", "same"),
        ([115.0, 116.0, 114.0, 115.5, 114.5], "lower", "worse"),
        ([115.0, 116.0, 114.0, 115.5, 114.5], "higher", "better"),
        ([85.0, 86.0, 84.0, 85.5, 84.5], "higher", "worse"),
        ([85.0, 86.0, 84.0, 85.5, 84.5], "lower", "better"),
    ],
)
def test_bound_and_direction(b: list, better: str, status: str) -> None:
    a = [100.0, 100.5, 99.5, 101.0, 99.0]
    assert verdict(a, b, 0.10, better)[0] == status


def test_a_spread_wider_than_the_bound_is_unresolved() -> None:
    a = [100.0, 100.5, 99.5, 101.0, 99.0]
    noisy = [80.0, 120.0, 95.0, 140.0, 70.0]
    assert verdict(a, noisy, 0.10, "lower")[0] == "unresolved"
    assert verdict(noisy, a, 0.10, "lower")[0] == "unresolved"
    # Unless every run of B reads better than every run of A.
    low_noisy = [50.0, 60.0, 40.0, 65.0, 45.0]
    assert verdict(a, low_noisy, 0.10, "lower")[0] == "better"
    assert verdict(a, low_noisy, 0.10, "higher")[0] == "unresolved"


def _record(directory: Path, name: str, workload: str, value: float, trace: bool = False) -> None:
    metric = "index.reorgs" if trace else "ops_per_s"
    (directory / name).write_text(json.dumps({
        "workload": workload,
        "trace": trace,
        "metrics": {metric: {"value": value, "unit": "1/s"}},
    }))


def test_sides_load_untraced_records_and_rows_per_workload(tmp_path: Path) -> None:
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    a_dir.mkdir()
    b_dir.mkdir()
    for seed, value in enumerate([100.0, 101.0, 99.0]):
        _record(a_dir, f"w-{seed}.json", "w", value)
        _record(b_dir, f"w-{seed}.json", "w", value * 0.6)
        _record(b_dir, f"w-{seed}-trace.json", "w", 5.0, trace=True)
    side = load_side([a_dir])
    assert dict(side["w"]) == {"ops_per_s": [100.0, 101.0, 99.0]}
    metrics = [{"name": "ops_per_s", "bound": 0.1, "better": "higher"}]
    assert compare(side, load_side([b_dir]), metrics) == ["w: ops_per_s=worse(+40.0%)"]
    assert main([str(a_dir), "--", str(b_dir)]) == 1
    assert main([str(a_dir), "--", str(a_dir)]) == 0
    assert main([str(a_dir)]) == 2
