"""Compare two sets of benchmark records under the benchmark's own bounds.

    python3 bench/compare.py A.json... -- B.json...

Each side is a list of record files written by ``bench/run.py --out DIR``,
directories holding them, or files holding a JSON list of records.  For
every (workload, end-to-end metric) the two sides' medians are compared
under the metric's ``bound`` and ``better`` direction from
``BENCHMARK.json``:

* ``worse`` / ``better`` — B's median differs from A's by more than the
  bound, in the bad / good direction;
* ``same`` — within the bound;
* ``unresolved`` — the spread within either side (quartile distance over
  the median) exceeds the bound, so a difference cannot be told from noise,
  unless every run of B reads better than every run of A (``better``).

Prints one row per workload and exits 1 when any metric is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

Side = Dict[str, Dict[str, List[float]]]

_SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_side(paths: Sequence[Path]) -> Side:
    """Metric values by workload and name, from the untraced records."""
    values: Side = defaultdict(lambda: defaultdict(list))
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    for file in files:
        loaded = json.loads(file.read_text())
        for record in loaded if isinstance(loaded, list) else [loaded]:
            if not isinstance(record, dict) or "metrics" not in record or record.get("trace"):
                continue
            for name, entry in record["metrics"].items():
                values[record["workload"]][name].append(float(entry["value"]))
    return values


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (third - first) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float, better: str) -> Tuple[str, float]:
    """Status of B against A, and B's change in the bad direction (a share)."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(a)
    worse_by = sign * (statistics.median(b) - base) / abs(base) if base else 0.0
    if spread(a) > bound or spread(b) > bound:
        every_run_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return ("better" if every_run_better else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(a: Side, b: Side, metrics: Sequence[Dict[str, object]]) -> List[str]:
    """One printable row per workload present on both sides."""
    rows = []
    for workload in sorted(set(a) & set(b)):
        cells = []
        for metric in metrics:
            name = str(metric["name"])
            if name not in a[workload] or name not in b[workload]:
                continue
            status, worse_by = verdict(
                a[workload][name], b[workload][name], float(metric["bound"]), str(metric["better"])
            )
            cells.append(f"{name}={status}({100 * worse_by:+.1f}%)")
        rows.append(f"{workload}: " + " ".join(cells))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--" not in args or args.index("--") in (0, len(args) - 1):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    split = args.index("--")
    a = load_side([Path(arg) for arg in args[:split]])
    b = load_side([Path(arg) for arg in args[split + 1 :]])
    metrics = json.loads(_SPEC.read_text())["end_to_end"]
    rows = compare(a, b, metrics)
    for row in rows:
        print(row)
    return 1 if any("=worse(" in row for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
