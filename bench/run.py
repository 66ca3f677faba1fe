"""Run the serving benchmark from the repository root.

    python3 bench/run.py --workload notify-read --seed 1 --seconds 40 --trace 0

or ``PYTHONPATH=src python -m bench.run ...``.  Without ``--workload`` every
workload runs.  See ``bench/README.md`` and :mod:`bench.runner`.
"""

import sys
from pathlib import Path


def _main() -> int:
    # Import the benchmark as a package and the program from its source
    # tree, and keep this directory's modules from shadowing top-level ones.
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path[:] = [str(root), str(root / "src")] + [
        entry for entry in sys.path if Path(entry or ".").resolve() != here
    ]
    from bench.runner import main, stop_resource_tracker

    try:
        return main()
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    sys.exit(_main())
