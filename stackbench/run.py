"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 stackbench/run.py --workload stack_oob --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Every output check runs first; if one fails, the messages go to standard
error and the run exits with code 1 without printing a result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("stack_oob", "mesh_mobile", "fleet_ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="time budget for timed repetitions beyond the minimum")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT))
    from stackbench import bench

    outcome, units = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    if outcome.failures:
        for failure in outcome.failures:
            print(f"check failed: {failure}", file=sys.stderr)
        return 1
    for line in outcome.lines:
        print(line)
    print(json.dumps(outcome.result_document(units)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
