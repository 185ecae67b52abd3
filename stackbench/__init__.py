"""Full-stack benchmark for the LoRa mesh monitoring system.

Run ``python3 stackbench/run.py --workload stack_oob --seed 1 --seconds 20
--trace 0`` from the repository root; see ``stackbench/README.md``.

The benchmark drives the program in ``src/`` as a black box: it only
builds scenarios and servers through ``repro.api`` and times calls from
its own wrappers.  Importing this package puts the checkout's ``src``
directory first on ``sys.path`` so that the code under test is always the
copy next to the benchmark, never an installed one.
"""

import sys
from pathlib import Path

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

if str(SRC_DIR) not in sys.path:
    sys.path.insert(0, str(SRC_DIR))
