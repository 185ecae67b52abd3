"""Names, units and directions of every metric the benchmark reports,
read from ``BENCHMARK.json`` at the repository root."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _metrics(section: str) -> Dict[str, Tuple[str, str]]:
    document = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {entry["name"]: (entry["unit"], entry["better"]) for entry in document[section]}


#: name -> (unit, better).  Reported by plain runs (``--trace 0``) on
#: every workload.
END_TO_END = _metrics("end_to_end")
#: name -> (unit, better).  Reported by traced runs (``--trace 1``) on
#: every workload; a layer that does no work on a workload reports 0.
PER_LAYER = _metrics("per_layer")
