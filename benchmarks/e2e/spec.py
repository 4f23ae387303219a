"""The declared names: ``BENCHMARK.json`` is the single source.

The benchmark emits exactly the metrics that file lists, under exactly
those names and units, and ``--aa`` judges run-to-run agreement by the
bounds it fixes.  Nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import pathlib
from typing import List

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: ``failed_share`` may rise by this much (absolute) before ``--aa`` or a
#: reader of two records calls it a regression.  It is 0 on every workload,
#: so it cannot carry a relative bound in ``BENCHMARK.json``; the driver
#: reads it from the result line's ``failed`` / ``attempted`` instead.
FAILED_SHARE_BOUND = 0.001


def load() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]
