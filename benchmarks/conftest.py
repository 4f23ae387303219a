"""Shared benchmark plumbing.

Every macro benchmark regenerates one of the paper's tables/experiments;
the rendered table is printed (visible with ``pytest -s``) and also
written to ``benchmarks/results/<name>.txt`` so results survive output
capture.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def _merge_section(stem: str, section: str, payload: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    target = RESULTS_DIR / f"BENCH_{stem}.json"
    data = {}
    if target.exists():
        data = json.loads(target.read_text())
    data[section] = payload
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"\nBENCH_{stem}[{section}]: "
          f"{json.dumps(payload, sort_keys=True)}")


@pytest.fixture
def record_result():
    """Save a rendered experiment table and echo it."""

    def record(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print("\n" + text)

    return record


@pytest.fixture
def record_bench():
    """Merge one named section into a machine-readable results file
    (``benchmarks/results/BENCH_<stem>.json``).

    Sections merge rather than overwrite so separate tests and test
    files accumulate into one artifact per stem for CI to upload."""
    return _merge_section
