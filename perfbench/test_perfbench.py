"""Checks on the benchmark itself, one short traced run pair per workload.

    python3 -m pytest perfbench/test_perfbench.py

A traced run alternates untraced and traced iterations of the same
operations; their report bytes must be equal, and the work counts taken at
the wrapped boundaries must repeat exactly between two runs of one seed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1

# Counts computed from each call's inputs; timing must never move them.
EXACT_COUNTS = (
    "graph.d_separated.calls",
    "estimators.psm_att.pairs",
    "learners.fit_gbt.rows",
    "learners.fit_gbt.repeat_calls",
    "refutation.reps",
)


def traced_run(workload: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    sidecar = ROOT / ".bench_work" / f"trace-{workload}-seed{SEED}.json"
    return result, json.loads(sidecar.read_text())


@pytest.fixture(scope="module", params=("validate_gbt", "refute_psm", "estimate_wide"))
def two_runs(request):
    return traced_run(request.param), traced_run(request.param)


def test_traced_report_bytes_equal_untraced(two_runs):
    for result, sidecar in two_runs:
        hashes = sidecar["hashes"]
        assert hashes["traced"], "no traced iteration ran"
        assert hashes["traced"] == hashes["untraced"][: len(hashes["traced"])]
        assert result["correct"]


def test_counts_repeat_exactly(two_runs):
    (first, _), (second, _) = two_runs
    for name in EXACT_COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_traced_run_reports_every_per_layer_metric(two_runs):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    for result, _sidecar in two_runs:
        assert [m["name"] for m in declared] == list(result["metrics"])
        for m in declared:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
