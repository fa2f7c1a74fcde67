"""Self-test of the benchmark harness.

    python3 -m pytest -q bench/tests/selftest.py

For each workload it makes two tiny untraced runs with one seed and one
traced run. It checks that every metric BENCHMARK.json declares is printed
with its unit, that the per-class figures are reported, and that the
same-seed runs give identical outcome histograms and error and match
ratios. The file name keeps it out of the package's own test run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "0.5"

NAMED = {
    "atlas_validate": ["validate_ms_p50", "validate_ms_p90"],
    "level_band": ["level_ms_p50", "level_ms_p90", "level_match_ratio",
                   "census_level_match_ratio"],
    "reach": ["witness_ms_p50", "witness_ms_p90", "converge_ms_p50", "trajectory_ms_p50"],
}
EXACT = ["error_rate", "census_error_rate", "level_match_ratio", "census_level_match_ratio"]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_runs" /
                         f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def reported(record) -> dict:
    """Printed report lines as {name: (value text, unit)}."""
    return {line.split()[0]: (line.split()[1], line.split()[2]) for line in record["report"]}


def check_declared(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        assert m["better"] in ("lower", "higher"), m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload(workload):
    first, rec1 = run(workload, 7, 0)
    check_declared(first, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        assert first["metrics"][m["name"]]["value"] > 0, m["name"]
    named = reported(rec1)
    for name in NAMED[workload] + ["error_rate", "census_error_rate"]:
        assert name in named, name

    second, rec2 = run(workload, 7, 0)
    assert rec1["outcomes"] == rec2["outcomes"]
    assert rec1["census"] == rec2["census"]
    assert first["attempted"] == second["attempted"]
    again = reported(rec2)
    for name in EXACT:
        assert named.get(name) == again.get(name), name

    traced, rec3 = run(workload, 7, 1)
    check_declared(traced, SPEC["per_layer"])
    assert rec3["outcomes"] == rec1["outcomes"]
    assert rec3["absent"] == []
    assert rec3["spans"], "the traced run keeps its spans"
    assert traced["metrics"]["trace.ops_per_s_traced"]["value"] > 0
