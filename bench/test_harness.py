"""Reduced-size smoke test of the benchmark harness.

Run from the repository root (the tier-1 suite does not collect it):

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_source_tree()
import workloads  # noqa: E402  (needs the source tree on sys.path)

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_json_matches_harness():
    assert _units(BENCHMARK["end_to_end"]) == run.END_TO_END
    assert _units(BENCHMARK["per_layer"]) == run.PER_LAYER
    for w in BENCHMARK["workloads"]:
        assert w["name"] in run.WORKLOADS
        assert w["why"] == workloads.WHY[w["name"]]


@pytest.mark.parametrize("workload", run.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_results_file_lists_every_metric(workload, trace):
    run.run(workload, seed=3, seconds=0.1, trace=trace, size="smoke")
    path = run.WORK / "results" / f"{workload}-seed3-trace{int(trace)}.json"
    saved = json.loads(path.read_text())
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in saved["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in saved["metrics"].values())
    assert saved["correct"], saved["errors"]
    assert saved["attempted"] == len(saved["commands"]) == len(saved["outcomes"]) >= 1
    assert saved["failed"] == sum(not o["ok"] for o in saved["outcomes"].values())
    assert set(saved["machine"]) >= {"nproc", "python", "numpy"}
    for e in saved["executions"]:
        assert e["command"] in saved["commands"]


def test_work_counters_repeat_for_one_seed():
    first = run.run("floquet_orbits", seed=5, seconds=0.2, trace=True, size="smoke")
    second = run.run("floquet_orbits", seed=5, seconds=0.2, trace=True, size="smoke")
    a = {e["command"]: e["counters"] for e in first["executions"] if "counters" in e}
    b = {e["command"]: e["counters"] for e in second["executions"] if "counters" in e}
    common = a.keys() & b.keys()
    assert common
    assert all(a[k] == b[k] for k in common)
    assert first["commands"] == {k: v for k, v in second["commands"].items()
                                 if k in first["commands"]}


def test_inputs_follow_the_seed():
    sizes = workloads.SIZES["smoke"]
    for workload in run.WORKLOADS:
        same = workloads.generate(workload, 7, sizes)
        assert same == workloads.generate(workload, 7, sizes)
        assert same != workloads.generate(workload, 8, sizes)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "floquet_orbits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
