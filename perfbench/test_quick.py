"""Quick test of the benchmark itself, on reduced inputs:

    python3 -m pytest -q perfbench/test_quick.py

Every workload emits every metric of BENCHMARK.json with its unit, passes
its checks, and fails them once one of its outputs is corrupted. A
directory that holds only the benchmark, without the program, makes the
benchmark exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HOP = workloads.HOP


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_quick_run_emits_every_metric_with_its_unit(name, trace, tmp_path):
    result, problems, _ = run.run_workload(name, seed=3, seconds=0.2, trace=bool(trace),
                                           work=tmp_path, size="quick")
    assert problems == []
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted
    for k, v in result["metrics"].items():
        assert math.isfinite(v["value"]), k
        if not trace:
            assert v["value"] > 0, k


def _bump(arr, i, by):
    arr[i] += by


CORRUPTIONS = {
    "stream-paper": [lambda ev: _bump(ev["streamed"], 200, 1e-6)],
    "enhance-tiny": [lambda ev: _bump(ev["clips"][0]["causal"], 2000, 1e-3),
                     lambda ev: _bump(ev["clips"][0]["dist_u"], 0, 0.01)],
    "train-paper": [lambda ev: ev["losses"].__setitem__(0, np.nextafter(ev["losses"][0], np.inf)),
                    lambda ev: ev["fd"]["rows"][-1].__setitem__(
                        "analytic", ev["fd"]["rows"][-1]["analytic"] * 1.001 + 1e-8)],
    "align-online": [lambda ev: ev["finals"].__setitem__(
        0, (ev["finals"][0][0], ev["finals"][0][1] + 2 * HOP, ev["finals"][0][2]))],
}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_corrupted_output_fails_its_check(name, tmp_path):
    measure, check = workloads.WORKLOADS[name]
    for corrupt in CORRUPTIONS[name]:
        ran = measure(3, 0.2, tmp_path, size="quick")
        assert check(ran.evidence) == []
        corrupt(ran.evidence)
        assert check(ran.evidence), f"{name}: corrupted output passed the check"


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream-paper",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
