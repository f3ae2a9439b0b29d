"""Smoke check of the benchmark: one timed round of ops per workload and mode.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

Asserts that every metric BENCHMARK.json names is emitted with its unit,
that no op differs from its reference (error_rate 0), and that the run
wrote nothing outside perfbench/out/.  It does not gate on time.  With
``--seconds 0`` a run times one round: 48 short fault-free ops, 4 evolve
ops, 4 timeline ops or 6 go-dark ops, in about four minutes in all.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRATCH = os.path.join(ROOT, "perfbench", "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from workloads import WORKLOADS  # noqa: E402  (test-go-dark runs but is not in BENCHMARK.json)


def snapshot() -> dict[str, tuple[int, int]]:
    """(size, mtime) of every file of the checkout outside the scratch output."""
    files = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if os.path.join(dirpath, d) not in (SCRATCH, os.path.join(ROOT, ".git"))]
        for name in filenames:
            path = os.path.join(dirpath, name)
            st = os.stat(path)
            files[path] = (st.st_size, st.st_mtime_ns)
    return files


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_op_per_workload(workload, trace):
    before = snapshot()
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert any(ln.startswith(f"{workload} error_rate 0 ") for ln in lines)
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float), name
        assert any(ln.startswith(f"{workload} {name} ") and ln.endswith(metric["unit"])
                   for ln in lines), name
    assert snapshot() == before


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and perfbench/, it exits non-zero."""
    for path in BENCHMARK["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "evolve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
