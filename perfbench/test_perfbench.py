"""Smoke tests of the benchmark itself; run with `python3 -m pytest perfbench -q`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    out = _bench(ROOT, workload, 7, trace)
    assert out.returncode == 0, out.stderr
    *_, meta_line, result_line = out.stdout.strip().splitlines()
    meta = json.loads(meta_line)["perfbench"]
    result = json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert 2 <= result["attempted"] and 0 <= result["failed"] <= result["attempted"]
    assert result["correct"] == (result["failed"] == 0)

    assert meta["trace_seeds"] == ["7"]
    assert meta["env"]["blas_threads"] == "1"
    # smoke jobs miss the convergence gates; structural gates must still hold
    structural = [m for m in meta["failures"] if not m.startswith("final ")]
    assert structural == []
    if trace:
        assert meta["unwrapped"] == []
        calls = result["metrics"]["operators.local_displacement.calls_per_round"]["value"]
        assert (calls > 0) == (workload == "dgd-quadratic")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "dgd-quadratic", 1, 0)
    assert out.returncode != 0
    assert out.stdout == ""
