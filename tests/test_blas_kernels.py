"""Traces that do not depend on the BLAS kernel OpenBLAS picks for the CPU.

OPENBLAS_CORETYPE sets the kernel for one process, so each kernel runs in a
subprocess of its own. On a host whose default kernel is Haswell or
Prescott, or with a numpy built without OpenBLAS (which ignores the
variable), one pair compares a kernel with itself and cannot fail.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# one sha256 per (preset, seed) of the table's and snapshots' bytes
SCRIPT = """
import hashlib
from dataclasses import replace
from dkmsim import build_preset, run
for name in ("paper-dkm-6", "paper-dbkm-100", "dgd-huber"):
    for seed in (0, 3):
        config = replace(build_preset(name, seed=seed, max_rounds=2000).config, snapshot_every=100)
        trace = run(config, validate=False)
        print(name, seed, hashlib.sha256(trace.table.tobytes() + trace.snapshots.tobytes()).hexdigest())
"""


def trace_hashes(coretype):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def default_hashes():
    return trace_hashes(None)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_box_and_huber_traces_do_not_depend_on_the_blas_kernel(default_hashes, coretype):
    assert len(default_hashes) == 6
    assert trace_hashes(coretype) == default_hashes
