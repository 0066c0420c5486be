"""Traces that do not depend on the BLAS kernel OpenBLAS picks for the CPU.

OPENBLAS_CORETYPE sets the kernel for one process, so each kernel runs in a
subprocess of its own. On a host whose default kernel is Haswell or
Prescott, or with a numpy built without OpenBLAS (which ignores the
variable), one pair compares a kernel with itself and cannot fail.

The quadratic kind stays on BLAS, so its traces depend on the kernel; what
must hold under each kernel is that its two matrix-vector forms agree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

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


# test_operators' check of np.matvec against the stacked matmul, bit for bit
MATVEC_SCRIPT = """
from test_operators import test_matvec_equals_the_stacked_matmul_bit_for_bit
test_matvec_equals_the_stacked_matmul_bit_for_bit()
print("matvec ok")
"""


def run_under(coretype, script):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join((str(SRC), str(TESTS))))
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def default_hashes():
    return run_under(None, SCRIPT)


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_box_and_huber_traces_do_not_depend_on_the_blas_kernel(default_hashes, coretype):
    assert len(default_hashes) == 6
    assert run_under(coretype, SCRIPT) == default_hashes


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_matvec_equals_the_stacked_matmul_under_the_blas_kernel(coretype):
    assert run_under(coretype, MATVEC_SCRIPT) == ["matvec ok"]
