"""Write the byte-identity set of this tree: each command's files, stdout, stderr and exit code.

Usage: python tools/identity.py OUT

Run it on two trees and `diff -r` the two OUT directories; an empty diff
means every trace, snapshot companion, exported config and printed line is
unchanged. The set:
  - `run` of every preset at seeds 0 and 3, with and without --snapshot-cadence 50;
  - `export` of every preset, to stdout and to a file;
  - `oracle` and `validate` of every preset;
  - export -> run with record_every 1 and snapshot_every 50 -> `compare
    --max-dist 5e-2`, without and with the exported reference;
  - a config whose lone agent doubles its state every round, and two of 4 agents
    x 4 coordinates on a graph of weight 1.01 (dkm and dbkm) that pass two
    divergence-guard windows before they diverge; each exported, run to
    divergence and compared;
  - a block-sampled config that records every 3rd round and snapshots every
    7th, over 5000 rounds (a multiple of neither) and four windows; exported,
    run and compared.
Those exports cover the consensus, explicit-graph and staircase forms.
Each case runs in its own directory under OUT with relative paths, so no
output names the tree. OUT must not exist. dkmsim is imported from the src/
beside this script; the rest is the standard library.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dkmsim.cli import main  # noqa: E402
from dkmsim.config import load_config, save_config  # noqa: E402
from dkmsim.scenarios import PRESET_NAMES  # noqa: E402

SEEDS = (0, 3)
CADENCE = "50"
MAX_DIST = "5e-2"
# YAML reads JSON, so the config is written with the standard library
DOUBLING = {
    "problem": {"kind": "consensus", "agents": 1, "dimension": 1},
    "graph": {"matrices": [[[2.0]]], "window": 1, "weight_floor": 0.4},
    "stepsize": {"gamma": 0.7},
    "run": {"mode": "dkm", "max_rounds": 500, "seed": 0},
    "output": {"trace": "trace.csv"},
}
# rows of weight 1.01: states grow by about 1 % a round, past the limit after ~2,700 rounds
GROWING = {
    "matrices": [[[0.505 if j in (i, (i + 1) % 4) else 0.0 for j in range(4)] for i in range(4)]],
    "window": 1,
    "weight_floor": 0.4,
}
DIVERGENT = {
    "doubling": DOUBLING,
    "window-dkm": {
        "problem": {"kind": "consensus", "agents": 4, "dimension": 4},
        "graph": GROWING,
        "stepsize": {"gamma": 0.7},
        "run": {"mode": "dkm", "max_rounds": 5000, "seed": 0},
        "output": {"trace": "trace.csv"},
    },
    "window-dbkm": {
        "problem": {"kind": "distance", "sets": [{"kind": "box", "lower": [-1.0] * 4, "upper": [1.0] * 4}] * 4},
        "graph": GROWING,
        "stepsize": {"gamma": 0.7},
        "run": {"mode": "dbkm", "max_rounds": 8000, "seed": 0, "blocks": [1, 1, 1, 1]},
        "output": {"trace": "trace.csv"},
    },
}

# coprime record and snapshot cadences; 4 agents x 3 coordinates make windows of 1365 rounds
COPRIME = {
    "problem": {"kind": "distance", "staircase_agents": 4},
    "graph": {"ring": {"agents": 4, "period": 1, "weight": 0.5}},
    "stepsize": {"gamma": 0.7},
    "run": {
        "mode": "dbkm", "max_rounds": 5000, "seed": 0, "blocks": [1, 1, 1], "record_every": 3, "snapshot_every": 7,
    },
    "output": {"trace": "trace.csv"},
}


def call(case: Path, name: str, *argv: str):
    """Run one dkmsim command inside case/, saving its stdout, stderr and exit code as name.*."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(case)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except Exception as e:  # an escaped error is an outcome to compare as well
                code = f"{type(e).__name__}: {e}"
    finally:
        os.chdir(home)
    (case / f"{name}.stdout").write_text(out.getvalue())
    (case / f"{name}.stderr").write_text(err.getvalue())
    (case / f"{name}.exit").write_text(f"{code}\n")
    return code


def round_trip(case: Path, preset: str) -> None:
    call(case, "export", "export", preset, "--output", "exported.yaml")
    doc = load_config(case / "exported.yaml")
    doc["run"].update(record_every=1, snapshot_every=int(CADENCE))
    doc["output"]["trace"] = "trace.csv"
    save_config(doc, case / "run.yaml")
    call(case, "run", "run", "run.yaml")
    call(case, "compare", "compare", "trace.csv", "--max-dist", MAX_DIST)
    if "reference" in doc["run"]:
        (case / "reference.json").write_text(json.dumps(doc["run"]["reference"]))
        call(case, "compare-reference", "compare", "trace.csv", "--reference", "reference.json", "--max-dist", MAX_DIST)


def cases():
    """(case name, function of its directory) for every case of the set."""
    for preset in PRESET_NAMES:
        for seed in SEEDS:
            argv = ("run", preset, "--seed", str(seed), "--output", "trace.csv")
            yield f"run-{preset}-seed{seed}", lambda case, argv=argv: call(case, "run", *argv)
            yield (
                f"run-{preset}-seed{seed}-cadence{CADENCE}",
                lambda case, argv=argv: call(case, "run", *argv, "--snapshot-cadence", CADENCE),
            )
        for command in ("export", "oracle", "validate"):
            yield f"{command}-{preset}", lambda case, preset=preset, command=command: call(case, command, command, preset)
        yield f"roundtrip-{preset}", lambda case, preset=preset: round_trip(case, preset)

    def divergent(case: Path, name: str) -> None:
        (case / f"{name}.yaml").write_text(json.dumps(DIVERGENT[name], indent=2) + "\n")
        call(case, "export", "export", f"{name}.yaml")
        call(case, "run", "run", f"{name}.yaml", "--skip-validate")
        call(case, "compare", "compare", "trace.csv")

    for name in DIVERGENT:
        yield f"divergent-{name}", lambda case, name=name: divergent(case, name)

    def coprime(case: Path) -> None:
        (case / "coprime.yaml").write_text(json.dumps(COPRIME, indent=2) + "\n")
        call(case, "export", "export", "coprime.yaml")
        call(case, "run", "run", "coprime.yaml")
        call(case, "compare", "compare", "trace.csv")

    yield "cadence-coprime-dbkm", coprime


def write_set(out: Path) -> None:
    out.mkdir(parents=True)
    for name, make in cases():
        start = time.perf_counter()
        case = out / name
        case.mkdir()
        make(case)
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    if Path(sys.argv[1]).exists():
        sys.exit(f"{sys.argv[1]} exists; give a new directory")
    write_set(Path(sys.argv[1]))
