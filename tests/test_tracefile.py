"""Trace CSV writing and strict reading, including the snapshot companion."""

from dataclasses import replace

import numpy as np
import pytest

from dkmsim import (
    Affine,
    BlockPartition,
    GraphSchedule,
    OperatorFamily,
    PowerLawStepsize,
    RunConfig,
    build_preset,
    read_trace,
    run,
    snapshot_path_for,
    write_trace,
)
from dkmsim.diagnostics import RECORD
from dkmsim.errors import ConfigError, DivergenceError
from dkmsim.tracefile import read_snapshots

FLOAT_COLUMNS = ("alpha_k", "consensus_residual", "fp_residual", "dist_to_ref")


@pytest.fixture(scope="module")
def dkm_trace():
    sc = build_preset("paper-dkm-6", max_rounds=200)
    return run(replace(sc.config, snapshot_every=50))


@pytest.fixture(scope="module")
def dbkm_trace():
    sc = build_preset("paper-dbkm-100", max_rounds=60)
    return run(sc.config)


def test_round_trip_full_mode(dkm_trace, tmp_path):
    path = tmp_path / "run.csv"
    write_trace(dkm_trace, path)
    parsed = read_trace(path)
    assert parsed.mode == "dkm"
    assert parsed.n_agents == 6
    assert parsed.n == 3
    assert parsed.block_dims == (3,)
    assert parsed.seed == 0
    assert parsed.aborted_at is None
    assert parsed.max_rounds == 200
    assert parsed.stepsize == dkm_trace.stepsize
    assert parsed.state_shape == (6, 3)
    assert parsed.table.dtype == RECORD
    assert parsed.table["k"].tolist() == dkm_trace.table["k"].tolist()
    assert parsed.table["alpha_k"] == pytest.approx(dkm_trace.table["alpha_k"], rel=1e-11)
    for name in ("consensus_residual", "fp_residual", "dist_to_ref"):
        assert parsed.table[name] == pytest.approx(dkm_trace.table[name], rel=1e-11, abs=1e-300), name
    assert (parsed.table["selected_block"] == -1).all()
    assert np.isnan(parsed.table["max_state_norm"]).all()
    assert parsed.snapshot_rounds.tolist() == dkm_trace.snapshot_rounds.tolist()


def test_round_trip_block_mode(dbkm_trace, tmp_path):
    path = tmp_path / "block.csv"
    write_trace(dbkm_trace, path)
    parsed = read_trace(path)
    assert parsed.mode == "dbkm"
    assert parsed.block_dims == (1, 1, 1)
    # every row but the last carries the block drawn for the ensuing step
    blocks = parsed.table["selected_block"].tolist()
    assert blocks[:-1] == dbkm_trace.table["selected_block"][:-1].tolist()
    assert all(b in (0, 1, 2) for b in blocks[:-1])
    assert blocks[-1] == -1


def test_snapshots_round_trip_exactly(dkm_trace, tmp_path):
    path = tmp_path / "run.csv"
    write_trace(dkm_trace, path)
    parsed = read_trace(path)
    assert parsed.snapshot_rounds.tolist() == dkm_trace.snapshot_rounds.tolist() == [0, 50, 100, 150, 200]
    # 17 significant digits reproduce float64 bit for bit
    assert np.array_equal(parsed.snapshots, dkm_trace.snapshots)


def test_snapshot_path_naming():
    assert str(snapshot_path_for("foo.csv")).endswith("foo.snapshots.csv")
    assert str(snapshot_path_for("runs/a.csv")).endswith("runs/a.snapshots.csv")
    assert str(snapshot_path_for("bare")).endswith("bare.snapshots.csv")


def _diverged_trace(**run_kwargs):
    part = BlockPartition.single(1)
    grow = Affine(part, -np.eye(1), np.zeros(1), theta=1.0, validate=False)
    config = RunConfig(
        family=OperatorFamily([grow]),
        stepsize=PowerLawStepsize(1.0, 0.0, 1),
        schedule=GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5),
        max_rounds=1000,
        init=np.array([[1.0]]),
        divergence_limit=1e6,
        **run_kwargs,
    )
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    return exc.value.trace


def test_abort_marker_round_trips(tmp_path):
    trace = _diverged_trace()
    path = tmp_path / "aborted.csv"
    write_trace(trace, path)
    assert f"# aborted at k={trace.aborted_at}" in path.read_text()
    parsed = read_trace(path)
    assert parsed.aborted_at == trace.aborted_at
    assert parsed.table["k"][-1] < trace.aborted_at


# ---------------------------------------------------------------------------
# strict parsing


def write_then_edit(trace, tmp_path, edit):
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    edit(lines)
    tampered = tmp_path / "tampered.csv"
    tampered.write_text("\n".join(lines) + "\n")
    return tampered


def test_duplicate_round_rejected(dkm_trace, tmp_path):
    path = write_then_edit(dkm_trace, tmp_path, lambda L: L.append(L[-1]))
    with pytest.raises(ConfigError, match="does not increase"):
        read_trace(path)


def test_decreasing_round_rejected(dkm_trace, tmp_path):
    def swap_last_two(lines):
        lines[-1], lines[-2] = lines[-2], lines[-1]

    path = write_then_edit(dkm_trace, tmp_path, swap_last_two)
    with pytest.raises(ConfigError, match="does not increase"):
        read_trace(path)


def test_non_finite_value_rejected(dkm_trace, tmp_path):
    def poison(lines):
        parts = lines[-1].split(",")
        parts[2] = "inf"
        lines[-1] = ",".join(parts)

    path = write_then_edit(dkm_trace, tmp_path, poison)
    with pytest.raises(ConfigError, match="non-finite"):
        read_trace(path)


def _edit_field(lines, row, column, text):
    """Set one field of data row `row` (0 is the first, -1 the last); returns its 1-based line number."""
    first = lines.index(next(x for x in lines if x.startswith("k,"))) + 1
    i = first + row if row >= 0 else len(lines) + row
    parts = lines[i].split(",")
    parts[column] = text
    lines[i] = ",".join(parts)
    return i + 1


@pytest.mark.parametrize("row, k", [(0, "-3"), (-1, "500"), (-1, "201")])
def test_round_outside_the_run_rejected(dkm_trace, tmp_path, row, k):
    # dkm_trace ran 200 rounds, so its rows are rounds 0..200
    edited = []
    path = write_then_edit(dkm_trace, tmp_path, lambda L: edited.append(_edit_field(L, row, 0, k)))
    with pytest.raises(ConfigError, match=rf"tampered\.csv:{edited[0]}: round {k} lies outside 0\.\.200"):
        read_trace(path)


@pytest.mark.parametrize("block", ["-1", "3", "7"])
def test_block_outside_the_partition_rejected(dbkm_trace, tmp_path, block):
    # dbkm_trace draws from three blocks; -1 would read back as "no block"
    edited = []
    path = write_then_edit(dbkm_trace, tmp_path, lambda L: edited.append(_edit_field(L, 2, 5, block)))
    message = rf"tampered\.csv:{edited[0]}: column selected_block: block {block} is not one of 0\.\.2"
    with pytest.raises(ConfigError, match=message):
        read_trace(path)


def test_non_numeric_value_rejected(dkm_trace, tmp_path):
    def poison(lines):
        parts = lines[-1].split(",")
        parts[1] = "fast"
        lines[-1] = ",".join(parts)

    path = write_then_edit(dkm_trace, tmp_path, poison)
    with pytest.raises(ConfigError, match="not numeric"):
        read_trace(path)


def test_missing_required_field_rejected(dkm_trace, tmp_path):
    def poison(lines):
        parts = lines[-1].split(",")
        parts[1] = ""
        lines[-1] = ",".join(parts)

    path = write_then_edit(dkm_trace, tmp_path, poison)
    with pytest.raises(ConfigError, match="must be present"):
        read_trace(path)


def test_wrong_column_count_rejected(dkm_trace, tmp_path):
    path = write_then_edit(dkm_trace, tmp_path, lambda L: L.append("1,2,3"))
    with pytest.raises(ConfigError, match="6 columns"):
        read_trace(path)


def test_wrong_header_rejected(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("k,alpha\n0,1.0\n")
    with pytest.raises(ConfigError, match="expected header"):
        read_trace(path)


def test_headerless_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# dkmsim-trace v1\n")
    with pytest.raises(ConfigError, match="no header"):
        read_trace(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        read_trace(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "cell, message",
    [
        ("0,zero,0,1.5", "expected three integers and a number"),
        ("0,0,0,", "expected three integers and a number"),
        ("0,-1,0,1.5", "negative index or non-finite value"),
        ("0,0,0,nan", "negative index or non-finite value"),
        ("1,1,1,1.5", "round 0 has 3 of 2 x 2 snapshot cells"),
    ],
)
def test_malformed_snapshot_rejected(tmp_path, cell, message):
    # round 0 lacks only its (agent 1, coord 1) cell; each case adds one line
    path = tmp_path / "t.snapshots.csv"
    path.write_text("k,agent,coord_index,value\n0,0,0,1.0\n0,0,1,2.0\n0,1,0,3.0\n" + cell + "\n")
    with pytest.raises(ConfigError, match=message):
        read_snapshots(path, (2, 2))


METADATA_KEYS = ("mode", "agents", "dimension", "blocks", "seed", "max_rounds", "alpha0", "gamma", "k0")


@pytest.mark.parametrize("key", METADATA_KEYS)
def test_read_trace_requires_every_metadata_key(dkm_trace, tmp_path, key):
    path = write_then_edit(dkm_trace, tmp_path, lambda L: L.remove(next(x for x in L if x.startswith(f"# {key}="))))
    with pytest.raises(ConfigError, match=f"tampered.csv: trace metadata lacks {key}$"):
        read_trace(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("agents", "six", r"agents='six' does not parse"),
        ("blocks", "1,,2", r"blocks='1,,2' does not parse"),
        ("seed", "0.5", r"seed='0.5' does not parse"),
        ("alpha0", "nan", "alpha0 must be positive and finite"),
        ("gamma", "-1", "gamma must be nonnegative"),
        ("alpha0", "2.0", "alpha_0 = alpha0 / k0\\^gamma = 2 exceeds 1"),
        ("agents", "0", "agents='0' is below 1"),
        ("dimension", "0", "dimension='0' is below 1"),
        ("blocks", "0", "blocks='0' are not positive sizes summing to dimension=3"),
        ("blocks", "1,1", "blocks='1,1' are not positive sizes summing to dimension=3"),
        ("seed", "-1", "seed='-1' is below 0"),
        ("max_rounds", "-7", "max_rounds='-7' is below 1"),
    ],
)
def test_read_trace_rejects_malformed_metadata(dkm_trace, tmp_path, key, value, message):
    def edit(lines):
        i = next(i for i, x in enumerate(lines) if x.startswith(f"# {key}="))
        lines[i] = f"# {key}={value}"

    with pytest.raises(ConfigError, match=message):
        read_trace(write_then_edit(dkm_trace, tmp_path, edit))


# ---------------------------------------------------------------------------
# traces read back with their snapshots


def _every_round_trace(preset, max_rounds, **changes):
    config = build_preset(preset, max_rounds=max_rounds).config
    return run(replace(config, record_every=1, snapshot_every=7, **changes))


PAIR_TRACES = {
    "dkm": lambda: _every_round_trace("paper-dkm-6", 60),
    "dbkm": lambda: _every_round_trace("paper-dbkm-100", 30),
    "centralized": lambda: _every_round_trace("paper-dkm-6", 60, mode="centralized"),
    "diverged": lambda: _diverged_trace(record_every=1, snapshot_every=7),
}


@pytest.mark.parametrize("kind", PAIR_TRACES)
def test_trace_reads_back_as_written(kind, tmp_path):
    trace = PAIR_TRACES[kind]()
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    parsed = read_trace(path)
    assert (parsed.mode, parsed.aborted_at, parsed.state_shape) == (trace.mode, trace.aborted_at, trace.state_shape)
    assert len(parsed.table) == len(trace.table)
    for name in ("k", "selected_block"):
        assert parsed.table[name].tolist() == trace.table[name].tolist(), name
    for name in FLOAT_COLUMNS:
        # NaN, an empty field, reads back as NaN
        assert parsed.table[name] == pytest.approx(trace.table[name], rel=1e-11, abs=1e-300, nan_ok=True), name
    snapshot_rounds = parsed.snapshot_rounds.tolist()
    assert snapshot_rounds == trace.snapshot_rounds.tolist()
    assert parsed.snapshots.tobytes() == trace.snapshots.tobytes()
    assert snapshot_rounds and all(k % 7 == 0 for k in snapshot_rounds[:-1])


def _companion_lines(trace, tmp_path):
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    return path, snapshot_path_for(path).read_text().splitlines()


def test_companion_cell_out_of_order_rejected(dkm_trace, tmp_path):
    path, lines = _companion_lines(dkm_trace, tmp_path)
    lines[2], lines[3] = lines[3], lines[2]
    snapshot_path_for(path).write_text("\n".join(lines) + "\n")
    message = r"t\.snapshots\.csv:3: expected agent 0, coordinate 1 of round 0, got '0,0,2,"
    with pytest.raises(ConfigError, match=message):
        read_trace(path)


def test_companion_round_the_trace_did_not_record_rejected(dkm_trace, tmp_path):
    path, _ = _companion_lines(dkm_trace, tmp_path)
    rows = path.read_text().splitlines()
    path.write_text("\n".join(line for line in rows if not line.startswith("50,")) + "\n")
    with pytest.raises(ConfigError, match="snapshot round 50 is not a round the trace recorded"):
        read_trace(path)


def test_companion_truncated_last_round_rejected(dkm_trace, tmp_path):
    path, lines = _companion_lines(dkm_trace, tmp_path)
    snapshot_path_for(path).write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ConfigError, match="round 200 has 17 of 6 x 3 snapshot cells"):
        read_trace(path)


def test_centralized_companion_with_every_agent_rejected(tmp_path):
    trace = run(replace(build_preset("paper-dkm-6", max_rounds=20).config, mode="centralized", snapshot_every=10))
    path, lines = _companion_lines(trace, tmp_path)
    assert trace.state_shape == (1, 3) and trace.n_agents == 6
    # the same state written once per agent, as a 6-row companion would hold it
    lines[1:] = [
        f"{k},{agent},{coord},{format(state[0, coord], '.17g')}"
        for k, state in zip(trace.snapshot_rounds.tolist(), trace.snapshots)
        for agent in range(6)
        for coord in range(3)
    ]
    snapshot_path_for(path).write_text("\n".join(lines) + "\n")
    message = r"t\.snapshots\.csv:5: round 0 does not increase past 0 \(a round holds 1 x 3 cells\)"
    with pytest.raises(ConfigError, match=message):
        read_trace(path)
