"""Trace CSV writing and strict reading, including the snapshot companion."""

import functools
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def _append_line(lines, text):
    """Append one line; returns its 1-based line number."""
    lines.append(text)
    return len(lines)


@pytest.mark.parametrize("k", ["-7", "0", "201", "99999"])
def test_abort_marker_outside_the_run_rejected(dkm_trace, tmp_path, k):
    # a run of 200 rounds that diverges in round A - 1 writes k=A, with A in 1..200
    edited = []
    path = write_then_edit(dkm_trace, tmp_path, lambda L: edited.append(_append_line(L, f"# aborted at k={k}")))
    message = rf"tampered\.csv:{edited[0]}: abort marker k={k} lies outside 1\.\.200, the rounds a run aborts at"
    with pytest.raises(ConfigError, match=message):
        read_trace(path)


@pytest.mark.parametrize("k", ["1", "50", "200"])
def test_abort_marker_not_past_the_last_row_rejected(dkm_trace, tmp_path, k):
    # dkm_trace's last row is round 200; a run aborted at k=A records rounds below A only
    edited = []
    path = write_then_edit(dkm_trace, tmp_path, lambda L: edited.append(_append_line(L, f"# aborted at k={k}")))
    message = rf"tampered\.csv:{edited[0]}: abort marker k={k} is not past the last recorded round 200"
    with pytest.raises(ConfigError, match=message):
        read_trace(path)


def test_abort_marker_past_a_thinned_last_row_accepted(tmp_path):
    # with record_every 10 the rows stop at the last multiple of 10 below the fatal round
    trace = _diverged_trace(record_every=10)
    assert trace.table["k"][-1] < trace.aborted_at - 1
    path = tmp_path / "aborted.csv"
    write_trace(trace, path)
    assert read_trace(path).aborted_at == trace.aborted_at


@pytest.mark.parametrize("block", ["-1", "3", "7", "01"])
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


# (the line added, what is wrong with it, the refusal)
MALFORMED_SNAPSHOT_LINES = [
    ("0,zero,0,1.5", "expected three integers and a number", "'0,zero,0,1.5' is not the text a run writes there, '0,1,1,1.5'"),
    ("0,0,0,", "expected three integers and a number", "'0,0,0,' does not parse: could not convert string to float: ''"),
    ("0,-1,0,1.5", "negative index or non-finite value", "'0,-1,0,1.5' is not the text a run writes there, '0,1,1,1.5'"),
    ("0,0,0,nan", "negative index or non-finite value", "non-finite value in '0,0,0,nan'"),
    ("1,1,1,1.5", "round 0 has 3 of 2 x 2 snapshot cells", "'1,1,1,1.5' is not the text a run writes there, '0,1,1,1.5'"),
]


@pytest.mark.parametrize(
    "cell, message",
    [pytest.param(cell, message, id=f"{cell}-{fault}") for cell, fault, message in MALFORMED_SNAPSHOT_LINES],
)
def test_malformed_snapshot_rejected(tmp_path, cell, message):
    # round 0, spelled as a run writes it, lacks only its (agent 1, coord 1) cell; each case adds line 5
    path = tmp_path / "t.snapshots.csv"
    path.write_text("k,agent,coord_index,value\n0,0,0,1\n0,0,1,2\n0,1,0,3\n" + cell + "\n")
    with pytest.raises(ConfigError, match=re.escape(f"t.snapshots.csv:5: {message}")):
        read_snapshots(path, (2, 2))


@pytest.mark.parametrize("k", [-3, -(10**20)])
def test_snapshot_round_below_zero_rejected(tmp_path, k):
    # every line of the round carries the same k, so only the round rule refuses it; -10**20 is past int64
    path = tmp_path / "t.snapshots.csv"
    path.write_text(f"k,agent,coord_index,value\n{k},0,0,1\n{k},0,1,2\n")
    with pytest.raises(ConfigError, match=rf"t\.snapshots\.csv:2: round {k} lies below 0, the first round a run records$"):
        read_snapshots(path, (1, 2))


METADATA_KEYS = ("mode", "agents", "dimension", "blocks", "seed", "max_rounds", "alpha0", "gamma", "k0")


@pytest.mark.parametrize("key", METADATA_KEYS)
def test_read_trace_requires_every_metadata_key(dkm_trace, tmp_path, key):
    path = write_then_edit(dkm_trace, tmp_path, lambda L: L.remove(next(x for x in L if x.startswith(f"# {key}="))))
    with pytest.raises(ConfigError, match=f"tampered.csv: trace metadata lacks {key}$"):
        read_trace(path)


SPELLED = "is not the text a trace writes for it"


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
        # spellings write_trace never writes, each refused with the one it does
        ("agents", " 6 ", f"agents=' 6 ' {SPELLED}, '6'$"),
        ("agents", "06", f"agents='06' {SPELLED}, '6'$"),
        ("dimension", "3\t", f"dimension='3\\\\t' {SPELLED}, '3'$"),
        ("blocks", "+3", f"blocks='\\+3' {SPELLED}, '3'$"),
        ("seed", "+0", f"seed='\\+0' {SPELLED}, '0'$"),
        ("seed", "-0", f"seed='-0' {SPELLED}, '0'$"),
        ("max_rounds", "2_00", f"max_rounds='2_00' {SPELLED}, '200'$"),
        ("alpha0", "1", f"alpha0='1' {SPELLED}, '1.0'$"),
        ("alpha0", "1.00", f"alpha0='1.00' {SPELLED}, '1.0'$"),
        ("gamma", "0.70", f"gamma='0.70' {SPELLED}, '0.7'$"),
        ("gamma", "7e-1", f"gamma='7e-1' {SPELLED}, '0.7'$"),
        ("k0", "\u0661", f"k0='\u0661' {SPELLED}, '1'$"),
    ],
)
def test_read_trace_rejects_malformed_metadata(dkm_trace, tmp_path, key, value, message):
    def edit(lines):
        i = next(i for i, x in enumerate(lines) if x.startswith(f"# {key}="))
        lines[i] = f"# {key}={value}"

    with pytest.raises(ConfigError, match=message):
        read_trace(write_then_edit(dkm_trace, tmp_path, edit))


def _set_metadata(**values):
    """An edit that sets each named `# key=` line to its value."""

    def edit(lines):
        for key, value in values.items():
            lines[next(i for i, x in enumerate(lines) if x.startswith(f"# {key}="))] = f"# {key}={value}"

    return edit


MAX_ROUND = 2**63 - 1
# the most floats one float64 array may hold on a 64-bit numpy
MAX_FLOATS = MAX_ROUND // 8
TOO_MANY = f"give states of more floats than numpy can shape, {MAX_FLOATS}"


@pytest.mark.parametrize(
    "at_bound, past_bound, message",
    [
        # the seed has no bound: a run takes any seed >= 0
        (
            {"max_rounds": MAX_ROUND, "seed": 10**38},
            {"max_rounds": MAX_ROUND + 1},
            f"max_rounds='{MAX_ROUND + 1}' is past {MAX_ROUND}, the last round a table holds",
        ),
        (
            {"agents": MAX_FLOATS // 3},
            {"agents": MAX_FLOATS // 3 + 1},
            f"agents='{MAX_FLOATS // 3 + 1}' and dimension='3' {TOO_MANY}",
        ),
        (
            {"dimension": MAX_FLOATS // 6, "blocks": MAX_FLOATS // 6},
            {"dimension": MAX_FLOATS // 6 + 1, "blocks": MAX_FLOATS // 6 + 1},
            f"agents='6' and dimension='{MAX_FLOATS // 6 + 1}' {TOO_MANY}",
        ),
        # a centralized run still evaluates its N operators on an (N, n) array
        (
            {"mode": "centralized", "agents": MAX_FLOATS // 3},
            {"mode": "centralized", "agents": MAX_FLOATS // 3 + 1},
            f"agents='{MAX_FLOATS // 3 + 1}' and dimension='3' {TOO_MANY}",
        ),
    ],
    ids=["max-rounds", "agents", "dimension", "centralized-agents"],
)
def test_read_trace_bounds_metadata_by_what_a_table_and_a_state_hold(
    dkm_trace, tmp_path, at_bound, past_bound, message
):
    parsed = read_trace(write_then_edit(dkm_trace, tmp_path, _set_metadata(**at_bound)))
    assert (parsed.max_rounds, parsed.seed, parsed.n_agents, parsed.n) == tuple(
        at_bound.get(key, default) for key, default in (("max_rounds", 200), ("seed", 0), ("agents", 6), ("dimension", 3))
    )
    with pytest.raises(ConfigError, match=re.escape(f"tampered.csv: trace metadata {message}") + "$"):
        read_trace(write_then_edit(dkm_trace, tmp_path, _set_metadata(**past_bound)))


def test_stepsize_metadata_is_written_as_floats(tmp_path):
    # a stepsize built from Python ints writes, and reads back, the float text of its values
    config = build_preset("paper-dkm-6", max_rounds=20).config
    trace = run(replace(config, stepsize=PowerLawStepsize(1, 1, 1)))
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    assert path.read_text().splitlines()[7:9] == ["# alpha0=1.0", "# gamma=1.0"]
    parsed = read_trace(path)
    assert (parsed.stepsize.alpha0, parsed.stepsize.gamma) == (1.0, 1.0)


# dkm_trace's file: the version line, nine metadata lines, the header (line 11), then rows from line 12
DUE_AFTER_SEED = "a `# key=value` line of max_rounds or alpha0 or gamma or k0"
ROWS = "expected 6 columns, got 1"


def _swap(lines, i, j):
    lines[i], lines[j] = lines[j], lines[i]


def _insert(lines, i, *texts):
    lines[i:i] = texts


@pytest.mark.parametrize(
    "edit, line, message",
    [
        (lambda L: L.append("# seed=99"), -1, ROWS),
        (lambda L: L.insert(15, "# gamma=0.9"), 16, ROWS),
        (lambda L: _insert(L, 15, "", "# gamma=0.9", ""), 16, ROWS),
        (lambda L: L.append(""), -1, ROWS),
        (lambda L: L.insert(len(L) - 1, "# aborted at k=200"), -2, ROWS),
        (lambda L: L.pop(0), 1, "expected the version line '# dkmsim-trace v1', got '# mode=dkm'"),
        (lambda L: L.insert(6, "# seed=99"), 7, f"expected {DUE_AFTER_SEED}, got '# seed=99'"),
        (lambda L: L.insert(6, "# colour=red"), 7, f"expected {DUE_AFTER_SEED}, got '# colour=red'"),
        (lambda L: L.insert(6, "# edited by hand"), 7, f"expected {DUE_AFTER_SEED}, got '# edited by hand'"),
        (lambda L: L.insert(6, "#seed=0"), 7, f"expected {DUE_AFTER_SEED}, got '#seed=0'"),
        (lambda L: _swap(L, 2, 3), 4, "expected a `# key=value` line of blocks or seed"),
        (lambda L: L.insert(10, "# seed=99"), 11, "expected the header, got '# seed=99'"),
    ],
    ids=[
        "metadata-after-the-rows",
        "metadata-between-rows",
        "blank-lines-between-rows",
        "blank-line-after-the-rows",
        "abort-marker-not-last",
        "no-version-line",
        "repeated-key",
        "unknown-key",
        "bare-comment",
        "no-space-after-hash",
        "keys-out-of-order",
        "key-after-the-last-key",
    ],
)
def test_read_trace_refuses_lines_write_trace_does_not_write(dkm_trace, tmp_path, edit, line, message):
    lines = []
    path = write_then_edit(dkm_trace, tmp_path, lambda L: (edit(L), lines.extend(L)))
    line_no = line if line > 0 else len(lines) + 1 + line
    with pytest.raises(ConfigError, match=re.escape(f"tampered.csv:{line_no}: {message}")):
        read_trace(path)


def test_read_trace_reads_every_line_write_trace_writes(tmp_path):
    trace = _diverged_trace()
    path = tmp_path / "aborted.csv"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# dkmsim-trace v1"
    assert [line.split("=")[0] for line in lines[1:10]] == [f"# {key}" for key in METADATA_KEYS]
    assert lines[10] == "k,alpha_k,consensus_residual,fp_residual,dist_to_ref,selected_block"
    assert lines[-1] == f"# aborted at k={trace.aborted_at}"
    assert len(read_trace(path).table) == len(lines) - 12 == len(trace.table)


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
    # the file holds every column of the table: integers exactly, floats to their 12 written digits
    assert parsed.table.dtype == trace.table.dtype == RECORD
    for name in RECORD.names:
        if RECORD[name].kind == "i":
            assert parsed.table[name].tolist() == trace.table[name].tolist(), name
        else:
            # NaN, an empty field, reads back as NaN
            written = [format(v, ".12g") for v in trace.table[name].tolist()]
            assert [format(v, ".12g") for v in parsed.table[name].tolist()] == written, name
    snapshot_rounds = parsed.snapshot_rounds.tolist()
    assert snapshot_rounds == trace.snapshot_rounds.tolist()
    assert parsed.snapshots.tobytes() == trace.snapshots.tobytes()
    assert snapshot_rounds and all(k % 7 == 0 for k in snapshot_rounds[:-1])


@functools.cache
def _preset_config(name):
    return build_preset(name).config


# kind -> a short run of that kind, given its seed, max_rounds and cadences
RUN_KINDS = {
    "dkm": lambda **changes: run(replace(_preset_config("paper-dkm-6"), **changes)),
    "dbkm": lambda **changes: run(replace(_preset_config("paper-dbkm-100"), **changes)),
    "centralized": lambda **changes: run(replace(_preset_config("paper-dkm-6"), mode="centralized", **changes)),
    # a run that diverges after about 20 rounds whatever its seed and max_rounds, so its trace ends in an abort marker
    "diverged": lambda seed, max_rounds, **cadences: _diverged_trace(**cadences),
}


@pytest.mark.parametrize("kind", RUN_KINDS)
@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    max_rounds=st.integers(1, 60),
    record_every=st.none() | st.integers(1, 9),
    snapshot_every=st.none() | st.integers(1, 25),
)
def test_a_trace_read_back_writes_the_same_bytes(kind, seed, max_rounds, record_every, snapshot_every):
    trace = RUN_KINDS[kind](seed=seed, max_rounds=max_rounds, record_every=record_every, snapshot_every=snapshot_every)
    assert (trace.aborted_at is not None) == (kind == "diverged")
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
        write_trace(trace, first)
        write_trace(read_trace(first), second)
        assert second.read_bytes() == first.read_bytes()
        assert snapshot_path_for(first).exists() == (snapshot_every is not None)
        if snapshot_every is not None:
            assert snapshot_path_for(second).read_bytes() == snapshot_path_for(first).read_bytes()
        else:
            assert not snapshot_path_for(second).exists()


def _companion_lines(trace, tmp_path):
    path = tmp_path / "t.csv"
    write_trace(trace, path)
    return path, snapshot_path_for(path).read_text().splitlines()


def test_companion_cell_out_of_order_rejected(dkm_trace, tmp_path):
    path, lines = _companion_lines(dkm_trace, tmp_path)
    lines[2], lines[3] = lines[3], lines[2]
    snapshot_path_for(path).write_text("\n".join(lines) + "\n")
    message = rf"t\.snapshots\.csv:3: '0,0,2,([^,']*)' is not the text a run writes there, '0,0,1,\1'$"
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
