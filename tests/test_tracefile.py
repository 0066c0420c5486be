"""Trace CSV writing and strict reading, including the snapshot companion."""

from dataclasses import replace

import numpy as np
import pytest

from dkmsim import (
    Affine,
    BlockPartition,
    GraphSchedule,
    OperatorFamily,
    ParsedTrace,
    PowerLawStepsize,
    RunConfig,
    build_preset,
    read_snapshots,
    read_trace,
    run,
    snapshot_path_for,
    write_trace,
)
from dkmsim.errors import ConfigError, DivergenceError


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
    assert parsed.meta["mode"] == "dkm"
    assert parsed.meta["agents"] == "6"
    assert parsed.meta["dimension"] == "3"
    assert parsed.meta["blocks"] == "3"
    assert parsed.meta["seed"] == "0"
    assert parsed.aborted_at is None
    assert parsed.max_rounds() == 200
    assert parsed.stepsize() == dkm_trace.stepsize
    assert len(parsed.rows) == len(dkm_trace.records)
    for row, rec in zip(parsed.rows, dkm_trace.records):
        assert row.k == rec.k
        assert row.alpha_k == pytest.approx(rec.alpha_k, rel=1e-11)
        assert row.consensus_residual == pytest.approx(rec.consensus_residual, rel=1e-11, abs=1e-300)
        assert row.fp_residual == pytest.approx(rec.fp_residual, rel=1e-11, abs=1e-300)
        assert row.dist_to_ref == pytest.approx(rec.dist_to_ref, rel=1e-11, abs=1e-300)
        assert row.selected_block is None


def test_round_trip_block_mode(dbkm_trace, tmp_path):
    path = tmp_path / "block.csv"
    write_trace(dbkm_trace, path)
    parsed = read_trace(path)
    assert parsed.meta["mode"] == "dbkm"
    assert parsed.meta["blocks"] == "1,1,1"
    # every row but the last carries the block drawn for the ensuing step
    for row, rec in zip(parsed.rows[:-1], dbkm_trace.records[:-1]):
        assert row.selected_block == rec.selected_block
        assert isinstance(row.selected_block, int)
    assert parsed.rows[-1].selected_block is None


def test_snapshots_round_trip_exactly(dkm_trace, tmp_path):
    path = tmp_path / "run.csv"
    write_trace(dkm_trace, path)
    snaps = read_snapshots(snapshot_path_for(path))
    recorded = {rec.k: rec.snapshot for rec in dkm_trace.records if rec.snapshot is not None}
    assert set(snaps) == set(recorded)
    assert sorted(snaps) == [0, 50, 100, 150, 200]
    for k, arr in recorded.items():
        # 17 significant digits reproduce float64 bit for bit
        assert np.array_equal(snaps[k], arr)


def test_snapshot_path_naming():
    assert str(snapshot_path_for("foo.csv")).endswith("foo.snapshots.csv")
    assert str(snapshot_path_for("runs/a.csv")).endswith("runs/a.snapshots.csv")
    assert str(snapshot_path_for("bare")).endswith("bare.snapshots.csv")


def test_explicit_snapshot_path(dkm_trace, tmp_path):
    path = tmp_path / "t.csv"
    other = tmp_path / "elsewhere.csv"
    write_trace(dkm_trace, path, snapshot_path=other)
    assert other.exists()
    assert not snapshot_path_for(path).exists()


def test_abort_marker_round_trips(tmp_path):
    part = BlockPartition.single(1)
    grow = Affine(part, -np.eye(1), np.zeros(1), theta=1.0, validate=False)
    config = RunConfig(
        family=OperatorFamily([grow]),
        stepsize=PowerLawStepsize(1.0, 0.0, 1),
        schedule=GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5),
        max_rounds=1000,
        init=np.array([[1.0]]),
        divergence_limit=1e6,
    )
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    trace = exc.value.trace
    path = tmp_path / "aborted.csv"
    write_trace(trace, path)
    assert f"# aborted at k={trace.aborted_at}" in path.read_text()
    parsed = read_trace(path)
    assert parsed.aborted_at == trace.aborted_at
    assert parsed.rows[-1].k < trace.aborted_at


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
        read_snapshots(path)


def test_metadata_accessors_require_keys():
    bare = ParsedTrace(meta={}, rows=[], aborted_at=None)
    with pytest.raises(ConfigError):
        bare.stepsize()
    with pytest.raises(ConfigError):
        bare.max_rounds()
