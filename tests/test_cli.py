"""Command-line interface: exit codes, output text, and written files."""

import json

import pytest
import yaml

from dkmsim import read_trace, save_config, scenario_from_config, load_config
from dkmsim.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def base_doc(trace_path):
    return {
        "name": "two-intervals",
        "problem": {
            "kind": "distance",
            "sets": [
                {"kind": "box", "lower": [0.0], "upper": [1.0]},
                {"kind": "box", "lower": [2.0], "upper": [3.0]},
            ],
        },
        "graph": {"ring": {"agents": 2, "period": 1, "weight": 0.5}},
        "stepsize": {"alpha0": 1.0, "gamma": 0.7, "k0": 1},
        "run": {"mode": "dkm", "max_rounds": 300, "seed": 0},
        "output": {"trace": str(trace_path)},
    }


@pytest.fixture
def config_file(tmp_path):
    doc = base_doc(tmp_path / "t.csv")
    path = tmp_path / "two.yaml"
    save_config(doc, path)
    return path


# ---------------------------------------------------------------------------
# validate


def test_validate_preset_passes(capsys):
    code, out, _ = cli(capsys, "validate", "dgd-huber")
    assert code == EXIT_OK
    assert "all checks passed" in out


def test_validate_flags_bad_stepsize(capsys, tmp_path):
    doc = base_doc(tmp_path / "t.csv")
    doc["stepsize"]["gamma"] = 0.4
    path = tmp_path / "bad.yaml"
    save_config(doc, path)
    code, out, _ = cli(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "condition (iii)" in out


def test_validate_flags_bad_mixing_matrix(capsys, tmp_path):
    doc = base_doc(tmp_path / "t.csv")
    doc["graph"] = {
        "matrices": [[[0.6, 0.6], [0.4, 0.4]]],
        "window": 1,
        "weight_floor": 0.4,
    }
    path = tmp_path / "lopsided.yaml"
    save_config(doc, path)
    code, out, _ = cli(capsys, "validate", str(path))
    assert code == EXIT_VALIDATION
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace(capsys, config_file, tmp_path):
    code, out, _ = cli(capsys, "run", str(config_file))
    assert code == EXIT_OK
    assert "trace written to" in out
    assert "final consensus residual" in out
    trace = read_trace(tmp_path / "t.csv")
    assert trace.rows[-1].k == 300
    assert trace.meta["mode"] == "dkm"


def test_run_is_byte_reproducible(capsys, config_file, tmp_path):
    assert cli(capsys, "run", str(config_file))[0] == EXIT_OK
    first = (tmp_path / "t.csv").read_bytes()
    assert cli(capsys, "run", str(config_file))[0] == EXIT_OK
    assert (tmp_path / "t.csv").read_bytes() == first
    assert cli(capsys, "run", str(config_file), "--seed", "9")[0] == EXIT_OK
    assert (tmp_path / "t.csv").read_bytes() != first


def test_run_overrides(capsys, config_file, tmp_path):
    out_path = tmp_path / "short.csv"
    code, out, _ = cli(
        capsys,
        "run",
        str(config_file),
        "--max-rounds",
        "50",
        "--snapshot-cadence",
        "25",
        "--output",
        str(out_path),
    )
    assert code == EXIT_OK
    assert "snapshots written to" in out
    parsed = read_trace(out_path)
    assert parsed.rows[-1].k == 50
    assert parsed.max_rounds() == 50
    assert (tmp_path / "short.snapshots.csv").exists()
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        (("--max-rounds", "0"), "max_rounds must be >= 1, got 0"),
        (("--max-rounds", "-5"), "max_rounds must be >= 1, got -5"),
        (("--snapshot-cadence", "0"), "snapshot_every must be >= 1, got 0"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
    ],
)
def test_run_validates_overrides(capsys, tmp_path, override, message):
    out_path = tmp_path / "t.csv"
    code, _, err = cli(capsys, "run", "paper-dkm-6", *override, "--output", str(out_path))
    assert code == EXIT_VALIDATION
    assert err.splitlines() == [f"error: {message}"]
    assert not out_path.exists()


def test_rerun_without_snapshots_leaves_no_stale_companion(capsys, config_file, tmp_path):
    trace = tmp_path / "t.csv"
    companion = tmp_path / "t.snapshots.csv"
    assert cli(capsys, "run", str(config_file), "--max-rounds", "200", "--snapshot-cadence", "50")[0] == EXIT_OK
    stale = companion.read_bytes()
    assert cli(capsys, "run", str(config_file), "--max-rounds", "10")[0] == EXIT_OK
    assert not companion.exists()
    code, out, _ = cli(capsys, "compare", str(trace), "--reference", "[1.5]")
    assert code == EXIT_OK
    assert "final round: 10" in out
    assert "snapshot" not in out

    # a companion that does not end where the trace does is refused
    companion.write_bytes(stale)
    code, out, _ = cli(capsys, "compare", str(trace), "--reference", "[1.5]")
    assert code == EXIT_PARSE
    assert out.splitlines() == [f"snapshot file {companion} does not end at the trace's final round k=10"]


def test_run_refuses_invalid_assumptions(capsys, tmp_path):
    doc = base_doc(tmp_path / "t.csv")
    doc["stepsize"]["gamma"] = 0.4
    path = tmp_path / "bad.yaml"
    save_config(doc, path)
    code, out, _ = cli(capsys, "run", str(path))
    assert code == EXIT_VALIDATION
    assert not (tmp_path / "t.csv").exists()
    code, _, _ = cli(capsys, "run", str(path), "--skip-validate")
    assert code == EXIT_OK
    assert (tmp_path / "t.csv").exists()


def test_run_divergence_exit_code(capsys, tmp_path):
    # a lone agent whose "mixing" doubles its state every round
    doc = {
        "problem": {"kind": "consensus", "agents": 1, "dimension": 1},
        "graph": {"matrices": [[[2.0]]], "window": 1, "weight_floor": 0.4},
        "stepsize": {"gamma": 0.7},
        "run": {"mode": "dkm", "max_rounds": 500, "seed": 0},
        "output": {"trace": str(tmp_path / "d.csv")},
    }
    path = tmp_path / "doubling.yaml"
    save_config(doc, path)
    code, out, _ = cli(capsys, "run", str(path), "--skip-validate")
    assert code == EXIT_DIVERGENCE
    assert "diverged after round" in out
    parsed = read_trace(tmp_path / "d.csv")
    assert parsed.aborted_at is not None
    assert parsed.rows[-1].k < 500


def test_run_missing_config(capsys, tmp_path):
    code, _, err = cli(capsys, "run", str(tmp_path / "ghost.yaml"))
    assert code == EXIT_PARSE
    assert "config error" in err


def test_run_unknown_key(capsys, tmp_path):
    doc = base_doc(tmp_path / "t.csv")
    doc["run"]["typo"] = 1
    path = tmp_path / "typo.yaml"
    save_config(doc, path)
    code, _, err = cli(capsys, "run", str(path))
    assert code == EXIT_PARSE
    assert "config error" in err and "run" in err


# ---------------------------------------------------------------------------
# oracle


def test_oracle_prints_reference(capsys):
    code, out, _ = cli(capsys, "oracle", "linear-random")
    assert code == EXIT_OK
    assert "reference solution:" in out
    assert "source: dense least-squares solve" in out
    residual = float(out.split("fixed-point residual at reference:")[1].splitlines()[0])
    assert residual < 1e-8


def test_oracle_names_the_normal_equations(capsys):
    code, out, _ = cli(capsys, "oracle", "dgd-quadratic")
    assert code == EXIT_OK
    assert "normal-equations" in out


def test_oracle_on_config_reference_override(capsys, tmp_path):
    doc = base_doc(tmp_path / "t.csv")
    doc["run"]["reference"] = [1.5]
    path = tmp_path / "ref.yaml"
    save_config(doc, path)
    code, out, _ = cli(capsys, "oracle", str(path))
    assert code == EXIT_OK
    assert "source: config file" in out
    assert "[1.5]" in out


# ---------------------------------------------------------------------------
# compare


@pytest.fixture
def finished_trace(capsys, config_file, tmp_path):
    code, _, _ = cli(capsys, "run", str(config_file), "--snapshot-cadence", "100")
    assert code == EXIT_OK
    return tmp_path / "t.csv"


def test_compare_reports_fit(capsys, finished_trace):
    code, out, _ = cli(capsys, "compare", str(finished_trace))
    assert code == EXIT_OK
    assert "fitted consensus rate constant" in out
    assert "final distance to reference" in out


def test_compare_max_dist_threshold(capsys, finished_trace):
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--max-dist", "100")
    assert code == EXIT_OK
    assert "PASS" in out
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--max-dist", "1e-30")
    assert code == EXIT_VALIDATION
    assert "FAIL" in out


def test_compare_inline_reference_uses_snapshots(capsys, finished_trace):
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--reference", "[1.5]")
    assert code == EXIT_OK
    assert "distance recomputed from snapshot at k=300" in out


def test_compare_reference_file(capsys, finished_trace, tmp_path):
    ref = tmp_path / "ref.json"
    ref.write_text(json.dumps([1.5]))
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--reference", str(ref))
    assert code == EXIT_OK
    assert "distance recomputed" in out


def test_compare_bad_inline_reference(capsys, finished_trace):
    code, _, err = cli(capsys, "compare", str(finished_trace), "--reference", "[1, oops]")
    assert code == EXIT_PARSE
    assert "config error" in err


def test_compare_missing_reference_file(capsys, finished_trace):
    code, _, err = cli(capsys, "compare", str(finished_trace), "--reference", "nowhere.json")
    assert code == EXIT_PARSE
    assert "does not exist" in err


def test_compare_tail_start_past_end(capsys, finished_trace):
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--tail-start", "10000")
    assert code == EXIT_PARSE
    assert "no recorded rounds" in out


def test_compare_missing_trace(capsys, tmp_path):
    code, _, err = cli(capsys, "compare", str(tmp_path / "none.csv"))
    assert code == EXIT_PARSE
    assert "config error" in err


# ---------------------------------------------------------------------------
# export


def test_export_stdout_is_loadable_yaml(capsys):
    code, out, _ = cli(capsys, "export", "dgd-huber")
    assert code == EXIT_OK
    doc = yaml.safe_load(out)
    assert set(doc) >= {"problem", "graph", "stepsize", "run"}
    assert doc["problem"]["kind"] == "dgd"


def test_export_file_round_trips(capsys, tmp_path):
    out_path = tmp_path / "preset.yaml"
    code, out, _ = cli(capsys, "export", "paper-dkm-6", "--output", str(out_path))
    assert code == EXIT_OK
    assert "config written" in out
    scenario = scenario_from_config(load_config(out_path))
    assert scenario.config.family.n_agents == 6
    assert scenario.config.max_rounds == 20_000
