"""Command-line interface: exit codes, output text, and written files."""

import argparse
import json
import re
import tracemalloc
from dataclasses import replace

import pytest
import yaml

import dkmsim.cli
from dkmsim import (
    build_preset,
    load_config,
    read_trace,
    run,
    save_config,
    scenario_from_config,
    scenario_to_config,
    snapshot_path_for,
    write_trace,
)
from dkmsim.cli import EXIT_DIVERGENCE, EXIT_OK, EXIT_PARSE, EXIT_VALIDATION, main
from dkmsim.errors import DivergenceError
from dkmsim.scenarios import PRESET_NAMES


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


def test_validate_refuses_the_max_rounds_run_refuses(capsys, tmp_path):
    # no table holds round 10**20; validate refuses the config as run does, under its run key
    doc = scenario_to_config(build_preset("paper-dkm-6"), trace_path=str(tmp_path / "t.csv"))
    doc["run"].update(max_rounds=10**20, record_every=10**20)
    save_config(doc, tmp_path / "past.yaml")
    message = f"max_rounds must be <= {2**63 - 1}, the last round a table holds, got {10**20}"
    for command in ("validate", "run"):
        code, out, err = cli(capsys, command, str(tmp_path / "past.yaml"))
        assert (code, out) == (EXIT_PARSE, "")
        assert err.splitlines() == [f"config error: run.max_rounds: {message}"]
    assert not (tmp_path / "t.csv").exists()


# ---------------------------------------------------------------------------
# run


def test_run_writes_trace(capsys, config_file, tmp_path):
    code, out, _ = cli(capsys, "run", str(config_file))
    assert code == EXIT_OK
    assert "trace written to" in out
    assert "final consensus residual" in out
    trace = read_trace(tmp_path / "t.csv")
    assert trace.last().k == 300
    assert trace.mode == "dkm"


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
    assert parsed.last().k == 50
    assert parsed.max_rounds == 50
    assert (tmp_path / "short.snapshots.csv").exists()
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        (("--max-rounds", "0"), "max_rounds must be >= 1, got 0"),
        (("--max-rounds", "-5"), "max_rounds must be >= 1, got -5"),
        (("--snapshot-cadence", "0"), "snapshot_every must be >= 1, got 0"),
        (("--seed", "-1"), "seed must be >= 0, got -1"),
        (("--snapshot-cadence", str(2**63)), f"snapshot_every must be <= {2**63 - 1}, got {2**63}"),
    ],
)
def test_run_validates_overrides(capsys, tmp_path, override, message):
    out_path = tmp_path / "t.csv"
    code, _, err = cli(capsys, "run", "paper-dkm-6", *override, "--output", str(out_path))
    assert code == EXIT_VALIDATION
    assert err.splitlines() == [f"error: {message}"]
    assert not out_path.exists()


@pytest.fixture
def consensus_file(tmp_path):
    doc = {
        "problem": {"kind": "consensus", "agents": 4, "dimension": 2},
        "graph": {"ring": {"agents": 4, "period": 2}},
        "stepsize": {},
        "run": {"max_rounds": 2000, "seed": 0},
        "output": {"trace": str(tmp_path / "c.csv")},
    }
    path = tmp_path / "consensus.yaml"
    save_config(doc, path)
    return path


def test_run_seed_override_moves_seed_dependent_reference(capsys, consensus_file, tmp_path):
    # the consensus reference is the initial mean, which --seed changes
    for seed in ("0", "5"):
        code, out, _ = cli(capsys, "run", str(consensus_file), "--seed", seed)
        assert code == EXIT_OK
        assert f"seed {seed}" in out
        assert read_trace(tmp_path / "c.csv").last().dist_to_ref < 1e-12


def test_exported_consensus_reference_follows_the_seed(capsys, consensus_file, tmp_path):
    # export leaves out the reference the scenario derives, so --seed moves it as it does for the source config
    exported = tmp_path / "exported.yaml"
    assert cli(capsys, "export", str(consensus_file), "--output", str(exported))[0] == EXIT_OK
    assert "reference" not in load_config(exported)["run"]
    code, out, _ = cli(capsys, "run", str(exported), "--seed", "5")
    assert code == EXIT_OK
    assert "final distance to reference: 0\n" in out
    assert read_trace(tmp_path / "c.csv").last().dist_to_ref < 1e-12


def test_family_larger_than_the_graph_refused(capsys, tmp_path):
    doc = {
        "problem": {"kind": "distance", "staircase_agents": 8},
        "graph": {"ring": {"agents": 6, "period": 2}},
        "stepsize": {},
        "run": {"max_rounds": 10},
    }
    save_config(doc, tmp_path / "big.yaml")
    code, out, err = cli(capsys, "run", str(tmp_path / "big.yaml"), "--output", str(tmp_path / "t.csv"))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == ["config error: problem: schedule has 6 agents, family has 8"]


def test_ring_larger_than_the_family_is_refused_before_it_is_built(capsys, tmp_path):
    # 2000 x 2000 ring matrices would take tens of MiB; the refusal comes first
    doc = {
        "problem": {"kind": "consensus", "agents": 6, "dimension": 2},
        "graph": {"ring": {"agents": 2000, "period": 1}},
        "stepsize": {},
        "run": {"max_rounds": 10},
    }
    save_config(doc, tmp_path / "ring.yaml")
    tracemalloc.start()
    try:
        code, out, err = cli(capsys, "run", str(tmp_path / "ring.yaml"), "--output", str(tmp_path / "t.csv"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == ["config error: problem: schedule has 2000 agents, family has 6"]
    assert peak < 4 * 2**20


def test_run_validates_overrides_on_config_file(capsys, consensus_file, tmp_path):
    code, _, err = cli(capsys, "run", str(consensus_file), "--seed", "-1")
    assert code == EXIT_VALIDATION
    assert err.splitlines() == ["error: seed must be >= 0, got -1"]
    assert not (tmp_path / "c.csv").exists()


def test_rerun_without_snapshots_leaves_no_stale_companion(capsys, config_file, tmp_path):
    trace = tmp_path / "t.csv"
    companion = tmp_path / "t.snapshots.csv"
    assert cli(capsys, "run", str(config_file), "--max-rounds", "200", "--snapshot-cadence", "50")[0] == EXIT_OK
    stale = companion.read_bytes()
    assert cli(capsys, "run", str(config_file), "--max-rounds", "10")[0] == EXIT_OK
    assert not companion.exists()
    code, out, _ = cli(capsys, "compare", str(trace), "--reference", "[1.5]")
    assert code == EXIT_PARSE
    assert out.splitlines() == ["trace has no snapshot of its final round k=10; cannot apply the reference"]

    # a companion holding rounds the trace did not record is refused, with or without a reference
    companion.write_bytes(stale)
    for options in ((), ("--reference", "[1.5]")):
        code, out, err = cli(capsys, "compare", str(trace), *options)
        assert (code, out) == (EXIT_PARSE, "")
        assert err.splitlines() == [f"config error: {companion}: snapshot round 50 is not a round the trace recorded"]


def test_run_skip_validate_refuses_overflowing_stepsize(capsys, tmp_path):
    doc = {
        "problem": {"kind": "consensus", "agents": 4, "dimension": 2},
        "graph": {"ring": {"agents": 4, "period": 2}},
        "stepsize": {"gamma": 200.0},
        "run": {"max_rounds": 2000, "seed": 0},
        "output": {"trace": str(tmp_path / "g.csv")},
    }
    path = tmp_path / "g.yaml"
    save_config(doc, path)
    code, out, err = cli(capsys, "run", str(path), "--skip-validate")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: alpha_1999 is out of float range")
    assert not (tmp_path / "g.csv").exists()


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
    assert parsed.last().k < 500
    # the line names the round, agent and coordinate that blew up
    last_round = parsed.aborted_at - 1
    assert out.splitlines() == [
        f"diverged after round {last_round} at agent 0, coordinate 0; partial trace written to {tmp_path / 'd.csv'}"
    ]


def test_run_refuses_a_record_table_too_large_to_allocate(capsys, tmp_path):
    doc = scenario_to_config(build_preset("paper-dkm-6"), trace_path=str(tmp_path / "t.csv"))
    doc["run"].update(max_rounds=2**63 - 1, record_every=1)
    save_config(doc, tmp_path / "huge.yaml")
    code, out, err = cli(capsys, "run", str(tmp_path / "huge.yaml"), "--skip-validate")
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.splitlines() == [f"error: max_rounds {2**63 - 1} plans {2**63} records, a table too large to allocate"]
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("max_rounds", [2**63, 10**20])
def test_run_refuses_max_rounds_past_the_last_round_a_table_holds(capsys, tmp_path, max_rounds):
    # a plan of rounds 0 and max_rounds would fit any table, but no k column holds the final round,
    # so the override is refused as the config is built
    doc = scenario_to_config(build_preset("paper-dkm-6"), trace_path=str(tmp_path / "t.csv"))
    doc["run"]["record_every"] = 10**20
    save_config(doc, tmp_path / "sparse.yaml")
    code, out, err = cli(capsys, "run", str(tmp_path / "sparse.yaml"), "--max-rounds", str(max_rounds))
    assert code == EXIT_VALIDATION
    assert out == ""
    assert err.splitlines() == [f"error: max_rounds must be <= {2**63 - 1}, the last round a table holds, got {max_rounds}"]
    assert not (tmp_path / "t.csv").exists()


def test_run_to_a_missing_directory_is_a_config_error(capsys, tmp_path):
    target = tmp_path / "nodir" / "t.csv"
    code, out, err = cli(capsys, "run", "paper-dkm-6", "--max-rounds", "10", "--output", str(target))
    assert code == EXIT_PARSE
    assert "trace written" not in out
    assert err.splitlines() == [f"config error: cannot write trace file: [Errno 2] No such file or directory: '{target}'"]


def test_unwritable_trace_path_is_refused_before_any_work(capsys, tmp_path, monkeypatch):
    def entered(*args, **kwargs):
        raise AssertionError("the run was entered with an unwritable trace path")

    monkeypatch.setattr(dkmsim.cli, "validate_full", entered)
    monkeypatch.setattr(dkmsim.cli, "run", entered)
    target = tmp_path / "nodir" / "t.csv"
    code, out, err = cli(capsys, "run", "paper-dbkm-100", "--output", str(target))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.splitlines() == [f"config error: cannot write trace file: [Errno 2] No such file or directory: '{target}'"]


def test_trace_path_check_keeps_an_old_trace(capsys, tmp_path):
    # the check before validation neither truncates nor rewrites a trace already there
    doc = base_doc(tmp_path / "t.csv")
    doc["stepsize"]["gamma"] = 0.4
    path = tmp_path / "bad.yaml"
    save_config(doc, path)
    (tmp_path / "t.csv").write_text("old\n")
    code, _, _ = cli(capsys, "run", str(path))
    assert code == EXIT_VALIDATION
    assert (tmp_path / "t.csv").read_text() == "old\n"


def test_divergence_with_an_unwritable_trace_keeps_the_report(capsys, tmp_path, monkeypatch):
    # the doubling config of test_run_divergence_exit_code; its directory vanishes mid-run
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    target = out_dir / "d.csv"
    doc = {
        "problem": {"kind": "consensus", "agents": 1, "dimension": 1},
        "graph": {"matrices": [[[2.0]]], "window": 1, "weight_floor": 0.4},
        "stepsize": {"gamma": 0.7},
        "run": {"mode": "dkm", "max_rounds": 500, "seed": 0},
        "output": {"trace": str(target)},
    }
    path = tmp_path / "doubling.yaml"
    save_config(doc, path)
    real_run = dkmsim.cli.run
    rounds = []

    def run_then_lose_the_directory(*args, **kwargs):
        out_dir.rmdir()
        try:
            return real_run(*args, **kwargs)
        except DivergenceError as e:
            rounds.append(e.last_round)
            raise

    monkeypatch.setattr(dkmsim.cli, "run", run_then_lose_the_directory)
    code, out, err = cli(capsys, "run", str(path), "--skip-validate")
    assert code == EXIT_DIVERGENCE
    assert out.splitlines() == [f"diverged after round {rounds[0]} at agent 0, coordinate 0; partial trace not written"]
    assert err.splitlines() == [f"config error: cannot write trace file: [Errno 2] No such file or directory: '{target}'"]


def test_run_missing_config(capsys, tmp_path):
    code, _, err = cli(capsys, "run", str(tmp_path / "ghost.yaml"))
    assert code == EXIT_PARSE
    assert "config error" in err


@pytest.mark.parametrize("command", ["run", "validate", "oracle", "export"])
def test_non_utf8_config_is_refused(capsys, tmp_path, command):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"name: caf\xe9\n")
    code, out, err = cli(capsys, command, str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == [f"config error: cannot read config file: {path} is not UTF-8 text (byte 0xe9 at offset 9)"]


def test_invalid_yaml_is_one_line(capsys, tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("problem: [unclosed\n  nope")
    code, out, err = cli(capsys, "run", str(path))
    assert (code, out) == (EXIT_PARSE, "")
    assert len(err.splitlines()) == 1
    # libyaml and the pure parser both mark the end of the file, its line 2, column 7
    assert re.fullmatch(rf"config error: {re.escape(str(path))}:2:7: not valid YAML: .*'\]'.*\n", err)


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "dkmsim":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    dkmsim.cli.build_parser.cache_clear()
    for _ in range(2):
        assert cli(capsys, "oracle", "paper-dkm-6")[0] == EXIT_OK
    assert len(built) == 1


def test_main_runs_a_handler_replaced_after_its_first_call(capsys, monkeypatch, tmp_path):
    # a wrapper installed on the module, as a tracer installs one, is the handler the cached parser leads to
    assert cli(capsys, "compare", str(tmp_path / "none.csv"))[0] == EXIT_PARSE
    calls = []
    monkeypatch.setattr(dkmsim.cli, "cmd_compare", lambda args: calls.append(args.trace) or EXIT_OK)
    assert cli(capsys, "compare", "t.csv")[0] == EXIT_OK
    assert calls == ["t.csv"]


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


def test_dgd_config_with_targets_of_unequal_length_runs(capsys, tmp_path):
    # a 2 x 3 quadratic's target lies in R^2, the huber's in R^3: the oracle starts from the origin
    doc = base_doc(tmp_path / "t.csv")
    doc["problem"] = {
        "kind": "dgd",
        "tau": 0.5,
        "objectives": [
            {"kind": "quadratic", "matrix": [[1.0, 0.0, 0.5], [0.0, 1.0, -0.5]], "target": [1.0, -1.0]},
            {"kind": "huber", "target": [0.5, 0.5, 2.0], "delta": 1.0},
        ],
    }
    path = tmp_path / "mixed.yaml"
    save_config(doc, path)
    code, out, err = cli(capsys, "oracle", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert "source: centralized gradient descent" in out
    code, out, err = cli(capsys, "validate", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[-1] == "all checks passed"
    code, out, err = cli(capsys, "run", str(path))
    assert (code, err) == (EXIT_OK, "")
    assert read_trace(tmp_path / "t.csv").last().k == 300


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


def test_compare_reference_on_centralized_snapshots(capsys, tmp_path):
    # a centralized run keeps one state row, though its header names every agent
    doc = base_doc(tmp_path / "c.csv")
    doc["run"]["mode"] = "centralized"
    path = tmp_path / "cent.yaml"
    save_config(doc, path)
    code, _, _ = cli(capsys, "run", str(path), "--snapshot-cadence", "50")
    assert code == EXIT_OK
    assert read_trace(tmp_path / "c.csv").n_agents == 2
    code, out, err = cli(capsys, "compare", str(tmp_path / "c.csv"), "--reference", "[1.5]")
    assert (code, err) == (EXIT_OK, "")
    assert "distance recomputed from snapshot at k=300" in out
    assert "final distance to reference: " in out


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


@pytest.fixture(scope="module")
def dkm6_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("dkm6") / "t.csv"
    argv = ["run", "paper-dkm-6", "--max-rounds", "100", "--snapshot-cadence", "50", "--output", str(path)]
    assert main(argv) == EXIT_OK
    return path


def test_compare_refuses_reference_without_snapshots(capsys, tmp_path):
    # the trace's own dist_to_ref is to the run's reference, not to the one given
    trace = tmp_path / "n.csv"
    assert main(["run", "paper-dkm-6", "--max-rounds", "100", "--output", str(trace)]) == EXIT_OK
    capsys.readouterr()
    assert read_trace(trace).last().dist_to_ref is not None
    code, out, _ = cli(capsys, "compare", str(trace), "--reference", "[99.0, 99.0, 99.0]")
    assert code == EXIT_PARSE
    assert out.splitlines() == ["trace has no snapshot of its final round k=100; cannot apply the reference"]


def _drop_agent(agent):
    def edit(files):
        lines = files["snap"].splitlines()
        files["snap"] = "\n".join(line for line in lines if line.split(",")[1] != str(agent)) + "\n"

    return edit


def _swap_agent_for_word(files):
    lines = files["snap"].splitlines()
    lines[4] = "0,zero," + lines[4].split(",", 2)[2]
    files["snap"] = "\n".join(lines) + "\n"


def _set_meta(key, value):
    """An edit that sets the trace's `# key=` line to value, or drops it when value is None."""

    def edit(files):
        lines = files["trace"].splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}="))
        lines[i : i + 1] = [] if value is None else [f"# {key}={value}"]
        files["trace"] = "\n".join(lines) + "\n"

    return edit


def _set_row(row, column, value):
    """An edit that sets one field of a data row of dkm6_trace: row 0 is line 12, row -1 line 112."""

    def edit(files):
        lines = files["trace"].splitlines()
        i = row if row < 0 else 11 + row
        parts = lines[i].split(",")
        parts[column] = value
        lines[i] = ",".join(parts)
        files["trace"] = "\n".join(lines) + "\n"

    return edit


def _set_last_row(column, value):
    """An edit that sets one field of the trace's last data row, line 112 of dkm6_trace."""
    return _set_row(-1, column, value)


def _append_to_last_row(column, text):
    """An edit that appends text to one field of the trace's last data row."""

    def edit(files):
        value = files["trace"].splitlines()[-1].split(",")[column]
        _set_last_row(column, value + text)(files)

    return edit


def _append_abort_marker(k):
    """An edit that appends `# aborted at k=<k>` to the finished 100-round trace, as its line 113."""
    return lambda files: files.update(trace=files["trace"] + f"# aborted at k={k}\n")


REF = ("--reference", "[1.0, 2.0, 3.0]")


@pytest.mark.parametrize(
    "options, edit, message",
    [
        (("--reference", "[1.0, 2.0]"), None, "reference has shape (2,), the trace has 3 coordinates"),
        (REF, _swap_agent_for_word, "{snap}:5: expected three integers and a number"),
        (
            REF,
            lambda files: files.update(snap=files["snap"].rsplit("\n", 2)[0] + "\n"),
            "{snap}: round 100 has 17 of 6 x 3 snapshot cells",
        ),
        ((), lambda files: files.update(trace=files["trace"] + "# aborted at k=oops\n"), "{trace}:113: abort marker"),
        (
            REF,
            _drop_agent(5),
            "{snap}: round 0 has 15 of 6 x 3 snapshot cells",
        ),
        (("--reference", "{dir}"), None, "cannot read reference file '{dir}': [Errno 21] Is a directory"),
        (("--reference", "[NaN, 0, 0]"), None, "reference has non-finite entries: [nan, 0.0, 0.0]"),
        (("--reference", "[Infinity, 0, 0]", "--max-dist", "1"), None, "reference has non-finite entries: [inf, 0.0, 0.0]"),
        (("--max-dist", "nan"), None, "--max-dist must be finite, got nan"),
        (("--max-dist", "inf"), None, "--max-dist must be finite, got inf"),
        (("--max-dist=0",), None, "--max-dist must be positive, got 0.0"),
        (("--max-dist=-1",), None, "--max-dist must be positive, got -1.0"),
        ((), _set_meta("alpha0", "abc"), "{trace}: trace metadata alpha0='abc' does not parse"),
        ((), _set_meta("max_rounds", "ten"), "{trace}: trace metadata max_rounds='ten' does not parse"),
        ((), _set_meta("k0", "0"), "{trace}: trace metadata: k0 must be an integer >= 1, got 0"),
        ((), _set_meta("gamma", None), "{trace}: trace metadata lacks gamma"),
        ((), _set_meta("mode", "warp"), "{trace}: trace metadata mode='warp' is not one of"),
        (
            (),
            lambda files: (_set_meta("max_rounds", "9" * 20)(files), _set_last_row(0, "9" * 19 + "8")(files)),
            "{trace}: trace metadata max_rounds='99999999999999999999' is past 9223372036854775807",
        ),
        ((), _set_meta("agents", "9" * 20), "{trace}: trace metadata agents='99999999999999999999' and dimension='3'"),
        (
            (),
            lambda files: (_set_meta("dimension", str(2**63 - 1))(files), _set_meta("blocks", str(2**63 - 1))(files)),
            "{trace}: trace metadata agents='6' and dimension='9223372036854775807' give states of more floats",
        ),
        ((), _set_meta("max_rounds", "1_00"), "{trace}: trace metadata max_rounds='1_00' is not the text a trace writes"),
        ((), _set_meta("agents", " 6 "), "{trace}: trace metadata agents=' 6 ' is not the text a trace writes"),
        ((), _set_meta("seed", "+0"), "{trace}: trace metadata seed='+0' is not the text a trace writes for it, '0'"),
        ((), _set_meta("alpha0", "1"), "{trace}: trace metadata alpha0='1' is not the text a trace writes for it, '1.0'"),
        ((), _set_meta("gamma", "0.70"), "{trace}: trace metadata gamma='0.70' is not the text a trace writes"),
        (("--tail-start", "-5"), None, "--tail-start must be >= 0, got -5"),
        ((), _set_last_row(0, "500"), "{trace}:112: round 500 lies outside 0..100"),
        ((), _set_last_row(5, "1"), "{trace}:112: column selected_block: block 1 is not one of 0..0"),
        ((), _set_last_row(5, "-1"), "{trace}:112: column selected_block: block -1 is not one of 0..0"),
        # int() reads these three as blocks 1 and 0, but a run writes a block as str() spells it
        ((), _set_last_row(5, "+1"), "{trace}:112: column selected_block: block +1 is not one of 0..0"),
        ((), _set_last_row(5, "+0"), "{trace}:112: column selected_block: block +0 is not one of 0..0"),
        ((), _set_last_row(5, "00"), "{trace}:112: column selected_block: block 00 is not one of 0..0"),
        # int() reads these four as rounds 100 and 0, but a run writes a round as str() spells it
        ((), _set_last_row(0, "0100"), "{trace}:112: column k: '0100' is not round 100 as a run writes it"),
        ((), _set_last_row(0, "+100"), "{trace}:112: column k: '+100' is not round 100 as a run writes it"),
        ((), _set_row(0, 0, "00"), "{trace}:12: column k: '00' is not round 0 as a run writes it"),
        ((), _set_row(0, 0, "-0"), "{trace}:12: column k: '-0' is not round 0 as a run writes it"),
        ((), _append_abort_marker(-7), "{trace}:113: abort marker k=-7 lies outside 1..100"),
        ((), _append_abort_marker(99999), "{trace}:113: abort marker k=99999 lies outside 1..100"),
        ((), _append_abort_marker(50), "{trace}:113: abort marker k=50 is not past the last recorded round 100"),
        ((), lambda files: files.update(trace=files["trace"] + "# seed=99\n"), "{trace}:113: expected 6 columns, got 1"),
        (("--max-dist", "0.05"), _set_last_row(4, "-1"), "{trace}:112: column dist_to_ref: '-1' is a negative norm"),
        ((), _set_last_row(2, "-0.5"), "{trace}:112: column consensus_residual: '-0.5' is a negative norm"),
        ((), _set_last_row(3, "-1e-09"), "{trace}:112: column fp_residual: '-1e-09' is a negative norm"),
        ((), _set_last_row(3, "1e999"), "{trace}:112: column fp_residual: non-finite value '1e999'"),
        ((), _set_last_row(4, "1e999"), "{trace}:112: column dist_to_ref: non-finite value '1e999'"),
        (
            REF,
            lambda files: files.update(snap=files["snap"].replace("\n100,", f"\n{10**20},")),
            f"{{snap}}:38: round {10**20} is past {2**63 - 1}, the last round a table holds",
        ),
        # int() and float() read each of these four, as round 100 or as the value written
        ((), _set_last_row(0, " 100"), "{trace}:112: ' ' is not a character of a data row (0123456789.,-+e)"),
        ((), _set_last_row(0, "1_00"), "{trace}:112: '_' is not a character of a data row (0123456789.,-+e)"),
        ((), _append_to_last_row(2, "\t"), "{trace}:112: '\\t' is not a character of a data row (0123456789.,-+e)"),
        (
            (),
            _set_last_row(0, "\u0661\u0660\u0660"),
            "{trace}:112: '\u0661' is not a character of a data row (0123456789.,-+e)",
        ),
        ((), _set_last_row(1, "-7"), "{trace}:112: column alpha_k: '-7' lies outside (0, 1], the stepsizes a run takes"),
        ((), _set_last_row(1, "0"), "{trace}:112: column alpha_k: '0' lies outside (0, 1], the stepsizes a run takes"),
        ((), _set_last_row(1, "1.5"), "{trace}:112: column alpha_k: '1.5' lies outside (0, 1], the stepsizes a run takes"),
        (
            (),
            _set_last_row(1, "0.5"),
            "{trace}:112: column alpha_k: '0.5' is not the metadata's stepsize alpha_100 = 0.0395343896503",
        ),
        (
            (),
            _set_last_row(1, "0.0395343897"),
            "{trace}:112: column alpha_k: '0.0395343897' is not the metadata's stepsize alpha_100 = 0.0395343896503",
        ),
        # the first row and the last one both break a rule; the refusal names the first row
        (
            (),
            lambda files: (
                _set_row(0, 2, "-0.5")(files),
                files.update(trace=files["trace"] + files["trace"].splitlines()[-1] + "\n"),
            ),
            "{trace}:12: column consensus_residual: '-0.5' is a negative norm",
        ),
        (
            (),
            lambda files: (_set_row(0, 1, "0.5")(files), _set_last_row(2, "inf")(files)),
            "{trace}:12: column alpha_k: '0.5' is not the metadata's stepsize alpha_0 = 1",
        ),
    ],
    ids=[
        "reference-length",
        "non-integer-cell",
        "missing-last-cell",
        "bad-abort-marker",
        "missing-agent",
        "directory",
        "nan-reference",
        "infinite-reference",
        "nan-max-dist",
        "infinite-max-dist",
        "zero-max-dist",
        "negative-max-dist",
        "bad-alpha0",
        "bad-max-rounds",
        "zero-k0",
        "missing-gamma",
        "unknown-mode",
        "max-rounds-past-int64",
        "agents-past-numpy",
        "dimension-past-numpy",
        "max-rounds-with-underscore",
        "agents-with-spaces",
        "seed-with-sign",
        "alpha0-as-integer",
        "gamma-with-trailing-zero",
        "negative-tail-start",
        "round-past-max-rounds",
        "block-past-the-partition",
        "negative-block",
        "block-with-a-plus-sign",
        "block-zero-with-a-plus-sign",
        "block-zero-with-a-leading-zero",
        "round-with-a-leading-zero",
        "round-with-a-plus-sign",
        "round-zero-with-a-leading-zero",
        "round-zero-with-a-minus-sign",
        "abort-marker-below-one",
        "abort-marker-past-max-rounds",
        "abort-marker-not-past-the-last-row",
        "metadata-after-the-rows",
        "negative-distance",
        "negative-consensus-residual",
        "negative-fp-residual",
        "infinite-fp-residual",
        "infinite-distance",
        "snapshot-round-past-int64",
        "row-with-a-leading-space",
        "row-with-a-digit-underscore",
        "row-with-a-tab",
        "row-in-arabic-indic-digits",
        "negative-alpha",
        "zero-alpha",
        "alpha-above-one",
        "alpha-off-the-stepsize",
        "alpha-off-the-stepsize-in-the-tenth-digit",
        "negative-norm-before-a-repeated-round",
        "off-stepsize-before-an-infinite-residual",
    ],
)
def test_compare_rejects_malformed_input(capsys, dkm6_trace, tmp_path, options, edit, message):
    files = {"trace": dkm6_trace.read_text(), "snap": snapshot_path_for(dkm6_trace).read_text()}
    if edit is not None:
        edit(files)
    trace = tmp_path / "t.csv"
    trace.write_text(files["trace"])
    snapshot_path_for(trace).write_text(files["snap"])
    code, out, err = cli(capsys, "compare", str(trace), *(o.format(dir=tmp_path) for o in options))
    assert code == EXIT_PARSE
    assert "final distance" not in out
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: " + message.format(trace=trace, snap=snapshot_path_for(trace), dir=tmp_path))


def test_compare_reads_the_first_out_of_range_row(capsys, dkm6_trace, tmp_path):
    # rows 50 and 80 both hold a value no run writes; the refusal names the earlier one
    lines = dkm6_trace.read_text().splitlines()
    for k, column, value in ((80, 1, "2"), (50, 4, "-3")):
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{k},"))
        parts = lines[i].split(",")
        parts[column] = value
        lines[i] = ",".join(parts)
    trace = tmp_path / "t.csv"
    trace.write_text("\n".join(lines) + "\n")
    code, _, err = cli(capsys, "compare", str(trace))
    assert code == EXIT_PARSE
    assert err.splitlines() == [f"config error: {trace}:62: column dist_to_ref: '-3' is a negative norm"]


def test_huge_agent_count_is_refused_at_the_companion_within_its_size(capsys, dkm6_trace, tmp_path):
    # a companion of 6 x 3 cells per round against 10**6 x 3 in the metadata: memory follows the file, not agents
    files = {"trace": dkm6_trace.read_text()}
    _set_meta("agents", "1000000")(files)
    trace = tmp_path / "t.csv"
    trace.write_text(files["trace"])
    snapshot_path_for(trace).write_text(snapshot_path_for(dkm6_trace).read_text())
    tracemalloc.start()
    try:
        code, out, err = cli(capsys, "compare", str(trace))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == [
        f"config error: {snapshot_path_for(trace)}: round 0 has 18 of 1000000 x 3 snapshot cells"
    ]
    assert peak < 8 * 2**20


def _append_byte_ff(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def test_non_utf8_trace_is_refused(capsys, dkm6_trace, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_bytes(dkm6_trace.read_bytes())
    offset = trace.stat().st_size
    _append_byte_ff(trace)
    code, out, err = cli(capsys, "compare", str(trace))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == [
        f"config error: cannot read trace file: {trace} is not UTF-8 text (byte 0xff at offset {offset})"
    ]


def test_non_utf8_snapshot_companion_is_refused(capsys, dkm6_trace, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_bytes(dkm6_trace.read_bytes())
    snap = snapshot_path_for(trace)
    snap.write_bytes(snapshot_path_for(dkm6_trace).read_bytes())
    offset = snap.stat().st_size
    _append_byte_ff(snap)
    code, out, err = cli(capsys, "compare", str(trace))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == [
        f"config error: cannot read snapshot file: {snap} is not UTF-8 text (byte 0xff at offset {offset})"
    ]


def test_non_utf8_reference_file_is_refused(capsys, dkm6_trace, tmp_path):
    reference = tmp_path / "r.json"
    reference.write_bytes(b"[1.0, 2.0, \xff3.0]")
    code, out, err = cli(capsys, "compare", str(dkm6_trace), "--reference", str(reference))
    assert (code, out) == (EXIT_PARSE, "")
    assert err.splitlines() == [
        f"config error: cannot read reference file '{reference}': {reference} is not UTF-8 text (byte 0xff at offset 11)"
    ]


def test_compare_tail_start_past_end(capsys, finished_trace):
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--tail-start", "10000")
    assert code == EXIT_PARSE
    assert "no recorded rounds" in out


def test_compare_tail_may_start_at_the_last_round(capsys, finished_trace):
    trace = read_trace(finished_trace)
    last = trace.last()
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--tail-start", str(last.k))
    assert code == EXIT_OK
    fitted = last.consensus_residual / trace.stepsize.alpha_half(last.k)
    assert f"fitted consensus rate constant (tail from k={last.k}): {fitted:.6g}" in out.splitlines()
    code, out, _ = cli(capsys, "compare", str(finished_trace), "--tail-start", str(last.k + 1))
    assert code == EXIT_PARSE
    assert out.splitlines() == [f"no recorded rounds at or after tail_start={last.k + 1}"]


def test_compare_missing_trace(capsys, tmp_path):
    code, _, err = cli(capsys, "compare", str(tmp_path / "none.csv"))
    assert code == EXIT_PARSE
    assert "config error" in err


def test_compare_header_only_trace(capsys, dkm6_trace, tmp_path):
    trace = tmp_path / "t.csv"
    trace.write_text("".join(line for line in dkm6_trace.read_text().splitlines(True) if not line[0].isdigit()))
    code, out, err = cli(capsys, "compare", str(trace))
    assert (code, out, err) == (EXIT_PARSE, "trace has no data rows\n", "")


def test_compare_notes_an_aborted_run(capsys, tmp_path):
    # one agent whose state doubles every round, as in the divergence test above
    doc = {
        "problem": {"kind": "consensus", "agents": 1, "dimension": 1},
        "graph": {"matrices": [[[2.0]]], "window": 1, "weight_floor": 0.4},
        "stepsize": {"gamma": 0.7},
        "run": {"mode": "dkm", "max_rounds": 500, "seed": 0},
        "output": {"trace": str(tmp_path / "d.csv")},
    }
    save_config(doc, tmp_path / "doubling.yaml")
    assert cli(capsys, "run", str(tmp_path / "doubling.yaml"), "--skip-validate")[0] == EXIT_DIVERGENCE
    aborted_at = read_trace(tmp_path / "d.csv").aborted_at
    code, out, err = cli(capsys, "compare", str(tmp_path / "d.csv"), "--tail-start", "0")
    assert (code, err) == (EXIT_OK, "")
    assert out.splitlines()[:2] == [f"note: run aborted at k={aborted_at}", f"final round: {aborted_at - 1}"]


def test_compare_max_dist_without_a_distance_column(capsys, tmp_path):
    trace = tmp_path / "t.csv"
    write_trace(run(replace(build_preset("paper-dkm-6", max_rounds=100).config, reference=None)), trace)
    assert read_trace(trace).last().dist_to_ref is None
    code, out, err = cli(capsys, "compare", str(trace), "--max-dist", "1")
    assert (code, err) == (EXIT_PARSE, "")
    assert "final distance to reference" not in out
    assert out.splitlines()[-1] == "no distance available to test against --max-dist"


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_export_load_export_gives_identical_text(capsys, tmp_path, name):
    path = tmp_path / f"{name}.yaml"
    assert cli(capsys, "export", name, "--output", str(path))[0] == EXIT_OK
    code, out, _ = cli(capsys, "export", str(path))
    assert code == EXIT_OK
    assert out == path.read_text()


def test_export_to_a_missing_directory_is_a_config_error(capsys, tmp_path):
    target = tmp_path / "nodir" / "x.yaml"
    code, out, err = cli(capsys, "export", "paper-dkm-6", "--output", str(target))
    assert code == EXIT_PARSE
    assert out == ""
    assert err.splitlines() == [f"config error: cannot write config file: [Errno 2] No such file or directory: '{target}'"]
