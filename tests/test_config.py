"""Config documents: strict parsing, clear error paths, lossless round-trips."""

import copy

import numpy as np
import pytest
import yaml

from dkmsim import (
    BlockPartition,
    BlockSelector,
    Identity,
    OperatorFamily,
    PowerLawStepsize,
    Projection,
    Box,
    RunConfig,
    UniformInit,
    build_preset,
    load_config,
    ring_schedule,
    save_config,
    scenario_from_config,
    scenario_to_config,
    trace_path_from_config,
)
from dkmsim.config import _RUN, KINDS, PROBLEMS
from dkmsim.errors import ConfigError
from dkmsim.graphs import GraphSchedule
from dkmsim.scenarios import PRESET_NAMES, Scenario


def make_doc():
    """Minimal valid distance config, fresh copy each call."""
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
        "run": {"mode": "dkm", "max_rounds": 100, "seed": 0},
    }


# ---------------------------------------------------------------------------
# file-level failures


def test_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.yaml")


def test_invalid_yaml(tmp_path):
    p = tmp_path / "bad.yaml"
    p.write_text("problem: [unclosed\n  nope")
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(p)


def test_non_mapping_document(tmp_path):
    p = tmp_path / "list.yaml"
    p.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="mapping"):
        load_config(p)


# ---------------------------------------------------------------------------
# strict keys, with the offending path in the message


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.update(extra=1), "top level"),
        (lambda d: d["problem"].update(bogus=1), "problem"),
        (lambda d: d["graph"]["ring"].update(speed=9), "graph.ring"),
        (lambda d: d["run"].update(typo_rounds=5), "run"),
        (lambda d: d.update(output={"trace": "t.csv", "video": "t.mp4"}), "output"),
        (lambda d: d["stepsize"].update(warmup=3), "stepsize"),
        (lambda d: d["problem"]["sets"][0].update(color="red"), "problem.sets[0]"),
    ],
)
def test_unknown_keys_rejected_with_path(mutate, path_fragment):
    doc = make_doc()
    mutate(doc)
    with pytest.raises(ConfigError) as exc:
        scenario_from_config(doc)
    assert path_fragment in str(exc.value)


def test_missing_required_section():
    doc = make_doc()
    del doc["run"]
    with pytest.raises(ConfigError, match="run"):
        scenario_from_config(doc)


def test_missing_max_rounds():
    doc = make_doc()
    del doc["run"]["max_rounds"]
    with pytest.raises(ConfigError, match="max_rounds"):
        scenario_from_config(doc)


# ---------------------------------------------------------------------------
# semantic cross-checks


def test_sets_and_staircase_are_exclusive():
    doc = make_doc()
    doc["problem"]["staircase_agents"] = 6
    with pytest.raises(ConfigError, match="not both"):
        scenario_from_config(doc)
    del doc["problem"]["sets"]
    del doc["problem"]["staircase_agents"]
    with pytest.raises(ConfigError, match="either"):
        scenario_from_config(doc)


def test_staircase_shortcut_builds_six_boxes():
    doc = make_doc()
    del doc["problem"]["sets"]
    doc["problem"]["staircase_agents"] = 6
    doc["graph"] = {"ring": {"agents": 6, "period": 2, "weight": 0.5}}
    sc = scenario_from_config(doc)
    assert sc.config.family.n_agents == 6
    assert sc.config.family.n == 3


def test_probabilities_require_block_mode():
    doc = make_doc()
    doc["run"]["probabilities"] = [0.5, 0.5]
    with pytest.raises(ConfigError, match="dbkm"):
        scenario_from_config(doc)


def test_unknown_mode_rejected():
    doc = make_doc()
    doc["run"]["mode"] = "warp"
    with pytest.raises(ConfigError, match="run.mode"):
        scenario_from_config(doc)


def test_consensus_rejects_block_mode():
    doc = {
        "problem": {"kind": "consensus", "agents": 3, "dimension": 2},
        "graph": {"ring": {"agents": 3, "period": 1, "weight": 0.5}},
        "stepsize": {},
        "run": {"mode": "dbkm", "max_rounds": 10, "probabilities": [1.0]},
    }
    with pytest.raises(ConfigError, match="consensus"):
        scenario_from_config(doc)


def test_graph_needs_exactly_one_form():
    doc = make_doc()
    doc["graph"]["matrices"] = [[[1.0]]]
    with pytest.raises(ConfigError, match="not both"):
        scenario_from_config(doc)
    doc["graph"] = {}
    with pytest.raises(ConfigError, match="either"):
        scenario_from_config(doc)


def test_bad_stepsize_value_type():
    doc = make_doc()
    doc["stepsize"]["gamma"] = "fast"
    with pytest.raises(ConfigError, match="stepsize.gamma"):
        scenario_from_config(doc)


def test_bad_init_kind():
    doc = make_doc()
    doc["run"]["init"] = {"kind": "gaussian"}
    with pytest.raises(ConfigError, match="run.init.kind"):
        scenario_from_config(doc)


def test_item_keys_follow_the_class_defaults():
    # a field without a default is a required key; one with a default may be left out
    doc = make_doc()
    del doc["problem"]["sets"][1]["upper"]
    with pytest.raises(ConfigError, match=r"problem.sets\[1\]: missing required key\(s\) \['upper'\]"):
        scenario_from_config(doc)
    doc = make_doc()
    doc["run"]["init"] = {"kind": "uniform", "high": 2.0}
    assert scenario_from_config(doc).config.init == UniformInit(high=2.0)
    doc["run"]["init"] = {"kind": "uniform", "states": [[1.0], [2.0]]}
    with pytest.raises(ConfigError, match=r"run.init: unknown key\(s\) \['states'\]"):
        scenario_from_config(doc)


def test_explicit_init_round_trips():
    doc = make_doc()
    doc["run"]["init"] = {"kind": "explicit", "states": [[0.25], [-1.5]]}
    sc = scenario_from_config(doc)
    assert np.array_equal(sc.config.init, [[0.25], [-1.5]])


def test_set_dimension_mismatch_is_config_error():
    doc = make_doc()
    doc["problem"]["sets"][1] = {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]}
    with pytest.raises(ConfigError):
        scenario_from_config(doc)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("max_rounds", 0, "max_rounds must be >= 1, got 0"),
        ("seed", -2, "seed must be >= 0, got -2"),
        ("record_every", 0, "record_every must be >= 1, got 0"),
        ("snapshot_every", 0, "snapshot_every must be >= 1, got 0"),
        ("init", {"kind": "explicit", "states": [[0.0] * 3] * 2}, "state matrix has 2 rows, expected 6 agents"),
    ],
    ids=["max_rounds", "seed", "record_every", "snapshot_every", "init"],
)
def test_run_field_refusal_names_its_run_key(key, value, message):
    doc = scenario_to_config(build_preset("paper-dkm-6"))
    doc["run"][key] = value
    with pytest.raises(ConfigError) as exc:
        scenario_from_config(doc)
    assert str(exc.value) == f"run.{key}: {message}"
    assert exc.value.path == f"run.{key}"


# ---------------------------------------------------------------------------
# explicit reference handling


def test_explicit_reference_overrides_oracle():
    doc = make_doc()
    doc["run"]["reference"] = [1.25]
    sc = scenario_from_config(doc)
    assert sc.reference_source == "config file"
    assert sc.reference[0] == 1.25
    assert np.array_equal(sc.config.reference, sc.reference)


def test_explicit_reference_survives_run_overrides():
    doc = {
        "problem": {"kind": "consensus", "agents": 4, "dimension": 2},
        "graph": {"ring": {"agents": 4, "period": 2}},
        "stepsize": {},
        "run": {"max_rounds": 20, "seed": 0, "reference": [0.5, -0.5]},
    }
    sc = scenario_from_config(doc).with_run(seed=5)
    assert sc.reference_source == "config file"
    assert np.array_equal(sc.reference, [0.5, -0.5])
    del doc["run"]["reference"]
    derived = scenario_from_config(doc)
    assert derived.reference_source.startswith("initial mean")
    assert not np.array_equal(derived.with_run(seed=5).reference, derived.reference)


def test_explicit_reference_length_checked():
    doc = make_doc()
    doc["run"]["reference"] = [1.0, 2.0]
    with pytest.raises(ConfigError, match="run.reference"):
        scenario_from_config(doc)


# ---------------------------------------------------------------------------
# serialization round-trips


def scenario_fields(sc):
    c = sc.config
    return {
        "mode": c.mode,
        "max_rounds": c.max_rounds,
        "seed": c.seed,
        "stepsize": c.stepsize,
        "schedule": c.schedule,
        "dims": c.family.partition.dims,
        "n_agents": c.family.n_agents,
        "probs": None if c.selector is None else c.selector.probabilities,
        "init": c.init,
    }


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_round_trip_through_yaml(name, tmp_path):
    sc1 = build_preset(name, max_rounds=50)
    doc = scenario_to_config(sc1)
    path = tmp_path / f"{name}.yaml"
    save_config(doc, path)
    sc2 = scenario_from_config(load_config(path))

    f1, f2 = scenario_fields(sc1), scenario_fields(sc2)
    for key in f1:
        if key == "init":
            assert isinstance(f2[key], UniformInit) and f1[key] == f2[key], key
        else:
            assert f1[key] == f2[key], key
    assert sc2.name == name
    # references survive the text format exactly (repr round-trip)
    assert np.array_equal(sc1.reference, sc2.reference)
    assert sc2.reference_source == "config file"
    # both families produce identical evaluations
    rng = np.random.default_rng(0)
    states = rng.uniform(-4, 4, (sc1.config.family.n_agents, sc1.config.family.n))
    assert np.array_equal(sc1.config.family.evaluate_all(states), sc2.config.family.evaluate_all(states))


def full_doc(name, problem, run):
    """A document as scenario_to_config writes it: every key present."""
    return {
        "name": name,
        "problem": problem,
        "graph": {"ring": {"agents": 3, "period": 2, "weight": 0.5}},
        "stepsize": {"alpha0": 0.5, "gamma": 0.8, "k0": 2},
        "run": {"mode": "dkm", "max_rounds": 40, "seed": 3, **run},
        "output": {"trace": f"{name}.trace.csv"},
    }


ROUND_TRIP_DOCS = {
    "box-and-ball": full_doc(
        "box-and-ball",
        {
            "kind": "distance",
            "sets": [
                {"kind": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                {"kind": "ball", "center": [3.0, 0.5], "radius": 1.5},
                {"kind": "box", "lower": [-1.0, 2.0], "upper": [0.5, 2.5]},
            ],
        },
        {"init": {"kind": "uniform", "low": -5.0, "high": 5.0}, "reference": [1.0, 1.0]},
    ),
    "quadratic-and-huber": full_doc(
        "quadratic-and-huber",
        {
            "kind": "dgd",
            "tau": 0.25,
            "objectives": [
                {"kind": "quadratic", "matrix": [[1.0, 0.0], [0.5, 2.0]], "target": [1.0, -1.0]},
                {"kind": "huber", "target": [0.5, 0.5], "delta": 0.25},
                {"kind": "huber", "target": [-0.5, 1.5], "delta": 1.0},
            ],
        },
        {
            "mode": "dbkm",
            "blocks": [1, 1],
            "probabilities": [0.25, 0.75],
            "init": {"kind": "uniform", "low": -5.0, "high": 5.0},
            "reference": [0.25, 0.5],
        },
    ),
    "uniform": full_doc(
        "uniform",
        {"kind": "linear", "matrices": [[[1.0]], [[2.0]], [[1.5]]], "offsets": [[1.0], [2.0], [0.0]], "theta": 0.5},
        {"init": {"kind": "uniform", "low": -2.0, "high": 3.5}, "reference": [0.75], "record_every": 4},
    ),
    "explicit-init": full_doc(
        "explicit-init",
        {"kind": "consensus", "agents": 3, "dimension": 2},
        {
            "init": {"kind": "explicit", "states": [[0.0, 1.0], [2.0, -1.0], [0.5, 0.5]]},
            "reference": [0.5, 0.0],
            "snapshot_every": 10,
        },
    ),
}


@pytest.mark.parametrize("name", ROUND_TRIP_DOCS)
def test_every_table_kind_round_trips(name):
    doc = ROUND_TRIP_DOCS[name]
    assert scenario_to_config(scenario_from_config(copy.deepcopy(doc))) == doc


def test_export_writes_run_keys_in_table_order():
    doc = copy.deepcopy(ROUND_TRIP_DOCS["quadratic-and-huber"])
    doc["run"].update(record_every=4, snapshot_every=10)
    doc["run"] = dict(reversed(doc["run"].items()))
    assert len(doc["run"]) == len(_RUN)
    exported = list(scenario_to_config(scenario_from_config(doc))["run"])
    assert exported == list(_RUN)
    assert exported == [
        "mode",
        "max_rounds",
        "seed",
        "blocks",
        "probabilities",
        "init",
        "reference",
        "record_every",
        "snapshot_every",
    ]


def test_round_trip_docs_cover_every_table_kind():
    def kinds(doc):
        items = doc["problem"].get("sets", []) + doc["problem"].get("objectives", []) + [doc["run"]["init"]]
        return {item["kind"] for item in items}

    used = set().union(*(kinds(doc) for doc in ROUND_TRIP_DOCS.values()))
    assert used == set(KINDS) | {"explicit"}
    assert {doc["problem"]["kind"] for doc in ROUND_TRIP_DOCS.values()} == set(PROBLEMS)


@pytest.mark.parametrize("name", ["dgd-huber", "linear-random"])
def test_block_mode_without_probabilities_is_uniform(name, tmp_path):
    doc = scenario_to_config(build_preset(name))
    n = len(doc["run"]["reference"])
    doc["run"].update(mode="dbkm", blocks=[1] * n)
    assert "probabilities" not in doc["run"]
    sc = scenario_from_config(doc)
    assert sc.config.selector == BlockSelector.uniform(n)
    exported = scenario_to_config(sc)
    assert exported["run"]["probabilities"] == [1.0 / n] * n
    save_config(exported, tmp_path / "exported.yaml")
    assert scenario_from_config(load_config(tmp_path / "exported.yaml")).config.selector == sc.config.selector


def test_explicit_matrix_graph_round_trips(tmp_path):
    mats = [np.array([[0.5, 0.5], [0.5, 0.5]]), np.eye(2)]
    schedule = GraphSchedule(mats, Q=2, weight_floor=0.5)
    part = BlockPartition.single(1)
    box = Box(np.array([0.0]), np.array([1.0]))
    family = OperatorFamily([Projection(part, box), Projection(part, box)])
    config = RunConfig(
        family=family,
        stepsize=PowerLawStepsize(1.0, 0.7, 1),
        schedule=schedule,
        max_rounds=10,
    )
    sc = Scenario(name="explicit-graph", config=config, reference_source="none")
    doc = scenario_to_config(sc)
    assert "matrices" in doc["graph"]
    path = tmp_path / "explicit.yaml"
    save_config(doc, path)
    sc2 = scenario_from_config(load_config(path))
    assert sc2.config.schedule == schedule


def test_mixed_family_cannot_serialize():
    part = BlockPartition.single(1)
    family = OperatorFamily([Projection(part, Box(np.array([0.0]), np.array([1.0]))), Identity(part)])
    config = RunConfig(
        family=family,
        stepsize=PowerLawStepsize(1.0, 0.7, 1),
        schedule=ring_schedule(2, 1, 0.5),
        max_rounds=10,
    )
    sc = Scenario(name="mixed", config=config, reference_source="none")
    with pytest.raises(ConfigError, match="mixes"):
        scenario_to_config(sc)


def test_trace_path_from_config():
    doc = make_doc()
    assert trace_path_from_config(doc) == "trace.csv"
    doc["output"] = {"trace": "runs/out.csv"}
    assert trace_path_from_config(doc) == "runs/out.csv"
    assert trace_path_from_config(make_doc(), default="other.csv") == "other.csv"


def test_serialized_doc_is_plain_yaml(tmp_path):
    doc = scenario_to_config(build_preset("dgd-huber", max_rounds=10))
    path = tmp_path / "h.yaml"
    save_config(doc, path)
    reloaded = yaml.safe_load(path.read_text())
    assert reloaded == doc  # only plain lists/dicts/scalars in the document


def test_deep_copies_do_not_alias():
    doc = make_doc()
    sc1 = scenario_from_config(copy.deepcopy(doc))
    sc2 = scenario_from_config(copy.deepcopy(doc))
    assert sc1.with_run(max_rounds=999).config.max_rounds == 999
    assert sc1.config.max_rounds == sc2.config.max_rounds == 100
    box1 = sc1.config.family.operators[0].target_set
    box2 = sc2.config.family.operators[0].target_set
    assert not np.shares_memory(box1.lower, box2.lower)
    assert sc1.config.reference is not None
    assert not np.shares_memory(sc1.config.reference, sc2.config.reference)
