"""Config documents: strict YAML schema mapping to scenarios and back.

A config has four required sections (problem, graph, stepsize, run) and an
optional output section. Unknown keys are rejected everywhere, with the
offending path in the error. Every preset serializes to a document that
loads back to an equivalent scenario.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import yaml

from .blocks import as_point, as_states
from .engine import MODES, BlockSelector, UniformInit
from .errors import ConfigError, DkmsimError
from .graphs import GraphSchedule, ring_schedule
from .operators import Affine, Ball, Box, GradientStep, Huber, Identity, Projection, Quadratic
from .scenarios import (
    Scenario,
    build_consensus_scenario,
    build_dgd_scenario,
    build_distance_scenario,
    build_linear_scenario,
    staircase_boxes,
)
from .stepsize import PowerLawStepsize

TOP_KEYS = {"name", "problem", "graph", "stepsize", "run", "output"}
PROBLEM_KINDS = ("distance", "dgd", "linear", "consensus")


def _check_keys(mapping, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(mapping, dict):
        raise ConfigError(f"expected a mapping, got {type(mapping).__name__}", path)
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown}; allowed: {sorted(allowed)}", path)
    missing = sorted(required - set(mapping))
    if missing:
        raise ConfigError(f"missing required key(s) {missing}", path)


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"expected a number, got {value!r}", path)
    return float(value)


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"expected an integer, got {value!r}", path)
    return value


def _as_str(value, path: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"expected a string, got {value!r}", path)
    return value


def _as_vector(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError("expected a nonempty list of numbers", path)
    try:
        return as_point([_as_float(v, path) for v in value])
    except DkmsimError as e:
        raise ConfigError(str(e), path) from e


def _as_matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ConfigError("expected a nonempty list of rows", path)
    rows = [_as_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    width = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != width:
            raise ConfigError(f"row {i} has {row.shape[0]} entries, expected {width}", path)
    return np.stack(rows)


# ---------------------------------------------------------------------------
# loading


def _load_sets(items, path: str):
    if not isinstance(items, list) or not items:
        raise ConfigError("expected a nonempty list of sets", path)
    sets = []
    for i, item in enumerate(items):
        p = f"{path}[{i}]"
        _check_keys(item, {"kind", "lower", "upper", "center", "radius"}, {"kind"}, p)
        kind = _as_str(item["kind"], f"{p}.kind")
        try:
            if kind == "box":
                _check_keys(item, {"kind", "lower", "upper"}, {"kind", "lower", "upper"}, p)
                sets.append(Box(_as_vector(item["lower"], f"{p}.lower"), _as_vector(item["upper"], f"{p}.upper")))
            elif kind == "ball":
                _check_keys(item, {"kind", "center", "radius"}, {"kind", "center", "radius"}, p)
                sets.append(Ball(_as_vector(item["center"], f"{p}.center"), _as_float(item["radius"], f"{p}.radius")))
            else:
                raise ConfigError(f"unknown set kind {kind!r}; expected box or ball", f"{p}.kind")
        except ConfigError:
            raise
        except DkmsimError as e:
            raise ConfigError(str(e), p) from e
    return sets


def _load_objectives(items, path: str):
    if not isinstance(items, list) or not items:
        raise ConfigError("expected a nonempty list of objectives", path)
    objectives = []
    for i, item in enumerate(items):
        p = f"{path}[{i}]"
        _check_keys(item, {"kind", "matrix", "target", "delta"}, {"kind"}, p)
        kind = _as_str(item["kind"], f"{p}.kind")
        try:
            if kind == "quadratic":
                _check_keys(item, {"kind", "matrix", "target"}, {"kind", "matrix", "target"}, p)
                objectives.append(
                    Quadratic(_as_matrix(item["matrix"], f"{p}.matrix"), _as_vector(item["target"], f"{p}.target"))
                )
            elif kind == "huber":
                _check_keys(item, {"kind", "target", "delta"}, {"kind", "target"}, p)
                delta = _as_float(item.get("delta", 1.0), f"{p}.delta")
                objectives.append(Huber(_as_vector(item["target"], f"{p}.target"), delta))
            else:
                raise ConfigError(f"unknown objective kind {kind!r}; expected quadratic or huber", f"{p}.kind")
        except ConfigError:
            raise
        except DkmsimError as e:
            raise ConfigError(str(e), p) from e
    return objectives


def _load_graph(section, path: str) -> GraphSchedule:
    _check_keys(section, {"ring", "matrices", "window", "weight_floor"}, set(), path)
    has_ring = "ring" in section
    has_explicit = "matrices" in section
    if has_ring == has_explicit:
        raise ConfigError("give either ring: {...} or matrices/window/weight_floor, not both", path)
    try:
        if has_ring:
            ring = section["ring"]
            _check_keys(ring, {"agents", "period", "weight"}, {"agents", "period"}, f"{path}.ring")
            return ring_schedule(
                _as_int(ring["agents"], f"{path}.ring.agents"),
                _as_int(ring["period"], f"{path}.ring.period"),
                _as_float(ring.get("weight", 0.5), f"{path}.ring.weight"),
            )
        _check_keys(section, {"matrices", "window", "weight_floor"}, {"matrices", "window", "weight_floor"}, path)
        mats = section["matrices"]
        if not isinstance(mats, list) or not mats:
            raise ConfigError("expected a nonempty list of matrices", f"{path}.matrices")
        matrices = [_as_matrix(m, f"{path}.matrices[{t}]") for t, m in enumerate(mats)]
        return GraphSchedule(
            matrices,
            Q=_as_int(section["window"], f"{path}.window"),
            weight_floor=_as_float(section["weight_floor"], f"{path}.weight_floor"),
        )
    except ConfigError:
        raise
    except DkmsimError as e:
        raise ConfigError(str(e), path) from e


def _load_stepsize(section, path: str) -> PowerLawStepsize:
    _check_keys(section, {"alpha0", "gamma", "k0"}, set(), path)
    try:
        return PowerLawStepsize(
            alpha0=_as_float(section.get("alpha0", 1.0), f"{path}.alpha0"),
            gamma=_as_float(section.get("gamma", 0.7), f"{path}.gamma"),
            k0=_as_int(section.get("k0", 1), f"{path}.k0"),
        )
    except DkmsimError as e:
        raise ConfigError(str(e), path) from e


def _load_init(section, path: str):
    if section is None:
        return UniformInit()
    _check_keys(section, {"kind", "low", "high", "states"}, {"kind"}, path)
    kind = _as_str(section["kind"], f"{path}.kind")
    try:
        if kind == "uniform":
            _check_keys(section, {"kind", "low", "high"}, {"kind"}, path)
            return UniformInit(
                _as_float(section.get("low", -5.0), f"{path}.low"),
                _as_float(section.get("high", 5.0), f"{path}.high"),
            )
        if kind == "explicit":
            _check_keys(section, {"kind", "states"}, {"kind", "states"}, path)
            return as_states(_as_matrix(section["states"], f"{path}.states"))
    except ConfigError:
        raise
    except DkmsimError as e:
        raise ConfigError(str(e), path) from e
    raise ConfigError(f"unknown init kind {kind!r}; expected uniform or explicit", f"{path}.kind")


def load_config(path) -> dict:
    """Read and structurally validate a YAML config file."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config file: {e}") from e
    except yaml.YAMLError as e:
        raise ConfigError(f"not valid YAML: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config must be a mapping of sections")
    return doc


def scenario_from_config(doc: dict, name: str = "config") -> Scenario:
    """Build a runnable scenario from a parsed config document."""
    _check_keys(doc, TOP_KEYS, {"problem", "graph", "stepsize", "run"}, "top level")
    if "name" in doc:
        name = _as_str(doc["name"], "name")

    schedule = _load_graph(doc["graph"], "graph")
    stepsize = _load_stepsize(doc["stepsize"], "stepsize")

    run_sec = doc["run"]
    _check_keys(
        run_sec,
        {
            "mode",
            "max_rounds",
            "seed",
            "blocks",
            "probabilities",
            "init",
            "reference",
            "record_every",
            "snapshot_every",
        },
        {"max_rounds"},
        "run",
    )
    mode = _as_str(run_sec.get("mode", "dkm"), "run.mode")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}", "run.mode")
    block_dims = None
    if "blocks" in run_sec:
        blocks = run_sec["blocks"]
        if not isinstance(blocks, list) or not blocks:
            raise ConfigError("expected a nonempty list of block dimensions", "run.blocks")
        block_dims = tuple(_as_int(b, f"run.blocks[{i}]") for i, b in enumerate(blocks))
    selector = None
    if "probabilities" in run_sec:
        if mode != "dbkm":
            raise ConfigError("probabilities only apply to mode dbkm", "run.probabilities")
        probs = run_sec["probabilities"]
        if not isinstance(probs, list) or not probs:
            raise ConfigError("expected a nonempty list of probabilities", "run.probabilities")
        try:
            selector = BlockSelector(tuple(_as_float(p, f"run.probabilities[{i}]") for i, p in enumerate(probs)))
        except DkmsimError as e:
            raise ConfigError(str(e), "run.probabilities") from e

    explicit_reference = run_sec.get("reference")

    run_kwargs = dict(
        name=name,
        max_rounds=_as_int(run_sec["max_rounds"], "run.max_rounds"),
        seed=_as_int(run_sec.get("seed", 0), "run.seed"),
        init=_load_init(run_sec.get("init"), "run.init"),
    )
    if "record_every" in run_sec:
        run_kwargs["record_every"] = _as_int(run_sec["record_every"], "run.record_every")
    if "snapshot_every" in run_sec:
        run_kwargs["snapshot_every"] = _as_int(run_sec["snapshot_every"], "run.snapshot_every")

    problem = doc["problem"]
    _check_keys(
        problem,
        {
            "kind",
            "sets",
            "staircase_agents",
            "tau",
            "objectives",
            "matrices",
            "offsets",
            "theta",
            "agents",
            "dimension",
        },
        {"kind"},
        "problem",
    )
    kind = _as_str(problem["kind"], "problem.kind")
    if kind != "consensus":
        run_kwargs.update(
            mode=mode, block_dims=block_dims, selector=selector, compute_reference=explicit_reference is None
        )

    try:
        if kind == "distance":
            _check_keys(problem, {"kind", "sets", "staircase_agents"}, {"kind"}, "problem")
            if ("sets" in problem) == ("staircase_agents" in problem):
                raise ConfigError("give either sets or staircase_agents, not both", "problem")
            if "staircase_agents" in problem:
                sets = staircase_boxes(_as_int(problem["staircase_agents"], "problem.staircase_agents"))
            else:
                sets = _load_sets(problem["sets"], "problem.sets")
            scenario = build_distance_scenario(sets, schedule, stepsize, **run_kwargs)
        elif kind == "dgd":
            _check_keys(problem, {"kind", "tau", "objectives"}, {"kind", "tau", "objectives"}, "problem")
            scenario = build_dgd_scenario(
                _load_objectives(problem["objectives"], "problem.objectives"),
                _as_float(problem["tau"], "problem.tau"),
                schedule,
                stepsize,
                **run_kwargs,
            )
        elif kind == "linear":
            _check_keys(problem, {"kind", "matrices", "offsets", "theta"}, {"kind", "matrices", "offsets"}, "problem")
            mats = problem["matrices"]
            offs = problem["offsets"]
            if not isinstance(mats, list) or not mats:
                raise ConfigError("expected a nonempty list of matrices", "problem.matrices")
            if not isinstance(offs, list) or not offs:
                raise ConfigError("expected a nonempty list of offsets", "problem.offsets")
            theta = problem.get("theta")
            scenario = build_linear_scenario(
                [_as_matrix(m, f"problem.matrices[{i}]") for i, m in enumerate(mats)],
                [_as_vector(r, f"problem.offsets[{i}]") for i, r in enumerate(offs)],
                schedule,
                stepsize,
                theta=None if theta is None else _as_float(theta, "problem.theta"),
                **run_kwargs,
            )
        elif kind == "consensus":
            _check_keys(problem, {"kind", "agents", "dimension"}, {"kind", "agents", "dimension"}, "problem")
            if mode != "dkm" or block_dims is not None or selector is not None:
                raise ConfigError("consensus problems run in mode dkm with a single block", "problem")
            scenario = build_consensus_scenario(
                _as_int(problem["agents"], "problem.agents"),
                _as_int(problem["dimension"], "problem.dimension"),
                schedule,
                stepsize,
                **run_kwargs,
            )
        else:
            raise ConfigError(f"unknown problem kind {kind!r}; expected one of {PROBLEM_KINDS}", "problem.kind")
    except ConfigError:
        raise
    except DkmsimError as e:
        raise ConfigError(str(e), "problem") from e

    if explicit_reference is not None:
        ref = _as_vector(explicit_reference, "run.reference")
        if ref.shape[0] != scenario.config.family.n:
            raise ConfigError(
                f"reference has {ref.shape[0]} coordinates, problem has {scenario.config.family.n}",
                "run.reference",
            )
        # a plain Scenario: the file's reference stays put under later run overrides
        scenario = Scenario(scenario.name, replace(scenario.config, reference=ref), "config file")

    if "output" in doc:
        _check_keys(doc["output"], {"trace"}, set(), "output")
        if "trace" in doc["output"]:
            _as_str(doc["output"]["trace"], "output.trace")

    return scenario


def trace_path_from_config(doc: dict, default: str = "trace.csv") -> str:
    out = doc.get("output") or {}
    return out.get("trace", default)


# ---------------------------------------------------------------------------
# serialization


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _matrix_lists(arr) -> list:
    return [[float(v) for v in row] for row in np.asarray(arr)]


def scenario_to_config(scenario: Scenario, trace_path: str | None = None) -> dict:
    """Serialize a scenario to a config document that loads back equivalently."""
    config = scenario.config
    family = config.family
    ops = family.operators

    if all(isinstance(op, Projection) for op in ops):
        sets = []
        for op in ops:
            s = op.target_set
            if isinstance(s, Box):
                sets.append({"kind": "box", "lower": _floats(s.lower), "upper": _floats(s.upper)})
            else:
                sets.append({"kind": "ball", "center": _floats(s.center), "radius": float(s.radius)})
        problem = {"kind": "distance", "sets": sets}
    elif all(isinstance(op, GradientStep) for op in ops):
        objectives = []
        for op in ops:
            f = op.objective
            if isinstance(f, Quadratic):
                objectives.append(
                    {"kind": "quadratic", "matrix": _matrix_lists(f.matrix), "target": _floats(f.target)}
                )
            else:
                objectives.append({"kind": "huber", "target": _floats(f.target), "delta": float(f.delta)})
        problem = {"kind": "dgd", "tau": float(ops[0].tau), "objectives": objectives}
    elif all(isinstance(op, Affine) for op in ops):
        problem = {
            "kind": "linear",
            "matrices": [_matrix_lists(op.matrix) for op in ops],
            "offsets": [_floats(op.offset) for op in ops],
            "theta": float(ops[0].theta),
        }
    elif all(isinstance(op, Identity) for op in ops):
        problem = {"kind": "consensus", "agents": family.n_agents, "dimension": family.n}
    else:
        raise ConfigError("family mixes operator kinds; cannot serialize")

    schedule = config.schedule
    ring = schedule.ring_params
    if ring is not None:
        graph = {"ring": {"agents": ring[0], "period": ring[1], "weight": float(ring[2])}}
    else:
        graph = {
            "matrices": [_matrix_lists(A) for A in schedule.matrices],
            "window": schedule.Q,
            "weight_floor": float(schedule.weight_floor),
        }

    run_sec: dict = {
        "mode": config.mode,
        "max_rounds": config.max_rounds,
        "seed": config.seed,
    }
    if family.partition.m > 1:
        run_sec["blocks"] = list(family.partition.dims)
    if config.selector is not None:
        run_sec["probabilities"] = [float(p) for p in config.selector.probabilities]
    if isinstance(config.init, UniformInit):
        run_sec["init"] = {"kind": "uniform", "low": float(config.init.low), "high": float(config.init.high)}
    else:
        run_sec["init"] = {"kind": "explicit", "states": _matrix_lists(config.init)}
    if config.reference is not None:
        run_sec["reference"] = _floats(config.reference)
    if config.record_every is not None:
        run_sec["record_every"] = config.record_every
    if config.snapshot_every is not None:
        run_sec["snapshot_every"] = config.snapshot_every

    doc = {
        "name": scenario.name,
        "problem": problem,
        "graph": graph,
        "stepsize": {
            "alpha0": float(config.stepsize.alpha0),
            "gamma": float(config.stepsize.gamma),
            "k0": config.stepsize.k0,
        },
        "run": run_sec,
        "output": {"trace": trace_path or f"{scenario.name}.trace.csv"},
    }
    return doc


def save_config(doc: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
