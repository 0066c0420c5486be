"""Config documents: strict YAML schema mapping to scenarios and back.

A config has four required sections (problem, graph, stepsize, run) and an
optional output section. Unknown keys are rejected everywhere, with the
offending path in the error. Every preset serializes to a document that
loads back to an equivalent scenario.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import MISSING, replace
from inspect import signature

import numpy as np
import yaml

from . import scenarios
from .blocks import as_point, as_states
from .engine import MODES, BlockSelector, UniformInit
from .errors import ConfigError, DkmsimError
from .graphs import GraphSchedule, ring_schedule
from .operators import Affine, Ball, Box, GradientStep, Huber, Identity, Projection, Quadratic
from .scenarios import Scenario, staircase_boxes
from .stepsize import PowerLawStepsize

TOP_KEYS = {"name", "problem", "graph", "stepsize", "run", "output"}


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


@contextmanager
def _at(path: str):
    """Report a library error raised in the block as a ConfigError at path; ConfigErrors pass as they are."""
    try:
        yield
    except ConfigError:
        raise
    except DkmsimError as e:
        raise ConfigError(str(e), path) from e


def _as_list(value, what: str, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"expected a nonempty list of {what}", path)
    return value


def _as_vector(value, path: str) -> np.ndarray:
    numbers = [_as_float(v, path) for v in _as_list(value, "numbers", path)]
    with _at(path):
        return as_point(numbers)


def _as_matrix(value, path: str) -> np.ndarray:
    rows = [_as_vector(row, f"{path}[{i}]") for i, row in enumerate(_as_list(value, "rows", path))]
    width = rows[0].shape[0]
    for i, row in enumerate(rows):
        if row.shape[0] != width:
            raise ConfigError(f"row {i} has {row.shape[0]} entries, expected {width}", path)
    return np.stack(rows)


def _or_none(load):
    """load, with a null value loaded as None, as if the key were left out."""
    return lambda value, path: None if value is None else load(value, path)


def _floats(arr) -> list:
    return [float(v) for v in np.asarray(arr).ravel()]


def _matrix_lists(arr) -> list:
    return [[float(v) for v in row] for row in np.asarray(arr)]


# (load, dump) of one value: load parses and checks the YAML value, dump writes it back
_INTEGER = (_as_int, int)
_NUMBER = (_as_float, float)
_VECTOR = (_as_vector, _floats)
_MATRIX = (_as_matrix, _matrix_lists)

# The item kinds: each YAML kind's class, and the (load, dump) pair of each of
# its keys. The keys are the class's field names; a field with a default may
# be left out.
KINDS = {
    "box": (Box, {"lower": _VECTOR, "upper": _VECTOR}),
    "ball": (Ball, {"center": _VECTOR, "radius": _NUMBER}),
    "quadratic": (Quadratic, {"matrix": _MATRIX, "target": _VECTOR}),
    "huber": (Huber, {"target": _VECTOR, "delta": _NUMBER}),
    "uniform": (UniformInit, {"low": _NUMBER, "high": _NUMBER}),
}
_KIND_OF = {cls: kind for kind, (cls, _) in KINDS.items()}
_STEPSIZE_KEYS = {"alpha0": _NUMBER, "gamma": _NUMBER, "k0": _INTEGER}


# ---------------------------------------------------------------------------
# loading


def _load_fields(mapping, cls, keys: dict, path: str, extra: tuple = ()):
    """cls built from mapping's keys, each loaded by keys[key]; extra keys are allowed and required."""
    required = {key for key in keys if cls.__dataclass_fields__[key].default is MISSING}
    _check_keys(mapping, {*extra, *keys}, {*extra, *required}, path)
    with _at(path):
        return cls(**{key: load(mapping[key], f"{path}.{key}") for key, (load, _) in keys.items() if key in mapping})


def _load_item(item, path: str, noun: str, kinds: tuple[str, ...], also: tuple[str, ...] = ()):
    """The table class that item's kind names, out of kinds; the caller handles the kinds in also."""
    _check_keys(item, {"kind"}.union(*(KINDS[kind][1] for kind in kinds)), {"kind"}, path)
    kind = _as_str(item["kind"], f"{path}.kind")
    if kind not in kinds:
        raise ConfigError(f"unknown {noun} kind {kind!r}; expected {' or '.join(kinds + also)}", f"{path}.kind")
    cls, keys = KINDS[kind]
    return _load_fields(item, cls, keys, path, ("kind",))


def _dump_item(obj) -> dict:
    kind = _KIND_OF[type(obj)]
    return {"kind": kind, **_dump_fields(obj, KINDS[kind][1])}


def _dump_fields(obj, keys: dict) -> dict:
    return {key: dump(getattr(obj, key)) for key, (_, dump) in keys.items()}


def _items(noun: str, *kinds: str) -> tuple:
    """(load, dump) of one item whose kind is one of kinds."""
    return lambda item, path: _load_item(item, path, noun, kinds), _dump_item


def _per_agent(what: str, attr: str, value: tuple) -> tuple:
    """(load, dump) of a nonempty list of what, one value per agent; dump reads each operator's attr."""
    load, dump = value
    return (
        lambda values, path: [load(v, f"{path}[{i}]") for i, v in enumerate(_as_list(values, what, path))],
        lambda ops: [dump(getattr(op, attr)) for op in ops],
    )


# The problem kinds: each YAML kind's operator class, the name of its builder in
# scenarios, and the (load, dump) pair of each of its keys, in export order. A
# key is named after the builder parameter it fills, and may be left out when
# that parameter has a default; dump reads the value off the family's
# operators. A build looks its builder up by name, so a wrapper installed on
# the scenarios module (a tracer's, a test's) sees it.
PROBLEMS = {
    "distance": (Projection, "build_distance_scenario", {
        "sets": _per_agent("sets", "target_set", _items("set", "box", "ball")),
        # a load-only stand-in for sets, the N boxes of staircase_boxes(N); give exactly one of the two
        "staircase_agents": (lambda value, path: staircase_boxes(_as_int(value, path)), None),
    }),
    "dgd": (GradientStep, "build_dgd_scenario", {
        "tau": (_as_float, lambda ops: float(ops[0].tau)),
        "objectives": _per_agent("objectives", "objective", _items("objective", "quadratic", "huber")),
    }),
    "linear": (Affine, "build_linear_scenario", {
        "matrices": _per_agent("matrices", "matrix", _MATRIX),
        "offsets": _per_agent("offsets", "offset", _VECTOR),
        "theta": (_or_none(_as_float), lambda ops: float(ops[0].theta)),
    }),
    "consensus": (Identity, "build_consensus_scenario", {
        "agents": (_as_int, len),
        "dimension": (_as_int, lambda ops: ops[0].n),
    }),
}
# each kind's required keys: its builder's parameters without a default, but sets, which staircase_agents may fill
_REQUIRED = {
    kind: {name for name, p in signature(getattr(scenarios, build)).parameters.items() if p.default is p.empty}
    & keys.keys() - {"sets"}
    for kind, (_, build, keys) in PROBLEMS.items()
}


def _load_graph(section, path: str) -> GraphSchedule:
    _check_keys(section, {"ring", "matrices", "window", "weight_floor"}, set(), path)
    has_ring = "ring" in section
    has_explicit = "matrices" in section
    if has_ring == has_explicit:
        raise ConfigError("give either ring: {...} or matrices/window/weight_floor, not both", path)
    with _at(path):
        if has_ring:
            ring = section["ring"]
            _check_keys(ring, {"agents", "period", "weight"}, {"agents", "period"}, f"{path}.ring")
            return ring_schedule(
                _as_int(ring["agents"], f"{path}.ring.agents"),
                _as_int(ring["period"], f"{path}.ring.period"),
                _as_float(ring.get("weight", 0.5), f"{path}.ring.weight"),
            )
        _check_keys(section, {"matrices", "window", "weight_floor"}, {"matrices", "window", "weight_floor"}, path)
        mats = _as_list(section["matrices"], "matrices", f"{path}.matrices")
        return GraphSchedule(
            [_as_matrix(m, f"{path}.matrices[{t}]") for t, m in enumerate(mats)],
            Q=_as_int(section["window"], f"{path}.window"),
            weight_floor=_as_float(section["weight_floor"], f"{path}.weight_floor"),
        )


def _load_init(section, path: str):
    if section is None:
        return UniformInit()
    if isinstance(section, dict) and section.get("kind") == "explicit":
        _check_keys(section, {"kind", "states"}, {"kind", "states"}, path)
        with _at(path):
            return as_states(_as_matrix(section["states"], f"{path}.states"))
    return _load_item(section, path, "init", ("uniform",), also=("explicit",))


def _dump_init(init) -> dict:
    if isinstance(init, UniformInit):
        return _dump_item(init)
    return {"kind": "explicit", "states": _matrix_lists(init)}


def _load_mode(value, path: str) -> str:
    mode = _as_str(value, path)
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}", path)
    return mode


def _load_blocks(value, path: str) -> tuple[int, ...]:
    return tuple(_as_int(b, f"{path}[{i}]") for i, b in enumerate(_as_list(value, "block dimensions", path)))


def _load_selector(value, path: str) -> BlockSelector:
    probs = _as_list(value, "probabilities", path)
    with _at(path):
        return BlockSelector(tuple(_as_float(p, f"{path}[{i}]") for i, p in enumerate(probs)))


# The run section in export order: each key's (load, dump). load parses the
# YAML value; dump reads it off a RunConfig, and export leaves out a None.
_RUN = {
    "mode": (_load_mode, lambda config: config.mode),
    "max_rounds": (_as_int, lambda config: config.max_rounds),
    "seed": (_as_int, lambda config: config.seed),
    "blocks": (
        _load_blocks,
        lambda config: list(config.family.partition.dims) if config.family.partition.m > 1 else None,
    ),
    "probabilities": (
        _load_selector,
        lambda config: None if config.selector is None else _floats(config.selector.probabilities),
    ),
    "init": (_load_init, lambda config: _dump_init(config.init)),
    # a null reference asks for the computed one, like a missing key
    "reference": (_or_none(_as_vector), lambda config: None if config.reference is None else _floats(config.reference)),
    "record_every": (_as_int, lambda config: config.record_every),
    "snapshot_every": (_as_int, lambda config: config.snapshot_every),
}


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
    stepsize = _load_fields(doc["stepsize"], PowerLawStepsize, _STEPSIZE_KEYS, "stepsize")

    run_sec = doc["run"]
    _check_keys(run_sec, set(_RUN), {"max_rounds"}, "run")
    run_kwargs = {key: load(run_sec[key], f"run.{key}") for key, (load, _) in _RUN.items() if key in run_sec}
    mode = run_kwargs.pop("mode", "dkm")
    block_dims = run_kwargs.pop("blocks", None)
    selector = run_kwargs.pop("probabilities", None)
    if selector is not None and mode != "dbkm":
        raise ConfigError("probabilities only apply to mode dbkm", "run.probabilities")
    reference = run_kwargs.pop("reference", None)
    # the RunConfig fields left are applied after the build, each refusal under its own key
    run_fields, run_kwargs = run_kwargs, {"name": name}

    problem = doc["problem"]
    _check_keys(problem, {"kind"}.union(*(keys for _, _, keys in PROBLEMS.values())), {"kind"}, "problem")
    kind = _as_str(problem["kind"], "problem.kind")
    if kind not in PROBLEMS:
        raise ConfigError(f"unknown problem kind {kind!r}; expected one of {tuple(PROBLEMS)}", "problem.kind")
    _, build, keys = PROBLEMS[kind]
    _check_keys(problem, {"kind", *keys}, {"kind", *_REQUIRED[kind]}, "problem")
    if kind != "consensus":
        run_kwargs.update(mode=mode, block_dims=block_dims, selector=selector, compute_reference=reference is None)
    elif mode != "dkm" or block_dims is not None or selector is not None:
        raise ConfigError("consensus problems run in mode dkm with a single block", "problem")
    if kind == "distance" and ("sets" in problem) == ("staircase_agents" in problem):
        raise ConfigError("give either sets or staircase_agents, not both", "problem")

    with _at("problem"):
        args = {key: load(problem[key], f"problem.{key}") for key, (load, _) in keys.items() if key in problem}
        if "staircase_agents" in args:
            args["sets"] = args.pop("staircase_agents")
        scenario = getattr(scenarios, build)(schedule=schedule, stepsize=stepsize, **args, **run_kwargs)

    for key, value in run_fields.items():
        with _at(f"run.{key}"):
            scenario = scenario.with_run(**{key: value})
    if reference is not None:
        # a plain Scenario: the file's reference stays put under later run overrides
        with _at("run.reference"):
            scenario = Scenario(scenario.name, replace(scenario.config, reference=reference), "config file")

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


def scenario_to_config(scenario: Scenario, trace_path: str | None = None) -> dict:
    """Serialize a scenario to a config document that loads back equivalently."""
    config = scenario.config
    ops = config.family.operators
    for kind, (cls, _, keys) in PROBLEMS.items():
        if all(isinstance(op, cls) for op in ops):
            break
    else:
        raise ConfigError("family mixes operator kinds; cannot serialize")
    problem = {"kind": kind, **{key: dump(ops) for key, (_, dump) in keys.items() if dump is not None}}

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

    doc = {
        "name": scenario.name,
        "problem": problem,
        "graph": graph,
        "stepsize": _dump_fields(config.stepsize, _STEPSIZE_KEYS),
        "run": {key: value for key, (_, dump) in _RUN.items() if (value := dump(config)) is not None},
        "output": {"trace": trace_path or f"{scenario.name}.trace.csv"},
    }
    return doc


def save_config(doc: dict, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh, sort_keys=False)
