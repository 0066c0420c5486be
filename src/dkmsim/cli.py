"""Command-line front end: validate, run, oracle, compare.

Exit codes: 0 success; 2 config or trace parse failure; 3 assumption or
threshold check failure; 4 divergence; 1 unexpected error. Scenario
arguments accept either a preset name or a path to a YAML config file.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import dump_config, load_config, scenario_from_config, scenario_to_config, trace_path_from_config
from .diagnostics import TraceRecord, distance_to_reference, fit_consensus_rate, fixed_point_residual
from .engine import run, validate_full
from .errors import ConfigError, DivergenceError, DkmsimError, read_text
from .scenarios import PRESET_NAMES, Scenario, build_preset
from .tracefile import check_trace_path, read_trace, snapshot_path_for, write_trace

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIVERGENCE = 4


def _load_scenario(spec: str) -> tuple[Scenario, str]:
    """Resolve a preset name or config path; returns (scenario, trace path)."""
    if spec in PRESET_NAMES:
        scenario = build_preset(spec)
        return scenario, f"{spec}.trace.csv"
    doc = load_config(spec)
    scenario = scenario_from_config(doc, name=Path(spec).stem)
    return scenario, trace_path_from_config(doc)


def cmd_validate(args) -> int:
    scenario, _ = _load_scenario(args.scenario)
    reports = validate_full(scenario.config)
    for report in reports:
        print(report.summary())
    if all(r.passed for r in reports):
        print("all checks passed")
        return EXIT_OK
    return EXIT_VALIDATION


def cmd_run(args) -> int:
    scenario, trace_path = _load_scenario(args.scenario)
    overrides = {"seed": args.seed, "max_rounds": args.max_rounds, "snapshot_every": args.snapshot_cadence}
    # revalidates the overridden values and recomputes a seed-dependent reference
    scenario = scenario.with_run(**{k: v for k, v in overrides.items() if v is not None})
    config = scenario.config
    if args.output is not None:
        trace_path = args.output
    check_trace_path(trace_path)

    if not args.skip_validate:
        reports = validate_full(config)
        bad = [r for r in reports if not r.passed]
        if bad:
            for report in reports:
                print(report.summary())
            return EXIT_VALIDATION

    try:
        trace = run(config, validate=False)
    except DivergenceError as e:
        where = f"diverged after round {e.last_round} at agent {e.agent}, coordinate {e.coordinate}"
        try:
            write_trace(e.trace, trace_path)
        except ConfigError as err:
            # the divergence is the run's outcome; the lost trace is reported beside it
            print(f"{where}; partial trace not written")
            print(f"config error: {err}", file=sys.stderr)
            return EXIT_DIVERGENCE
        print(f"{where}; partial trace written to {trace_path}")
        return EXIT_DIVERGENCE

    write_trace(trace, trace_path)
    last = trace.last()
    print(f"{scenario.name}: {config.mode}, {config.max_rounds} rounds, seed {config.seed}")
    print(f"trace written to {trace_path}")
    if len(trace.snapshot_rounds):
        print(f"snapshots written to {snapshot_path_for(trace_path)}")
    _print_final(last, last.dist_to_ref)
    return EXIT_OK


def _print_final(last: TraceRecord, dist: float | None) -> None:
    print(f"final consensus residual: {last.consensus_residual:.6g}")
    if last.fp_residual is not None:
        print(f"final fixed-point residual: {last.fp_residual:.6g}")
    if dist is not None:
        print(f"final distance to reference: {dist:.6g}")


def cmd_oracle(args) -> int:
    scenario, _ = _load_scenario(args.scenario)
    if scenario.reference is None:
        print("scenario has no reference solution")
        return EXIT_PARSE
    residual = fixed_point_residual(scenario.config.family, scenario.reference)
    coords = ", ".join(format(v, ".12g") for v in scenario.reference)
    print(f"reference solution: [{coords}]")
    print(f"fixed-point residual at reference: {residual:.6g}")
    print(f"source: {scenario.reference_source}")
    return EXIT_OK


def _load_reference_arg(text: str) -> np.ndarray:
    """--reference accepts an inline JSON list like "[1.0, 2.0]" or the path to a JSON file."""
    source = text.strip()
    what = "inline reference"
    if not source.startswith("["):
        what = f"reference file {source!r}"
        if not Path(source).exists():
            raise ConfigError(f"{what} does not exist")
        source = read_text(source, what)
    try:
        entries = np.asarray(json.loads(source), dtype=object)
        # float64 would read true as 1.0 and "1" as 1; of the JSON values, only a number parses to an int or float
        if bad := [entry for entry in entries.flat if type(entry) not in (int, float)]:
            raise TypeError(f"entry {json.dumps(bad[0])} is not a number")
        reference = entries.astype(np.float64)
    except (ValueError, TypeError, OverflowError, RecursionError) as e:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{what} is not a JSON number list: {e}") from e
    if not np.all(np.isfinite(reference)):
        raise ConfigError(f"reference has non-finite entries: {reference.tolist()}")
    return reference


def cmd_compare(args) -> int:
    if args.max_dist is not None:
        if not math.isfinite(args.max_dist):
            raise ConfigError(f"--max-dist must be finite, got {args.max_dist}")
        # no distance is below a nonpositive threshold, so such a test could never pass
        if args.max_dist <= 0:
            raise ConfigError(f"--max-dist must be positive, got {args.max_dist}")
    if args.tail_start is not None and args.tail_start < 0:
        raise ConfigError(f"--tail-start must be >= 0, got {args.tail_start}")
    trace = read_trace(args.trace)
    if not len(trace.table):
        print("trace has no data rows")
        return EXIT_PARSE
    last = trace.last()
    if trace.aborted_at is not None:
        print(f"note: run aborted at k={trace.aborted_at}")

    final_dist = last.dist_to_ref
    if args.reference is not None:
        reference = _load_reference_arg(args.reference)
        # snapshot rounds are recorded rounds, so only the last can be the final round
        if not len(trace.snapshot_rounds) or trace.snapshot_rounds[-1] != last.k:
            print(f"trace has no snapshot of its final round k={last.k}; cannot apply the reference")
            return EXIT_PARSE
        if reference.shape != (trace.n,):
            raise ConfigError(f"reference has shape {reference.shape}, the trace has {trace.n} coordinates")
        final_dist = distance_to_reference(trace.snapshots[-1], reference)
        print(f"distance recomputed from snapshot at k={last.k}")

    tail_start = trace.max_rounds // 10 if args.tail_start is None else args.tail_start
    # rounds increase, so the tail is empty exactly when the last round precedes it
    if last.k < tail_start:
        print(f"no recorded rounds at or after tail_start={tail_start}")
        return EXIT_PARSE
    fitted = fit_consensus_rate(trace, tail_start)

    print(f"final round: {last.k}")
    _print_final(last, final_dist)
    print(f"fitted consensus rate constant (tail from k={tail_start}): {fitted:.6g}")

    if args.max_dist is not None:
        if final_dist is None:
            print("no distance available to test against --max-dist")
            return EXIT_PARSE
        if final_dist < args.max_dist:
            print(f"PASS: distance {final_dist:.6g} < {args.max_dist:g}")
        else:
            print(f"FAIL: distance {final_dist:.6g} >= {args.max_dist:g}")
            return EXIT_VALIDATION
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process. A parsed `command` names its handler, cmd_<command>."""
    parser = argparse.ArgumentParser(
        prog="dkmsim",
        description="Distributed fixed-point iteration simulator over time-varying graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scenario_help = f"preset name ({', '.join(PRESET_NAMES)}) or path to a YAML config"

    p = sub.add_parser("validate", help="run every assumption check and report pass/fail")
    p.add_argument("scenario", help=scenario_help)

    p = sub.add_parser("run", help="simulate and write a trace file")
    p.add_argument("scenario", help=scenario_help)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--max-rounds", type=int, default=None, help="override the round budget")
    p.add_argument("--skip-validate", action="store_true", help="skip assumption checks")
    p.add_argument(
        "--snapshot-cadence",
        type=int,
        default=None,
        metavar="K",
        help="record full state snapshots every K rounds",
    )
    p.add_argument("--output", default=None, help="trace file path (default from config)")

    p = sub.add_parser("oracle", help="print the scenario's reference solution")
    p.add_argument("scenario", help=scenario_help)

    p = sub.add_parser("compare", help="summarize a trace against a reference/thresholds")
    p.add_argument("trace", help="path to a trace CSV written by `dkmsim run`")
    p.add_argument(
        "--reference",
        default=None,
        help="reference point: inline JSON list or path to a JSON file",
    )
    p.add_argument("--max-dist", type=float, default=None, help="fail if final distance >= this")
    p.add_argument(
        "--tail-start",
        type=int,
        default=None,
        help="first round of the rate-fit tail (default max_rounds/10)",
    )

    p = sub.add_parser("export", help="write a preset's config YAML for editing")
    p.add_argument("scenario", help=scenario_help)
    p.add_argument("--output", default=None, help="where to write the YAML (default stdout)")
    return parser


def cmd_export(args) -> int:
    scenario, trace_path = _load_scenario(args.scenario)
    doc = scenario_to_config(scenario, trace_path=trace_path)
    text = dump_config(doc)
    if args.output is None:
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text)
        except OSError as e:
            raise ConfigError(f"cannot write config file: {e}") from e
        print(f"config written to {args.output}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a handler replaced on this module after the first call is the one run
    handler = globals()[f"cmd_{args.command}"]
    try:
        return handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except DkmsimError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
