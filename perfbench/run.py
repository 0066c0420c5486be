"""dkmsim benchmark: seeded CLI jobs, end-to-end metrics, and a traced pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root. Each job drives `dkmsim.cli.main` in this
process, one job after another (closed loop, one thread). The package is
imported from ./src, so nothing needs installing. --trace 0 prints the
end-to-end metrics; --trace 1 prints the per-layer metrics of a traced pass.
The last line of standard output is the JSON result; the line before it is
the run's metadata (environment, seeds, failures). See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
import traceback
from dataclasses import dataclass
from pathlib import Path

import yaml
from spans import Patches, SpanRecorder, SpanSummary, leftover_wrappers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("dbkm100", "dgd-quadratic", "dkm6-trace")
MIN_REPS = 3
SMOKE_ROUNDS = 300
WARMUP_ROUNDS = 100

END_TO_END = (
    ("round_us", "us"),
    ("setup_s", "s"),
    ("job_s", "s"),
    ("run_peak_mib", "MiB"),
    ("success_rate", "ratio"),
)

ORACLES = (
    "oracle_linear_solve",
    "oracle_distance_minimizer",
    "oracle_least_squares_minimizer",
    "oracle_smooth_minimizer",
)
BUILDERS = (
    "build_preset",
    "build_distance_scenario",
    "build_dgd_scenario",
    "build_linear_scenario",
    "build_consensus_scenario",
)

# (metric, unit, quantity, span names): quantity is "self_per_round" (us of
# self time per simulated round), "calls_per_round", or "self_ms" (ms of self
# time per job).
PER_LAYER = (
    ("engine.run.self_us_per_round", "us/round", "self_per_round", ("engine.run",)),
    ("engine.step.self_us_per_round", "us/round", "self_per_round", ("engine.dkm_step", "engine.dbkm_step")),
    ("engine.draw_block.calls_per_round", "calls/round", "calls_per_round", ("engine.draw_block",)),
    ("engine.draw_block.self_us_per_round", "us/round", "self_per_round", ("engine.draw_block",)),
    ("engine.validate_full.self_ms", "ms", "self_ms", ("engine.validate_full",)),
    ("graphs.mix.calls_per_round", "calls/round", "calls_per_round", ("graphs.mix",)),
    ("graphs.mix.self_us_per_round", "us/round", "self_per_round", ("graphs.mix",)),
    ("graphs.validate_schedule.self_ms", "ms", "self_ms", ("graphs.validate_schedule",)),
    (
        "operators.displacement_all.self_us_per_round",
        "us/round",
        "self_per_round",
        ("operators.displacement_all",),
    ),
    (
        "operators.displacement_block_all.self_us_per_round",
        "us/round",
        "self_per_round",
        ("operators.displacement_block_all",),
    ),
    (
        "operators.local_displacement.calls_per_round",
        "calls/round",
        "calls_per_round",
        ("operators.local_displacement",),
    ),
    (
        "operators.global_displacement.calls_per_round",
        "calls/round",
        "calls_per_round",
        ("operators.global_displacement",),
    ),
    ("operators.check_nonexpansive.self_ms", "ms", "self_ms", ("operators.check_nonexpansive",)),
    ("blocks.as_point.calls_per_round", "calls/round", "calls_per_round", ("blocks.as_point",)),
    ("blocks.as_states.calls_per_round", "calls/round", "calls_per_round", ("blocks.as_states",)),
    ("blocks.validate.self_us_per_round", "us/round", "self_per_round", ("blocks.as_point", "blocks.as_states")),
    ("stepsize.alpha.calls_per_round", "calls/round", "calls_per_round", ("stepsize.alpha",)),
    ("diagnostics.records_per_round", "records/round", "calls_per_round", ("diagnostics.TraceRecord",)),
    (
        "diagnostics.consensus_residual.self_us_per_round",
        "us/round",
        "self_per_round",
        ("diagnostics.consensus_residual",),
    ),
    (
        "diagnostics.fixed_point_residual.self_us_per_round",
        "us/round",
        "self_per_round",
        ("diagnostics.fixed_point_residual",),
    ),
    (
        "diagnostics.distance_to_reference.self_us_per_round",
        "us/round",
        "self_per_round",
        ("diagnostics.distance_to_reference",),
    ),
    ("scenarios.oracle.self_ms", "ms", "self_ms", tuple(f"scenarios.{name}" for name in ORACLES)),
    ("scenarios.build.self_ms", "ms", "self_ms", tuple(f"scenarios.{name}" for name in BUILDERS)),
    ("config.load.self_ms", "ms", "self_ms", ("config.load_config", "config.scenario_from_config")),
    ("tracefile.write_trace.self_ms", "ms", "self_ms", ("tracefile.write_trace",)),
    ("tracefile.read_trace.self_ms", "ms", "self_ms", ("tracefile.read_trace",)),
    ("tracefile.read_snapshots.self_ms", "ms", "self_ms", ("tracefile.read_snapshots",)),
    ("cli.compare.self_ms", "ms", "self_ms", ("cli.compare",)),
)
EXTRA_PER_LAYER = (("tracefile.bytes_written", "bytes"), ("bench.trace_overhead_ratio", "ratio"))

# Boundaries the traced pass wraps: (span, module, function) is wrapped in every
# dkmsim module that bound the function; (span, module, class, method) on the class.
SPAN_TARGETS = (
    ("cli.main", "dkmsim.cli", "main"),
    ("cli.compare", "dkmsim.cli", "cmd_compare"),
    ("engine.run", "dkmsim.engine", "run"),
    ("engine.validate_full", "dkmsim.engine", "validate_full"),
    ("engine.dkm_step", "dkmsim.engine", "dkm_step"),
    ("engine.dbkm_step", "dkmsim.engine", "dbkm_step"),
    ("engine.draw_block", "dkmsim.engine", "draw_block"),
    ("graphs.mix", "dkmsim.graphs", "mix"),
    ("graphs.validate_schedule", "dkmsim.graphs", "validate_schedule"),
    ("operators.check_nonexpansive", "dkmsim.operators", "check_nonexpansive"),
    ("diagnostics.consensus_residual", "dkmsim.diagnostics", "consensus_residual"),
    ("diagnostics.fixed_point_residual", "dkmsim.diagnostics", "fixed_point_residual"),
    ("diagnostics.distance_to_reference", "dkmsim.diagnostics", "distance_to_reference"),
    ("blocks.as_point", "dkmsim.blocks", "as_point"),
    ("blocks.as_states", "dkmsim.blocks", "as_states"),
    *((f"scenarios.{name}", "dkmsim.scenarios", name) for name in ORACLES + BUILDERS),
    ("config.load_config", "dkmsim.config", "load_config"),
    ("config.scenario_from_config", "dkmsim.config", "scenario_from_config"),
    ("tracefile.write_trace", "dkmsim.tracefile", "write_trace"),
    ("tracefile.read_trace", "dkmsim.tracefile", "read_trace"),
    ("tracefile.read_snapshots", "dkmsim.tracefile", "read_snapshots"),
    *(
        (f"operators.{name}", "dkmsim.operators", "OperatorFamily", name)
        for name in ("displacement_all", "displacement_block_all", "evaluate_all", "global_displacement", "global_evaluate")
    ),
    ("operators.family_evaluate", "dkmsim.operators", "OperatorFamily", "evaluate"),
    ("stepsize.alpha", "dkmsim.stepsize", "PowerLawStepsize", "alpha"),
)


def _import_cli():
    """Import dkmsim.cli from ./src; exit nonzero when the sources are not there."""
    if not (SRC / "dkmsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no dkmsim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dkmsim.cli

    if Path(dkmsim.__file__).resolve().parent != SRC / "dkmsim":
        sys.exit(f"perfbench: imported dkmsim from {dkmsim.__file__}, not {SRC}")
    return dkmsim.cli


# ---------------------------------------------------------------------------
# jobs


def _read_trace_tail(path: Path) -> tuple[dict[str, str], dict[str, str]]:
    """(metadata, last data row) of a trace CSV, parsed without dkmsim."""
    meta: dict[str, str] = {}
    header = None
    last = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, value = line.lstrip("#").strip().partition("=")
            if sep:
                meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            last = line.split(",")
    if header is None or last is None:
        raise ValueError(f"{path.name} has no data rows")
    return meta, dict(zip(header, last))


class Workload:
    """One user job: the CLI calls it makes and the checks its output must pass."""

    def __init__(self, name: str, seed: int, work: Path, smoke: bool, cli):
        self.name = name
        self.seed = seed
        self.cli = cli
        self.trace = work / f"{name}.trace.csv"
        self.snapshots = work / f"{name}.trace.snapshots.csv"
        rounds = ["--max-rounds", str(SMOKE_ROUNDS)] if smoke else []
        seed_args = ["--seed", str(seed), *rounds]
        if name == "dbkm100":
            self.commands = [["run", "paper-dbkm-100", *seed_args, "--output", str(self.trace)]]
        elif name == "dgd-quadratic":
            self.commands = [["run", "dgd-quadratic", *seed_args, "--output", str(self.trace)]]
        elif name == "dkm6-trace":
            config = self._export_dkm6(work)
            oracle = work / "paper-dkm-6.oracle.json"
            from dkmsim.scenarios import oracle_distance_minimizer, staircase_boxes

            oracle.write_text(json.dumps([float(v) for v in oracle_distance_minimizer(staircase_boxes(6))]))
            self.commands = [
                ["run", str(config), *seed_args],
                ["compare", str(self.trace), "--reference", str(oracle), "--max-dist", "5e-2"],
            ]
        else:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.first_output: bytes | None = None
        self.trace_seeds: set[str] = set()

    def _export_dkm6(self, work: Path) -> Path:
        path = work / "paper-dkm-6.yaml"
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(["export", "paper-dkm-6", "--output", str(path)])
        if code != 0:
            raise RuntimeError(f"dkmsim export exited {code}")
        doc = yaml.safe_load(path.read_text())
        doc["run"]["record_every"] = 1
        doc["run"]["snapshot_every"] = 50
        doc["output"]["trace"] = str(self.trace)
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        return path

    def warm_up(self) -> None:
        """One short untimed job, so first-call costs stay out of the timings."""
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            self.cli.main([*self.commands[0], "--max-rounds", str(WARMUP_ROUNDS)])

    def execute(self) -> tuple[float, float, list[int], str]:
        """Run the job's CLI calls; (start, end, exit codes, captured output)."""
        for path in (self.trace, self.snapshots):
            path.unlink(missing_ok=True)
        out = io.StringIO()
        codes = []
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            for argv in self.commands:
                try:
                    codes.append(self.cli.main(argv))
                except Exception:  # a crash is a failed job, not a failed benchmark
                    traceback.print_exc()
                    codes.append(1)
        return start, time.perf_counter(), codes, out.getvalue()

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in (self.trace, self.snapshots) if p.exists())

    def check(self, codes: list[int], output: str) -> list[str]:
        """Failure messages for the job just executed; empty when it is correct."""
        if any(c != 0 for c in codes):
            return [f"exit codes {codes}: {(output.strip().splitlines() or [''])[-1]}"]
        try:
            meta, last = _read_trace_tail(self.trace)
        except (OSError, ValueError) as e:
            return [f"unreadable trace: {e}"]
        problems = []
        self.trace_seeds.add(meta.get("seed", ""))
        if meta.get("seed") != str(self.seed):
            problems.append(f"trace seed {meta.get('seed')!r} is not the workload seed {self.seed}")
        if self.name == "dbkm100" and not float(last["fp_residual"]) < 5e-2:
            problems.append(f"final fp_residual {last['fp_residual']} >= 5e-2")
        if self.name == "dgd-quadratic" and not float(last["dist_to_ref"]) < 5e-2:
            problems.append(f"final dist_to_ref {last['dist_to_ref']} >= 5e-2")
        if self.name == "dkm6-trace":
            for column in ("consensus_residual", "fp_residual"):
                if not float(last[column]) < 1e-2:
                    problems.append(f"final {column} {last[column]} >= 1e-2")
        data = b"".join(p.read_bytes() for p in (self.trace, self.snapshots) if p.exists())
        if self.first_output is None:
            self.first_output = data
        elif data != self.first_output:
            problems.append("trace bytes differ from the first repetition with this seed")
        return problems


class RunProbe:
    """The one wrapper of the untraced passes: times (or memory-profiles) engine.run."""

    def __init__(self, cli, memory: bool = False):
        self.cli = cli
        self.memory = memory
        self.orig = cli.run
        self.entry = self.exit = 0.0
        self.rounds = 0
        self.peak = 0

    def __call__(self, config, *args, **kwargs):
        self.rounds = config.max_rounds
        if self.memory:
            tracemalloc.start()
        self.entry = time.perf_counter()
        try:
            return self.orig(config, *args, **kwargs)
        finally:
            self.exit = time.perf_counter()
            if self.memory:
                self.peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

    def __enter__(self):
        self.cli.run = self
        return self

    def __exit__(self, *exc):
        self.cli.run = self.orig


class Tally:
    """Jobs attempted and failed, with each distinct failure message."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                if p not in self.messages:
                    self.messages.append(p)


def timed_loop(job: Workload, tally: Tally, seconds: float, min_reps: int) -> dict[str, list[float]]:
    """Repeat the job for about `seconds`, and at least min_reps times; per-job samples.

    No job starts that would, at the median job time so far, end past the deadline.
    """
    samples: dict[str, list[float]] = {"round_us": [], "setup_s": [], "job_s": []}
    deadline = time.perf_counter() + seconds
    while len(samples["job_s"]) < min_reps or time.perf_counter() + statistics.median(samples["job_s"]) < deadline:
        with RunProbe(job.cli) as probe:
            start, end, codes, output = job.execute()
        tally.add(job.check(codes, output))
        if probe.rounds:
            samples["round_us"].append((probe.exit - probe.entry) / probe.rounds * 1e6)
            samples["setup_s"].append(probe.entry - start)
        samples["job_s"].append(end - start)
    return samples


def memory_pass(job: Workload, tally: Tally) -> float:
    """tracemalloc peak of engine.run in MiB, from one job of its own."""
    with RunProbe(job.cli, memory=True) as probe:
        _, _, codes, output = job.execute()
    tally.add(job.check(codes, output))
    return probe.peak / 2**20


# ---------------------------------------------------------------------------
# traced pass


def _lookup(module: str, *names: str):
    obj = sys.modules.get(module)
    for name in names:
        obj = getattr(obj, name, None)
    return obj


def install_spans(patches: Patches) -> list[str]:
    """Wrap the layer boundaries listed in SPAN_TARGETS; returns the ones not found.

    A boundary a later refactor removed is skipped, so its metrics read 0.
    """
    missing = []
    for span, module, *path in SPAN_TARGETS:
        owner = _lookup(module, *path[:-1])
        if getattr(owner, path[-1], None) is None:
            missing.append(".".join((module, *path)))
        elif isinstance(owner, type):
            patches.method(span, owner, path[-1])
        else:
            patches.function(span, module, path[-1])
    if _lookup("dkmsim.engine", "TraceRecord") is None:
        missing.append("dkmsim.engine.TraceRecord")
    else:
        # the engine builds its records through its own binding; the class stays intact elsewhere
        patches.function("diagnostics.TraceRecord", "dkmsim.engine", "TraceRecord", everywhere=False)
    base = _lookup("dkmsim.operators", "LocalOperator")
    if base is None:
        missing.append("dkmsim.operators.LocalOperator")
        return missing
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending += cls.__subclasses__()
        patches.method("operators.local_displacement", cls, "displacement")
        patches.method("operators.local_displacement_block", cls, "displacement_block")
    return missing


@dataclass
class TracedPass:
    summary: SpanSummary
    rounds: int
    job_modules_ns: dict[str, int]
    problems: list[str]
    missing: list[str]


def traced_pass(job: Workload, work: Path, label: str) -> TracedPass:
    """One job under span wrappers, with its consistency checks."""
    recorder = SpanRecorder()
    patches = Patches(recorder)
    try:
        missing = install_spans(patches)
        _, _, codes, output = recorder.wrap("bench.job", job.execute)()
    finally:
        patches.restore()
    spans_file = work / f"spans-{label}.npz"
    recorder.save(spans_file)

    summary = SpanSummary(spans_file)
    problems = job.check(codes, output) + [f"pass {label}: {p}" for p in summary.problems]
    leftovers = leftover_wrappers()
    if leftovers:
        problems.append(f"pass {label}: wrappers left installed: {', '.join(leftovers)}")
    partitions = {root: summary.module_self_ns(root) for root in ("bench.job", "engine.run")}
    for root, (total, modules) in partitions.items():
        if total <= 0 or sum(modules.values()) != total:
            problems.append(f"pass {label}: module self times sum to {sum(modules.values())} ns, {root} took {total} ns")
    # a job that wrote no trace has failed its check already; 1 keeps the ratios finite
    rounds = int(_read_trace_tail(job.trace)[0]["max_rounds"]) if job.trace.exists() else 1
    return TracedPass(summary, rounds, partitions["bench.job"][1], problems, missing)


def per_layer_metrics(passes: list[TracedPass], untraced_round_us: float, bytes_written: int) -> dict[str, float]:
    """Per-layer values averaged over the traced passes."""
    values: dict[str, float] = {}
    for name, _, quantity, spans in PER_LAYER:
        per_pass = []
        for p in passes:
            if quantity == "calls_per_round":
                per_pass.append(sum(p.summary.calls.get(s, 0) for s in spans) / p.rounds)
            elif quantity == "self_per_round":
                per_pass.append(sum(p.summary.self_ns.get(s, 0) for s in spans) / p.rounds / 1e3)
            else:
                per_pass.append(sum(p.summary.self_ns.get(s, 0) for s in spans) / 1e6)
        values[name] = statistics.fmean(per_pass)
    traced_round_us = statistics.fmean(p.summary.total_ns.get("engine.run", 0) / p.rounds / 1e3 for p in passes)
    values["tracefile.bytes_written"] = float(bytes_written)
    values["bench.trace_overhead_ratio"] = traced_round_us / untraced_round_us
    return values


# ---------------------------------------------------------------------------
# environment and main


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):
        pass
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the repeated jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help=f"{SMOKE_ROUNDS}-round jobs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cli = _import_cli()
    work_root = ROOT / ".perfbench-work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        job = Workload(args.workload, args.seed, work, args.smoke, cli)
        tally = Tally()
        min_reps = 2 if args.smoke else MIN_REPS
        job.warm_up()
        if args.trace:
            passes = [traced_pass(job, work, label) for label in "AB"]
            bytes_written = job.output_bytes()
            if passes[0].summary.calls != passes[1].summary.calls:
                passes[1].problems.append("call counts differ between the two traced passes")
            for p in passes:
                tally.add(p.problems)
            samples = timed_loop(job, tally, args.seconds, 1)
            metrics = per_layer_metrics(passes, statistics.median(samples["round_us"] or [1.0]), bytes_written)
            units = {name: unit for name, unit, *_ in PER_LAYER} | dict(EXTRA_PER_LAYER)
            extra = {
                "module_self_ms": [{m: ns / 1e6 for m, ns in sorted(p.job_modules_ns.items())} for p in passes],
                "unwrapped": passes[0].missing,
            }
        else:
            samples = timed_loop(job, tally, args.seconds, min_reps)
            peak = memory_pass(job, tally)
            # a job that never reached run() has no round time; it is already a failure
            metrics = {name: statistics.median(samples[name] or [0.0]) for name in ("round_us", "setup_s", "job_s")}
            metrics["run_peak_mib"] = peak
            metrics["success_rate"] = 1.0 - tally.failed / tally.attempted
            units = dict(END_TO_END)
            extra = {"samples": samples}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()

    for message in tally.messages:
        print(f"perfbench: FAILED: {message}", file=sys.stderr)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace_seeds": sorted(job.trace_seeds),
        "smoke": args.smoke,
        "failures": tally.messages,
        "env": environment(),
        **extra,
    }
    print(json.dumps({"perfbench": meta}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
