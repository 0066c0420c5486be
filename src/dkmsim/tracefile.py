"""Trace CSV files: one row per recorded round, plus a snapshot companion.

Layout: `# key=value` metadata comment lines, then the fixed header
`k,alpha_k,consensus_residual,fp_residual,dist_to_ref,selected_block`,
then data rows with at least 12 significant digits; inapplicable fields
are left empty. An aborted run ends with `# aborted at k=<k>`. Snapshots
go to the companion file snapshot_path_for(path), with header
`k,agent,coord_index,value` and one line per cell; read_trace reads both.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_left
from pathlib import Path

import numpy as np

from .diagnostics import Trace, TraceRecord
from .engine import MODES
from .errors import ConfigError, DkmsimError
from .stepsize import PowerLawStepsize

HEADER = "k,alpha_k,consensus_residual,fp_residual,dist_to_ref,selected_block"
SNAPSHOT_HEADER = "k,agent,coord_index,value"


def _fmt(value: float | None) -> str:
    return "" if value is None else format(value, ".12g")


def snapshot_path_for(trace_path) -> Path:
    p = Path(trace_path)
    return p.with_name(p.stem + ".snapshots" + (p.suffix or ".csv"))


def check_trace_path(path) -> None:
    """Refuse a trace path that cannot be written, before a run spends any work.

    Opens the file for appending, which neither truncates nor writes it, and
    removes it again if the probe created it. The refusal is the ConfigError
    write_trace would raise at the same path.
    """
    existed = os.path.lexists(path)
    try:
        Path(path).open("a").close()
    except OSError as e:
        raise ConfigError(f"cannot write trace file: {e}") from e
    if not existed:
        Path(path).unlink()


# metadata key -> (Trace field, parser of its text, its text in a trace); alpha0,
# gamma and k0 build the stepsize
_META = {
    "mode": ("mode", str, lambda trace: trace.mode),
    "agents": ("n_agents", int, lambda trace: str(trace.n_agents)),
    "dimension": ("n", int, lambda trace: str(trace.n)),
    "blocks": (
        "block_dims",
        lambda text: tuple(int(d) for d in text.split(",")),
        lambda trace: ",".join(str(d) for d in trace.block_dims),
    ),
    "seed": ("seed", int, lambda trace: str(trace.seed)),
    "max_rounds": ("max_rounds", int, lambda trace: str(trace.max_rounds)),
    "alpha0": ("alpha0", float, lambda trace: repr(trace.stepsize.alpha0)),
    "gamma": ("gamma", float, lambda trace: repr(trace.stepsize.gamma)),
    "k0": ("k0", int, lambda trace: str(trace.stepsize.k0)),
}


def write_trace(trace: Trace, path) -> None:
    """Write the trace; snapshots, if any were recorded, go to the companion at snapshot_path_for(path).

    Without snapshots, a companion left at that path by an earlier run is removed.
    """
    lines = ["# dkmsim-trace v1", *(f"# {key}={show(trace)}" for key, (_, _, show) in _META.items()), HEADER]
    for rec in trace.records:
        lines.append(
            ",".join(
                (
                    str(rec.k),
                    _fmt(rec.alpha_k),
                    _fmt(rec.consensus_residual),
                    _fmt(rec.fp_residual),
                    _fmt(rec.dist_to_ref),
                    "" if rec.selected_block is None else str(rec.selected_block),
                )
            )
        )
    if trace.aborted_at is not None:
        lines.append(f"# aborted at k={trace.aborted_at}")
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write trace file: {e}") from e

    snapshots = [rec for rec in trace.records if rec.snapshot is not None]
    snap_lines = [SNAPSHOT_HEADER]
    for rec in snapshots:
        for agent in range(rec.snapshot.shape[0]):
            for coord in range(rec.snapshot.shape[1]):
                snap_lines.append(
                    f"{rec.k},{agent},{coord},{format(rec.snapshot[agent, coord], '.17g')}"
                )
    try:
        if snapshots:
            snapshot_path_for(path).write_text("\n".join(snap_lines) + "\n")
        else:
            snapshot_path_for(path).unlink(missing_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write snapshot file: {e}") from e


def _parse_meta(meta: dict, path) -> dict:
    """Trace fields from the `# key=value` lines; every key write_trace writes must parse."""
    fields = {}
    for key, (name, parse, _) in _META.items():
        if key not in meta:
            raise ConfigError(f"{path}: trace metadata lacks {key}")
        try:
            fields[name] = parse(meta[key])
        except ValueError as e:
            raise ConfigError(f"{path}: trace metadata {key}={meta[key]!r} does not parse: {e}") from e
    if fields["mode"] not in MODES:
        raise ConfigError(f"{path}: trace metadata mode={fields['mode']!r} is not one of {MODES}")
    # the bounds RunConfig and BlockPartition put on every run that writes a trace
    for key, low in (("agents", 1), ("dimension", 1), ("seed", 0), ("max_rounds", 1)):
        if fields[_META[key][0]] < low:
            raise ConfigError(f"{path}: trace metadata {key}={meta[key]!r} is below {low}")
    if min(fields["block_dims"]) < 1 or sum(fields["block_dims"]) != fields["n"]:
        raise ConfigError(
            f"{path}: trace metadata blocks={meta['blocks']!r}"
            f" are not positive sizes summing to dimension={fields['n']}"
        )
    try:
        fields["stepsize"] = PowerLawStepsize(fields.pop("alpha0"), fields.pop("gamma"), fields.pop("k0"))
    except DkmsimError as e:
        raise ConfigError(f"{path}: trace metadata: {e}") from e
    return fields


def _parse_field(text: str, path, line_no: int, column: str, caster):
    if text == "":
        return None
    try:
        value = caster(text)
    except ValueError as e:
        raise ConfigError(f"{path}:{line_no}: column {column}: {text!r} is not numeric") from e
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{path}:{line_no}: column {column}: non-finite value {text!r}")
    return value


def read_trace(path) -> Trace:
    """Parse a trace file and, when there is one, its snapshot companion.

    Refuses malformed metadata and rows, non-increasing rounds, and a
    companion that read_snapshots refuses or that holds a round the trace did
    not record. Each companion round's state is the snapshot of that round's
    record; the records carry no max_state_norm, which the CSV does not store.
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read trace file: {e}") from e
    meta: dict = {}
    records: list[TraceRecord] = []
    aborted_at = None
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.startswith("aborted at k="):
                try:
                    aborted_at = int(body.split("=", 1)[1])
                except ValueError as e:
                    raise ConfigError(f"{path}:{line_no}: abort marker {line!r} has no round number") from e
            elif "=" in body:
                key, value = body.split("=", 1)
                meta[key.strip()] = value.strip()
            continue
        if not header_seen:
            if line != HEADER:
                raise ConfigError(f"{path}:{line_no}: expected header {HEADER!r}, got {line!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ConfigError(f"{path}:{line_no}: expected 6 columns, got {len(parts)}")
        k = _parse_field(parts[0], path, line_no, "k", int)
        alpha = _parse_field(parts[1], path, line_no, "alpha_k", float)
        cons = _parse_field(parts[2], path, line_no, "consensus_residual", float)
        if k is None or alpha is None or cons is None:
            raise ConfigError(f"{path}:{line_no}: k, alpha_k, consensus_residual must be present")
        if records and k <= records[-1].k:
            raise ConfigError(f"{path}:{line_no}: round {k} does not increase past {records[-1].k}")
        records.append(
            TraceRecord(
                k=k,
                alpha_k=alpha,
                consensus_residual=cons,
                fp_residual=_parse_field(parts[3], path, line_no, "fp_residual", float),
                dist_to_ref=_parse_field(parts[4], path, line_no, "dist_to_ref", float),
                selected_block=_parse_field(parts[5], path, line_no, "selected_block", int),
                max_state_norm=None,
            )
        )
    if not header_seen:
        raise ConfigError(f"{path}: no header row found")
    trace = Trace(**_parse_meta(meta, path), records=records, aborted_at=aborted_at)
    snapshot_path = snapshot_path_for(path)
    if snapshot_path.exists():
        rounds, states = read_snapshots(snapshot_path, trace.state_shape)
        ks = [rec.k for rec in records]
        for k, state in zip(rounds, states):
            i = bisect_left(ks, k)
            if i == len(ks) or ks[i] != k:
                raise ConfigError(f"{snapshot_path}: snapshot round {k} is not a round the trace recorded")
            records[i].snapshot = state
    return trace


def read_snapshots(path, shape: tuple[int, int]) -> tuple[list[int], np.ndarray]:
    """Parse a companion of (rows, n) states into its rounds and one (rounds, rows, n) array.

    The cells must come in write_trace's order: rounds increasing, and each
    round's rows x n cells agent by agent, coordinates increasing.
    """
    rows, n = shape
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read snapshot file: {e}") from e
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise ConfigError(f"{path}:1: expected header {SNAPSHOT_HEADER!r}")
    cells = [(agent, coord) for agent in range(rows) for coord in range(n)]
    rounds: list[int] = []
    values: list[float] = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"{path}:{line_no}: expected 4 columns, got {len(parts)}")
        try:
            k, agent, coord, value = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as e:
            raise ConfigError(f"{path}:{line_no}: expected three integers and a number, got {line!r}") from e
        if min(k, agent, coord) < 0 or not math.isfinite(value):
            raise ConfigError(f"{path}:{line_no}: negative index or non-finite value in {line!r}")
        j = len(values) % len(cells)
        if j == 0:
            if rounds and k <= rounds[-1]:
                raise ConfigError(
                    f"{path}:{line_no}: round {k} does not increase past {rounds[-1]}"
                    f" (a round holds {rows} x {n} cells)"
                )
            rounds.append(k)
        elif k != rounds[-1]:
            raise ConfigError(f"{path}: round {rounds[-1]} has {j} of {rows} x {n} snapshot cells")
        if (agent, coord) != cells[j]:
            want = "agent {}, coordinate {}".format(*cells[j])
            raise ConfigError(f"{path}:{line_no}: expected {want} of round {k}, got {line!r}")
        values.append(value)
    if len(values) % len(cells):
        raise ConfigError(f"{path}: round {rounds[-1]} has {len(values) % len(cells)} of {rows} x {n} snapshot cells")
    return rounds, np.array(values).reshape(len(rounds), rows, n)
