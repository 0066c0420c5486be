"""Trace CSV files: one row per recorded round, plus a snapshot companion.

Layout: `# key=value` metadata comment lines, then the header (RECORD's field
names but max_state_norm), then data rows with at least 12 significant
digits; NaN and the no-block -1 are left empty. An aborted run ends with
`# aborted at k=<k>`. Snapshots go to the companion file
snapshot_path_for(path), with header `k,agent,coord_index,value` and one
line per cell; read_trace reads both.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .diagnostics import RECORD, Trace
from .engine import MODES
from .errors import ConfigError, DkmsimError
from .stepsize import PowerLawStepsize

# the trace file columns; max_state_norm stays out of the file
COLUMNS = RECORD.names[:-1]
HEADER = ",".join(COLUMNS)
SNAPSHOT_HEADER = "k,agent,coord_index,value"


def _cells(column: np.ndarray) -> list[str]:
    """One table column as trace cells: the no-block -1 and NaN are empty."""
    if column.dtype.kind == "i":
        return ["" if v < 0 else str(v) for v in column.tolist()]
    return ["" if v != v else format(v, ".12g") for v in column.tolist()]


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
    lines += map(",".join, zip(*(_cells(trace.table[name]) for name in COLUMNS)))
    if trace.aborted_at is not None:
        lines.append(f"# aborted at k={trace.aborted_at}")
    try:
        Path(path).write_text("\n".join(lines) + "\n")
    except OSError as e:
        raise ConfigError(f"cannot write trace file: {e}") from e

    snap_lines = [SNAPSHOT_HEADER]
    for k, state in zip(trace.snapshot_rounds.tolist(), trace.snapshots.tolist()):
        for agent, row in enumerate(state):
            snap_lines += (f"{k},{agent},{coord},{format(v, '.17g')}" for coord, v in enumerate(row))
    try:
        if len(trace.snapshot_rounds):
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


def _refuse_row(parts: list[str], where: str, last_k: int, max_rounds: int, m: int) -> ConfigError:
    """The refusal of a data row _parse_rows found at fault, naming its first fault."""
    if len(parts) != len(COLUMNS):
        return ConfigError(f"{where}: expected {len(COLUMNS)} columns, got {len(parts)}")
    values = {}
    for name, text in zip(COLUMNS, parts):
        try:
            values[name] = (int if RECORD[name].kind == "i" else float)(text) if text else None
        except ValueError:
            return ConfigError(f"{where}: column {name}: {text!r} is not numeric")
        if text and not math.isfinite(values[name]):
            return ConfigError(f"{where}: column {name}: non-finite value {text!r}")
    k = values["k"]
    if None in (k, values["alpha_k"], values["consensus_residual"]):
        return ConfigError(f"{where}: k, alpha_k, consensus_residual must be present")
    if not 0 <= k <= max_rounds:
        return ConfigError(f"{where}: round {k} lies outside 0..{max_rounds}, the rounds a run records")
    if k <= last_k:
        return ConfigError(f"{where}: round {k} does not increase past {last_k}")
    return ConfigError(f"{where}: column selected_block: block {values['selected_block']} is not one of 0..{m - 1}")


def _parse_rows(data: list[tuple[int, str]], path, max_rounds: int, m: int) -> np.ndarray:
    """The RECORD table of the data rows: empty fields read as NaN and -1, max_state_norm as NaN.

    Refuses a row that does not parse, and one that no run writes: a run
    records rounds 0..max_rounds in increasing order and draws blocks 0..m-1.
    """
    rows, last_k = [], -1
    for line_no, line in data:
        parts = line.split(",")
        try:
            k, alpha, consensus, fp, dist, block = parts
            row = (int(k), float(alpha), float(consensus), float(fp or "nan"), float(dist or "nan"), int(block or -1))
        except ValueError:
            row = None
        if row is None or not (
            last_k < row[0] <= max_rounds
            and (not block or 0 <= row[5] < m)
            and math.isfinite(row[1]) and math.isfinite(row[2])
            and (not fp or math.isfinite(row[3])) and (not dist or math.isfinite(row[4]))
        ):
            raise _refuse_row(parts, f"{path}:{line_no}", last_k, max_rounds, m)
        rows.append((*row, math.nan))
        last_k = row[0]
    return np.array(rows, dtype=RECORD)


def read_trace(path) -> Trace:
    """Parse a trace file and, when there is one, its snapshot companion.

    Refuses malformed metadata and rows, rows no run could write (see
    _parse_rows), and a companion that read_snapshots refuses or that holds a
    round the trace did not record. The table's max_state_norm column is NaN:
    the CSV does not store it.
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read trace file: {e}") from e
    meta: dict = {}
    data: list[tuple[int, str]] = []
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
        data.append((line_no, line))
    if not header_seen:
        raise ConfigError(f"{path}: no header row found")
    fields = _parse_meta(meta, path)
    table = _parse_rows(data, path, fields["max_rounds"], len(fields["block_dims"]))
    trace = Trace(**fields, table=table, aborted_at=aborted_at)
    snapshot_path = snapshot_path_for(path)
    if snapshot_path.exists():
        trace.snapshot_rounds, trace.snapshots = read_snapshots(snapshot_path, trace.state_shape)
        stray = trace.snapshot_rounds[~np.isin(trace.snapshot_rounds, trace.table["k"])]
        if len(stray):
            raise ConfigError(f"{snapshot_path}: snapshot round {stray[0]} is not a round the trace recorded")
    return trace


def read_snapshots(path, shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Parse a companion of (rows, n) states into its int64 rounds and one (rounds, rows, n) array.

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
    return np.array(rounds, dtype=np.int64), np.array(values).reshape(len(rounds), rows, n)
