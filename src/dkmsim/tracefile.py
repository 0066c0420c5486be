"""Trace CSV files: one row per recorded round, plus a snapshot companion.

A trace file holds these lines and no others, in this order:
  1. the version line `# dkmsim-trace v1`;
  2. one `# key=value` line per _META key, in _META order;
  3. the header, RECORD's field names;
  4. the data rows, at least 12 significant digits, NaN and no-block -1 empty;
  5. for an aborted run only, `# aborted at k=<k>` as the last line.
Snapshots go to the companion file snapshot_path_for(path), with header
`k,agent,coord_index,value` and one line per cell; read_trace reads both.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from .diagnostics import RECORD, Trace
from .engine import MODES
from .errors import ConfigError, DkmsimError, read_text
from .stepsize import PowerLawStepsize

COLUMNS = RECORD.names
HEADER = ",".join(COLUMNS)
SNAPSHOT_HEADER = "k,agent,coord_index,value"
# the columns that hold norms, which a run never writes negative
_NORMS = ("consensus_residual", "fp_residual", "dist_to_ref")
# how far, relatively, an alpha_k cell may lie from the stepsize: .12g rounds by at most 5e-12
_ALPHA_TOL = 1e-11
# every character a data row holds: digits, separators and a .12g exponent
_ROW_CHARS = "0123456789.,-+e"
# a translate table that deletes them and the line breaks, leaving only what no run writes
_DROP_ROW_CHARS = str.maketrans("", "", _ROW_CHARS + "\n")


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


# metadata key -> (field of the Trace or, for alpha0, gamma and k0, of its stepsize; parser of its text;
# its text in a trace). A value has that one text, and read_trace takes no other spelling.
_META = {
    "mode": ("mode", str, str),
    "agents": ("n_agents", int, str),
    "dimension": ("n", int, str),
    "blocks": ("block_dims", lambda text: tuple(int(d) for d in text.split(",")), lambda dims: ",".join(map(str, dims))),
    "seed": ("seed", int, str),
    "max_rounds": ("max_rounds", int, str),
    "alpha0": ("alpha0", float, lambda value: repr(float(value))),
    "gamma": ("gamma", float, lambda value: repr(float(value))),
    "k0": ("k0", int, str),
}
# the last round an int64 k column holds, and the most floats numpy can shape into one float64 array
_MAX_ROUND = 2**63 - 1
_MAX_FLOATS = np.iinfo(np.intp).max // 8


def write_trace(trace: Trace, path) -> None:
    """Write the trace; snapshots, if any were recorded, go to the companion at snapshot_path_for(path).

    Without snapshots, a companion left at that path by an earlier run is removed.
    """
    values = {**vars(trace), **vars(trace.stepsize)}
    lines = ["# dkmsim-trace v1", *(f"# {key}={show(values[name])}" for key, (name, _, show) in _META.items()), HEADER]
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


def _parse_meta(prologue: list[str], path) -> dict:
    """Trace fields from the prologue's lines: `# key=value` for each _META key, in _META order.

    Each value must parse, lie within the bounds of a run that writes a trace
    (the seed has no upper bound), and be its own text in a trace.
    """
    meta, due = {}, list(_META)
    for line_no, line in enumerate(prologue, start=2):
        key, eq, value = line[2:].partition("=")
        if not (line.startswith("# ") and eq and key in due):
            want = f"a `# key=value` line of {' or '.join(due)}" if due else "the header"
            raise ConfigError(f"{path}:{line_no}: expected {want}, got {line!r}")
        due = due[due.index(key) + 1 :]
        meta[key] = value
    fields = {}
    for key, (name, parse, _) in _META.items():
        if key not in meta:
            raise ConfigError(f"{path}: trace metadata lacks {key}")
        try:
            fields[name] = parse(meta[key])
        except ValueError as e:
            raise ConfigError(f"{path}: trace metadata {key}={meta[key]!r} does not parse: {e}") from e
    parsed = dict(fields)
    if fields["mode"] not in MODES:
        raise ConfigError(f"{path}: trace metadata mode={fields['mode']!r} is not one of {MODES}")
    # the bounds RunConfig and BlockPartition put on every run that writes a trace
    for key, low in (("agents", 1), ("dimension", 1), ("seed", 0), ("max_rounds", 1)):
        if fields[_META[key][0]] < low:
            raise ConfigError(f"{path}: trace metadata {key}={meta[key]!r} is below {low}")
    if fields["max_rounds"] > _MAX_ROUND:
        raise ConfigError(
            f"{path}: trace metadata max_rounds={meta['max_rounds']!r} is past {_MAX_ROUND}, the last round a table holds"
        )
    # a run of any mode evaluates its N operators on an (N, n) array
    if fields["n_agents"] * fields["n"] > _MAX_FLOATS:
        raise ConfigError(
            f"{path}: trace metadata agents={meta['agents']!r} and dimension={meta['dimension']!r}"
            f" give states of more floats than numpy can shape, {_MAX_FLOATS}"
        )
    if min(fields["block_dims"]) < 1 or sum(fields["block_dims"]) != fields["n"]:
        raise ConfigError(
            f"{path}: trace metadata blocks={meta['blocks']!r}"
            f" are not positive sizes summing to dimension={fields['n']}"
        )
    try:
        fields["stepsize"] = PowerLawStepsize(fields.pop("alpha0"), fields.pop("gamma"), fields.pop("k0"))
    except DkmsimError as e:
        raise ConfigError(f"{path}: trace metadata: {e}") from e
    for key, (name, _, show) in _META.items():
        if (text := show(parsed[name])) != meta[key]:
            raise ConfigError(f"{path}: trace metadata {key}={meta[key]!r} is not the text a trace writes for it, {text!r}")
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


def _parse_rows(lines: list[str], first: int, path, fields: dict) -> np.ndarray:
    """The RECORD table of rows, lines[0] being line `first`: empty fields read as NaN and -1.

    Refuses a row that does not parse, and one that no run writes: a run
    records rounds 0..max_rounds in increasing order, draws blocks 0..m-1,
    takes the metadata's stepsize alpha_k, which lies in (0, 1], writes no
    negative norm and no character outside _ROW_CHARS. The values are
    checked on the parsed table, after every row parsed; alpha_k within a
    relative _ALPHA_TOL, as its cell holds 12 significant digits. The
    characters are checked last, in one pass over the rows' text.
    """
    max_rounds, m, stepsize = fields["max_rounds"], len(fields["block_dims"]), fields["stepsize"]
    rows, last_k = [], -1
    for line_no, line in enumerate(lines, start=first):
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
        rows.append(row)
        last_k = row[0]
    table = np.array(rows, dtype=RECORD)
    alpha = table["alpha_k"]
    expected = stepsize.alpha0 / (table["k"] + float(stepsize.k0)) ** stepsize.gamma
    # (column, True where a row's value fails the check, why); an empty cell's NaN passes every check
    checks = [
        ("alpha_k", (alpha <= 0) | (alpha > 1), "lies outside (0, 1], the stepsizes a run takes"),
        (
            "alpha_k",
            np.abs(alpha - expected) > _ALPHA_TOL * expected,
            "is not the metadata's stepsize alpha_{k} = {alpha:.12g}",
        ),
        *((name, table[name] < 0, "is a negative norm") for name in _NORMS),
    ]
    faults = np.stack([fails for _, fails, _ in checks])
    at_fault = faults.any(axis=0)
    if at_fault.any():
        i = int(at_fault.argmax())
        name, _, why = checks[int(faults[:, i].argmax())]
        cell = lines[i].split(",")[COLUMNS.index(name)]
        why = why.format(k=table["k"][i], alpha=expected[i])
        raise ConfigError(f"{path}:{first + i}: column {name}: {cell!r} {why}")
    if "\n".join(lines).translate(_DROP_ROW_CHARS):
        i = next(i for i, line in enumerate(lines) if line.translate(_DROP_ROW_CHARS))
        stray = lines[i].translate(_DROP_ROW_CHARS)[0]
        raise ConfigError(f"{path}:{first + i}: {stray!r} is not a character of a data row ({_ROW_CHARS})")
    return table


def read_trace(path) -> Trace:
    """Parse a trace file and, when there is one, its snapshot companion.

    Refuses any line out of the layout above, malformed metadata and rows,
    rows no run could write (see _parse_rows), an abort marker no run writes
    (outside 1..max_rounds, or not past the last row's round), and a
    companion that read_snapshots refuses or that holds a round the trace
    did not record.
    """
    lines = read_text(path, "trace file").splitlines()
    # the header is the first line that is not a comment; the prologue is every line before it
    header = next((i for i, line in enumerate(lines) if not line.startswith("#")), None)
    if header is None:
        raise ConfigError(f"{path}: no header row found")
    if lines[header] != HEADER:
        raise ConfigError(f"{path}:{header + 1}: expected header {HEADER!r}, got {lines[header]!r}")
    if lines[0] != "# dkmsim-trace v1":
        raise ConfigError(f"{path}:1: expected the version line '# dkmsim-trace v1', got {lines[0]!r}")
    fields = _parse_meta(lines[1:header], path)
    rows, aborted_at = lines[header + 1 :], None
    if rows and rows[-1].startswith("# aborted at k="):
        abort_line, marker = len(lines), rows.pop()
        try:
            aborted_at = int(marker.removeprefix("# aborted at k="))
        except ValueError as e:
            raise ConfigError(f"{path}:{abort_line}: abort marker {marker!r} has no round number") from e
    table = _parse_rows(rows, header + 2, path, fields)
    if aborted_at is not None:
        # a run aborted at k = A diverged in round A - 1 and recorded rounds below A only
        if not 1 <= aborted_at <= fields["max_rounds"]:
            raise ConfigError(
                f"{path}:{abort_line}: abort marker k={aborted_at} lies outside 1..{fields['max_rounds']},"
                " the rounds a run aborts at"
            )
        if len(table) and aborted_at <= table["k"][-1]:
            raise ConfigError(
                f"{path}:{abort_line}: abort marker k={aborted_at} is not past the last recorded round {table['k'][-1]}"
            )
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
    lines = read_text(path, "snapshot file").splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise ConfigError(f"{path}:1: expected header {SNAPSHOT_HEADER!r}")
    cells = rows * n
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
        j = len(values) % cells
        if j == 0:
            if rounds and k <= rounds[-1]:
                raise ConfigError(
                    f"{path}:{line_no}: round {k} does not increase past {rounds[-1]}"
                    f" (a round holds {rows} x {n} cells)"
                )
            rounds.append(k)
        elif k != rounds[-1]:
            raise ConfigError(f"{path}: round {rounds[-1]} has {j} of {rows} x {n} snapshot cells")
        if (agent, coord) != divmod(j, n):
            want = "agent {}, coordinate {}".format(*divmod(j, n))
            raise ConfigError(f"{path}:{line_no}: expected {want} of round {k}, got {line!r}")
        values.append(value)
    if len(values) % cells:
        raise ConfigError(f"{path}: round {rounds[-1]} has {len(values) % cells} of {rows} x {n} snapshot cells")
    return np.array(rounds, dtype=np.int64), np.array(values).reshape(len(rounds), rows, n)
