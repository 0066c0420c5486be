"""Trace CSV files: one row per recorded round, plus a snapshot companion.

A trace file holds these lines and no others, in this order:
  1. the version line `# dkmsim-trace v1`;
  2. one `# key=value` line per _META key, in _META order;
  3. the header, RECORD's field names;
  4. the data rows, at least 12 significant digits, NaN and no-block -1 empty;
  5. for an aborted run only, `# aborted at k=<k>` as the last line.
Snapshots go to the companion file snapshot_path_for(path): the header
`k,agent,coord_index,value`, then _snapshot_lines. read_trace reads both.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .diagnostics import RECORD, Trace
from .engine import MAX_ROUND, MODES
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


def _snapshot_lines(rounds: np.ndarray, snapshots: np.ndarray) -> list[str]:
    """A companion's data lines: `k,agent,coord,value` per cell, rounds then agents then coordinates increasing."""
    return [
        f"{k},{agent},{coord},{format(v, '.17g')}"
        for k, state in zip(rounds.tolist(), snapshots.tolist())
        for agent, row in enumerate(state)
        for coord, v in enumerate(row)
    ]


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
# the most floats numpy can shape into one float64 array
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

    try:
        if len(trace.snapshot_rounds):
            snap_lines = [SNAPSHOT_HEADER, *_snapshot_lines(trace.snapshot_rounds, trace.snapshots)]
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
    if fields["max_rounds"] > MAX_ROUND:
        raise ConfigError(
            f"{path}: trace metadata max_rounds={meta['max_rounds']!r} is past {MAX_ROUND}, the last round a table holds"
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


def _unparsed_row(parts: list[str], m: int) -> str:
    """Why a data row does not parse: its first fault, column by column."""
    if len(parts) != len(COLUMNS):
        return f"expected {len(COLUMNS)} columns, got {len(parts)}"
    for name, text in zip(COLUMNS, parts):
        try:
            (int if RECORD[name].kind == "i" else float)(text or "0")
        except ValueError:
            return f"column {name}: {text!r} is not numeric"
    if "" in parts[:3]:
        return "k, alpha_k, consensus_residual must be present"
    return f"column selected_block: block {parts[-1]} is not one of 0..{m - 1}"


def _parse_rows(lines: list[str], first: int, path, fields: dict) -> np.ndarray:
    """The RECORD table of rows, lines[0] being line `first`: empty fields read as NaN and -1.

    Refuses a row that no run writes, naming the first fault of three passes:
      1. while reading, in file order: a row that does not parse (see
         _unparsed_row), a round outside 0..max_rounds, which keeps k in int64,
         or a round cell with a sign or a leading zero, which str() never writes;
      2. on the parsed table, the first row that breaks a rule of `checks`, and its first rule;
      3. a character outside _ROW_CHARS, in one pass over the rows' text.
    """
    max_rounds, m, stepsize = fields["max_rounds"], len(fields["block_dims"]), fields["stepsize"]
    # the block cells a run writes: empty for no block, else the index as str() spells it
    blocks = {"": -1, **{str(b): b for b in range(m)}}
    rows = []
    for line_no, line in enumerate(lines, start=first):
        parts = line.split(",")
        try:
            k, alpha, consensus, fp, dist, block = parts
            row = (int(k), float(alpha), float(consensus), float(fp or "nan"), float(dist or "nan"), blocks[block])
        except (ValueError, KeyError):
            raise ConfigError(f"{path}:{line_no}: {_unparsed_row(parts, m)}") from None
        if not 0 <= row[0] <= max_rounds:
            raise ConfigError(f"{path}:{line_no}: round {row[0]} lies outside 0..{max_rounds}, the rounds a run records")
        # str() writes a round with no sign and no leading zero; int() also reads 0100, +100 and -0
        if k[0] in "+-0" and k != "0":
            raise ConfigError(f"{path}:{line_no}: column k: {k!r} is not round {row[0]} as a run writes it")
        rows.append(row)
    table = np.array(rows, dtype=RECORD)
    k, alpha = table["k"], table["alpha_k"]
    expected = stepsize.alpha0 / (k + float(stepsize.k0)) ** stepsize.gamma
    non_finite = "column {name}: non-finite value {cell!r}"
    # (column, True where a row breaks the rule, its refusal); the NaN of an empty cell breaks none
    checks = [
        ("k", np.diff(k, prepend=-1) <= 0, "round {k} does not increase past {previous}"),
        *((name, ~np.isfinite(table[name]), non_finite) for name in ("alpha_k", "consensus_residual")),
        *((name, np.isinf(table[name]), non_finite) for name in ("fp_residual", "dist_to_ref")),
        ("alpha_k", (alpha <= 0) | (alpha > 1), "column {name}: {cell!r} lies outside (0, 1], the stepsizes a run takes"),
        (
            "alpha_k",
            np.abs(alpha - expected) > _ALPHA_TOL * expected,
            "column {name}: {cell!r} is not the metadata's stepsize alpha_{k} = {alpha:.12g}",
        ),
        *((name, table[name] < 0, "column {name}: {cell!r} is a negative norm") for name in _NORMS),
    ]
    faults = np.stack([fails for _, fails, _ in checks])
    at_fault = faults.any(axis=0)
    if at_fault.any():
        i = int(at_fault.argmax())
        name, _, why = checks[int(faults[:, i].argmax())]
        cell = lines[i].split(",")[COLUMNS.index(name)]
        why = why.format(name=name, cell=cell, k=k[i], previous=k[i - 1], alpha=expected[i])
        raise ConfigError(f"{path}:{first + i}: {why}")
    if "\n".join(lines).translate(_DROP_ROW_CHARS):
        i = next(i for i, line in enumerate(lines) if line.translate(_DROP_ROW_CHARS))
        stray = lines[i].translate(_DROP_ROW_CHARS)[0]
        raise ConfigError(f"{path}:{first + i}: {stray!r} is not a character of a data row ({_ROW_CHARS})")
    return table


def read_trace(path) -> Trace:
    """Parse a trace file and, when there is one, its snapshot companion.

    Refuses any line out of the layout above, malformed metadata and rows,
    rows no run could write (see _parse_rows), an abort marker no run writes
    (k not as str() spells it, outside 1..max_rounds, or not past the last
    row's round), and a companion that read_snapshots refuses or that holds
    a round the trace did not record.
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
        if marker != (written := f"# aborted at k={aborted_at}"):
            raise ConfigError(f"{path}:{abort_line}: abort marker {marker!r} is not the text a run writes for it, {written!r}")
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

    Reads every value from the last cell of its line and each round's k from
    the first cell of the round's first line. Refuses, in this order: the
    first line whose value does not parse, then the first whose round does
    not; a round that does not increase, lies below 0 or is past MAX_ROUND;
    a non-finite value; a short round, at the first line whose k is not its
    round's; and the first line that is not the text _snapshot_lines writes.
    """
    rows, n = shape
    lines = read_text(path, "snapshot file").splitlines()
    if not lines or lines[0] != SNAPSHOT_HEADER:
        raise ConfigError(f"{path}:1: expected header {SNAPSHOT_HEADER!r}")
    data, cells, j = lines[1:], rows * n, 0
    try:  # j follows the line being parsed, so that a refusal names it
        values = np.array([float(data[j := i].rpartition(",")[2]) for i in range(len(data))])
        rounds = [int(data[j := i].partition(",")[0]) for i in range(0, len(data), cells)]
    except ValueError as e:
        raise ConfigError(f"{path}:{j + 2}: {data[j]!r} does not parse: {e}") from None
    for i, k in enumerate(rounds):
        where = f"{path}:{i * cells + 2}: round {k}"
        if i and k <= rounds[i - 1]:
            raise ConfigError(f"{where} does not increase past {rounds[i - 1]} (a round holds {rows} x {n} cells)")
        if k < 0:
            raise ConfigError(f"{where} lies below 0, the first round a run records")
        if k > MAX_ROUND:
            raise ConfigError(f"{where} is past {MAX_ROUND}, the last round a table holds")
    if not (finite := np.isfinite(values)).all():
        j = int(finite.argmin())
        raise ConfigError(f"{path}:{j + 2}: non-finite value in {data[j]!r}")
    if len(data) % cells:
        heads = [line.partition(",")[0] for line in data]
        j = next((j for j, k in enumerate(heads) if k != heads[j - j % cells]), len(data))
        at = f":{j + 2}" if j < len(data) else ""
        raise ConfigError(f"{path}{at}: round {rounds[j // cells]} has {j % cells} of {rows} x {n} snapshot cells")
    snapshot_rounds, snapshots = np.array(rounds, dtype=np.int64), values.reshape(len(rounds), rows, n)
    if (written := _snapshot_lines(snapshot_rounds, snapshots)) != data:
        j = next(j for j, (line, want) in enumerate(zip(data, written)) if line != want)
        raise ConfigError(f"{path}:{j + 2}: {data[j]!r} is not the text a run writes there, {written[j]!r}")
    return snapshot_rounds, snapshots
