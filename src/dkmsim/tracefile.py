"""Trace CSV files: one row per recorded round, plus a snapshot companion.

Layout: `# key=value` metadata comment lines, then the fixed header
`k,alpha_k,consensus_residual,fp_residual,dist_to_ref,selected_block`,
then data rows with at least 12 significant digits; inapplicable fields
are left empty. An aborted run ends with `# aborted at k=<k>`. Snapshots
go to a separate file with header `k,agent,coord_index,value`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .diagnostics import Trace
from .errors import ConfigError
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


def write_trace(trace: Trace, path, snapshot_path=None) -> None:
    """Write the trace; snapshots, if any were recorded, go to a companion file.

    Without snapshots, a companion left at that path by an earlier run is removed.
    """
    if snapshot_path is None:
        snapshot_path = snapshot_path_for(path)
    lines = [
        "# dkmsim-trace v1",
        f"# mode={trace.mode}",
        f"# agents={trace.n_agents}",
        f"# dimension={trace.n}",
        f"# blocks={','.join(str(d) for d in trace.block_dims)}",
        f"# seed={trace.seed}",
        f"# max_rounds={trace.max_rounds}",
        f"# alpha0={trace.stepsize.alpha0!r}",
        f"# gamma={trace.stepsize.gamma!r}",
        f"# k0={trace.stepsize.k0}",
        HEADER,
    ]
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
            Path(snapshot_path).write_text("\n".join(snap_lines) + "\n")
        else:
            Path(snapshot_path).unlink(missing_ok=True)
    except OSError as e:
        raise ConfigError(f"cannot write snapshot file: {e}") from e


@dataclass
class TraceRow:
    k: int
    alpha_k: float
    consensus_residual: float
    fp_residual: float | None
    dist_to_ref: float | None
    selected_block: int | None


@dataclass
class ParsedTrace:
    """A trace read back from disk: metadata, rows, and the abort marker."""

    meta: dict
    rows: list[TraceRow]
    aborted_at: int | None

    def stepsize(self) -> PowerLawStepsize:
        try:
            return PowerLawStepsize(
                alpha0=float(self.meta["alpha0"]),
                gamma=float(self.meta["gamma"]),
                k0=int(self.meta["k0"]),
            )
        except KeyError as e:
            raise ConfigError(f"trace metadata lacks stepsize key {e}") from e

    def max_rounds(self) -> int:
        try:
            return int(self.meta["max_rounds"])
        except KeyError as e:
            raise ConfigError("trace metadata lacks max_rounds") from e

    def state_shape(self) -> tuple[int, int]:
        """(agents, dimension) from the metadata: the shape of every snapshot.

        A centralized run keeps a single state row, whatever its agent count.
        """
        try:
            agents, n = int(self.meta["agents"]), int(self.meta["dimension"])
            return (1 if self.meta.get("mode") == "centralized" else agents), n
        except KeyError as e:
            raise ConfigError(f"trace metadata lacks {e}") from e
        except ValueError as e:
            raise ConfigError(f"trace metadata agents/dimension is not an integer: {e}") from e


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


def read_trace(path) -> ParsedTrace:
    """Parse a trace file; rejects malformed rows and non-increasing rounds."""
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read trace file: {e}") from e
    meta: dict = {}
    rows: list[TraceRow] = []
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
        if rows and k <= rows[-1].k:
            raise ConfigError(f"{path}:{line_no}: round {k} does not increase past {rows[-1].k}")
        rows.append(
            TraceRow(
                k=k,
                alpha_k=alpha,
                consensus_residual=cons,
                fp_residual=_parse_field(parts[3], path, line_no, "fp_residual", float),
                dist_to_ref=_parse_field(parts[4], path, line_no, "dist_to_ref", float),
                selected_block=_parse_field(parts[5], path, line_no, "selected_block", int),
            )
        )
    if not header_seen:
        raise ConfigError(f"{path}: no header row found")
    return ParsedTrace(meta=meta, rows=rows, aborted_at=aborted_at)


def read_snapshots(path) -> dict[int, np.ndarray]:
    """Parse a snapshot companion file into {round: (N, n) array}.

    Every round must hold all N x n cells, N and n being the largest agent
    and coordinate indices in the file plus one.
    """
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read snapshot file: {e}") from e
    entries: dict[int, dict[tuple[int, int], float]] = {}
    header_seen = False
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != SNAPSHOT_HEADER:
                raise ConfigError(f"{path}:{line_no}: expected header {SNAPSHOT_HEADER!r}")
            header_seen = True
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"{path}:{line_no}: expected 4 columns, got {len(parts)}")
        try:
            k, agent, coord, value = int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])
        except ValueError as e:
            raise ConfigError(f"{path}:{line_no}: expected three integers and a number, got {line!r}") from e
        if min(k, agent, coord) < 0 or not math.isfinite(value):
            raise ConfigError(f"{path}:{line_no}: negative index or non-finite value in {line!r}")
        entries.setdefault(k, {})[(agent, coord)] = value
    if not entries:
        return {}
    n_agents = 1 + max(a for cells in entries.values() for a, _ in cells)
    n = 1 + max(c for cells in entries.values() for _, c in cells)
    out = {}
    for k, cells in entries.items():
        if len(cells) != n_agents * n:
            raise ConfigError(f"{path}: round {k} has {len(cells)} of {n_agents} x {n} snapshot cells")
        arr = np.empty((n_agents, n))
        for (a, c), v in cells.items():
            arr[a, c] = v
        out[k] = arr
    return out
