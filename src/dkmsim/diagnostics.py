"""Convergence diagnostics: residuals, the record table, and rate fits.

Everything here is a pure function of states or of a recorded trace; the
engine calls these to fill trace rows, and tests call them directly to
cross-check the iteration against its averaged rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .blocks import Float, as_point, as_states
from .errors import ParameterError
from .operators import OperatorFamily
from .stepsize import PowerLawStepsize


def consensus_residual(states) -> float:
    """max_i ||x_i - x_bar||, the worst agent's distance to the average."""
    states = as_states(states)
    return float(np.linalg.norm(states - states.mean(axis=0), axis=-1).max())


def fixed_point_residual(family: OperatorFamily, x) -> float:
    """||F(x) - x|| for the global operator F at a single point."""
    return float(np.linalg.norm(family.global_displacement(x), axis=-1))


def distance_to_reference(states, reference) -> float:
    """max_i ||x_i - x_star||, the worst agent's distance to the reference point."""
    states = as_states(states)
    reference = as_point(reference, states.shape[1])
    return float(np.linalg.norm(states - reference, axis=-1).max())


def record_residuals(
    family: OperatorFamily, states: NDArray[Float], reference: NDArray[Float] | None
) -> tuple[NDArray[Float], NDArray[Float], NDArray[Float]]:
    """Per-state float64 arrays (consensus residual, fixed-point residual at the mean, distance to reference).

    states is a (K, rows, n) stack; entry j of each length-K array is bit for
    bit what consensus_residual, fixed_point_residual and
    distance_to_reference (NaN without a reference) give, but unchecked:
    every state must be finite, reference None or a finite point. One mean,
    one stacked norm pass and one displacement call cover all K. Arrays, not
    lists, because a record table's columns take them without a Python float
    per entry.
    """
    K, rows, _ = states.shape
    xbar = np.add.reduce(states, axis=1) / rows
    spread = states - xbar[:, None, :]
    parts = (spread,) if reference is None else (spread, states - reference)
    worst = np.linalg.norm(np.concatenate(parts), axis=-1).max(axis=-1)
    tiled = xbar[:, None, :].repeat(family.n_agents, axis=1)
    fp = np.linalg.norm(np.add.reduce(family.displacement_all(tiled), axis=1) / family.n_agents, axis=-1)
    dist = np.full(K, np.nan) if reference is None else worst[K:]
    return worst[:K], fp, dist


# One recorded round, in trace file order. An empty float field is NaN and
# "no block" is -1: only block-sampled rounds draw one, for the k -> k+1 step.
RECORD = np.dtype(
    [("k", np.int64), ("alpha_k", np.float64), ("consensus_residual", np.float64), ("fp_residual", np.float64),
     ("dist_to_ref", np.float64), ("selected_block", np.int64)]
)


@dataclass(slots=True)
class TraceRecord:
    """One row of a trace table as Python values, None standing for NaN and -1."""

    k: int
    alpha_k: float
    consensus_residual: float
    fp_residual: float | None
    dist_to_ref: float | None
    selected_block: int | None


@dataclass
class Trace:
    """Recorded run: metadata, a RECORD table in strictly increasing round order, and state snapshots.

    snapshots[i] is the (rows, n) state of round snapshot_rounds[i], and every
    snapshot round is a round of the table; without snapshots both hold zero rounds.
    """

    mode: str
    n_agents: int
    n: int
    block_dims: tuple[int, ...]
    seed: int
    max_rounds: int
    stepsize: PowerLawStepsize
    table: NDArray
    snapshot_rounds: NDArray[np.int64] | None = None
    snapshots: NDArray[Float] | None = None
    aborted_at: int | None = None
    final_states: NDArray[Float] | None = None

    def __post_init__(self):
        if self.snapshots is None:
            self.snapshot_rounds, self.snapshots = np.empty(0, dtype=np.int64), np.empty((0, *self.state_shape))

    def last(self) -> TraceRecord:
        if not len(self.table):
            raise ParameterError("trace has no records")
        *head, block = [None if v != v else v for v in self.table[-1].item()]  # NaN is the only v != v
        return TraceRecord(*head, None if block < 0 else block)

    @property
    def state_shape(self) -> tuple[int, int]:
        """(rows, n) of every state snapshot: a centralized run keeps one row, whatever its agent count."""
        return (1 if self.mode == "centralized" else self.n_agents), self.n


def fit_consensus_rate(trace: Trace, tail_start: int | None = None) -> float:
    """Tail-supremum constant C = max_{k >= tail_start} residual_k / alpha_{k//2}.

    A finite, stable C over a growing tail is evidence that the consensus
    residual decays at the stepsize's lag rate. alpha is the trace's own
    stepsize; the tail starts at max_rounds // 10 by default.
    """
    if tail_start is None:
        tail_start = trace.max_rounds // 10
    ks, residuals = trace.table["k"].tolist(), trace.table["consensus_residual"].tolist()
    ratios = [r / trace.stepsize.alpha_half(k) for k, r in zip(ks, residuals) if k >= tail_start]
    if not ratios:
        raise ParameterError(
            f"no recorded rounds at or after tail_start = {tail_start} (last record: {ks[-1] if ks else 'none'})"
        )
    return max(ratios)
