"""Convergence diagnostics: residuals, block norms, and rate fits.

Everything here is a pure function of states or of a recorded trace; the
engine calls these to fill trace rows, and tests call them directly to
cross-check the iteration against its averaged rewrite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .blocks import BlockPartition, Float, as_point, as_states
from .errors import DimensionMismatchError, ParameterError
from .operators import OperatorFamily, _row_norms
from .stepsize import PowerLawStepsize


def _mean(states: NDArray[Float]) -> NDArray[Float]:
    """states.mean(axis=0): the same sum and division, without its wrapper."""
    return np.add.reduce(states, axis=0) / states.shape[0]


def _max_row_norms(rows: NDArray[Float], runs: int = 1) -> list[float]:
    """np.linalg.norm(run, axis=1).max() for each of `runs` equal runs of rows, bit for bit.

    Squares rows in place, so pass a temporary. The squared sums are
    np.linalg.norm's, add.reduce(rows * rows, axis=1). A correctly rounded
    sqrt is monotone, so the root of the largest sum is the largest norm.
    """
    rows *= rows
    squares = np.add.reduce(rows, axis=1).reshape(runs, -1)
    return [math.sqrt(v) for v in np.maximum.reduce(squares, axis=1).tolist()]


def _norm(v: NDArray[Float]) -> float:
    """||v|| of a 1-D v, the steps np.linalg.norm(v) takes, without its wrapper."""
    return math.sqrt(v.dot(v))


def mean_state(states) -> NDArray[Float]:
    """Agent average x_bar = (1/N) sum_i x_i."""
    return _mean(as_states(states))


def consensus_residual(states) -> float:
    """max_i ||x_i - x_bar||, the worst agent's distance to the average."""
    states = as_states(states)
    return _max_row_norms(states - _mean(states))[0]


def fixed_point_residual(family: OperatorFamily, x) -> float:
    """||F(x) - x|| for the global operator F at a single point."""
    return _norm(family.global_displacement(x))


def distance_to_reference(states, reference) -> float:
    """max_i ||x_i - x_star||, bit for bit np.linalg.norm(states - reference, axis=1).max()."""
    states = as_states(states)
    reference = as_point(reference, states.shape[1])
    return _max_row_norms(states - reference)[0]


def record_residuals(
    family: OperatorFamily, states: NDArray[Float], reference: NDArray[Float] | None
) -> tuple[list[float], list[float], list[float], list[float]]:
    """Per-state lists (consensus residual, fixed-point residual at the mean, distance to reference, max_i ||x_i||).

    states is a (K, rows, n) stack; entry j of each list is bit for bit what
    consensus_residual, fixed_point_residual, distance_to_reference (NaN
    without a reference) and np.linalg.norm(states[j], axis=1).max() give, but
    unchecked: every state must be finite, reference None or a finite point.
    One mean, one stacked row-norm pass and one displacement call cover all K.
    """
    K, rows, n = states.shape
    xbar = np.add.reduce(states, axis=1) / rows
    spread = states - xbar[:, None, :]
    parts = (spread, states) if reference is None else (spread, states, states - reference)
    worst = _max_row_norms(np.concatenate(parts).reshape(-1, n), len(parts) * K)
    tiled = xbar[:, None, :].repeat(family.n_agents, axis=1)
    fp = _row_norms(np.add.reduce(family.displacement_all(tiled), axis=1) / family.n_agents).tolist()
    dist = [math.nan] * K if reference is None else worst[2 * K :]
    return worst[:K], fp, dist, worst[K : 2 * K]


def weighted_block_norm(x, partition: BlockPartition, probabilities) -> float:
    """Block norm sqrt( sum_l ||x_l||^2 / p_l ) for block probabilities p.

    Sandwiched between the plain norm and norm / sqrt(min p): used to
    transfer estimates between the block-sampled and full iterations.
    """
    x = as_point(x, partition.n)
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape != (partition.m,):
        raise DimensionMismatchError(
            f"got {p.shape[0] if p.ndim == 1 else p.shape} probabilities for {partition.m} blocks"
        )
    if np.any(p <= 0):
        raise ParameterError("block probabilities must be positive")
    total = 0.0
    for l in range(partition.m):
        xl = x[partition.block_slice(l)]
        total += float(xl @ xl) / float(p[l])
    return float(np.sqrt(total))


# One recorded round, in trace file order. An empty float field is NaN and
# "no block" is -1: only block-sampled rounds draw one, for the k -> k+1 step.
# max_state_norm, max_i ||x_i|| for boundedness checks, is not written to trace files.
RECORD = np.dtype(
    [("k", np.int64), ("alpha_k", np.float64), ("consensus_residual", np.float64), ("fp_residual", np.float64),
     ("dist_to_ref", np.float64), ("selected_block", np.int64), ("max_state_norm", np.float64)]
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
    max_state_norm: float | None


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
        *head, block, top = [None if v != v else v for v in self.table[-1].item()]  # NaN is the only v != v
        return TraceRecord(*head, None if block < 0 else block, top)

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
