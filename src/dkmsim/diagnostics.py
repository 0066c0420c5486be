"""Convergence diagnostics: residuals, block norms, and rate fits.

Everything here is a pure function of states or of a recorded trace; the
engine calls these to fill trace rows, and tests call them directly to
cross-check the iteration against its averaged rewrite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
) -> tuple[list[float], list[float], list[float | None], list[float]]:
    """Per-state lists (consensus residual, fixed-point residual at the mean, distance to reference, max_i ||x_i||).

    states is a (K, rows, n) stack; entry j of each list is bit for bit what
    consensus_residual, fixed_point_residual, distance_to_reference (None
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
    dist = [None] * K if reference is None else worst[2 * K :]
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


@dataclass(slots=True)
class TraceRecord:
    """One recorded round.

    fp_residual and dist_to_ref are None when not computed (no reference
    known, for instance); selected_block is None except for block-sampled
    rounds, where it is the block drawn for the k -> k+1 transition.
    max_state_norm tracks max_i ||x_i|| for boundedness checks. A record read
    back from a trace file has neither max_state_norm nor snapshot.
    """

    k: int
    alpha_k: float
    consensus_residual: float
    fp_residual: float | None
    dist_to_ref: float | None
    selected_block: int | None
    max_state_norm: float | None
    snapshot: NDArray[Float] | None = None


@dataclass
class Trace:
    """Recorded run: metadata plus rows in strictly increasing round order."""

    mode: str
    n_agents: int
    n: int
    block_dims: tuple[int, ...]
    seed: int
    max_rounds: int
    stepsize: PowerLawStepsize
    records: list[TraceRecord] = field(default_factory=list)
    aborted_at: int | None = None
    final_states: NDArray[Float] | None = None

    def column(self, name: str) -> list:
        return [getattr(r, name) for r in self.records]

    def last(self) -> TraceRecord:
        if not self.records:
            raise ParameterError("trace has no records")
        return self.records[-1]

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
    ratios = [r.consensus_residual / trace.stepsize.alpha_half(r.k) for r in trace.records if r.k >= tail_start]
    if not ratios:
        raise ParameterError(
            f"no recorded rounds at or after tail_start = {tail_start} (last record: "
            f"{trace.records[-1].k if trace.records else 'none'})"
        )
    return float(max(ratios))
