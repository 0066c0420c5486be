"""Iteration engine: synchronous mixing rounds plus local operator steps.

Three modes share one loop. Full mode applies every agent's whole operator
each round; block-sampled mode updates a single randomly drawn coordinate
block per round (one categorical draw, shared by all agents, broadcast by
the round coordinator); centralized mode iterates the global operator on a
single point and is the N = 1 sanity baseline.

The per-round update for agent i is

    x_hat_i   = sum_j A_k[i, j] x_j          (mixing)
    x_i^{k+1} = x_hat_i + alpha_k d_i        (local step)

where d_i is F_i(x_hat_i) - x_hat_i in full mode, and its drawn block
(zeros elsewhere) in block-sampled mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray

from .blocks import Float, as_point, as_states
from .diagnostics import RECORD, Trace, TraceRecord, record_residuals  # noqa: F401 (benchmarks name TraceRecord here)
from .errors import AssumptionError, DimensionMismatchError, DivergenceError, ParameterError
from .graphs import GraphSchedule, mix, validate_schedule
from .operators import (
    NONEXPANSIVE_TOL,
    OperatorFamily,
    check_nonexpansive,
    estimate_displacement_bound,
    pair_norms,
    pair_violations,
    uniform_box_sampler,
)
from .stepsize import PowerLawStepsize, check_stepsize_conditions
from .validation import ValidationReport, Violation, failed, passed

DIVERGENCE_LIMIT = 1e12

# floats of state one run() window holds: the divergence guard and the record passes run once per
# window of G = max(2, WINDOW_FLOATS // (rows * n)) rounds
WINDOW_FLOATS = 16384

# floats of recorded state one residual pass takes; never fewer than two states, as a pass is
# mostly fixed dispatch cost
RECORD_FLOATS = 1024

MODES = ("dkm", "dbkm", "centralized")


@dataclass(frozen=True)
class BlockSelector:
    """Categorical distribution over blocks for the block-sampled mode."""

    probabilities: tuple[float, ...]

    def __post_init__(self):
        p = tuple(float(v) for v in self.probabilities)
        if len(p) == 0:
            raise ParameterError("selector needs at least one block probability")
        if any(not np.isfinite(v) or v <= 0 for v in p):
            raise ParameterError(f"block probabilities must be positive, got {p}")
        total = float(np.sum(p))
        if abs(total - 1.0) > 1e-12:
            raise ParameterError(f"block probabilities must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "probabilities", p)
        cum = np.cumsum(p)
        cum[-1] = 1.0  # kill rounding residue so every u in [0,1) lands in range
        object.__setattr__(self, "_cumulative", cum)

    @property
    def num_blocks(self) -> int:
        return len(self.probabilities)

    @classmethod
    def uniform(cls, m: int) -> "BlockSelector":
        return cls(tuple(1.0 / m for _ in range(m)))

    def is_uniform(self, tol: float = 1e-12) -> bool:
        m = self.num_blocks
        return all(abs(p - 1.0 / m) <= tol for p in self.probabilities)


def draw_block(selector: BlockSelector, rng: np.random.Generator) -> int:
    """One categorical draw; inverse-CDF on a single uniform for determinism."""
    u = rng.random()
    return int(np.searchsorted(selector._cumulative, u, side="right"))


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"stepsize must lie in (0, 1], got {alpha}")
    return alpha


def dkm_step(states, A, family: OperatorFamily, alpha: float) -> NDArray[Float]:
    """One full round: mix, then move every coordinate toward F_i(x_hat_i)."""
    alpha = _check_alpha(alpha)
    xhat = mix(A, states)
    return xhat + alpha * family.displacement_all(xhat)


def dbkm_step(states, A, family: OperatorFamily, alpha: float, block: int) -> NDArray[Float]:
    """One block-sampled round: mix, then update only the drawn block."""
    alpha = _check_alpha(alpha)
    xhat = mix(A, states)
    sl = family.partition.block_slice(block)
    out = xhat.copy()
    out[:, sl] = xhat[:, sl] + alpha * family.displacement_block_all(block, xhat)
    return out


def centralized_km(family: OperatorFamily, x0, stepsize: PowerLawStepsize, rounds: int) -> NDArray[Float]:
    """Single-point iteration x <- x + alpha_k (F(x) - x) on the global operator.

    Returns the whole trajectory, shape (rounds + 1, n).
    """
    x = as_point(x0, family.n)
    if rounds < 0:
        raise ParameterError(f"rounds must be nonnegative, got {rounds}")
    traj = np.empty((rounds + 1, family.n))
    traj[0] = x
    for k in range(rounds):
        alpha = _check_alpha(stepsize.alpha(k))
        x = x + alpha * family.global_displacement(x)
        traj[k + 1] = x
    return traj


@dataclass(frozen=True)
class UniformInit:
    """Draw initial agent states uniformly from [low, high]^n, seeded."""

    low: float = -5.0
    high: float = 5.0

    def __post_init__(self):
        if not (np.isfinite(self.low) and np.isfinite(self.high) and self.low < self.high):
            raise ParameterError(f"need low < high and finite, got [{self.low}, {self.high}]")


def _read_only(arr: NDArray[Float]) -> NDArray[Float]:
    """A private read-only copy, so a frozen config's arrays cannot change either."""
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RunConfig:
    """Everything one simulation needs; validated on construction, immutable after.

    Change a run with dataclasses.replace, which validates the new values;
    explicit init and reference arrays are held as read-only copies.
    init is either a UniformInit or an explicit (N, n) array. reference, when
    given, fills the trace's dist_to_ref column. record_every and max_rounds
    fix the rounds a run records before it starts (record_rounds): every
    record_every-th round, or by default every round through 1000 and then
    every c-th one among rounds 1000(c-1)+1..1000c, and always the final
    round. A run stops with DivergenceError at the first round that takes an
    entry non-finite or past divergence_limit in absolute value; run() checks
    that once per window of rounds, and names the same round a per-round check
    would.
    """

    family: OperatorFamily
    stepsize: PowerLawStepsize
    schedule: GraphSchedule | None = None
    mode: str = "dkm"
    selector: BlockSelector | None = None
    max_rounds: int = 1000
    seed: int = 0
    init: UniformInit | np.ndarray = field(default_factory=UniformInit)
    reference: np.ndarray | None = None
    record_every: int | None = None
    snapshot_every: int | None = None
    divergence_limit: float = DIVERGENCE_LIMIT

    def __post_init__(self):
        if self.mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.max_rounds < 1:
            raise ParameterError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.mode != "centralized":
            if self.schedule is None:
                raise ParameterError(f"mode {self.mode!r} needs a graph schedule")
            if self.schedule.n_agents != self.family.n_agents:
                raise DimensionMismatchError(
                    f"schedule has {self.schedule.n_agents} agents, family has {self.family.n_agents}"
                )
        if self.mode == "dbkm":
            if self.selector is None:
                raise ParameterError("block-sampled mode needs a BlockSelector")
            if self.selector.num_blocks != self.family.partition.m:
                raise DimensionMismatchError(
                    f"selector has {self.selector.num_blocks} blocks, partition has {self.family.partition.m}"
                )
        if not isinstance(self.init, UniformInit):
            object.__setattr__(self, "init", _read_only(as_states(self.init, self.family.n_agents, self.family.n)))
        if self.reference is not None:
            object.__setattr__(self, "reference", _read_only(as_point(self.reference, self.family.n)))
        if self.record_every is not None and self.record_every < 1:
            raise ParameterError(f"record_every must be >= 1, got {self.record_every}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ParameterError(f"snapshot_every must be >= 1, got {self.snapshot_every}")
        if not np.isfinite(self.divergence_limit) or self.divergence_limit <= 0:
            raise ParameterError(f"divergence limit must be positive, got {self.divergence_limit}")


def validate_run(config: RunConfig) -> list[ValidationReport]:
    """Deterministic assumption checks: graph trio plus stepsize conditions."""
    reports: list[ValidationReport] = []
    if config.mode != "centralized" and config.schedule is not None:
        reports.extend(validate_schedule(config.schedule))
    reports.append(check_stepsize_conditions(config.stepsize))
    return reports


def validate_full(
    config: RunConfig,
    num_pairs: int = 200,
    num_points: int = 200,
    seed: int = 0,
) -> list[ValidationReport]:
    """All assumption checks: the deterministic ones plus the sampled pair.

    Adds a sampled nonexpansiveness check over every local operator and the
    global average, and an empirical displacement-bound estimate (reported,
    never failed: samples can only ever give a lower bound). Local i draws
    its 2 * num_pairs points uniform on [-10, 10]^n from default_rng(seed + i),
    the global average from default_rng(seed + N); all N locals are evaluated
    in one stacked call on a (2 * num_pairs, N, n) array. The first three
    violating pairs of each operator are reported, in pair order.
    """
    reports = validate_run(config)
    family = config.family
    N = family.n_agents
    sampler = uniform_box_sampler(family.n)
    points = np.stack([sampler(np.random.default_rng(seed + i), 2 * num_pairs) for i in range(N)], axis=1)
    lhs, rhs = pair_norms(points, family.evaluate_all(points), NONEXPANSIVE_TOL)
    violations: list[Violation] = []
    for i in np.flatnonzero((lhs > rhs).any(axis=0)).tolist():
        for v in pair_violations(lhs[:, i], rhs[:, i])[:3]:
            violations.append(Violation(f"operator {i}, {v.where}", v.message, v.value))
    rep = check_nonexpansive(family, num_pairs=num_pairs, seed=seed + N)
    for v in rep.violations[:3]:
        violations.append(Violation(f"global average, {v.where}", v.message, v.value))
    name = "operators: sampled nonexpansiveness"
    if violations:
        reports.append(failed(name, violations))
    else:
        reports.append(passed(name, f"{N} locals + global average, {num_pairs} pairs each"))

    bound = estimate_displacement_bound(family, num_points=num_points, seed=seed)
    reports.append(
        passed(
            "operators: displacement bound estimate",
            f"max_i ||F_i(x) - x|| >= {bound:.6g} over {num_points} sampled points",
        )
    )
    return reports


def initial_states(config: RunConfig, rng: np.random.Generator | None = None) -> NDArray[Float]:
    """The (N, n) state matrix a run starts from.

    Drawing happens first on the run's generator, so calling this with a
    fresh generator seeded by config.seed reproduces exactly what run()
    starts with. Centralized mode gets a single row: a fresh uniform point,
    or the mean of an explicit init matrix.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    family = config.family
    if config.mode == "centralized":
        if isinstance(config.init, UniformInit):
            x0 = rng.uniform(config.init.low, config.init.high, family.n)
        else:
            x0 = config.init.mean(axis=0)
        return x0[None, :].copy()
    if isinstance(config.init, UniformInit):
        return rng.uniform(config.init.low, config.init.high, (family.n_agents, family.n))
    return config.init.copy()


def record_rounds(max_rounds: int, record_every: int | None) -> list[range]:
    """The rounds a run records, in increasing order, as pieces; the one statement of the cadence.

    record_every = r records the multiples of r below max_rounds. The default
    records rounds 0..1000, then, for each c >= 2, the multiples of c among
    rounds 1000(c-1)+1..1000c: a piece for each c < 1000, and one for all c >=
    1000, whose only such multiple is 1000c. The last piece is the final round.
    """
    final = range(max_rounds, max_rounds + 1)
    if record_every is not None:
        return [range(0, max_rounds, record_every), final]
    thousands = range(2, min(-(-(max_rounds - 1) // 1000), 999) + 1)
    thinned = [range((1000 * (c - 1) // c + 1) * c, min(1000 * c, max_rounds - 1) + 1, c) for c in thousands]
    return [range(min(max_rounds, 1001)), *thinned, range(10**6, max_rounds, 1000), final]


def run(config: RunConfig, validate: bool = True) -> Trace:
    """Execute one simulation and return its trace.

    With validate=True (the default) the deterministic assumption checks run
    first and the first failure raises AssumptionError. Identical config and
    seed give an identical trace, including the drawn block sequence.

    Inputs are checked once, before round 0: RunConfig has checked the
    shapes, and every alpha_k must lie in (0, 1]. The table is allocated once,
    its k column from record_rounds, or ParameterError names its size. Rounds
    run in windows of G = max(2, WINDOW_FLOATS // (rows * n)); a window's
    alpha_k and block uniforms (the stream of one draw_block per round) are
    taken before its rounds, which do the arithmetic of dkm_step / dbkm_step
    without their checks. The guard checks a whole window and names the first
    round, agent and coordinate past the limit, as a per-round check would.
    The window's rows, up to that round, take their states from the window in
    unchecked record_residuals passes of at most K = max(2, RECORD_FLOATS //
    (rows * n)), bit for bit those taken singly.
    """
    if validate:
        for report in validate_run(config):
            if not report.passed:
                raise AssumptionError(report)
    # alpha_k is nonincreasing and alpha_0 <= 1 holds by construction, so the
    # last round's value settles the range for every round
    _check_alpha(config.stepsize.alpha(config.max_rounds - 1))

    family = config.family
    max_rounds = config.max_rounds
    rng = np.random.default_rng(config.seed)
    states = initial_states(config, rng)

    # every state that reaches a record is finite: RunConfig checked the init and reference, the
    # divergence guard each window. win[0] holds the state a window starts from, win[j] the state
    # after its j-th round; rows table[:count] are complete.
    rows = states.shape[0]
    G = max(2, WINDOW_FLOATS // (rows * family.n))
    K = max(2, RECORD_FLOATS // (rows * family.n))
    win = np.empty((G + 1, rows, family.n))
    plan = record_rounds(max_rounds, config.record_every)
    # len() of a range fails past 2**63 - 1 entries, so the rows are counted from each piece's ends
    planned = sum((r[-1] - r.start) // r.step + 1 for r in plan if r)
    try:
        table, count = np.empty(planned, RECORD), 0
    except (ValueError, MemoryError) as e:
        raise ParameterError(f"max_rounds {max_rounds} plans {planned} records, a table too large to allocate") from e
    ks, filled = table["k"], 0
    for r in plan:
        ks[filled : filled + len(r)] = np.arange(r.start, r.stop, r.step)
        filled += len(r)
    del plan
    snapshot_every = config.snapshot_every
    snapshot_rounds, snapshots = [np.empty(0, np.int64)], [np.empty((0, rows, family.n))]

    def finish(aborted_at: int | None = None, final_states: NDArray[Float] | None = None) -> Trace:
        return Trace(
            mode=config.mode, n_agents=family.n_agents, n=family.n, block_dims=family.partition.dims,
            seed=config.seed, max_rounds=max_rounds, stepsize=config.stepsize,
            table=table[:count],
            snapshot_rounds=np.concatenate(snapshot_rounds),
            snapshots=np.concatenate(snapshots),
            aborted_at=aborted_at, final_states=final_states,
        )

    mode = config.mode
    alpha_at = config.stepsize.alpha
    limit = config.divergence_limit
    if mode != "centralized":
        mats, period = config.schedule.matrices, config.schedule.period
    else:
        tile = np.empty((family.n_agents, family.n))
    # blocks[j] is the block of the window's round k0 + j, -1 outside block-sampled mode and after the final round
    blocks = np.full(G + 1, -1)
    if mode == "dbkm":
        cumulative = config.selector._cumulative
        slices = [family.partition.block_slice(l) for l in range(family.partition.m)]
    win[0] = states
    for k0 in range(0, max_rounds, G):
        k1 = min(k0 + G, max_rounds)
        last = k1 == max_rounds
        alphas = [alpha_at(k) for k in range(k0, k1 + last)]
        if mode == "dbkm":
            blocks[: k1 - k0] = np.searchsorted(cumulative, rng.random(k1 - k0), side="right")
            blocks[k1 - k0] = -1
            drawn = blocks.tolist()
        # rounds after a diverging one still run to the window's end; their arithmetic may overflow
        with np.errstate(all="ignore"):
            for j, k in enumerate(range(k0, k1), 1):
                alpha = alphas[j - 1]
                if mode == "dkm":
                    new = mats[k % period] @ states
                    new += alpha * family.displacement_all(new)
                elif mode == "dbkm":
                    block = drawn[j - 1]
                    new = mats[k % period] @ states
                    sub = new[:, slices[block]]
                    sub += alpha * family.displacement_block_all(block, new)
                else:
                    tile[:] = states
                    new = states + alpha * family.mean_displacement(tile)
                win[j] = states = new
        done = win[1 : k1 - k0 + 1]
        # NaN fails both comparisons
        fatal = None
        if not (done.max() <= limit and -limit <= done.min()):
            # the first entry, round-major then row-major, that is non-finite or past the limit
            slot, agent, coord = np.unravel_index(int(np.argmax(~(np.abs(done) <= limit))), done.shape)
            fatal = k0 + int(slot)
        stop = k1 + last if fatal is None else fatal + 1
        # the window's rows: a round has at most one, so they lie among the next stop - k0
        hi = count + int(np.searchsorted(ks[count : count + stop - k0], stop))
        out = table[count:hi]
        slots = out["k"] - k0
        out["alpha_k"] = np.take(alphas, slots)
        out["selected_block"] = blocks[slots]
        for start in range(0, len(slots), K):
            residuals = record_residuals(family, win[slots[start : start + K]], config.reference)
            part = out[start : start + K]
            part["consensus_residual"], part["fp_residual"], part["dist_to_ref"], part["max_state_norm"] = residuals
        if snapshot_every is not None:
            keep = (out["k"] % snapshot_every == 0) | (out["k"] == max_rounds)
            snapshot_rounds.append(out["k"][keep])
            snapshots.append(win[slots[keep]])
        count = hi
        if fatal is not None:
            raise DivergenceError(
                fatal, finish(aborted_at=fatal + 1), agent=int(agent), coordinate=int(coord),
                last_states=win[slot].copy(),
            )
        win[0] = states

    return finish(final_states=states)
