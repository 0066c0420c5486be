"""Problem scenarios: operator families wired to schedules, plus oracles.

Three problem shapes are packaged here, each with an independent reference
oracle the simulator never touches:

  * distance minimization  min_x sum_i dist(x, X_i)^2 for convex sets X_i,
    where F_i projects onto X_i and the fixed point of the mean projection
    is the minimizer;
  * distributed smooth minimization  min_x sum_i f_i(x) via gradient-step
    operators F_i = Id - tau grad f_i;
  * network-mean linear equations  R x = r with R = mean R_i, r = mean r_i,
    via affine operators F_i(x) = (I - theta R_i) x + theta r_i.

Presets pin the named configurations the CLI exposes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from numpy._core.umath import clip as _clip
from numpy.typing import NDArray

from .blocks import BlockPartition, Float, as_point
from .engine import BlockSelector, RunConfig, initial_states
from .errors import OracleError, ParameterError
from .graphs import GraphSchedule, ring_schedule
from .operators import (
    Affine,
    Box,
    ConvexSet,
    GradientStep,
    Huber,
    Identity,
    OperatorFamily,
    Projection,
    Quadratic,
    SmoothObjective,
)
from .stepsize import PowerLawStepsize


@dataclass(frozen=True)
class Scenario:
    """A named runnable problem; its reference solution, if any, is config.reference."""

    name: str
    config: RunConfig
    reference_source: str

    @property
    def reference(self) -> NDArray[Float] | None:
        return self.config.reference

    def with_run(self, **overrides) -> "Scenario":
        """This scenario with RunConfig fields replaced (and revalidated)."""
        return replace(self, config=replace(self.config, **overrides))


@dataclass(frozen=True)
class _InitialMeanScenario(Scenario):
    """Its reference is the initial mean, so it follows the run's seed and init."""

    def __post_init__(self):
        mean = initial_states(self.config).mean(axis=0)
        object.__setattr__(self, "config", replace(self.config, reference=mean))


# ---------------------------------------------------------------------------
# oracles (engine-independent reference solutions)


@dataclass(frozen=True)
class LinearSolution:
    """Solution of R x = r with its certificate.

    unique is False when R is numerically rank deficient; consistent is
    False when even the least-squares answer leaves a residual, in which
    case solution is still the minimum-norm least-squares point.
    """

    solution: NDArray[Float]
    residual: float
    unique: bool
    consistent: bool


def oracle_linear_solve(R, r, tol: float = 1e-9) -> LinearSolution:
    """Dense least-squares solve of R x = r with rank and residual flags."""
    R = np.asarray(R, dtype=np.float64)
    r = as_point(r, R.shape[0])
    if R.ndim != 2:
        raise ParameterError(f"matrix must be 2-D, got shape {R.shape}")
    x, _, rank, _ = np.linalg.lstsq(R, r, rcond=None)
    residual = float(np.linalg.norm(R @ x - r, axis=-1))
    unique = rank == R.shape[1]
    consistent = residual <= tol * (1.0 + float(np.linalg.norm(r, axis=-1)))
    return LinearSolution(x, residual, unique, consistent)


def oracle_distance_minimizer(
    sets: list[ConvexSet],
    tol: float = 1e-12,
    max_iters: int = 10_000_000,
) -> NDArray[Float]:
    """Minimizer of sum_i dist(x, X_i)^2 by iterating the mean projection.

    The mean of projections is an averaged operator, so the plain fixed-point
    iteration converges; it stops when successive iterates differ by less
    than tol. This is gradient descent with unit step on the half-mean of
    squared distances, computed without the simulator: each iteration clips
    x into all boxes at once and projects onto all balls at once. It calls
    the ufuncs under np.clip, .mean and np.linalg.norm, for their bits without their wrappers.
    """
    if len(sets) == 0:
        raise ParameterError("need at least one set")
    n = sets[0].n
    for s in sets:
        if s.n != n:
            raise ParameterError("sets live in different dimensions")
    is_box = np.array([isinstance(s, Box) for s in sets])
    boxes, balls = np.flatnonzero(is_box), np.flatnonzero(~is_box)
    lower = np.array([sets[i].lower for i in boxes]).reshape(-1, n)
    upper = np.array([sets[i].upper for i in boxes]).reshape(-1, n)
    center = np.array([sets[i].center for i in balls]).reshape(-1, n)
    radius = np.array([sets[i].radius for i in balls])
    # row i is X_i's projection of x, in set order; it starts at the set's natural center
    proj = np.empty((len(sets), n))
    proj[boxes] = 0.5 * (lower + upper)
    proj[balls] = center
    x = np.add.reduce(proj, axis=0) / len(sets)
    for _ in range(max_iters):
        proj[boxes] = _clip(x, lower, upper)
        if len(balls):
            d = x - center
            nrm = np.sqrt(np.add.reduce(d * d, axis=-1))
            far = nrm > radius
            proj[balls] = x
            proj[balls[far]] = center[far] + (radius[far] / nrm[far])[:, None] * d[far]
        nxt = np.add.reduce(proj, axis=0) / len(sets)
        moved = nxt - x
        if math.sqrt(np.add.reduce(moved * moved)) < tol:
            return nxt
        x = nxt
    raise OracleError(f"mean-projection iteration did not settle within {max_iters} iterations")


def oracle_least_squares_minimizer(objectives: list[Quadratic]) -> tuple[NDArray[Float], bool]:
    """Minimizer of sum_i 0.5 ||A_i x - b_i||^2 from the normal equations."""
    if len(objectives) == 0:
        raise ParameterError("need at least one objective")
    n = objectives[0].n
    M = np.zeros((n, n))
    v = np.zeros(n)
    for f in objectives:
        M += f.matrix.T @ f.matrix
        v += f.matrix.T @ f.target
    sol = oracle_linear_solve(M, v)
    return sol.solution, sol.unique


def oracle_smooth_minimizer(
    objectives: list[SmoothObjective],
    tol: float = 1e-10,
    max_iters: int = 10_000_000,
) -> NDArray[Float]:
    """Minimizer of sum_i f_i by long plain gradient descent.

    Step 1 / sum_i L_i, stopping when the full gradient norm drops below tol.
    Start at the targets' mean when each has n entries (an m x n quadratic's has m), else at 0.
    """
    if len(objectives) == 0:
        raise ParameterError("need at least one objective")
    n = objectives[0].n
    total_L = sum(f.lipschitz_L for f in objectives)
    step = 1.0 / total_L
    targets = [f.target for f in objectives]
    x = np.mean(targets, axis=0) if all(t.shape == (n,) for t in targets) else np.zeros(n)
    for _ in range(max_iters):
        g = np.zeros(n)
        for f in objectives:
            g += f.gradient(x)
        if float(np.linalg.norm(g, axis=-1)) < tol:
            return x
        x = x - step * g
    raise OracleError(f"gradient descent did not reach tolerance {tol} within {max_iters} iterations")


# ---------------------------------------------------------------------------
# set families


def staircase_boxes(n_agents: int) -> list[Box]:
    """N boxes in R^3 marching up a square-root staircase.

    Agent i (1-based in the formula) gets
      [sqrt(i), sqrt(i+1)] x [sin(i pi/2), 1 + sin(i pi/2)]
                           x [sqrt(i) - sqrt(N) + 2, sqrt(i)].
    Consecutive boxes touch in the first coordinate, so the family has a
    unique mean-projection fixed point. The third interval is empty unless
    N >= 4; the Box constructor rejects smaller families.
    """
    N = int(n_agents)
    boxes = []
    for i in range(1, N + 1):
        lower = [math.sqrt(i), math.sin(i * math.pi / 2), math.sqrt(i) - math.sqrt(N) + 2.0]
        upper = [math.sqrt(i + 1), 1.0 + math.sin(i * math.pi / 2), math.sqrt(i)]
        boxes.append(Box(np.array(lower), np.array(upper)))
    return boxes


# ---------------------------------------------------------------------------
# scenario builders


def _scenario(name, ops, schedule, stepsize, mode, selector, reference, source, run_kwargs) -> Scenario:
    """The tail every builder shares: family, RunConfig (selector only in dbkm, uniform by default), Scenario."""
    config = RunConfig(
        family=OperatorFamily(ops),
        stepsize=stepsize,
        schedule=schedule,
        mode=mode,
        selector=(selector or BlockSelector.uniform(ops[0].partition.m)) if mode == "dbkm" else None,
        reference=reference,
        **run_kwargs,
    )
    return Scenario(name=name, config=config, reference_source=source)


def build_distance_scenario(
    sets: list[ConvexSet],
    schedule: GraphSchedule,
    stepsize: PowerLawStepsize,
    mode: str = "dkm",
    block_dims: tuple[int, ...] | None = None,
    selector: BlockSelector | None = None,
    name: str = "distance",
    compute_reference: bool = True,
    **run_kwargs,
) -> Scenario:
    """Projection family for min_x sum_i dist(x, X_i)^2.

    Block-sampled runs require a uniform selector: the guarantee for
    projection problems only covers equal block probabilities.
    """
    if len(sets) == 0:
        raise ParameterError("need at least one set")
    n = sets[0].n
    partition = BlockPartition(block_dims or (n,))
    if partition.n != n:
        raise ParameterError(f"block dims {partition.dims} cover {partition.n} coordinates, sets need {n}")
    if mode == "dbkm" and selector is not None and not selector.is_uniform():
        raise ParameterError(
            f"block-coordinate projection runs require uniform block probabilities; got {selector.probabilities}"
        )
    ops = [Projection(partition, s) for s in sets]
    reference = oracle_distance_minimizer(sets) if compute_reference else None
    source = "mean-projection fixed-point iteration"
    return _scenario(name, ops, schedule, stepsize, mode, selector, reference, source, run_kwargs)


def build_dgd_scenario(
    objectives: list[SmoothObjective],
    tau: float,
    schedule: GraphSchedule,
    stepsize: PowerLawStepsize,
    mode: str = "dkm",
    block_dims: tuple[int, ...] | None = None,
    selector: BlockSelector | None = None,
    name: str = "dgd",
    compute_reference: bool = True,
    **run_kwargs,
) -> Scenario:
    """Gradient-step family for min_x sum_i f_i(x).

    One shared tau; each constructor enforces tau < 2 / L_i, so collectively
    tau < 2 / max_i L_i. The effective per-round gradient step is
    tau * alpha_k (descent, not ascent).
    """
    if len(objectives) == 0:
        raise ParameterError("need at least one objective")
    partition = BlockPartition(block_dims or (objectives[0].n,))
    ops = [GradientStep(partition, f, tau) for f in objectives]
    reference = None
    source = "none"
    if compute_reference:
        if all(isinstance(f, Quadratic) for f in objectives):
            reference, unique = oracle_least_squares_minimizer(objectives)
            source = "normal-equations solve" + ("" if unique else " (minimum-norm; nonunique)")
        else:
            reference = oracle_smooth_minimizer(objectives)
            source = "centralized gradient descent"
    return _scenario(name, ops, schedule, stepsize, mode, selector, reference, source, run_kwargs)


def build_linear_scenario(
    matrices: list,
    offsets: list,
    schedule: GraphSchedule,
    stepsize: PowerLawStepsize,
    theta: float | None = None,
    mode: str = "dkm",
    block_dims: tuple[int, ...] | None = None,
    selector: BlockSelector | None = None,
    name: str = "linear",
    compute_reference: bool = True,
    **run_kwargs,
) -> Scenario:
    """Affine family whose common fixed points solve mean(R_i) x = mean(r_i).

    theta defaults to 2 / max_i lambda_max(R_i), the largest admissible value.
    """
    if len(matrices) == 0 or len(matrices) != len(offsets):
        raise ParameterError("need matching, nonempty matrix and offset lists")
    mats = [np.asarray(R, dtype=np.float64) for R in matrices]
    n = mats[0].shape[0]
    partition = BlockPartition(block_dims or (n,))
    if theta is None:
        lam_max = max(float(np.linalg.eigvalsh(R)[-1]) for R in mats)
        if lam_max <= 0:
            raise ParameterError("all matrices are zero; pick theta explicitly")
        theta = 2.0 / lam_max
    ops = [Affine(partition, R, r, theta) for R, r in zip(mats, offsets)]
    reference = None
    source = "none"
    if compute_reference:
        R_bar = np.mean(mats, axis=0)
        r_bar = np.mean([as_point(r, n) for r in offsets], axis=0)
        sol = oracle_linear_solve(R_bar, r_bar)
        reference = sol.solution
        source = "dense least-squares solve"
        if not sol.unique:
            source += " (minimum-norm; rank-deficient mean matrix)"
        if not sol.consistent:
            source += " (inconsistent system; least-squares point)"
    return _scenario(name, ops, schedule, stepsize, mode, selector, reference, source, run_kwargs)


def build_consensus_scenario(
    agents: int,
    dimension: int,
    schedule: GraphSchedule,
    stepsize: PowerLawStepsize,
    name: str = "consensus",
    **run_kwargs,
) -> Scenario:
    """Identity operators: pure averaging. Any point is fixed, so the
    reference is the initial mean, which mixing preserves; with_run
    recomputes it for a new seed or init."""
    family = OperatorFamily([Identity(BlockPartition.single(dimension)) for _ in range(agents)])
    config = RunConfig(family=family, stepsize=stepsize, schedule=schedule, mode="dkm", **run_kwargs)
    return _InitialMeanScenario(name, config, "initial mean (identity operators fix every point)")


# ---------------------------------------------------------------------------
# named presets


def random_linear_instance(instance_seed: int, n_agents: int = 5, n: int = 4):
    """Seeded random SPD system: R_i = G_i^T G_i + 0.1 I, r_i standard normal."""
    rng = np.random.default_rng(instance_seed)
    matrices = []
    offsets = []
    for _ in range(n_agents):
        G = rng.standard_normal((n, n))
        matrices.append(G.T @ G + 0.1 * np.eye(n))
        offsets.append(rng.standard_normal(n))
    return matrices, offsets


PRESET_NAMES = ("paper-dkm-6", "paper-dbkm-100", "linear-random", "dgd-quadratic", "dgd-huber")

_PRESET_STEPSIZE = PowerLawStepsize(alpha0=1.0, gamma=0.7, k0=1)


def build_preset(name: str, seed: int | None = None, max_rounds: int | None = None) -> Scenario:
    """Construct one of the named scenarios, optionally overriding seed/rounds."""
    if name == "paper-dkm-6":
        scenario = build_distance_scenario(
            staircase_boxes(6), ring_schedule(6, 2, 0.5), _PRESET_STEPSIZE, name=name, max_rounds=20_000
        )
    elif name == "paper-dbkm-100":
        scenario = build_distance_scenario(
            staircase_boxes(100),
            ring_schedule(100, 10, 0.5),
            _PRESET_STEPSIZE,
            mode="dbkm",
            block_dims=(1, 1, 1),
            name=name,
            max_rounds=100_000,
        )
    elif name == "linear-random":
        matrices, offsets = random_linear_instance(0)
        scenario = build_linear_scenario(
            matrices, offsets, ring_schedule(5, 2, 0.5), _PRESET_STEPSIZE, name=name, max_rounds=100_000
        )
    elif name == "dgd-quadratic":
        rng = np.random.default_rng(11)
        objectives = []
        for _ in range(4):
            A = rng.standard_normal((3, 3))
            b = rng.standard_normal(3)
            objectives.append(Quadratic(A, b))
        L = max(f.lipschitz_L for f in objectives)
        scenario = build_dgd_scenario(
            objectives, 1.0 / L, ring_schedule(4, 2, 0.5), _PRESET_STEPSIZE, name=name, max_rounds=20_000
        )
    elif name == "dgd-huber":
        rng = np.random.default_rng(13)
        objectives = [Huber(rng.uniform(-3.0, 3.0, 2), delta=1.0) for _ in range(3)]
        scenario = build_dgd_scenario(
            objectives, 1.0, ring_schedule(3, 3, 0.5), _PRESET_STEPSIZE, name=name, max_rounds=20_000
        )
    else:
        raise ParameterError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    overrides = {"seed": seed, "max_rounds": max_rounds}
    return scenario.with_run(**{k: v for k, v in overrides.items() if v is not None})
