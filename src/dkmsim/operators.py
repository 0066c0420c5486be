"""Local operator catalog: projections, gradient steps, affine maps, identity.

Each agent holds one local operator F_i mapping R^n to R^n. The global
operator is the agent average F = (1/N) sum_i F_i; when every F_i is
nonexpansive, so is F. The catalog is closed: the four kinds below are the
only ones the engine and the config schema accept.

Operators expose both full evaluation and per-block evaluation against a
shared BlockPartition, plus a displacement form F(x) - x computed without
cancellation where the kind allows it (gradient steps, affine maps). The
iteration engine works exclusively with displacements.

Each kind's arithmetic is written once, over a stack of agents: a family
evaluates one stacked group per kind, a single operator a one-member stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .blocks import BlockPartition, Float, as_point, as_states
from .errors import DimensionMismatchError, ParameterError
from .validation import ValidationReport, Violation, failed, passed

SYMMETRY_TOL = 1e-10
PSD_TOL = 1e-10
NONEXPANSIVE_TOL = 1e-12


# ---------------------------------------------------------------------------
# convex sets


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {x : lower <= x <= upper}, coordinatewise."""

    lower: NDArray[Float]
    upper: NDArray[Float]

    def __post_init__(self):
        lo = as_point(self.lower)
        up = as_point(self.upper, lo.shape[0])
        if np.any(lo > up):
            bad = int(np.argmax(lo > up))
            raise ParameterError(
                f"box has lower[{bad}] = {lo[bad]} > upper[{bad}] = {up[bad]}"
            )
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", up)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def project(self, x: NDArray[Float]) -> NDArray[Float]:
        return np.clip(x, self.lower, self.upper)

    def contains(self, x: NDArray[Float], tol: float = 0.0) -> bool:
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {x : ||x - center|| <= radius}."""

    center: NDArray[Float]
    radius: float

    def __post_init__(self):
        c = as_point(self.center)
        r = float(self.radius)
        if not np.isfinite(r) or r <= 0:
            raise ParameterError(f"ball radius must be positive and finite, got {r}")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)

    @property
    def n(self) -> int:
        return self.center.shape[0]

    def project(self, x: NDArray[Float]) -> NDArray[Float]:
        d = x - self.center
        nrm = float(np.linalg.norm(d))
        if nrm <= self.radius:
            return x.copy()
        return self.center + (self.radius / nrm) * d

    def contains(self, x: NDArray[Float], tol: float = 0.0) -> bool:
        return bool(np.linalg.norm(x - self.center) <= self.radius + tol)


ConvexSet = Box | Ball


# ---------------------------------------------------------------------------
# smooth convex objectives (for gradient-step operators)


@dataclass(frozen=True)
class Quadratic:
    """f(x) = 0.5 ||A x - b||^2 with gradient A^T (A x - b).

    The gradient Lipschitz constant is the largest eigenvalue of A^T A.
    """

    matrix: NDArray[Float]
    target: NDArray[Float]
    lipschitz_L: float = field(init=False)

    def __post_init__(self):
        A = np.asarray(self.matrix, dtype=np.float64)
        if A.ndim != 2:
            raise DimensionMismatchError(f"quadratic matrix must be 2-D, got shape {A.shape}")
        if not np.all(np.isfinite(A)):
            raise ParameterError("quadratic matrix has non-finite entries")
        b = as_point(self.target, A.shape[0])
        L = float(np.linalg.eigvalsh(A.T @ A)[-1])
        if L <= 0:
            raise ParameterError("quadratic matrix is zero; gradient step is undefined")
        object.__setattr__(self, "matrix", A)
        object.__setattr__(self, "target", b)
        object.__setattr__(self, "lipschitz_L", L)

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    def value(self, x: NDArray[Float]) -> float:
        r = self.matrix @ x - self.target
        return 0.5 * float(r @ r)

    def gradient(self, x: NDArray[Float]) -> NDArray[Float]:
        return self.matrix.T @ (self.matrix @ x - self.target)


@dataclass(frozen=True)
class Huber:
    """Coordinatewise Huber loss around a target point.

    f(x) = sum_c h_delta(x_c - target_c) with h quadratic inside
    [-delta, delta] and linear outside. The gradient clips x - target
    into that interval, so lipschitz_L = 1 and the gradient norm is
    bounded by delta * sqrt(n) everywhere.
    """

    target: NDArray[Float]
    delta: float = 1.0
    lipschitz_L: float = field(init=False)

    def __post_init__(self):
        t = as_point(self.target)
        d = float(self.delta)
        if not np.isfinite(d) or d <= 0:
            raise ParameterError(f"huber delta must be positive and finite, got {d}")
        object.__setattr__(self, "target", t)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "lipschitz_L", 1.0)

    @property
    def n(self) -> int:
        return self.target.shape[0]

    def value(self, x: NDArray[Float]) -> float:
        z = x - self.target
        az = np.abs(z)
        inside = az <= self.delta
        return float(np.sum(np.where(inside, 0.5 * z * z, self.delta * (az - 0.5 * self.delta))))

    def gradient(self, x: NDArray[Float]) -> NDArray[Float]:
        return np.clip(x - self.target, -self.delta, self.delta)


SmoothObjective = Quadratic | Huber


# ---------------------------------------------------------------------------
# operator kinds, stacked over groups of agents


def _row_norms(d: NDArray[Float]) -> NDArray[Float]:
    """Euclidean norm of each row along the last axis.

    A row @ column matmul is the dot product np.linalg.norm takes of a single
    point, so each entry equals norm(row) bitwise; norm(d, axis=-1) sums in
    another order and moves the last ulp.
    """
    return np.sqrt(np.matmul(d[..., None, :], d[..., :, None])[..., 0, 0])


class _Stack:
    """One operator kind over G agents, parameters stacked on axis 0.

    Methods map (..., G, n) states, row g for member g, to (..., G, n) or,
    for a block, (..., G, block width); leading batch axes broadcast against
    the (G, ...) parameters. A kind overrides evaluate or displacement, and
    the block form where slicing first is cheaper.
    """

    def __init__(self, ops: list["LocalOperator"]):
        pass

    def evaluate(self, states: NDArray[Float]) -> NDArray[Float]:
        return states + self.displacement(states)

    def displacement(self, states: NDArray[Float]) -> NDArray[Float]:
        return self.evaluate(states) - states

    def displacement_block(self, sl: slice, states: NDArray[Float]) -> NDArray[Float]:
        return self.displacement(states)[..., sl]


class _IdentityStack(_Stack):
    def evaluate(self, states: NDArray[Float]) -> NDArray[Float]:
        return states.copy()

    def displacement(self, states: NDArray[Float]) -> NDArray[Float]:
        return np.zeros_like(states)


class _BoxStack(_Stack):
    def __init__(self, ops):
        self.lower = np.stack([op.target_set.lower for op in ops])
        self.upper = np.stack([op.target_set.upper for op in ops])
        # each block's bounds, keyed by the block's first coordinate (slices are unhashable before 3.12)
        part = ops[0].partition
        self.block_bounds = {
            part.offsets[l]: (self.lower[:, part.block_slice(l)], self.upper[:, part.block_slice(l)])
            for l in range(part.m)
        }

    def evaluate(self, states: NDArray[Float]) -> NDArray[Float]:
        # ndarray.clip is what np.clip calls, minus the wrapper's per-call overhead
        return states.clip(self.lower, self.upper)

    def displacement_block(self, sl: slice, states: NDArray[Float]) -> NDArray[Float]:
        # clamp only needs the block's own coordinates
        sub = states[..., sl]
        lower, upper = self.block_bounds[sl.start]
        return sub.clip(lower, upper) - sub


class _BallStack(_Stack):
    def __init__(self, ops):
        self.center = np.stack([op.target_set.center for op in ops])
        self.radius = np.array([op.target_set.radius for op in ops])

    def evaluate(self, states: NDArray[Float]) -> NDArray[Float]:
        # the scaling factor depends on the whole vector, so blocks slice the full result
        d = states - self.center
        nrm = _row_norms(d)
        out = states.copy()
        far = nrm > self.radius
        member = far.nonzero()[-1]
        out[far] = self.center[member] + (self.radius[member] / nrm[far])[:, None] * d[far]
        return out


class _QuadraticStepStack(_Stack):
    def __init__(self, ops):
        self.matrix = np.stack([op.objective.matrix for op in ops])
        self.matrix_t = self.matrix.transpose(0, 2, 1)
        self.target = np.stack([op.objective.target for op in ops])[:, :, None]
        self.neg_tau = -np.array([op.tau for op in ops])[:, None]

    def displacement(self, states: NDArray[Float]) -> NDArray[Float]:
        # (-tau) * A^T (A x - b), never F(x) - x, so no cancellation. Stacked
        # matmul runs the same matrix-vector product per agent as a 2-D A @ x;
        # einsum sums in another order and moves the last ulp.
        resid = np.matmul(self.matrix, states[..., None]) - self.target
        return self.neg_tau * np.matmul(self.matrix_t, resid)[..., 0]


class _HuberStepStack(_Stack):
    def __init__(self, ops):
        self.target = np.stack([op.objective.target for op in ops])
        self.delta = np.array([op.objective.delta for op in ops])[:, None]
        self.neg_tau = -np.array([op.tau for op in ops])[:, None]

    def displacement(self, states: NDArray[Float]) -> NDArray[Float]:
        return self.neg_tau * (states - self.target).clip(-self.delta, self.delta)


class _AffineStack(_Stack):
    def __init__(self, ops):
        self.matrix = np.stack([op.matrix for op in ops])
        self.offset = np.stack([op.offset for op in ops])
        self.theta = np.array([op.theta for op in ops])[:, None]

    def displacement(self, states: NDArray[Float]) -> NDArray[Float]:
        # theta * (r - R x), algebraically F(x) - x without the cancellation
        return self.theta * (self.offset - np.einsum("ijk,...ik->...ij", self.matrix, states))

    def displacement_block(self, sl: slice, states: NDArray[Float]) -> NDArray[Float]:
        rows = np.einsum("ijk,...ik->...ij", self.matrix[:, sl, :], states)
        return self.theta * (self.offset[:, sl] - rows)


class _MixedStack(_Stack):
    """Several groups: each gets its members' rows, results return in agent order."""

    def __init__(self, groups: list[tuple[NDArray[np.intp], _Stack]]):
        self.groups = groups

    def _scatter(self, states: NDArray[Float], apply) -> NDArray[Float]:
        parts = [(rows, apply(group, states[..., rows, :])) for rows, group in self.groups]
        out = np.empty(states.shape[:-1] + parts[0][1].shape[-1:])
        for rows, part in parts:
            out[..., rows, :] = part
        return out

    def evaluate(self, states: NDArray[Float]) -> NDArray[Float]:
        return self._scatter(states, lambda group, x: group.evaluate(x))

    def displacement(self, states: NDArray[Float]) -> NDArray[Float]:
        return self._scatter(states, lambda group, x: group.displacement(x))

    def displacement_block(self, sl: slice, states: NDArray[Float]) -> NDArray[Float]:
        return self._scatter(states, lambda group, x: group.displacement_block(sl, x))


# ---------------------------------------------------------------------------
# local operators


class LocalOperator:
    """One agent's map F_i on R^n with a shared block partition.

    The arithmetic lives in the stacked kinds above; the per-agent methods
    validate x and evaluate it as a one-member stack. Members with equal
    stack_key stack into one group; stack_key[0] is the kind.
    """

    stack_key: tuple

    def __init__(self, partition: BlockPartition):
        self.partition = partition
        self.n = partition.n

    @cached_property
    def _stack(self) -> _Stack:
        return self.stack_key[0]([self])

    def evaluate(self, x) -> NDArray[Float]:
        """F_i(x). Validates that x is a finite point of length n."""
        return self._stack.evaluate(as_point(x, self.n)[None])[0]

    def displacement(self, x) -> NDArray[Float]:
        """F_i(x) - x, the quantity the iteration engine consumes."""
        return self._stack.displacement(as_point(x, self.n)[None])[0]

    def evaluate_block(self, l: int, x) -> NDArray[Float]:
        """Block l of F_i(x); agrees bitwise with slicing evaluate(x)."""
        return self.evaluate(x)[self.partition.block_slice(l)]

    def displacement_block(self, l: int, x) -> NDArray[Float]:
        return self.displacement(x)[self.partition.block_slice(l)]

    def __call__(self, x) -> NDArray[Float]:
        return self.evaluate(x)


class Identity(LocalOperator):
    """F(x) = x. Fixed-point residuals are identically zero."""

    stack_key = (_IdentityStack,)


class Projection(LocalOperator):
    """Exact Euclidean projection onto a box or a ball.

    Projections are firmly nonexpansive, so any agent average of them is
    nonexpansive as well.
    """

    def __init__(self, partition: BlockPartition, target_set: ConvexSet):
        super().__init__(partition)
        if target_set.n != partition.n:
            raise DimensionMismatchError(
                f"set lives in R^{target_set.n} but partition covers {partition.n} coordinates"
            )
        self.target_set = target_set
        self.stack_key = (_BoxStack if isinstance(target_set, Box) else _BallStack,)


class GradientStep(LocalOperator):
    """F(x) = x - tau * grad f(x) for a smooth convex objective f.

    Nonexpansive iff 0 < tau < 2 / L where L bounds the gradient's
    Lipschitz constant; the constructor enforces the strict bound.
    """

    def __init__(self, partition: BlockPartition, objective: SmoothObjective, tau: float):
        super().__init__(partition)
        if objective.n != partition.n:
            raise DimensionMismatchError(
                f"objective on R^{objective.n} but partition covers {partition.n} coordinates"
            )
        tau = float(tau)
        limit = 2.0 / objective.lipschitz_L
        if not np.isfinite(tau) or not 0.0 < tau < limit:
            raise ParameterError(
                f"gradient step size must satisfy 0 < tau < 2/L = {limit:.6g}, got {tau}"
            )
        self.objective = objective
        self.tau = tau
        quadratic = isinstance(objective, Quadratic)
        self.stack_key = (_QuadraticStepStack, objective.matrix.shape) if quadratic else (_HuberStepStack,)


class Affine(LocalOperator):
    """F(x) = (I - theta R) x + theta r for symmetric positive semidefinite R.

    Nonexpansive iff 0 < theta <= 2 / lambda_max(R); the constructor checks
    symmetry and the eigenvalue bound. Pass validate=False only to build a
    deliberately invalid instance for exercising the sampled checker.
    """

    stack_key = (_AffineStack,)

    def __init__(
        self,
        partition: BlockPartition,
        matrix,
        offset,
        theta: float,
        validate: bool = True,
    ):
        super().__init__(partition)
        R = np.asarray(matrix, dtype=np.float64)
        if R.shape != (self.n, self.n):
            raise DimensionMismatchError(
                f"matrix shape {R.shape} does not match partition dimension {self.n}"
            )
        if not np.all(np.isfinite(R)):
            raise ParameterError("affine matrix has non-finite entries")
        r = as_point(offset, self.n)
        theta = float(theta)
        if validate:
            asym = float(np.max(np.abs(R - R.T)))
            if asym > SYMMETRY_TOL:
                raise ParameterError(f"matrix is not symmetric (max |R - R^T| = {asym:.3g})")
            eigs = np.linalg.eigvalsh(R)
            if eigs[0] < -PSD_TOL:
                raise ParameterError(f"matrix is not positive semidefinite (min eig = {eigs[0]:.3g})")
            lam_max = float(eigs[-1])
            if lam_max > PSD_TOL:
                limit = 2.0 / lam_max
                if not 0.0 < theta <= limit:
                    raise ParameterError(
                        f"theta must satisfy 0 < theta <= 2/lambda_max = {limit:.6g}, got {theta}"
                    )
            elif theta <= 0:
                raise ParameterError(f"theta must be positive, got {theta}")
        self.matrix = R
        self.offset = r
        self.theta = theta


# ---------------------------------------------------------------------------
# operator family


class OperatorFamily:
    """The N local operators of one problem, sharing a partition.

    Members are grouped by kind and parameter shape; groups holds
    (agent indices, stacked kind) pairs, and each group evaluates all its
    agents in one call.
    """

    def __init__(self, operators: list[LocalOperator]):
        if len(operators) == 0:
            raise ParameterError("a family needs at least one operator")
        part = operators[0].partition
        for i, op in enumerate(operators):
            if op.partition != part:
                raise DimensionMismatchError(
                    f"operator {i} uses partition {op.partition.dims}, expected {part.dims}"
                )
        self.operators = list(operators)
        self.partition = part
        self.n = part.n
        self.n_agents = len(operators)
        members: dict[tuple, list[int]] = {}
        for i, op in enumerate(operators):
            members.setdefault(op.stack_key, []).append(i)
        self.groups = [(np.array(rows), key[0]([operators[i] for i in rows])) for key, rows in members.items()]
        # a one-group family hands the whole state matrix to its group, with no scatter
        self._stack = self.groups[0][1] if len(self.groups) == 1 else _MixedStack(self.groups)

    # -- stacked paths (engine hot loop; shapes validated by caller)

    def displacement_all(self, states: NDArray[Float]) -> NDArray[Float]:
        """Row i is F_i(states[i]) - states[i]. states is (N, n), or (..., N, n) with batch axes."""
        return self._stack.displacement(states)

    def displacement_block_all(self, l: int, states: NDArray[Float]) -> NDArray[Float]:
        """Block l of each agent's displacement; (N, dims[l])."""
        return self._stack.displacement_block(self.partition.block_slice(l), states)

    def evaluate_all(self, states: NDArray[Float]) -> NDArray[Float]:
        """Row i is F_i(states[i]); batch axes as in displacement_all."""
        return self._stack.evaluate(states)

    # -- global operator F = (1/N) sum_i F_i

    def mean_displacement(self, tiled: NDArray[Float]) -> NDArray[Float]:
        """F(x) - x for x held in every row of the (N, n) matrix tiled; unchecked.

        The sum and division of .mean(axis=0), without its wrapper.
        """
        return np.add.reduce(self.displacement_all(tiled), axis=0) / self.n_agents

    def global_displacement(self, x) -> NDArray[Float]:
        x = as_point(x, self.n)
        return self.mean_displacement(np.repeat(x[None, :], self.n_agents, axis=0))

    def global_evaluate(self, x) -> NDArray[Float]:
        """F(x), the agent average. Nonexpansive whenever every F_i is.

        A one-member family reproduces its local operator exactly.
        """
        x = as_point(x, self.n)
        tiled = np.repeat(x[None, :], self.n_agents, axis=0)
        return self.evaluate_all(tiled).mean(axis=0)

    # alias so a family fits anywhere a local operator does
    def evaluate(self, x) -> NDArray[Float]:
        return self.global_evaluate(x)


# ---------------------------------------------------------------------------
# sampled checks


def uniform_box_sampler(n: int, low: float = -10.0, high: float = 10.0):
    """Default point sampler: size points uniform on [low, high]^n, shape (size, n).

    A sampler is called as sampler(rng, size). One call draws the same stream,
    row by row, as size calls of rng.uniform(low, high, n).
    """

    def sample(rng: np.random.Generator, size: int) -> NDArray[Float]:
        return rng.uniform(low, high, (size, n))

    return sample


def pair_norms(points: NDArray[Float], images: NDArray[Float], tol: float) -> tuple[NDArray[Float], NDArray[Float]]:
    """Both sides of the nonexpansiveness test for sampled pairs.

    points holds the pairs interleaved on axis 0 (x_p in row 2p, y_p in row
    2p + 1), images their F values, both (2P, ..., n). Returns
    lhs = ||F(x_p) - F(y_p)|| and rhs = ||x_p - y_p|| * (1 + tol) + tol, each
    (P, ...), equal bitwise to the same sums taken one pair at a time.
    """
    lhs = _row_norms(images[0::2] - images[1::2])
    rhs = _row_norms(points[0::2] - points[1::2]) * (1.0 + tol) + tol
    return lhs, rhs


def pair_violations(lhs: NDArray[Float], rhs: NDArray[Float]) -> list[Violation]:
    """One Violation per pair with lhs > rhs, in pair order; lhs and rhs are (P,)."""
    return [
        Violation(f"pair {p}", f"||F(x)-F(y)|| = {lhs[p]:.12g} exceeds ||x-y|| = {rhs[p]:.12g}")
        for p in np.flatnonzero(lhs > rhs).tolist()
    ]


def check_nonexpansive(
    op,
    num_pairs: int = 1000,
    tol: float = NONEXPANSIVE_TOL,
    seed: int = 0,
    sampler=None,
) -> ValidationReport:
    """Sampled nonexpansiveness check on an operator or a family's average.

    Draws num_pairs point pairs with one sampler(rng, 2 * num_pairs) call and
    flags every pair with ||F(x) - F(y)|| > ||x - y|| * (1 + tol) + tol.
    All points are evaluated in one stacked call. Samples can only refute,
    never prove; constructors enforce the analytic bounds.
    """
    if sampler is None:
        sampler = uniform_box_sampler(op.n)
    points = as_states(sampler(np.random.default_rng(seed), 2 * num_pairs), 2 * num_pairs, op.n)
    # a local operator is the average of its one-member family, exactly
    family = op if isinstance(op, OperatorFamily) else OperatorFamily([op])
    images = family.evaluate_all(np.repeat(points[:, None, :], family.n_agents, axis=1)).mean(axis=1)
    violations = pair_violations(*pair_norms(points, images, tol))
    name = "operator: sampled nonexpansiveness"
    if violations:
        return failed(name, violations, f"{len(violations)}/{num_pairs} pairs violate")
    return passed(name, f"{num_pairs} pairs within tolerance {tol:g}")


def estimate_displacement_bound(
    family: OperatorFamily,
    num_points: int = 1000,
    seed: int = 0,
    sampler=None,
) -> float:
    """Empirical max_i ||F_i(x) - x|| over sampled points.

    Draws all points in one sampler(rng, num_points) call and takes every
    agent's displacement at every point in one stacked (num_points, N, n)
    call. A sampled maximum is a lower bound on the true supremum;
    validate_full reports it as a diagnostic.
    """
    if sampler is None:
        sampler = uniform_box_sampler(family.n)
    points = as_states(sampler(np.random.default_rng(seed), num_points), num_points, family.n)
    tiled = np.repeat(points[:, None, :], family.n_agents, axis=1)
    return float(np.linalg.norm(family.displacement_all(tiled), axis=-1).max(initial=0.0))
