"""Independent reference computations used to freeze expected test values.

Each helper deliberately avoids the library code path it is used to check:
gradients come from central finite differences of objective values
written out from their definitions, reachability from a dense
boolean closure, series verdicts from dyadic block sums, spectral norms
from power iteration, and maxima from brute-force grids. The sampled
checks and the distance oracle, which the library evaluates on stacked
arrays, are redone here one pair, point or set at a time, and the
centralized iteration one global step at a time.
"""

from __future__ import annotations

import numpy as np

from dkmsim import Box
from dkmsim.errors import DimensionMismatchError, ParameterError


def fd_gradient(f, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        grad[i] = (f(x + step) - f(x - step)) / (2.0 * h)
    return grad


def quadratic_value(f, x):
    """f(x) = 0.5 ||A x - b||^2 of a Quadratic, from its definition."""
    r = f.matrix @ x - f.target
    return 0.5 * float(r @ r)


def huber_value(f, x):
    """Sum over coordinates of the Huber loss of x - target: quadratic within delta, linear outside."""
    z = np.abs(x - f.target)
    return float(np.sum(np.where(z <= f.delta, 0.5 * z * z, f.delta * (z - 0.5 * f.delta))))


def closure_strongly_connected(adjacency):
    """Floyd-Warshall boolean closure; True iff every pair is mutually reachable."""
    reach = np.asarray(adjacency, dtype=bool).copy()
    np.fill_diagonal(reach, True)
    for mid in range(reach.shape[0]):
        reach |= np.outer(reach[:, mid], reach[mid, :])
    return bool(reach.all())


def dyadic_sum_verdict(term, num_terms=10_000_000):
    """Convergence verdict for the sum of a nonincreasing positive sequence.

    Sums term(k) for k = 1..num_terms-1 over dyadic blocks [2^j, 2^(j+1))
    and inspects the ratio of the last two complete block sums.  For a
    power-law tail the ratio settles fast: below 1 means the block sums
    shrink geometrically (a convergent tail), at or above 1 - 1e-3 means
    they do not shrink (divergent).
    """
    k = np.arange(1, num_terms, dtype=float)
    vals = term(k)
    block_sums = []
    j = 0
    while 2 ** (j + 1) <= num_terms:
        lo, hi = 2**j, 2 ** (j + 1)
        block_sums.append(vals[lo - 1 : hi - 1].sum())
        j += 1
    ratio = block_sums[-1] / block_sums[-2]
    return "diverges" if ratio >= 1.0 - 1e-3 else "converges"


def power_iteration_norm(matrix, iters=500, seed=0):
    """Spectral norm of a symmetric matrix by plain power iteration."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(matrix.shape[0])
    v /= np.linalg.norm(v)
    est = 0.0
    for _ in range(iters):
        w = matrix @ v
        est = np.linalg.norm(w)
        if est == 0.0:
            return 0.0
        v = w / est
    return est


def grid_max_displacement(displacement, lower, upper, points_per_dim=41):
    """Brute-force max of ||displacement(x)|| over a dense grid in a box."""
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(lower, upper)]
    grids = np.meshgrid(*axes, indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=1)
    return max(np.linalg.norm(displacement(x)) for x in points)


def grid_argmin_1d(f, lo, hi, num=50_001):
    """Brute-force argmin of a scalar function on an interval."""
    xs = np.linspace(lo, hi, num)
    vals = np.array([f(x) for x in xs])
    return xs[int(np.argmin(vals))]


def matrix_power_states(matrices, states0, rounds):
    """States after repeated mixing: A_{k-1} ... A_0 @ states0, no engine code."""
    states = np.array(states0, dtype=float)
    for k in range(rounds):
        states = matrices[k % len(matrices)] @ states
    return states


def pairwise_nonexpansive(evaluate, n, num_pairs, tol, seed, low=-10.0, high=10.0):
    """Both sides of the sampled nonexpansiveness test, one pair at a time.

    Pair p is the (2p)-th and (2p+1)-th uniform point on [low, high]^n drawn
    from default_rng(seed); returns (lhs, rhs) arrays of
    ||F(x_p) - F(y_p)|| and ||x_p - y_p|| * (1 + tol) + tol.
    """
    rng = np.random.default_rng(seed)
    lhs, rhs = [], []
    for _ in range(num_pairs):
        x = rng.uniform(low, high, n)
        y = rng.uniform(low, high, n)
        lhs.append(float(np.linalg.norm(evaluate(x) - evaluate(y), axis=-1)))
        rhs.append(float(np.linalg.norm(x - y, axis=-1)) * (1.0 + tol) + tol)
    return np.array(lhs), np.array(rhs)


def violation_lines(lhs, rhs):
    """(where, message) of every violating pair, in pair order, as the checker words them."""
    return [
        (f"pair {p}", f"||F(x)-F(y)|| = {lhs[p]:.12g} exceeds ||x-y|| = {rhs[p]:.12g}")
        for p in range(len(lhs))
        if lhs[p] > rhs[p]
    ]


def pointwise_displacement_bound(family, num_points, seed, low=-10.0, high=10.0):
    """max_i ||F_i(x) - x|| over uniform points drawn one at a time."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_points):
        x = rng.uniform(low, high, family.n)
        tiled = np.repeat(x[None, :], family.n_agents, axis=0)
        worst = max(worst, float(np.linalg.norm(family.displacement_all(tiled), axis=-1).max()))
    return worst


def sampled_check_lines(family, num_pairs, seed, tol=1e-12):
    """(where, message) lines of the sampled check over every local and the average.

    Local i draws from default_rng(seed + i), the average from
    default_rng(seed + N); the first three violating pairs of each are kept.
    """
    lines = []
    for i, op in enumerate(family.operators):
        found = violation_lines(*pairwise_nonexpansive(op.evaluate, family.n, num_pairs, tol, seed + i))
        lines += [(f"operator {i}, {where}", message) for where, message in found[:3]]
    found = violation_lines(*pairwise_nonexpansive(family.global_evaluate, family.n, num_pairs, tol, seed + family.n_agents))
    lines += [(f"global average, {where}", message) for where, message in found[:3]]
    return lines


def project(s, x):
    """Euclidean projection of the point x onto one Box or Ball."""
    if isinstance(s, Box):
        return np.clip(x, s.lower, s.upper)
    d = x - s.center
    nrm = float(np.linalg.norm(d, axis=-1))
    if nrm <= s.radius:
        return x.copy()
    return s.center + (s.radius / nrm) * d


def mean_projection_fixed_point(sets, tol=1e-12, max_iters=10_000_000):
    """The mean-projection iteration, one set's projection at a time."""
    centers = [0.5 * (s.lower + s.upper) if isinstance(s, Box) else s.center for s in sets]
    x = np.mean(centers, axis=0)
    for _ in range(max_iters):
        nxt = np.mean([project(s, x) for s in sets], axis=0)
        if float(np.linalg.norm(nxt - x, axis=-1)) < tol:
            return nxt
        x = nxt
    raise RuntimeError("mean-projection iteration did not settle")


def centralized_km(family, x0, stepsize, rounds):
    """Trajectory, shape (rounds + 1, n), of x <- x + alpha_k (F(x) - x) on the global operator."""
    x = np.asarray(x0, dtype=float)
    traj = np.empty((rounds + 1, family.n))
    traj[0] = x
    for k in range(rounds):
        x = x + stepsize.alpha(k) * family.global_displacement(x)
        traj[k + 1] = x
    return traj


def weighted_block_norm(x, partition, probabilities):
    """Block norm sqrt( sum_l ||x_l||^2 / p_l ) for block probabilities p.

    Sandwiched between the plain norm and norm / sqrt(min p): it transfers
    estimates between the block-sampled and full iterations.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape != (partition.m,):
        raise DimensionMismatchError(f"got {p.shape} probabilities for {partition.m} blocks")
    if np.any(p <= 0):
        raise ParameterError("block probabilities must be positive")
    total = 0.0
    for l in range(partition.m):
        xl = x[partition.block_slice(l)]
        total += float(xl @ xl) / float(p[l])
    return float(np.sqrt(total))
