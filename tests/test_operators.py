"""Operator catalog: construction guards, evaluation, and sampled checks.

Expected values for the gradient and affine cases were frozen against the
finite-difference and power-iteration helpers in oracles.py.
"""

import numpy as np
import pytest

from dkmsim import (
    Affine,
    Ball,
    BlockPartition,
    Box,
    GradientStep,
    Huber,
    Identity,
    OperatorFamily,
    Projection,
    Quadratic,
    check_nonexpansive,
    estimate_displacement_bound,
    uniform_box_sampler,
)
from dkmsim.errors import DimensionMismatchError, ParameterError
from dkmsim.operators import pair_norms

from oracles import (
    fd_gradient,
    grid_max_displacement,
    pairwise_nonexpansive,
    pointwise_displacement_bound,
    power_iteration_norm,
    violation_lines,
)


def ulps_apart(a, b):
    """Max coordinatewise distance in units of the larger value's spacing."""
    a = np.asarray(a)
    b = np.asarray(b)
    spacing = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / spacing, initial=0.0))


# ---------------------------------------------------------------------------
# convex sets


def test_box_projection_and_membership():
    box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(box.project(np.array([2.0, 0.5])), [1.0, 0.5])
    assert box.contains(np.array([0.5, 0.0]))
    assert not box.contains(np.array([1.5, 0.0]))


def test_box_rejects_crossed_bounds():
    with pytest.raises(ParameterError):
        Box(np.array([1.0]), np.array([0.0]))


def test_ball_projection():
    ball = Ball(np.zeros(2), 1.0)
    inside = np.array([0.3, 0.4])
    assert np.array_equal(ball.project(inside), inside)
    projected = ball.project(np.array([3.0, 4.0]))
    assert np.allclose(projected, [0.6, 0.8])
    assert np.isclose(np.linalg.norm(projected), 1.0)


def test_ball_rejects_bad_radius():
    with pytest.raises(ParameterError):
        Ball(np.zeros(2), 0.0)
    with pytest.raises(ParameterError):
        Ball(np.zeros(2), -1.0)


# ---------------------------------------------------------------------------
# smooth objectives


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 2))
    b = rng.standard_normal(3)
    f = Quadratic(A, b)
    for _ in range(5):
        x = rng.standard_normal(2)
        assert np.allclose(f.gradient(x), fd_gradient(f.value, x), atol=1e-6)


def test_quadratic_lipschitz_bounds_gradient_variation():
    rng = np.random.default_rng(2)
    f = Quadratic(rng.standard_normal((4, 3)), rng.standard_normal(4))
    for _ in range(200):
        x = rng.uniform(-10, 10, 3)
        y = rng.uniform(-10, 10, 3)
        lhs = np.linalg.norm(f.gradient(x) - f.gradient(y))
        assert lhs <= f.lipschitz_L * np.linalg.norm(x - y) * (1 + 1e-12)


def test_huber_gradient_matches_finite_differences():
    f = Huber(np.array([0.5, -0.5]), delta=0.7)
    # one point per regime: inside the quadratic zone, outside, and mixed
    for pt in ([0.9, -0.1], [3.0, -4.0], [0.55, -3.0]):
        x = np.array(pt)
        assert np.allclose(f.gradient(x), fd_gradient(f.value, x), atol=1e-5)


def test_huber_gradient_is_clipped():
    f = Huber(np.zeros(3), delta=1.0)
    assert f.lipschitz_L == 1.0
    g = f.gradient(np.array([10.0, -10.0, 0.25]))
    assert np.array_equal(g, [1.0, -1.0, 0.25])


def test_huber_rejects_bad_delta():
    with pytest.raises(ParameterError):
        Huber(np.zeros(2), delta=0.0)


# ---------------------------------------------------------------------------
# frozen single-operator evaluations


def test_identity_evaluation():
    op = Identity(BlockPartition.single(3))
    x = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(op.evaluate(x), x)
    assert np.array_equal(op.displacement(x), np.zeros(3))


def test_box_clamp_evaluation():
    op = Projection(BlockPartition.single(3), Box(np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0])))
    assert np.array_equal(op.evaluate(np.array([0.0, 0.5, 3.0])), [1.0, 0.5, 1.0])


def test_affine_hand_example():
    # (I - theta R) x + theta r with R = 2I, r = (2,4), theta = 0.5 at x = 0
    op = Affine(BlockPartition.single(2), 2.0 * np.eye(2), np.array([2.0, 4.0]), theta=0.5)
    assert np.allclose(op.evaluate(np.zeros(2)), [1.0, 2.0], atol=1e-15)


def test_gradient_step_hand_example():
    # f(x) = 0.5 ||x - (1,1)||^2, tau = 1: one step from 0 lands on the target
    f = Quadratic(np.eye(2), np.array([1.0, 1.0]))
    op = GradientStep(BlockPartition.single(2), f, tau=1.0)
    assert np.allclose(op.evaluate(np.zeros(2)), [1.0, 1.0], atol=1e-15)


# ---------------------------------------------------------------------------
# per-block evaluation


def test_identity_block_evaluation():
    op = Identity(BlockPartition((2, 1)))
    assert np.array_equal(op.evaluate_block(0, np.array([1.0, 2.0, 3.0])), [1.0, 2.0])


def test_box_clamp_block_evaluation():
    op = Projection(BlockPartition((1, 1, 1)), Box(np.array([1.0, 0.0, 0.0]), np.array([2.0, 1.0, 1.0])))
    assert np.array_equal(op.evaluate_block(2, np.array([0.0, 0.5, 3.0])), [1.0])


def test_affine_block_evaluation():
    op = Affine(BlockPartition((1, 1)), 2.0 * np.eye(2), np.array([2.0, 4.0]), theta=0.5)
    assert np.allclose(op.evaluate_block(1, np.zeros(2)), [2.0], atol=1e-15)


def sample_catalog(partition):
    """One operator of each kind over the given partition."""
    n = partition.n
    rng = np.random.default_rng(7)
    A = rng.standard_normal((n + 1, n))
    R = A.T @ A + 0.1 * np.eye(n)
    lam = float(np.linalg.eigvalsh(R)[-1])
    return [
        Identity(partition),
        Projection(partition, Box(-np.ones(n), np.ones(n))),
        Projection(partition, Ball(rng.standard_normal(n), 2.0)),
        GradientStep(partition, Quadratic(A, rng.standard_normal(n + 1)), tau=1.0 / lam),
        GradientStep(partition, Huber(rng.standard_normal(n), 1.0), tau=1.0),
        Affine(partition, R, rng.standard_normal(n), theta=2.0 / lam),
    ]


def test_block_evaluation_matches_full_slices():
    partition = BlockPartition((2, 1, 2))
    rng = np.random.default_rng(8)
    for op in sample_catalog(partition):
        for _ in range(20):
            x = rng.uniform(-5, 5, partition.n)
            full = op.evaluate(x)
            disp = op.displacement(x)
            for l in range(partition.m):
                sl = partition.block_slice(l)
                assert ulps_apart(op.evaluate_block(l, x), full[sl]) <= 1
                assert ulps_apart(op.displacement_block(l, x), disp[sl]) <= 1


def test_displacement_consistent_with_evaluation():
    partition = BlockPartition((3, 2))
    rng = np.random.default_rng(9)
    for op in sample_catalog(partition):
        for _ in range(20):
            x = rng.uniform(-5, 5, partition.n)
            assert np.allclose(op.displacement(x), op.evaluate(x) - x, atol=1e-12)


# ---------------------------------------------------------------------------
# parameter guards


def test_gradient_step_range_is_open():
    f = Quadratic(np.eye(2), np.zeros(2))  # L = 1
    GradientStep(BlockPartition.single(2), f, tau=1.999999)
    with pytest.raises(ParameterError):
        GradientStep(BlockPartition.single(2), f, tau=2.0)
    with pytest.raises(ParameterError):
        GradientStep(BlockPartition.single(2), f, tau=0.0)


def test_affine_range_is_closed_above():
    R = 2.0 * np.eye(2)  # lambda_max = 2, limit 2/2 = 1
    part = BlockPartition.single(2)
    Affine(part, R, np.zeros(2), theta=1.0)
    with pytest.raises(ParameterError):
        Affine(part, R, np.zeros(2), theta=1.0000001)
    with pytest.raises(ParameterError):
        Affine(part, R, np.zeros(2), theta=0.0)


def test_affine_rejects_asymmetric_and_indefinite():
    part = BlockPartition.single(2)
    with pytest.raises(ParameterError):
        Affine(part, np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2), theta=0.5)
    with pytest.raises(ParameterError):
        Affine(part, np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2), theta=0.5)


def test_operator_set_dimension_must_match_partition():
    with pytest.raises(DimensionMismatchError):
        Projection(BlockPartition.single(3), Box(np.zeros(2), np.ones(2)))


# ---------------------------------------------------------------------------
# nonexpansiveness


def test_catalog_is_nonexpansive():
    partition = BlockPartition((2, 3))
    for op in sample_catalog(partition):
        report = check_nonexpansive(op, num_pairs=1000, seed=3)
        assert report.passed, report.summary()


def test_valid_affine_contraction_certificate():
    # spectral norm of I - theta R stays at or below 1 for theta <= 2/lambda_max
    rng = np.random.default_rng(5)
    G = rng.standard_normal((4, 4))
    R = G.T @ G + 0.1 * np.eye(4)
    lam = float(np.linalg.eigvalsh(R)[-1])
    for theta in (0.3 / lam, 1.0 / lam, 2.0 / lam):
        assert power_iteration_norm(np.eye(4) - theta * R) <= 1.0 + 1e-9


def test_forced_invalid_affine_is_caught():
    # theta = 3/lambda_max gives ||I - theta R|| = 2 for R = I
    part = BlockPartition.single(2)
    bad = Affine(part, np.eye(2), np.zeros(2), theta=3.0, validate=False)
    report = check_nonexpansive(bad, num_pairs=1000, seed=0)
    assert not report.passed
    assert len(report.violations) >= 1
    # brute-force pair: x = e1, y = 0 maps to -2 e1 vs 0, ratio 2
    x = np.array([1.0, 0.0])
    y = np.zeros(2)
    assert np.linalg.norm(bad.evaluate(x) - bad.evaluate(y)) == pytest.approx(2.0)


def test_projection_idempotent():
    partition = BlockPartition.single(3)
    rng = np.random.default_rng(11)
    for target in (Box(-np.ones(3), np.ones(3)), Ball(np.array([1.0, 0.0, 0.0]), 0.5)):
        op = Projection(partition, target)
        for _ in range(50):
            x = rng.uniform(-5, 5, 3)
            once = op.evaluate(x)
            assert np.allclose(op.evaluate(once), once, atol=1e-12)


def test_gradient_step_residual_tracks_gradient_norm():
    # ||F(x) - x|| = tau ||grad f(x)||, so small gradients mean near-fixed points
    f = Quadratic(np.eye(2), np.array([1.0, 1.0]))
    op = GradientStep(BlockPartition.single(2), f, tau=0.5)
    x = np.array([1.0 + 1e-9, 1.0 - 1e-9])
    eps = float(np.linalg.norm(f.gradient(x)))
    assert np.linalg.norm(op.evaluate(x) - x) <= op.tau * eps + 1e-18


# ---------------------------------------------------------------------------
# families


def test_family_requires_shared_partition():
    with pytest.raises(DimensionMismatchError):
        OperatorFamily([Identity(BlockPartition.single(2)), Identity(BlockPartition.single(3))])
    with pytest.raises(ParameterError):
        OperatorFamily([])


def test_global_evaluate_identity_family():
    part = BlockPartition.single(1)
    family = OperatorFamily([Identity(part), Identity(part)])
    assert np.array_equal(family.global_evaluate(np.array([5.0])), [5.0])


def test_global_evaluate_averages_members():
    part = BlockPartition.single(2)
    affine = Affine(part, 2.0 * np.eye(2), np.array([2.0, 4.0]), theta=0.5)
    family = OperatorFamily([affine, Identity(part)])
    # average of (1,2) and (0,0)
    assert np.allclose(family.global_evaluate(np.zeros(2)), [0.5, 1.0], atol=1e-15)


def test_single_member_family_degenerates():
    partition = BlockPartition((2, 3))
    rng = np.random.default_rng(13)
    for op in sample_catalog(partition):
        family = OperatorFamily([op])
        for _ in range(20):
            x = rng.uniform(-5, 5, partition.n)
            assert np.array_equal(family.global_evaluate(x), op.evaluate(x))


def test_global_average_is_nonexpansive():
    partition = BlockPartition((2, 3))
    family = OperatorFamily(sample_catalog(partition))
    report = check_nonexpansive(family, num_pairs=1000, seed=17)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# batched evaluation paths


def make_box_family(n_agents, partition, seed=0):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_agents):
        lo = rng.uniform(-3, 0, partition.n)
        ops.append(Projection(partition, Box(lo, lo + rng.uniform(0.5, 2.0, partition.n))))
    return OperatorFamily(ops)


def make_affine_family(n_agents, partition, seed=0):
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(n_agents):
        G = rng.standard_normal((partition.n, partition.n))
        R = G.T @ G + 0.1 * np.eye(partition.n)
        theta = 2.0 / float(np.linalg.eigvalsh(R)[-1])
        ops.append(Affine(partition, R, rng.standard_normal(partition.n), theta))
    return OperatorFamily(ops)


@pytest.mark.parametrize("maker", [make_box_family, make_affine_family])
def test_batched_displacement_matches_member_loop(maker):
    partition = BlockPartition((2, 1, 2))
    family = maker(4, partition, seed=23)
    rng = np.random.default_rng(29)
    states = rng.uniform(-5, 5, (4, 5))
    batched = family.displacement_all(states)
    for i, op in enumerate(family.operators):
        assert np.allclose(batched[i], op.displacement(states[i]), atol=1e-12)
    for l in range(partition.m):
        sl = partition.block_slice(l)
        block = family.displacement_block_all(l, states)
        for i, op in enumerate(family.operators):
            assert np.allclose(block[i], op.displacement(states[i])[sl], atol=1e-12)


def test_identity_family_batch_is_zero():
    part = BlockPartition((1, 2))
    family = OperatorFamily([Identity(part) for _ in range(3)])
    states = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(family.displacement_all(states), np.zeros((3, 3)))
    assert np.array_equal(family.evaluate_all(states), states)


def test_mixed_family_uses_member_loop():
    part = BlockPartition.single(2)
    family = OperatorFamily([Identity(part), Projection(part, Ball(np.zeros(2), 1.0))])
    states = np.array([[3.0, 4.0], [3.0, 4.0]])
    disp = family.displacement_all(states)
    assert np.array_equal(disp[0], np.zeros(2))
    assert np.allclose(disp[1], [-2.4, -3.2])

    # every kind, quadratics with two row counts, members interleaved: each
    # row of the grouped result is its member's own one-operator evaluation
    part = BlockPartition((2, 1))
    rng = np.random.default_rng(31)
    quad3 = Quadratic(rng.standard_normal((3, 3)), rng.standard_normal(3))
    quad2 = Quadratic(rng.standard_normal((2, 3)), rng.standard_normal(2))
    ops = [
        GradientStep(part, quad3, tau=1.0 / quad3.lipschitz_L),
        Identity(part),
        Projection(part, Box(-np.ones(3), np.ones(3))),
        GradientStep(part, quad2, tau=1.0 / quad2.lipschitz_L),
        Projection(part, Ball(np.zeros(3), 1.0)),
        GradientStep(part, Huber(np.ones(3), 0.5), tau=1.0),
        Affine(part, 2.0 * np.eye(3), np.ones(3), theta=0.5),
        GradientStep(part, quad3, tau=0.5 / quad3.lipschitz_L),
        Projection(part, Box(np.zeros(3), np.ones(3))),
    ]
    family = OperatorFamily(ops)
    assert len(family.groups) == 7
    states = rng.uniform(-5, 5, (len(ops), 3))
    disp = family.displacement_all(states)
    evals = family.evaluate_all(states)
    blocks = [family.displacement_block_all(l, states) for l in range(part.m)]
    for i, op in enumerate(ops):
        assert np.array_equal(disp[i], op.displacement(states[i]))
        assert np.array_equal(evals[i], op.evaluate(states[i]))
        for l in range(part.m):
            assert np.array_equal(blocks[l][i], op.displacement_block(l, states[i]))


# ---------------------------------------------------------------------------
# stacked kinds against their formulas, written out for one point


def stacked_kind_cases():
    """Per kind: three members and the kind's (displacement, evaluation) at one point."""
    part = BlockPartition((2, 1, 2))
    n = part.n
    rng = np.random.default_rng(37)
    boxes, balls, quads, hubers, affines = [], [], [], [], []
    for _ in range(3):
        lo = rng.uniform(-3, 0, n)
        boxes.append(Projection(part, Box(lo, lo + rng.uniform(0.5, 2.0, n))))
        balls.append(Projection(part, Ball(rng.standard_normal(n), rng.uniform(0.5, 4.0))))
        quad = Quadratic(rng.standard_normal((n + 1, n)), rng.standard_normal(n + 1))
        quads.append(GradientStep(part, quad, tau=1.0 / quad.lipschitz_L))
        hubers.append(GradientStep(part, Huber(rng.standard_normal(n), rng.uniform(0.5, 2.0)), tau=1.0))
        G = rng.standard_normal((n, n))
        R = G.T @ G + 0.1 * np.eye(n)
        affines.append(Affine(part, R, rng.standard_normal(n), theta=2.0 / float(np.linalg.eigvalsh(R)[-1])))

    def project_ball(op, x):
        # scalar norm; the stacked kind takes the same dot product per row, so
        # this is exact, where np.linalg.norm(d, axis=1) is off by up to 2 ulps
        c, r = op.target_set.center, op.target_set.radius
        nrm = np.linalg.norm(x - c)
        return x.copy() if nrm <= r else c + (r / nrm) * (x - c)

    def quad_step(op, x):
        A, b = op.objective.matrix, op.objective.target
        return -op.tau * (A.T @ (A @ x - b))

    def huber_step(op, x):
        f = op.objective
        return -op.tau * np.clip(x - f.target, -f.delta, f.delta)

    def affine_step(op, x):
        # the family's einsum; a matrix-vector R @ x can differ in the last ulp
        return op.theta * (op.offset - np.einsum("jk,k->j", op.matrix, x))

    def clip_box(op, x):
        return np.clip(x, op.target_set.lower, op.target_set.upper)

    return part, {
        "identity": ([Identity(part) for _ in range(3)], lambda op, x: np.zeros(n), lambda op, x: x),
        "box": (boxes, lambda op, x: clip_box(op, x) - x, clip_box),
        "ball": (balls, lambda op, x: project_ball(op, x) - x, project_ball),
        "quadratic": (quads, quad_step, lambda op, x: x + quad_step(op, x)),
        "huber": (hubers, huber_step, lambda op, x: x + huber_step(op, x)),
        "affine": (affines, affine_step, lambda op, x: x + affine_step(op, x)),
    }


@pytest.mark.parametrize("kind", ["identity", "box", "ball", "quadratic", "huber", "affine"])
def test_stacked_kind_matches_formula(kind):
    part, cases = stacked_kind_cases()
    ops, displacement, evaluation = cases[kind]
    family = OperatorFamily(ops)
    assert len(family.groups) == 1
    rng = np.random.default_rng(41)
    for _ in range(20):
        states = rng.uniform(-5, 5, (len(ops), part.n))
        disp = family.displacement_all(states)
        evals = family.evaluate_all(states)
        blocks = [family.displacement_block_all(l, states) for l in range(part.m)]
        for i, op in enumerate(ops):
            x = states[i]
            assert np.array_equal(disp[i], displacement(op, x))
            assert np.array_equal(evals[i], evaluation(op, x))
            for l in range(part.m):
                assert np.array_equal(blocks[l][i], displacement(op, x)[part.block_slice(l)])


# ---------------------------------------------------------------------------
# displacement bounds


def test_identity_family_displacement_bound_is_zero():
    part = BlockPartition.single(3)
    family = OperatorFamily([Identity(part), Identity(part)])
    assert estimate_displacement_bound(family, num_points=100, seed=0) == 0.0
    assert not hasattr(family, "displacement_bound_B")  # returned, never stored


def test_ball_projection_displacement_bound():
    # on [-2,2]^2 the displacement never exceeds the sampling diameter 2 sqrt(2)
    part = BlockPartition.single(2)
    op = Projection(part, Ball(np.zeros(2), 1.0))
    family = OperatorFamily([op])
    sampler = uniform_box_sampler(2, -2.0, 2.0)
    sampled = estimate_displacement_bound(family, num_points=500, seed=1, sampler=sampler)
    gridded = grid_max_displacement(op.displacement, [-2, -2], [2, 2], 61)
    assert sampled <= gridded + 1e-12
    assert gridded <= 2 * np.sqrt(2)


def test_huber_step_displacement_bound():
    # gradient is clipped to [-1,1] per coordinate, so tau=1 moves at most sqrt(n)
    part = BlockPartition.single(2)
    op = GradientStep(part, Huber(np.zeros(2), 1.0), tau=1.0)
    family = OperatorFamily([op])
    sampler = uniform_box_sampler(2, -10.0, 10.0)
    sampled = estimate_displacement_bound(family, num_points=500, seed=2, sampler=sampler)
    gridded = grid_max_displacement(op.displacement, [-2, -2], [2, 2], 61)
    assert sampled <= np.sqrt(2) + 1e-12
    assert gridded == pytest.approx(np.sqrt(2))


# ---------------------------------------------------------------------------
# stacked sampled checks against the one-pair-at-a-time reference


def checker_families():
    """Every single-kind family, plus the six-kind catalog as one mixed family."""
    part, cases = stacked_kind_cases()
    families = {kind: OperatorFamily(ops) for kind, (ops, _, _) in cases.items()}
    families["mixed"] = OperatorFamily(sample_catalog(BlockPartition((2, 3))))
    return families


@pytest.mark.parametrize("kind", ["identity", "box", "ball", "quadratic", "huber", "affine", "mixed"])
def test_batch_axes_match_per_slice_evaluation(kind):
    family = checker_families()[kind]
    part = family.partition
    rng = np.random.default_rng(43)
    for lead in ((7,), (2, 3)):
        states = rng.uniform(-5, 5, lead + (family.n_agents, part.n))
        evals = family.evaluate_all(states)
        disp = family.displacement_all(states)
        blocks = [family.displacement_block_all(l, states) for l in range(part.m)]
        for idx in np.ndindex(*lead):
            assert np.array_equal(evals[idx], family.evaluate_all(states[idx]))
            assert np.array_equal(disp[idx], family.displacement_all(states[idx]))
            for l in range(part.m):
                assert np.array_equal(blocks[l][idx], family.displacement_block_all(l, states[idx]))


def test_one_sampler_draw_equals_per_point_draws():
    sampler = uniform_box_sampler(3, -2.0, 5.0)
    drawn = sampler(np.random.default_rng(4), 400)
    rng = np.random.default_rng(4)
    assert drawn.shape == (400, 3)
    assert np.array_equal(drawn, np.array([rng.uniform(-2.0, 5.0, 3) for _ in range(400)]))


def checked_operators():
    """The catalog's kinds one by one, the forced-invalid affine, the catalog's average."""
    catalog = sample_catalog(BlockPartition((2, 3)))
    ops = dict(zip(["identity", "box", "ball", "quadratic", "huber", "affine"], catalog))
    ops["invalid-affine"] = Affine(BlockPartition.single(2), np.eye(2), np.zeros(2), theta=3.0, validate=False)
    ops["mixed-average"] = OperatorFamily(catalog)
    return ops


@pytest.mark.parametrize("tol", [1e-12, -0.5], ids=["default-tol", "most-pairs-violate"])
@pytest.mark.parametrize("name", list(checked_operators()))
def test_stacked_check_matches_pairwise_reference(name, tol):
    op = checked_operators()[name]
    report = check_nonexpansive(op, num_pairs=1000, tol=tol, seed=3)
    lhs, rhs = pairwise_nonexpansive(op.evaluate, op.n, 1000, tol, seed=3)
    expected = violation_lines(lhs, rhs)
    assert [(v.where, v.message) for v in report.violations] == expected
    assert report.passed == (not expected)
    # every pair's two sides, not just the violating ones, bitwise
    points = uniform_box_sampler(op.n)(np.random.default_rng(3), 2000)
    family = op if isinstance(op, OperatorFamily) else OperatorFamily([op])
    tiled = np.repeat(points[:, None, :], family.n_agents, axis=1)
    stacked_lhs, stacked_rhs = pair_norms(points, family.evaluate_all(tiled).mean(axis=1), tol)
    assert np.array_equal(stacked_lhs, lhs)
    assert np.array_equal(stacked_rhs, rhs)


@pytest.mark.parametrize("kind", ["identity", "box", "ball", "quadratic", "huber", "affine", "mixed"])
def test_stacked_displacement_bound_matches_pointwise_reference(kind):
    family = checker_families()[kind]
    assert estimate_displacement_bound(family, num_points=300, seed=5) == pointwise_displacement_bound(
        family, 300, seed=5
    )
