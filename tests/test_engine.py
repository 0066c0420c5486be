"""Iteration engine: steps, block draws, full runs, and their identities.

The mean-evolution identities are the load-bearing checks: averaging the
per-agent update over a doubly stochastic mixing round must reproduce the
single-point relaxed iteration on the agent-averaged displacement, exactly
to rounding.
"""

import bisect
import itertools
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkmsim import (
    Affine,
    Ball,
    BlockPartition,
    BlockSelector,
    Box,
    GradientStep,
    Huber,
    Identity,
    OperatorFamily,
    PowerLawStepsize,
    Projection,
    Quadratic,
    RunConfig,
    UniformInit,
    consensus_residual,
    dbkm_step,
    distance_to_reference,
    dkm_step,
    draw_block,
    estimate_displacement_bound,
    fixed_point_residual,
    initial_states,
    mix,
    ring_schedule,
    run,
    staircase_boxes,
    validate_full,
    validate_run,
)
from dkmsim.engine import MAX_ROUND, RECORD, RECORD_FLOATS, WINDOW_FLOATS, record_rounds
from dkmsim.errors import (
    AssumptionError,
    DimensionMismatchError,
    DivergenceError,
    ParameterError,
)
from dkmsim.graphs import GraphSchedule
from dkmsim.operators import NONEXPANSIVE_TOL, pair_norms, uniform_box_sampler
from dkmsim.scenarios import build_preset

from oracles import (
    centralized_km,
    matrix_power_states,
    pairwise_nonexpansive,
    pointwise_displacement_bound,
    sampled_check_lines,
)

STEP = PowerLawStepsize(1.0, 0.7, 1)


def mixed_family(n_agents=4, seed=0):
    """Heterogeneous family (no batched path) on a 3-block partition of R^4."""
    part = BlockPartition((2, 1, 1))
    rng = np.random.default_rng(seed)
    ops = []
    kinds = [
        lambda: Projection(part, Ball(rng.standard_normal(4), 2.0)),
        lambda: Projection(part, Box(-np.ones(4), rng.uniform(0.5, 2.0, 4))),
        lambda: GradientStep(part, Huber(rng.standard_normal(4), 1.0), tau=1.0),
        lambda: GradientStep(part, Quadratic(rng.standard_normal((4, 4)) * 0.3, rng.standard_normal(4)), tau=0.5),
    ]
    for i in range(n_agents):
        ops.append(kinds[i % len(kinds)]())
    return OperatorFamily(ops)


# ---------------------------------------------------------------------------
# block selector


def test_selector_validation():
    with pytest.raises(ParameterError):
        BlockSelector(())
    with pytest.raises(ParameterError):
        BlockSelector((0.5, -0.5, 1.0))
    with pytest.raises(ParameterError):
        BlockSelector((0.5, 0.6))
    with pytest.raises(ParameterError):
        BlockSelector((0.5, 0.5 + 1e-9))


def test_uniform_selector():
    sel = BlockSelector.uniform(3)
    assert sel.num_blocks == 3
    assert sel.is_uniform()
    assert not BlockSelector((0.9, 0.1)).is_uniform()


def test_single_block_always_drawn():
    sel = BlockSelector((1.0,))
    rng = np.random.default_rng(0)
    assert all(draw_block(sel, rng) == 0 for _ in range(100))


def test_draw_frequencies_uniform_three():
    sel = BlockSelector.uniform(3)
    rng = np.random.default_rng(1)
    draws = np.array([draw_block(sel, rng) for _ in range(30_000)])
    for block in range(3):
        freq = np.mean(draws == block)
        assert abs(freq - 1.0 / 3.0) < 0.02


def test_draw_frequencies_skewed():
    sel = BlockSelector((0.9, 0.1))
    rng = np.random.default_rng(2)
    draws = np.array([draw_block(sel, rng) for _ in range(10_000)])
    assert 0.88 <= np.mean(draws == 0) <= 0.92


def test_draws_are_reproducible():
    sel = BlockSelector((0.2, 0.3, 0.5))
    a = [draw_block(sel, np.random.default_rng(7)) for _ in range(1)]
    b = [draw_block(sel, np.random.default_rng(7)) for _ in range(1)]
    assert a == b
    seq1 = [draw_block(sel, rng) for rng in [np.random.default_rng(9)] for _ in range(20)]
    rng = np.random.default_rng(9)
    seq2 = [draw_block(sel, rng) for _ in range(20)]
    assert seq1 == seq2


# ---------------------------------------------------------------------------
# single steps


def test_dkm_step_identity_family_is_pure_mixing():
    part = BlockPartition.single(2)
    family = OperatorFamily([Identity(part) for _ in range(3)])
    A = np.full((3, 3), 1.0 / 3.0)
    states = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(dkm_step(states, A, family, 0.5), mix(A, states))


def test_dkm_step_hand_traced():
    # two agents averaging to (1,1), both projecting onto [0,1]: already fixed
    part = BlockPartition.single(1)
    box = Box(np.array([0.0]), np.array([1.0]))
    family = OperatorFamily([Projection(part, box), Projection(part, box)])
    A = np.full((2, 2), 0.5)
    states = np.array([[-1.0], [3.0]])
    out = dkm_step(states, A, family, alpha=0.5)
    assert np.allclose(out, [[1.0], [1.0]])


def test_dkm_step_alpha_guard():
    part = BlockPartition.single(1)
    family = OperatorFamily([Identity(part)])
    with pytest.raises(ParameterError):
        dkm_step(np.zeros((1, 1)), np.eye(1), family, alpha=0.0)
    with pytest.raises(ParameterError):
        dkm_step(np.zeros((1, 1)), np.eye(1), family, alpha=1.5)


@pytest.mark.parametrize("block", [None, 0, 1, 2], ids=["dkm", "block-0", "block-1", "block-2"])
def test_checked_steps_leave_their_arguments_unchanged(block):
    # the local step writes the mixed states in place; read-only inputs make a write to them raise
    family = mixed_family()
    states = np.random.default_rng(5).uniform(-3, 3, (4, 4))
    A = ring_schedule(4, 2, 0.5).at(1)
    before = (states.copy(), A.copy())
    for arr in (states, A):
        arr.flags.writeable = False
    out = dkm_step(states, A, family, 0.6) if block is None else dbkm_step(states, A, family, 0.6, block)
    assert not np.shares_memory(out, states) and not np.shares_memory(out, A)
    assert np.array_equal(states, before[0]) and np.array_equal(A, before[1])


def test_dbkm_step_single_block_equals_full_step():
    family = OperatorFamily([Projection(BlockPartition.single(3), Ball(np.zeros(3), 1.0)) for _ in range(2)])
    A = np.full((2, 2), 0.5)
    rng = np.random.default_rng(3)
    states = rng.uniform(-4, 4, (2, 3))
    full = dkm_step(states, A, family, 0.7)
    blocked = dbkm_step(states, A, family, 0.7, block=0)
    assert np.array_equal(full, blocked)


def test_dbkm_step_leaves_other_blocks_mixed_only():
    family = mixed_family()
    part = family.partition
    A = ring_schedule(4, 2, 0.5).at(0)
    rng = np.random.default_rng(4)
    states = rng.uniform(-3, 3, (4, 4))
    xhat = mix(A, states)
    full = dkm_step(states, A, family, 0.6)
    for block in range(part.m):
        out = dbkm_step(states, A, family, 0.6, block=block)
        sl = part.block_slice(block)
        # drawn block matches the full update's same block
        assert np.allclose(out[:, sl], full[:, sl], atol=1e-15)
        # every other block carries the mixed value through untouched
        for other in range(part.m):
            if other != block:
                so = part.block_slice(other)
                assert np.array_equal(out[:, so], xhat[:, so])


def test_identity_family_ignores_drawn_block():
    part = BlockPartition((1, 1))
    family = OperatorFamily([Identity(part), Identity(part)])
    A = np.full((2, 2), 0.5)
    states = np.array([[1.0, 2.0], [3.0, 4.0]])
    for block in (0, 1):
        assert np.array_equal(dbkm_step(states, A, family, 0.9, block), mix(A, states))


# ---------------------------------------------------------------------------
# centralized iteration


def test_centralized_identity_stays_put():
    part = BlockPartition.single(2)
    family = OperatorFamily([Identity(part)])
    x0 = np.array([2.0, -3.0])
    traj = centralized_km(family, x0, STEP, 50)
    assert traj.shape == (51, 2)
    assert np.array_equal(traj[-1], x0)


def test_centralized_projection_lands_in_one_full_step():
    part = BlockPartition.single(1)
    family = OperatorFamily([Projection(part, Box(np.array([0.0]), np.array([1.0])))])
    traj = centralized_km(family, np.array([3.0]), PowerLawStepsize(1.0, 0.0, 1), 5)
    assert traj[0, 0] == 3.0
    assert np.all(traj[1:, 0] == 1.0)


def test_centralized_affine_converges_to_solve():
    part = BlockPartition.single(2)
    family = OperatorFamily([Affine(part, 2.0 * np.eye(2), np.array([2.0, 4.0]), theta=0.5)])
    traj = centralized_km(family, np.zeros(2), STEP, 200)
    assert np.linalg.norm(traj[-1] - np.array([1.0, 2.0])) < 1e-6


# ---------------------------------------------------------------------------
# mean-evolution identities


def test_full_mode_mean_evolution_identity():
    family = mixed_family()
    schedule = ring_schedule(4, 2, 0.5)
    rng = np.random.default_rng(5)
    states = rng.uniform(-5, 5, (4, 4))
    for k in range(1000):
        A = schedule.at(k)
        alpha = STEP.alpha(k)
        xhat = mix(A, states)
        states_next = dkm_step(states, A, family, alpha)
        # the agent mean obeys the single-point relaxed update on the mean
        # of local evaluations at the mixed states
        mean_eval = family.evaluate_all(xhat).mean(axis=0)
        predicted = states.mean(axis=0) + alpha * (mean_eval - states.mean(axis=0))
        assert np.allclose(states_next.mean(axis=0), predicted, atol=1e-10)
        states = states_next


def test_block_mode_mean_evolution_identity():
    family = mixed_family()
    part = family.partition
    schedule = ring_schedule(4, 2, 0.5)
    selector = BlockSelector.uniform(part.m)
    rng = np.random.default_rng(6)
    states = rng.uniform(-5, 5, (4, 4))
    for k in range(1000):
        A = schedule.at(k)
        alpha = STEP.alpha(k)
        block = draw_block(selector, rng)
        xhat = mix(A, states)
        states_next = dbkm_step(states, A, family, alpha, block)
        mean_next = states_next.mean(axis=0)
        mean_now = states.mean(axis=0)
        for l in range(part.m):
            sl = part.block_slice(l)
            if l == block:
                disp = family.displacement_block_all(l, xhat).mean(axis=0)
                assert np.allclose(mean_next[sl], mean_now[sl] + alpha * disp, atol=1e-10)
            else:
                # untouched blocks keep the mean exactly (mixing preserves it)
                assert np.allclose(mean_next[sl], mean_now[sl], atol=1e-10)
        states = states_next


def test_identity_family_consensus_matches_matrix_powers():
    part = BlockPartition.single(2)
    family = OperatorFamily([Identity(part) for _ in range(5)])
    schedule = ring_schedule(5, 2, 0.5)
    rng = np.random.default_rng(7)
    states = rng.uniform(-5, 5, (5, 2))
    oracle = matrix_power_states(schedule.matrices, states, 400)
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=schedule,
        mode="dkm",
        max_rounds=400,
        init=states,
    )
    trace = run(config)
    assert np.allclose(trace.final_states, oracle, atol=1e-12)
    residuals = trace.table["consensus_residual"].tolist()
    assert residuals[-1] < 1e-8
    assert all(b <= a + 1e-15 for a, b in zip(residuals, residuals[1:]))


# ---------------------------------------------------------------------------
# degeneracy identities


def test_single_agent_run_equals_centralized():
    part = BlockPartition.single(3)
    family = OperatorFamily([Projection(part, Box(np.zeros(3), np.ones(3)))])
    schedule = GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5)
    x0 = np.array([[4.0, -3.0, 0.5]])
    config = RunConfig(
        family=family, stepsize=STEP, schedule=schedule, mode="dkm", max_rounds=1000, init=x0, snapshot_every=1
    )
    trace = run(config)
    traj = centralized_km(family, x0[0], STEP, 1000)
    snaps = trace.snapshots
    assert len(snaps) == 1001
    for k, snap in enumerate(snaps):
        assert np.array_equal(snap[0], traj[k]), f"diverged from centralized at round {k}"


@pytest.mark.parametrize("init", [UniformInit(), np.arange(16.0).reshape(4, 4) - 8.0], ids=["uniform", "explicit"])
def test_centralized_run_equals_centralized_km(init):
    family = mixed_family()
    config = RunConfig(
        family=family, stepsize=STEP, mode="centralized", max_rounds=300, seed=5, init=init, snapshot_every=1
    )
    trace = run(config)
    if isinstance(init, UniformInit):
        x0 = np.random.default_rng(5).uniform(init.low, init.high, family.n)
    else:
        x0 = init.mean(axis=0)
    traj = centralized_km(family, x0, STEP, 300)
    snaps = trace.snapshots
    assert len(snaps) == 301
    for k, snap in enumerate(snaps):
        assert snap.shape == (1, family.n)
        assert np.array_equal(snap[0], traj[k]), f"diverged from centralized_km at round {k}"
    assert not np.array_equal(traj[0], traj[-1])


def test_single_block_run_equals_full_run():
    family = OperatorFamily([Projection(BlockPartition.single(3), b) for b in staircase_boxes(6)])
    schedule = ring_schedule(6, 2, 0.5)
    kwargs = dict(family=family, stepsize=STEP, schedule=schedule, max_rounds=1000, seed=3)
    full = run(RunConfig(mode="dkm", **kwargs))
    blocked = run(RunConfig(mode="dbkm", selector=BlockSelector((1.0,)), **kwargs))
    assert np.array_equal(full.final_states, blocked.final_states)
    assert full.table["consensus_residual"].tolist() == blocked.table["consensus_residual"].tolist()


def test_gradient_step_round_is_a_descent_update():
    # mixing then stepping equals the textbook update x_hat - alpha*(tau*grad),
    # allowing one ulp per coordinate
    rng = np.random.default_rng(8)
    part = BlockPartition.single(3)
    for trial in range(100):
        ops = []
        for _ in range(3):
            if trial % 2:
                obj = Quadratic(rng.standard_normal((4, 3)) * 0.4, rng.standard_normal(4))
            else:
                obj = Huber(rng.standard_normal(3), 1.0)
            ops.append(GradientStep(part, obj, tau=1.0 / obj.lipschitz_L))
        family = OperatorFamily(ops)
        A = ring_schedule(3, 1, 0.5).at(0)
        states = rng.uniform(-5, 5, (3, 3))
        alpha = float(rng.uniform(0.05, 1.0))
        stepped = dkm_step(states, A, family, alpha)
        xhat = mix(A, states)
        for i, op in enumerate(ops):
            dgd = xhat[i] - alpha * (op.tau * op.objective.gradient(xhat[i]))
            gap = np.abs(stepped[i] - dgd)
            tol = np.spacing(np.maximum(np.abs(stepped[i]), np.abs(dgd)))
            assert np.all(gap <= tol)


# ---------------------------------------------------------------------------
# initial states


def test_uniform_init_is_seed_reproducible():
    family = mixed_family()
    schedule = ring_schedule(4, 2, 0.5)
    config = RunConfig(family=family, stepsize=STEP, schedule=schedule, seed=11)
    a = initial_states(config)
    b = initial_states(config)
    assert np.array_equal(a, b)
    assert a.shape == (4, 4)
    assert np.all((a >= -5) & (a <= 5))


def test_explicit_init_is_copied():
    part = BlockPartition.single(1)
    family = OperatorFamily([Identity(part)])
    schedule = GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5)
    x0 = np.array([[2.0]])
    config = RunConfig(family=family, stepsize=STEP, schedule=schedule, init=x0)
    got = initial_states(config)
    got[0, 0] = 99.0
    assert config.init[0, 0] == 2.0


def test_centralized_init_uses_mean_of_explicit_states():
    part = BlockPartition.single(2)
    family = OperatorFamily([Identity(part), Identity(part)])
    config = RunConfig(
        family=family,
        stepsize=STEP,
        mode="centralized",
        init=np.array([[0.0, 2.0], [4.0, 6.0]]),
    )
    assert np.array_equal(initial_states(config), [[2.0, 4.0]])


# ---------------------------------------------------------------------------
# config validation


def test_config_cross_checks():
    family = mixed_family()
    schedule = ring_schedule(4, 2, 0.5)
    with pytest.raises(ParameterError):
        RunConfig(family=family, stepsize=STEP, schedule=schedule, mode="warp")
    with pytest.raises(ParameterError):
        RunConfig(family=family, stepsize=STEP, mode="dkm")  # no schedule
    with pytest.raises(DimensionMismatchError):
        RunConfig(family=family, stepsize=STEP, schedule=ring_schedule(5, 1, 0.5))
    with pytest.raises(ParameterError):
        RunConfig(family=family, stepsize=STEP, schedule=schedule, mode="dbkm")  # no selector
    with pytest.raises(DimensionMismatchError):
        RunConfig(
            family=family,
            stepsize=STEP,
            schedule=schedule,
            mode="dbkm",
            selector=BlockSelector.uniform(2),
        )
    with pytest.raises(DimensionMismatchError):
        RunConfig(family=family, stepsize=STEP, schedule=schedule, init=np.zeros((3, 4)))
    with pytest.raises(ParameterError):
        RunConfig(family=family, stepsize=STEP, schedule=schedule, max_rounds=0)
    with pytest.raises(DimensionMismatchError):
        RunConfig(family=family, stepsize=STEP, schedule=schedule, reference=np.zeros(3))


def test_run_config_is_frozen():
    config = RunConfig(family=mixed_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), init=np.zeros((4, 4)))
    for f in fields(RunConfig):
        with pytest.raises(FrozenInstanceError):
            setattr(config, f.name, getattr(config, f.name))
    changed = replace(config, max_rounds=7)
    assert (changed.max_rounds, config.max_rounds) == (7, 1000)
    # the arrays are read-only copies: neither the caller nor a reader can change them
    ref = np.ones(4)
    with_ref = replace(config, reference=ref)
    ref[0] = 42.0
    assert np.array_equal(with_ref.reference, np.ones(4))
    for arr in (with_ref.init, with_ref.reference):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7.0
    with pytest.raises(ParameterError, match="max_rounds must be >= 1"):
        replace(config, max_rounds=0)


def test_validate_run_flags_bad_stepsize():
    family = mixed_family()
    schedule = ring_schedule(4, 2, 0.5)
    config = RunConfig(family=family, stepsize=PowerLawStepsize(1.0, 0.4, 1), schedule=schedule)
    reports = validate_run(config)
    assert any(not r.passed for r in reports)
    with pytest.raises(AssumptionError):
        run(config)
    # skipping validation lets the run proceed anyway
    trace = run(replace(config, max_rounds=10), validate=False)
    assert trace.last().k == 10


def test_validate_full_adds_sampled_checks():
    family = mixed_family()
    schedule = ring_schedule(4, 2, 0.5)
    config = RunConfig(family=family, stepsize=STEP, schedule=schedule)
    reports = validate_full(config, num_pairs=50, num_points=50)
    names = [r.check for r in reports]
    assert any("nonexpansive" in n for n in names)
    assert any("displacement bound" in n for n in names)
    assert all(r.passed for r in reports)
    bound = estimate_displacement_bound(family, num_points=50, seed=0)
    assert bound > 0
    assert f">= {bound:.6g} over 50 sampled points" in reports[-1].detail


def test_validate_full_catches_forced_invalid_operator():
    part = BlockPartition.single(2)
    bad = Affine(part, np.eye(2), np.zeros(2), theta=3.0, validate=False)
    family = OperatorFamily([bad, Identity(part)])
    schedule = ring_schedule(2, 1, 0.5)
    config = RunConfig(family=family, stepsize=STEP, schedule=schedule)
    reports = validate_full(config, num_pairs=100)
    bad_reports = [r for r in reports if not r.passed]
    assert len(bad_reports) == 1
    assert "nonexpansive" in bad_reports[0].check


def invalid_affine_family():
    """Forced-invalid affines and one identity; every operator but the identity, and
    the average x -> -1.25 x, violate on many pairs."""
    part = BlockPartition.single(2)
    bad = [Affine(part, np.eye(2), np.zeros(2), theta=t, validate=False) for t in (3.0, 2.8, 3.2)]
    return OperatorFamily([bad[0], Identity(part), bad[1], bad[2]])


@pytest.mark.parametrize(
    "make_config, num_pairs",
    [
        (lambda: RunConfig(family=mixed_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5)), 200),
        (lambda: RunConfig(family=invalid_affine_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5)), 100),
        (lambda: build_preset("paper-dbkm-100").config, 200),
    ],
    ids=["mixed", "invalid-affines", "paper-dbkm-100"],
)
def test_validate_full_matches_pairwise_reference(make_config, num_pairs):
    config = make_config()
    family = config.family
    *_, check, bound = validate_full(config, num_pairs=num_pairs, num_points=150, seed=2)
    expected = sampled_check_lines(family, num_pairs, seed=2)
    assert [(v.where, v.message) for v in check.violations] == expected
    assert check.passed == (not expected)
    reference_bound = pointwise_displacement_bound(family, 150, seed=2)
    assert bound.detail == f"max_i ||F_i(x) - x|| >= {reference_bound:.6g} over 150 sampled points"
    # every local's pairs, stacked as validate_full stacks them, bitwise against one pair at a time
    sampler = uniform_box_sampler(family.n)
    points = np.stack([sampler(np.random.default_rng(2 + i), 2 * num_pairs) for i in range(family.n_agents)], axis=1)
    lhs, rhs = pair_norms(points, family.evaluate_all(points), NONEXPANSIVE_TOL)
    for i, op in enumerate(family.operators):
        ref_lhs, ref_rhs = pairwise_nonexpansive(op.evaluate, family.n, num_pairs, NONEXPANSIVE_TOL, seed=2 + i)
        assert np.array_equal(lhs[:, i], ref_lhs)
        assert np.array_equal(rhs[:, i], ref_rhs)


def test_validate_full_reports_three_pairs_per_violating_operator():
    config = RunConfig(family=invalid_affine_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5))
    check = validate_full(config, num_pairs=100)[-2]
    wheres = [v.where.split(",")[0] for v in check.violations]
    assert wheres == ["operator 0"] * 3 + ["operator 2"] * 3 + ["operator 3"] * 3 + ["global average"] * 3


# ---------------------------------------------------------------------------
# full runs


def test_run_records_every_round_below_thousand():
    family = mixed_family()
    config = RunConfig(family=family, stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), max_rounds=500)
    trace = run(config)
    assert trace.table["k"].tolist() == list(range(501))
    assert trace.last().k == 500
    assert trace.final_states.shape == (4, 4)
    assert trace.aborted_at is None


def test_run_thins_records_after_thousand():
    family = mixed_family()
    config = RunConfig(family=family, stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), max_rounds=5000)
    trace = run(config)
    ks = trace.table["k"].tolist()
    assert ks[-1] == 5000
    assert len(ks) < 5001
    assert all(a < b for a, b in zip(ks, ks[1:]))
    # cadence: after round 1000 only every ceil(k/1000)-th round is kept
    for k in ks:
        assert k <= 1000 or k % -(-k // 1000) == 0 or k == 5000


def test_run_record_every_override():
    family = mixed_family()
    config = RunConfig(
        family=family, stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), max_rounds=100, record_every=30
    )
    trace = run(config)
    assert trace.table["k"].tolist() == [0, 30, 60, 90, 100]


def test_run_snapshot_cadence():
    family = mixed_family()
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(4, 2, 0.5),
        max_rounds=100,
        snapshot_every=40,
    )
    trace = run(config)
    assert trace.snapshot_rounds.tolist() == [0, 40, 80, 100]
    assert np.array_equal(trace.snapshots[-1], trace.final_states)


def test_run_block_column():
    family = OperatorFamily([Projection(BlockPartition((1, 1, 1)), b) for b in staircase_boxes(6)])
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(6, 2, 0.5),
        mode="dbkm",
        selector=BlockSelector.uniform(3),
        max_rounds=50,
        seed=5,
    )
    trace = run(config)
    blocks = trace.table["selected_block"].tolist()
    assert blocks[-1] == -1  # final row has no outgoing step
    drawn = [b for b in blocks[:-1]]
    assert all(b in (0, 1, 2) for b in drawn)
    assert len(set(drawn)) > 1


def chi_square(counts, probabilities):
    expected = np.sum(counts) * np.asarray(probabilities)
    return float(np.sum((counts - expected) ** 2 / expected))


def test_run_draws_blocks_with_the_selector_probabilities():
    # run() draws a window's blocks in one batched searchsorted; 30,000 rounds span 33 windows.
    # 13.82 is the chi-square critical value at p = 0.001 with two degrees of freedom; the seed is
    # fixed, so the test is deterministic.
    selector = BlockSelector((0.5, 0.3, 0.2))
    config = RunConfig(
        family=OperatorFamily([Projection(BlockPartition((1, 1, 1)), b) for b in staircase_boxes(6)]),
        stepsize=STEP,
        schedule=ring_schedule(6, 2, 0.5),
        mode="dbkm",
        selector=selector,
        max_rounds=30_000,
        seed=17,
        record_every=1,
    )
    assert config.max_rounds // rounds_per_window("dbkm", config.family) > 30
    blocks = run(config).table["selected_block"]
    assert blocks[-1] == -1
    counts = np.bincount(blocks[:-1], minlength=3)
    assert len(counts) == 3
    assert chi_square(counts, selector.probabilities) < 13.82
    # the statistic tells these draws from uniform ones
    assert chi_square(counts, BlockSelector.uniform(3).probabilities) > 13.82


def test_run_reference_column():
    family = mixed_family()
    ref = np.zeros(4)
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(4, 2, 0.5),
        max_rounds=20,
        reference=ref,
    )
    trace = run(config)
    dists = trace.table["dist_to_ref"]
    assert np.all(dists >= 0)  # NaN, an empty distance, fails this


def test_run_is_deterministic():
    family = OperatorFamily([Projection(BlockPartition((1, 1, 1)), b) for b in staircase_boxes(6)])
    kwargs = dict(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(6, 2, 0.5),
        mode="dbkm",
        selector=BlockSelector.uniform(3),
        max_rounds=300,
        seed=21,
    )
    t1 = run(RunConfig(**kwargs))
    t2 = run(RunConfig(**kwargs))
    assert np.array_equal(t1.final_states, t2.final_states)
    assert t1.table["selected_block"].tolist() == t2.table["selected_block"].tolist()
    assert t1.table["consensus_residual"].tolist() == t2.table["consensus_residual"].tolist()
    t3 = run(RunConfig(**{**kwargs, "seed": 22}))
    assert t3.table["selected_block"].tolist() != t1.table["selected_block"].tolist()


def test_run_divergence_aborts_with_partial_trace():
    # force-built expanding affine map: F(x) = 2x, displacement x
    part = BlockPartition.single(1)
    grow = Affine(part, -np.eye(1), np.zeros(1), theta=1.0, validate=False)
    family = OperatorFamily([grow])
    schedule = GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5)
    config = RunConfig(
        family=family,
        stepsize=PowerLawStepsize(1.0, 0.0, 1),
        schedule=schedule,
        max_rounds=1000,
        init=np.array([[1.0]]),
        divergence_limit=1e6,
    )
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    trace = exc.value.trace
    assert trace.aborted_at == exc.value.last_round + 1
    assert trace.aborted_at < 50  # doubling passes 1e6 after ~20 rounds
    assert len(trace.table) > 0
    assert trace.final_states is None


# ---------------------------------------------------------------------------
# run() against the checked steps, round by round


def keeps_record(k, record_every):
    """Whether round k is on run()'s cadence: record_every, or the default thinning after round 1000."""
    if record_every is None:
        return k < 1000 or k % -(-k // 1000) == 0
    return k % record_every == 0


def reference_run(config):
    """run() spelled out with dkm_step / dbkm_step and one draw_block per round.

    Returns (records, last states computed, aborted round or None): the
    final states, or on abort the out-of-range ones. A record is (k, drawn
    block, state at k), kept where run()'s default or record_every cadence
    keeps one.
    """
    family = config.family
    rng = np.random.default_rng(config.seed)
    states = initial_states(config, rng)
    records = []
    for k in range(config.max_rounds):
        block = draw_block(config.selector, rng) if config.mode == "dbkm" else None
        if keeps_record(k, config.record_every):
            records.append((k, block, states))
        alpha = config.stepsize.alpha(k)
        if config.mode == "dkm":
            states = dkm_step(states, config.schedule.at(k), family, alpha)
        elif config.mode == "dbkm":
            states = dbkm_step(states, config.schedule.at(k), family, alpha, block)
        else:
            x = states[0]
            states = (x + alpha * family.global_displacement(x))[None, :]
        if not np.all(np.abs(states) <= config.divergence_limit):
            return records, states, k
    records.append((config.max_rounds, None, states))
    return records, states, None


def records_per_pass(mode, family):
    """K, the recorded states run() takes in one residual pass: RECORD_FLOATS floats, at least two states."""
    rows = 1 if mode == "centralized" else family.n_agents
    return max(2, RECORD_FLOATS // (rows * family.n))


def rounds_per_window(mode, family):
    """G, the rounds one run() window holds: WINDOW_FLOATS floats of state, at least two states."""
    rows = 1 if mode == "centralized" else family.n_agents
    return max(2, WINDOW_FLOATS // (rows * family.n))


def assert_records_match(trace, expected):
    """Rows and snapshots against the checked steps; a table's no-block is -1 where expected has None."""
    assert trace.table["k"].tolist() == [k for k, _, _ in expected]
    assert trace.table["selected_block"].tolist() == [-1 if b is None else b for _, b, _ in expected]
    assert trace.snapshot_rounds.tolist() == trace.table["k"].tolist()
    for row, snapshot, (k, _, states) in zip(trace.table, trace.snapshots, expected):
        assert np.array_equal(snapshot, states), f"state differs from the checked steps at round {k}"
        assert row["alpha_k"] == trace.stepsize.alpha(k)


KERNEL_MODES = {
    "dkm": {"mode": "dkm"},
    "dbkm": {"mode": "dbkm", "selector": BlockSelector((0.5, 0.3, 0.2))},
    "centralized": {"mode": "centralized"},
}


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
@pytest.mark.parametrize(
    "rounds, record_every",
    [
        (100, 1),
        (256, 1),
        (549, 7),
        (1300, None),
        # with a record every round, R rounds make R + 1 records: K - 2 rounds make K - 1 records
        (lambda K, G: K - 2, 1),
        (lambda K, G: K - 1, 1),
        (lambda K, G: K, 1),
        (lambda K, G: 2 * K, 1),
        (lambda K, G: G - 1, 1),
        (lambda K, G: G, 1),
        (lambda K, G: G + 1, 1),
        (lambda K, G: 2 * G + 1, 1),
    ],
    ids=[
        "below-one-draw",
        "one-draw",
        "not-a-draw-multiple",
        "default-cadence",
        "K-1-records",
        "K-records",
        "K+1-records",
        "2K+1-records",
        "G-1-rounds",
        "G-rounds",
        "G+1-rounds",
        "2G+1-rounds",
    ],
)
def test_run_equals_checked_steps(mode, rounds, record_every):
    family = mixed_family()
    if callable(rounds):
        rounds = rounds(records_per_pass(mode, family), rounds_per_window(mode, family))
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(4, 2, 0.5),
        max_rounds=rounds,
        seed=11,
        record_every=record_every,
        snapshot_every=1,
        **KERNEL_MODES[mode],
    )
    expected, final, aborted = reference_run(config)
    assert aborted is None
    trace = run(config)
    assert np.array_equal(trace.final_states, final)
    assert_records_match(trace, expected)


def random_family(n_agents, dims, kinds, seed):
    """A family of the named kinds, agent i of kinds[i], on BlockPartition(dims); parameters from default_rng(seed)."""
    part = BlockPartition(tuple(dims))
    n, rng = part.n, np.random.default_rng(seed)

    def quadratic_step():
        f = Quadratic(rng.standard_normal((n, n)), rng.standard_normal(n))
        return GradientStep(part, f, tau=1.0 / f.lipschitz_L)

    def affine():
        M = rng.standard_normal((n, n))
        R = M @ M.T
        return Affine(part, R, rng.standard_normal(n), theta=1.0 / np.linalg.eigvalsh(R)[-1])

    make = {
        "identity": lambda: Identity(part),
        "box": lambda: Projection(part, Box(-rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n))),
        "ball": lambda: Projection(part, Ball(rng.standard_normal(n), rng.uniform(0.5, 2.0))),
        "huber": lambda: GradientStep(part, Huber(rng.standard_normal(n), rng.uniform(0.5, 2.0)), tau=0.5),
        "quadratic": quadratic_step,
        "affine": affine,
    }
    return OperatorFamily([make[kind]() for kind in kinds[:n_agents]])


RANDOM_KINDS = ("identity", "box", "ball", "huber", "quadratic", "affine")


# about 4 s in all: a centralized run of a 2-coordinate family near G takes 8k rounds of the checked loop
@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
@settings(max_examples=15, derandomize=True, database=None, deadline=None)
@given(
    n_agents=st.integers(2, 5),
    dims=st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(lambda dims: sum(dims) >= 2),
    kinds=st.lists(st.sampled_from(RANDOM_KINDS), min_size=5, max_size=5),
    period=st.integers(1, 3),
    weight=st.sampled_from([0.25, 0.5, 0.75]),
    block_weights=st.lists(st.integers(1, 4), min_size=3, max_size=3),
    seed=st.integers(0, 2**32 - 1),
    record_every=st.sampled_from([None, 1, 2, 7]),
    near=st.sampled_from(["K", "G"]),
    offset=st.integers(-2, 2),
)
def test_run_equals_checked_steps_on_random_families(
    mode, n_agents, dims, kinds, period, weight, block_weights, seed, record_every, near, offset
):
    family = random_family(n_agents, dims, kinds, seed)
    m = family.partition.m
    selector = BlockSelector(tuple(w / sum(block_weights[:m]) for w in block_weights[:m]))
    per_pass, per_window = records_per_pass(mode, family), rounds_per_window(mode, family)
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(n_agents, min(period, n_agents), weight),
        mode=mode,
        selector=selector if mode == "dbkm" else None,
        max_rounds=max(1, (per_pass if near == "K" else per_window) + offset),
        seed=seed,
        record_every=record_every,
        snapshot_every=1,
    )
    expected, final, aborted = reference_run(config)
    assert aborted is None
    trace = run(config)
    assert np.array_equal(trace.final_states, final)
    assert_records_match(trace, expected)


def assert_records_equal_the_public_diagnostics(trace, family, reference):
    """Every row's fields against the public diagnostics of its snapshot, bit for bit; NaN where no reference."""
    assert trace.snapshot_rounds.tolist() == trace.table["k"].tolist()
    for row, states in zip(trace.table, trace.snapshots):
        xbar = states.mean(axis=0)
        assert row["alpha_k"] == trace.stepsize.alpha(int(row["k"]))
        assert row["consensus_residual"] == consensus_residual(states)
        assert row["fp_residual"] == fixed_point_residual(family, xbar)
        if reference is None:
            assert np.isnan(row["dist_to_ref"])
        else:
            assert row["dist_to_ref"] == distance_to_reference(states, reference)
            assert row["dist_to_ref"] == np.linalg.norm(states - reference, axis=-1).max()
        # the public diagnostics are np.linalg.norm(..., axis=-1) of the defining expressions, bit for bit
        assert row["consensus_residual"] == np.linalg.norm(states - xbar, axis=-1).max()
        tiled = np.repeat(xbar[None, :], family.n_agents, axis=0)
        assert row["fp_residual"] == np.linalg.norm(family.displacement_all(tiled).mean(axis=0), axis=-1)


# R^4, and R^9: rows of 8 or more floats are where numpy's pairwise sum leaves left-to-right order
RECORD_FAMILIES = {
    "R4": lambda: mixed_family(n_agents=5),
    "R9": lambda: random_family(5, (4, 3, 2), ("ball", "box", "huber", "quadratic", "affine"), seed=9),
}


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
@pytest.mark.parametrize(
    "dims, with_reference",
    [("R4", False), ("R4", True), ("R9", False), ("R9", True)],
    ids=["no-reference", "reference", "R9-no-reference", "R9-reference"],
)
def test_records_equal_the_public_diagnostics(mode, dims, with_reference):
    # five agents: dividing by a power of two would hide a mean taken as sum * (1/N)
    family = RECORD_FAMILIES[dims]()
    reference = np.resize([0.5, -1.0, 2.0, 0.0], family.n) if with_reference else None
    K = records_per_pass(mode, family)
    # 301 records, then K - 1, K, K + 1 and 2K + 1: full and partial residual passes
    for rounds in (300, K - 2, K - 1, K, 2 * K):
        config = RunConfig(
            family=family,
            stepsize=STEP,
            schedule=ring_schedule(5, 2, 0.5),
            max_rounds=rounds,
            seed=5,
            reference=reference,
            record_every=1,
            snapshot_every=1,
            **KERNEL_MODES[mode],
        )
        trace = run(config)
        assert trace.table["k"].tolist() == list(range(rounds + 1))
        assert_records_equal_the_public_diagnostics(trace, family, reference)


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
def test_wide_states_take_records_two_at_a_time(mode):
    # rows * n > RECORD_FLOATS / 2 in every mode, so K is at its floor of two
    n = RECORD_FLOATS // 2 + 1
    part = BlockPartition((n - 2, 1, 1))
    rng = np.random.default_rng(9)
    family = OperatorFamily(
        [
            Projection(part, Box(-np.ones(n), rng.uniform(0.5, 2.0, n))),
            Projection(part, Ball(rng.standard_normal(n), 2.0)),
            GradientStep(part, Huber(rng.standard_normal(n), 1.0), tau=1.0),
        ]
    )
    assert records_per_pass(mode, family) == 2
    reference = rng.standard_normal(n)
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=ring_schedule(3, 2, 0.5),
        max_rounds=6,
        seed=2,
        reference=reference,
        record_every=1,
        snapshot_every=1,
        **KERNEL_MODES[mode],
    )
    expected, final, aborted = reference_run(config)
    assert aborted is None
    trace = run(config)
    assert np.array_equal(trace.final_states, final)
    assert_records_match(trace, expected)
    assert_records_equal_the_public_diagnostics(trace, family, reference)


def growing_family():
    """Four mixed kinds on R^4 = (2, 1, 1); agent 2's last coordinate grows by 1 + alpha a round."""
    part = BlockPartition((2, 1, 1))
    grow = Affine(part, -np.diag([0.0, 0.0, 0.0, 1.0]), np.zeros(4), theta=1.0, validate=False)
    return OperatorFamily(
        [
            GradientStep(part, Huber(np.zeros(4), 1.0), tau=1.0),
            Identity(part),
            grow,
            GradientStep(part, Huber(np.ones(4), 0.5), tau=0.5),
        ]
    )


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
def test_divergence_after_a_later_draw_matches_checked_steps(mode):
    config = RunConfig(
        family=growing_family(),
        stepsize=PowerLawStepsize(0.05, 0.0, 1),
        schedule=GraphSchedule([np.eye(4)], Q=1, weight_floor=0.5),
        max_rounds=3000,
        init=np.full((4, 4), 10.0),
        record_every=1,
        snapshot_every=1,
        divergence_limit=1e7,
        **KERNEL_MODES[mode],
    )
    expected, blown, aborted = reference_run(config)
    assert aborted is not None and aborted >= 256
    if mode == "dbkm":
        # the fatal round's block comes from a later window's draw
        assert aborted >= rounds_per_window(mode, config.family)
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    err = exc.value
    assert err.last_round == aborted
    assert err.trace.aborted_at == aborted + 1
    assert err.trace.final_states is None
    assert_records_match(err.trace, expected)
    # the state the fatal round started from, and the entry that round took past the limit
    assert expected[-1][0] == aborted
    assert np.array_equal(err.last_states, expected[-1][2])
    assert (err.agent, err.coordinate) == ((0 if mode == "centralized" else 2), 3)
    assert abs(blown[err.agent, err.coordinate]) > 1e7


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
@pytest.mark.parametrize("offset", [0, -2], ids=["one-round-after-a-pass", "one-round-before-a-pass"])
def test_divergence_next_to_a_record_pass_keeps_every_record(mode, offset):
    family = growing_family()
    config = RunConfig(
        family=family,
        stepsize=PowerLawStepsize(0.05, 0.0, 1),
        schedule=GraphSchedule([np.eye(4)], Q=1, weight_floor=0.5),
        max_rounds=3000,
        init=np.full((4, 4), 10.0),
        record_every=1,
        snapshot_every=1,
        **KERNEL_MODES[mode],
    )
    expected, _, _ = reference_run(config)
    K = records_per_pass(mode, family)
    # the largest entry only grows; a limit between its values before and after
    # round m * K + offset makes that round the fatal one. Offset 0 leaves one
    # record waiting for a pass at the abort, offset -2 leaves K - 1.
    peaks = [np.abs(states).max() for _, _, states in expected]
    fatal = next(t for t in range(K + offset, len(peaks) - 1, K) if peaks[t + 1] > peaks[t])
    config = replace(config, divergence_limit=(peaks[fatal] + peaks[fatal + 1]) / 2)
    expected, _, aborted = reference_run(config)
    assert aborted == fatal
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    trace = exc.value.trace
    assert exc.value.last_round == fatal
    assert len(trace.table) == fatal + 1
    assert_records_match(trace, expected)
    assert_records_equal_the_public_diagnostics(trace, family, None)


def test_run_checks_every_stepsize_before_round_zero():
    # alpha_k underflows to 0 from k = 229 on; the doubling graph diverges within ten rounds
    fading = PowerLawStepsize(1e-300, 10.0, 1)
    assert fading.alpha(228) > 0.0 and fading.alpha(229) == 0.0
    family = OperatorFamily([Identity(BlockPartition.single(1))])
    config = RunConfig(
        family=family,
        stepsize=fading,
        schedule=GraphSchedule([np.array([[2.0]])], Q=1, weight_floor=0.4),
        max_rounds=1000,
        divergence_limit=1e3,
    )
    with pytest.raises(ParameterError, match=r"stepsize must lie in \(0, 1\], got 0\.0"):
        run(config, validate=False)
    # with every alpha_k in range the same run gets as far as the guard
    with pytest.raises(DivergenceError) as exc:
        run(replace(config, max_rounds=229), validate=False)
    assert exc.value.last_round < 10


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
@pytest.mark.parametrize(
    "fatal",
    [lambda G: 0, lambda G: G, lambda G: 2 * G - 1, lambda G: 2 * G + G // 4],
    ids=["first-slot-of-the-run", "first-slot", "last-slot", "final-partial-window"],
)
def test_divergence_at_a_window_edge_matches_checked_steps(mode, fatal):
    family = growing_family()
    G = rounds_per_window(mode, family)
    fatal = fatal(G)
    # rows of weight 1.01 grow every entry each round, so the largest entry grows every round in
    # every mode; the last window holds G // 2 rounds
    config = RunConfig(
        family=family,
        stepsize=PowerLawStepsize(0.05, 0.0, 1),
        schedule=GraphSchedule([1.01 * np.eye(4)], Q=1, weight_floor=0.5),
        max_rounds=2 * G + G // 2,
        init=np.full((4, 4), 10.0),
        record_every=1,
        snapshot_every=1,
        divergence_limit=1e300,
        **KERNEL_MODES[mode],
    )
    expected, _, aborted = reference_run(config)
    assert aborted is None
    peaks = [np.abs(states).max() for _, _, states in expected]
    assert all(a < b for a, b in zip(peaks, peaks[1:]))
    limit = (peaks[fatal] + peaks[fatal + 1]) / 2
    config = replace(config, divergence_limit=limit)
    expected, blown, aborted = reference_run(config)
    assert aborted == fatal
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    err = exc.value
    assert err.last_round == fatal
    assert err.trace.aborted_at == fatal + 1
    assert err.trace.final_states is None
    assert len(err.trace.table) == fatal + 1
    assert_records_match(err.trace, expected)
    assert_records_equal_the_public_diagnostics(err.trace, family, None)
    # the state the fatal round started from, and the first entry, row-major, it took past the limit
    assert expected[-1][0] == fatal
    assert np.array_equal(err.last_states, expected[-1][2])
    assert (err.agent, err.coordinate) == divmod(int(np.argmax(~(np.abs(blown) <= limit))), family.n)


@pytest.mark.parametrize("record_every", [None, 1, 7])
def test_record_count_equals_the_cadence(record_every):
    # the default cadence thins at every multiple of 1000; sweep around the first two steps, and
    # around 10**6, past which one piece holds every thinned round
    sweep = [1, 2, 3, 6, 7, 8, *range(995, 1006), *range(1995, 2006), 2999, 3000, 3001, 3002, 10001, 12345]
    sweep += [998_999, 999_000, 999_001, 999_002, 999_999, 10**6, 10**6 + 1, 10**6 + 1000, 10**6 + 1001]
    kept = [k for k in range(max(sweep)) if keeps_record(k, record_every)]
    for max_rounds in sweep:
        planned = list(itertools.chain.from_iterable(record_rounds(max_rounds, record_every)))
        assert planned == kept[: bisect.bisect_left(kept, max_rounds)] + [max_rounds], max_rounds
    assert len(record_rounds(10**8, record_every)) <= 1001


@pytest.mark.parametrize("max_rounds", [2**58, MAX_ROUND])
def test_a_table_too_large_to_address_is_refused(max_rounds):
    # 2**58 + 1 rows of 56 bytes pass 2**63 bytes; 2**63 rows pass numpy's largest dimension
    config = RunConfig(
        family=mixed_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), max_rounds=max_rounds, record_every=1
    )
    with pytest.raises(ParameterError, match=f"^max_rounds {max_rounds} plans {max_rounds + 1} records"):
        run(config)


def test_a_run_may_end_at_the_last_round_a_table_holds():
    # record_every past every round plans rounds 0 and MAX_ROUND; the doubling state diverges in round 39
    config = RunConfig(
        family=OperatorFamily([Identity(BlockPartition.single(1))]),
        stepsize=STEP,
        schedule=GraphSchedule([np.array([[2.0]])], Q=1, weight_floor=0.4),
        max_rounds=MAX_ROUND,
        init=np.array([[1.0]]),
        record_every=10**20,
        snapshot_every=MAX_ROUND,
    )
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    assert exc.value.last_round == 39
    assert exc.value.trace.table["k"].tolist() == exc.value.trace.snapshot_rounds.tolist() == [0]


def test_a_table_the_allocator_refuses_is_refused(monkeypatch):
    empty = np.empty

    def refuse_records(shape, dtype=float, *args, **kwargs):
        if dtype is RECORD:
            raise MemoryError("cannot allocate")
        return empty(shape, dtype, *args, **kwargs)

    monkeypatch.setattr(np, "empty", refuse_records)
    config = RunConfig(family=mixed_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), max_rounds=10)
    with pytest.raises(ParameterError, match="^max_rounds 10 plans 11 records"):
        run(config)


@pytest.mark.parametrize("record_every", [None, 1, 7])
@pytest.mark.parametrize("max_rounds", [1, 999, 1000, 1001, 1002, 2003])
def test_finished_run_fills_its_table(record_every, max_rounds):
    config = RunConfig(
        family=mixed_family(),
        stepsize=STEP,
        schedule=ring_schedule(4, 2, 0.5),
        max_rounds=max_rounds,
        record_every=record_every,
    )
    trace = run(config)
    assert len(trace.table) == sum(map(len, record_rounds(max_rounds, record_every)))
    assert trace.table["k"].tolist() == [k for k in range(max_rounds) if keeps_record(k, record_every)] + [max_rounds]


def test_rounds_past_the_limit_that_overflow_raise_no_warning():
    # the whole run is one window; after the fatal round the doubling state reaches inf near round
    # 1024, and the identity displacement inf - inf is NaN. This suite turns warnings into errors.
    family = OperatorFamily([Identity(BlockPartition.single(1))])
    config = RunConfig(
        family=family,
        stepsize=STEP,
        schedule=GraphSchedule([np.array([[2.0]])], Q=1, weight_floor=0.4),
        max_rounds=3000,
        init=np.array([[1.0]]),
    )
    assert rounds_per_window("dkm", family) >= config.max_rounds
    _, _, aborted = reference_run(config)
    assert aborted == 39  # 2**40 is the first power of two past 1e12
    with pytest.raises(DivergenceError) as exc:
        run(config, validate=False)
    assert (exc.value.last_round, exc.value.agent, exc.value.coordinate) == (aborted, 0, 0)
    assert exc.value.last_states.tolist() == [[2.0**39]]


def record_allocations(monkeypatch):
    """The arrays np.empty returns from now on, in order; run() allocates its window there."""
    made = []
    empty = np.empty

    def record(*args, **kwargs):
        made.append(empty(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(np, "empty", record)
    return made


@pytest.mark.parametrize("mode", sorted(KERNEL_MODES))
def test_run_outputs_share_no_memory_with_the_window(mode, monkeypatch):
    # run() mixes into the window's slots, so the states a trace or an error hands out must be copies
    made = record_allocations(monkeypatch)
    finished = RunConfig(
        family=mixed_family(), stepsize=STEP, schedule=ring_schedule(4, 2, 0.5), max_rounds=1300, seed=11,
        snapshot_every=1, **KERNEL_MODES[mode],
    )
    diverging = RunConfig(
        family=growing_family(), stepsize=PowerLawStepsize(0.05, 0.0, 1),
        schedule=GraphSchedule([np.eye(4)], Q=1, weight_floor=0.5), max_rounds=3000,
        init=np.full((4, 4), 10.0), snapshot_every=1, divergence_limit=1e7, **KERNEL_MODES[mode],
    )
    trace = run(finished)
    with pytest.raises(DivergenceError) as exc:
        run(diverging, validate=False)
    rows = 1 if mode == "centralized" else 4
    window_shape = (rounds_per_window(mode, finished.family) + 1, rows, 4)
    windows = [a for a in made if a.shape == window_shape]
    assert len(windows) == 2
    for states, snapshots in ((trace.final_states, trace.snapshots), (exc.value.last_states, exc.value.trace.snapshots)):
        assert states.shape == (rows, 4) and len(snapshots) > 1
        for window in windows:
            assert not np.shares_memory(states, window)
            assert not np.shares_memory(snapshots, window)
        assert not np.shares_memory(states, snapshots)
