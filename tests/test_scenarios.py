"""Scenario builders and their engine-independent reference oracles."""

import math
from dataclasses import FrozenInstanceError, fields

import numpy as np
import pytest

from dkmsim import (
    Ball,
    BlockSelector,
    Box,
    Huber,
    PowerLawStepsize,
    Quadratic,
    UniformInit,
    build_consensus_scenario,
    build_dgd_scenario,
    build_distance_scenario,
    build_linear_scenario,
    build_preset,
    fixed_point_residual,
    initial_states,
    oracle_distance_minimizer,
    oracle_least_squares_minimizer,
    oracle_linear_solve,
    oracle_smooth_minimizer,
    random_linear_instance,
    ring_schedule,
    run,
    staircase_boxes,
)
from dkmsim.errors import ParameterError
from dkmsim.graphs import GraphSchedule
from dkmsim.scenarios import PRESET_NAMES

from oracles import grid_argmin_1d, mean_projection_fixed_point, project

STEP = PowerLawStepsize(1.0, 0.7, 1)


# ---------------------------------------------------------------------------
# linear-solve oracle


def test_linear_solve_identity():
    v = np.array([3.0, -1.0, 2.0])
    sol = oracle_linear_solve(np.eye(3), v)
    assert np.allclose(sol.solution, v, atol=1e-12)
    assert sol.unique and sol.consistent
    assert sol.residual < 1e-12


def test_linear_solve_scaled():
    sol = oracle_linear_solve(2.0 * np.eye(2), np.array([2.0, 4.0]))
    assert np.allclose(sol.solution, [1.0, 2.0], atol=1e-12)
    assert sol.unique and sol.consistent


def test_linear_solve_rank_deficient_consistent():
    sol = oracle_linear_solve(np.diag([1.0, 0.0]), np.array([1.0, 0.0]))
    assert np.allclose(sol.solution, [1.0, 0.0], atol=1e-12)
    assert not sol.unique
    assert sol.consistent


def test_linear_solve_inconsistent():
    sol = oracle_linear_solve(np.diag([1.0, 0.0]), np.array([0.0, 1.0]))
    assert sol.residual == pytest.approx(1.0, abs=1e-12)
    assert not sol.consistent
    assert np.allclose(sol.solution, [0.0, 0.0], atol=1e-12)


def test_linear_solve_rejects_non_matrix():
    with pytest.raises(ParameterError):
        oracle_linear_solve(np.zeros((2, 2, 2)), np.zeros(2))


# ---------------------------------------------------------------------------
# distance oracle


def test_distance_minimizer_single_box_needs_no_motion():
    box = Box(np.array([1.0, 3.0]), np.array([2.0, 5.0]))
    x = oracle_distance_minimizer([box])
    assert np.all((box.lower <= x) & (x <= box.upper))


def test_distance_minimizer_two_disjoint_intervals():
    sets = [Box(np.array([0.0]), np.array([1.0])), Box(np.array([2.0]), np.array([3.0]))]
    x = oracle_distance_minimizer(sets)
    assert x[0] == pytest.approx(1.5, abs=1e-10)
    # brute force the same objective on a fine grid

    def objective(t):
        p = np.array([t])
        return sum(np.sum((p - project(s, p)) ** 2) for s in sets)

    t_grid = grid_argmin_1d(objective, 0.0, 3.0)
    assert abs(t_grid - x[0]) < 1e-4


def test_distance_minimizer_common_point():
    sets = [Box(np.array([0.0]), np.array([2.0])), Box(np.array([1.0]), np.array([3.0]))]
    x = oracle_distance_minimizer(sets)
    for s in sets:
        assert np.all((s.lower <= x) & (x <= s.upper))


def test_distance_minimizer_mixed_sets_reaches_fixed_point():
    sets = [
        Ball(np.array([0.0, 0.0]), 1.0),
        Box(np.array([2.0, -1.0]), np.array([4.0, 1.0])),
        Ball(np.array([1.0, 3.0]), 0.5),
    ]
    x = oracle_distance_minimizer(sets)
    mean_proj = np.mean([project(s, x) for s in sets], axis=0)
    assert np.linalg.norm(mean_proj - x) < 1e-10


def mixed_sets_3d():
    """Small balls around a box and a big ball in R^3; the big ball and the box
    hold the limit, the small balls do not.

    Few sets, so a last-ulp change in one ball's projection reaches the mean.
    """
    rng = np.random.default_rng(1)
    small = [Ball(rng.uniform(-3.0, 3.0, 3), rng.uniform(0.2, 1.0)) for _ in range(3)]
    return [small[0], Box(-np.ones(3), np.ones(3)), small[1], Ball(np.zeros(3), 4.0), small[2]]


@pytest.mark.parametrize(
    "make_sets",
    [lambda: staircase_boxes(6), lambda: staircase_boxes(100), mixed_sets_3d],
    ids=["staircase-6", "staircase-100", "mixed-boxes-and-balls"],
)
def test_stacked_distance_oracle_equals_per_set_loop(make_sets):
    sets = make_sets()
    assert np.array_equal(oracle_distance_minimizer(sets), mean_projection_fixed_point(sets))


def test_distance_minimizer_input_guards():
    with pytest.raises(ParameterError):
        oracle_distance_minimizer([])
    with pytest.raises(ParameterError):
        oracle_distance_minimizer([Ball(np.zeros(2), 1.0), Ball(np.zeros(3), 1.0)])


# ---------------------------------------------------------------------------
# smooth oracles


def test_least_squares_minimizer_two_parabolas():
    objs = [Quadratic(np.eye(1), np.array([1.0])), Quadratic(np.eye(1), np.array([3.0]))]
    x, unique = oracle_least_squares_minimizer(objs)
    assert unique
    assert x[0] == pytest.approx(2.0, abs=1e-12)


def test_least_squares_minimizer_flags_rank_deficiency():
    objs = [Quadratic(np.array([[1.0, 0.0]]), np.array([5.0]))]
    x, unique = oracle_least_squares_minimizer(objs)
    assert not unique
    assert np.allclose(x, [5.0, 0.0], atol=1e-10)


def test_smooth_minimizer_symmetric_hubers():
    objs = [Huber(np.array([1.0]), 1.0), Huber(np.array([-1.0]), 1.0)]
    x = oracle_smooth_minimizer(objs)
    assert abs(x[0]) < 1e-8


def test_smooth_minimizer_single_huber_sits_at_target():
    obj = Huber(np.array([2.0, -3.0]), 0.5)
    x = oracle_smooth_minimizer([obj])
    assert np.allclose(x, [2.0, -3.0], atol=1e-8)


# ---------------------------------------------------------------------------
# staircase family


def test_staircase_frozen_corners():
    boxes = staircase_boxes(6)
    assert len(boxes) == 6
    b1 = boxes[0]
    assert np.allclose(b1.lower, [1.0, math.sin(math.pi / 2), 3.0 - math.sqrt(6.0)])
    assert np.allclose(b1.upper, [math.sqrt(2.0), 2.0, 1.0])
    b2 = boxes[1]
    assert np.allclose(b2.lower, [math.sqrt(2.0), math.sin(math.pi), math.sqrt(2.0) - math.sqrt(6.0) + 2.0])
    assert np.allclose(b2.upper, [math.sqrt(3.0), 1.0 + math.sin(math.pi), math.sqrt(2.0)])
    b4 = boxes[3]
    assert b4.lower[1] == math.sin(2.0 * math.pi)
    assert b4.upper[1] == 1.0 + math.sin(2.0 * math.pi)


def test_staircase_boxes_touch_in_first_coordinate():
    boxes = staircase_boxes(8)
    for a, b in zip(boxes, boxes[1:]):
        assert a.upper[0] == b.lower[0]


def test_staircase_needs_four_agents():
    with pytest.raises(ParameterError):
        staircase_boxes(3)
    assert len(staircase_boxes(4)) == 4


# ---------------------------------------------------------------------------
# builders


def test_distance_builder_blocks_require_uniform_selector():
    with pytest.raises(ParameterError, match="uniform"):
        build_distance_scenario(
            staircase_boxes(6),
            ring_schedule(6, 2, 0.5),
            STEP,
            mode="dbkm",
            block_dims=(1, 1, 1),
            selector=BlockSelector((0.5, 0.3, 0.2)),
        )


def test_distance_builder_defaults_selector_to_uniform():
    sc = build_distance_scenario(
        staircase_boxes(6),
        ring_schedule(6, 2, 0.5),
        STEP,
        mode="dbkm",
        block_dims=(1, 1, 1),
    )
    assert sc.config.selector.is_uniform()
    assert sc.config.selector.num_blocks == 3


def test_distance_builder_reference_is_a_fixed_point():
    sc = build_distance_scenario(staircase_boxes(6), ring_schedule(6, 2, 0.5), STEP)
    assert sc.reference is not None
    assert fixed_point_residual(sc.config.family, sc.reference) < 1e-8
    assert "projection" in sc.reference_source


def test_distance_builder_rejects_mismatched_blocks():
    with pytest.raises(ParameterError):
        build_distance_scenario(staircase_boxes(6), ring_schedule(6, 2, 0.5), STEP, block_dims=(1, 1))


def test_dgd_builder_rejects_tau_at_limit():
    objs = [Quadratic(np.eye(2), np.zeros(2)), Quadratic(2.0 * np.eye(2), np.zeros(2))]
    L = max(f.lipschitz_L for f in objs)
    with pytest.raises(ParameterError):
        build_dgd_scenario(objs, tau=2.0 / L, schedule=ring_schedule(2, 1, 0.5), stepsize=STEP)
    sc = build_dgd_scenario(objs, tau=1.0 / L, schedule=ring_schedule(2, 1, 0.5), stepsize=STEP)
    assert sc.reference is not None


def test_dgd_builder_defaults_selector_to_uniform():
    objs = [Huber(np.array([1.0, 0.0]), 1.0), Huber(np.array([-1.0, 2.0]), 1.0)]
    sc = build_dgd_scenario(objs, 1.0, ring_schedule(2, 1, 0.5), STEP, mode="dbkm", block_dims=(1, 1))
    assert sc.config.selector == BlockSelector.uniform(2)


def test_dgd_builder_quadratic_oracle_route():
    objs = [Quadratic(np.eye(1), np.array([1.0])), Quadratic(np.eye(1), np.array([3.0]))]
    sc = build_dgd_scenario(objs, tau=1.0, schedule=ring_schedule(2, 1, 0.5), stepsize=STEP)
    assert "normal-equations" in sc.reference_source
    assert sc.reference[0] == pytest.approx(2.0, abs=1e-12)


def test_dgd_builder_smooth_oracle_route():
    objs = [Huber(np.array([1.0]), 1.0), Huber(np.array([-1.0]), 1.0)]
    sc = build_dgd_scenario(objs, tau=1.0, schedule=ring_schedule(2, 1, 0.5), stepsize=STEP)
    assert "gradient descent" in sc.reference_source
    total_grad = sum(f.gradient(sc.reference) for f in objs)
    assert np.linalg.norm(total_grad) < 1e-8


def test_linear_builder_default_theta_is_two_over_lambda_max():
    mats = [2.0 * np.eye(2), np.eye(2)]
    offs = [np.zeros(2), np.zeros(2)]
    sc = build_linear_scenario(mats, offs, ring_schedule(2, 1, 0.5), STEP)
    for op in sc.config.family.operators:
        assert op.theta == 1.0


def test_linear_builder_single_agent_identity_system():
    v = np.array([1.0, -2.0, 0.5])
    sc = build_linear_scenario(
        [np.eye(3)],
        [v],
        GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5),
        STEP,
    )
    assert np.allclose(sc.reference, v, atol=1e-12)
    assert "least-squares" in sc.reference_source


def test_linear_builder_reference_solves_mean_system():
    matrices, offsets = random_linear_instance(3)
    sc = build_linear_scenario(matrices, offsets, ring_schedule(5, 2, 0.5), STEP)
    R_bar = np.mean(matrices, axis=0)
    r_bar = np.mean(offsets, axis=0)
    assert np.linalg.norm(R_bar @ sc.reference - r_bar) < 1e-10


def test_linear_builder_rejects_asymmetric_matrix():
    with pytest.raises(ParameterError):
        build_linear_scenario(
            [np.array([[1.0, 0.5], [0.0, 1.0]]), np.eye(2)],
            [np.zeros(2), np.zeros(2)],
            ring_schedule(2, 1, 0.5),
            STEP,
        )


def test_linear_builder_rejects_mismatched_lists():
    with pytest.raises(ParameterError):
        build_linear_scenario([np.eye(2)], [], ring_schedule(2, 1, 0.5), STEP)


def test_consensus_builder_reference_is_initial_mean():
    sc = build_consensus_scenario(5, 3, ring_schedule(5, 2, 0.5), STEP, seed=4, max_rounds=200)
    x0 = initial_states(sc.config)
    assert np.allclose(sc.reference, x0.mean(axis=0), atol=1e-15)
    trace = run(sc.config)
    assert trace.last().consensus_residual < 1e-6
    assert np.allclose(trace.final_states.mean(axis=0), sc.reference, atol=1e-10)


def test_consensus_reference_follows_run_overrides():
    sc = build_consensus_scenario(4, 2, ring_schedule(4, 2, 0.5), STEP, max_rounds=50)
    reseeded = sc.with_run(seed=5)
    assert reseeded.config.seed == 5 and sc.config.seed == 0
    assert np.array_equal(reseeded.reference, initial_states(reseeded.config).mean(axis=0))
    assert not np.array_equal(reseeded.reference, sc.reference)
    explicit = sc.with_run(init=np.full((4, 2), 3.0))
    assert np.array_equal(explicit.reference, [3.0, 3.0])
    assert reseeded.reference_source == sc.reference_source


# ---------------------------------------------------------------------------
# presets


def test_random_linear_instance_is_spd_and_reproducible():
    m1, o1 = random_linear_instance(42)
    m2, o2 = random_linear_instance(42)
    for a, b in zip(m1, m2):
        assert np.array_equal(a, b)
    for a, b in zip(o1, o2):
        assert np.array_equal(a, b)
    for R in m1:
        assert np.array_equal(R, R.T)
        assert np.linalg.eigvalsh(R)[0] >= 0.1 - 1e-9
    m3, _ = random_linear_instance(43)
    assert not np.array_equal(m1[0], m3[0])


def test_every_preset_builds_with_pinned_rounds():
    pinned = {
        "paper-dkm-6": 20_000,
        "paper-dbkm-100": 100_000,
        "linear-random": 100_000,
        "dgd-quadratic": 20_000,
        "dgd-huber": 20_000,
    }
    assert set(PRESET_NAMES) == set(pinned)
    for name in PRESET_NAMES:
        sc = build_preset(name)
        assert sc.name == name
        assert sc.config.max_rounds == pinned[name]
        assert sc.config.seed == 0
        assert isinstance(sc.config.init, UniformInit)


def test_preset_references_are_fixed_points():
    for name in PRESET_NAMES:
        sc = build_preset(name)
        assert sc.reference is not None, name
        assert fixed_point_residual(sc.config.family, sc.reference) < 1e-8, name


def test_preset_overrides():
    sc = build_preset("paper-dkm-6", seed=7, max_rounds=50)
    assert sc.config.seed == 7
    assert sc.config.max_rounds == 50


def test_scenarios_are_frozen():
    sc = build_preset("dgd-huber", max_rounds=10)
    for f in fields(sc):
        with pytest.raises(FrozenInstanceError):
            setattr(sc, f.name, getattr(sc, f.name))
    with pytest.raises(FrozenInstanceError):
        sc.reference = None
    assert sc.reference is sc.config.reference
    assert "expected" not in {f.name for f in fields(sc)}


def test_unknown_preset_rejected():
    with pytest.raises(ParameterError, match="paper-dkm-6"):
        build_preset("no-such-thing")
