"""Residuals, block norms, and rate fitting."""

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
    PowerLawStepsize,
    Projection,
    Quadratic,
    Trace,
    TraceRecord,
    consensus_residual,
    distance_to_reference,
    fit_consensus_rate,
    fixed_point_residual,
    mean_state,
    weighted_block_norm,
)
from dkmsim.diagnostics import RECORD, record_residuals
from dkmsim.errors import DimensionMismatchError, ParameterError


def test_mean_state_cases():
    assert np.array_equal(mean_state([[1.0, 2.0]]), [1.0, 2.0])
    assert np.array_equal(mean_state([[0.0, 0.0], [2.0, 4.0]]), [1.0, 2.0])
    v = np.array([3.0, -1.0])
    assert np.array_equal(mean_state(np.tile(v, (4, 1))), v)


def test_consensus_residual_cases():
    assert consensus_residual(np.tile([1.0, 2.0], (3, 1))) == 0.0
    assert consensus_residual([[0.0], [2.0]]) == pytest.approx(1.0)
    # mean is (1, 4/3); the third row deviates by ||(2, 8/3)|| = 10/3
    states = [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]]
    assert consensus_residual(states) == pytest.approx(10.0 / 3.0)


def test_fixed_point_residual_identity_family():
    part = BlockPartition.single(2)
    family = OperatorFamily([Identity(part), Identity(part)])
    assert fixed_point_residual(family, np.array([3.0, -7.0])) == 0.0


def test_fixed_point_residual_affine_family_at_solution():
    part = BlockPartition.single(2)
    rng = np.random.default_rng(3)
    ops = []
    mats = []
    offs = []
    for _ in range(3):
        G = rng.standard_normal((2, 2))
        R = G.T @ G + 0.5 * np.eye(2)
        r = rng.standard_normal(2)
        mats.append(R)
        offs.append(r)
        ops.append(Affine(part, R, r, theta=0.1))
    family = OperatorFamily(ops)
    x_star = np.linalg.solve(np.mean(mats, axis=0), np.mean(offs, axis=0))
    assert fixed_point_residual(family, x_star) < 1e-12


def test_fixed_point_residual_box_projection():
    part = BlockPartition.single(1)
    family = OperatorFamily([Projection(part, Box(np.array([0.0]), np.array([1.0])))])
    assert fixed_point_residual(family, np.array([2.0])) == pytest.approx(1.0)


def test_distance_to_reference_cases():
    ref = np.array([1.0, 2.0])
    assert distance_to_reference(np.tile(ref, (3, 1)), ref) == 0.0
    states = np.vstack([ref, ref + np.array([1.0, 0.0])])
    assert distance_to_reference(states, ref) == pytest.approx(1.0)


def kernel_family(kind, n_agents=5):
    """Five agents of one kind on a 3-block partition of R^4, or of every kind in turn for "mixed"."""
    part = BlockPartition((2, 1, 1))
    rng = np.random.default_rng(8)

    def affine():
        G = rng.standard_normal((4, 4))
        R = G.T @ G + 0.1 * np.eye(4)
        return Affine(part, R, rng.standard_normal(4), theta=1.0 / np.linalg.eigvalsh(R).max())

    kinds = {
        "box": lambda: Projection(part, Box(-np.ones(4), rng.uniform(0.5, 2.0, 4))),
        "ball": lambda: Projection(part, Ball(rng.standard_normal(4), 2.0)),
        "quadratic": lambda: GradientStep(
            part, Quadratic(rng.standard_normal((4, 4)) * 0.3, rng.standard_normal(4)), tau=0.5
        ),
        "huber": lambda: GradientStep(part, Huber(rng.standard_normal(4), 1.0), tau=1.0),
        "affine": affine,
    }
    makers = list(kinds.values()) if kind == "mixed" else [kinds[kind]]
    return OperatorFamily([makers[i % len(makers)]() for i in range(n_agents)])


@pytest.mark.parametrize("kind", ["box", "ball", "quadratic", "huber", "affine", "mixed"])
def test_record_residuals_equal_the_public_diagnostics(kind):
    family = kernel_family(kind)
    rng = np.random.default_rng(21)
    for scale in (1e-8, 1e-4, 1.0, 1e3):
        reference = rng.standard_normal(4) * scale
        # every agent's row, or the single row of a centralized run
        for rows in (family.n_agents, 1):
            states = (rng.standard_normal((9, rows, 4)) + rng.standard_normal(4)) * scale
            for ref in (None, reference):
                consensus, fp, dist, top = record_residuals(family, states, ref)
                assert len(consensus) == len(fp) == len(dist) == len(top) == len(states)
                for j, x in enumerate(states):
                    assert consensus[j] == consensus_residual(x)
                    assert fp[j] == fixed_point_residual(family, x.mean(axis=0))
                    assert np.isnan(dist[j]) if ref is None else dist[j] == distance_to_reference(x, ref)
                    assert top[j] == np.linalg.norm(x, axis=1).max()


def test_weighted_block_norm_cases():
    single = BlockPartition.single(3)
    x = np.array([1.0, 2.0, 2.0])
    assert weighted_block_norm(x, single, [1.0]) == pytest.approx(np.linalg.norm(x))

    two = BlockPartition((1, 1))
    y = np.array([3.0, 4.0])
    assert weighted_block_norm(y, two, [0.5, 0.5]) == pytest.approx(np.sqrt(50.0))

    assert weighted_block_norm(np.zeros(2), two, [0.5, 0.5]) == 0.0


def test_weighted_block_norm_guards():
    part = BlockPartition((1, 1))
    with pytest.raises(DimensionMismatchError):
        weighted_block_norm(np.zeros(2), part, [1.0])
    with pytest.raises(ParameterError):
        weighted_block_norm(np.zeros(2), part, [1.0, 0.0])


def test_block_norm_sandwich():
    rng = np.random.default_rng(5)
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(1, 5)))
        part = BlockPartition(dims)
        x = rng.standard_normal(part.n) * rng.uniform(0.1, 10)
        p = rng.dirichlet(np.ones(part.m))
        if np.any(p < 1e-6):
            continue
        plain = np.linalg.norm(x)
        weighted = weighted_block_norm(x, part, p)
        assert plain <= weighted + 1e-12
        assert weighted <= plain / np.sqrt(p.min()) + 1e-12


def make_trace(ks, residuals, stepsize, max_rounds):
    table = np.array([(k, stepsize.alpha(k), r, np.nan, np.nan, -1, 1.0) for k, r in zip(ks, residuals)], dtype=RECORD)
    return Trace(
        mode="dkm",
        n_agents=2,
        n=1,
        block_dims=(1,),
        seed=0,
        max_rounds=max_rounds,
        stepsize=stepsize,
        table=table,
    )


def test_fit_consensus_rate_unit_ratio():
    # residuals manufactured to equal alpha_{k//2} exactly give C = 1
    ss = PowerLawStepsize(1.0, 0.7, 1)
    ks = list(range(0, 1000, 10))
    trace = make_trace(ks, [ss.alpha_half(k) for k in ks], ss, 1000)
    assert fit_consensus_rate(trace) == pytest.approx(1.0)
    assert fit_consensus_rate(trace, tail_start=500) == pytest.approx(1.0)


def test_fit_consensus_rate_zero_residual():
    ss = PowerLawStepsize(1.0, 0.7, 1)
    ks = list(range(100))
    trace = make_trace(ks, [0.0] * len(ks), ss, 100)
    assert fit_consensus_rate(trace) == 0.0


def test_fit_consensus_rate_empty_tail():
    ss = PowerLawStepsize(1.0, 0.7, 1)
    trace = make_trace([0, 1, 2], [1.0, 1.0, 1.0], ss, 1000)
    with pytest.raises(ParameterError):
        fit_consensus_rate(trace, tail_start=10)


def test_trace_column_and_last():
    ss = PowerLawStepsize(1.0, 0.7, 1)
    trace = make_trace([0, 1], [0.5, 0.25], ss, 2)
    assert trace.table["k"].tolist() == [0, 1]
    assert trace.table["consensus_residual"].tolist() == [0.5, 0.25]
    # NaN and the no-block -1 read back as None
    assert trace.last() == TraceRecord(1, ss.alpha(1), 0.25, None, None, None, 1.0)
    assert trace.snapshot_rounds.shape == (0,) and trace.snapshots.shape == (0, 2, 1)
    empty = make_trace([], [], ss, 2)
    with pytest.raises(ParameterError):
        empty.last()
