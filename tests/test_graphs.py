"""Mixing graphs, schedules, and connectivity validators.

The strong-connectivity implementation is cross-checked against a dense
boolean-closure oracle on random digraphs; the ring schedules are checked
against the same oracle window by window.
"""

import numpy as np
import pytest

from dkmsim import graphs
from dkmsim import (
    GraphSchedule,
    check_doubly_stochastic,
    check_q_strong_connectivity,
    check_weight_floor,
    mix,
    ring_schedule,
    strongly_connected,
    validate_schedule,
)
from dkmsim.diagnostics import consensus_residual
from dkmsim.errors import DimensionMismatchError, ParameterError
from dkmsim.validation import ValidationReport, Violation

from oracles import closure_strongly_connected


def cycle_permutation(n):
    """Permutation matrix sending agent j's value to agent j+1."""
    S = np.zeros((n, n))
    S[np.arange(n), np.arange(-1, n - 1)] = 1.0
    return S


def random_doubly_stochastic(n, rng, k=4):
    """Convex combination of k random permutation matrices."""
    weights = rng.dirichlet(np.ones(k))
    A = np.zeros((n, n))
    for w in weights:
        P = np.eye(n)[rng.permutation(n)]
        A += w * P
    return A


# ---------------------------------------------------------------------------
# double stochasticity


def test_identity_is_doubly_stochastic():
    assert check_doubly_stochastic(np.eye(4)).passed


def test_uniform_averaging_is_doubly_stochastic():
    assert check_doubly_stochastic(np.full((5, 5), 0.2)).passed


def test_row_stochastic_only_fails():
    report = check_doubly_stochastic(np.array([[0.5, 0.5], [1.0, 0.0]]))
    assert not report.passed
    # both column sums are off: 1.5 and 0.5
    values = sorted(v.value for v in report.violations)
    assert values == pytest.approx([0.5, 1.5])


def test_negative_entry_fails():
    A = np.array([[1.5, -0.5], [-0.5, 1.5]])
    report = check_doubly_stochastic(A)
    assert not report.passed
    assert any("negative" in v.message for v in report.violations)


def test_tolerance_is_configurable():
    A = np.eye(3) + 1e-10
    assert not check_doubly_stochastic(A).passed
    assert check_doubly_stochastic(A, tol=1e-8).passed


# ---------------------------------------------------------------------------
# strong connectivity


def test_cycle_is_strongly_connected():
    assert strongly_connected(cycle_permutation(6) > 0)


def test_edgeless_graph_is_not_connected():
    assert not strongly_connected(np.eye(3) > 0)
    assert strongly_connected(np.eye(1) > 0)  # single node


def test_one_way_chain_is_not_connected():
    adj = np.zeros((3, 3), dtype=bool)
    adj[0, 1] = adj[1, 2] = True
    assert not strongly_connected(adj)


def test_connectivity_matches_closure_oracle():
    rng = np.random.default_rng(42)
    agree = 0
    for _ in range(300):
        n = int(rng.integers(2, 13))
        density = rng.uniform(0.05, 0.5)
        adj = rng.random((n, n)) < density
        got = strongly_connected(adj)
        want = closure_strongly_connected(adj)
        assert got == want
        agree += got
    # sanity: the sample covered both verdicts
    assert 0 < agree < 300


# ---------------------------------------------------------------------------
# schedules


def test_schedule_cyclic_indexing():
    mats = [np.eye(2) * 0 + np.full((2, 2), 0.5), np.eye(2)]
    sched = GraphSchedule(mats, Q=2, weight_floor=0.4)
    assert sched.at(0) is mats[0]
    assert sched.at(1) is mats[1]
    assert sched.at(2) is mats[0]


def test_single_graph_schedule_repeats():
    sched = GraphSchedule([np.eye(3)], Q=1, weight_floor=0.5)
    for k in range(5):
        assert sched.at(k) is sched.matrices[0]


def test_ten_graph_schedule_indexing():
    mats = [np.eye(2) * (t + 1) / 10 + np.full((2, 2), 0.01) for t in range(10)]
    sched = GraphSchedule(mats, Q=10, weight_floor=0.001)
    assert sched.at(23) is mats[3]


def test_schedule_construction_guards():
    with pytest.raises(ParameterError):
        GraphSchedule([], Q=1, weight_floor=0.5)
    with pytest.raises(DimensionMismatchError):
        GraphSchedule([np.zeros((2, 3))], Q=1, weight_floor=0.5)
    with pytest.raises(DimensionMismatchError):
        GraphSchedule([np.eye(2), np.eye(3)], Q=1, weight_floor=0.5)
    with pytest.raises(ParameterError):
        GraphSchedule([np.eye(2)], Q=0, weight_floor=0.5)
    with pytest.raises(ParameterError):
        GraphSchedule([np.eye(2)], Q=1, weight_floor=1.0)
    with pytest.raises(ParameterError):
        GraphSchedule([np.full((2, 2), np.nan)], Q=1, weight_floor=0.5)


# ---------------------------------------------------------------------------
# weight floor


def test_weight_floor_on_lazy_cycle():
    A = 0.5 * np.eye(4) + 0.5 * cycle_permutation(4)
    sched = GraphSchedule([A], Q=1, weight_floor=0.4)
    assert check_weight_floor(sched).passed
    sched_tight = GraphSchedule([A], Q=1, weight_floor=0.6)
    assert not check_weight_floor(sched_tight).passed


def test_weight_floor_identity_has_no_off_diagonal():
    sched = GraphSchedule([np.eye(3)], Q=1, weight_floor=0.5)
    assert check_weight_floor(sched).passed


# ---------------------------------------------------------------------------
# windowed connectivity


def test_full_cycle_passes_window_one():
    A = 0.5 * np.eye(5) + 0.5 * cycle_permutation(5)
    sched = GraphSchedule([A], Q=1, weight_floor=0.4)
    assert check_q_strong_connectivity(sched).passed


def test_split_cycle_needs_both_rounds():
    sched = ring_schedule(6, 2, 0.5)
    assert check_q_strong_connectivity(sched, Q=2).passed
    assert not check_q_strong_connectivity(sched, Q=1).passed


def test_edgeless_schedule_fails_every_window():
    sched = GraphSchedule([np.eye(3)], Q=1, weight_floor=0.5)
    for Q in (1, 2, 5):
        assert not check_q_strong_connectivity(sched, Q=Q).passed


def counting_strongly_connected(monkeypatch):
    """The unions graphs.strongly_connected is called with, from here on."""
    calls = []

    def counted(adjacency):
        calls.append(adjacency.copy())
        return strongly_connected(adjacency)

    monkeypatch.setattr(graphs, "strongly_connected", counted)
    return calls


def test_connectivity_checks_each_distinct_window_once(monkeypatch):
    # a ring of period Q: every window of Q rounds holds the whole period, so all 10 unions are one matrix
    calls = counting_strongly_connected(monkeypatch)
    report = check_q_strong_connectivity(ring_schedule(100, 10, 0.5))
    assert report.passed and report.detail == "10 window offsets checked"
    assert len(calls) == 1


def test_connectivity_report_names_every_failing_offset(monkeypatch):
    # period 5, Q = 1: offset t checks graph t + 1, so offsets 0 and 3 share graph A, and 4 checks the identity
    A = np.eye(4)[[1, 0, 2, 3]]  # swaps agents 0 and 1
    B = np.eye(4)[[0, 1, 3, 2]]  # swaps agents 2 and 3
    sched = GraphSchedule([np.eye(4), A, B, cycle_permutation(4), A], Q=1, weight_floor=0.5)
    calls = counting_strongly_connected(monkeypatch)
    report = check_q_strong_connectivity(sched)
    not_connected = "union of 1 graphs is not strongly connected"
    assert report == ValidationReport(
        "graph: strong connectivity over window Q=1",
        False,
        [Violation(f"window starting after round {offset}", not_connected) for offset in (0, 1, 3, 4)],
    )
    assert [c.tolist() for c in calls] == [(G > 0).tolist() for G in (A, B, cycle_permutation(4), np.eye(4))]


# ---------------------------------------------------------------------------
# mixing


def test_mix_identity_keeps_states():
    states = np.arange(6.0).reshape(3, 2)
    assert np.array_equal(mix(np.eye(3), states), states)


def test_mix_uniform_averages():
    states = np.array([[0.0, 2.0], [4.0, 6.0]])
    mixed = mix(np.full((2, 2), 0.5), states)
    assert np.allclose(mixed, [[2.0, 4.0], [2.0, 4.0]])


def test_mix_hand_example():
    mixed = mix(np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([[0.0], [2.0]]))
    assert np.allclose(mixed, [[1.0], [1.0]])


def test_mix_dimension_guard():
    with pytest.raises(DimensionMismatchError):
        mix(np.eye(2), np.zeros((3, 2)))


def test_mix_preserves_mean_and_contracts_consensus():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        A = random_doubly_stochastic(n, rng)
        states = rng.standard_normal((n, 3))
        mixed = mix(A, states)
        assert np.allclose(mixed.mean(axis=0), states.mean(axis=0), atol=1e-12)
        assert consensus_residual(mixed) <= consensus_residual(states) + 1e-12


# ---------------------------------------------------------------------------
# ring schedules


def test_two_agent_ring_is_uniform_averaging():
    sched = ring_schedule(2, 1, 0.5)
    assert len(sched.matrices) == 1
    assert np.allclose(sched.matrices[0], [[0.5, 0.5], [0.5, 0.5]])
    assert strongly_connected(sched.matrices[0] > 0)


def test_ring_single_round_is_lazy_cycle():
    sched = ring_schedule(5, 1, 0.3)
    expected = 0.7 * np.eye(5) + 0.3 * cycle_permutation(5)
    assert np.allclose(sched.matrices[0], expected)


def test_ring_matrices_are_doubly_stochastic_permutation_mixes():
    for N, P, w in [(6, 2, 0.5), (100, 10, 0.5), (5, 2, 0.25), (4, 4, 0.5), (7, 3, 0.9)]:
        sched = ring_schedule(N, P, w)
        assert sched.period == P
        for A in sched.matrices:
            assert check_doubly_stochastic(A).passed
            # exactly two values appear: 1-w and w off a diagonal of 1-w,
            # or 1.0 where an agent keeps its own value
            vals = np.unique(np.round(A[A > 0], 12))
            assert set(vals).issubset({round(w, 12), round(1 - w, 12), 1.0})


def test_ring_permutations_follow_their_spec():
    # S_t is a permutation that contains every active edge (agent j+1 hears from j),
    # fixes every agent no active edge touches, and keeps each agent's source in its
    # own run of active edges. The last property is needed too: ring(4, 2) round 0
    # has edges 0 -> 1 and 2 -> 3, and the 4-cycle 0 -> 1 -> 2 -> 3 -> 0 meets the
    # other three. Together they pin S_t down.
    for N in range(2, 41):
        for P in range(1, N + 1):
            for t, A in enumerate(ring_schedule(N, P, 0.5).matrices):
                S = 2.0 * A - np.eye(N)  # exact for weight 0.5
                assert set(np.unique(S)) <= {0.0, 1.0}
                assert np.all(S.sum(axis=0) == 1.0) and np.all(S.sum(axis=1) == 1.0)
                active = [j % P == t for j in range(N)]  # edge j: j -> j+1 (mod N)
                for j in range(N):
                    if active[j]:
                        assert S[(j + 1) % N, j] == 1.0, (N, P, t, j)
                    if not active[j] and not active[j - 1]:
                        assert S[j, j] == 1.0, (N, P, t, j)
                # agents i and i+1 share a run label exactly when edge i is active
                inactive = [not active[i - 1] for i in range(N)]
                run_of = np.cumsum(inactive) % max(1, sum(inactive))
                assert np.array_equal(run_of[S.argmax(axis=1)], run_of), (N, P, t)


def test_ring_joint_connectivity_windows():
    for N, P in [(6, 2), (100, 10), (5, 2), (8, 4)]:
        sched = ring_schedule(N, P, 0.5)
        report = check_q_strong_connectivity(sched, Q=P)
        assert report.passed, f"ring({N},{P}) failed its own window: {report.summary()}"
        union = np.zeros((N, N), dtype=bool)
        for A in sched.matrices:
            union |= A > 0
        assert closure_strongly_connected(union)


def test_ring_six_two_window_verdicts_match_oracle():
    sched = ring_schedule(6, 2, 0.5)
    # no single round is strongly connected; any two consecutive rounds are
    for offset in range(2):
        assert not closure_strongly_connected(sched.at(offset) > 0)
        union = (sched.at(offset) > 0) | (sched.at(offset + 1) > 0)
        assert closure_strongly_connected(union)


def test_ring_full_validation_passes():
    for N, P in [(2, 1), (6, 2), (100, 10)]:
        reports = validate_schedule(ring_schedule(N, P, 0.5))
        assert all(r.passed for r in reports), [r.summary() for r in reports]


def test_ring_weight_floor_sits_below_weights():
    sched = ring_schedule(6, 2, 0.3)
    assert 0 < sched.weight_floor < 0.3
    assert check_weight_floor(sched).passed


def test_ring_parameter_guards():
    with pytest.raises(ParameterError):
        ring_schedule(1, 1, 0.5)
    with pytest.raises(ParameterError):
        ring_schedule(4, 0, 0.5)
    with pytest.raises(ParameterError):
        ring_schedule(4, 5, 0.5)
    with pytest.raises(ParameterError):
        ring_schedule(4, 2, 0.0)
    with pytest.raises(ParameterError):
        ring_schedule(4, 2, 1.0)


def test_schedule_equality():
    assert ring_schedule(6, 2, 0.5) == ring_schedule(6, 2, 0.5)
    assert ring_schedule(6, 2, 0.5) != ring_schedule(6, 3, 0.5)
    assert ring_schedule(6, 2, 0.5) != ring_schedule(6, 2, 0.4)
