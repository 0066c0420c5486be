"""End-to-end acceptance checks, one labeled verdict line per criterion.

Run with `pytest -v -s tests/test_acceptance.py` to see the verdict lines;
the heavyweight simulations are shared across criteria through module-scoped
fixtures (the 5-seed block-sampled batch and the 20 linear instances
dominate the runtime).
"""

import time

import numpy as np
import pytest

from dkmsim import (
    Affine,
    BlockPartition,
    BlockSelector,
    Box,
    GradientStep,
    GraphSchedule,
    Huber,
    Identity,
    OperatorFamily,
    PowerLawStepsize,
    Projection,
    Quadratic,
    RunConfig,
    UniformInit,
    Ball,
    build_linear_scenario,
    build_preset,
    centralized_km,
    check_doubly_stochastic,
    check_nonexpansive,
    check_q_strong_connectivity,
    check_stepsize_conditions,
    dbkm_step,
    dkm_step,
    draw_block,
    fit_consensus_rate,
    mix,
    random_linear_instance,
    read_trace,
    ring_schedule,
    run,
    staircase_boxes,
    weighted_block_norm,
)
from dkmsim.cli import EXIT_OK, main as cli_main

from oracles import closure_strongly_connected, dyadic_sum_verdict

STEP = PowerLawStepsize(1.0, 0.7, 1)


def report(num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({label}): {verdict} ({detail})")
    assert ok, f"criterion {num} ({label}): {detail}"


@pytest.fixture(scope="module")
def dkm6():
    config = build_preset("paper-dkm-6").config
    start = time.perf_counter()
    trace = run(config)
    return trace, time.perf_counter() - start


@pytest.fixture(scope="module")
def dbkm_batch():
    traces = []
    start = time.perf_counter()
    for seed in range(5):
        traces.append(run(build_preset("paper-dbkm-100", seed=seed).config))
    return traces, time.perf_counter() - start


@pytest.fixture(scope="module")
def linear_batch():
    traces = []
    for instance in range(20):
        matrices, offsets = random_linear_instance(instance)
        scenario = build_linear_scenario(
            matrices,
            offsets,
            ring_schedule(5, 2, 0.5),
            STEP,
            name=f"linear-{instance}",
            max_rounds=100_000,
            seed=instance,
            init=UniformInit(-5.0, 5.0),
        )
        traces.append(run(scenario.config))
    return traces


def test_criterion_1_six_agent_reproduction(dkm6):
    trace, elapsed = dkm6
    last = trace.last()
    ok = (
        last.consensus_residual < 1e-2
        and last.fp_residual < 1e-2
        and last.dist_to_ref < 5e-2
        and elapsed < 10.0
    )
    report(
        1,
        "6-agent full-update reproduction",
        ok,
        f"consensus {last.consensus_residual:.3g} < 1e-2, fixed-point {last.fp_residual:.3g} < 1e-2, "
        f"distance {last.dist_to_ref:.3g} < 5e-2, {elapsed:.2f}s",
    )


def test_criterion_2_hundred_agent_block_runs(dbkm_batch):
    traces, elapsed = dbkm_batch
    residuals = [t.last().fp_residual for t in traces]
    ok = all(r < 5e-2 for r in residuals) and elapsed < 120.0
    report(
        2,
        "100-agent block-sampled runs",
        ok,
        "fixed-point residuals " + ", ".join(f"{r:.3g}" for r in residuals) + f" all < 5e-2; {elapsed:.1f}s for 5 seeds",
    )


def test_criterion_3_linear_system_instances(linear_batch):
    dists = [t.last().dist_to_ref for t in linear_batch]
    worst = max(dists)
    report(3, "20 random linear systems", worst < 1e-3, f"worst final distance {worst:.3g} < 1e-3")


def test_criterion_4_degeneracy_identities():
    # (a) one agent: the distributed loop is the centralized iteration, bitwise
    part = BlockPartition.single(3)
    family = OperatorFamily([Projection(part, Box(np.zeros(3), np.ones(3)))])
    solo = GraphSchedule([np.eye(1)], Q=1, weight_floor=0.5)
    x0 = np.array([[4.0, -3.0, 0.5]])
    config = RunConfig(
        family=family, stepsize=STEP, schedule=solo, max_rounds=1000, init=x0, snapshot_every=1
    )
    trace = run(config)
    traj = centralized_km(family, x0[0], STEP, 1000)
    snaps = trace.snapshots
    single_agent = len(snaps) == 1001 and all(
        np.array_equal(snap[0], traj[k]) for k, snap in enumerate(snaps)
    )

    # (b) one block: the block-sampled loop is the full-update loop, bitwise
    stair = OperatorFamily([Projection(BlockPartition.single(3), b) for b in staircase_boxes(6)])
    kwargs = dict(
        family=stair,
        stepsize=STEP,
        schedule=ring_schedule(6, 2, 0.5),
        max_rounds=1000,
        seed=3,
        snapshot_every=100,
    )
    full = run(RunConfig(mode="dkm", **kwargs))
    blocked = run(RunConfig(mode="dbkm", selector=BlockSelector((1.0,)), **kwargs))
    single_block = (
        np.array_equal(full.final_states, blocked.final_states)
        and full.snapshot_rounds.tolist() == blocked.snapshot_rounds.tolist()
        and np.array_equal(full.snapshots, blocked.snapshots)
    )

    # (c) gradient-step members: one round is the descent update, within 1 ulp
    rng = np.random.default_rng(8)
    gpart = BlockPartition.single(3)
    worst_ulps = 0.0
    for trial in range(100):
        ops = []
        for _ in range(3):
            if trial % 2:
                obj = Quadratic(rng.standard_normal((4, 3)) * 0.4, rng.standard_normal(4))
            else:
                obj = Huber(rng.standard_normal(3), 1.0)
            ops.append(GradientStep(gpart, obj, tau=1.0 / obj.lipschitz_L))
        gfamily = OperatorFamily(ops)
        A = ring_schedule(3, 1, 0.5).at(trial)
        states = rng.uniform(-5, 5, (3, 3))
        alpha = float(rng.uniform(0.05, 1.0))
        stepped = dkm_step(states, A, gfamily, alpha)
        xhat = mix(A, states)
        for i, op in enumerate(ops):
            dgd = xhat[i] - alpha * (op.tau * op.objective.gradient(xhat[i]))
            gap = np.abs(stepped[i] - dgd)
            tol = np.spacing(np.maximum(np.abs(stepped[i]), np.abs(dgd)))
            with np.errstate(invalid="ignore"):
                ulps = np.where(gap == 0.0, 0.0, gap / tol)
            worst_ulps = max(worst_ulps, float(ulps.max()))
    descent = worst_ulps <= 1.0

    report(
        4,
        "degeneracy identities",
        single_agent and single_block and descent,
        f"single-agent bitwise over 10^3 rounds: {single_agent}; single-block bitwise: {single_block}; "
        f"descent-step max gap {worst_ulps:.0f} ulp",
    )


def test_criterion_5_assumption_validators():
    # analytic verdicts, with the failing condition named
    good = check_stepsize_conditions(STEP)
    slow = check_stepsize_conditions(PowerLawStepsize(1.0, 0.4, 1))
    fast = check_stepsize_conditions(PowerLawStepsize(1.0, 1.1, 1))
    named = (
        good.passed
        and not slow.passed
        and "condition (iii)" in slow.summary()
        and not fast.passed
        and "condition (ii)" in fast.summary()
    )

    # each analytic verdict agrees with the partial-sum oracle
    sums_agree = True
    for gamma in (0.4, 0.7, 1.0, 1.1):
        ss = PowerLawStepsize(1.0, gamma, 1)
        plain = dyadic_sum_verdict(lambda k: ss.alpha0 / (k + ss.k0) ** ss.gamma)
        coupled = dyadic_sum_verdict(
            lambda k: (ss.alpha0 / (k + ss.k0) ** ss.gamma)
            * (ss.alpha0 / (np.floor(k / 2) + ss.k0) ** ss.gamma)
        )
        oracle_passed = plain == "diverges" and coupled == "converges"
        sums_agree &= check_stepsize_conditions(ss).passed == oracle_passed

    # connectivity window verdicts, against the boolean-closure oracle
    sched = ring_schedule(6, 2, 0.5)
    graph_ok = True
    for Q, expected in ((2, True), (1, False)):
        rep = check_q_strong_connectivity(sched, Q)
        oracle = True
        for offset in range(sched.period):
            union = np.zeros((6, 6), dtype=bool)
            for step in range(1, Q + 1):
                union |= sched.at(offset + step) > 0
            oracle &= closure_strongly_connected(union)
        graph_ok &= rep.passed == expected and oracle == expected

    # row-stochastic is not enough
    lopsided = check_doubly_stochastic(np.array([[0.6, 0.4], [0.6, 0.4]]))
    graph_ok &= not lopsided.passed

    report(
        5,
        "assumption validators",
        named and sums_agree and graph_ok,
        f"stepsize conditions named: {named}; partial-sum oracle agreement: {sums_agree}; "
        f"connectivity + stochasticity verdicts: {graph_ok}",
    )


def test_criterion_6_nonexpansiveness_suite():
    part = BlockPartition((2, 1, 1))
    rng = np.random.default_rng(0)
    G = rng.standard_normal((4, 4))
    spd = G.T @ G + 0.1 * np.eye(4)
    theta_max = 2.0 / float(np.linalg.eigvalsh(spd)[-1])
    quad = Quadratic(rng.standard_normal((5, 4)), rng.standard_normal(5))
    catalog = {
        "identity": Identity(part),
        "box projection": Projection(part, Box(-np.ones(4), np.ones(4))),
        "ball projection": Projection(part, Ball(np.zeros(4), 2.0)),
        "quadratic gradient step": GradientStep(part, quad, tau=1.0 / quad.lipschitz_L),
        "huber gradient step": GradientStep(part, Huber(np.zeros(4), 1.0), tau=1.0),
        "affine": Affine(part, spd, rng.standard_normal(4), theta=theta_max),
    }
    results = {name: check_nonexpansive(op, num_pairs=1000, seed=7) for name, op in catalog.items()}
    all_pass = all(r.passed for r in results.values())

    bad = Affine(part, spd, np.zeros(4), theta=3.0 * theta_max / 2.0, validate=False)
    bad_report = check_nonexpansive(bad, num_pairs=1000, seed=7)
    caught = not bad_report.passed and len(bad_report.violations) >= 1

    report(
        6,
        "nonexpansiveness property suite",
        all_pass and caught,
        f"{len(catalog)} catalog operators pass 10^3 pairs at 1e-12; "
        f"oversized relaxation flagged with {len(bad_report.violations)} violation(s)",
    )


def mixed_family():
    part = BlockPartition((2, 1, 1))
    rng = np.random.default_rng(1)
    quad = Quadratic(rng.standard_normal((4, 4)) * 0.3, rng.standard_normal(4))
    return OperatorFamily(
        [
            Projection(part, Ball(rng.standard_normal(4), 2.0)),
            Projection(part, Box(-np.ones(4), rng.uniform(0.5, 2.0, 4))),
            GradientStep(part, Huber(rng.standard_normal(4), 1.0), tau=1.0),
            GradientStep(part, quad, tau=1.0 / quad.lipschitz_L),
        ]
    )


def test_criterion_7_proof_quantity_invariants(dkm6, dbkm_batch, linear_batch):
    family = mixed_family()
    part = family.partition
    schedule = ring_schedule(4, 2, 0.5)
    rng = np.random.default_rng(2)

    # full-update mean evolution, 10^3 rounds
    states = rng.uniform(-5, 5, (4, 4))
    worst_full = 0.0
    for k in range(1000):
        A = schedule.at(k)
        alpha = STEP.alpha(k)
        xhat = mix(A, states)
        nxt = dkm_step(states, A, family, alpha)
        predicted = states.mean(axis=0) + alpha * (family.evaluate_all(xhat).mean(axis=0) - states.mean(axis=0))
        worst_full = max(worst_full, float(np.abs(nxt.mean(axis=0) - predicted).max()))
        states = nxt

    # block-sampled mean evolution, per block, 10^3 rounds
    selector = BlockSelector.uniform(part.m)
    states = rng.uniform(-5, 5, (4, 4))
    worst_block = 0.0
    for k in range(1000):
        A = schedule.at(k)
        alpha = STEP.alpha(k)
        block = draw_block(selector, rng)
        xhat = mix(A, states)
        nxt = dbkm_step(states, A, family, alpha, block)
        for l in range(part.m):
            sl = part.block_slice(l)
            expected = states.mean(axis=0)[sl]
            if l == block:
                expected = expected + alpha * family.displacement_block_all(l, xhat).mean(axis=0)
            worst_block = max(worst_block, float(np.abs(nxt.mean(axis=0)[sl] - expected).max()))
        states = nxt
    means_ok = worst_full <= 1e-10 and worst_block <= 1e-10

    # norm sandwich for the probability-weighted block norm, 10^3 vectors
    wpart = BlockPartition((2, 3, 1, 4))
    worst_sandwich = 0.0
    for _ in range(1000):
        probs = rng.dirichlet(np.ones(wpart.m))
        probs = np.maximum(probs, 1e-3)
        probs = probs / probs.sum()
        y = rng.standard_normal(wpart.n)
        w = weighted_block_norm(y, wpart, probs)
        plain = float(np.linalg.norm(y))
        worst_sandwich = max(
            worst_sandwich,
            plain - w,
            w - plain / float(np.sqrt(probs.min())),
        )
    sandwich_ok = worst_sandwich <= 1e-12

    # fitted tail constant is finite and stable under doubling the tail start
    drifts = []
    for trace in [dkm6[0], dbkm_batch[0][0], linear_batch[0]]:
        base = trace.max_rounds // 10
        c1 = fit_consensus_rate(trace, tail_start=base)
        c2 = fit_consensus_rate(trace, tail_start=2 * base)
        assert np.isfinite(c1) and c1 > 0
        drifts.append(abs(c2 - c1) / c1)
    fit_ok = all(d < 0.5 for d in drifts)

    report(
        7,
        "proof-quantity invariants",
        means_ok and sandwich_ok and fit_ok,
        f"mean-evolution gaps {worst_full:.2e}/{worst_block:.2e} <= 1e-10; "
        f"sandwich slack {worst_sandwich:.2e} <= 1e-12; "
        f"tail-constant drifts {', '.join(f'{d:.0%}' for d in drifts)} < 50%",
    )


def test_criterion_8_boundedness(dkm6, dbkm_batch, linear_batch):
    # the running maximum of max_i ||x_i|| must not grow past 10x the level
    # it had reached by the first tenth of the round budget
    worst_ratio = 0.0
    for trace in [dkm6[0]] + dbkm_batch[0] + linear_batch:
        norms = trace.table["max_state_norm"].tolist()
        ks = trace.table["k"].tolist()
        tenth = trace.max_rounds // 10
        early_peak = max(v for k, v in zip(ks, norms) if k <= tenth)
        worst_ratio = max(worst_ratio, max(norms) / early_peak)
    report(
        8,
        "iterate boundedness",
        worst_ratio <= 10.0,
        f"late peak / early peak of max-agent norm = {worst_ratio:.2f} <= 10 on all 26 runs",
    )


def test_criterion_9_byte_identical_traces(tmp_path, capsys):
    outcomes = {}
    for preset, rounds in (("paper-dbkm-100", 2000), ("paper-dkm-6", 2000)):
        a = tmp_path / f"{preset}-a.csv"
        b = tmp_path / f"{preset}-b.csv"
        for path in (a, b):
            code = cli_main(["run", preset, "--max-rounds", str(rounds), "--output", str(path)])
            assert code == EXIT_OK
        outcomes[preset] = a.read_bytes() == b.read_bytes()
        if preset == "paper-dbkm-100":
            drawn = read_trace(a).table["selected_block"][:-1].tolist()
            outcomes["block column"] = all(d >= 0 for d in drawn) and len(set(drawn)) > 1
    capsys.readouterr()
    report(
        9,
        "byte-identical reruns",
        all(outcomes.values()),
        "; ".join(f"{k}: {v}" for k, v in outcomes.items()),
    )
