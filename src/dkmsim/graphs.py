"""Time-varying mixing graphs and their assumption checkers.

A mixing matrix A is row-oriented: A[i, j] > 0 means agent i hears from
agent j, and one mixing round maps the state matrix X to A @ X. Schedules
are periodic, so the joint-connectivity check over a window of Q
consecutive graphs only has to examine P distinct offsets.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .blocks import Float
from .errors import DimensionMismatchError, ParameterError
from .validation import ValidationReport, Violation, failed, passed

STOCHASTIC_TOL = 1e-12


def _check_square(A: NDArray[Float]) -> NDArray[Float]:
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"mixing matrix must be square, got shape {A.shape}")
    return A


def check_doubly_stochastic(A, tol: float = STOCHASTIC_TOL) -> ValidationReport:
    """Entries nonnegative, every row and column sums to 1 within tol."""
    A = _check_square(A)
    violations = []
    neg = np.argwhere(A < 0)
    for i, j in neg[:10]:
        violations.append(Violation(f"entry ({i},{j})", "negative weight", float(A[i, j])))
    rows = A.sum(axis=1)
    cols = A.sum(axis=0)
    for i in np.nonzero(np.abs(rows - 1.0) > tol)[0][:10]:
        violations.append(Violation(f"row {i}", "sum differs from 1", float(rows[i])))
    for j in np.nonzero(np.abs(cols - 1.0) > tol)[0][:10]:
        violations.append(Violation(f"column {j}", "sum differs from 1", float(cols[j])))
    name = "graph: doubly stochastic weights"
    if violations:
        return failed(name, violations)
    return passed(name, f"all row/column sums within {tol:g} of 1")


def strongly_connected(adjacency: NDArray[np.bool_]) -> bool:
    """True iff the boolean digraph has a single strongly connected component.

    adjacency[i, j] means an edge i -> j. Self-loops are irrelevant to the
    verdict. Every node must be reachable from node 0 both along the edges
    and against them.
    """
    n = adjacency.shape[0]
    tails, heads = (ends.tolist() for ends in np.nonzero(adjacency))
    return _reaches_all(n, tails, heads) and _reaches_all(n, heads, tails)


def _reaches_all(n: int, tails: list[int], heads: list[int]) -> bool:
    """Whether a depth-first search from node 0 along tail -> head edges visits all n nodes."""
    succ: list[list[int]] = [[] for _ in range(n)]
    for t, h in zip(tails, heads):
        succ[t].append(h)
    seen = {0}
    stack = [0]
    while stack:
        for w in succ[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


class GraphSchedule:
    """Periodic sequence of mixing matrices with a claimed window Q.

    matrices[k % period] is the graph used in round k. weight_floor is the
    strict lower bound every positive weight and every diagonal entry must
    clear (checked by check_weight_floor, not enforced here). ring_params is
    (N, P, w) for a ring_schedule, which lets configs serialize the compact form.
    """

    ring_params: tuple[int, int, float] | None = None

    def __init__(self, matrices: list, Q: int, weight_floor: float):
        if len(matrices) == 0:
            raise ParameterError("a schedule needs at least one matrix")
        mats = [_check_square(A) for A in matrices]
        n = mats[0].shape[0]
        for t, A in enumerate(mats):
            if A.shape[0] != n:
                raise DimensionMismatchError(
                    f"schedule matrix {t} is {A.shape[0]}x{A.shape[0]}, expected {n}x{n}"
                )
            if not np.all(np.isfinite(A)):
                raise ParameterError(f"schedule matrix {t} has non-finite entries")
        Q = int(Q)
        if Q < 1:
            raise ParameterError(f"connectivity window Q must be >= 1, got {Q}")
        weight_floor = float(weight_floor)
        if not 0.0 < weight_floor < 1.0:
            raise ParameterError(f"weight floor must lie in (0, 1), got {weight_floor}")
        self.matrices = mats
        self.period = len(mats)
        self.n_agents = n
        self.Q = Q
        self.weight_floor = weight_floor

    def at(self, k: int) -> NDArray[Float]:
        """Mixing matrix for round k."""
        return self.matrices[k % self.period]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GraphSchedule)
            and self.period == other.period
            and self.Q == other.Q
            and self.weight_floor == other.weight_floor
            and all(np.array_equal(a, b) for a, b in zip(self.matrices, other.matrices))
        )


class _RingSchedule(GraphSchedule):
    def __init__(self, matrices: list, Q: int, weight_floor: float, ring_params: tuple[int, int, float]):
        super().__init__(matrices, Q, weight_floor)
        self.ring_params = ring_params


def mix(A, states) -> NDArray[Float]:
    """One mixing round: row i of the result is sum_j A[i,j] states[j]."""
    A = _check_square(A)
    states = np.asarray(states, dtype=np.float64)
    if states.shape[0] != A.shape[0]:
        raise DimensionMismatchError(
            f"state matrix has {states.shape[0]} rows but the graph has {A.shape[0]} agents"
        )
    return A @ states


def check_weight_floor(schedule: GraphSchedule) -> ValidationReport:
    """Every positive weight and every diagonal entry exceeds the floor strictly."""
    floor = schedule.weight_floor
    violations = []
    for t, A in enumerate(schedule.matrices):
        diag = np.diag(A)
        for i in np.nonzero(diag <= floor)[0][:10]:
            violations.append(
                Violation(f"graph {t}, diagonal ({i},{i})", "diagonal at or below floor", float(diag[i]))
            )
        small = np.argwhere((A > 0) & (A <= floor))
        for i, j in small[:10]:
            if i != j:
                violations.append(
                    Violation(f"graph {t}, entry ({i},{j})", "positive weight at or below floor", float(A[i, j]))
                )
    name = "graph: positive weights above floor"
    if violations:
        return failed(name, violations, f"floor {floor:g}")
    return passed(name, f"floor {floor:g} over {schedule.period} graphs")


def check_q_strong_connectivity(schedule: GraphSchedule, Q: int | None = None) -> ValidationReport:
    """Union of each window of Q consecutive graphs is strongly connected.

    Periodicity reduces the infinitely many windows to the period's distinct
    offsets. Edges are read as information flow j -> i when A[i, j] > 0;
    connectivity of the union digraph is what matters, so edge direction is
    taken in either convention (strong connectivity of a union of graphs is
    invariant under globally transposing all of them).
    """
    if Q is None:
        Q = schedule.Q
    Q = int(Q)
    if Q < 1:
        raise ParameterError(f"connectivity window Q must be >= 1, got {Q}")
    violations = []
    for offset in range(schedule.period):
        union = np.zeros((schedule.n_agents, schedule.n_agents), dtype=bool)
        for l in range(1, Q + 1):
            union |= schedule.at(offset + l) > 0
        if not strongly_connected(union):
            violations.append(
                Violation(f"window starting after round {offset}", f"union of {Q} graphs is not strongly connected")
            )
    name = f"graph: strong connectivity over window Q={Q}"
    if violations:
        return failed(name, violations)
    return passed(name, f"{schedule.period} window offsets checked")


def validate_schedule(schedule: GraphSchedule, stochastic_tol: float = STOCHASTIC_TOL) -> list[ValidationReport]:
    """All three graph checks: stochasticity per graph, floor, connectivity."""
    reports = []
    stoch_violations = []
    for t, A in enumerate(schedule.matrices):
        rep = check_doubly_stochastic(A, stochastic_tol)
        if not rep.passed:
            for v in rep.violations:
                stoch_violations.append(Violation(f"graph {t}, {v.where}", v.message, v.value))
    name = "graph: doubly stochastic weights"
    if stoch_violations:
        reports.append(failed(name, stoch_violations))
    else:
        reports.append(passed(name, f"{schedule.period} graphs, tol {stochastic_tol:g}"))
    reports.append(check_weight_floor(schedule))
    reports.append(check_q_strong_connectivity(schedule))
    return reports


def ring_schedule(n_agents: int, period: int, weight: float = 0.5) -> GraphSchedule:
    """Directed-ring schedule: the cycle's edges spread over `period` rounds.

    Edge j -> j+1 (mod N) is active in round j % period. Each round's active
    edges are closed into cyclic permutations on their own nodes (an isolated
    edge becomes a two-agent swap), giving a permutation matrix S_t; the
    mixing matrix is A_t = (1 - weight) I + weight S_t, doubly stochastic by
    construction. Any `period` consecutive rounds activate every cycle edge,
    so the schedule satisfies the connectivity window Q = period; for
    period >= 2 and N >= 4 no single round's graph is strongly connected.
    """
    N = int(n_agents)
    P = int(period)
    w = float(weight)
    if N < 2:
        raise ParameterError(f"ring schedule needs at least 2 agents, got {N}")
    if not 1 <= P <= N:
        raise ParameterError(f"period must lie in [1, {N}], got {P}")
    if not 0.0 < w < 1.0:
        raise ParameterError(f"weight must lie in (0, 1), got {w}")

    matrices = []
    for t in range(P):
        in_group = [j % P == t for j in range(N)]  # edge j: j -> j+1 (mod N)
        source = list(range(N))  # source[i] = j means agent i hears from j
        visited = [False] * N
        for j0 in range(N):
            if not in_group[j0] or visited[j0]:
                continue
            # walk back to the start of this maximal run of active edges
            start = j0
            while in_group[(start - 1) % N] and (start - 1) % N != j0:
                start = (start - 1) % N
            # follow the run forward, wiring each head to its tail
            j = start
            run = []
            while in_group[j] and not visited[j]:
                visited[j] = True
                run.append(j)
                source[(j + 1) % N] = j
                j = (j + 1) % N
            head = (run[-1] + 1) % N
            if head != start:
                # open path: close it into a cycle on its own nodes
                source[start] = head
        S = np.zeros((N, N))
        S[np.arange(N), source] = 1.0
        matrices.append((1.0 - w) * np.eye(N) + w * S)

    floor = (1.0 - 1e-9) * min(w, 1.0 - w)
    return _RingSchedule(matrices, Q=P, weight_floor=floor, ring_params=(N, P, w))
