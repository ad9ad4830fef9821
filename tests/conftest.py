"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from mklab import CostMatrix, Marginal, PlanKind, PotentialPair, TransportPlan
from mklab.dense_simplex import DenseResult, solve_dense


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def random_marginal(rng: np.random.Generator, size: int) -> Marginal:
    w = rng.uniform(0.1, 1.0, size)
    return Marginal(w / w.sum())


def random_cost(rng: np.random.Generator, m: int, n: int, high: float = 5.0) -> CostMatrix:
    return CostMatrix(rng.uniform(0.0, high, size=(m, n)))


def nw_corner(mu: Marginal, nu: Marginal) -> TransportPlan:
    """Northwest-corner coupling of two marginals."""
    row = mu.weights.copy()
    col = nu.weights.copy()
    mass = np.zeros((row.size, col.size))
    i = j = 0
    while i < row.size and j < col.size:
        t = min(row[i], col[j])
        mass[i, j] = t
        row[i] -= t
        col[j] -= t
        if row[i] <= col[j]:
            i += 1
        else:
            j += 1
    return TransportPlan(mass, PlanKind.EXACT)


def shuffled_coupling(rng: np.random.Generator, mu: Marginal, nu: Marginal) -> TransportPlan:
    """Greedy fill over all cells in a random order; always an exact coupling."""
    row = mu.weights.copy()
    col = nu.weights.copy()
    mass = np.zeros((row.size, col.size))
    cells = [(i, j) for i in range(row.size) for j in range(col.size)]
    rng.shuffle(cells)
    for i, j in cells:
        t = min(row[i], col[j])
        if t > 0:
            mass[i, j] = t
            row[i] -= t
            col[j] -= t
    return TransportPlan(mass, PlanKind.EXACT)


def dense_transport(m: int, n: int, tails: np.ndarray, heads: np.ndarray,
                    costs: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> DenseResult:
    """The transportation program over the arcs (tails[k], heads[k]) of
    cost costs[k], in equality form on the dense tableau.

    ``duals`` are the row multipliers, the m source ones then the n sink
    ones.  This engine shares no code with the network simplex, so it is
    the second engine for cross-checks.
    """
    cols = np.arange(costs.size)
    lhs = np.zeros((m + n, costs.size))
    lhs[tails, cols] = 1.0
    lhs[m + heads, cols] = 1.0
    return solve_dense(costs, lhs, ["eq"] * (m + n), np.concatenate([mu, nu]))


def dense_coupling(cost: CostMatrix, mu: Marginal, nu: Marginal) -> DenseResult:
    """The coupling program over the finite cells of ``cost``; ``value`` is
    the optimum and ``duals`` are phi then psi."""
    tails, heads = np.nonzero(cost.finite_mask)
    return dense_transport(*cost.shape, tails, heads, cost.entries[tails, heads],
                           mu.weights, nu.weights)


def dense_relaxed_dual(cost: CostMatrix, mu: Marginal, nu: Marginal,
                       pi0: TransportPlan, eps: float) -> tuple[float, PotentialPair]:
    """The budgeted relaxed dual in its own "le" form on the dense tableau.

    Maximizes sum(phi mu) + sum(psi nu) over free phi, psi (each split
    into two nonnegative parts) and slacks s >= 0 with
    phi_i + psi_j - s_k <= c_k on supp(pi0) and sum(pi0 * s) <= eps.
    Returns the optimal value and pair.
    """
    m, n = cost.shape
    tails, heads = np.nonzero(pi0.support())
    k = tails.size
    objective = np.concatenate([-mu.weights, mu.weights, -nu.weights, nu.weights,
                                np.zeros(k)])
    lhs = np.zeros((k + 1, 2 * m + 2 * n + k))
    rows = np.arange(k)
    lhs[rows, tails] = 1.0
    lhs[rows, m + tails] = -1.0
    lhs[rows, 2 * m + heads] = 1.0
    lhs[rows, 2 * m + n + heads] = -1.0
    lhs[rows, 2 * m + 2 * n + rows] = -1.0
    lhs[k, 2 * m + 2 * n:] = pi0.mass[tails, heads]
    rhs = np.concatenate([cost.entries[tails, heads], [eps]])
    res = solve_dense(objective, lhs, ["le"] * (k + 1), rhs)
    phi = res.x[:m] - res.x[m:2 * m]
    psi = res.x[2 * m:2 * m + n] - res.x[2 * m + n:2 * m + 2 * n]
    return -res.value, PotentialPair(phi, psi)


def assert_same_report(report, cold) -> None:
    """Two reports agree bit for bit apart from ``wall_ms``."""
    assert (report.primal_value, report.dual_value, report.gap) == (
        cold.primal_value, cold.dual_value, cold.gap)
    assert np.array_equal(report.optimal_potentials.phi, cold.optimal_potentials.phi)
    assert np.array_equal(report.optimal_potentials.psi, cold.optimal_potentials.psi)
    assert (report.stats.iterations, report.stats.pivots) == (
        cold.stats.iterations, cold.stats.pivots)


def enumerate_vertex_minimum(cost: CostMatrix, mu: Marginal, nu: Marginal) -> float | None:
    """Brute-force optimum by enumerating all basic solutions (small sizes).

    Walks every spanning tree of the bipartite graph of finite-cost
    cells, solves the tree flows by leaf elimination, and keeps the
    cheapest nonnegative one.  Returns None when no feasible tree exists.
    """
    m, n = cost.shape
    assert m * n <= 16, "oracle is exponential; keep it tiny"
    edges = [(i, j) for i in range(m) for j in range(n)
             if math.isfinite(cost.entries[i, j])]
    best: float | None = None
    need = m + n - 1
    for tree in itertools.combinations(edges, need):
        deg: dict[tuple[str, int], list[tuple[int, int]]] = {}
        for i, j in tree:
            deg.setdefault(("r", i), []).append((i, j))
            deg.setdefault(("c", j), []).append((i, j))
        if len(deg) != m + n:
            continue
        row = mu.weights.copy()
        col = nu.weights.copy()
        remaining = {e: True for e in tree}
        incident = {node: list(es) for node, es in deg.items()}
        flows: dict[tuple[int, int], float] = {}
        ok = True
        changed = True
        while changed and any(remaining.values()):
            changed = False
            for node, es in incident.items():
                live = [e for e in es if remaining[e]]
                if len(live) != 1:
                    continue
                e = live[0]
                i, j = e
                if node[0] == "r":
                    f = row[i]
                    col[j] -= f
                else:
                    f = col[j]
                    row[i] -= f
                flows[e] = f
                remaining[e] = False
                changed = True
        if any(remaining.values()):
            continue  # cyclic edge set, not a tree
        if any(f < -1e-12 for f in flows.values()):
            ok = False
        if not ok:
            continue
        value = sum(cost.entries[i, j] * max(f, 0.0) for (i, j), f in flows.items())
        if best is None or value < best:
            best = value
    return best
