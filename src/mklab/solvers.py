"""Exact solvers for the transport problems on finite spaces.

Two engines back these entry points: the network simplex for the pure
transportation structures (primal, partial, restricted) and the dense
tableau simplex for everything else (the explicit dual, the budgeted
relaxed dual).  Both are exact LP methods in float64; the pair doubles
as a built-in cross-check since several problems can be pushed through
either engine.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dense_simplex, network_simplex
from .core import (
    CostMatrix,
    DualityReport,
    InfeasibleError,
    InvariantError,
    Marginal,
    MKLabError,
    PlanKind,
    PotentialPair,
    ShapeError,
    SolverStats,
    TransportPlan,
    UnboundedError,
    MARGINAL_TOL,
    gauge_normalized,
    transport_cost,
    verify_exact_coupling,
    verify_sub_coupling,
)


@dataclass(frozen=True)
class SolverConfig:
    feasibility_tol: float = 1e-9
    optimality_tol: float = 1e-9
    max_iterations: int = 10 ** 6

    def __post_init__(self) -> None:
        if not all(math.isfinite(t) and t > 0
                   for t in (self.feasibility_tol, self.optimality_tol)):
            raise InvariantError("tolerances must be positive and finite")
        if self.feasibility_tol >= 1:
            raise InvariantError(
                "feasibility_tol must be below 1: marginals are probability vectors")
        if self.max_iterations <= 0:
            raise InvariantError("max_iterations must be positive")


DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class EpsilonSweep:
    """Values of an epsilon-indexed program along a decreasing grid.

    ``extrapolated_limit`` extends the last linear piece of the
    piecewise-linear value function to epsilon = 0.
    """

    epsilons: tuple[float, ...]
    values: tuple[float, ...]
    extrapolated_limit: float

    def __post_init__(self) -> None:
        eps = _decreasing_grid(self.epsilons)
        if any(not (0.0 < e <= 1.0) for e in eps):
            raise InvariantError("epsilons must lie in (0, 1]")
        if len(self.values) != len(eps):
            raise InvariantError("one value per epsilon required")


def _decreasing_grid(grid) -> tuple[float, ...]:
    """The grid as floats; raises unless nonempty, finite and strictly decreasing."""
    eps = tuple(float(e) for e in grid)
    if not eps:
        raise InvariantError("empty epsilon grid")
    if not all(math.isfinite(e) for e in eps):
        raise InvariantError(f"epsilons must be finite, got {eps}")
    if any(later >= earlier for later, earlier in zip(eps[1:], eps)):
        raise InvariantError("epsilons must be strictly decreasing")
    return eps


def _check_shapes(cost: CostMatrix, mu: Marginal, nu: Marginal) -> None:
    if cost.shape != (mu.size, nu.size):
        raise ShapeError(f"cost {cost.shape} does not match marginals ({mu.size}, {nu.size})")


def _finite_arcs(cost: CostMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    tails, heads = np.nonzero(cost.finite_mask)
    return tails, heads, cost.entries[tails, heads]


def _plan_from_flows(shape, tails, heads, flows, kind: PlanKind) -> TransportPlan:
    mass = np.zeros(shape)
    mass[tails, heads] = np.clip(flows, 0.0, None)
    return TransportPlan(mass, kind)


def _stats(t0: float, iterations: int, pivots: int) -> SolverStats:
    return SolverStats(iterations=iterations, pivots=pivots,
                       wall_ms=(time.perf_counter() - t0) * 1e3)


def _exact_report(cost: CostMatrix, mu: Marginal, nu: Marginal, tails, heads,
                  flows, pots: PotentialPair, res, t0: float) -> DualityReport:
    """Verify an exact plan from arc flows and report it with its gauged duals."""
    plan = _plan_from_flows(cost.shape, tails, heads, flows, PlanKind.EXACT)
    verify_exact_coupling(plan, mu, nu, MARGINAL_TOL)
    pots = gauge_normalized(pots, mu)
    primal = transport_cost(cost, plan)
    dual = float(np.dot(pots.phi, mu.weights) + np.dot(pots.psi, nu.weights))
    return DualityReport(
        primal_value=primal, dual_value=dual,
        optimal_plan=plan, optimal_potentials=pots,
        gap=primal - dual, stats=_stats(t0, res.iterations, res.pivots))


def solve_primal(cost: CostMatrix, mu: Marginal, nu: Marginal,
                 cfg: SolverConfig = DEFAULT_CONFIG) -> DualityReport:
    """Minimum-cost exact coupling of (mu, nu) over finite-cost cells.

    Returns the optimal plan together with the LP potentials, which are
    feasible (phi + psi <= c on finite cells) and tight on the support of
    the plan, gauge-normalized so that sum(phi * mu) = 0.
    """
    t0 = time.perf_counter()
    _check_shapes(cost, mu, nu)
    fin = cost.finite_mask
    rows_dead = (~fin.any(axis=1)) & (mu.weights > cfg.feasibility_tol)
    cols_dead = (~fin.any(axis=0)) & (nu.weights > cfg.feasibility_tol)
    if rows_dead.any() or cols_dead.any():
        raise InfeasibleError("a point with positive mass has no finite-cost cell")
    tails, heads, costs = _finite_arcs(cost)
    res = network_simplex.solve_bipartite(
        mu.weights, nu.weights, tails, heads, costs,
        feasibility_tol=cfg.feasibility_tol,
        optimality_tol=cfg.optimality_tol,
        max_iterations=cfg.max_iterations,
    )
    pots = PotentialPair(res.source_potentials, res.sink_potentials)
    return _exact_report(cost, mu, nu, tails, heads, res.flow, pots, res, t0)


def solve_dual(cost: CostMatrix, mu: Marginal, nu: Marginal,
               cfg: SolverConfig = DEFAULT_CONFIG) -> DualityReport:
    """Maximize sum(phi mu) + sum(psi nu) subject to phi + psi <= c.

    Solved through the dense engine on the coupling program in equality
    form; the potentials are the exact LP multipliers of the optimal
    basis, so this is an engine-independent counterpart of
    :func:`solve_primal` (infinite-cost cells impose no constraint).
    """
    t0 = time.perf_counter()
    _check_shapes(cost, mu, nu)
    tails, heads, costs = _finite_arcs(cost)
    m, n = cost.shape
    n_arcs = costs.size
    lhs = np.zeros((m + n, n_arcs))
    lhs[tails, np.arange(n_arcs)] = 1.0
    lhs[m + heads, np.arange(n_arcs)] = 1.0
    rhs = np.concatenate([mu.weights, nu.weights])
    try:
        res = dense_simplex.solve_dense(
            costs, lhs, ["eq"] * (m + n), rhs,
            feasibility_tol=cfg.feasibility_tol,
            optimality_tol=cfg.optimality_tol,
            max_iterations=cfg.max_iterations,
        )
    except UnboundedError as exc:  # pragma: no cover - c >= 0 forbids this
        raise UnboundedError(f"internal: dual-side program unbounded ({exc})") from exc
    pots = PotentialPair(res.duals[:m], res.duals[m:])
    return _exact_report(cost, mu, nu, tails, heads, res.x, pots, res, t0)


def solve_partial(cost: CostMatrix, mu: Marginal, nu: Marginal, eps: float,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> DualityReport:
    """Cheapest sub-coupling carrying mass at least 1 - eps.

    Row sums are dominated by mu, column sums by nu, and the plan avoids
    infinite-cost cells.  Solved as a balanced transportation problem
    with one overflow sink, one shortfall source, and a slack arc between
    them, each carrying mass budget eps at zero cost.
    """
    t0 = time.perf_counter()
    _check_shapes(cost, mu, nu)
    if not (0.0 <= eps <= 1.0):
        raise InvariantError(f"eps must lie in [0, 1], got {eps!r}")
    tails, heads, costs = _finite_arcs(cost)
    m, n = cost.shape
    n_real = costs.size
    aug_tails = np.concatenate([tails, np.arange(m), np.full(n + 1, m)])
    aug_heads = np.concatenate([heads, np.full(m, n), np.arange(n + 1)])
    aug_costs = np.concatenate([costs, np.zeros(m + n + 1)])
    supplies = np.concatenate([mu.weights, [eps]])
    demands = np.concatenate([nu.weights, [eps]])
    res = network_simplex.solve_bipartite(
        supplies, demands, aug_tails, aug_heads, aug_costs,
        feasibility_tol=cfg.feasibility_tol,
        optimality_tol=cfg.optimality_tol,
        max_iterations=cfg.max_iterations,
    )
    plan = _plan_from_flows(cost.shape, tails, heads, res.flow[:n_real], PlanKind.SUB)
    verify_sub_coupling(plan, mu, nu, MARGINAL_TOL)
    if plan.total_mass() < 1.0 - eps - MARGINAL_TOL:
        raise InvariantError("partial solver returned insufficient mass")  # pragma: no cover
    value = transport_cost(cost, plan)
    return DualityReport(
        primal_value=value, dual_value=value,
        optimal_plan=plan, optimal_potentials=None,
        gap=0.0, stats=_stats(t0, res.iterations, res.pivots))


def extrapolate_to_zero(epsilons: tuple[float, ...], values: tuple[float, ...]) -> float:
    """Extend the line through the two smallest-epsilon points to zero."""
    if len(epsilons) == 1:
        return values[0]
    e1, e0 = epsilons[-2], epsilons[-1]
    v1, v0 = values[-2], values[-1]
    slope = (v1 - v0) / (e1 - e0)
    return v0 - slope * e0


def estimate_relaxed_primal(cost: CostMatrix, mu: Marginal, nu: Marginal,
                            eps_grid, cfg: SolverConfig = DEFAULT_CONFIG) -> EpsilonSweep:
    """Partial-transport values along a decreasing grid with their limit at 0.

    The value function is convex and piecewise linear in eps, so the last
    linear segment extended to eps = 0 recovers the vanishing-deficit
    limit whenever the grid reaches that segment.
    """
    eps = _decreasing_grid(eps_grid)
    if any(not (0.0 < e < 1.0) for e in eps):
        raise InvariantError("grid epsilons must lie in (0, 1)")
    values = tuple(solve_partial(cost, mu, nu, e, cfg).primal_value for e in eps)
    # the feasible set shrinks as eps falls, so values may only rise
    if any(later < earlier - 10 * cfg.optimality_tol
           for earlier, later in zip(values, values[1:])):
        raise MKLabError("partial values decreased along a shrinking grid")
    return EpsilonSweep(epsilons=eps, values=values,
                        extrapolated_limit=extrapolate_to_zero(eps, values))


def _require_reference_plan(cost: CostMatrix, pi0: TransportPlan) -> None:
    if pi0.kind is not PlanKind.EXACT:
        raise InvariantError("reference plan must be an exact coupling")
    if pi0.shape != cost.shape:
        raise ShapeError(f"reference plan {pi0.shape} vs cost {cost.shape}")
    if abs(pi0.total_mass() - 1.0) > MARGINAL_TOL:
        raise InvariantError("reference plan must carry total mass 1")
    if not math.isfinite(transport_cost(cost, pi0)):
        raise InvariantError("reference plan must have finite cost")


def solve_restricted_primal(cost: CostMatrix, pi0: TransportPlan,
                            cfg: SolverConfig = DEFAULT_CONFIG) -> DualityReport:
    """Minimum cost over couplings supported inside supp(pi0).

    The marginals are those of pi0 itself; on a finite space the bounded
    density condition relative to pi0 is exactly support containment.
    """
    t0 = time.perf_counter()
    _require_reference_plan(cost, pi0)
    mu = Marginal(pi0.row_sums() / pi0.total_mass())
    nu = Marginal(pi0.col_sums() / pi0.total_mass())
    tails, heads = np.nonzero(pi0.support())
    costs = cost.entries[tails, heads]
    try:
        res = network_simplex.solve_bipartite(
            mu.weights, nu.weights, tails, heads, costs,
            feasibility_tol=cfg.feasibility_tol,
            optimality_tol=cfg.optimality_tol,
            max_iterations=cfg.max_iterations,
        )
    except InfeasibleError as exc:  # pragma: no cover - pi0 itself is feasible
        raise InvariantError(f"internal: restricted problem infeasible ({exc})") from exc
    pots = PotentialPair(res.source_potentials, res.sink_potentials)
    return _exact_report(cost, mu, nu, tails, heads, res.flow, pots, res, t0)


def solve_relaxed_dual(cost: CostMatrix, mu: Marginal, nu: Marginal,
                       pi0: TransportPlan, eps: float,
                       cfg: SolverConfig = DEFAULT_CONFIG) -> DualityReport:
    """Maximize sum(phi mu) + sum(psi nu) under a budgeted feasibility breach.

    The constraint charges the positive part of phi + psi - c against
    pi0: one slack per support cell with s >= phi + psi - c, s >= 0 and
    sum(s * pi0) <= eps.  Cells outside supp(pi0) are unconstrained.
    Both value fields of the report carry the optimum of this program.
    """
    t0 = time.perf_counter()
    _check_shapes(cost, mu, nu)
    _require_reference_plan(cost, pi0)
    # matching marginals keep the program bounded: every phi/psi
    # coordinate with mass is charged by some support cell
    verify_exact_coupling(pi0, mu, nu, MARGINAL_TOL)
    if not 0.0 < eps < math.inf:
        raise InvariantError(f"eps must be positive and finite, got {eps!r}")
    m, n = cost.shape
    tails, heads = np.nonzero(pi0.support())
    weights = pi0.mass[tails, heads]
    cell_costs = cost.entries[tails, heads]
    k = tails.size
    # columns: phi+ (m), phi- (m), psi+ (n), psi- (n), slack s (k)
    n_vars = 2 * m + 2 * n + k
    objective = np.concatenate([-mu.weights, mu.weights, -nu.weights, nu.weights,
                                np.zeros(k)])
    lhs = np.zeros((k + 1, n_vars))
    rows = np.arange(k)
    lhs[rows, tails] = 1.0
    lhs[rows, m + tails] = -1.0
    lhs[rows, 2 * m + heads] = 1.0
    lhs[rows, 2 * m + n + heads] = -1.0
    lhs[rows, 2 * m + 2 * n + rows] = -1.0
    lhs[k, 2 * m + 2 * n:] = weights
    rhs = np.concatenate([cell_costs, [eps]])
    try:
        res = dense_simplex.solve_dense(
            objective, lhs, ["le"] * (k + 1), rhs,
            feasibility_tol=cfg.feasibility_tol,
            optimality_tol=cfg.optimality_tol,
            max_iterations=cfg.max_iterations,
        )
    except UnboundedError as exc:
        raise UnboundedError(
            "internal: budgeted dual is unbounded, reference marginals must "
            f"charge every potential coordinate ({exc})") from exc
    phi = res.x[:m] - res.x[m:2 * m]
    psi = res.x[2 * m:2 * m + n] - res.x[2 * m + n:2 * m + 2 * n]
    pots = gauge_normalized(PotentialPair(phi, psi), mu)
    value = -res.value
    return DualityReport(
        primal_value=value, dual_value=value,
        optimal_plan=None, optimal_potentials=pots,
        gap=0.0, stats=_stats(t0, res.iterations, res.pivots))


def dual_sequence(cost: CostMatrix, mu: Marginal, nu: Marginal,
                  pi0: TransportPlan, eps_list,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> list[PotentialPair]:
    """Optimizing potentials of the budgeted dual along a decreasing grid.

    Each pair is gauge-normalized (sum(phi * mu) = 0), which pins down
    the additive degeneracy and makes the sequence reproducible.
    """
    eps = _decreasing_grid(eps_list)
    if any(e <= 0 for e in eps):
        raise InvariantError("epsilons must be positive")
    out = []
    for e in eps:
        report = solve_relaxed_dual(cost, mu, nu, pi0, e, cfg)
        assert report.optimal_potentials is not None
        out.append(report.optimal_potentials)
    return out


def relaxed_dual_sweep(cost: CostMatrix, mu: Marginal, nu: Marginal,
                       pi0: TransportPlan, eps_grid,
                       cfg: SolverConfig = DEFAULT_CONFIG) -> EpsilonSweep:
    """Budgeted-dual values along a decreasing grid with their limit at 0.

    The vanishing-budget limit of this concave piecewise-linear value
    function equals the restricted primal value (finite LP duality), so
    the extrapolated limit cross-checks :func:`solve_restricted_primal`.
    """
    eps = _decreasing_grid(eps_grid)
    values = tuple(solve_relaxed_dual(cost, mu, nu, pi0, e, cfg).dual_value
                   for e in eps)
    # the budget shrinks as eps falls, so values may only drop
    if any(later > earlier + 10 * cfg.optimality_tol
           for earlier, later in zip(values, values[1:])):
        raise MKLabError("budgeted-dual values increased along a shrinking grid")
    return EpsilonSweep(epsilons=eps, values=values,
                        extrapolated_limit=extrapolate_to_zero(eps, values))
