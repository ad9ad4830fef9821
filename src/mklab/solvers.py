"""Exact solvers for the transport problems on finite spaces.

Every entry point runs on the network simplex.  Primal, dual, partial
and restricted are transportation problems as they stand; the budgeted
relaxed dual is one through LP duality: its value is the minimum over
a density bound lambda of eps * lambda plus the cheapest coupling whose
density against the reference plan stays below lambda, and each such
coupling is a plain transportation problem after a node split (see
:func:`solve_relaxed_dual`).  The dense tableau simplex in
:mod:`mklab.dense_simplex` is kept as an independent test oracle and
is not imported here.

The epsilon-indexed programs are read along grids by one loop,
:func:`_sweep`, behind :func:`estimate_relaxed_primal`,
:func:`relaxed_dual_sweep` and :func:`dual_sequence`.  A grid must be
nonempty, strictly decreasing and inside (0, 1]; it is checked before
any solve.  A relaxed-dual sweep runs every network solve that does not
depend on eps once for the whole grid.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import network_simplex
from .core import (
    CostMatrix,
    DualityReport,
    InvariantError,
    IterationLimitError,
    Marginal,
    MKLabError,
    PlanKind,
    PotentialPair,
    ShapeError,
    SolverStats,
    TransportPlan,
    MARGINAL_TOL,
    _Fresh,
    gauge_normalized,
    transport_cost,
    verify_exact_coupling,
    verify_sub_coupling,
)


#: Network solves one relaxed-dual call may rest on before IterationLimitError.
MAX_NETWORK_SOLVES = 10 ** 6


@dataclass(frozen=True)
class EpsilonSweep:
    """The report at each epsilon along a checked grid, and the limit at 0.

    ``reports`` holds the solve at each epsilon, without its plan, and
    ``values`` the value read off it.  ``limit`` is the value at
    epsilon = 0: exact for the budgeted relaxed dual, where it is the
    restricted primal value; for partial transport it extends the last
    linear piece of the piecewise-linear value function to 0.
    """

    epsilons: tuple[float, ...]
    reports: tuple[DualityReport, ...]
    values: tuple[float, ...]
    limit: float


def _grid(eps_grid) -> tuple[float, ...]:
    """The grid as floats; raises unless nonempty, strictly decreasing and inside (0, 1]."""
    eps = tuple(float(e) for e in eps_grid)
    # NaN and inf fail the range test
    if not eps or not all(0.0 < e <= 1.0 for e in eps):
        raise InvariantError(f"epsilons must form a nonempty grid in (0, 1], got {eps}")
    if any(later >= earlier for later, earlier in zip(eps[1:], eps)):
        raise InvariantError(f"epsilons must be strictly decreasing, got {eps}")
    return eps


def _check_shapes(cost: CostMatrix, mu: Marginal, nu: Marginal) -> None:
    if cost.shape != (mu.size, nu.size):
        raise ShapeError(f"cost {cost.shape} does not match marginals ({mu.size}, {nu.size})")


def _plan_from_flows(shape, tails, heads, flows, kind: PlanKind) -> TransportPlan:
    """The plan that carries ``flows`` on the cells (tails, heads), in a fresh array.

    Only the cells whose flow is not +0.0 are written: an optimal basis
    carries at most m + n - 1 of them.
    """
    mass = np.zeros(shape)
    # -0.0 == 0.0, so its sign bit tells it from the +0.0 already there
    carried = np.flatnonzero((flows != 0.0) | np.signbit(flows))
    mass[tails[carried], heads[carried]] = flows[carried]
    return TransportPlan(_Fresh(mass), kind)


def _finite_arcs_cost(costs: np.ndarray, flows: np.ndarray) -> float:
    """The cost of flows on all of ``cost.finite_arcs``, priced without the n x n plan.

    Those arcs are the finite cells in row-major order, which is where
    and in what order :func:`transport_cost` multiplies and sums, so the
    value is the same to the bit.
    """
    return float(np.sum(costs * flows))


def _stats(t0: float, iterations: int, pivots: int) -> SolverStats:
    return SolverStats(iterations=iterations, pivots=pivots,
                       wall_ms=(time.perf_counter() - t0) * 1e3)


def _exact_report(mu: Marginal, nu: Marginal, plan: TransportPlan, primal: float,
                  res, t0: float) -> DualityReport:
    """Verify the exact plan of an engine result and report it with its gauged duals.

    ``primal`` is the plan's cost, priced by the caller.
    """
    verify_exact_coupling(plan, mu, nu, MARGINAL_TOL)
    pots = gauge_normalized(PotentialPair(res.source_potentials, res.sink_potentials), mu)
    dual = float(np.dot(pots.phi, mu.weights) + np.dot(pots.psi, nu.weights))
    return DualityReport(
        primal_value=primal, dual_value=dual,
        optimal_plan=plan, optimal_potentials=pots,
        stats=_stats(t0, res.iterations, res.pivots))


def solve_primal(cost: CostMatrix, mu: Marginal, nu: Marginal) -> DualityReport:
    """Minimum-cost exact coupling of (mu, nu) over finite-cost cells.

    Returns the optimal plan together with the LP potentials, which are
    feasible (phi + psi <= c on finite cells) and tight on the support of
    the plan, gauge-normalized so that sum(phi * mu) = 0.
    """
    t0 = time.perf_counter()
    _check_shapes(cost, mu, nu)
    tails, heads, costs = cost.finite_arcs
    res = network_simplex.solve_bipartite(mu.weights, nu.weights, tails, heads, costs)
    plan = _plan_from_flows(cost.shape, tails, heads, res.flow, PlanKind.EXACT)
    return _exact_report(mu, nu, plan, _finite_arcs_cost(costs, res.flow), res, t0)


def solve_dual(cost: CostMatrix, mu: Marginal, nu: Marginal) -> DualityReport:
    """Maximize sum(phi mu) + sum(psi nu) subject to phi + psi <= c.

    The optimal potentials are the node potentials of the network basis
    that solves the coupling program, so this returns the report of
    :func:`solve_primal`: the same potentials, gauge-normalized, with
    the optimal plan as the primal witness of the gap (infinite-cost
    cells impose no constraint).
    """
    return solve_primal(cost, mu, nu)


def solve_partial(cost: CostMatrix, mu: Marginal, nu: Marginal, eps: float) -> DualityReport:
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
    tails, heads, costs = cost.finite_arcs
    m, n = cost.shape
    n_real = costs.size
    aug_tails = np.concatenate([tails, np.arange(m), np.full(n + 1, m)])
    aug_heads = np.concatenate([heads, np.full(m, n), np.arange(n + 1)])
    aug_costs = np.concatenate([costs, np.zeros(m + n + 1)])
    supplies = np.concatenate([mu.weights, [eps]])
    demands = np.concatenate([nu.weights, [eps]])
    res = network_simplex.solve_bipartite(supplies, demands, aug_tails, aug_heads, aug_costs)
    plan = _plan_from_flows(cost.shape, tails, heads, res.flow[:n_real], PlanKind.SUB)
    verify_sub_coupling(plan, mu, nu, MARGINAL_TOL)
    value = _finite_arcs_cost(costs, res.flow[:n_real])
    return DualityReport(
        primal_value=value, dual_value=value,
        optimal_plan=plan, optimal_potentials=None,
        stats=_stats(t0, res.iterations, res.pivots))


def extrapolate_to_zero(epsilons: tuple[float, ...], values: tuple[float, ...]) -> float:
    """Extend the line through the two smallest-epsilon points to zero."""
    if len(epsilons) == 1:
        return values[0]
    e1, e0 = epsilons[-2], epsilons[-1]
    v1, v0 = values[-2], values[-1]
    slope = (v1 - v0) / (e1 - e0)
    return v0 - slope * e0


def _sweep(eps: tuple[float, ...], solve, value, sign: float, limit) -> EpsilonSweep:
    """Solve at each epsilon of a grid checked by :func:`_grid`, and take the limit at 0.

    ``value`` reads a report's value and ``limit(eps, values)`` gives the
    value at 0.  As epsilon falls the values may only rise (``sign`` = 1)
    or only drop (``sign`` = -1); a step the other way by more than ten
    times the engine tolerance raises.  Plans are dropped as each solve returns.
    """
    reports = tuple(replace(solve(e), optimal_plan=None) for e in eps)
    values = tuple(value(r) for r in reports)
    if any(sign * (later - earlier) < -10 * network_simplex.TOL
           for earlier, later in zip(values, values[1:])):
        raise MKLabError(f"values {values} move the wrong way along the grid {eps}")
    return EpsilonSweep(epsilons=eps, reports=reports, values=values,
                        limit=limit(eps, values))


def estimate_relaxed_primal(cost: CostMatrix, mu: Marginal, nu: Marginal,
                            eps_grid) -> EpsilonSweep:
    """Partial-transport values along a decreasing grid with their limit at 0.

    The value function is convex and piecewise linear in eps, so the last
    linear segment extended to eps = 0 recovers the vanishing-deficit
    limit whenever the grid reaches that segment.  The feasible set
    shrinks as eps falls, so the values may only rise.
    """
    return _sweep(_grid(eps_grid), lambda e: solve_partial(cost, mu, nu, e),
                  lambda r: r.primal_value, 1.0, extrapolate_to_zero)


def _solve_on_support(cost: CostMatrix, pi0: TransportPlan):
    """The coupling program on supp(pi0) with pi0's own marginals, on the network engine.

    Raises unless pi0 is an exact coupling of total mass 1 at finite cost.
    Returns those marginals, the support cells as (tails, heads, costs),
    pi0's normalized mass on them and the engine's result.
    """
    if pi0.kind is not PlanKind.EXACT:
        raise InvariantError("reference plan must be an exact coupling")
    if pi0.shape != cost.shape:
        raise ShapeError(f"reference plan {pi0.shape} vs cost {cost.shape}")
    total = pi0.total_mass()
    if abs(total - 1.0) > MARGINAL_TOL:
        raise InvariantError("reference plan must carry total mass 1")
    if not math.isfinite(transport_cost(cost, pi0)):
        raise InvariantError("reference plan must have finite cost")
    mu = Marginal(pi0.row_sums() / total)
    nu = Marginal(pi0.col_sums() / total)
    support = pi0.support()
    tails, heads = np.divmod(np.flatnonzero(support), cost.shape[1])
    costs = cost.entries[support]
    res = network_simplex.solve_bipartite(mu.weights, nu.weights, tails, heads, costs)
    return mu, nu, tails, heads, costs, pi0.mass[support] / total, res


def solve_restricted_primal(cost: CostMatrix, pi0: TransportPlan) -> DualityReport:
    """Minimum cost over couplings supported inside supp(pi0).

    The marginals are those of pi0 itself; on a finite space the bounded
    density condition relative to pi0 is exactly support containment.
    """
    t0 = time.perf_counter()
    mu, nu, tails, heads, _costs, _density, res = _solve_on_support(cost, pi0)
    plan = _plan_from_flows(cost.shape, tails, heads, res.flow, PlanKind.EXACT)
    # transport_cost sums over every finite cell, zeros included; a sum over the
    # support alone could group the terms otherwise and move the last bits
    return _exact_report(mu, nu, plan, transport_cost(cost, plan), res, t0)


@dataclass(frozen=True)
class _Tangent:
    """A supporting line of the density-bounded value R, anchored where it touches R.

    ``value`` is R(lam), the cost of the coupling found at ``lam``;
    ``sigma`` is the budget sum(pi0 * (phi + psi - c)_+) that ``pair``
    spends, and -sigma is the slope of the line.
    """

    lam: float
    value: float
    sigma: float
    pair: PotentialPair

    def at(self, lam: float) -> float:
        return self.value - self.sigma * (lam - self.lam)


def _meet(lo: _Tangent, hi: _Tangent) -> float:
    """Where the lines of ``lo`` and ``hi`` cross, kept within [lo.lam, hi.lam]."""
    lam = lo.lam + (lo.value - hi.at(lo.lam)) / (lo.sigma - hi.sigma)
    return min(max(lam, lo.lam), hi.lam)


class _RelaxedDual:
    """The budgeted relaxed dual of (cost, mu, nu, pi0), answered one eps at a time.

    Everything that does not depend on eps is built once: the input
    checks, the restricted solve on supp(pi0), the split network and the
    flat line.  Each probe of R is kept by its exact lambda, so that the
    searches of several budgets solve each lambda once.  The object
    lives for one call of :func:`solve_relaxed_dual` or
    :func:`relaxed_dual_sweep`.
    """

    def __init__(self, cost: CostMatrix, mu: Marginal, nu: Marginal,
                 pi0: TransportPlan) -> None:
        self._since = time.perf_counter()
        mu0, nu0, tails, heads, costs, self._density, res = _solve_on_support(cost, pi0)
        # matching marginals keep the split program bounded: every phi/psi
        # coordinate with mass is charged by some support cell
        verify_exact_coupling(pi0, mu, nu, MARGINAL_TOL)
        self._cost, self._mu, self._nu = cost, mu, nu
        self._tails, self._heads, self._costs, self._restricted = tails, heads, costs, res
        self._m, self._k = mu.size, costs.size
        self._tol = network_simplex.TOL * (1.0 + float(np.max(np.abs(costs))))
        self._supplies = (mu0.weights, nu0.weights)
        self._split = (np.concatenate([tails, self._m + heads]),
                       np.tile(np.arange(self._k), 2),
                       np.concatenate([costs, np.zeros(self._k)]))
        # lambda -> (tangent, iterations, pivots) of the network solve there
        self._probes: dict[float, tuple[_Tangent, int, int]] = {}
        # The restricted coupling is feasible, hence optimal, for every lambda
        # at or above its density bound: anchor the flat line there.  Its pair
        # is dual feasible, so it spends no budget; sigma is set to 0 rather
        # than to its rounding error, which that bound could magnify.
        self._flat = _Tangent(
            max(1.0, float(np.max(res.flow / self._density))), float(costs @ res.flow),
            0.0, gauge_normalized(PotentialPair(res.source_potentials, res.sink_potentials), mu))
        # At lambda = 1 the only coupling left is pi0.  When it costs no more
        # than the restricted optimum, R is flat and the flat line touches it.
        self._cost_pi0 = float(costs @ self._density)

    def restricted_value(self) -> float:
        """The restricted primal value, as :func:`solve_restricted_primal` reports it."""
        plan = _plan_from_flows(self._cost.shape, self._tails, self._heads,
                                self._restricted.flow, PlanKind.EXACT)
        return transport_cost(self._cost, plan)

    def _solve_at(self, lam: float) -> tuple[_Tangent, int, int]:
        """The line that supports R at ``lam``, and the counters of its network solve."""
        mu0, nu0 = self._supplies
        run = network_simplex.solve_bipartite(np.concatenate([mu0, (lam - 1.0) * nu0]),
                                              lam * self._density, *self._split)
        u = run.source_potentials
        pair = gauge_normalized(PotentialPair(u[:self._m], -u[self._m:]), self._mu)
        breach = np.maximum(pair.phi[self._tails] + pair.psi[self._heads] - self._costs, 0.0)
        line = _Tangent(lam, float(self._costs @ run.flow[:self._k]),
                        float(self._density @ breach), pair)
        return line, run.iterations, run.pivots

    def answer(self, eps: float) -> DualityReport:
        """The report of :func:`solve_relaxed_dual` at budget ``eps``.

        Its counters sum every network solve the answer rests on, shared
        ones included; ``wall_ms`` is the time since the previous answer,
        or since the checks began.
        """
        tol, res = self._tol, self._restricted
        runs = [(res.iterations, res.pivots)]

        def probe(lam: float) -> _Tangent:
            if len(runs) >= MAX_NETWORK_SOLVES:
                raise IterationLimitError(
                    f"relaxed dual exceeded {MAX_NETWORK_SOLVES} network solves")
            if lam not in self._probes:
                self._probes[lam] = self._solve_at(lam)
            line, iterations, pivots = self._probes[lam]
            runs.append((iterations, pivots))
            return line

        hi = self._flat
        one = hi if self._cost_pi0 <= hi.at(1.0) + tol else probe(1.0)
        if one.sigma <= eps:
            pair = PotentialPair(one.pair.phi + (eps - one.sigma), one.pair.psi)
            primal = self._cost_pi0 + eps
        else:
            lo = one
            while True:
                last = probe(_meet(lo, hi))
                if last.value <= max(lo.at(last.lam), hi.at(last.lam)) + tol:
                    t = min(max((eps - hi.sigma) / (lo.sigma - hi.sigma), 0.0), 1.0)
                    pair = PotentialPair(t * lo.pair.phi + (1.0 - t) * hi.pair.phi,
                                         t * lo.pair.psi + (1.0 - t) * hi.pair.psi)
                    break
                if last.sigma >= eps:
                    lo = last
                else:
                    hi = last
            primal = last.value + eps * last.lam
        mu, nu = self._mu, self._nu
        pots = gauge_normalized(pair, mu)
        dual = float(np.dot(pots.phi, mu.weights) + np.dot(pots.psi, nu.weights))
        if primal - dual < -tol:
            raise MKLabError(f"relaxed dual: primal {primal!r} below dual {dual!r}")
        stats = _stats(self._since, sum(r[0] for r in runs), sum(r[1] for r in runs))
        self._since = time.perf_counter()
        return DualityReport(
            primal_value=primal, dual_value=dual,
            optimal_plan=None, optimal_potentials=pots, stats=stats)


def solve_relaxed_dual(cost: CostMatrix, mu: Marginal, nu: Marginal,
                       pi0: TransportPlan, eps: float) -> DualityReport:
    """Maximize sum(phi mu) + sum(psi nu) under a budgeted feasibility breach.

    The constraint charges the positive part of phi + psi - c against
    pi0: one slack per support cell with s >= phi + psi - c, s >= 0 and
    sum(s * pi0) <= eps.  Cells outside supp(pi0) are unconstrained.

    By LP duality the optimum is the minimum over lambda of
    eps * lambda + R(lambda), where R(lambda) is the cheapest coupling x
    on supp(pi0) with x <= lambda * pi0.  Both x and pi0 carry mass 1,
    so lambda >= 1, and R(1) is the cost of pi0 itself.  R(lambda) is a
    transportation problem after splitting each support cell k = (i, j)
    into a sink with demand lambda * pi0_k, fed by i -> k at cost c_k
    and by j -> k at cost 0; source i supplies mu_i and source j
    supplies (lambda - 1) * nu_j.  Its source potentials give the pair
    phi = u_X, psi = -u_Y, whose line R(lambda_p) - sigma * (lambda -
    lambda_p) supports the convex, piecewise-linear R.

    The search for the best lambda intersects two such lines, one with
    sigma above eps and one below, and probes R there, until the lines
    meet on R (Eisner and Severance, J. ACM 23, 1976).  The restricted
    program supplies the first line below, with sigma = 0.  The answer
    is the convex combination of the two pairs that spends exactly eps.
    When the optimum sits at lambda = 1, the pair that is tangent there
    is returned with phi shifted up by eps - sigma.

    The primal value is R + eps * lambda at the final probe (pi0 at
    lambda = 1), so the gap is a real one.  No plan is returned.
    """
    if not 0.0 < eps < math.inf:
        raise InvariantError(f"eps must be positive and finite, got {eps!r}")
    return _RelaxedDual(cost, mu, nu, pi0).answer(eps)


def dual_sequence(cost: CostMatrix, mu: Marginal, nu: Marginal,
                  pi0: TransportPlan, eps_list) -> list[PotentialPair]:
    """Optimizing potentials of the budgeted dual along a decreasing grid.

    Each pair is gauge-normalized (sum(phi * mu) = 0), which pins down
    the additive degeneracy and makes the sequence reproducible.
    """
    sweep = relaxed_dual_sweep(cost, mu, nu, pi0, eps_list)
    return [r.optimal_potentials for r in sweep.reports]


def relaxed_dual_sweep(cost: CostMatrix, mu: Marginal, nu: Marginal,
                       pi0: TransportPlan, eps_grid) -> EpsilonSweep:
    """Budgeted-dual values along a decreasing grid with their limit at 0.

    The vanishing-budget limit of this concave piecewise-linear value
    function equals the restricted primal value (finite LP duality), and
    that exact value is the sweep's limit.  The budget shrinks as eps
    falls, so the values may only drop.  The restricted solve and every
    probe of the tangent search run once for the whole grid; each report
    equals that of :func:`solve_relaxed_dual` at its eps, counters
    included.
    """
    eps = _grid(eps_grid)
    dual = _RelaxedDual(cost, mu, nu, pi0)
    return _sweep(eps, dual.answer, lambda r: r.dual_value, -1.0,
                  lambda _eps, _values: dual.restricted_value())
