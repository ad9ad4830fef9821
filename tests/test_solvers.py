import math

import numpy as np
import pytest

from mklab import (
    CostMatrix,
    InfeasibleError,
    InvariantError,
    Marginal,
    PlanKind,
    TransportPlan,
    ap_cost,
    dual_sequence,
    estimate_relaxed_primal,
    ex33_cost,
    graph_mixture_plan,
    make_instance,
    mixture_plan,
    network_simplex,
    potential_plan_integral,
    relaxed_dual_sweep,
    shift_graph_plan,
    solve_dual,
    solve_partial,
    solve_primal,
    solve_relaxed_dual,
    solve_restricted_primal,
    transport_cost,
    uniform_marginal,
)
from mklab.dense_simplex import solve_dense
from mklab.solvers import _plan_from_flows, _solve_on_support

from conftest import (assert_same_report, dense_coupling, dense_relaxed_dual,
                      enumerate_vertex_minimum, nw_corner, random_cost, random_marginal)


def dense_partial_value(cost, mu, nu, eps):
    """Independent inequality formulation of the partial problem."""
    tails, heads = np.nonzero(cost.finite_mask)
    costs = cost.entries[tails, heads]
    k = costs.size
    m, n = cost.shape
    lhs = np.zeros((m + n + 1, k))
    lhs[tails, np.arange(k)] = 1.0
    lhs[m + heads, np.arange(k)] = 1.0
    lhs[m + n, :] = 1.0
    senses = ["le"] * (m + n) + ["ge"]
    rhs = np.concatenate([mu.weights, nu.weights, [1.0 - eps]])
    return solve_dense(costs, lhs, senses, rhs).value


class TestSolvePrimal:
    def test_zero_diagonal(self):
        c = CostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        mu = Marginal(np.array([0.5, 0.5]))
        report = solve_primal(c, mu, mu)
        assert report.primal_value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(report.optimal_plan.mass, np.eye(2) / 2)

    def test_ap_value_is_one(self):
        inst = make_instance(8, 3)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        report = solve_primal(c, mu, mu)
        assert report.primal_value == pytest.approx(1.0, abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(20):
            mu = random_marginal(rng, 3)
            nu = random_marginal(rng, 3)
            c = random_cost(rng, 3, 3)
            expected = enumerate_vertex_minimum(c, mu, nu)
            report = solve_primal(c, mu, nu)
            assert report.primal_value == pytest.approx(expected, abs=1e-9)

    def test_vertex_enumeration_with_forbidden_cells(self, rng):
        entries = rng.uniform(0, 5, (3, 3))
        entries[0, 0] = np.inf
        entries[1, 2] = np.inf
        c = CostMatrix(entries)
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        expected = enumerate_vertex_minimum(c, mu, nu)
        report = solve_primal(c, mu, nu)
        assert report.primal_value == pytest.approx(expected, abs=1e-9)
        assert np.all(report.optimal_plan.mass[~c.finite_mask] == 0.0)

    def test_infeasible_when_row_has_no_finite_cell(self):
        c = CostMatrix(np.array([[np.inf, np.inf], [1.0, 1.0]]))
        mu = Marginal(np.array([0.5, 0.5]))
        with pytest.raises(InfeasibleError):
            solve_primal(c, mu, mu)

    def test_dead_row_mass_is_judged_at_the_solver_tolerance(self):
        # the engine leaves a row with no finite cell on its artificial arc,
        # so up to tol (1e-9) of its mass may go unshipped; the unshipped
        # mass counts once, not on both of the artificial arcs it crosses
        c = CostMatrix(np.array([[np.inf, np.inf, np.inf],
                                 [1.0, 2.0, 3.0],
                                 [2.0, 1.0, 0.5]]))
        nu = Marginal(np.array([0.25, 0.25, 0.5]))
        for dead in (5e-10, 9e-10):
            report = solve_primal(c, Marginal(np.array([dead, 0.5, 0.5 - dead])), nu)
            assert report.optimal_plan.mass[0].sum() == 0.0
        for dead in (1.1e-9, 2e-9):
            with pytest.raises(InfeasibleError):
                solve_primal(c, Marginal(np.array([dead, 0.5, 0.5 - dead])), nu)

    def test_infeasible_by_mass_pattern(self):
        # both sources can only reach sink 0, which holds mass 1/4
        c = CostMatrix(np.array([[1.0, np.inf], [1.0, np.inf]]))
        mu = Marginal(np.array([0.5, 0.5]))
        nu = Marginal(np.array([0.25, 0.75]))
        with pytest.raises(InfeasibleError):
            solve_primal(c, mu, nu)

    def test_complementary_slackness(self, rng):
        mu = random_marginal(rng, 7)
        nu = random_marginal(rng, 6)
        c = random_cost(rng, 7, 6)
        report = solve_primal(c, mu, nu)
        pots = report.optimal_potentials
        oplus = pots.oplus()
        sup = report.optimal_plan.mass > 1e-9
        assert np.max(np.abs(oplus[sup] - c.entries[sup])) <= 1e-7
        assert pots.max_violation(c) <= 1e-9
        assert abs(report.gap) <= 2e-9


class TestSolveDual:
    def test_constant_cost(self):
        c = CostMatrix(np.full((2, 2), 5.0))
        mu = Marginal(np.array([0.5, 0.5]))
        report = solve_dual(c, mu, mu)
        assert report.dual_value == pytest.approx(5.0, abs=1e-9)

    def test_ap_dual_is_one(self):
        inst = make_instance(8, 3)
        report = solve_dual(ap_cost(inst), uniform_marginal(inst), uniform_marginal(inst))
        assert report.dual_value == pytest.approx(1.0, abs=1e-9)

    def test_cross_engine_agreement(self, rng):
        for _ in range(10):
            mu = random_marginal(rng, 3)
            nu = random_marginal(rng, 3)
            c = random_cost(rng, 3, 3)
            p = solve_primal(c, mu, nu).primal_value
            d = solve_dual(c, mu, nu).dual_value
            dense = dense_coupling(c, mu, nu)
            assert p == pytest.approx(dense.value, abs=2e-9)
            assert d == pytest.approx(dense.value, abs=2e-9)

    def test_gauge_is_fixed(self, rng):
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        c = random_cost(rng, 4, 4)
        pots = solve_dual(c, mu, nu).optimal_potentials
        assert abs(pots.phi @ mu.weights) <= 1e-12

    def test_infeasible_propagates(self):
        c = CostMatrix(np.array([[1.0, np.inf], [1.0, np.inf]]))
        mu = Marginal(np.array([0.5, 0.5]))
        nu = Marginal(np.array([0.25, 0.75]))
        with pytest.raises(InfeasibleError):
            solve_dual(c, mu, nu)


class TestSolvePartial:
    def test_eps_one_is_free(self, rng):
        c = random_cost(rng, 3, 3)
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        report = solve_partial(c, mu, nu, 1.0)
        assert report.primal_value == pytest.approx(0.0, abs=1e-12)

    def test_eps_zero_equals_primal(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        full = solve_primal(c, mu, nu).primal_value
        part = solve_partial(c, mu, nu, 0.0).primal_value
        assert part == pytest.approx(full, abs=1e-9)

    def test_ap_quarter_against_dense_oracle(self):
        inst = make_instance(8, 3)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        report = solve_partial(c, mu, mu, 0.25)
        expected = dense_partial_value(c, mu, mu, 0.25)
        assert report.primal_value == pytest.approx(expected, abs=1e-7)
        assert report.primal_value == pytest.approx(0.375, abs=1e-9)

    def test_sub_marginals_and_mass(self, rng):
        c = random_cost(rng, 5, 5)
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        report = solve_partial(c, mu, nu, 0.3)
        plan = report.optimal_plan
        assert plan.kind is PlanKind.SUB
        assert np.all(plan.row_sums() <= mu.weights + 1e-9)
        assert np.all(plan.col_sums() <= nu.weights + 1e-9)
        assert plan.total_mass() >= 0.7 - 1e-9

    def test_random_instances_against_dense_oracle(self, rng):
        for _ in range(10):
            c = random_cost(rng, 4, 3)
            mu = random_marginal(rng, 4)
            nu = random_marginal(rng, 3)
            eps = float(rng.uniform(0.05, 0.8))
            net = solve_partial(c, mu, nu, eps).primal_value
            dense = dense_partial_value(c, mu, nu, eps)
            assert net == pytest.approx(dense, abs=1e-7)


class TestEstimateRelaxedPrimal:
    def test_finite_cost_limit_is_primal(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        sweep = estimate_relaxed_primal(c, mu, nu, (0.1, 0.01, 0.001))
        full = solve_primal(c, mu, nu).primal_value
        assert sweep.limit == pytest.approx(full, abs=1e-6)

    def test_values_nondecreasing_as_eps_shrinks(self, rng):
        c = random_cost(rng, 5, 5)
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        sweep = estimate_relaxed_primal(c, mu, nu, (0.5, 0.2, 0.1, 0.05, 0.01))
        assert all(b >= a - 1e-12 for a, b in zip(sweep.values, sweep.values[1:]))

    def test_ap_limit_is_one(self):
        inst = make_instance(8, 3)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        sweep = estimate_relaxed_primal(c, mu, mu, (0.1, 0.01, 0.001))
        assert sweep.limit == pytest.approx(1.0, abs=1e-6)

    def test_grid_validation(self, rng):
        c = random_cost(rng, 3, 3)
        mu = random_marginal(rng, 3)
        with pytest.raises(InvariantError):
            estimate_relaxed_primal(c, mu, mu, (0.01, 0.1))

    def test_reports_keep_values_but_not_plans(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        sweep = estimate_relaxed_primal(c, mu, nu, (0.1, 0.01))
        for eps, report in zip(sweep.epsilons, sweep.reports):
            assert report.optimal_plan is None
            assert report.primal_value == solve_partial(c, mu, nu, eps).primal_value


class TestRestrictedPrimal:
    def test_singleton_support(self):
        c = CostMatrix(np.array([[2.0, 3.0], [4.0, 5.0]]))
        mu = Marginal(np.array([1.0, 0.0]))
        nu = Marginal(np.array([0.0, 1.0]))
        pi0 = TransportPlan(np.array([[0.0, 1.0], [0.0, 0.0]]))
        report = solve_restricted_primal(c, pi0)
        assert report.primal_value == pytest.approx(transport_cost(c, pi0))

    def test_full_support_equals_primal(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        full_support = TransportPlan(np.outer(mu.weights, nu.weights))
        assert solve_restricted_primal(c, full_support).primal_value == pytest.approx(
            solve_primal(c, mu, nu).primal_value, abs=1e-9)

    def test_restriction_never_helps(self, rng):
        c = random_cost(rng, 5, 5)
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        pi0 = nw_corner(mu, nu)
        assert solve_restricted_primal(c, pi0).primal_value >= (
            solve_primal(c, mu, nu).primal_value - 1e-9)

    def test_ex33_mixture_is_one(self):
        from mklab import ex33_cost

        inst = make_instance(48)
        c = ex33_cost(inst, 47)
        pi = graph_mixture_plan(inst, 4)
        report = solve_restricted_primal(c, pi)
        assert report.primal_value == pytest.approx(1.0, abs=1e-6)

    def test_rejects_infinite_cost_reference(self):
        c = CostMatrix(np.array([[np.inf, 1.0], [1.0, np.inf]]))
        pi0 = TransportPlan(np.eye(2) / 2)
        with pytest.raises(InvariantError):
            solve_restricted_primal(c, pi0)


class TestRelaxedDual:
    def test_relaxation_helps(self, rng):
        c = random_cost(rng, 2, 2)
        mu = random_marginal(rng, 2)
        nu = random_marginal(rng, 2)
        pi0 = nw_corner(mu, nu)
        base = solve_dual(c, mu, nu).dual_value
        relaxed = solve_relaxed_dual(c, mu, nu, pi0, 10.0).dual_value
        assert relaxed >= base - 1e-9

    def test_nondecreasing_in_eps(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        pi0 = nw_corner(mu, nu)
        values = [solve_relaxed_dual(c, mu, nu, pi0, e).dual_value
                  for e in (1e-3, 1e-2, 1e-1, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_budget_is_respected(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        pi0 = nw_corner(mu, nu)
        eps = 0.05
        report = solve_relaxed_dual(c, mu, nu, pi0, eps)
        pots = report.optimal_potentials
        breach = np.maximum(pots.oplus() - c.entries, 0.0)
        assert float(np.sum(breach * pi0.mass)) <= eps + 1e-7

    def test_mismatched_reference_marginals_rejected(self, rng):
        c = random_cost(rng, 3, 3)
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        other = nw_corner(random_marginal(rng, 3), random_marginal(rng, 3))
        with pytest.raises(InvariantError):
            solve_relaxed_dual(c, mu, nu, other, 0.1)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_budget_rejected(self, rng, eps):
        c = random_cost(rng, 3, 3)
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        with pytest.raises(InvariantError):
            solve_relaxed_dual(c, mu, nu, nw_corner(mu, nu), eps)

    def test_matches_dense_oracle_on_ex33(self):
        """Both values equal the dense optimum: the primal side is R + eps * lambda
        at the final probe, not a copy of the dual."""
        from mklab import ex33_cost

        inst = make_instance(24)
        c = ex33_cost(inst, 23)
        mu = uniform_marginal(inst)
        pi = graph_mixture_plan(inst, 4)
        for eps in (1e-1, 1e-2, 1e-3, 1e-4):
            report = solve_relaxed_dual(c, mu, mu, pi, eps)
            value, _pair = dense_relaxed_dual(c, mu, mu, pi, eps)
            assert report.dual_value == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert report.primal_value == pytest.approx(value, rel=1e-9, abs=1e-12)
            assert report.gap == report.primal_value - report.dual_value
            assert report.optimal_plan is None

    def test_probe_count_is_capped(self, monkeypatch):
        from mklab import IterationLimitError, ex33_cost, network_simplex, solvers

        engine = network_simplex.solve_bipartite
        solves = []

        def counting(*args):
            solves.append(1)
            return engine(*args)

        monkeypatch.setattr(network_simplex, "solve_bipartite", counting)
        inst = make_instance(24)
        c = ex33_cost(inst, 23)
        mu = uniform_marginal(inst)
        pi = graph_mixture_plan(inst, 4)
        solve_relaxed_dual(c, mu, mu, pi, 0.01)
        needed = len(solves)
        assert needed >= 3
        monkeypatch.setattr(solvers, "MAX_NETWORK_SOLVES", needed)
        solve_relaxed_dual(c, mu, mu, pi, 0.01)
        monkeypatch.setattr(solvers, "MAX_NETWORK_SOLVES", needed - 1)
        with pytest.raises(IterationLimitError):
            solve_relaxed_dual(c, mu, mu, pi, 0.01)

    def test_sweep_rejects_budget_above_one_before_solving(self, monkeypatch):
        from mklab import network_simplex, solvers

        def no_solve(*args, **kwargs):
            raise AssertionError("a budget was solved before the grid was checked")

        monkeypatch.setattr(solvers, "solve_relaxed_dual", no_solve)
        monkeypatch.setattr(network_simplex, "solve_bipartite", no_solve)
        inst = make_instance(16)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        pi_half = mixture_plan(
            [shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
        with pytest.raises(InvariantError, match=r"\(0, 1\]"):
            relaxed_dual_sweep(c, mu, mu, pi_half, (4.0, 2.0, 1.0))

    def test_limit_matches_restricted_primal_ex33(self):
        from mklab import ex33_cost

        inst = make_instance(24)
        c = ex33_cost(inst, 23)
        mu = uniform_marginal(inst)
        pi = graph_mixture_plan(inst, 4)
        restricted = solve_restricted_primal(c, pi).primal_value
        # exact, not extrapolated: the grid (0.5, 0.2) stops short of the
        # last linear piece, where extrapolation reads about 1.0074
        for grid in ((1e-1, 1e-2, 1e-3, 1e-4), (0.5, 0.2)):
            assert relaxed_dual_sweep(c, mu, mu, pi, grid).limit == restricted


def two_graph_case(kind, n):
    """Cost, marginal and reference plan as ``mklab gen --kind ap|ex33`` builds them."""
    from mklab import ex33_cost

    inst = make_instance(n)
    if kind == "ap":
        pi = mixture_plan([shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
        return ap_cost(inst), uniform_marginal(inst), pi
    return ex33_cost(inst, n - 1), uniform_marginal(inst), graph_mixture_plan(inst, 4)


class TestRelaxedDualSweep:
    GRID = (1e-1, 1e-2, 1e-3)

    @pytest.mark.parametrize("kind,n", [("ap", 24), ("ex33", 24), ("ex33", 48)])
    def test_reports_equal_cold_solves(self, kind, n):
        c, mu, pi = two_graph_case(kind, n)
        sweep = relaxed_dual_sweep(c, mu, mu, pi, self.GRID)
        for eps, report in zip(self.GRID, sweep.reports):
            assert_same_report(report, solve_relaxed_dual(c, mu, mu, pi, eps))

    @pytest.mark.parametrize("kind,n,solves", [("ap", 24, 1), ("ex33", 48, 6)])
    def test_each_network_solve_runs_once_per_grid(self, monkeypatch, kind, n, solves):
        # one cold solve per grid point makes 3 on ap and 15 on ex33 n=48
        from mklab import network_simplex

        engine = network_simplex.solve_bipartite
        counted = []

        def counting(*args, **kwargs):
            counted.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(network_simplex, "solve_bipartite", counting)
        c, mu, pi = two_graph_case(kind, n)
        relaxed_dual_sweep(c, mu, mu, pi, self.GRID)
        assert len(counted) == solves


class TestDualSequence:
    def test_constant_cost_converges_uniformly(self, rng):
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        c = CostMatrix(np.ones((4, 4)))
        pi0 = nw_corner(mu, nu)
        eps_list = (1e-2, 1e-4)
        pots = dual_sequence(c, mu, nu, pi0, eps_list)
        min_mass = float(pi0.mass[pi0.mass > 0].min())
        for eps, pair in zip(eps_list, pots):
            sup = pi0.mass > 0
            dev = np.abs(pair.oplus()[sup] - 1.0)
            assert float(dev.max()) <= eps / min_mass + 1e-6

    def test_ap_l1_convergence(self):
        inst = make_instance(16)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        pi_half = mixture_plan(
            [shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
        eps_list = (1e-2, 1e-4, 1e-6)
        pots = dual_sequence(c, mu, mu, pi_half, eps_list)
        idx = np.arange(inst.n)
        step = (idx + inst.shift) % inst.n
        for eps, pair in zip(eps_list, pots):
            norm = float(
                np.mean(np.abs(c.entries[idx, idx] - (pair.phi + pair.psi)))
                + np.mean(np.abs(c.entries[idx, step] - (pair.phi + pair.psi[step]))))
            # exact bound: the budgeted breach and the value overshoot are both O(eps)
            assert norm <= 4 * eps + 1e-6

    def test_gauge_applied_to_every_entry(self, rng):
        c = random_cost(rng, 3, 3)
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        pi0 = nw_corner(mu, nu)
        for pair in dual_sequence(c, mu, nu, pi0, (0.1, 0.01)):
            assert abs(pair.phi @ mu.weights) <= 1e-9


class TestReportInvariants:
    def test_weak_duality_along_reports(self, rng):
        for _ in range(5):
            c = random_cost(rng, 4, 5)
            mu = random_marginal(rng, 4)
            nu = random_marginal(rng, 5)
            report = solve_primal(c, mu, nu)
            dense = dense_coupling(c, mu, nu)
            dense_dual = float(dense.duals @ np.concatenate([mu.weights, nu.weights]))
            assert report.gap >= -2e-9
            assert abs(report.primal_value - report.dual_value) <= 2e-7
            # each engine's potentials bound the other engine's plan cost
            assert dense_dual <= report.primal_value + 2e-9
            assert report.dual_value <= dense.value + 2e-9
            assert abs(dense.value - dense_dual) <= 2e-7

    def test_potential_integral_matches_dual_value(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        report = solve_primal(c, mu, nu)
        j = potential_plan_integral(report.optimal_potentials, report.optimal_plan)
        assert j == pytest.approx(report.primal_value, abs=1e-7)

    def test_iteration_limit_raises(self, rng, monkeypatch):
        c = random_cost(rng, 6, 6)
        mu = random_marginal(rng, 6)
        nu = random_marginal(rng, 6)
        from mklab import IterationLimitError, network_simplex

        monkeypatch.setattr(network_simplex, "MAX_ITERATIONS", 2)
        with pytest.raises(IterationLimitError):
            solve_primal(c, mu, nu)


def test_solves_on_one_cost_share_its_finite_arcs(rng, monkeypatch):
    """The finite cells of a cost are found once, as read-only arrays, for every solve on it."""
    entries = rng.uniform(0.0, 5.0, (5, 5))
    entries[1, 3] = entries[4, 0] = np.inf
    c, mu, nu = CostMatrix(entries), random_marginal(rng, 5), random_marginal(rng, 5)
    seen = []
    engine = network_simplex.solve_bipartite

    def spy(supplies, demands, tails, heads, costs):
        seen.append((tails, heads, costs))
        return engine(supplies, demands, tails, heads, costs)
    monkeypatch.setattr(network_simplex, "solve_bipartite", spy)
    solve_primal(c, mu, nu)
    estimate_relaxed_primal(c, mu, nu, (0.1, 0.01))
    solve_dual(c, mu, nu)
    first, last = seen[0], seen[-1]
    assert all(a is b for a, b in zip(first, last))
    assert all(a is b for a, b in zip(first, c.finite_arcs))
    assert not any(a.flags.writeable for a in first)
    assert first[2].size == 23 and np.isfinite(first[2]).all()


def test_import_leaves_dense_engine_out():
    """The dense tableau is a test oracle: importing the package does not load it."""
    import subprocess
    import sys

    probe = "import sys, mklab; print('mklab.dense_simplex' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"



class TestRestrictedSupportIsFlat:
    """The restricted program's cells are those the 2-D `np.nonzero` formula lists, bit for bit."""

    @staticmethod
    def assert_same_support(cost, pi0):
        _mu, _nu, tails, heads, costs, density, _res = _solve_on_support(cost, pi0)
        rows, cols = np.nonzero(pi0.support())
        want = (rows, cols, cost.entries[rows, cols], pi0.mass[rows, cols] / pi0.total_mass())
        for got, w in zip((tails, heads, costs, density), want):
            assert got.dtype == w.dtype and got.shape == w.shape
            assert got.tobytes() == w.tobytes()
            assert got.flags.writeable == w.flags.writeable

    @staticmethod
    def instance(rng, shape, support_share, inf_share):
        mass = rng.uniform(0.1, 1.0, size=shape) * (rng.random(shape) < support_share)
        mass.flat[rng.integers(mass.size)] = 0.5
        cost = np.round(rng.uniform(0.0, 5.0, size=shape), 1)
        cost[(mass == 0) & (rng.random(shape) < inf_share)] = math.inf
        return CostMatrix(cost), TransportPlan(mass / mass.sum())

    @pytest.mark.parametrize("seed", range(10))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 30, size=2))
        self.assert_same_support(*self.instance(rng, shape, rng.choice([0.05, 0.5, 1.0]),
                                                rng.choice([0.0, 0.5, 1.0])))

    @pytest.mark.parametrize("shape", [(1, 13), (13, 1), (1, 1)])
    @pytest.mark.parametrize("support_share", [0.0, 0.5, 1.0])
    def test_thin_shapes(self, shape, support_share):
        rng = np.random.default_rng(11)
        self.assert_same_support(*self.instance(rng, shape, support_share, 1.0))

    def test_all_finite_cost(self):
        rng = np.random.default_rng(5)
        cost, pi0 = self.instance(rng, (9, 7), 0.4, 0.0)
        assert np.isfinite(cost.entries).all()
        self.assert_same_support(cost, pi0)

    def test_all_infinite_cost_raises(self):
        pi0 = TransportPlan(np.full((3, 4), 1.0 / 12))
        with pytest.raises(InvariantError, match="^reference plan must have finite cost$"):
            _solve_on_support(CostMatrix(np.full((3, 4), math.inf)), pi0)

    @pytest.mark.parametrize("n", [24, 192])
    def test_ap_reference_plan(self, n):
        inst = make_instance(n)
        pi0 = mixture_plan([shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
        self.assert_same_support(ap_cost(inst), pi0)


class TestReportedCostIsTransportCost:
    """Primal, dual and partial price their flows to the bit of `transport_cost`."""

    SOLVES = {
        "primal": solve_primal,
        "dual": solve_dual,
        "partial:0": lambda c, mu, nu: solve_partial(c, mu, nu, 0.0),
        "partial:0.3": lambda c, mu, nu: solve_partial(c, mu, nu, 0.3),
    }

    @staticmethod
    def explicit(seed):
        """Integer costs (many ties), zero masses, forbidden cells off a coupling's support."""
        rng = np.random.default_rng(seed)
        m, n = (int(v) for v in rng.integers(1, 40, size=2))
        weights = []
        for size in (m, n):
            w = rng.uniform(0.1, 1.0, size) * (rng.random(size) < 0.8)
            w[rng.integers(size)] = 1.0
            weights.append(Marginal(w / w.sum()))
        mu, nu = weights
        entries = rng.integers(0, 4, size=(m, n)).astype(float)
        entries[(nw_corner(mu, nu).mass == 0) & (rng.random((m, n)) < 0.4)] = math.inf
        return CostMatrix(entries), mu, nu

    @staticmethod
    def assert_same_bits(solve, cost, mu, nu):
        report = solve(cost, mu, nu)
        assert report.primal_value.hex() == transport_cost(cost, report.optimal_plan).hex()

    @pytest.mark.parametrize("problem", SOLVES)
    @pytest.mark.parametrize("seed", range(12))
    def test_random_explicit(self, problem, seed):
        self.assert_same_bits(self.SOLVES[problem], *self.explicit(seed))

    @pytest.mark.parametrize("problem", SOLVES)
    @pytest.mark.parametrize("kind, n", [("ap", 12), ("ap", 40), ("ex33", 13), ("ex33", 36)])
    def test_rotation(self, problem, kind, n):
        inst = make_instance(n)
        cost = ap_cost(inst) if kind == "ap" else ex33_cost(inst, n - 1)
        mu = uniform_marginal(inst)
        self.assert_same_bits(self.SOLVES[problem], cost, mu, mu)


def test_plan_from_flows_writes_the_cells_a_full_scatter_writes():
    """Skipping the +0.0 flows leaves the bytes of writing every flow, signed zeros included."""
    rng = np.random.default_rng(4)
    tails, heads = np.divmod(rng.permutation(48)[:30], 8)
    flows = rng.choice([0.0, -0.0, 0.01, 5e-324, 0.125], size=30)
    mass = np.zeros((6, 8))
    mass[tails, heads] = flows
    plan = _plan_from_flows((6, 8), tails, heads, flows, PlanKind.SUB)
    assert plan.mass.tobytes() == mass.tobytes()
    assert np.signbit(plan.mass).sum() == np.signbit(flows).sum() > 0
