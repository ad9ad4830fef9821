import math

import numpy as np
import pytest

from mklab import (
    CostMatrix,
    DualityReport,
    InvariantError,
    Marginal,
    PlanKind,
    PotentialPair,
    ShapeError,
    SolverStats,
    TransportPlan,
    gauge_normalized,
    mixture_plan,
    plan_dominates,
    potential_plan_integral,
    transport_cost,
    verify_exact_coupling,
    verify_sub_coupling,
)
from mklab import core
from mklab.core import _Fresh
from mklab.rotation import (ap_cost, ex33_cost, graph_mixture_plan, make_instance,
                            shift_graph_plan)
from mklab.solvers import _plan_from_flows

from conftest import nw_corner, random_marginal, shuffled_coupling


def half_identity(n=2):
    return TransportPlan(np.eye(n) / n, PlanKind.EXACT)


class TestConstruction:
    def test_marginal_rejects_bad_mass(self):
        with pytest.raises(InvariantError):
            Marginal(np.array([0.5, 0.6]))
        with pytest.raises(InvariantError):
            Marginal(np.array([-0.5, 1.5]))

    @pytest.mark.parametrize("weights, error, match", [
        (np.array([]), ShapeError, "nonempty vector"),
        (np.array([[1.0]]), ShapeError, "nonempty vector"),
        (np.full(core.MAX_SIDE + 1, 1.0 / (core.MAX_SIDE + 1)), InvariantError,
         "size 2001 exceeds the 2000 cap"),
        (np.array([np.inf, 0.5]), InvariantError, "must be finite"),
        (np.array([np.nan, 1.0]), InvariantError, "must be finite"),
    ], ids=["empty", "matrix", "over-cap", "inf", "nan"])
    def test_marginal_rejects_bad_shape_size_and_cells(self, weights, error, match):
        with pytest.raises(error, match=match):
            Marginal(weights)
        # a marginal at the cap is accepted
        assert Marginal(np.full(core.MAX_SIDE, 1.0 / core.MAX_SIDE)).size == core.MAX_SIDE

    def test_report_rejects_a_gap_below_weak_duality(self):
        stats = SolverStats(iterations=1, pivots=0, wall_ms=0.0)
        tol = core.WEAK_DUALITY_TOL
        assert DualityReport(0.0, tol / 2, None, None, stats).gap == -tol / 2
        # an infinite value has no gap to check
        assert DualityReport(1.0, math.inf, None, None, stats).gap == -math.inf
        with pytest.raises(InvariantError, match="weak duality violated: gap -2.000e-07"):
            DualityReport(0.0, 2 * tol, None, None, stats)

    def test_cost_rejects_negative_and_nan(self):
        with pytest.raises(InvariantError):
            CostMatrix(np.array([[1.0, -2.0]]))
        with pytest.raises(InvariantError):
            CostMatrix(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvariantError):
            CostMatrix(np.array([[-np.inf, 1.0]]))

    def test_cost_accepts_infinite_cells(self):
        c = CostMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        assert c.finite_mask.sum() == 2

    def test_plan_mass_cap(self):
        with pytest.raises(InvariantError):
            TransportPlan(np.full((2, 2), 0.5))  # total mass 2

    def test_size_cap(self):
        with pytest.raises(InvariantError):
            CostMatrix(np.zeros((2001, 2)))

    def test_potentials_reject_plus_inf(self):
        with pytest.raises(InvariantError):
            PotentialPair(np.array([np.inf]), np.array([0.0]))
        pp = PotentialPair(np.array([-np.inf, 0.0]), np.array([0.0, 1.0]))
        assert np.isneginf(pp.phi[0])

    def test_arrays_are_frozen(self):
        plan = half_identity()
        with pytest.raises(ValueError):
            plan.mass[0, 0] = 7.0


class TestHandover:
    """Public constructors copy; a builder's fresh array is taken as it is, and still checked."""

    @pytest.mark.parametrize("build, values", [
        (CostMatrix, [[1.0, 2.0], [math.inf, 0.0]]),
        (TransportPlan, [[0.5, 0.0], [0.0, 0.5]]),
        (Marginal, [0.25, 0.75]),
        (lambda v: PotentialPair(v, v), [1.0, -2.0]),
    ])
    def test_public_constructors_copy(self, build, values):
        mine = np.array(values)
        obj = build(mine)
        held = next(a for a in vars(obj).values() if isinstance(a, np.ndarray))
        assert not np.shares_memory(held, mine) and not held.flags.writeable
        mine[0] = 7.0
        assert np.array_equal(held, np.array(values))

    def test_fresh_array_is_taken_without_a_copy(self):
        mass = np.eye(2) / 2
        plan = TransportPlan(_Fresh(mass))
        assert plan.mass is mass and not mass.flags.writeable
        entries = np.ones((2, 3))
        assert CostMatrix(_Fresh(entries)).entries is entries

    @pytest.mark.parametrize("build, values, match", [
        (CostMatrix, [[1.0, math.nan]], "in \\[0, inf\\]"),
        (CostMatrix, [[1.0, -1.0]], "nonnegative"),
        (CostMatrix, [1.0, 2.0], "matrix"),
        (TransportPlan, [[0.5, -0.1]], "nonnegative"),
        (TransportPlan, [[0.75, 0.75]], "exceeds 1"),
        (TransportPlan, [[math.inf, 0.0]], "finite"),
    ])
    def test_fresh_array_is_still_checked(self, build, values, match):
        with pytest.raises((InvariantError, ShapeError), match=match):
            build(_Fresh(np.array(values)))

    @pytest.mark.parametrize("array", [
        np.zeros((3, 3))[:2],               # a view
        np.zeros((2, 2), dtype=np.int64),   # not float64
        CostMatrix(np.zeros((2, 2))).entries,  # already read-only
    ])
    def test_only_a_fresh_float_array_is_taken(self, array):
        with pytest.raises(InvariantError, match="fresh"):
            CostMatrix(_Fresh(array))

    def test_builders_hand_their_arrays_over(self, monkeypatch):
        taken = []
        readonly = core._readonly
        monkeypatch.setattr(core, "_readonly", lambda v: taken.append(type(v)) or readonly(v))
        inst = make_instance(12, 5)
        for build in (lambda: ap_cost(inst), lambda: ex33_cost(inst, 11),
                      lambda: shift_graph_plan(inst, 0, 1), lambda: graph_mixture_plan(inst, 4),
                      lambda: mixture_plan([half_identity(), half_identity()], [0.5, 0.5]),
                      lambda: _plan_from_flows((2, 2), np.array([0, 1]), np.array([1, 0]),
                                               np.array([0.5, 0.5]), PlanKind.EXACT)):
            taken.clear()
            build()
            assert taken[-1] is _Fresh


class TestTransportCost:
    def test_diagonal_mass_only(self):
        c = CostMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        assert transport_cost(c, half_identity()) == 1.0

    def test_zero_plan_costs_zero(self):
        c = CostMatrix(np.full((3, 3), np.inf))
        zero = TransportPlan(np.zeros((3, 3)), PlanKind.SUB)
        assert transport_cost(c, zero) == 0.0  # 0 * inf convention

    def test_infinite_when_mass_on_forbidden_cell(self):
        c = CostMatrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))
        plan = TransportPlan(np.array([[0.5, 0.0], [0.0, 0.5]]))
        assert transport_cost(c, plan) == math.inf

    def test_shape_mismatch(self):
        c = CostMatrix(np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            transport_cost(c, half_identity())

    def test_linear_in_plan(self, rng):
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        c = CostMatrix(rng.uniform(0, 3, (4, 4)))
        p1 = nw_corner(mu, nu)
        p2 = shuffled_coupling(rng, mu, nu)
        mix = mixture_plan([p1, p2], [0.3, 0.7])
        lhs = transport_cost(c, mix)
        rhs = 0.3 * transport_cost(c, p1) + 0.7 * transport_cost(c, p2)
        assert lhs == pytest.approx(rhs, abs=1e-12)


def masked_transport_cost(cost, plan):
    """The plan's cost over a mask of the finite cells, the oracle of the
    one that reads the cost's finite arcs."""
    fin = np.isfinite(cost.entries)
    if np.any(plan.mass[~fin] > 0):
        return math.inf
    return float(np.sum(cost.entries[fin] * plan.mass[fin]))


class TestTransportCostOnFiniteArcs:
    def test_equals_the_masked_sum(self, rng):
        for case in range(60):
            m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            entries = rng.uniform(0.0, 3.0, (m, n))
            entries[rng.random((m, n)) < 0.3] = np.inf
            fin = np.isfinite(entries)
            mass = rng.random((m, n)) * (rng.random((m, n)) < 0.5) * fin
            if case % 3 == 0:
                mass[~fin] = -0.0
            if mass.sum() > 0:
                mass /= 2.0 * mass.sum()
            if case % 4 == 1 and not fin.all():
                mass[tuple(np.argwhere(~fin)[0])] = 0.25
            cost, plan = CostMatrix(entries), TransportPlan(mass, PlanKind.SUB)
            assert transport_cost(cost, plan) == masked_transport_cost(cost, plan)

    @pytest.mark.parametrize("mass", [
        np.zeros((3, 3)),
        np.array([[-0.0, 0.5, 0.0], [0.0, -0.0, 0.25], [0.25, 0.0, -0.0]]),
        np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.25], [0.25, 0.0, 1e-300]]),
    ], ids=["all-zero", "negative-zero-on-inf", "mass-on-inf"])
    def test_edge_plans(self, mass):
        cost = CostMatrix(np.array([[np.inf, 1.0, 2.0], [3.0, np.inf, 0.5], [0.1, 7.0, np.inf]]))
        plan = TransportPlan(mass, PlanKind.SUB)
        assert transport_cost(cost, plan) == masked_transport_cost(cost, plan)


class TestPotentialPlanIntegral:
    def test_zero_potentials(self):
        pp = PotentialPair(np.zeros(2), np.zeros(2))
        assert potential_plan_integral(pp, half_identity()) == 0.0

    def test_marginal_identity(self, rng):
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 3)
        plan = nw_corner(mu, nu)
        a = rng.normal(size=5)
        b = rng.normal(size=3)
        pp = PotentialPair(a, b)
        expected = float(a @ mu.weights + b @ nu.weights)
        assert potential_plan_integral(pp, plan) == pytest.approx(expected, abs=1e-12)

    def test_plan_independence(self, rng):
        mu = random_marginal(rng, 6)
        nu = random_marginal(rng, 6)
        p1 = nw_corner(mu, nu)
        p2 = shuffled_coupling(rng, mu, nu)
        pp = PotentialPair(rng.normal(size=6), rng.normal(size=6))
        v1 = potential_plan_integral(pp, p1)
        v2 = potential_plan_integral(pp, p2)
        assert v1 == pytest.approx(v2, abs=1e-9)

    def test_minus_inf_on_support(self):
        pp = PotentialPair(np.array([-np.inf, 0.0]), np.zeros(2))
        assert potential_plan_integral(pp, half_identity()) == -math.inf

    def test_minus_inf_off_support_ignored(self):
        plan = TransportPlan(np.array([[0.0, 0.5], [0.5, 0.0]]))
        pp = PotentialPair(np.array([1.0, 2.0]), np.array([-np.inf, 0.0]))
        # column 0 potential is -inf but only cell (1, 0) uses it
        assert potential_plan_integral(pp, plan) == -math.inf
        pp2 = PotentialPair(np.array([1.0, 2.0]), np.array([0.0, -np.inf]))
        assert potential_plan_integral(pp2, plan) == -math.inf
        plan_diag = half_identity()
        pp3 = PotentialPair(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        assert potential_plan_integral(pp3, plan_diag) == pytest.approx(1.5)


class TestMixturePlan:
    def test_identity(self, rng):
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        p = nw_corner(mu, nu)
        out = mixture_plan([p], [1.0])
        assert np.allclose(out.mass, p.mass)

    def test_preserves_marginals_and_support_union(self, rng):
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        plans = [nw_corner(mu, nu), shuffled_coupling(rng, mu, nu),
                 shuffled_coupling(rng, mu, nu)]
        out = mixture_plan(plans, [0.5, 0.25, 0.25])
        verify_exact_coupling(out, mu, nu, 1e-12)
        union = np.zeros((5, 5), dtype=bool)
        for p in plans:
            union |= p.support()
        assert np.array_equal(out.support(), union)

    def test_rejects_bad_weights(self, rng):
        mu = random_marginal(rng, 3)
        p = nw_corner(mu, mu)
        with pytest.raises(InvariantError):
            mixture_plan([], [])
        with pytest.raises(InvariantError):
            mixture_plan([p, p], [0.7, 0.7])


class TestPlanDominates:
    def test_reflexive(self, rng):
        mu = random_marginal(rng, 4)
        p = nw_corner(mu, mu)
        result = plan_dominates(p, p)
        assert result.dominates and result.density_bound == pytest.approx(1.0)

    def test_half_mixture_bound_two(self):
        n = 4
        p0 = TransportPlan(np.eye(n) / n)
        roll = np.zeros((n, n))
        roll[np.arange(n), (np.arange(n) + 1) % n] = 1.0 / n
        p1 = TransportPlan(roll)
        mix = mixture_plan([p0, p1], [0.5, 0.5])
        result = plan_dominates(p0, mix)
        assert result.dominates and result.density_bound == pytest.approx(2.0)
        back = plan_dominates(mix, p0)
        assert not back.dominates and back.density_bound is None

    def test_transitive_on_family(self, rng):
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        p1 = nw_corner(mu, nu)
        p2 = mixture_plan([p1, shuffled_coupling(rng, mu, nu)], [0.5, 0.5])
        p3 = mixture_plan([p2, shuffled_coupling(rng, mu, nu)], [0.5, 0.5])
        assert plan_dominates(p1, p2).dominates
        assert plan_dominates(p2, p3).dominates
        assert plan_dominates(p1, p3).dominates


class TestGauge:
    def test_zeroes_phi_average(self, rng):
        mu = random_marginal(rng, 5)
        pp = PotentialPair(rng.normal(size=5), rng.normal(size=5))
        out = gauge_normalized(pp, mu)
        assert abs(out.phi @ mu.weights) < 1e-12
        # objective value unchanged
        nu = random_marginal(rng, 5)
        before = pp.phi @ mu.weights + pp.psi @ nu.weights
        after = out.phi @ mu.weights + out.psi @ nu.weights
        assert before == pytest.approx(after, abs=1e-12)


class TestWeakDuality:
    def test_feasible_pair_bounds_cost(self, rng):
        # c-transform construction: psi[j] = min_i c[i,j] - phi[i] is feasible
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        c = CostMatrix(rng.uniform(0, 4, (5, 5)))
        phi = rng.normal(size=5)
        psi = np.min(c.entries - phi[:, None], axis=0)
        pp = PotentialPair(phi, psi)
        assert pp.max_violation(c) <= 1e-12
        plan = nw_corner(mu, nu)
        assert potential_plan_integral(pp, plan) <= transport_cost(c, plan) + 1e-12


def nonzero_arcs(entries: np.ndarray) -> tuple:
    """The finite cells as the 2-D `np.nonzero` formula lists them, read-only."""
    rows, cols = np.nonzero(np.isfinite(entries))
    arcs = (rows, cols, entries[rows, cols])
    for arr in arcs:
        arr.setflags(write=False)
    return arcs


def divmod_arcs(entries: np.ndarray) -> tuple:
    """The finite cells as `finite_arcs` listed them before its all-finite
    case took the whole grid: one flat scan split by `np.divmod`."""
    finite = np.isfinite(entries)
    return (*np.divmod(np.flatnonzero(finite), entries.shape[1]), entries[finite])


def cost_with_mask(rng, shape, share):
    entries = np.round(rng.uniform(0.0, 5.0, size=shape), 1)
    entries[rng.random(shape) < share] = math.inf
    return entries


class TestFiniteArcsAreFlat:
    """`finite_arcs` lists the cells the 2-D `np.nonzero` formula and the
    flat `np.divmod` one list, bit for bit."""

    @staticmethod
    def assert_same_arcs(entries):
        got = CostMatrix(entries).finite_arcs
        entries = np.array(entries, float)
        for want in (nonzero_arcs(entries), divmod_arcs(entries)):
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
                assert not g.flags.writeable

    @pytest.mark.parametrize("seed", range(12))
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(1, 40, size=2))
        self.assert_same_arcs(cost_with_mask(rng, shape, rng.choice([0.05, 0.5, 0.95])))

    @pytest.mark.parametrize("shape", [(1, 17), (17, 1), (1, 1), (5, 0), (0, 5), (0, 0)])
    @pytest.mark.parametrize("share", [0.0, 0.5, 1.0])
    def test_thin_and_empty_shapes(self, shape, share):
        self.assert_same_arcs(cost_with_mask(np.random.default_rng(3), shape, share))

    @pytest.mark.parametrize("fill", [math.inf, 0.0, 2.5])
    def test_uniform_matrices(self, fill):
        self.assert_same_arcs(np.full((9, 13), fill))

    def test_benchmark_size(self):
        rng = np.random.default_rng(7)
        self.assert_same_arcs(cost_with_mask(rng, (300, 300), 0.2))

    @pytest.mark.parametrize("n", [4, 5, 12, 13, 144])
    def test_rotation_costs(self, n):
        inst = make_instance(n)
        if n % 2 == 0:
            self.assert_same_arcs(ap_cost(inst).entries)
        for k_max in sorted({0, 1, n // 2, n - 2, n - 1}):
            self.assert_same_arcs(ex33_cost(inst, k_max).entries)

    def test_fortran_ordered_entries(self):
        entries = np.asfortranarray(cost_with_mask(np.random.default_rng(4), (7, 9), 0.0))
        self.assert_same_arcs(entries)


def old_cost_error(entries: np.ndarray):
    """The message the four-pass cost check raised, or None."""
    if np.any(np.isnan(entries)) or np.any(np.isneginf(entries)):
        return "cost entries must be in [0, inf]"
    if np.any(entries[np.isfinite(entries)] < 0):
        return "finite cost entries must be nonnegative"
    return None


def old_plan_error(mass: np.ndarray):
    """The message the four-pass plan check raised, or None."""
    if not np.all(np.isfinite(mass)):
        return "plan entries must be finite"
    if np.any(mass < 0):
        return "plan entries must be nonnegative"
    if float(mass.sum()) > 1.0 + 1e-9:
        return f"plan mass {float(mass.sum())!r} exceeds 1"
    return None


def raised(build, values):
    try:
        build(values)
    except InvariantError as exc:
        return str(exc)
    return None


SPECIAL = [math.nan, math.inf, -math.inf, -1.0, -0.0, -1e-300, 1e308]


class TestOnePassValidation:
    """Costs and plans are checked in one reduction, with the messages of the four passes."""

    @pytest.mark.parametrize("cells", [
        [math.nan], [-math.inf], [-2.0], [math.inf, -2.0], [math.nan, -2.0],
        [-2.0, -math.inf], [-0.0], [math.inf], [0.0, 1e308], [-1e-300]])
    def test_cost_messages(self, cells):
        entries = np.zeros((3, 4))
        entries.flat[[5, 0, 11][:len(cells)]] = cells
        assert raised(CostMatrix, entries) == old_cost_error(entries)

    @pytest.mark.parametrize("cells", [
        [math.nan], [math.inf], [-math.inf], [-0.25], [math.inf, -math.inf],
        [math.nan, -0.25], [-0.25, math.inf], [0.75, 0.75], [-0.0], [1e-300]])
    def test_plan_messages(self, cells):
        mass = np.zeros((3, 4))
        mass.flat[[5, 0, 11][:len(cells)]] = cells
        assert raised(TransportPlan, mass) == old_plan_error(mass)

    @pytest.mark.parametrize("cells", [[1e308, 1e308], [1e308, 1e308, -1.0],
                                       [-1e308, -1e308]])
    def test_plan_whose_sum_overflows(self, cells):
        mass = np.zeros((2, 3))
        mass.flat[:len(cells)] = cells
        with np.errstate(over="ignore"):
            want = old_plan_error(mass)
            assert raised(TransportPlan, mass) == want
        assert want is not None and want != "plan entries must be finite"

    @pytest.mark.parametrize("seed", range(40))
    def test_random_special_cells(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 1.0 / 12, size=(3, 4))
        for _ in range(rng.integers(0, 4)):
            values.flat[rng.integers(values.size)] = rng.choice(SPECIAL)
        with np.errstate(over="ignore", invalid="ignore"):
            assert raised(CostMatrix, values) == old_cost_error(values)
            assert raised(TransportPlan, values) == old_plan_error(values)


class TestPlanSums:
    def test_sums_are_read_only_and_match_the_mass(self, rng):
        mu, nu = random_marginal(rng, 7), random_marginal(rng, 5)
        plan = nw_corner(mu, nu)
        assert plan.row_sums().tobytes() == plan.mass.sum(axis=1).tobytes()
        assert plan.col_sums().tobytes() == plan.mass.sum(axis=0).tobytes()
        assert plan.total_mass() == float(plan.mass.sum())
        assert plan.row_sums() is plan.row_sums()
        for sums in (plan.row_sums(), plan.col_sums()):
            assert not sums.flags.writeable

    def test_verify_messages_keep_their_text(self):
        mu, nu = Marginal(np.array([0.5, 0.5])), Marginal(np.array([0.25, 0.75]))
        plan = TransportPlan(np.array([[0.5, 0.0], [0.0, 0.5]]))
        with pytest.raises(InvariantError,
                           match=r"^not an exact coupling: marginal error 2\.500e-01 > 1\.0e-09$"):
            verify_exact_coupling(plan, mu, nu)
        with pytest.raises(InvariantError,
                           match=r"^not a sub-coupling: marginal excess 2\.500e-01 > 1\.0e-09$"):
            verify_sub_coupling(plan, mu, nu)
        with pytest.raises(ShapeError, match=r"^plan shape \(2, 2\) does not match marginals"):
            verify_sub_coupling(plan, mu, Marginal(np.ones(3) / 3))
