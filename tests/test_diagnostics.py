import math

import numpy as np
import pytest

from mklab import (
    CostMatrix,
    InvariantError,
    Marginal,
    PotentialPair,
    ShapeError,
    TransportPlan,
    ap_cost,
    attainment_certificate,
    birkhoff_levels,
    check_ccm_ae,
    check_strong_ccm,
    dual_sequence,
    level_matrix,
    make_instance,
    mixture_plan,
    orbit_certificate,
    shift_graph_plan,
    singular_mass_estimate,
    solve_primal,
    telescoping_bound_check,
    uniform_marginal,
)
from mklab import rotation
from mklab.diagnostics import BOUND_SLACK, BoundRecord

from conftest import nw_corner, random_cost, random_marginal


def ap_reference(inst):
    return mixture_plan(
        [shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])


class TestStrongCcm:
    def test_lp_output_passes(self, rng):
        c = random_cost(rng, 5, 5)
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        report = solve_primal(c, mu, nu)
        result = check_strong_ccm(c, report.optimal_plan, report.optimal_potentials)
        assert result.passed

    def test_zero_potentials_fail_on_support(self):
        c = CostMatrix(np.ones((2, 2)))
        plan = TransportPlan(np.eye(2) / 2)
        pp = PotentialPair(np.zeros(2), np.zeros(2))
        result = check_strong_ccm(c, plan, pp, tol=1e-7)
        assert not result.passed
        assert result.witness == (0, 0)

    def test_feasibility_violation_witnessed(self):
        c = CostMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
        plan = TransportPlan(np.eye(2) / 2)
        pp = PotentialPair(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        result = check_strong_ccm(c, plan, pp, tol=1e-7)
        assert not result.passed and result.witness == (0, 1)

    def test_infinite_cells_are_vacuous(self):
        c = CostMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))
        plan = TransportPlan(np.eye(2) / 2)
        pp = PotentialPair(np.array([1.0, 100.0]), np.array([0.0, -99.0]))
        assert check_strong_ccm(c, plan, pp, tol=1e-7).passed

    def test_near_optimal_sequence_passes_loose_tol(self):
        inst = make_instance(8)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        pi_half = ap_reference(inst)
        pots = dual_sequence(c, mu, mu, pi_half, (1e-6,))
        result = check_strong_ccm(c, pi_half, pots[0], tol=1e-3)
        assert result.passed


class TestCcmAe:
    def test_full_family_equivalent_to_strong(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        report = solve_primal(c, mu, nu)
        family = [TransportPlan(np.outer(mu.weights, nu.weights))]
        strong = check_strong_ccm(c, report.optimal_plan, report.optimal_potentials)
        ae = check_ccm_ae(c, report.optimal_plan, report.optimal_potentials, family)
        assert strong.passed == ae.passed

    def test_strong_implies_ae(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        report = solve_primal(c, mu, nu)
        for family in ([report.optimal_plan], [nw_corner(mu, nu)], []):
            assert check_ccm_ae(c, report.optimal_plan, report.optimal_potentials,
                                family).passed

    def test_ae_weaker_than_strong(self):
        # row 2 carries no mass, so a violation there passes a.e. but not strong
        c = CostMatrix(np.array([[1.0, 2.0, 5.0],
                                 [2.0, 1.0, 5.0],
                                 [0.0, 0.0, 0.0]]))
        mu = Marginal(np.array([0.5, 0.5, 0.0]))
        nu = Marginal(np.array([0.5, 0.5, 0.0]))
        plan = TransportPlan(np.diag([0.5, 0.5, 0.0]))
        pp = PotentialPair(np.array([1.0, 1.0, 100.0]), np.array([0.0, 0.0, 0.0]))
        family = [plan, TransportPlan(np.array([[0.0, 0.5, 0.0],
                                                [0.5, 0.0, 0.0],
                                                [0.0, 0.0, 0.0]]))]
        assert not check_strong_ccm(c, plan, pp, tol=1e-7).passed
        assert check_ccm_ae(c, plan, pp, family, tol=1e-7).passed


class TestAttainment:
    def test_lp_output_certified(self, rng):
        c = random_cost(rng, 5, 5)
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        report = solve_primal(c, mu, nu)
        cert = attainment_certificate(c, report.optimal_plan, report.optimal_potentials)
        assert cert.certified
        assert cert.potential_integral == pytest.approx(cert.plan_cost, abs=1e-7)

    def test_perturbed_potentials_not_certified(self, rng):
        c = random_cost(rng, 4, 4)
        mu = random_marginal(rng, 4)
        nu = random_marginal(rng, 4)
        report = solve_primal(c, mu, nu)
        pots = report.optimal_potentials
        worse = PotentialPair(pots.phi, pots.psi - 0.5)
        cert = attainment_certificate(c, report.optimal_plan, worse)
        assert not cert.certified
        assert cert.gap > 0.1

    def test_no_minus_inf_at_positive_mass_when_certified(self, rng):
        # certified pairs are finite wherever the marginals charge mass
        c = random_cost(rng, 5, 5)
        mu = random_marginal(rng, 5)
        nu = random_marginal(rng, 5)
        report = solve_primal(c, mu, nu)
        cert = attainment_certificate(c, report.optimal_plan, report.optimal_potentials)
        assert cert.certified
        pots = report.optimal_potentials
        assert np.all(np.isfinite(pots.phi[mu.weights > 0]))
        assert np.all(np.isfinite(pots.psi[nu.weights > 0]))

    def test_sequence_potentials_certify_at_loose_tol(self):
        inst = make_instance(8)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        pi_half = ap_reference(inst)
        pots = dual_sequence(c, mu, mu, pi_half, (1e-6,))
        cert = attainment_certificate(c, pi_half, pots[0], tol=1e-3)
        assert cert.certified

    def test_minus_inf_at_positive_mass_cannot_certify(self, rng):
        # support equality is unsatisfiable at a -inf coordinate whose
        # point carries mass, so such pairs always fail the certificate
        c = random_cost(rng, 3, 3)
        mu = random_marginal(rng, 3)
        nu = random_marginal(rng, 3)
        plan = nw_corner(mu, nu)
        phi = np.array([-np.inf, 0.0, 0.0])
        psi = np.zeros(3)
        cert = attainment_certificate(c, plan, PotentialPair(phi, psi))
        assert not cert.certified
        assert cert.potential_integral == -math.inf


def five_argument_bound(inst, base, potentials, levels, k_max):
    """The bound check when its callers passed the base cost and the level
    table, kept as the oracle of the one that builds both."""
    n, s = inst.n, inst.shift
    idx = np.arange(n)
    diag_cost = base[idx, idx]
    step_cost = base[idx, (idx + s) % n]
    records = []
    for seq_i, pair in enumerate(potentials):
        phi, psi = pair.phi, pair.psi
        base_norm = float(
            np.mean(np.abs(diag_cost - (phi + psi)))
            + np.mean(np.abs(step_cost - (phi + psi[(idx + s) % n])))
        )
        for k in range(1, k_max + 1):
            oplus_k = phi + psi[(idx + k * s) % n]
            lhs = float(np.mean(np.abs(levels[k] - oplus_k)))
            rhs = k * base_norm
            records.append(BoundRecord(sequence_index=seq_i, k=k, lhs=lhs,
                                       rhs=rhs, passed=bool(lhs <= rhs + BOUND_SLACK)))
    return records


class TestTelescopingBound:
    @pytest.mark.parametrize("n, shift", [(8, 3), (9, 2), (16, None), (17, None),
                                          (24, 7), (31, 1), (60, None)])
    def test_records_equal_the_five_argument_body(self, rng, n, shift):
        inst = make_instance(n, shift)
        pots = [PotentialPair(rng.normal(size=n), rng.normal(size=n)),
                PotentialPair(rng.integers(-2, 3, n).astype(float), np.zeros(n))]
        if n % 2 == 0:
            pots.append(orbit_certificate(inst)[1])
        for k_max in sorted({1, min(5, n - 1), n - 1}):
            expected = five_argument_bound(inst, level_matrix(inst, 1), pots,
                                           birkhoff_levels(inst, k_max), k_max)
            assert telescoping_bound_check(inst, pots, k_max) == expected

    def test_levels_come_from_the_rotation_module(self, monkeypatch):
        # the benchmark tracer charges the level table to the rotation
        # layer by wrapping it where the check looks it up
        calls = []

        def recording(inst, k_max):
            calls.append((inst, k_max))
            return birkhoff_levels(inst, k_max)

        monkeypatch.setattr(rotation, "birkhoff_levels", recording)
        inst = make_instance(12)
        telescoping_bound_check(inst, [PotentialPair(np.zeros(12), np.zeros(12))], 4)
        assert calls == [(inst, 4)]

    @pytest.mark.parametrize("k_max", [0, 12, -1])
    def test_step_count_out_of_range(self, k_max):
        with pytest.raises(InvariantError, match="must lie in"):
            telescoping_bound_check(make_instance(12), [], k_max)

    def test_potential_length_must_match(self):
        with pytest.raises(ShapeError):
            telescoping_bound_check(make_instance(12), [PotentialPair(np.zeros(11),
                                                                      np.zeros(11))], 3)

    def test_ap_bound_all_pass(self):
        inst = make_instance(24, 7)
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        pots = dual_sequence(c, mu, mu, ap_reference(inst), (1e-2, 1e-4))
        records = telescoping_bound_check(inst, pots, 5)
        assert len(records) == 2 * 5
        assert all(r.passed for r in records)

    def test_bound_holds_for_arbitrary_potentials(self, rng):
        # the bound is an exact telescoping identity plus triangle
        # inequality, so any finite pair satisfies it
        inst = make_instance(16)
        pots = [PotentialPair(rng.normal(size=16), rng.normal(size=16))
                for _ in range(3)]
        records = telescoping_bound_check(inst, pots, 8)
        assert all(r.passed for r in records)

    def test_exact_potentials_make_lhs_vanish(self):
        # on an even grid the one-step signs have a cyclic primitive, so the
        # graph costs split exactly as phi + psi and every lhs is zero
        inst = make_instance(8, 3)
        c = ap_cost(inst)
        n, s = inst.n, inst.shift
        psi = np.zeros(n)
        order = [0]
        for _ in range(n - 1):
            order.append((order[-1] + s) % n)
        for prev, cur in zip(order, order[1:]):
            psi[cur] = psi[prev] + (c.entries[prev, (prev + s) % n] - 1.0)
        phi = 1.0 - psi
        pots = [PotentialPair(phi, psi)]
        records = telescoping_bound_check(inst, pots, 5)
        for r in records:
            assert r.lhs == pytest.approx(0.0, abs=1e-12)

    def test_convergence_shadow(self):
        # for each fixed k the sup distance to the level values vanishes
        # along the sequence, at the rate forced by the budget
        inst = make_instance(16)
        n = inst.n
        c = ap_cost(inst)
        mu = uniform_marginal(inst)
        eps_list = (1e-3, 1e-5, 1e-7)
        pots = dual_sequence(c, mu, mu, ap_reference(inst), eps_list)
        levels = birkhoff_levels(inst, 5)
        idx = np.arange(n)
        for eps, pair in zip(eps_list, pots):
            for k in range(1, 6):
                cols = (idx + k * inst.shift) % n
                dev = np.abs(pair.phi + pair.psi[cols] - levels[k])
                assert float(dev.max()) <= 4 * k * n * eps + 1e-5


class TestSingularMass:
    def test_bounded_potentials_vanish_linearly(self):
        n = 6
        pi0 = TransportPlan(np.eye(n) / n)
        pots = [PotentialPair(np.full(n, -2.0), np.zeros(n))]
        h_ref = np.zeros((n, n))
        diag = singular_mass_estimate(pi0, pots, h_ref, (0.5, 0.25, 0.1))
        bound = 2.0  # sup norm of the potential sums
        for delta, value in diag.small_set_profile:
            assert 0.0 <= value <= bound * delta + 1e-12

    def test_profile_monotone_in_delta(self, rng):
        n = 8
        mu = random_marginal(rng, n)
        nu = random_marginal(rng, n)
        pi0 = nw_corner(mu, nu)
        pots = [PotentialPair(rng.normal(size=n) * 5, rng.normal(size=n) * 5)]
        h_ref = np.zeros((n, n))
        diag = singular_mass_estimate(pi0, pots, h_ref, (0.5, 0.2, 0.1, 0.01))
        values = [v for _, v in diag.small_set_profile]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_norms_match_direct_computation(self, rng):
        n = 5
        mu = random_marginal(rng, n)
        nu = random_marginal(rng, n)
        pi0 = nw_corner(mu, nu)
        pair = PotentialPair(rng.normal(size=n), rng.normal(size=n))
        h_ref = rng.normal(size=(n, n))
        diag = singular_mass_estimate(pi0, [pair], h_ref, (0.5, 0.1))
        sup = pi0.mass > 0
        dev = pair.oplus()[sup] - h_ref[sup]
        w = pi0.mass[sup]
        assert diag.l1_distances_to_limit[0] == pytest.approx(
            float(np.sum(np.abs(dev) * w)))
        assert diag.positive_part_norms[0] == pytest.approx(
            float(np.sum(np.maximum(dev, 0.0) * w)))

    @pytest.mark.parametrize("seed", range(40))
    def test_profile_matches_the_greedy_cell_walk(self, seed):
        # the cell-by-cell walk that defines the profile, kept as the oracle
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        if seed % 3:
            pi0 = nw_corner(random_marginal(rng, n), random_marginal(rng, n))
            deltas = tuple(sorted(rng.uniform(1e-3, 1.0, size=4), reverse=True))
        else:   # equal masses and deltas on their running sums: the >= boundary
            pi0 = TransportPlan(np.eye(n) / n)
            deltas = tuple(k / n for k in range(n, 0, -1))
        phi = rng.normal(size=n) * 3
        psi = rng.integers(-2, 3, size=n).astype(float)   # ties among contributions
        if seed % 4 == 0:
            phi[0] = -math.inf
        pair = PotentialPair(phi, psi)
        sup = pi0.support()
        weights = pi0.mass[sup]
        contrib = pair.oplus()[sup] * weights
        expected = []
        for delta in deltas:
            total = 0.0
            mass = 0.0
            for cell in np.argsort(contrib, kind="stable"):
                if contrib[cell] >= 0.0 or mass + weights[cell] >= delta:
                    break
                mass += float(weights[cell])
                total -= float(contrib[cell])
            expected.append((delta, total))
        diag = singular_mass_estimate(pi0, [pair], np.zeros((n, n)), deltas)
        assert diag.small_set_profile == tuple(expected)

    def test_estimate_is_smallest_delta_value(self, rng):
        n = 6
        mu = random_marginal(rng, n)
        nu = random_marginal(rng, n)
        pi0 = nw_corner(mu, nu)
        pots = [PotentialPair(rng.normal(size=n), rng.normal(size=n))]
        diag = singular_mass_estimate(pi0, pots, np.zeros((n, n)), (0.3, 0.2, 0.05))
        assert diag.singular_mass_estimate == diag.small_set_profile[-1][1]
