import math
import tracemalloc

import numpy as np
import pytest

from mklab import (
    InvariantError,
    OrbitState,
    ap_cost,
    ap_coupling_space,
    attainment_certificate,
    birkhoff_level,
    birkhoff_levels,
    ex33_cost,
    first_passage,
    golden_shift,
    graph_mixture_plan,
    level_matrix,
    make_instance,
    mixture_plan,
    mixture_weights,
    orbit_certificate,
    shift_graph_plan,
    skew_step,
    solve_primal,
    step_sign,
    step_signs,
    transport_cost,
    uniform_marginal,
)
from mklab.fileformats import InstanceSpec, materialize
from mklab.rotation import RotationInstance


class TestInstance:
    def test_coprimality_required(self):
        with pytest.raises(InvariantError):
            RotationInstance(n=8, shift=4)
        RotationInstance(n=8, shift=3)

    def test_minimum_size(self):
        with pytest.raises(InvariantError):
            RotationInstance(n=3, shift=1)

    @pytest.mark.parametrize("n", [1, 3, 2001, 2_000_000])
    def test_size_checked_before_the_shift_is_derived(self, n):
        with pytest.raises(InvariantError, match="grid size"):
            golden_shift(n)
        with pytest.raises(InvariantError, match="grid size"):
            make_instance(n)

    def test_golden_shift_values(self):
        assert golden_shift(8) == 5
        assert golden_shift(144) == 89   # consecutive Fibonacci numbers
        assert math.gcd(golden_shift(24), 24) == 1
        assert math.gcd(golden_shift(192), 192) == 1

    def test_half_split_sizes(self):
        even = make_instance(8, 3)
        assert int((step_signs(even) == 1).sum()) == 4
        odd = make_instance(9, 2)
        signs = step_signs(odd)
        assert abs(int((signs == 1).sum()) - int((signs == -1).sum())) == 1


class TestStepSign:
    def test_endpoints(self):
        inst = make_instance(8, 3)
        assert step_sign(inst, 0) == 1
        assert step_sign(inst, 3) == 1
        assert step_sign(inst, 4) == -1
        assert step_sign(inst, 7) == -1

    def test_even_split_sums_to_zero(self):
        inst = make_instance(8, 3)
        assert int(step_signs(inst).sum()) == 0


class TestBirkhoffLevel:
    def test_zero_steps(self):
        inst = make_instance(10, 3)
        assert all(birkhoff_level(inst, i, 0) == 1 for i in range(10))

    def test_one_step(self):
        inst = make_instance(8, 3)
        assert birkhoff_level(inst, 0, 1) == 2   # lower half
        assert birkhoff_level(inst, 4, 1) == 0   # upper half

    def test_orbit_enumeration_value(self):
        # orbit of 0 under +3 mod 8: 0, 3, 6, 1 with signs +, +, -, +
        inst = make_instance(8, 3)
        assert birkhoff_level(inst, 0, 4) == 3

    def test_recursion_exhaustive(self):
        for n in (8, 9, 12, 25):
            inst = make_instance(n)
            levels = birkhoff_levels(inst, n)
            g = step_signs(inst)
            idx = np.arange(n)
            for k in range(n):
                assert np.array_equal(
                    levels[k + 1], levels[k] + g[(idx + k * inst.shift) % n])

    def test_period_sum_even(self):
        for n in (8, 24, 48):
            inst = make_instance(n)
            levels = birkhoff_levels(inst, n)
            assert np.all(levels[n] == 1)

    def test_table_matches_scalar(self):
        inst = make_instance(12, 5)
        levels = birkhoff_levels(inst, 11)
        for i in range(12):
            for k in range(12):
                assert levels[k, i] == birkhoff_level(inst, i, k)

    @pytest.mark.parametrize("n", [4, 5, 9, 12, 13, 24, 31])
    def test_table_matches_scalar_for_every_shift(self, n):
        # k = n crosses one full orbit, where odd n gains a level
        for shift in (s for s in range(1, n) if math.gcd(s, n) == 1):
            inst = make_instance(n, shift)
            levels = birkhoff_levels(inst, n)
            assert levels.dtype == np.int64 and levels.shape == (n + 1, n)
            expected = [[birkhoff_level(inst, i, k) for i in range(n)] for k in range(n + 1)]
            assert np.array_equal(levels, expected)


class TestApCost:
    def test_entry_count(self):
        c = ap_cost(make_instance(8, 3))
        assert int(c.finite_mask.sum()) == 16

    def test_values(self):
        inst = make_instance(8, 3)
        c = ap_cost(inst)
        assert c.entries[0, 0] == 1.0
        assert c.entries[0, 3] == 2.0     # lower-half source
        assert c.entries[4, 7] == 0.0     # upper-half source
        assert math.isinf(c.entries[0, 1])

    def test_odd_rejected(self):
        with pytest.raises(InvariantError):
            ap_cost(make_instance(9, 2))

    @pytest.mark.parametrize("n, shift", [(4, 1), (4, 3), (8, 3), (10, 7), (24, None), (96, 1)])
    def test_matches_its_definition(self, n, shift):
        inst = make_instance(n, shift)
        expected = np.full((n, n), math.inf)
        for i in range(n):
            expected[i, i] = 1.0
            expected[i, (i + inst.shift) % n] = 2.0 if 2 * i < n else 0.0
        assert np.array_equal(ap_cost(inst).entries, expected)

    def test_primal_value_one(self):
        inst = make_instance(8, 3)
        mu = uniform_marginal(inst)
        assert solve_primal(ap_cost(inst), mu, mu).primal_value == pytest.approx(
            1.0, abs=1e-9)

    def test_coupling_space_is_segment(self):
        for n in (8, 24):
            rank, dim = ap_coupling_space(make_instance(n))
            assert rank == 2 * n - 1
            assert dim == 1

    def test_every_graph_coupling_costs_one(self):
        inst = make_instance(8, 3)
        c = ap_cost(inst)
        p0 = shift_graph_plan(inst, 0)
        p1 = shift_graph_plan(inst, 1)
        for rho in (0.0, 0.3, 0.5, 1.0):
            mix = mixture_plan([p0, p1], [rho, 1.0 - rho])
            assert transport_cost(c, mix) == pytest.approx(1.0, abs=1e-12)


def scattered_level_matrix(inst, k_max):
    """`level_matrix` as it was built for every k_max: an all-infinite
    matrix with each graph's levels written in through its columns."""
    levels = birkhoff_levels(inst, k_max)
    out = np.full((inst.n, inst.n), math.inf)
    out[np.arange(inst.n), (np.arange(inst.n) + np.arange(k_max + 1)[:, None] * inst.shift)
        % inst.n] = levels
    return out


def same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestLevelMatrix:
    def test_diagonal_is_one(self):
        lm = level_matrix(make_instance(8, 3), 0)
        assert np.all(np.diag(lm) == 1.0)

    def test_one_step_matches_ap_graph(self):
        inst = make_instance(8, 3)
        lm = level_matrix(inst, 1)
        c = ap_cost(inst)
        idx = np.arange(8)
        step = (idx + 3) % 8
        assert np.array_equal(lm[idx, step], c.entries[idx, step])

    def test_recomputation_oracle(self):
        inst = make_instance(12, 5)
        lm = level_matrix(inst, 11)
        for i in range(12):
            for k in range(12):
                j = (i + k * 5) % 12
                expected = 1
                for t in range(k):
                    expected += 1 if 2 * ((i + t * 5) % 12) < 12 else -1
                assert lm[i, j] == expected

    @pytest.mark.parametrize("n, shift", [(4, 1), (4, 3), (5, 2), (8, 3), (9, 4), (12, 5),
                                          (13, None), (144, None), (145, None), (192, None)])
    def test_matches_the_scattered_build(self, n, shift):
        inst = make_instance(n, shift)
        for k_max in sorted({0, 1, 2, n // 2, n - 2, n - 1}):
            want = scattered_level_matrix(inst, k_max)
            assert same_bits(level_matrix(inst, k_max), want)
            assert same_bits(ex33_cost(inst, k_max).entries, np.maximum(want, 0.0))
        if n % 2 == 0:
            assert same_bits(ap_cost(inst).entries, scattered_level_matrix(inst, 1))

    @pytest.mark.parametrize("n", [4, 5, 12, 13, 48, 49, 192])
    def test_every_k_max_matches_the_scattered_build(self, n):
        """Both builds, the all-finite form with the graphs past k_max set
        to infinity (2 k_max >= n) and the levels scattered into infinity,
        give the oracle's bytes at every k_max."""
        for shift in sorted({golden_shift(n), 1, n - 1}):
            inst = make_instance(n, shift)
            for k_max in range(n):
                assert same_bits(level_matrix(inst, k_max), scattered_level_matrix(inst, k_max))

    def test_k_max_bounds(self):
        inst = make_instance(8, 3)
        with pytest.raises(InvariantError):
            level_matrix(inst, 8)
        with pytest.raises(InvariantError):
            level_matrix(inst, -1)


class TestEx33Cost:
    def test_clamps_to_zero(self):
        inst = make_instance(12, 5)
        lm = level_matrix(inst, 11)
        c = ex33_cost(inst, 11)
        fin = np.isfinite(lm)
        assert np.array_equal(c.entries[fin], np.maximum(lm[fin], 0.0))
        assert np.any(lm[fin] < 0)   # some cells really are clamped

    def test_zero_set_characterization(self):
        for n in (8, 12, 25, 48):
            inst = make_instance(n)
            k_max = n - 1
            c = ex33_cost(inst, k_max)
            levels = birkhoff_levels(inst, k_max)
            idx = np.arange(n)
            for k in range(k_max + 1):
                cols = (idx + k * inst.shift) % n
                zero = c.entries[idx, cols] == 0.0
                assert np.array_equal(zero, levels[k] <= 0)

    def test_primal_at_most_diagonal(self):
        inst = make_instance(12, 5)
        mu = uniform_marginal(inst)
        value = solve_primal(ex33_cost(inst, 11), mu, mu).primal_value
        assert value <= 1.0 + 1e-9


class TestSkewProduct:
    def test_single_step(self):
        inst = make_instance(8, 3)
        out = skew_step(inst, OrbitState(0, 0))
        assert out == OrbitState(3, 1)

    def test_telescoping(self):
        for n in (8, 9, 24):
            inst = make_instance(n)
            levels = birkhoff_levels(inst, n)
            for i in range(n):
                state = OrbitState(i, 0)
                for k in range(1, n + 1):
                    state = skew_step(inst, state)
                    assert state.level == levels[k, i] - 1

    def test_zero_cell_iff_negative_level(self):
        inst = make_instance(16)
        k_max = 15
        c = ex33_cost(inst, k_max)
        for i in range(16):
            state = OrbitState(i, 0)
            for k in range(1, k_max + 1):
                state = skew_step(inst, state)
                j = (i + k * inst.shift) % 16
                assert (c.entries[i, j] == 0.0) == (state.level <= -1)


class TestFirstPassage:
    def test_upper_half_hits_in_one_step(self):
        inst = make_instance(8, 3)
        for i in range(8):
            if step_sign(inst, i) == -1:
                assert first_passage(inst, i, 7) == 1

    def test_origin_rises_first(self):
        inst = make_instance(8, 3)
        fp = first_passage(inst, 0, 7)
        assert fp is None or fp > 1

    def test_matches_exhaustive_scan(self):
        inst = make_instance(144)
        k_max = 143
        levels = birkhoff_levels(inst, k_max)
        for i in range(144):
            expected = None
            for k in range(1, k_max + 1):
                if levels[k, i] <= 0:
                    expected = k
                    break
            assert first_passage(inst, i, k_max) == expected

    @pytest.mark.parametrize("n, shift", [(4, 1), (8, 3), (9, 2), (16, None), (25, 7),
                                          (60, None)])
    def test_first_nonpositive_level_of_the_table(self, n, shift):
        inst = make_instance(n, shift)
        for k_max in (0, 1, 5, n - 1, 2 * n + 3):
            levels = birkhoff_levels(inst, k_max)[1:]
            for i in range(n):
                hits = np.flatnonzero(levels[:, i] <= 0)
                expected = int(hits[0]) + 1 if hits.size else None
                assert first_passage(inst, i, k_max) == expected

    def test_negative_step_count_raises(self):
        with pytest.raises(InvariantError, match="nonnegative"):
            first_passage(make_instance(8, 3), 2, -1)

    def test_reads_one_column_without_the_table(self):
        # the (k_max + 1) x n level table would take 61 MiB here
        inst = make_instance(2000)
        tracemalloc.start()
        try:
            first_passage(inst, 7, 1999)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1 << 20


class TestOrbitCertificate:
    def test_lp_cross_check(self):
        # the certificate proves the full-support value without the LP;
        # the LP must land on the same value
        for n in (8, 12, 24):
            inst = make_instance(n)
            c = ex33_cost(inst, n - 1)
            plan, pair = orbit_certificate(inst)
            cert = attainment_certificate(c, plan, pair)
            assert cert.certified
            assert pair.max_violation(c) == 0.0
            mu = uniform_marginal(inst)
            lp = solve_primal(c, mu, mu).primal_value
            assert cert.plan_cost == pytest.approx(lp, abs=1e-9)
            assert cert.potential_integral == pytest.approx(lp, abs=1e-9)

    def test_odd_grid_has_no_primitive(self):
        with pytest.raises(InvariantError):
            orbit_certificate(make_instance(31))


class TestMixtureWeights:
    def test_pure_geometric_for_flat_levels(self):
        inst = make_instance(8, 3)
        levels = np.ones((4, 8), dtype=np.int64)
        w = mixture_weights(inst, 3, levels)
        expected = np.array([1.0, 0.5, 0.25, 0.125])
        assert np.allclose(w, expected / expected.sum())

    def test_decay_condition_holds(self):
        # normalized weights satisfy w[k] * mean|level_k| <= C * 2^-k with
        # C the inverse of the pre-normalization total
        inst = make_instance(24)
        k_max = 10
        levels = birkhoff_levels(inst, k_max)
        w = mixture_weights(inst, k_max, levels)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        raw = np.array([2.0 ** (-k) / max(1.0, float(np.mean(np.abs(levels[k]))))
                        for k in range(k_max + 1)])
        big_c = 1.0 / raw.sum()
        for k in range(k_max + 1):
            level_norm = float(np.mean(np.abs(levels[k])))
            assert w[k] * level_norm <= big_c * 2.0 ** (-k) + 1e-12
        assert np.array_equal(w, raw / raw.sum())

    def test_mixture_plan_has_union_support(self):
        inst = make_instance(12, 5)
        plan = graph_mixture_plan(inst, 3)
        expected = np.zeros((12, 12), dtype=bool)
        idx = np.arange(12)
        for k in range(4):
            expected[idx, (idx + k * 5) % 12] = True
        assert np.array_equal(plan.support(), expected)
        mu = uniform_marginal(inst)
        from mklab import verify_exact_coupling

        verify_exact_coupling(plan, mu, mu, 1e-12)

    @pytest.mark.parametrize("n, shift, k_max", [
        (4, 1, 3), (8, 3, 0), (12, 5, 3), (13, None, 12), (24, None, 4), (60, 7, 59)])
    def test_mixture_plan_is_the_mixture_of_graph_plans(self, n, shift, k_max):
        inst = make_instance(n, shift)
        weights = mixture_weights(inst, k_max, birkhoff_levels(inst, k_max))
        expected = mixture_plan([shift_graph_plan(inst, k) for k in range(k_max + 1)], weights)
        assert np.array_equal(graph_mixture_plan(inst, k_max).mass, expected.mass)

    def test_mixture_plan_holds_one_dense_array(self):
        n = 192
        inst = make_instance(n)
        tracemalloc.start()
        try:
            graph_mixture_plan(inst, n - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * n * 8

    @pytest.mark.parametrize("k", [-1, 8])
    def test_graph_step_count_out_of_range(self, k):
        inst = make_instance(8, 3)
        with pytest.raises(InvariantError, match="must lie in"):
            shift_graph_plan(inst, k)
        with pytest.raises(InvariantError, match="must lie in"):
            graph_mixture_plan(inst, k)


class TestShiftGraphPlan:
    """Several step counts give the equal-weight mixture of the one-graph plans in one array."""

    @pytest.mark.parametrize("n", [4, 6, 12, 24, 192, 2000])
    @pytest.mark.parametrize("shift", ["golden", 1, "n-1"])
    def test_ap_reference_plan_is_the_half_mixture(self, n, shift):
        step = {"golden": None, 1: 1, "n-1": n - 1}[shift]
        spec = InstanceSpec(kind="ap", n=n, shift="auto-golden" if step is None else step)
        plan = materialize(spec).reference_plan
        inst = make_instance(n, step)
        want = mixture_plan([shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
        assert plan.kind is want.kind
        assert plan.mass.tobytes() == want.mass.tobytes()

    # at n = 13, (1 / 3) * (1 / n) and (1 / n) / 3 differ in their last bit
    @pytest.mark.parametrize("steps", [(0,), (3,), (1, 0), (0, 2, 5), (6, 1, 3, 0),
                                       (12, 1, 3, 0, 7, 9)])
    def test_equal_weight_mixture_of_any_steps(self, steps):
        inst = make_instance(13, 5)
        want = mixture_plan([shift_graph_plan(inst, k) for k in steps],
                            [1.0 / len(steps)] * len(steps))
        assert shift_graph_plan(inst, *steps).mass.tobytes() == want.mass.tobytes()

    def test_one_step_puts_one_over_n_on_its_graph(self):
        inst = make_instance(10, 3)
        mass = shift_graph_plan(inst, 2).mass
        assert np.array_equal(np.flatnonzero(mass), np.arange(10) * 10 + (np.arange(10) + 6) % 10)
        assert set(mass[mass > 0].tolist()) == {1.0 / 10}

    @pytest.mark.parametrize("steps", [(), (0, 0), (1, 0, 1), (8,), (-1,), (0, 8), (2, -1)])
    def test_repeated_or_out_of_range_steps_raise(self, steps):
        with pytest.raises(InvariantError, match=r"^step counts must lie in \[0, 7\] and be "
                                                 r"distinct$"):
            shift_graph_plan(make_instance(8, 3), *steps)
