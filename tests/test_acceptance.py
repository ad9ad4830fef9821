"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criterion 3 contains a sub-assertion (full-support value <= 0.5 on the
clamped level cost) that is provably unattainable on the cyclic model:
on Z_n the one-step signs always have an orbit primitive G with
level_k(i) = 1 + G(i + k*shift) - G(i), so every coupling pays exactly
1 + E_nu[G] - E_mu[G] = 1 before clamping and at least 1 after it.  The
assertion is kept as stated and fails honestly; see the companion test
for the attainable parts of the criterion.
"""

import time

import numpy as np

from mklab import (
    InvariantError,
    PotentialPair,
    ap_cost,
    ap_coupling_space,
    attainment_certificate,
    birkhoff_levels,
    dual_sequence,
    ex33_cost,
    graph_mixture_plan,
    make_instance,
    mixture_plan,
    orbit_certificate,
    potential_plan_integral,
    relaxed_dual_sweep,
    shift_graph_plan,
    skew_step,
    solve_partial,
    solve_primal,
    solve_restricted_primal,
    step_signs,
    telescoping_bound_check,
    uniform_marginal,
)
from mklab.fileformats import (
    InstanceSpec,
    dumps_canonical,
    instance_to_jsonable,
    materialize,
    parse_instance,
    result_document,
    serialize_result,
)
from mklab.rotation import OrbitState
from mklab.network_simplex import TOL

from conftest import (dense_coupling, nw_corner, random_cost, random_marginal,
                      shuffled_coupling)

SEED = 987654321


def report(name: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {name}{suffix}")


def test_criterion_1_ap_value_reproduction():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (8, 24, 144):
        inst = make_instance(n)
        cost = ap_cost(inst)
        mu = uniform_marginal(inst)
        p = solve_primal(cost, mu, mu).primal_value
        d = dense_coupling(cost, mu, mu).value
        details.append(f"n={n}: P={p:.9f} D={d:.9f}")
        ok &= abs(p - 1.0) <= 1e-7 and abs(d - 1.0) <= 1e-7
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report("criterion 1: two-graph value = 1 for n in {8,24,144}", ok,
           f"{'; '.join(details)}; {elapsed:.2f}s")
    assert ok


def test_criterion_2_ap_plan_space_is_segment():
    t0 = time.perf_counter()
    ok = True
    for n in (8, 24):
        rank, dim = ap_coupling_space(make_instance(n))
        ok &= rank == 2 * n - 1 and dim == 1
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    report("criterion 2: two-graph coupling space is a segment", ok,
           f"{elapsed:.2f}s")
    assert ok


def _certifies_value_one(inst, cost) -> bool:
    """The orbit certificate proves that ``cost`` has optimal value 1."""
    plan, pair = orbit_certificate(inst)
    mu = uniform_marginal(inst)
    dual = float(np.dot(pair.phi, mu.weights) + np.dot(pair.psi, mu.weights))
    return (attainment_certificate(cost, plan, pair).certified
            and pair.max_violation(cost) == 0.0 and abs(dual - 1.0) <= 1e-12)


def _ex33_full_values():
    values = {}
    for n in (24, 48, 96, 192):
        inst = make_instance(n)
        cost = ex33_cost(inst, n - 1)
        mu = uniform_marginal(inst)
        values[n] = solve_primal(cost, mu, mu).primal_value
    return values


class TestCriterion3:
    values: dict = {}

    def test_restricted_value_and_monotone_decay(self):
        t0 = time.perf_counter()
        inst = make_instance(192)
        cost = ex33_cost(inst, 191)
        pi = graph_mixture_plan(inst, 4)
        v_restr = solve_restricted_primal(cost, pi).primal_value
        type(self).values = _ex33_full_values()
        seq = [type(self).values[n] for n in (24, 48, 96, 192)]
        monotone = all(b <= a + 1e-9 for a, b in zip(seq, seq[1:]))
        # Every n of the scan is even, so the orbit certificate proves the
        # full value is 1; the LP scan stays as a cross-check of the engine.
        certified = True
        for n in (24, 48, 96, 192):
            inst_n = make_instance(n)
            certified &= _certifies_value_one(inst_n, ex33_cost(inst_n, n - 1))
            certified &= abs(type(self).values[n] - 1.0) <= 1e-9
        elapsed = time.perf_counter() - t0
        ok = abs(v_restr - 1.0) <= 1e-6 and monotone and certified and elapsed < 60.0
        report("criterion 3a: restricted value = 1 and nonincreasing full values",
               ok, f"V_restr={v_restr:.9f}; full={seq}; certified={certified}; "
               f"{elapsed:.2f}s")
        assert ok

    def test_full_value_bound(self):
        # Spec-stated bound; unattainable on the cyclic model (module
        # docstring has the two-line proof), kept as stated and left red.
        values = type(self).values or _ex33_full_values()
        v_full = values[192]
        ok = v_full <= 0.5
        report("criterion 3b: full-support value <= 0.5 at n=192", ok,
               f"V_full={v_full:.9f}; pinned at 1 by the orbit primitive")
        assert ok, (
            f"V_full={v_full}: on Z_n the clamped level cost admits the exact "
            "potential split 1 + G(y) - G(x), forcing every coupling to pay at "
            "least 1; the continuum escape to level -infinity has no finite "
            "cyclic counterpart (see notes in the decisions ledger)")


def test_criterion_4_budgeted_dual_limit_matches_restricted():
    t0 = time.perf_counter()
    inst = make_instance(48)
    cost = ex33_cost(inst, 47)
    mu = uniform_marginal(inst)
    pi = graph_mixture_plan(inst, 4)
    grid = (1e-1, 1e-2, 1e-3, 1e-4)
    sweep = relaxed_dual_sweep(cost, mu, mu, pi, grid)
    nondecreasing_in_eps = all(
        earlier >= later - 1e-9
        for earlier, later in zip(sweep.values, sweep.values[1:]))
    restricted = solve_restricted_primal(cost, pi).primal_value
    gap = abs(sweep.limit - restricted)
    elapsed = time.perf_counter() - t0
    ok = nondecreasing_in_eps and gap <= 1e-5 and elapsed < 30.0
    report("criterion 4: budgeted dual limit equals restricted value", ok,
           f"limit={sweep.limit:.9f} restricted={restricted:.9f} "
           f"gap={gap:.2e}; {elapsed:.2f}s")
    assert ok


def test_criterion_5_telescoping_bound_suite():
    t0 = time.perf_counter()
    inst = make_instance(24)
    cost = ap_cost(inst)
    mu = uniform_marginal(inst)
    pi_half = mixture_plan(
        [shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
    pots = dual_sequence(cost, mu, mu, pi_half, (1e-2, 1e-4))
    records = telescoping_bound_check(inst, pots, 5)
    elapsed = time.perf_counter() - t0
    ok = len(records) == 10 and all(r.passed for r in records) and elapsed < 10.0
    report("criterion 5: telescoped L1 bound holds for k = 1..5", ok,
           f"{len(records)} checks; {elapsed:.2f}s")
    assert ok


def test_criterion_6_randomized_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    n_instances = 200
    weak_ok = strong_ok = slack_ok = engines_ok = True
    partial_ok = integral_ok = True
    for _ in range(n_instances):
        m = int(rng.integers(2, 13))
        n = int(rng.integers(2, 13))
        cost = random_cost(rng, m, n)
        mu = random_marginal(rng, m)
        nu = random_marginal(rng, n)

        primal = solve_primal(cost, mu, nu)
        dense = dense_coupling(cost, mu, nu)
        dense_dual = float(dense.duals @ np.concatenate([mu.weights, nu.weights]))
        weak_ok &= primal.dual_value <= primal.primal_value + 2e-9
        weak_ok &= dense_dual <= primal.primal_value + 2e-9
        weak_ok &= primal.dual_value <= dense.value + 2e-9
        strong_ok &= abs(primal.primal_value - primal.dual_value) <= 2e-7
        strong_ok &= abs(dense.value - dense_dual) <= 2e-7
        engines_ok &= abs(primal.primal_value - dense.value) <= 1e-7

        pots = primal.optimal_potentials
        sup = primal.optimal_plan.mass > TOL
        slack_ok &= bool(
            np.max(np.abs(pots.oplus()[sup] - cost.entries[sup]), initial=0.0) <= 1e-7)

        eps_grid = (0.5, 0.3, 0.2, 0.1, 0.05)
        vals = [solve_partial(cost, mu, nu, e).primal_value for e in eps_grid]
        partial_ok &= all(later >= earlier - 1e-9
                          for earlier, later in zip(vals, vals[1:]))
        slopes = [(va - vb) / (ea - eb) for (ea, va), (eb, vb)
                  in zip(zip(eps_grid, vals), list(zip(eps_grid, vals))[1:])]
        # convex in eps: slopes nondecreasing as eps increases
        partial_ok &= all(s_hi >= s_lo - 1e-7
                          for s_hi, s_lo in zip(slopes, slopes[1:]))

        square = int(rng.integers(2, 13))
        mu2 = random_marginal(rng, square)
        nu2 = random_marginal(rng, square)
        pair = PotentialPair(rng.normal(size=square), rng.normal(size=square))
        v1 = potential_plan_integral(pair, nw_corner(mu2, nu2))
        v2 = potential_plan_integral(pair, shuffled_coupling(rng, mu2, nu2))
        integral_ok &= abs(v1 - v2) <= 1e-9
    elapsed = time.perf_counter() - t0
    ok = (weak_ok and strong_ok and slack_ok and engines_ok and partial_ok
          and integral_ok and elapsed < 120.0)
    report("criterion 6: randomized property suites (200 instances)", ok,
           f"weak={weak_ok} strong={strong_ok} slackness={slack_ok} "
           f"engines={engines_ok} partial={partial_ok} integral={integral_ok}; "
           f"{elapsed:.2f}s")
    assert ok


def test_criterion_7_rotation_invariants_exhaustive():
    t0 = time.perf_counter()
    recursion_ok = period_ok = skew_ok = zeroset_ok = certificate_ok = True
    certified = 0
    for n in range(4, 49):
        inst = make_instance(n)
        k_max = n - 1
        levels = birkhoff_levels(inst, n)
        g = step_signs(inst)
        idx = np.arange(n)
        for k in range(n):
            recursion_ok &= bool(np.array_equal(
                levels[k + 1], levels[k] + g[(idx + k * inst.shift) % n]))
        if n % 2 == 0:
            period_ok &= bool(np.all(levels[n] == 1))
        for i in range(n):
            state = OrbitState(i, 0)
            for k in range(1, n + 1):
                state = skew_step(inst, state)
                skew_ok &= state.level == levels[k, i] - 1
        cost = ex33_cost(inst, k_max)
        for k in range(k_max + 1):
            cols = (idx + k * inst.shift) % n
            zeroset_ok &= bool(np.array_equal(
                cost.entries[idx, cols] == 0.0, levels[k] <= 0))
        if n % 2:
            try:
                orbit_certificate(inst)
                certificate_ok = False
            except InvariantError:
                pass
        else:
            certificate_ok &= _certifies_value_one(inst, cost)
            certified += 1
    elapsed = time.perf_counter() - t0
    ok = (recursion_ok and period_ok and skew_ok and zeroset_ok
          and certificate_ok and certified == len(range(4, 49, 2)) and elapsed < 10.0)
    report("criterion 7: rotation invariants exhaustive for n <= 48", ok,
           f"recursion={recursion_ok} period={period_ok} skew={skew_ok} "
           f"zeroset={zeroset_ok} certificate={certificate_ok} "
           f"certified-even-n={certified}; {elapsed:.2f}s")
    assert ok


def _twenty_specs():
    rng = np.random.default_rng(SEED + 1)
    specs = []
    for _ in range(8):
        size = int(rng.integers(2, 7))
        cost = np.round(rng.uniform(0.0, 5.0, (size, size)), 9)
        mu = rng.uniform(0.2, 1.0, size)
        nu = rng.uniform(0.2, 1.0, size)
        specs.append(InstanceSpec(kind="explicit", cost=cost,
                                  mu=mu / mu.sum(), nu=nu / nu.sum()))
    for n in (6, 8, 10, 12, 14, 16):
        specs.append(InstanceSpec(kind="ap", n=n, shift="auto-golden"))
    for n in (5, 7, 9, 11, 13, 15):
        specs.append(InstanceSpec(kind="ex33", n=n, shift="auto-golden",
                                  k_max=n - 1))
    return specs


def _solve_to_bytes(spec: InstanceSpec) -> bytes:
    problem = materialize(spec)
    rep = solve_primal(problem.cost, problem.mu, problem.nu)
    doc = result_document("primal", instance_to_jsonable(spec), rep)
    return serialize_result(doc).encode()


def test_criterion_8_serialization_determinism():
    t0 = time.perf_counter()
    specs = _twenty_specs()
    assert len(specs) == 20
    ok = True
    for spec in specs:
        first = _solve_to_bytes(spec)
        reparsed = parse_instance(dumps_canonical(instance_to_jsonable(spec)))
        second = _solve_to_bytes(reparsed)
        ok &= first == second
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    report("criterion 8: solve/serialize/parse/solve is byte-stable", ok,
           f"20 instances; {elapsed:.2f}s")
    assert ok
