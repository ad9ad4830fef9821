"""Property-based checks over randomized structures."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from mklab import (
    CostMatrix,
    Marginal,
    PotentialPair,
    TransportPlan,
    birkhoff_level,
    birkhoff_levels,
    make_instance,
    mixture_plan,
    plan_dominates,
    potential_plan_integral,
    relaxed_dual_sweep,
    skew_step,
    solve_relaxed_dual,
    step_signs,
    transport_cost,
    verify_exact_coupling,
)
from mklab import network_simplex
from mklab.fileformats import dumps_canonical, instance_to_jsonable, parse_instance, InstanceSpec
from mklab.rotation import OrbitState

from conftest import assert_same_report, dense_relaxed_dual, nw_corner, shuffled_coupling


def marginals(draw, size):
    w = draw(st.lists(st.floats(0.05, 1.0), min_size=size, max_size=size))
    arr = np.asarray(w)
    return Marginal(arr / arr.sum())


@st.composite
def coupled_pair(draw):
    size = draw(st.integers(2, 7))
    mu = marginals(draw, size)
    nu = marginals(draw, size)
    seed = draw(st.integers(0, 2 ** 31))
    rng = np.random.default_rng(seed)
    return mu, nu, rng


@settings(max_examples=60, deadline=None)
@given(coupled_pair())
def test_integral_is_plan_independent(data):
    mu, nu, rng = data
    p1 = nw_corner(mu, nu)
    p2 = shuffled_coupling(rng, mu, nu)
    pp = PotentialPair(rng.normal(size=mu.size), rng.normal(size=nu.size))
    assert abs(potential_plan_integral(pp, p1)
               - potential_plan_integral(pp, p2)) <= 1e-9


@settings(max_examples=60, deadline=None)
@given(coupled_pair(), st.floats(0.0, 1.0))
def test_mixture_preserves_marginals(data, w):
    mu, nu, rng = data
    p1 = nw_corner(mu, nu)
    p2 = shuffled_coupling(rng, mu, nu)
    mix = mixture_plan([p1, p2], [w, 1.0 - w])
    verify_exact_coupling(mix, mu, nu, 1e-12)


@settings(max_examples=60, deadline=None)
@given(coupled_pair(), st.floats(0.05, 0.95))
def test_domination_of_mixture_components(data, w):
    mu, nu, rng = data
    p1 = nw_corner(mu, nu)
    p2 = shuffled_coupling(rng, mu, nu)
    mix = mixture_plan([p1, p2], [w, 1.0 - w])
    result = plan_dominates(p1, mix)
    assert result.dominates
    assert result.density_bound <= 1.0 / w + 1e-9


@settings(max_examples=60, deadline=None)
@given(coupled_pair())
def test_weak_duality_for_c_transforms(data):
    mu, nu, rng = data
    cost = CostMatrix(rng.uniform(0.0, 5.0, (mu.size, nu.size)))
    phi = rng.normal(size=mu.size)
    psi = np.min(cost.entries - phi[:, None], axis=0)
    pp = PotentialPair(phi, psi)
    plan = nw_corner(mu, nu)
    assert potential_plan_integral(pp, plan) <= transport_cost(cost, plan) + 1e-9


@st.composite
def rotation_instances(draw):
    n = draw(st.integers(4, 64))
    candidates = [s for s in range(1, n) if math.gcd(s, n) == 1]
    shift = draw(st.sampled_from(candidates))
    return make_instance(n, shift)


@settings(max_examples=60, deadline=None)
@given(rotation_instances(), st.integers(0, 40))
def test_level_recursion(inst, k):
    g = step_signs(inst)
    i = k % inst.n
    assert birkhoff_level(inst, i, k + 1) == (
        birkhoff_level(inst, i, k) + g[(i + k * inst.shift) % inst.n])


@settings(max_examples=40, deadline=None)
@given(rotation_instances())
def test_period_drift_matches_parity(inst):
    # one full cycle adds the sign excess: zero for even n, one for odd n
    levels = birkhoff_levels(inst, inst.n)
    drift = 0 if inst.n % 2 == 0 else 1
    assert np.all(levels[inst.n] == 1 + drift)


@settings(max_examples=40, deadline=None)
@given(rotation_instances(), st.integers(0, 30))
def test_skew_walk_matches_levels(inst, k):
    i = (7 * k) % inst.n
    state = OrbitState(i, 0)
    for _ in range(k):
        state = skew_step(inst, state)
    assert state.level == birkhoff_level(inst, i, k) - 1
    assert state.position == (i + k * inst.shift) % inst.n


@st.composite
def rotation_specs(draw):
    kind = draw(st.sampled_from(["ap", "ex33"]))
    n = draw(st.integers(4, 32))
    if kind == "ap" and n % 2:
        n += 1
    shift = draw(st.sampled_from(
        ["auto-golden"] + [s for s in range(1, n) if math.gcd(s, n) == 1]))
    k_max = draw(st.one_of(st.none(), st.integers(1, n - 1)))
    seed = draw(st.one_of(st.none(), st.integers(0, 10 ** 6)))
    return InstanceSpec(kind=kind, n=n, shift=shift, k_max=k_max, seed=seed)


@settings(max_examples=80, deadline=None)
@given(rotation_specs())
def test_instance_roundtrip(spec):
    text = dumps_canonical(instance_to_jsonable(spec))
    back = parse_instance(text)
    assert back == spec
    assert dumps_canonical(instance_to_jsonable(back)) == text


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=True, width=64),
                min_size=1, max_size=30))
def test_float_serialization_roundtrip(values):
    text = dumps_canonical({"values": values})
    from mklab.fileformats import loads_canonical

    assert loads_canonical(text)["values"] == values


def sinkhorn_reference(rng: np.random.Generator, n: int):
    """A reference plan on a random mask, with its marginals.

    The marginals are those of one random positive matrix on the mask,
    and Sinkhorn scaling balances a second one to them.  A positive
    matrix with that support and those marginals exists, so the scaled
    plan keeps every masked cell, and a dense mask makes it no tree.
    """
    while True:
        mask = rng.random((n, n)) < rng.uniform(0.25, 0.7)
        if mask.any(axis=1).all() and mask.any(axis=0).all():
            break
    target = np.where(mask, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    rows, cols = target.sum(axis=1), target.sum(axis=0)
    plan = np.where(mask, rng.uniform(0.2, 1.0, (n, n)), 0.0)
    for _ in range(1000):
        plan *= (rows / plan.sum(axis=1))[:, None]
        plan *= (cols / plan.sum(axis=0))[None, :]
    plan /= plan.sum()
    return TransportPlan(plan), Marginal(plan.sum(axis=1)), Marginal(plan.sum(axis=0))


def test_relaxed_dual_matches_dense_oracle(monkeypatch):
    """The network relaxed dual against the dense "le"-form program.

    Costs are uniform, integer and tie-heavy, or all zero; budgets run
    from 1e-6 to 1.  Both the tangent search and the lambda = 1 shift
    must be exercised.
    """
    solves = []
    engine = network_simplex.solve_bipartite

    def counted(*args, **kwargs):
        solves.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(network_simplex, "solve_bipartite", counted)
    rng = np.random.default_rng(31)
    searched = shifted = 0
    for case in range(12):
        n = int(rng.integers(5, 17))
        pi0, mu, nu = sinkhorn_reference(rng, n)
        entries = (rng.uniform(0.0, 5.0, (n, n)), rng.integers(0, 3, (n, n)).astype(float),
                   np.zeros((n, n)))[case % 3]
        cost = CostMatrix(entries)
        scale = 1.0 + float(np.max(entries))
        for eps in (1e-6, 1e-3, 0.01, 0.1, 1.0):
            solves.clear()
            report = solve_relaxed_dual(cost, mu, nu, pi0, eps)
            searched += len(solves) >= 3
            shifted += len(solves) <= 2
            value, _pair = dense_relaxed_dual(cost, mu, nu, pi0, eps)
            assert abs(report.dual_value - value) <= 1e-9 * max(1.0, abs(value))
            assert 0.0 <= report.gap + 1e-12 * scale and report.gap <= 1e-9 * scale
            pots = report.optimal_potentials
            breach = np.maximum(pots.oplus() - entries, 0.0)
            assert float(np.sum(pi0.mass * breach)) <= eps + 1e-9 * scale
            assert abs(float(pots.phi @ mu.weights)) <= 1e-12 * scale
    assert searched and shifted


def test_relaxed_dual_sweep_equals_cold_solves():
    """A sweep shares its network solves across budgets, yet each report
    equals a solve at that budget alone, counters included."""
    rng = np.random.default_rng(47)
    grid = (1.0, 0.1, 0.01, 1e-3, 1e-6)
    for case in range(4):
        n = int(rng.integers(5, 13))
        pi0, mu, nu = sinkhorn_reference(rng, n)
        cost = CostMatrix((rng.uniform(0.0, 5.0, (n, n)),
                           rng.integers(0, 3, (n, n)).astype(float))[case % 2])
        sweep = relaxed_dual_sweep(cost, mu, nu, pi0, grid)
        for eps, report in zip(grid, sweep.reports):
            assert_same_report(report, solve_relaxed_dual(cost, mu, nu, pi0, eps))
