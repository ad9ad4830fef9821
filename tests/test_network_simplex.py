import numpy as np
import pytest

from mklab import (
    InfeasibleError,
    Marginal,
    RotationInstance,
    ex33_cost,
    golden_shift,
    solve_primal,
    uniform_marginal,
)
from mklab.dense_simplex import solve_dense
from mklab.network_simplex import solve_bipartite

from conftest import nw_corner


def full_arcs(m, n):
    tails, heads = np.divmod(np.arange(m * n), n)
    return tails, heads


def dense_value(m, n, tails, heads, costs, mu, nu):
    cols = np.arange(costs.size)
    lhs = np.zeros((m + n, costs.size))
    lhs[tails, cols] = 1.0
    lhs[m + heads, cols] = 1.0
    return solve_dense(costs, lhs, ["eq"] * (m + n), np.concatenate([mu, nu])).value


def assert_potentials_feasible_and_tight(res, tails, heads, costs):
    reduced = costs - res.source_potentials[tails] - res.sink_potentials[heads]
    assert reduced.min() >= -1e-9
    assert np.max(np.abs(reduced[res.flow > 1e-9]), initial=0.0) <= 1e-9


def random_masses(rng, size, zero_share):
    w = rng.uniform(0.05, 1, size)
    w[rng.random(size) < zero_share] = 0.0
    if not w.any():
        w[0] = 1.0
    return w / w.sum()


def test_two_by_two_diagonal():
    tails, heads = full_arcs(2, 2)
    costs = np.array([0.0, 1.0, 1.0, 0.0])
    res = solve_bipartite([0.5, 0.5], [0.5, 0.5], tails, heads, costs)
    assert res.flow @ costs == pytest.approx(0.0)
    assert res.flow == pytest.approx([0.5, 0.0, 0.0, 0.5])


def test_potentials_feasible_and_tight(rng):
    m, n = 6, 7
    tails, heads = full_arcs(m, n)
    costs = rng.uniform(0, 5, m * n)
    mu = rng.uniform(0.1, 1, m)
    mu /= mu.sum()
    nu = rng.uniform(0.1, 1, n)
    nu /= nu.sum()
    res = solve_bipartite(mu, nu, tails, heads, costs)
    reduced = costs - res.source_potentials[tails] - res.sink_potentials[heads]
    assert reduced.min() >= -1e-9
    carrying = res.flow > 1e-9
    assert np.max(np.abs(reduced[carrying])) <= 1e-9
    # value equals dual objective
    value = res.flow @ costs
    dual = res.source_potentials @ mu + res.sink_potentials @ nu
    assert value == pytest.approx(dual, abs=1e-9)


def test_deleted_arcs_respected():
    # forbid the cheap diagonal, forcing the expensive cells
    tails = np.array([0, 1])
    heads = np.array([1, 0])
    costs = np.array([3.0, 4.0])
    res = solve_bipartite([0.5, 0.5], [0.5, 0.5], tails, heads, costs)
    assert res.flow @ costs == pytest.approx(3.5)


def test_infeasible_row_detected():
    # source 1 can only reach sink 0, but sink 0 cannot absorb both sources
    tails = np.array([0, 1])
    heads = np.array([0, 0])
    costs = np.array([1.0, 1.0])
    with pytest.raises(InfeasibleError):
        solve_bipartite([0.5, 0.5], [0.25, 0.75], tails, heads, costs)


def test_zero_supply_nodes():
    tails, heads = full_arcs(3, 3)
    costs = np.arange(9, dtype=float)
    res = solve_bipartite([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], tails, heads, costs)
    assert res.flow @ costs == pytest.approx(1.0)


def test_degenerate_zero_mass_instance(rng):
    # three of five nodes per side carry no mass and costs tie heavily:
    # nearly every pivot is degenerate, and the strongly feasible tree
    # must still end at an optimal basis
    tails, heads = full_arcs(5, 5)
    costs = rng.integers(0, 3, 25).astype(float)
    mu = np.zeros(5)
    mu[:2] = 0.5
    res = solve_bipartite(mu, mu, tails, heads, costs)
    assert_potentials_feasible_and_tight(res, tails, heads, costs)
    assert res.flow @ costs == pytest.approx(
        dense_value(5, 5, tails, heads, costs, mu, mu), abs=1e-9)


def test_matches_dense_engine(rng):
    for flavour in ("uniform", "ties", "zero-mass", "forbidden"):
        for _ in range(25):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(2, 7))
            tails, heads = full_arcs(m, n)
            if flavour == "uniform":
                costs = rng.uniform(0, 5, m * n)
            else:
                costs = rng.integers(0, 3, m * n).astype(float)
            zero_share = 0.4 if flavour == "zero-mass" else 0.0
            mu = random_masses(rng, m, zero_share)
            nu = random_masses(rng, n, zero_share)
            if flavour == "forbidden":
                # delete about a third of the cells but keep the support of
                # the north-west-corner coupling, so the instance stays feasible
                keep = nw_corner(Marginal(mu), Marginal(nu)).mass.ravel() > 0
                keep |= rng.random(m * n) > 0.35
                tails, heads, costs = tails[keep], heads[keep], costs[keep]
            net = solve_bipartite(mu, nu, tails, heads, costs)
            assert_potentials_feasible_and_tight(net, tails, heads, costs)
            assert net.flow @ costs == pytest.approx(
                dense_value(m, n, tails, heads, costs, mu, nu), abs=1e-7)


def test_arc_order_does_not_matter(rng):
    m, n = 7, 6
    tails, heads = full_arcs(m, n)
    costs = rng.integers(0, 4, m * n).astype(float)
    mu = random_masses(rng, m, 0.0)
    nu = random_masses(rng, n, 0.0)
    base = solve_bipartite(mu, nu, tails, heads, costs)
    for _ in range(5):
        perm = rng.permutation(m * n)
        res = solve_bipartite(mu, nu, tails[perm], heads[perm], costs[perm])
        assert res.flow @ costs[perm] == pytest.approx(base.flow @ costs, abs=1e-12)
        # flow comes back in input order: it is an exact coupling of the
        # permuted arcs and carries flow only on arcs its potentials price at 0
        assert np.bincount(tails[perm], res.flow, m) == pytest.approx(mu, abs=1e-12)
        assert np.bincount(heads[perm], res.flow, n) == pytest.approx(nu, abs=1e-12)
        assert_potentials_feasible_and_tight(res, tails[perm], heads[perm], costs[perm])


@pytest.mark.parametrize("n, bound", [(96, 800), (192, 2100)])
def test_ex33_pivot_count(n, bound):
    # Pivot counts do not depend on the host.  Block pricing over the
    # scattered arc order takes 516 pivots at n=96 and 1,377 at n=192; the
    # bounds leave a margin of about 1.5x and sit far below the degenerate
    # stall of Dantzig pricing in row-major order (1,944 and 7,887).
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst)
    report = solve_primal(ex33_cost(inst, n - 1), mu, mu)
    assert report.primal_value == pytest.approx(1.0, abs=1e-9)
    assert report.stats.pivots <= bound


def test_ex33_arcs_priced():
    # The final round scans all E arcs; a round that finds an entering arc
    # stops at its block.  Measured: 603,648 arcs priced over 517
    # iterations, 0.13 E per iteration, where Dantzig pricing takes E.
    n = 96
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst).weights
    costs = ex33_cost(inst, n - 1).entries.ravel()
    res = solve_bipartite(mu, mu, *full_arcs(n, n), costs)
    assert costs.size <= res.arcs_priced < costs.size * res.iterations / 4
