import hashlib
import importlib.util
import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mklab import (
    CostMatrix,
    InfeasibleError,
    InvariantError,
    Marginal,
    MKLabError,
    PlanKind,
    RotationInstance,
    TransportPlan,
    ap_cost,
    ex33_cost,
    golden_shift,
    make_instance,
    mixture_plan,
    shift_graph_plan,
    solve_partial,
    solve_primal,
    solve_restricted_primal,
    network_simplex,
    uniform_marginal,
)
from mklab.network_simplex import _blocks, _matched_pairs, solve_bipartite

from conftest import dense_coupling, dense_transport, nw_corner

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def full_arcs(m, n):
    tails, heads = np.divmod(np.arange(m * n), n)
    return tails, heads


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
    # source 1 can only reach sink 0, but sink 0 cannot absorb both
    # sources; with equal masses, source 0 and sink 0 begin matched
    tails = np.array([0, 1])
    heads = np.array([0, 0])
    costs = np.array([1.0, 1.0])
    for demands in ([0.25, 0.75], [0.5, 0.5]):
        with pytest.raises(InfeasibleError):
            solve_bipartite([0.5, 0.5], demands, tails, heads, costs)


def test_zero_supply_nodes():
    tails, heads = full_arcs(3, 3)
    costs = np.arange(9, dtype=float)
    res = solve_bipartite([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], tails, heads, costs)
    assert res.flow @ costs == pytest.approx(1.0)


@pytest.mark.parametrize("supplies, demands", [
    ([np.nan, 0.5], [0.5, 0.5]),
    ([0.5, 0.5], [0.5, np.nan]),
    ([np.inf, 0.5], [0.5, 0.5]),
    ([0.5, 0.5], [0.5, np.inf]),
], ids=["nan-supply", "nan-demand", "inf-supply", "inf-demand"])
def test_non_finite_masses_rejected(supplies, demands):
    # NaN passes the sign check and inf ships as inf and nan flows, so
    # both are refused before any pivot
    tails, heads = full_arcs(2, 2)
    with pytest.raises(MKLabError, match="finite"):
        solve_bipartite(supplies, demands, tails, heads, np.array([0.0, 1.0, 1.0, 0.0]))


def test_cost_sum_that_overflows_the_penalty_is_refused():
    # the penalty 3 * (1 + sum |c|) bounds every potential and reduced
    # cost; past float64 the solve used to end in NaN and a false
    # infeasibility
    tails, heads = full_arcs(2, 2)
    with pytest.raises(InvariantError, match=r"sum to 1\.7e\+308: .* overflows float64"):
        solve_bipartite([0.5, 0.5], [0.5, 0.5], tails, heads, np.array([0.0, 1.7e308, 1.0, 0.0]))
    # a finite penalty of 6e307 still overflows a reduced cost three times its size
    with pytest.raises(InvariantError, match="overflows float64"):
        solve_bipartite([0.5, 0.5], [0.5, 0.5], tails, heads, np.array([0.0, 2e307, 1.0, 0.0]))
    res = solve_bipartite([0.5, 0.5], [0.5, 0.5], tails, heads, np.array([0.0, 1e307, 1.0, 0.0]))
    assert res.flow.tolist() == [0.5, 0.0, 0.0, 0.5]


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
        dense_transport(5, 5, tails, heads, costs, mu, mu).value, abs=1e-9)


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
                dense_transport(m, n, tails, heads, costs, mu, nu).value, abs=1e-7)


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
    # scattered arc order takes 95 pivots at n=96 and 181 at n=192 from the
    # matched start (96 and 180 with coarse blocks only; 516 and 1,377
    # from the plain star).  The bounds sit far below the degenerate stall
    # of Dantzig pricing in row-major order (1,944 and 7,887).
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst)
    report = solve_primal(ex33_cost(inst, n - 1), mu, mu)
    assert report.primal_value == pytest.approx(1.0, abs=1e-9)
    assert report.stats.pivots <= bound


def test_ex33_arcs_priced():
    # The final round scans all E arcs; a round that finds an entering arc
    # stops at its block.  Measured: 34,432 arcs priced over 96
    # iterations, 0.04 E per iteration, where Dantzig pricing takes E
    # (119,808 over 97 with coarse blocks only).
    n = 96
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst).weights
    costs = ex33_cost(inst, n - 1).entries.ravel()
    res = solve_bipartite(mu, mu, *full_arcs(n, n), costs)
    assert costs.size <= res.arcs_priced < costs.size * res.iterations / 4


def load_workloads():
    """The benchmark's instance builders, loaded by path and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up while they are built
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads


def engine_results(monkeypatch, solve):
    """The result of each engine call that ``solve()`` makes."""
    runs = []

    def recording(*args):
        runs.append(solve_bipartite(*args))
        return runs[-1]

    with monkeypatch.context() as patch:
        patch.setattr(network_simplex, "solve_bipartite", recording)
        solve()
    return runs


def engine_counters(monkeypatch, solve):
    """(iterations, pivots, arcs_priced) of each engine call that ``solve()`` makes."""
    return [(res.iterations, res.pivots, res.arcs_priced)
            for res in engine_results(monkeypatch, solve)]


def explicit_solves(n):
    """The engine-backed solves of the benchmark's seed-1 explicit instance."""
    workloads = load_workloads()
    cost, mu, nu, pi0 = workloads.explicit_arrays(1, n)
    cost, mu, nu = CostMatrix(cost), Marginal(mu), Marginal(nu)
    return {"primal": lambda: solve_primal(cost, mu, nu),
            "partial": lambda: solve_partial(cost, mu, nu, workloads.PARTIAL_EPS),
            "restricted": lambda: solve_restricted_primal(cost, TransportPlan(pi0, PlanKind.EXACT))}


def ap_restricted_solve():
    inst = make_instance(192)
    pi0 = mixture_plan([shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
    return solve_restricted_primal(ap_cost(inst), pi0)


def ex33_primal_solve():
    """The primal solve of the benchmark's ex33 n=144 instance."""
    inst = make_instance(144)
    mu = uniform_marginal(inst)
    return solve_primal(ex33_cost(inst, 143), mu, mu)


#: Each engine call of the benchmark workloads: its solve, its degenerate
#: pivots, and the SHA-256 of its flow, source and sink potential bytes.
#: The digests were taken before the engine moved its per-node bookkeeping
#: onto Python floats, which changed no bit.
BENCHMARK_ENGINE_CALLS = {
    "explicit-300-primal": (
        lambda: explicit_solves(300)["primal"](), 0,
        "57a023f151b51efaf8cc4d129d7af8e1fae0e5b952cbdcc96a69b9cade92228f"),
    "explicit-300-partial": (
        lambda: explicit_solves(300)["partial"](), 1,
        "3e08ef623f8fa633e062fbd06de97c29bf8f91918ee8fd516cfb3e6d813bf013"),
    "explicit-300-restricted": (
        lambda: explicit_solves(300)["restricted"](), 0,
        "888a6db84372c8bedadbd68d9738c5e6c90627bcca80f53b15fdabfddc2826b4"),
    "explicit-60-primal": (
        lambda: explicit_solves(60)["primal"](), 0,
        "36d4a258bd15fa099b7a5c5dea7fc1b978afaff0bf138de7016ddd61ee0037fd"),
    "ap-192-restricted": (
        ap_restricted_solve, 185,
        "ceaac8dcac6e5784dbcc450d5259599d58ad5dfb592834dc35db81c1fa286e51"),
    "ex33-144-primal": (
        ex33_primal_solve, 141,
        "6313844f22b2d11f41e15066e9960eecb92c6e21fa0240248f03c078039348e6"),
}


def test_counters_of_the_benchmark_instances(monkeypatch):
    # The seed-1 explicit instances and the ap restricted solve of the
    # benchmark workloads.  None of them prices fine blocks: at n=300 most
    # pivots come while artificial flow remains, and later scans find a
    # median 0.07% of their block below zero; the others are too small.
    # Counters do not depend on the host, so these pins catch a pricing
    # or tree change whatever the noise.
    at_300 = explicit_solves(300)
    assert engine_counters(monkeypatch, at_300["primal"]) == [(1041, 1040, 9_579_096)]
    assert engine_counters(monkeypatch, at_300["partial"]) == [(985, 984, 9_113_761)]
    assert engine_counters(monkeypatch, at_300["restricted"]) == [(611, 610, 47_546)]
    assert engine_counters(monkeypatch, explicit_solves(60)["primal"]) == [(211, 210, 85_511)]
    assert engine_counters(monkeypatch, ap_restricted_solve) == [(209, 208, 12_816)]


@pytest.mark.parametrize("name", BENCHMARK_ENGINE_CALLS)
def test_degenerate_pivots_of_the_benchmark_instances(monkeypatch, name):
    # On the rotation costs most pivots only build the tree: 185 of the ap
    # solve's 208 and all 141 of ex33's move no flow.  The explicit
    # instances move flow on every pivot but one.
    solve, degenerate, _ = BENCHMARK_ENGINE_CALLS[name]
    runs = engine_results(monkeypatch, solve)
    assert [res.degenerate_pivots for res in runs] == [degenerate]


@pytest.mark.parametrize("name", BENCHMARK_ENGINE_CALLS)
def test_benchmark_instances_keep_their_bits(monkeypatch, name):
    solve, _, digest = BENCHMARK_ENGINE_CALLS[name]
    [res] = engine_results(monkeypatch, solve)
    arrays = (res.flow, res.source_potentials, res.sink_potentials)
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest


@pytest.mark.parametrize("supplies, demands, tails, heads, costs, source_pot, sink_pot", [
    # a tie on the tail side: its first least arc leaves
    ([2, 1, 1], [2, 2], [0, 0, 1, 2, 2], [0, 1, 0, 0, 1], [2, 0, 1, 2, 1],
     [22, 21, 22], [-20, -22]),
    # a tie on the head side: its last least arc leaves
    ([1, 1, 1], [0, 1, 2], [0, 0, 0, 1, 1, 2, 2, 2], [0, 1, 2, 0, 1, 0, 1, 2],
     [0, 0, 1, 1, 1, 0, 1, 0], [14, 15, 13], [-15, -14, -13]),
], ids=["tail", "head"])
def test_leaving_arc_ties(supplies, demands, tails, heads, costs, source_pot, sink_pot):
    # Both problems have several optimal potential pairs, and which one
    # the solve ends on depends on which of the tied blocking arcs leaves:
    # the last one met from the apex, which keeps the tree strongly
    # feasible.  The first least arc of the head side, the last of the
    # tail side, or the tail side winning a tie each ends elsewhere.
    res = solve_bipartite(supplies, demands, tails, heads, costs)
    assert res.source_potentials.tolist() == source_pot
    assert res.sink_potentials.tolist() == sink_pot


@pytest.mark.parametrize("n, bound", [(144, 100_000), (384, 1_000_000)])
def test_ex33_fine_pricing(n, bound):
    # The matched start leaves no artificial flow and its scans find about
    # a quarter of their block below zero, so pricing turns fine at once.
    # Measured: 63,648 arcs priced at n=144 and 436,992 at n=384, against
    # 373,248 and 6,782,976 with coarse blocks only.
    inst = make_instance(n)
    mu = uniform_marginal(inst).weights
    res = solve_bipartite(mu, mu, *full_arcs(n, n), ex33_cost(inst, n - 1).entries.ravel())
    assert res.arcs_priced <= bound


def block_steps(monkeypatch):
    """The block lengths of the pricing layouts a solve builds, in order."""
    steps = []

    def recording(*args):
        steps.append(args[-1])
        return _blocks(*args)

    monkeypatch.setattr(network_simplex, "_blocks", recording)
    return steps


def parallel_arcs(rng, n, n_arcs):
    """An n x n assignment problem on ``n_arcs`` arcs that revisit the cells
    in row-major order; each arc costs its cell's 0..9 plus its own 0..2,
    so costs tie heavily."""
    cells = np.arange(n_arcs) % (n * n)
    tails, heads = np.divmod(cells, n)
    costs = (rng.integers(0, 10, n * n)[cells] + rng.integers(0, 3, n_arcs)).astype(float)
    return tails, heads, costs


def test_no_arcs_and_one_arc():
    empty = np.array([], dtype=int)
    res = solve_bipartite([0.0], [0.0], empty, empty, np.array([]))
    assert res.flow.size == 0 and (res.iterations, res.pivots, res.arcs_priced) == (1, 0, 0)
    with pytest.raises(InfeasibleError):
        solve_bipartite([1.0], [1.0], empty, empty, np.array([]))
    # the one arc begins matched, and one scan of it proves optimality
    res = solve_bipartite([1.0], [1.0], [0], [0], [2.5])
    assert res.flow.tolist() == [1.0]
    assert res.source_potentials[0] + res.sink_potentials[0] == 2.5
    assert (res.iterations, res.pivots, res.arcs_priced) == (1, 0, 1)


def test_fine_blocks_only_when_a_quarter_of_a_coarse_one(monkeypatch):
    # 8,192 arcs make coarse blocks of 1,024 = 4 x 256, and the solve turns
    # fine; without its last 8 arcs a coarse block holds 1,023, and the
    # same problem never does
    steps = block_steps(monkeypatch)
    mu = np.full(8, 1 / 8)
    tails, heads, costs = parallel_arcs(np.random.default_rng(1), 8, 8192)
    solve_bipartite(mu, mu, tails, heads, costs)
    assert steps == [1024, 256]
    steps.clear()
    res = solve_bipartite(mu, mu, tails[:-8], heads[:-8], costs[:-8])
    assert steps == [1023]
    assert_potentials_feasible_and_tight(res, tails[:-8], heads[:-8], costs[:-8])


def test_fine_pricing_matches_dense_oracle(rng, monkeypatch):
    # Uniform masses and tied costs on 8,192 to 12,000 parallel arcs: every
    # solve turns fine, its last round still prices all E arcs, and it
    # reaches the optimum of the cheapest arc per cell
    steps = block_steps(monkeypatch)
    for _ in range(30):
        n = int(rng.integers(6, 25))
        tails, heads, costs = parallel_arcs(rng, n, int(rng.integers(8192, 12000)))
        mu = np.full(n, 1 / n)
        steps.clear()
        res = solve_bipartite(mu, mu, tails, heads, costs)
        assert len(steps) == 2 and res.arcs_priced >= costs.size
        assert_potentials_feasible_and_tight(res, tails, heads, costs)
        cell = np.full((n, n), np.inf)
        np.minimum.at(cell, (tails, heads), costs)
        oracle = dense_coupling(CostMatrix(cell), Marginal(mu), Marginal(mu)).value
        assert abs(res.flow @ costs - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_ex33_matched_start_pivots():
    # Uniform masses make ex33 an assignment problem, and the matched start
    # is feasible from the first pivot: 141 pivots (136 with coarse blocks
    # only), against 567 from the plain star.
    n = 144
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst)
    report = solve_primal(ex33_cost(inst, n - 1), mu, mu)
    assert report.primal_value == pytest.approx(1.0, abs=1e-12)
    assert report.stats.pivots <= 200


def test_ap_restricted_matched_start_pivots():
    # The restricted solve inside every ap relaxed dual: 208 pivots on 384
    # arcs, against 382 from the plain star.
    report = ap_restricted_solve()
    assert report.primal_value == pytest.approx(1.0, abs=1e-12)
    assert report.stats.pivots <= 300


def test_generic_masses_keep_the_star_start():
    # No two masses are equal, so nothing is matched and the engine runs
    # exactly as it did before the matched start existed.
    rng = np.random.default_rng(3)
    n = 40
    cost = rng.uniform(0.0, 5.0, (n, n))
    mu = random_masses(rng, n, 0.0)
    nu = random_masses(rng, n, 0.0)
    keep = nw_corner(Marginal(mu), Marginal(nu)).mass.ravel() > 0
    keep |= rng.random(n * n) > 0.2
    tails, heads = full_arcs(n, n)
    tails, heads, costs = tails[keep], heads[keep], cost.ravel()[keep]
    assert _matched_pairs(mu, nu, tails, heads, costs) == []
    res = solve_bipartite(mu, nu, tails, heads, costs)
    assert (res.iterations, res.pivots, res.arcs_priced) == (154, 153, 28420)


def shared_masses(rng, m, n):
    """Masses (mu, nu) of total 1 on each side where some values recur
    exactly, on one side or on both, and some nodes carry nothing."""
    sides = []
    for size in (m, n):
        w = rng.integers(0, 4, size) / 32.0
        generic = rng.random(size) < 0.3
        w[generic] = rng.uniform(0.01, 0.1, int(generic.sum()))
        # one node takes up the slack, so that the side sums to one
        w[rng.integers(size)] += 1.0 - w.sum()
        sides.append(w)
    return sides


def test_matched_start_matches_dense_oracle(rng, monkeypatch):
    """Random instances where only some masses are equal, against the
    dense tableau: primal solves, and partial solves, whose dummy source
    and dummy sink of mass eps are matched."""
    runs = []

    def recording(*args):
        runs.append((args, solve_bipartite(*args)))
        return runs[-1][1]

    monkeypatch.setattr(network_simplex, "solve_bipartite", recording)
    matched = unmatched = 0
    for case in range(40):
        m, n = int(rng.integers(3, 8)), int(rng.integers(3, 8))
        mu, nu = shared_masses(rng, m, n)
        entries = (rng.uniform(0, 5, (m, n)), rng.integers(0, 3, (m, n)).astype(float))[case % 2]
        if case % 4 >= 2:
            # forbid about a third of the cells off the north-west-corner support
            off = nw_corner(Marginal(mu), Marginal(nu)).mass == 0
            entries[off & (rng.random((m, n)) < 0.35)] = np.inf
        cost = CostMatrix(entries)
        eps = float(rng.uniform(0.05, 0.5))
        aug = np.zeros((m + 1, n + 1))
        aug[:m, :n] = entries
        expected = (dense_coupling(cost, Marginal(mu), Marginal(nu)).value,
                    dense_coupling(CostMatrix(aug), Marginal(np.append(mu, eps) / (1 + eps)),
                                   Marginal(np.append(nu, eps) / (1 + eps))).value * (1 + eps))
        runs.clear()
        values = (solve_primal(cost, Marginal(mu), Marginal(nu)).primal_value,
                  solve_partial(cost, Marginal(mu), Marginal(nu), eps).primal_value)
        for value, oracle in zip(values, expected):
            assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle))
        pairs = []
        for (supplies, demands, tails, heads, costs), res in runs:
            assert_potentials_feasible_and_tight(res, tails, heads, costs)
            pairs.append(_matched_pairs(supplies, demands, tails, heads, costs))
            unmatched += len(pairs[-1]) < np.count_nonzero(supplies)
        matched += bool(pairs[0])
        # the dummy pair of the partial solve begins matched
        assert any(t == m and h == n for _, t, h in pairs[1])
    assert matched >= 20 and unmatched >= 40


def counted_matched_pairs(supplies, demands, tails, heads, costs):
    """The matched start as it was found with the common masses, their
    counts and a stop once every mass value ran out on one side: the
    oracle of the single equal-mass filter."""
    common = set(supplies[supplies > 0].tolist()) & set(demands[demands > 0].tolist())
    if not common:
        return []
    src_free = np.isin(supplies, list(common))
    snk_free = np.isin(demands, list(common))
    sink_count = Counter(demands[snk_free].tolist())
    left = sum(min(count, sink_count[value])
               for value, count in Counter(supplies[src_free].tolist()).items())
    candidates = np.flatnonzero(src_free[tails] & snk_free[heads])
    by_cost = candidates[np.argsort(costs[candidates], kind="stable")]
    src_open, snk_open = src_free.tolist(), snk_free.tolist()
    pairs = []
    for lo in range(0, by_cost.size, network_simplex._MATCH_CHUNK):
        arcs = by_cost[lo:lo + network_simplex._MATCH_CHUNK]
        t, h = tails[arcs], heads[arcs]
        keep = src_free[t] & snk_free[h] & (supplies[t] == demands[h])
        for a, i, j in zip(arcs[keep].tolist(), t[keep].tolist(), h[keep].tolist()):
            if src_open[i] and snk_open[j]:
                src_open[i] = snk_open[j] = src_free[i] = snk_free[j] = False
                pairs.append((a, i, j))
                left -= 1
                if not left:
                    return pairs
    return pairs


def greedy_matched_pairs(supplies, demands, tails, heads, costs):
    """The matched start with no chunks and no screens: every arc in
    (cost, arc index) order, one at a time."""
    src_open, snk_open = [True] * supplies.size, [True] * demands.size
    pairs = []
    for a in sorted(range(costs.size), key=lambda a: (costs[a], a)):
        i, j = int(tails[a]), int(heads[a])
        if 0 < supplies[i] == demands[j] and src_open[i] and snk_open[j]:
            src_open[i] = snk_open[j] = False
            pairs.append((a, i, j))
    return pairs


#: Cost families: integers that an int16 key holds (small, negative, and
#: at both ends of its range), integers past that range, and non-integral
#: costs, with -0.0 tied to 0.0.
MATCH_COSTS = [
    [0.0, 1.0, 2.0, 3.0],
    [-3.0, -1.0, 0.0, 2.0],
    [-32768.0, 0.0, 32767.0],
    [0.0, 1.0, 32768.0],
    [-32769.0, 0.0, 1.0],
    [0.0, 1.0, 1e300],
    [0.0, 1.0, 1.5, 2.0],
    [-0.0, 0.0, 0.5],
]


@st.composite
def matching_problems(draw):
    """Masses that recur on one side or both, one mass everywhere, masses
    that no demand shares, zero masses, tied costs, parallel arcs, empty
    arc sets, and a chunk as small as one arc."""
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    masses = draw(st.sampled_from(["mixed", "one", "disjoint"]))
    if masses == "one":
        value = draw(st.sampled_from([0.125, 1.0 / 3.0, 0.5]))
        supplies, demands = np.full(m, value), np.full(n, value)
    else:
        pools = {"mixed": ([0.0, 0.125, 0.25, 1.0 / 3.0, 0.5, 0.3, 0.7],) * 2,
                 "disjoint": ([0.0, 0.125, 0.25], [0.0, 0.5, 0.3])}[masses]
        supplies, demands = (
            np.array(draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
                     dtype=float) for pool, size in zip(pools, (m, n)))
    cells = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
    arcs = draw(st.lists(cells, max_size=40) if m and n else st.just([]))
    family = draw(st.sampled_from(MATCH_COSTS))
    costs = draw(st.lists(st.sampled_from(family), min_size=len(arcs), max_size=len(arcs)))
    tails = np.array([a for a, _ in arcs], dtype=int)
    heads = np.array([b for _, b in arcs], dtype=int)
    chunk = draw(st.sampled_from([1, 2, 3, 4096]))
    return (supplies, demands, tails, heads, np.array(costs, dtype=float)), chunk


@settings(derandomize=True, max_examples=400, deadline=None)
@given(matching_problems())
def test_matched_pairs_equal_the_counted_walk(problem):
    args, chunk = problem
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(network_simplex, "_MATCH_CHUNK", chunk)
        warnings.simplefilter("error")
        pairs = _matched_pairs(*args)
    assert pairs == counted_matched_pairs(*args) == greedy_matched_pairs(*args)


def test_matched_start_casts_no_cost_it_cannot_hold():
    """Costs past the int16 range keep the float sort, with no cast warning."""
    costs = np.array([1e300, 32768.0, -32769.0, 0.5, -1e300, 2.0])
    tails, heads = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 1, 2, 2, 0])
    uniform = np.full(3, 1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pairs = _matched_pairs(uniform, uniform, tails, heads, costs)
        res = solve_bipartite(uniform, uniform, tails, heads, costs)
    assert pairs == greedy_matched_pairs(uniform, uniform, tails, heads, costs) == [
        (4, 2, 2), (2, 1, 1), (0, 0, 0)]
    assert res.flow.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("cost", [
    lambda: ap_cost(make_instance(192)),
    lambda: ex33_cost(make_instance(48), 47),
    lambda: ex33_cost(make_instance(144), 143),
], ids=["ap-192", "ex33-48", "ex33-144"])
def test_matched_pairs_on_rotation_costs_equal_the_counted_walk(cost):
    c = cost()
    n = c.shape[0]
    uniform = np.full(n, 1.0 / n)
    tails, heads, costs = c.finite_arcs
    pairs = _matched_pairs(uniform, uniform, tails, heads, costs)
    assert pairs and pairs == counted_matched_pairs(uniform, uniform, tails, heads, costs)
