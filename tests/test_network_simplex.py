import hashlib
import runpy
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
    IterationLimitError,
    Marginal,
    MKLabError,
    RotationInstance,
    ShapeError,
    TransportPlan,
    ap_cost,
    check_strong_ccm,
    fileformats,
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
    verify_exact_coupling,
)
from mklab.network_simplex import (
    _label_correcting,
    _matched_pairs,
    _pivot,
    _strongly_feasible,
    solve_bipartite,
)

from conftest import dense_coupling, dense_transport, nw_corner

#: `scripts/measure.py`, loaded by path: it defines the benchmark's engine calls.
MEASURE = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "measure.py"))
#: `perfbench/workloads.py`, loaded by path as `scripts/measure.py` loads it.
WORKLOADS = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))


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


@pytest.mark.parametrize("supplies, tails, costs, error, match", [
    ([0.5, 0.5], [0, 0, 1], [0.0, 1.0, 1.0, 0.0], ShapeError, "arc arrays must have equal length"),
    ([1.5, -0.5], [0, 0, 1, 1], [0.0, 1.0, 1.0, 0.0], MKLabError, "negative supply or demand"),
    ([0.5, 0.5], [0, 0, 1, 1], [0.0, np.inf, 1.0, 0.0], MKLabError, "arc costs must be finite"),
    ([0.5, 0.5], [0, 0, 1, 1], [0.0, np.nan, 1.0, 0.0], MKLabError, "arc costs must be finite"),
], ids=["short-tails", "negative-supply", "inf-cost", "nan-cost"])
def test_bad_arcs_and_masses_rejected(supplies, tails, costs, error, match):
    with pytest.raises(error, match=match):
        solve_bipartite(supplies, [0.5, 0.5], tails, [0, 1, 0, 1], costs)


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
    # Pivot counts do not depend on the host.  The matched start is proved
    # optimal with no pivot; pivoting from it takes 96 pivots at n=96 and
    # 180 at n=192 (95 and 181 with fine blocks, 516 and 1,377 from the
    # plain star).  The bounds sit far below the degenerate stall of
    # Dantzig pricing in row-major order (1,944 and 7,887).
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst)
    report = solve_primal(ex33_cost(inst, n - 1), mu, mu)
    assert report.primal_value == pytest.approx(1.0, abs=1e-9)
    assert report.stats.pivots <= bound


def test_ex33_arcs_priced():
    # Three label-correcting rounds, each pricing all E arcs, prove the
    # matched start optimal at every even n: 3E arcs priced and no pivot.
    # Pivoting from it prices 119,808 arcs at n=96, and priced 34,432 with
    # fine blocks.  With k_max = 48 the start is not a perfect matching
    # and the solve pivots.  Its final round scans all E arcs; a round that
    # finds an entering arc stops at its block.  Measured: 88,200 arcs
    # priced over 143 iterations, 0.13 E per iteration, where Dantzig
    # pricing takes E.
    n = 96
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst).weights
    costs = ex33_cost(inst, n - 1).entries.ravel()
    res = solve_bipartite(mu, mu, *full_arcs(n, n), costs)
    assert (res.iterations, res.pivots, res.arcs_priced) == (3, 0, 3 * costs.size)
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst).weights
    tails, heads, costs = ex33_cost(inst, 48).finite_arcs
    res = solve_bipartite(mu, mu, tails, heads, costs)
    assert res.pivots > 0
    assert costs.size <= res.arcs_priced < costs.size * res.iterations / 4


@pytest.mark.parametrize("n, bound", [(144, 100_000), (384, 1_000_000)])
def test_ex33_fine_pricing(n, bound):
    # The matched start is proved optimal in three rounds of E arcs:
    # 62,208 arcs priced at n=144 and 442,368 at n=384, with no pivot.
    # The bounds are what pivoting from it once priced with fine blocks
    # (63,648 and 436,992); with the one block size left it prices 373,248
    # and 4,571,136, so the proof is what keeps these solves under them.
    inst = make_instance(n)
    mu = uniform_marginal(inst).weights
    costs = ex33_cost(inst, n - 1).entries.ravel()
    res = solve_bipartite(mu, mu, *full_arcs(n, n), costs)
    assert res.arcs_priced <= bound
    assert (res.iterations, res.pivots, res.arcs_priced) == (3, 0, 3 * costs.size)


#: The benchmark's engine calls, as `scripts/measure.py` captures them from
#: the solver call of each benchmark op: iterations, pivots, degenerate
#: pivots and arcs priced (the columns of `measure.py engine`), and the
#: SHA-256 of the flow, source and sink potential bytes.  A switch to
#: smaller blocks once no artificial arc carried flow, since deleted, fired
#: on none of them and left these pins unchanged: at explicit n=300 most
#: pivots come while artificial flow remains, and later scans find a
#: median 0.07% of their block below zero.  The two restricted programs
#: have no more arcs than nodes, and each starts from a strongly feasible
#: spanning tree of its arcs that one pricing round proves optimal: the
#: 384 arcs of ap's supp(pi0) form one cycle, and the 599 of the explicit
#: north-west-corner pi0 a tree.  That round runs in the pass that builds
#: the tree, and the solve returns before the pivoting tree exists; moving
#: it there from the block scans cut their engine CPU to 0.59 and 0.58
#: times and left these pins unchanged.  From the matched start they took 208
#: pivots (185 degenerate, 12,816 arcs priced, digest ceaac8dc…) and 610
#: (47,546 arcs priced, digest 888a6db8…).  On ex33 the matched start is a
#: perfect matching that three label-correcting rounds prove optimal, with
#: no pivot (it took 141 degenerate pivots, 63,648 arcs priced and another
#: digest, 6313844f…, to pivot there).  The explicit primal and partial
#: calls move flow on every pivot but one.  They are the two calls that
#: price a candidate tier, the arcs at most the 10th least cost of their
#: row or column: from the plain star, each enters every arc from the tier
#: and prices all arcs once, in the round that proves the tree optimal.
#: Before the tier they took 1,041 / 1,040 / 0 / 9,579,096 (digest
#: 57a023f1…) and 985 / 984 / 1 / 9,113,761 (digest 3e08ef62…); the
#: primal value moved in its last bit, 0.03862446075311698 to …697, and
#: the partial value kept every bit.  The arcs were then priced in a
#: scattered order, slot k holding arc k s mod E for the first s >= 0.618 E
#: coprime to E.  Priced in input order, the primal call went from 1,023 /
#: 1,022 / 0 / 533,389, the partial call from 1,059 / 1,058 / 1 / 604,130
#: and explicit-60-primal from 211 / 210 / 0 / 85,511, and every digest
#: kept its bits.  Counters do not depend on the host, so these pins catch
#: a pricing or tree change whatever the noise.  The digests of the other
#: calls were taken before the engine moved its per-node bookkeeping onto
#: Python floats, which changed no bit.
BENCHMARK_ENGINE_CALLS = {
    "ex33-144-primal": (
        3, 0, 0, 62_208,
        "b253dec52712a660a5690e76d411068dc5654da1c72917d246a033bff9ca136a"),
    "ap-192-restricted": (
        1, 0, 0, 384,
        "8ef40fb7d45410153293663064535e5486383a1d8845c26800450b7945ecaa62"),
    "explicit-300-primal": (
        970, 969, 0, 510_083,
        "c14cdb287dbf3776c7bd7c050584cf44a1faaf51a87b3a357391ea555828d223"),
    "explicit-300-partial": (
        1101, 1100, 1, 613_187,
        "7454aac14e56c7b6f1e001e0a81d1b1132ceea0e3501d416704929db6755d3bb"),
    "explicit-300-restricted": (
        1, 0, 0, 599,
        "f67b4fc7ea832cc11e7002dd4865ddd9a318df51ba4352c4d0fccb2ce6ef7414"),
    "explicit-60-primal": (
        206, 205, 0, 83_328,
        "36d4a258bd15fa099b7a5c5dea7fc1b978afaff0bf138de7016ddd61ee0037fd"),
}


@pytest.fixture(scope="module")
def benchmark_calls():
    return MEASURE["benchmark_calls"]()


def test_counters_of_the_benchmark_instances(benchmark_calls):
    assert list(benchmark_calls) == list(BENCHMARK_ENGINE_CALLS)
    for name, (iterations, pivots, _, arcs_priced, _) in BENCHMARK_ENGINE_CALLS.items():
        _, res, _ = benchmark_calls[name]
        assert (res.iterations, res.pivots, res.arcs_priced) == (iterations, pivots, arcs_priced), name


@pytest.mark.parametrize("name", BENCHMARK_ENGINE_CALLS)
def test_degenerate_pivots_of_the_benchmark_instances(benchmark_calls, name):
    _, res, _ = benchmark_calls[name]
    assert res.degenerate_pivots == BENCHMARK_ENGINE_CALLS[name][2]


@pytest.mark.parametrize("name", BENCHMARK_ENGINE_CALLS)
def test_benchmark_instances_keep_their_bits(benchmark_calls, name):
    digest = BENCHMARK_ENGINE_CALLS[name][-1]
    _, res, _ = benchmark_calls[name]
    arrays = (res.flow, res.source_potentials, res.sink_potentials)
    assert hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest() == digest


@pytest.mark.parametrize("seed, problem, counters, value", [
    (17, "partial", (1078, 1077, 1, 595_776), 0.02816874632869167),
    (33, "primal", (1099, 1098, 0, 563_684), 0.04051466364949444),
], ids=["17-partial", "33-primal"])
def test_one_block_size_on_explicit_seeds(seed, problem, counters, value):
    # The benchmark's explicit n=300 instance at other seeds, solved as the
    # benchmark's calls are: blocks of one size, over the candidate tier
    # until the round that proves optimality, the only one to price all
    # arcs (iterations, pivots, degenerate pivots, arcs priced).  Without
    # the tier they took 1,011 / 1,010 / 1 / 9,373,470 and 1,143 / 1,142 /
    # 0 / 10,511,611, and with it in the scattered arc order 990 / 989 / 1 /
    # 554,207 and 1,094 / 1,093 / 0 / 564,558, to the same values in every
    # bit.
    cost, mu, nu, _ = WORKLOADS["explicit_arrays"](seed, 300)
    cost, mu, nu = CostMatrix(cost), Marginal(mu), Marginal(nu)
    solve = {"primal": lambda: solve_primal(cost, mu, nu),
             "partial": lambda: solve_partial(cost, mu, nu, WORKLOADS["PARTIAL_EPS"])}[problem]
    reports = []
    _, res, _ = MEASURE["engine_call"](lambda: reports.append(solve()))
    assert (res.iterations, res.pivots, res.degenerate_pivots, res.arcs_priced) == counters
    assert reports[0].primal_value == value


@pytest.mark.parametrize("supplies, demands, tails, heads, costs, source_pot, sink_pot", [
    # a tie on the tail side: its first least arc leaves (the full grid, so
    # that more arcs than nodes keep the solve on the matched start)
    ([3, 2, 2], [3, 4], [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1], [1, 3, 1, 0, 1, 2],
     [28, 25, 27], [-27, -25]),
    # a tie on the head side: its last least arc leaves
    ([1, 3, 1], [3, 2], [0, 0, 1, 1, 2, 2], [0, 1, 0, 1, 0, 1], [0, 0, 0, 3, 3, 2],
     [25, 28, 27], [-28, -25]),
], ids=["tail", "head"])
def test_leaving_arc_ties(supplies, demands, tails, heads, costs, source_pot, sink_pot):
    # Both problems have several optimal potential pairs, and which one
    # the solve ends on depends on which of the tied blocking arcs leaves:
    # the last one met from the apex, which keeps the tree strongly
    # feasible.  The first least arc of the head side ends elsewhere on
    # both, the last of the tail side on the first, and the tail side
    # winning a tie on both.  The two problems this test held while the
    # arcs were priced in a scattered order, not in input order, no longer
    # reach such a tie: the tail one ends on (30, 29, 30), (-28, -30) with
    # either tail-side rule, and the head one on its pinned potentials with
    # either head-side rule.
    res = solve_bipartite(supplies, demands, tails, heads, costs)
    assert res.source_potentials.tolist() == source_pot
    assert res.sink_potentials.tolist() == sink_pot


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


def test_block_pricing_matches_dense_oracle(rng):
    # Uniform masses and tied costs on 8,192 to 12,000 parallel arcs: the
    # last round of each solve still prices all E arcs, and it reaches the
    # optimum of the cheapest arc per cell
    for _ in range(30):
        n = int(rng.integers(6, 25))
        tails, heads, costs = parallel_arcs(rng, n, int(rng.integers(8192, 12000)))
        mu = np.full(n, 1 / n)
        res = solve_bipartite(mu, mu, tails, heads, costs)
        assert res.arcs_priced >= costs.size
        assert_potentials_feasible_and_tight(res, tails, heads, costs)
        cell = np.full((n, n), np.inf)
        np.minimum.at(cell, (tails, heads), costs)
        oracle = dense_coupling(CostMatrix(cell), Marginal(mu), Marginal(mu)).value
        assert abs(res.flow @ costs - oracle) <= 1e-9 * max(1.0, abs(oracle))


def tier_on(m, n, n_arcs):
    """Whether the engine prices a candidate tier on a program of this size."""
    return n_arcs > network_simplex._TIER_RATIO * network_simplex._TIER_K * (m + n)


def tier_off(monkeypatch):
    monkeypatch.setattr(network_simplex, "_TIER_RATIO", float("inf"))


def tiered_program(seed, sides=(110, 151)):
    """A coupling program above the tier's gate: 110 to 150 points a side,
    or as many as the range ``sides`` allows, integer costs 0..9 (heavily
    tied), about a fifth of the cells forbidden off the support of the
    north-west-corner coupling, and a tenth of the points of each side
    without mass."""
    rng = np.random.default_rng(seed)
    m, n = (int(v) for v in rng.integers(*sides, 2))
    masses = []
    for size in (m, n):
        w = rng.integers(1, 6, size).astype(float)
        w[rng.random(size) < 0.1] = 0.0
        masses.append(Marginal(w / w.sum()))
    mu, nu = masses
    cost = rng.integers(0, 10, (m, n)).astype(float)
    off_support = nw_corner(mu, nu).mass == 0
    cost[off_support & (rng.random((m, n)) < 0.2)] = np.inf
    return CostMatrix(cost), mu, nu


@pytest.mark.parametrize("seed", range(6))
def test_candidate_tier_matches_a_solve_without_it(seed, monkeypatch):
    cost, mu, nu = tiered_program(seed)
    tails, heads, costs = cost.finite_arcs
    assert tier_on(mu.size, nu.size, costs.size)
    report = solve_primal(cost, mu, nu)
    verify_exact_coupling(report.optimal_plan, mu, nu)
    phi, psi = report.optimal_potentials.phi, report.optimal_potentials.psi
    assert (costs - phi[tails] - psi[heads]).min() >= -1e-9
    tier_off(monkeypatch)
    full = solve_primal(cost, mu, nu)
    assert abs(report.primal_value - full.primal_value) <= 1e-12 * abs(full.primal_value)


def test_candidate_tier_keeps_infeasibility():
    # Sources 0 and 1 reach only sink 0, which takes half their mass; every
    # other cell is allowed, so the program sits far above the gate.
    n = 120
    cost = np.zeros((n, n))
    cost[:2, 1:] = np.inf
    tails, heads = np.nonzero(np.isfinite(cost))
    uniform = np.full(n, 1 / n)
    assert tier_on(n, n, tails.size)
    with pytest.raises(InfeasibleError):
        solve_bipartite(uniform, uniform, tails, heads, cost[tails, heads])


def test_candidate_tier_is_left_for_an_arc_outside_it(monkeypatch):
    # Every row has cost 0 to sinks 0..9, so those cells are its tier, and
    # the cells of sink j >= 10 cost 100 + i, so rows 0..9 are its tier.
    # Rows 10..99 must ship most of their mass to sinks 10..99, on cells in
    # no tier, which only a full scan prices.
    n = 100
    cost = np.broadcast_to(100.0 + np.arange(n)[:, None], (n, n)).copy()
    cost[:, :10] = 0.0
    tails, heads = full_arcs(n, n)
    costs = cost.ravel()
    uniform = np.full(n, 1 / n)
    assert tier_on(n, n, costs.size)
    res = solve_bipartite(uniform, uniform, tails, heads, costs)
    assert_potentials_feasible_and_tight(res, tails, heads, costs)
    outside = (tails >= 10) & (heads >= 10)
    assert res.flow[outside].sum() > 0.5
    tier_off(monkeypatch)
    full = solve_bipartite(uniform, uniform, tails, heads, costs)
    assert abs(res.flow @ costs - full.flow @ costs) <= 1e-12 * abs(full.flow @ costs)


#: The programs of `order_program`: tiered_program seeds and side ranges.
ORDER_PROGRAMS = {"below-10": (10, (6, 13)), "below-11": (11, (6, 13)),
                  "below-12": (12, (30, 41)), "above-13": (13, (110, 151)),
                  "above-14": (14, (110, 151)), "partial": (15, (110, 151))}


def order_program(name):
    """The engine program (supplies, demands, tails, heads, costs) of the
    `tiered_program` that ``name`` gives, below the tier's gate (6 to 40
    points a side) or above it, with forbidden cells, zero masses and tied
    costs; for "partial", the augmented program that `solve_partial`
    hands the engine at eps = 0.05."""
    cost, mu, nu = tiered_program(*ORDER_PROGRAMS[name])
    if name == "partial":
        args, _, _ = MEASURE["engine_call"](lambda: solve_partial(cost, mu, nu, 0.05))
        return args
    return (mu.weights, nu.weights, *cost.finite_arcs)


@pytest.mark.parametrize("name", ORDER_PROGRAMS)
def test_the_optimum_does_not_depend_on_the_arc_order(name):
    # The engine prices the arcs in the order it is given them, so each
    # order takes its own pivots; every one must end at the optimum, with
    # the flows back in the order of its arcs: an exact coupling of the
    # masses (scaled to one, as the partial program's carry 1 + eps) and
    # potentials feasible on every arc and tight where flow is.
    supplies, demands, tails, heads, costs = order_program(name)
    m, n = supplies.size, demands.size
    assert tier_on(m, n, costs.size) == (not name.startswith("below"))
    total = supplies.sum()
    mu, nu = Marginal(supplies / total), Marginal(demands / total)
    value = solve_bipartite(supplies, demands, tails, heads, costs).flow @ costs
    rng = np.random.default_rng(costs.size)
    for _ in range(3):
        perm = rng.permutation(costs.size)
        t, h, c = tails[perm], heads[perm], costs[perm]
        res = solve_bipartite(supplies, demands, t, h, c)
        assert abs(res.flow @ c - value) <= 1e-12 * abs(value)
        plan = np.zeros((m, n))
        np.add.at(plan, (t, h), res.flow / total)
        verify_exact_coupling(TransportPlan(plan), mu, nu)
        assert_potentials_feasible_and_tight(res, t, h, c)


def test_ex33_matched_start_pivots():
    # Uniform masses make ex33 an assignment problem, and the matched start
    # is an optimal perfect matching: the label-correcting pass proves it
    # with no pivot.  Pivoting from it takes 136 pivots (141 with fine
    # blocks), against 567 from the plain star.
    n = 144
    inst = RotationInstance(n=n, shift=golden_shift(n))
    mu = uniform_marginal(inst)
    report = solve_primal(ex33_cost(inst, n - 1), mu, mu)
    assert report.primal_value == pytest.approx(1.0, abs=1e-12)
    assert report.stats.pivots <= 200


@pytest.mark.parametrize("n", [24, 144, 192])
def test_ex33_certificate_at_zero_tolerance(n):
    # the proved pair is exact in integers, and stays so through the gauge
    inst = make_instance(n)
    mu = uniform_marginal(inst)
    cost = ex33_cost(inst, n - 1)
    report = solve_primal(cost, mu, mu)
    assert report.stats.pivots == 0
    assert check_strong_ccm(cost, report.optimal_plan, report.optimal_potentials, tol=0.0).passed


def proof_runs(monkeypatch):
    """The results of the label-correcting passes the solves run, in order."""
    runs = []

    def recording(*args):
        runs.append(_label_correcting(*args))
        return runs[-1]

    monkeypatch.setattr(network_simplex, "_label_correcting", recording)
    return runs


def test_perfect_matching_that_is_not_optimal_is_pivoted(monkeypatch):
    # the greedy start matches the cells of cost 0, 9 and 9; the pass finds
    # no potentials, and the pivots reach the two cells of cost 1 (a 3 x 3
    # grid, so that more arcs than nodes keep the solve off the tree start)
    runs = proof_runs(monkeypatch)
    tails, heads = full_arcs(3, 3)
    costs = np.array([0.0, 1.0, 9.0, 1.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    res = solve_bipartite([1.0] * 3, [1.0] * 3, tails, heads, costs)
    assert runs == [None]
    assert res.flow.tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0]
    assert res.flow @ costs == 11.0
    assert res.pivots > 0 and res.arcs_priced > network_simplex._PROOF_ROUNDS * costs.size


def integer_assignments(shift=0.0):
    """Derandomized n x n assignment problems, n = 2..7, with uniform masses
    and integer costs plus ``shift``: some on every cell, some with a third
    of the cells off a random permutation forbidden, some with their arcs
    shuffled out of row-major order.  Yields the cost matrix and its arcs."""
    rng = np.random.default_rng(26)
    for case in range(90):
        n = int(rng.integers(2, 8))
        entries = rng.integers(0, (2, 4, 10)[case % 3], (n, n)) + shift
        if case % 6 >= 3:
            keep = np.zeros((n, n), bool)
            keep[np.arange(n), rng.permutation(n)] = True
            entries[~keep & (rng.random((n, n)) < 0.35)] = np.inf
        cost = CostMatrix(entries)
        tails, heads, costs = cost.finite_arcs
        if case % 2:
            order = rng.permutation(costs.size)
            tails, heads, costs = tails[order], heads[order], costs[order]
        yield cost, tails, heads, costs


def test_proof_pass_matches_dense_oracle(monkeypatch):
    runs = proof_runs(monkeypatch)
    proved = []
    for cost, tails, heads, costs in integer_assignments():
        mu = np.full(cost.shape[0], 1.0 / cost.shape[0])
        runs.clear()
        res = solve_bipartite(mu, mu, tails, heads, costs)
        oracle = dense_coupling(cost, Marginal(mu), Marginal(mu)).value
        assert abs(res.flow @ costs - oracle) <= 1e-9
        # a greedy matching of the sparser instances may not be perfect
        assert len(runs) <= 1
        proved.append(runs[0] is not None if runs else None)
        if res.pivots == 0:
            # exact: feasible everywhere and tight on the plan, with no tolerance
            reduced = costs - res.source_potentials[tails] - res.sink_potentials[heads]
            assert reduced.min() >= 0.0 and not reduced[res.flow > 0].any()
    # both outcomes occur, in row-major and in shuffled arc order
    outcomes = Counter(proved)
    assert outcomes[True] >= 20 and outcomes[False] >= 20
    assert True in proved[1::2] and True in proved[::2]


def test_fractional_costs_never_enter_the_proof_pass(monkeypatch):
    runs = proof_runs(monkeypatch)
    for cost, tails, heads, costs in integer_assignments(0.5):
        mu = np.full(cost.shape[0], 1.0 / cost.shape[0])
        res = solve_bipartite(mu, mu, tails, heads, costs)
        oracle = dense_coupling(cost, Marginal(mu), Marginal(mu)).value
        assert abs(res.flow @ costs - oracle) <= 1e-9
    assert runs == []


def test_ap_restricted_matched_start_pivots():
    # The restricted solve inside every ap relaxed dual: its 384 arcs form
    # one cycle, and the spanning tree of them is optimal, with no pivot.
    # From the matched start it took 208 pivots, and 382 from the plain star.
    inst = make_instance(192)
    pi0 = mixture_plan([shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)], [0.5, 0.5])
    report = solve_restricted_primal(ap_cost(inst), pi0)
    assert report.primal_value == pytest.approx(1.0, abs=1e-12)
    assert report.stats.pivots <= 300


def tree_starts(monkeypatch):
    """The spanning trees of sparse programs that the solves tested, in
    order: each tree taken as a start, or None for each one refused."""
    starts = []

    def recording(tree):
        taken = _strongly_feasible(tree)
        starts.append(tree if taken else None)
        return taken

    monkeypatch.setattr(network_simplex, "_strongly_feasible", recording)
    return starts


def pivot_starts(monkeypatch):
    """The start trees that the solves handed to the pivots, in order."""
    starts = []

    def recording(supplies, demands, tails, heads, costs, penalty, start, proof_rounds):
        starts.append(start)
        return _pivot(supplies, demands, tails, heads, costs, penalty, start, proof_rounds)

    monkeypatch.setattr(network_simplex, "_pivot", recording)
    return starts


def assert_strongly_feasible(tree, supplies, demands, tails, heads, costs):
    """The start tree spans the nodes by arcs of the program: every
    component hangs from the root by an artificial arc that points up, at
    the potential of the penalty, and carries at most TOL, and depth grows
    by one down every real arc, so each path up ends at the root.  A real
    arc points up from a source to its parent sink and down from a source
    to its child sink, and its cost is the difference of its potentials.
    The flows ship the masses, none is below -TOL, each tree arc that
    carries at most TOL points up, and at most TOL is left at the root."""
    parent, via, up, depth, pot, flows, root_excess = tree
    m, n = supplies.size, demands.size
    assert len(parent) == len(via) == len(up) == len(depth) == len(pot) == len(flows) == m + n
    tol = network_simplex.TOL
    penalty = 3.0 * (1.0 + float(np.sum(np.abs(costs))))
    real = []
    for v, (u, a) in enumerate(zip(parent, via)):
        if a < 0:
            assert (u, depth[v], up[v], pot[v]) == (m + n, 1, True, penalty)
            assert abs(flows[v]) <= tol
            continue
        real.append(v)
        assert depth[v] == depth[u] + 1
        assert {v, u} == {int(tails[a]), m + int(heads[a])}
        assert up[v] == (v < m)
        assert pot[v] == (costs[a] + pot[u] if up[v] else pot[u] - costs[a])
    arcs = np.array([via[v] for v in real], dtype=int)
    shipped = np.array([flows[v] for v in real])
    assert np.bincount(tails[arcs], shipped, m) == pytest.approx(supplies, abs=1e-12)
    assert np.bincount(heads[arcs], shipped, n) == pytest.approx(demands, abs=1e-12)
    assert all(flows[v] >= -tol and (flows[v] > tol or v < m) for v in real)
    assert abs(root_excess) <= tol


def solve_or_infeasible(supplies, demands, tails, heads, costs):
    """The engine's value, after checking it against the dense tableau's;
    None when both find the program infeasible."""
    m, n = supplies.size, demands.size
    try:
        oracle = dense_transport(m, n, tails, heads, costs, supplies, demands).value
    except InfeasibleError:
        with pytest.raises(InfeasibleError):
            solve_bipartite(supplies, demands, tails, heads, costs)
        return None
    res = solve_bipartite(supplies, demands, tails, heads, costs)
    assert_potentials_feasible_and_tight(res, tails, heads, costs)
    assert res.flow @ costs == pytest.approx(oracle, abs=1e-9)
    return res.flow @ costs


@pytest.mark.parametrize("supplies, demands, tails, heads, taken", [
    ([0.5, 0.5], [0.5, 0.5], [0, 0, 1, 1], [0, 1, 0, 1], True),
    ([0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0, 1], [0, 1], True),
    ([0.0, 1.0], [0.0, 1.0], [0, 1, 1], [0, 0, 1], False),
    ([0.75, 0.25], [0.5, 0.5], [0, 0, 1, 1], [0, 1, 0, 1], False),
    ([0.75, 0.25], [0.5, 0.5], [0, 1], [0, 1], False),
    ([0.5, 0.5], [1.0], [0], [0], False),
], ids=["zero-flow-up", "isolated-zero-mass", "zero-flow-down", "negative-flow",
        "unbalanced-components", "isolated-mass"])
def test_which_start_a_sparse_program_takes(monkeypatch, supplies, demands, tails, heads, taken):
    # zero-flow-up: the path s0-t1-s1-t0 leaves s1 -> t1 at zero flow,
    # pointing up.  zero-flow-down: s0 -> t0 sits below s0 with no flow.
    # negative-flow: the path needs -0.25 on s1 -> t1.  The last two are
    # infeasible: a component ships more than it receives.
    starts = tree_starts(monkeypatch)
    supplies, demands = np.array(supplies), np.array(demands)
    tails, heads = np.array(tails), np.array(heads)
    solve_or_infeasible(supplies, demands, tails, heads, np.arange(1.0, tails.size + 1))
    assert [tree is not None for tree in starts] == [taken]


def sparse_programs():
    """Derandomized programs with no more arcs than nodes, m, n = 1..7: a
    random bipartite spanning tree on each of one to three components,
    plus no extra arc (a forest), one per component, or two in one
    component; nodes alone on their side of a component stay isolated.
    The masses are those of a random flow on the arcs, with zeros.  Every
    fifth program moves mass from a source to a sink of another component,
    and every twelfth, a forest, puts a negative flow on one arc; either
    leaves it infeasible.  Yields the masses and the arcs."""
    rng = np.random.default_rng(27)
    for case in range(210):
        m, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        label = rng.integers(0, 1 + case % 3, m + n)
        arcs, groups = [], []
        for c in np.unique(label):
            members = rng.permutation(np.flatnonzero(label == c)).tolist()
            sources, sinks = [v for v in members if v < m], [v - m for v in members if v >= m]
            if not sources or not sinks:
                label[members] = -1 - np.array(members)  # isolated nodes
                continue
            placed = [sources[:1], sinks[:1]]
            arcs.append((sources[0], sinks[0]))
            for v in members:
                if v == sources[0] or v == m + sinks[0]:
                    continue
                if v < m:
                    arcs.append((v, int(rng.choice(placed[1]))))
                    placed[0].append(v)
                else:
                    arcs.append((int(rng.choice(placed[0])), v - m))
                    placed[1].append(v - m)
            groups.append((sources, sinks))
        if not arcs:
            continue
        shape = case % 4
        extra = [] if shape in (0, 3) else groups if shape == 1 else groups[:1] * 2
        for sources, sinks in extra[:m + n - len(arcs)]:
            arcs.append((int(rng.choice(sources)), int(rng.choice(sinks))))
        tails, heads = (np.array(side) for side in zip(*arcs))
        x = (rng.integers(0, 3, tails.size) / 4 if case % 2
             else rng.uniform(0.05, 1.0, tails.size) * (rng.random(tails.size) > 0.2))
        if shape == 0 and case % 12 == 8:
            x[rng.integers(tails.size)] = -0.125
        supplies, demands = np.bincount(tails, x, m), np.bincount(heads, x, n)
        if case % 5 == 4:
            i = int(rng.integers(m))
            elsewhere = np.flatnonzero(label[m:] != label[i])
            if elsewhere.size:
                supplies[i] += 0.25
                demands[rng.choice(elsewhere)] += 0.25
        if supplies.min() < 0 or demands.min() < 0:
            continue
        assert tails.size <= m + n
        costs = rng.integers(0, 4, tails.size).astype(float) if case % 3 else rng.uniform(
            0.0, 5.0, tails.size)
        yield supplies, demands, tails, heads, costs


def test_tree_start_matches_dense_oracle(monkeypatch):
    starts = tree_starts(monkeypatch)
    outcomes = Counter()
    for supplies, demands, tails, heads, costs in sparse_programs():
        starts.clear()
        value = solve_or_infeasible(supplies, demands, tails, heads, costs)
        [tree] = starts
        if tree is not None:
            assert_strongly_feasible(tree, supplies, demands, tails, heads, costs)
        outcomes[tree is not None, value is not None] += 1
    # taken, refused on a feasible program, and refused on an infeasible one
    assert outcomes[True, True] >= 40 and outcomes[False, True] >= 20
    assert outcomes[False, False] >= 10 and not outcomes[True, False]


#: The counters of the solves of `sparse_programs()`, in order, each
#: "iterations,pivots,degenerate pivots,arcs priced" or "infeasible",
#: joined by ";": the SHA-256 of that text, and each counter's total.  They
#: are those of the engine that hung the tree into the star before pricing
#: it, so proving the tree in the pass that builds it changed none.  The
#: solves that pivot moved when the arcs came to be priced in input order,
#: not in a scattered order: from digest 4c7544ff… and totals 731, 569,
#: 93 and 2,449.
SPARSE_COUNTERS = ("7a9791d5f37056a6db2bdd4444db3a096ce41d6164fb1c2f7b8ee589e80234c2",
                   (722, 560, 80, 2436))


def test_sparse_program_counters(monkeypatch):
    starts, pivoted = tree_starts(monkeypatch), pivot_starts(monkeypatch)
    rows, totals, outcomes, zeroed = [], np.zeros(4, int), Counter(), Counter()
    for supplies, demands, tails, heads, costs in sparse_programs():
        starts.clear()
        pivoted.clear()
        try:
            res = solve_bipartite(supplies, demands, tails, heads, costs)
        except InfeasibleError:
            rows.append("infeasible")
            continue
        counters = (res.iterations, res.pivots, res.degenerate_pivots, res.arcs_priced)
        rows.append(",".join(map(str, counters)))
        totals += counters
        [tree] = starts
        outcomes[tree is not None, res.pivots > 0] += 1
        if tree is not None and not res.pivots:
            # the tree's own pricing round is the one iteration, over every arc
            assert (res.iterations, res.arcs_priced) == (1, costs.size)
            assert pivoted == []
        elif tree is not None:
            # the pivots start from that tree, each component root's
            # artificial arc carrying exactly no flow
            parent, via, up, depth, pot, flows, _ = tree
            [(p_parent, p_via, p_up, p_depth, p_pot, p_flows, _)] = pivoted
            assert (p_parent, p_via, p_up, p_depth, p_pot) == (parent, via, up, depth, pot)
            assert p_flows == [0.0 if a < 0 else f for a, f in zip(via, flows)]
            zeroed[any(f != 0.0 for a, f in zip(via, flows) if a < 0)] += 1
    digest = hashlib.sha256(";".join(rows).encode()).hexdigest()
    assert (digest, tuple(totals.tolist())) == SPARSE_COUNTERS
    # trees proved optimal, and trees that one pricing round refuses and
    # the pivots improve; the matched start also pivots or not
    assert outcomes[True, False] >= 40 and outcomes[True, True] >= 10
    assert outcomes[False, True] >= 40 and outcomes[False, False] >= 3
    # some pivoting trees push a rounding remainder onto a component root,
    # which the pivots' start sets to 0
    assert zeroed[True] >= 3


def test_zero_pivot_exits_count_their_rounds(monkeypatch):
    # ex33 n=24 is proved optimal by three label-correcting rounds, and the
    # ap primal by the one pricing round of its spanning tree; neither
    # pivots, and each round counts against MAX_ITERATIONS
    inst = make_instance(24)
    mu = uniform_marginal(inst)
    for cost, rounds in ((ex33_cost(inst, 23), 3), (ap_cost(inst), 1)):
        monkeypatch.setattr(network_simplex, "MAX_ITERATIONS", rounds - 1)
        with pytest.raises(IterationLimitError, match=f"exceeded {rounds - 1} iterations"):
            solve_primal(cost, mu, mu)
        monkeypatch.setattr(network_simplex, "MAX_ITERATIONS", rounds)
        stats = solve_primal(cost, mu, mu).stats
        assert (stats.iterations, stats.pivots) == (rounds, 0)


@pytest.mark.parametrize("n, counters", [(24, (43, 42, 23, 855)),
                                         (192, (227, 226, 218, 32_400))])
def test_restricted_program_with_more_arcs_than_nodes_keeps_its_start(monkeypatch, n, counters):
    # ex33's reference plan mixes five shift graphs: 5n arcs on 2n nodes,
    # outside the tree start's gate, so the restricted solve keeps the
    # matched start and the counters it had before the tree start existed.
    # Without the gate, the tree of n=24 is taken and ends with no pivot;
    # that of n=192 is refused.  Priced in a scattered arc order, not in
    # input order, they took 35 / 34 / 20 / 645 and 261 / 260 / 252 / 33,720.
    problem = fileformats.materialize(MEASURE["generated"]("ex33", n))
    starts = tree_starts(monkeypatch)
    _, res, _ = MEASURE["engine_call"](
        lambda: solve_restricted_primal(problem.cost, problem.reference_plan))
    assert starts == []
    assert (res.iterations, res.pivots, res.degenerate_pivots, res.arcs_priced) == counters


def test_generic_masses_keep_the_star_start():
    # No two masses are equal, so nothing is matched and the engine runs
    # exactly as it did before the matched start existed.  It took 154 / 153
    # / 28,420 when the arcs were priced in a scattered order.
    rng = np.random.default_rng(3)
    n = 40
    cost = rng.uniform(0.0, 5.0, (n, n))
    mu = random_masses(rng, n, 0.0)
    nu = random_masses(rng, n, 0.0)
    keep = nw_corner(Marginal(mu), Marginal(nu)).mass.ravel() > 0
    keep |= rng.random(n * n) > 0.2
    tails, heads = full_arcs(n, n)
    tails, heads, costs = tails[keep], heads[keep], cost.ravel()[keep]
    matched, integral = _matched_pairs(mu, nu, tails, heads, costs)
    assert matched.tolist() == [] and not integral
    res = solve_bipartite(mu, nu, tails, heads, costs)
    assert (res.iterations, res.pivots, res.arcs_priced) == (150, 149, 27442)


@pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
def test_tree_start_hangs_a_dead_row_sink_up(scale):
    # The last sink has no finite cell and a demand of 5e-10, inside TOL:
    # the start hangs a sink that no arc reaches with such a demand up from
    # the root, and its reported potential is 0.  Hung down at -penalty,
    # as a sink with demand and cells hangs, it reads 24 at scale 1, the
    # gap -1.2e-8, and at scale 100 weak duality fails.
    cost = CostMatrix(np.array([[1.0, np.inf, np.inf], [np.inf, 2.0, np.inf]]) * scale)
    report = solve_primal(cost, Marginal(np.array([0.5, 0.5])),
                          Marginal(np.array([0.5, 0.5 - 5e-10, 5e-10])))
    assert report.gap == 0.0
    assert report.optimal_potentials.psi.tolist() == [scale, 2 * scale, 0.0]


def test_star_ships_a_demand_inside_the_tolerance():
    # The last sink's demand of 5e-10 is inside TOL, but it has finite
    # cells: the star hangs it down at -penalty, as every sink with demand
    # that an arc reaches, and the pivots ship exactly that demand.  Hung
    # up, it gets no flow at all, after as many pivots, 13.  When the arcs
    # were priced in a scattered order, not in input order, the solve took
    # 16 / 15 / 0 / 78, and hung up the sink got 19 pivots and an inexact
    # flow.
    cost = np.random.default_rng(5).uniform(0.0, 5.0, (4, 5))
    mu = np.array([0.1, 0.2, 0.3, 0.4])
    nu = np.array([0.15, 0.25, 0.35, 0.25 - 5e-10, 5e-10])
    tails, heads = full_arcs(4, 5)
    res = solve_bipartite(mu, nu, tails, heads, cost.ravel())
    assert np.bincount(heads, res.flow, 5)[-1] == pytest.approx(5e-10, rel=1e-9, abs=0.0)
    assert (res.iterations, res.pivots, res.degenerate_pivots, res.arcs_priced) == (
        14, 13, 0, 69)


def dead_line_programs(dead_rows=False):
    """Derandomized feasible programs (cost, mu, nu), m, n = 5..9, with one
    or two columns that have no finite cell and a demand of 1e-10, 5e-10
    or 9e-10, together inside TOL; the largest live column gives up that
    demand.  Every third program has uniform masses on each side, so that
    some start matched.  A fifth of the cells off the north-west-corner
    support of the live columns are forbidden.  With ``dead_rows`` each
    program is transposed: rows with no finite cell and mass inside TOL."""
    for case in range(60):
        rng = np.random.default_rng(case)
        m, n = int(rng.integers(5, 10)), int(rng.integers(5, 10))
        n_dead = 1 + case % 2
        dead = np.array([[1e-10], [5e-10], [9e-10], [1e-10, 1e-10], [1e-10, 5e-10],
                         [5e-10, 1e-10]][3 * (n_dead - 1) + int(rng.integers(3))])
        if case % 3 == 0:
            mu, live = np.full(m, 1.0 / m), np.full(n - n_dead, 1.0 / (n - n_dead))
        else:
            mu, live = random_masses(rng, m, 0.0), random_masses(rng, n - n_dead, 0.0)
        entries = rng.uniform(0.0, 5.0, (m, n - n_dead))
        off = nw_corner(Marginal(mu), Marginal(live)).mass == 0
        entries[off & (rng.random(entries.shape) < 0.2)] = np.inf
        alive = np.setdiff1d(np.arange(n), rng.choice(n, n_dead, replace=False))
        cost, nu = np.full((m, n), np.inf), np.full(n, 0.0)
        cost[:, alive], nu[alive] = entries, live
        nu[nu == 0.0] = dead
        nu[alive[live.argmax()]] -= dead.sum()
        yield (cost.T, nu, mu) if dead_rows else (cost, mu, nu)


def assert_dead_lines_keep_weak_duality(scale, dead_rows):
    for cost, mu, nu in dead_line_programs(dead_rows):
        # more arcs than nodes: the matched start or the star runs
        assert np.isfinite(cost).sum() > mu.size + nu.size
        report = solve_primal(CostMatrix(cost * scale), Marginal(mu), Marginal(nu))
        verify_exact_coupling(report.optimal_plan, Marginal(mu), Marginal(nu))
        assert abs(report.gap) <= 1e-12 * max(1.0, abs(report.primal_value))


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
def test_a_sink_no_arc_reaches_keeps_weak_duality(scale):
    # Each program has a sink with no finite cell and a demand inside TOL.
    # The start hangs it up, where the components that arcs reach end, so
    # its potential is theirs.  Hung down, as a sink with demand and cells
    # hangs, it put twice the penalty into the dual value: at scale 1 the
    # gap went negative or weak duality failed, and at 1e2 and 1e4 it
    # failed on every program.
    assert_dead_lines_keep_weak_duality(scale, dead_rows=False)


@pytest.mark.xfail(strict=True, reason=(
    "a source that no arc leaves, with mass inside TOL, needs its root hung up on the "
    "sparse path and down on the star path; no start rule serves both (ROADMAP items 15 "
    "and 20)"))
@pytest.mark.parametrize("scale", [1.0, 1e2, 1e4])
def test_a_source_no_arc_leaves_keeps_weak_duality(scale):
    # The dead-row twin of the family above: its rows have no finite cell
    # and a mass inside TOL.
    assert_dead_lines_keep_weak_duality(scale, dead_rows=True)


@pytest.mark.parametrize("mu, nu, costs, n_pairs, dead", [
    # no two masses are equal, and one sink has no demand
    ([0.1, 0.2, 0.3, 0.4], [0.15, 0.25, 0.0, 0.6], np.arange(16.0) % 5, 0, -1),
    ([0.25, 0.25, 0.125, 0.375], [0.125, 0.25, 0.5, 0.125], np.arange(16.0)[::-1] % 7, 2, -1),
    # the last sink has no arc and a demand inside TOL
    ([0.1, 0.2, 0.3, 0.4], [0.15, 0.25, 0.6 - 5e-10, 5e-10], np.arange(16.0) % 5, 0, 3),
], ids=["star", "matched", "dead-column"])
def test_start_layout(monkeypatch, mu, nu, costs, n_pairs, dead):
    # Each matched sink hangs below its source at depth 2, with potential
    # penalty - c and the pair's mass, and the source's artificial arc
    # carries exactly nothing.  Every other node hangs from the root by its
    # artificial arc: a source, a sink without demand, or a sink that no
    # arc reaches with a demand inside TOL pointing up at the penalty's
    # potential, a sink with demand down at its negative.  A source or a
    # sink pointing down carries its mass, a sink pointing up its negative.
    pivoted = pivot_starts(monkeypatch)
    mu, nu = np.array(mu), np.array(nu)
    tails, heads = full_arcs(4, 4)
    keep = heads != dead
    tails, heads, costs = tails[keep], heads[keep], costs[keep]
    solve_bipartite(mu, nu, tails, heads, costs)
    [(parent, via, up, depth, pot, flow, *_)] = pivoted
    penalty = 3.0 * (1.0 + costs.sum())
    pairs = greedy_matched_pairs(mu, nu, tails, heads, costs)
    assert len(pairs) == n_pairs
    below = {4 + j: (a, i) for a, i, j in pairs}
    matched_sources = {i for _, i, _ in pairs}
    for v in range(8):
        mass = mu[v] if v < 4 else nu[v - 4]
        if v in below:
            a, i = below[v]
            assert (parent[v], via[v], up[v], depth[v]) == (i, a, False, 2)
            assert (pot[v], flow[v]) == (penalty - costs[a], mass)
            continue
        hung_up = v < 4 or mass == 0.0 or v == 4 + dead
        assert (parent[v], via[v], up[v], depth[v]) == (8, -1, hung_up, 1)
        assert pot[v] == (penalty if hung_up else -penalty)
        assert flow[v] == (0.0 if v in matched_sources else -mass if v >= 4 and hung_up else mass)


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
            arcs = _matched_pairs(supplies, demands, tails, heads, costs)[0]
            pairs.append(set(zip(tails[arcs].tolist(), heads[arcs].tolist())))
            unmatched += len(pairs[-1]) < np.count_nonzero(supplies)
        matched += bool(pairs[0])
        # the dummy pair of the partial solve begins matched
        assert (m, n) in pairs[1]
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


def arc_ids(pairs):
    """The arcs of a list of (arc, source, sink) pairs."""
    return [a for a, _, _ in pairs]


def proof_ready(supplies, demands, tails, heads, costs):
    """Whether every arc joins ends of equal positive mass and costs an
    integer in the int16 range: the costs the proof pass may read."""
    return bool(costs.size) and all(
        0 < supplies[i] == demands[j] and c.is_integer() and -32768 <= c <= 32767
        for i, j, c in zip(tails.tolist(), heads.tolist(), costs.tolist()))


#: Cost families: integers that an int16 key holds (small, negative, and
#: at both ends of its range, a few levels apart or all of it apart),
#: integers past that range, and non-integral costs, with -0.0 tied to 0.0.
MATCH_COSTS = [
    [0.0, 1.0, 2.0, 3.0],
    [-3.0, -1.0, 0.0, 2.0],
    [-32768.0, 0.0, 32767.0],
    [-32768.0, -32767.0, -32765.0],
    [32765.0, 32766.0, 32767.0],
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
    arc sets, and a chunk as small as one arc; and complete grids of arcs
    with one mass everywhere, up to 130 columns, in row-major order or
    shuffled."""
    family = draw(st.sampled_from(MATCH_COSTS))
    chunk = draw(st.sampled_from([1, 2, 3, 4096]))
    layout = draw(st.sampled_from(["arcs", "grid", "shuffled grid"]))
    if layout != "arcs":
        m, n = draw(st.integers(1, 7)), draw(st.sampled_from([1, 2, 3, 8, 9, 64, 65, 130]))
        value = draw(st.sampled_from([0.125, 1.0 / 3.0, 0.5]))
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        order = rng.permutation(m * n) if layout == "shuffled grid" else np.arange(m * n)
        tails, heads = np.divmod(order, n)
        return (np.full(m, value), np.full(n, value), tails, heads,
                rng.choice(np.array(family), m * n)), chunk
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
    costs = draw(st.lists(st.sampled_from(family), min_size=len(arcs), max_size=len(arcs)))
    tails = np.array([a for a, _ in arcs], dtype=int)
    heads = np.array([b for _, b in arcs], dtype=int)
    return (supplies, demands, tails, heads, np.array(costs, dtype=float)), chunk


@settings(derandomize=True, max_examples=400, deadline=None)
@given(matching_problems())
def test_matched_pairs_equal_the_counted_walk(problem):
    args, chunk = problem
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        patch.setattr(network_simplex, "_MATCH_CHUNK", chunk)
        warnings.simplefilter("error")
        matched, integral = _matched_pairs(*args)
    assert matched.dtype == int
    assert matched.tolist() == arc_ids(counted_matched_pairs(*args)) == arc_ids(
        greedy_matched_pairs(*args))
    assert integral == proof_ready(*args)


@pytest.mark.parametrize("top,by_levels", [(4, 4), (9, 3)])
def test_the_walk_takes_the_pairs_the_level_passes_leave(monkeypatch, top, by_levels):
    """A complete 4 x 4 grid (E = 16, 5 bits) gets level passes for its five
    least costs, 0 to 4: with its last pair at cost 4 they pick every pair,
    and with it at cost 9 the walk picks that one."""
    picked = []
    real = network_simplex._grid_pairs

    def recording(grid, levels):
        picked.append((levels, real(grid, levels)))
        return list(picked[-1][1])

    monkeypatch.setattr(network_simplex, "_grid_pairs", recording)
    tails, heads = full_arcs(4, 4)
    costs = np.full(16, float(top))
    costs[[0, 5, 10]] = 0.0
    uniform = np.full(4, 0.25)
    matched, integral = _matched_pairs(uniform, uniform, tails, heads, costs)
    [(levels, arcs)] = picked
    assert levels == range(0, 5) and len(arcs) == by_levels
    assert integral
    assert matched.tolist() == [0, 5, 10, 15] == arc_ids(
        greedy_matched_pairs(uniform, uniform, tails, heads, costs))


def test_matched_start_casts_no_cost_it_cannot_hold():
    """Costs past the int16 range keep the float sort, with no cast warning."""
    costs = np.array([1e300, 32768.0, -32769.0, 0.5, -1e300, 2.0])
    tails, heads = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 1, 2, 2, 0])
    uniform = np.full(3, 1.0 / 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        matched, integral = _matched_pairs(uniform, uniform, tails, heads, costs)
        res = solve_bipartite(uniform, uniform, tails, heads, costs)
    assert greedy_matched_pairs(uniform, uniform, tails, heads, costs) == [
        (4, 2, 2), (2, 1, 1), (0, 0, 0)]
    assert matched.tolist() == [4, 2, 0]
    assert not integral
    assert res.flow.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("cost", [
    lambda: ap_cost(make_instance(192)),
    lambda: ex33_cost(make_instance(48), 47),
    lambda: ex33_cost(make_instance(49), 48),
    lambda: ex33_cost(make_instance(144), 143),
], ids=["ap-192", "ex33-48", "ex33-49", "ex33-144"])
def test_matched_pairs_on_rotation_costs_equal_the_counted_walk(cost):
    c = cost()
    n = c.shape[0]
    uniform = np.full(n, 1.0 / n)
    tails, heads, costs = c.finite_arcs
    matched, integral = _matched_pairs(uniform, uniform, tails, heads, costs)
    assert integral and matched.size
    assert matched.tolist() == arc_ids(counted_matched_pairs(uniform, uniform, tails, heads, costs))
