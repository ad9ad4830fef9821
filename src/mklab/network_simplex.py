"""Primal network simplex for bipartite transportation problems.

Forbidden pairs are deleted variables: only finite-cost arcs exist in
the model.  Feasibility scaffolding is a root node joined to every real
node by a penalized artificial arc; the penalty is computed from the
data (it dominates any dual value a basis can produce), artificial arcs
are never allowed to re-enter the basis, and any artificial flow that
survives at optimality certifies infeasibility.

The basis is kept as a strongly feasible spanning tree (Cunningham,
*A network simplex method*, Math. Prog. 11, 1976): every tree arc
without flow points toward the root.  The start tree has this
property, and the leaving-arc rule keeps it, so degenerate pivots
cannot cycle and the method terminates with one pricing rule.  The tree
is held per node in flat lists: the parent, the arc to it with its
direction, cost and flow, and the depth, with each node's children in
an ordered set (Ahuja, Magnanti and Orlin, *Network Flows*, 1993,
ch. 11).  The walk up the cycle finds the leaving arc as it goes, and
a degenerate pivot, one that moves no flow (theta = 0), skips the flow
pass.  A pivot turns over the stem from the entering arc up to the
leaving arc, then walks the cut-off subtree once to reset depth and
potential there.  Each potential is summed from its parent's, so
potentials do not drift as pivots accumulate.  Per-node reads and sums
run on Python floats: the subtree walk reads a list mirror of the
potentials and writes each sum to it and to the array that pricing
gathers from.  Numpy otherwise handles whole arrays: the pricing scans
and the final flow scatter.

Pricing is block search (Kovács, *Minimum-cost flow algorithms: an
experimental evaluation*, OMS 2015): it scans blocks of arcs, resuming
where the last scan stopped, and enters the most negative reduced cost
of the first block that has one; a full round of blocks without one
proves optimality.  Arcs are scanned in the order the caller gives them.
Blocks are large, min(E/8, 34 sqrt(E)) arcs: a pivot costs far more in
Python than a numpy scan, and the best arc of a large block saves
pivots.

A dense program, one with E > _TIER_RATIO * _TIER_K * (m + n) arcs, is
priced in two tiers, after the shortlist method (Gottschlich and
Schuhmacher, PLoS ONE 9(10), 2014), but within one solve.  The
candidates are the arcs whose cost is at most the _TIER_K-th least of
their row or of their column: an optimal plan of a dense cost lies
mostly on cheap arcs.  Each iteration prices the candidates first, in
blocks sized by the same rule on their count, and scans all arcs in
the usual blocks only when a whole round of candidates has no reduced
cost below -TOL.  When that scan finds none either, the tree is optimal.
When it finds one, the tier is dropped for the rest of the solve: a
program that needs arcs outside it would pay a candidate round and a
full scan on each such iteration, and adding the arcs a full scan
finds to a rebuilt tier made odd-n ex33 slower (64 ms against 27 ms at
n=145).  Any candidate set is correct, since a strongly feasible tree
cannot cycle whichever arc with a negative reduced cost enters.  The
bounds come from one in-place partition of an m x n scratch grid per
side, built and freed before the pricing arrays exist, so that the
solve's peak memory does not rise.  At explicit n=300 the candidates
are 5% of the arcs, and the solve prices 18 times fewer arcs.  On ex33
at odd n, whose integer costs tie, they are 36% to 44%, and a full
scan drops the tier after a quarter to a third of the pivots.  The gate
is where the tier breaks even on explicit costs, measured from n=60 to
160.

Every start tree comes from one builder: the depth-first spanning forest
of a given set of arcs, searched from the nodes in index order,
following the last arc at a node first.  Each component hangs from the
root by its first node's artificial arc: up at the penalty's potential
from a source, and down at its negative from a sink with demand, so that
every artificial arc without flow points up and the pivots ship every
demand.  But a sink that no arc reaches, with demand at most TOL, points
up with that demand as negative flow: on no cycle, it ends as it starts,
and the reached components end hung up, so its potential is theirs (hung
down, it puts twice the penalty into the dual value).  Below the root
each node records its parent, input arc, direction, depth and potential:
c + pi(parent) up from a source and pi(parent) - c down to a sink.  The
flows push each node's excess to its parent, deepest nodes first, as the
exact flow recovery does.  The three starts are three arc sets:

- A program with no more arcs than nodes (0 < E <= m + n), such as the
  restricted program on the support of a plan that is a tree or a single
  cycle, gives all its arcs.  Its tree is a start when it is a strongly
  feasible basis: every component balanced, no flow below -TOL, and
  every tree arc that carries at most TOL pointing up (Cunningham 1976;
  Ahuja, Magnanti and Orlin 1993, ch. 11).  Such a start needs no
  phase-1 pivot and keeps the anti-cycling guarantee.  One pricing round
  over the arcs out of the tree, by the expression of the block scans,
  decides: when no reduced cost is below -TOL the tree is optimal, and
  the solve returns with 1 iteration, no pivot and E arcs priced, before
  the pricing arrays or the pivoting tree exist.  Otherwise the pivots
  start from that tree, each component root's artificial arc without
  flow; their first block scan prices again, and only the pivoting
  rounds are counted.  The gate keeps the search, Python work per arc,
  off dense programs: the tree of the ex33 n=144 grid costs 6 times the
  matching's proof, and that of the explicit n=300 grid is refused after
  27 ms.
- Any other program, or one whose tree is refused, gives the arcs of a
  greedy matching: walking the arcs whose two ends carry the same
  positive mass from the cheapest, each arc whose two ends are unmatched
  joins them.  A pair hangs from its source, pointing up with no flow,
  and its sink below it carries their common mass; every other node
  hangs from the root with its mass.  In an assignment problem (uniform
  marginals, as in the rotation models) most nodes begin matched, and
  most of the pivots that the plain star spends pushing artificial flow
  out are saved.  Only equal masses are matched: hanging sinks of any
  mass below cheap sources makes each re-hang larger, which costs more
  than the pivots it saves.  The walk sorts the arcs by cost, stably:
  when every cost is an integer in the int16 range, as in the rotation
  models, it sorts an exact int16 key, which numpy radix-sorts into the
  same order as the float sort.  One program is matched level by level
  first: one mass everywhere, arcs that are the complete grid in
  row-major order, and int16 costs, as on the all-finite ex33 grid.
  Within one cost level the walk meets those arcs by rows, then columns,
  so each free source takes the lowest sink still free at that level,
  and one numpy pass per level finds the same pairs with Python work per
  free source, not per arc.  The passes take the least cost levels, as
  many as E has bits, so they read no more cells than a sort compares;
  the walk sorts only the arcs they leave between free ends.  On ex33
  that is none at n = 144, 145 and 1536, and 4 of 385 pairs at n = 385.
- Without equal masses the matching is empty, and the start the plain star.

When the matching is perfect and every arc cost is an integer in the
int16 range, the solve first tries to prove the matching optimal, before
any tree is built.  Optimal potentials exist iff the difference
constraints that a perfect matching puts on the sink potentials have no
negative cycle (negative-cycle optimality; Ahuja, Magnanti and Orlin,
*Network Flows*, 1993, ch. 9), and a label-correcting pass either finds
them or keeps lowering a potential, the test that CS2 makes at the start
of a scaling phase, before it does any work (Goldberg, *An efficient
implementation of a scaling minimum-cost flow algorithm*, J. Algorithms
22, 1997).  On integer costs the sums are exact, so a pass that settles
returns the matching with potentials that are feasible and tight with no
tolerance, and no pivot.  A pass that is still lowering potentials after
_PROOF_ROUNDS rounds gives up, and the solve pivots from the matched
start as it would have without the pass.

Every solve ends in one finish, whether pivots, a pricing round or a
label-correcting pass proved its basis: the iterations are checked
against MAX_ITERATIONS, the basic flows against conservation at the
root and against negative values, artificial flow above TOL raises
InfeasibleError, and the flows of the basic real arcs are written into
a zero flow per input arc.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import (
    InfeasibleError,
    InvariantError,
    IterationLimitError,
    MKLabError,
    ShapeError,
    UnboundedError,
)

#: Feasibility and optimality tolerance alike: the largest reduced cost
#: below zero that counts as optimal, and the most mass left unshipped at
#: optimality that counts as feasible.
TOL = 1e-9

#: Iterations, as ``solve_bipartite`` counts them, allowed before IterationLimitError.
MAX_ITERATIONS = 10 ** 6

#: A pricing block holds min(ceil(E / 8), ceil(34 sqrt(E))) of the E real arcs,
#: or of the candidates of the tier.
_BLOCKS, _BLOCK_ROOT = 8, 34

#: The candidate tier: an arc is a candidate when its cost is at most the
#: _TIER_K-th least cost of its row or of its column, and the tier runs
#: when E > _TIER_RATIO * _TIER_K * (m + n).
_TIER_K, _TIER_RATIO = 10, 4

#: The matched start walks the cost-sorted arcs this many at a time.
_MATCH_CHUNK = 4096

#: The proof pass of a perfect matching gives up after this many rounds:
#: ex33 takes 3 at every even n measured (12 to 1536), and the rounds a
#: pass that gives up has spent cost about 0.3 ms at n=144.
_PROOF_ROUNDS = 4

#: Start costs that are all integers in this range sort by an int16 key.
_INT16 = np.iinfo(np.int16)


@dataclass(frozen=True)
class BipartiteFlow:
    flow: np.ndarray          # one value per real arc, in input order
    source_potentials: np.ndarray
    sink_potentials: np.ndarray
    iterations: int           # counted as ``solve_bipartite`` says
    pivots: int
    arcs_priced: int          # reduced costs computed in the iterations counted
    degenerate_pivots: int    # pivots that moved no flow (theta = 0)


def _int16_key(costs) -> np.ndarray | None:
    """The costs as int16 when every one is an integer in the int16 range,
    else None."""
    if costs.size and _INT16.min <= costs.min() and costs.max() <= _INT16.max:
        key = costs.astype(np.int16)
        if (key == costs).all():
            return key
    return None


def _cost_order(costs) -> tuple[np.ndarray, bool]:
    """Stable argsort of the costs, and whether they are all integers in the
    int16 range: numpy radix-sorts such costs by an exact int16 key, into
    the same permutation as the float sort.  The walk of _matched_pairs
    sorts every candidate arc, except on a complete grid, where it sorts
    only the arcs that _grid_pairs leaves."""
    key = _int16_key(costs)
    if key is not None:
        return np.argsort(key, kind="stable"), True
    return np.argsort(costs, kind="stable"), False


def _grid_pairs(grid, levels) -> list[int]:
    """The first arcs that the walk of _matched_pairs picks, in its order,
    on a complete grid of arcs with one mass everywhere: arc i * n + j
    joins source i to sink j at the int16 cost ``grid[i, j]``.  The cost
    levels are passed in the order of ``levels``, which starts at the least
    cost, and the arcs left when it runs out all cost more.

    The walk meets the arcs by cost, then index, so within one cost level
    by rows, then columns: each source still free takes the lowest sink
    still free at that level.  One numpy pass per level packs the rows of
    the free sources into bitsets, and a Python int holds the free sinks,
    so the Python work is per free source, not per arc.  Once every arc
    has been passed, no source and sink are both free, and it stops.
    """
    m, n = grid.shape
    width = -(-n // 8)
    rows = np.arange(m)
    open_sinks = (1 << n) - 1
    matched: list[int] = []
    for level in levels:
        bits = np.packbits(grid[rows] == level, axis=1, bitorder="little").tobytes()
        free = []
        for k, i in enumerate(rows.tolist()):
            at = int.from_bytes(bits[k * width:(k + 1) * width], "little") & open_sinks
            if at:
                at &= -at  # the lowest free sink
                open_sinks ^= at
                matched.append(i * n + at.bit_length() - 1)
            else:
                free.append(i)
        if not free or not open_sinks:
            break
        rows = np.array(free)
    return matched


def _matched_pairs(supplies, demands, tails, heads, costs) -> tuple[np.ndarray, bool]:
    """The arcs of a greedy matching of sources to sinks of equal positive
    mass, cheapest arcs first, and whether every arc is a candidate whose
    cost is an integer in the int16 range.

    Each arc whose ends carry the same positive mass and are both still
    unmatched joins them; ties in cost keep the input order.  The walk
    visits the arcs in that order.  On a complete grid of arcs in
    row-major order, with one mass everywhere and int16 costs,
    _grid_pairs first picks the same arcs level by level, and the walk
    takes only the arcs it leaves between free ends.
    """
    m, n = supplies.size, demands.size
    src_free, snk_free = np.ones(m, bool), np.ones(n, bool)
    matched: list[int] = []
    value = supplies[:1]
    if value.size and value[0] > 0 and (supplies == value).all() and (demands == value).all():
        # one mass everywhere: every arc is a candidate
        key = None
        if costs.size == m * n and (heads.reshape(m, n) == np.arange(n)).all() \
                and (tails.reshape(m, n) == np.arange(m)[:, None]).all():
            key = _int16_key(costs)
        if key is None:
            by_cost, integral = _cost_order(costs)
        else:
            # as many level passes as E has bits, of at most E cells each:
            # no more cells than a sort of the E arcs compares
            lo = int(key.min())
            matched = _grid_pairs(key.reshape(m, n), range(lo, lo + costs.size.bit_length()))
            done = np.array(matched, dtype=int)
            src_free[done // n] = snk_free[done % n] = False
            rest = (np.flatnonzero(src_free)[:, None] * n + np.flatnonzero(snk_free)).ravel()
            by_cost, integral = rest[np.argsort(key[rest], kind="stable")], True
    elif set(supplies[supplies > 0].tolist()).isdisjoint(demands.tolist()):
        return np.empty(0, dtype=int), False
    else:
        mass = supplies[tails]
        candidates = np.flatnonzero((mass > 0) & (mass == demands[heads]))
        order, integral = _cost_order(costs[candidates])
        by_cost = candidates[order]
        integral &= candidates.size == costs.size
    # the arrays screen a chunk at once; their list copies answer the
    # per-arc checks inside it
    src_open, snk_open = src_free.tolist(), snk_free.tolist()
    for lo in range(0, by_cost.size, _MATCH_CHUNK):
        arcs = by_cost[lo:lo + _MATCH_CHUNK]
        t, h = tails[arcs], heads[arcs]
        keep = src_free[t] & snk_free[h]
        for a, i, j in zip(arcs[keep].tolist(), t[keep].tolist(), h[keep].tolist()):
            if src_open[i] and snk_open[j]:
                src_open[i] = snk_open[j] = src_free[i] = snk_free[j] = False
                matched.append(a)
    return np.array(matched, dtype=int), integral


def _label_correcting(tails, heads, costs, arcs):
    """Potentials that prove the perfect matching on the input ``arcs``
    optimal, and the rounds that found them; None after _PROOF_ROUNDS rounds.

    With psi = 0 to begin, phi_i = c_i,s(i) - psi_s(i) on the arc that
    matches source i to sink s(i).  A round prices every arc and lowers
    phi_i to its row's least c_ij - psi_j, raising psi_s(i) to match: a
    label-correcting (Bellman-Ford) step on the difference constraints
    psi_j <= psi_s(i) + c_ij - c_i,s(i).  When no phi falls, phi + psi <= c
    on every arc, with equality on the matched ones, so the matching is
    optimal; when the constraints hold a negative cycle, some phi falls
    in every round.  Every cost is an integer of at most 16 bits and a
    round moves a potential by at most 2^16, so every sum is exact in
    float64.  When the arcs are grouped by row, as ``CostMatrix.finite_arcs``
    gives them, a row's least value is one slice of ``np.minimum.reduceat``.
    """
    srcs = tails[arcs]
    m = srcs.size
    sigma, pair_cost = np.empty(m, dtype=int), np.empty(m)
    sigma[srcs], pair_cost[srcs] = heads[arcs], costs[arcs]
    phi, psi = pair_cost.copy(), np.zeros(m)
    # every row holds its matched arc, so grouped rows run 0, 1, ..., m - 1
    grouped = bool((tails[1:] >= tails[:-1]).all())
    starts = np.searchsorted(tails, np.arange(m)) if grouped else None
    reduced = costs  # c - psi while psi = 0
    for rounds in range(1, _PROOF_ROUNDS + 1):
        if grouped:
            low = np.minimum.reduceat(reduced, starts)
        else:
            low = phi.copy()
            np.minimum.at(low, tails, reduced)
        # the matched arc is in its row, so low <= phi
        if (low == phi).all():
            return phi, psi, rounds
        phi = low
        psi[sigma] = pair_cost - phi
        reduced = psi[heads]
        np.subtract(costs, reduced, out=reduced)
    return None


def _tier_bounds(m, n, tails, heads, costs) -> np.ndarray:
    """The candidate mask: whether each arc's cost is at most the _TIER_K-th
    least cost of its source's arcs or of its sink's.  A node with fewer
    arcs takes all of them, and where the other side has fewer than
    _TIER_K nodes the bound is its greatest cost.

    Each side's bounds come from one in-place partition of a scratch grid
    of the costs, +inf on the cells with no arc, and where arcs are
    parallel the last one's; each grid is freed before the next array is
    built, and the mask is taken once both are.
    """
    bounds = []
    for ends, others, size in ((tails, heads, n), (heads, tails, m)):
        grid = np.full((m + n - size, size), np.inf)
        grid[ends, others] = costs
        kth = min(_TIER_K, size) - 1
        grid.partition(kth, axis=1)
        bounds.append(grid[:, kth].copy())
        del grid
    row_bound, col_bound = bounds
    candidate = costs <= row_bound[tails]
    candidate |= costs <= col_bound[heads]
    return candidate


def _penalty(costs) -> float:
    """The artificial-arc penalty 3 * (1 + sum |c|).

    A potential is at most 4/3 of the penalty in size and a reduced cost at
    most 3 times it, so all stay finite when 4 * penalty does; InvariantError
    otherwise.
    """
    with np.errstate(over="ignore"):
        cost_sum = float(np.sum(np.abs(costs)))
    penalty = 3.0 * (1.0 + cost_sum)
    if not math.isfinite(4.0 * penalty):
        raise InvariantError(
            f"arc costs sum to {cost_sum:.6g}: the artificial-arc penalty 3 * (1 + sum |c|) "
            "overflows float64 in the engine's potentials")
    return penalty


def _push_excess(supplies, demands, parent: list, up: list, depth: list) -> tuple[list, float]:
    """The flow on each node's tree arc that carries the node excesses to the
    root, pushed from node to parent, deepest nodes first and ties in index
    order, and the excess left at the root, 0 when the masses balance."""
    root = supplies.size + demands.size
    excess = supplies.tolist() + (-demands).tolist() + [float(np.sum(demands) - np.sum(supplies))]
    flows = [0.0] * root
    for v in sorted(range(root), key=depth.__getitem__, reverse=True):
        flows[v] = excess[v] if up[v] else -excess[v]
        excess[parent[v]] += excess[v]
    return flows, excess[root]


def _start_tree(supplies, demands, tails, heads, costs, arcs, penalty):
    """The depth-first spanning forest of the input ``arcs`` as a start tree.

    Nodes are sources 0..m-1, then sinks, then the root.  Each component
    hangs from the root by its first node's artificial arc, down at
    potential -``penalty`` from a sink with demand that an arc of the
    program reaches or that exceeds TOL, and up at ``penalty`` otherwise.
    With no ``arcs`` the forest is the plain star, written without a search
    or a depth sort.  Returns, per non-root node, its parent, the input arc
    to it (-1 for an artificial arc), whether that arc points up, its depth
    (1 below the root), its potential and its tree flow, and then the
    root's excess.
    """
    m, n = supplies.size, demands.size
    root = m + n
    # hung from the root, a source points up at +penalty and a sink down at
    # -penalty, but the sinks in up_sinks point up
    down, up_sinks = demands > TOL, []
    if not down.all():
        # only a demand in (0, TOL] asks whether an arc reaches its sink
        band = (demands > 0) & ~down
        if band.any():
            down |= band & (np.bincount(heads, minlength=n) > 0)
        up_sinks = (m + np.flatnonzero(~down)).tolist()
    hung_up, pot = [True] * m + [False] * n, [penalty] * m + [-penalty] * n
    for v in up_sinks:
        hung_up[v], pot[v] = True, penalty
    if not arcs.size:
        # the plain star: each node's tree arc carries its own excess, which
        # the root sums in index order, as _push_excess does
        flows = supplies.tolist() + demands.tolist()
        for v in up_sinks:
            flows[v] = -flows[v]
        excess = np.concatenate([supplies, -demands, [0.0]])
        excess[0] += demands.sum() - supplies.sum()
        return ([root] * root, [-1] * root, hung_up, [1] * root, pot, flows,
                float(np.add.accumulate(excess)[-1]))
    t, h, c = tails[arcs], m + heads[arcs], costs[arcs]
    # the arcs at each node as a CSR layout: entry k leads from owner[k] to
    # other[k], whose potential is owner[k]'s plus step[k]
    ends = np.concatenate([t, h])
    by_end = np.argsort(ends, kind="stable")
    first = np.searchsorted(ends, np.arange(root + 1), sorter=by_end).tolist()
    owner = ends[by_end].tolist()
    other = np.concatenate([h, t])[by_end].tolist()
    arc = np.concatenate([arcs, arcs])[by_end].tolist()
    step = np.concatenate([-c, c])[by_end].tolist()
    # a real tree arc points up from a source to its sink, and down from a
    # source to a sink below it
    parent, via, up, depth = [-1] * root, [-1] * root, [True] * m + [False] * n, [1] * root
    # the entries reached and not yet followed; the last one is followed first
    stack: list[int] = []
    pop, push = stack.pop, stack.extend
    for start in range(root):
        if parent[start] >= 0:
            continue
        parent[start], up[start] = root, hung_up[start]
        push(range(first[start], first[start + 1]))
        while stack:
            k = pop()
            w = other[k]
            if parent[w] < 0:
                u = owner[k]
                parent[w], via[w], depth[w], pot[w] = u, arc[k], depth[u] + 1, pot[u] + step[k]
                push(range(first[w], first[w + 1]))
    flows, root_excess = _push_excess(supplies, demands, parent, up, depth)
    return parent, via, up, depth, pot, flows, root_excess


def _strongly_feasible(tree) -> bool:
    """Whether the start tree is a strongly feasible basis: every component
    balanced, no flow below -TOL, and every tree arc that carries at most
    TOL pointing up."""
    _, via, up, _, _, flows, _ = tree
    tol = TOL
    for a, f, u in zip(via, flows, up):
        # an unbalanced component, a negative flow, or an empty arc pointing down
        if not abs(f) <= tol if a < 0 else not f >= -tol or (f <= tol and not u):
            return False
    return True


def _finish(e_real, arcs, basic, root_excess, phi, psi, *counters) -> BipartiteFlow:
    """The result of a solve that ends on the basis whose node v carries
    ``basic[v]`` on input arc ``arcs[v]``, or on its artificial arc where
    that is -1, with ``root_excess`` left at the root; ``counters`` are the
    iterations, pivots, arcs priced and degenerate pivots.

    Raises IterationLimitError past MAX_ITERATIONS iterations, MKLabError
    when the flows do not conserve mass or one is negative, and
    InfeasibleError when artificial arcs carry more than TOL of mass.
    """
    tol = TOL
    if counters[0] > MAX_ITERATIONS:
        raise IterationLimitError(f"network simplex exceeded {MAX_ITERATIONS} iterations")
    # written so that a NaN fails them; an arc out of the basis carries 0
    if not abs(root_excess) <= tol:
        raise MKLabError("flow conservation failed at the root")  # pragma: no cover
    if not float(basic.min(initial=0.0)) >= -tol:
        raise MKLabError("negative basic flow after recomputation")  # pragma: no cover
    np.maximum(basic, 0.0, out=basic)
    # An unshipped unit crosses two artificial arcs, up into the root and
    # down out of it, so half the artificial flow is the mass not shipped.
    artificial = arcs < 0
    if 0.5 * float(basic[artificial].sum()) > tol:
        raise InfeasibleError("no feasible shipment avoids the deleted pairs")
    flow = np.zeros(e_real)
    flow[arcs[~artificial]] = basic[~artificial]
    return BipartiteFlow(flow, phi, psi, *counters)


def solve_bipartite(supplies, demands, tails, heads, costs) -> BipartiteFlow:
    """Minimize sum(cost * flow) shipping supplies to demands over the arcs.

    ``tails`` index sources, ``heads`` index sinks.  On return the
    potentials (u, v) satisfy u[i] + v[j] <= cost + TOL on every arc,
    with equality on arcs carrying flow (the returned basis); more than
    TOL of mass left unshipped at optimality raises InfeasibleError.
    More than MAX_ITERATIONS iterations raise IterationLimitError.  The
    iterations are the pivots' pricing rounds, the rounds of a
    label-correcting proof, and the pricing round of a spanning tree when
    that round proves the tree optimal.  A tree's round that finds an
    entering arc is not counted, in the iterations or the arcs priced: the
    pivots' first block scan prices those arcs again and is counted.
    """
    tol = TOL
    supplies = np.asarray(supplies, dtype=float)
    demands = np.asarray(demands, dtype=float)
    tails = np.asarray(tails, dtype=int)
    heads = np.asarray(heads, dtype=int)
    costs = np.asarray(costs, dtype=float)
    m, n = supplies.size, demands.size
    e_real = costs.size
    if tails.shape != (e_real,) or heads.shape != (e_real,):
        raise ShapeError("arc arrays must have equal length")
    masses = np.concatenate([supplies, demands])
    if not np.all(np.isfinite(masses)):
        raise MKLabError("supplies and demands must be finite")
    if np.any(masses < 0):
        raise MKLabError("negative supply or demand")
    if not np.all(np.isfinite(costs)):
        raise MKLabError("arc costs must be finite (forbidden pairs are deleted, not priced)")

    root = m + n
    penalty = None
    if 0 < e_real <= root:
        penalty = _penalty(costs)
        tree = _start_tree(supplies, demands, tails, heads, costs, np.arange(e_real), penalty)
        if _strongly_feasible(tree):
            # one pricing round over the arcs out of the tree, by the
            # expression and the test of the block scans in _pivot: when no
            # reduced cost is below -TOL, the tree is optimal
            parent, via, up, depth, pot, flow, root_excess = tree
            pi, basic_arc = np.array(pot), np.array(via)
            reduced = costs - pi[tails]
            reduced += pi[m:][heads]
            reduced[basic_arc[basic_arc >= 0]] = np.inf
            if reduced.min() >= -tol:
                return _finish(e_real, basic_arc, np.array(flow), root_excess,
                               pi[:m].copy(), -pi[m:], 1, 0, e_real, 0)
            # the pivots start from this tree, its component roots without flow
            flow = [f if a >= 0 else 0.0 for a, f in zip(via, flow)]
            return _pivot(supplies, demands, tails, heads, costs, penalty,
                          (parent, via, up, depth, pot, flow, root_excess), 0)
    matched, integral = _matched_pairs(supplies, demands, tails, heads, costs)
    proof_rounds = 0
    if integral and matched.size == m == n:
        proof = _label_correcting(tails, heads, costs, matched)
        if proof is not None:
            phi, psi, rounds = proof
            # every node is matched, and each pair balances exactly
            return _finish(e_real, matched, supplies[tails[matched]], 0.0, phi, psi,
                           rounds, 0, e_real * rounds, 0)
        proof_rounds = _PROOF_ROUNDS
    if penalty is None:
        penalty = _penalty(costs)
    # the star with the matched pairs hung in
    start = _start_tree(supplies, demands, tails, heads, costs, matched, penalty)
    return _pivot(supplies, demands, tails, heads, costs, penalty, start, proof_rounds)


def _pivot(supplies, demands, tails, heads, costs, penalty, start,
           proof_rounds) -> BipartiteFlow:
    """Pivot from ``start``, a start tree as ``_start_tree`` gives it, to an
    optimal basis, and finish the solve there.

    ``proof_rounds`` are the rounds of a proof pass that gave up, counted
    as iterations that priced every arc.
    """
    tol, max_iterations = TOL, MAX_ITERATIONS
    m, n = supplies.size, demands.size
    root, e_real = m + n, costs.size

    # The candidate mask, before the pricing arrays exist, so that the
    # scratch grids of its bounds do not raise the solve's peak memory.
    tiered = e_real > _TIER_RATIO * _TIER_K * root
    if tiered:
        candidate = _tier_bounds(m, n, tails, heads, costs)

    # Arcs are priced in input order, from their tails, their heads' node
    # ids and a copy of their costs that is +inf on the real arcs in the
    # basis, so that no scan enters one.  Artificial arc e_real + v joins
    # node v to the root; artificial arcs are never priced and live only
    # in the tree.
    head_node, priced_cost = heads + m, costs.copy()

    # The tree, per node and the root last: up[v] says that the arc to the
    # parent points from v to it, and parent_arc (its id), arc_cost and
    # flow belong to that arc; children[v] is a dict used as an ordered set.
    parent, via, up, depth, pot, flow, _ = start
    parent_arc, arc_cost = list(range(e_real, e_real + root)) + [-1], [penalty] * root + [0.0]
    parent, up, depth = parent + [-1], up + [False], depth + [0]
    pot, flow = pot + [0.0], flow + [0.0]
    basic_arc = np.array(via)
    real = basic_arc >= 0
    children: list[dict] = [{} for _ in range(root)]
    children.append(dict.fromkeys(np.flatnonzero(~real).tolist()))
    if real.any():
        nodes = np.flatnonzero(real)
        tree_arc = basic_arc[nodes]
        priced_cost[tree_arc] = np.inf
        for v, a, c in zip(nodes.tolist(), tree_arc.tolist(), costs[tree_arc].tolist()):
            parent_arc[v], arc_cost[v] = a, c
            children[parent[v]][v] = None
    pi = np.array(pot)

    def blocks_of(cost, tail, head) -> list:
        """The pricing blocks over these arrays: (offset, cost, tail, head) views."""
        size = cost.size
        step = max(1, min(-(-size // _BLOCKS), math.ceil(_BLOCK_ROOT * math.sqrt(size))))
        return [(lo, cost[lo:lo + step], tail[lo:lo + step], head[lo:lo + step])
                for lo in range(0, size, step)]

    def price(blocks, first) -> tuple:
        """Scan ``blocks`` from block ``first`` on, round to the one before
        it, and stop at the first block with a reduced cost below -TOL.
        Returns the offset of its least arc in the blocks' arrays (-1 when
        no block has one), the block to scan first next time, and the arcs
        priced."""
        priced = 0
        for b in range(len(blocks)):
            at = (first + b) % len(blocks)
            lo, cost_b, tail_b, head_b = blocks[at]
            priced += cost_b.size
            reduced = pi.take(tail_b)
            np.subtract(cost_b, reduced, out=reduced)
            reduced += pi.take(head_b)
            k = int(reduced.argmin())
            if reduced[k] < -tol:
                return lo + k, (at + 1) % len(blocks), priced
        return -1, first, priced

    blocks, next_block = blocks_of(priced_cost, tails, head_node), 0
    # The candidates' arcs in order, as a list that a leaving arc is
    # looked up in, with a copy of their costs that is +inf on the basic
    # ones.  Once a full scan finds an entering arc, the tier is dropped.
    tier, tier_block = [], 0
    if tiered:
        tier_arcs = np.flatnonzero(candidate)
        del candidate
        tier_cost = priced_cost[tier_arcs]
        tier = blocks_of(tier_cost, tails[tier_arcs], head_node[tier_arcs])
        tier_arcs = tier_arcs.tolist()
    # a proof pass that hit its cap priced every arc in each of its rounds
    iterations, arcs_priced = proof_rounds, proof_rounds * e_real
    pivots = degenerate_pivots = 0

    while True:
        if iterations >= max_iterations:
            raise IterationLimitError(f"network simplex exceeded {max_iterations} iterations")
        iterations += 1
        found = -1
        if tier:
            found, tier_block, priced = price(tier, tier_block)
            arcs_priced += priced
        if found >= 0:
            entering = tier_arcs[found]
            tier_cost[found] = np.inf
        else:
            entering, next_block, priced = price(blocks, next_block)
            arcs_priced += priced
            if entering < 0:
                break
            # a negative arc outside the tier: all arcs are priced from now on
            tier = []

        # Cycle created by the entering arc, oriented along it: from the
        # apex down the tree path to its tail, then the entering arc, then
        # from its head up to the apex.  Each side is the parent arcs of
        # the nodes from the entering arc's end up to the apex.  The
        # leaving arc is the last blocking arc met along the cycle's
        # orientation from the apex, which keeps the tree strongly
        # feasible: the first least backward arc (pointing up) of the tail
        # side, or the last least backward arc (pointing down) of the head
        # side, which wins a tie.
        tail_e = int(tails[entering])
        head_e = int(head_node[entering])
        x, y = tail_e, head_e
        theta = theta_head = math.inf
        cut = cut_head = -1
        while x != y:
            if depth[x] >= depth[y]:
                if up[x] and flow[x] < theta:
                    theta, cut = flow[x], x
                x = parent[x]
            else:
                if not up[y] and flow[y] <= theta_head:
                    theta_head, cut_head = flow[y], y
                y = parent[y]
        cut_on_tail = theta_head > theta
        if not cut_on_tail:
            theta, cut = theta_head, cut_head
        if cut < 0:
            raise UnboundedError("all-forward cycle in a balanced problem")  # pragma: no cover

        if theta:
            # walk each side again up to the apex x; an artificial arc on
            # the cycle joins a root apex to a side's top node
            for v, push in ((tail_e, -theta), (head_e, theta)):
                while v != x:
                    flow[v] += push if up[v] else -push
                    v = parent[v]
        else:
            degenerate_pivots += 1
        leaving = parent_arc[cut]
        cost_e = float(priced_cost[entering])
        priced_cost[entering] = np.inf
        if leaving < e_real:
            priced_cost[leaving] = arc_cost[cut]
            if tier:
                place = bisect_left(tier_arcs, leaving)
                if place < len(tier_arcs) and tier_arcs[place] == leaving:
                    tier_cost[place] = arc_cost[cut]

        # Removing the leaving arc cuts off the subtree under ``cut``; the
        # entering arc re-hangs it from its endpoint on the cut side.  On
        # the stem from there up to ``cut`` each node's parent arc becomes
        # the arc below it, turned over.
        top, anchor = (tail_e, head_e) if cut_on_tail else (head_e, tail_e)
        w, link = top, (anchor, entering, cut_on_tail, cost_e, theta)
        while True:
            u = parent[w]
            del children[u][w]
            children[link[0]][w] = None
            turned = (w, parent_arc[w], not up[w], arc_cost[w], flow[w])
            parent[w], parent_arc[w], up[w], arc_cost[w], flow[w] = link
            if w == cut:
                break
            w, link = u, turned
        # a tree arc w -> u has pi_w - pi_u = cost; u -> w has pi_u - pi_w = cost
        stack = [top]
        while stack:
            w = stack.pop()
            u = parent[w]
            depth[w] = depth[u] + 1
            pi[w] = pot[w] = arc_cost[w] + pot[u] if up[w] else pot[u] - arc_cost[w]
            stack.extend(children[w])
        pivots += 1

    # Recompute the basic flows exactly from the final tree by pushing
    # node excess toward the root, deepest nodes first.
    basic, root_excess = _push_excess(supplies, demands, parent, up, depth)
    basic_arc = np.array(parent_arc[:root])
    basic_arc[basic_arc >= e_real] = -1
    return _finish(e_real, basic_arc, np.array(basic), root_excess, pi[:m].copy(), -pi[m:m + n],
                   iterations, pivots, arcs_priced, degenerate_pivots)
