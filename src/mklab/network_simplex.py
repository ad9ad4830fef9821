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
gathers from.  Numpy otherwise handles whole arrays: the pricing scans,
the matched start and the final flow scatter.

Pricing is block search (Kovács, *Minimum-cost flow algorithms: an
experimental evaluation*, OMS 2015): it scans blocks of arcs, resuming
where the last scan stopped, and enters the most negative reduced cost
of the first block that has one; a full round of blocks without one
proves optimality.  Arcs are scanned in a fixed scattered order, so
that the many tied costs of a structured instance are not all met in
row-major order.  Blocks start coarse: a pivot costs far more in Python
than a numpy scan, and while artificial flow remains or entering arcs
are rare, the best arc of a large block saves pivots.  Once no
artificial arc carries flow and a scan finds 1% of its block below
zero, the solve turns for good to fine blocks of about 2 sqrt(E) arcs,
whose scans cost little next to the pivot they find.

The start tree is the star on the root, except that sources and sinks
of equal positive mass begin matched: walking the arcs whose two ends
carry the same positive mass from the cheapest, each arc whose two ends
are unmatched hangs its sink below its source with that whole mass, and
the source's artificial arc stays in the tree with zero flow, pointing
up.  In an assignment problem (uniform marginals, as in the rotation
models) most nodes begin matched, and most of the pivots that the plain
star spends pushing artificial flow out are saved.  Without equal masses the start
is the plain star.  Only equal masses are matched: hanging sinks of
any mass below cheap sources makes each re-hang larger, which costs
more than the pivots it saves.  The walk sorts the arcs by cost,
stably: when every cost is an integer in the int16 range, as in the
rotation models, it sorts an exact int16 key, which numpy radix-sorts
into the same order as the float sort it otherwise runs.
"""

from __future__ import annotations

import math
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

#: Pivoting iterations allowed before IterationLimitError.
MAX_ITERATIONS = 10 ** 6

#: Coarse blocks hold min(ceil(E / 8), ceil(34 sqrt(E))) of the E real
#: arcs, fine ones max(256, ceil(2 sqrt(E))).  Pricing turns fine when a
#: fine block is at most a quarter of a coarse one, no artificial tree arc
#: carries more than TOL, and a successful scan finds at least 1% of its
#: block below -TOL.
_COARSE_BLOCKS, _COARSE_ROOT = 8, 34
_FINE_MIN, _FINE_ROOT = 256, 2
_FINE_RATIO, _FINE_SHARE = 4, 0.01

#: The matched start walks the cost-sorted arcs this many at a time.
_MATCH_CHUNK = 4096

#: The real arcs are gathered into scattered order this many slots at a time.
_SCATTER_BLOCK = 8192

#: Start costs that are all integers in this range sort by an int16 key.
_INT16 = np.iinfo(np.int16)


@dataclass(frozen=True)
class BipartiteFlow:
    flow: np.ndarray          # one value per real arc, in input order
    source_potentials: np.ndarray
    sink_potentials: np.ndarray
    iterations: int
    pivots: int
    arcs_priced: int          # reduced costs computed, summed over the blocks scanned
    degenerate_pivots: int    # pivots that moved no flow (theta = 0)


def _scattered_stride(n_arcs: int) -> int:
    """The first integer s >= 0.618 n_arcs coprime to n_arcs.

    Slot k of the arc visiting order holds input arc k * s mod n_arcs, so
    input arc a sits in slot a * s^-1 mod n_arcs.
    """
    stride = max(1, math.ceil(0.618 * n_arcs))
    while math.gcd(stride, n_arcs) != 1:
        stride += 1
    return stride


def _blocks(g_cost, g_tail, g_head, e_real: int, step: int) -> list[tuple]:
    """(first arc, costs, tails, heads) of each block of ``step`` real arcs, as views."""
    bounds = [(lo, min(lo + step, e_real)) for lo in range(0, e_real, step)]
    return [(lo, g_cost[lo:hi], g_tail[lo:hi], g_head[lo:hi]) for lo, hi in bounds]


def _cost_order(costs) -> np.ndarray:
    """Stable argsort of the costs, by an exact int16 key when they are all
    integers in its range: numpy radix-sorts such a key, into the same
    permutation as the float sort."""
    if costs.size and _INT16.min <= costs.min() and costs.max() <= _INT16.max:
        key = costs.astype(np.int16)
        if (key == costs).all():
            return np.argsort(key, kind="stable")
    return np.argsort(costs, kind="stable")


def _matched_pairs(supplies, demands, tails, heads, costs) -> list[tuple[int, int, int]]:
    """Greedy (arc, source, sink) pairs of equal positive mass, cheapest arcs first.

    Each arc whose ends carry the same positive mass and are both still
    unmatched joins them; ties in cost keep the input order.
    """
    value = supplies[:1]
    if value.size and value[0] > 0 and (supplies == value).all() and (demands == value).all():
        # one mass everywhere: every arc is a candidate
        by_cost = _cost_order(costs)
    elif set(supplies[supplies > 0].tolist()).isdisjoint(demands.tolist()):
        return []
    else:
        mass = supplies[tails]
        candidates = np.flatnonzero((mass > 0) & (mass == demands[heads]))
        by_cost = candidates[_cost_order(costs[candidates])]
    # the arrays screen a chunk at once; their list copies answer the
    # per-arc checks inside it
    src_free, snk_free = np.ones(supplies.size, bool), np.ones(demands.size, bool)
    src_open, snk_open = src_free.tolist(), snk_free.tolist()
    pairs: list[tuple[int, int, int]] = []
    for lo in range(0, by_cost.size, _MATCH_CHUNK):
        arcs = by_cost[lo:lo + _MATCH_CHUNK]
        t, h = tails[arcs], heads[arcs]
        keep = src_free[t] & snk_free[h]
        for a, i, j in zip(arcs[keep].tolist(), t[keep].tolist(), h[keep].tolist()):
            if src_open[i] and snk_open[j]:
                src_open[i] = snk_open[j] = src_free[i] = snk_free[j] = False
                pairs.append((a, i, j))
    return pairs


def solve_bipartite(supplies, demands, tails, heads, costs) -> BipartiteFlow:
    """Minimize sum(cost * flow) shipping supplies to demands over the arcs.

    ``tails`` index sources, ``heads`` index sinks.  On return the
    potentials (u, v) satisfy u[i] + v[j] <= cost + TOL on every arc,
    with equality on arcs carrying flow (the returned basis); more than
    TOL of mass left unshipped at optimality raises InfeasibleError.
    More than MAX_ITERATIONS iterations raise IterationLimitError.
    """
    tol, max_iterations = TOL, MAX_ITERATIONS
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

    n_arcs = e_real + m + n
    g_cost = np.empty(n_arcs)
    # the real slots hold |cost| until the gather below fills them
    with np.errstate(over="ignore"):
        cost_sum = float(np.sum(np.abs(costs, out=g_cost[:e_real])))
    penalty = 3.0 * (1.0 + cost_sum)
    # a potential is at most 4/3 of the penalty in size and a reduced cost
    # at most 3 times it, so all stay finite when 4 * penalty does
    if not math.isfinite(4.0 * penalty):
        raise InvariantError(
            f"arc costs sum to {cost_sum:.6g}: the artificial-arc penalty 3 * (1 + sum |c|) "
            "overflows float64 in the engine's potentials")

    # Real arcs are stored in scattered order.  Artificial arc e_real + v
    # joins node v to the root, pointing down only to a sink with demand,
    # so that every artificial arc without flow points up.  A real arc in
    # the basis is priced at +inf, so that no scan enters it; artificial
    # arcs are never priced.
    root = m + n
    stride = _scattered_stride(e_real)
    g_tail, g_head = np.empty(n_arcs, dtype=int), np.empty(n_arcs, dtype=int)
    # a block of slots at a time, so that no scratch array grows with the arcs
    for lo in range(0, e_real, _SCATTER_BLOCK):
        hi = min(lo + _SCATTER_BLOCK, e_real)
        ids = np.arange(lo, hi, dtype=np.int64)
        ids *= stride
        ids %= e_real
        g_tail[lo:hi], g_head[lo:hi], g_cost[lo:hi] = tails[ids], heads[ids], costs[ids]
    g_head[:e_real] += m
    sink_down = demands > 0
    sinks = np.arange(m, root)
    g_tail[e_real:e_real + m], g_head[e_real:e_real + m] = np.arange(m), root
    g_tail[e_real + m:] = np.where(sink_down, root, sinks)
    g_head[e_real + m:] = np.where(sink_down, sinks, root)
    g_cost[e_real:] = penalty

    # The tree, per node: up[v] says that the arc to the parent points from
    # v to it, and arc_cost and flow belong to that arc; children[v] is a
    # dict used as an ordered set.  The tree starts as the star on the root.
    up = [True] * m + (~sink_down).tolist() + [False]
    parent = [root] * (m + n) + [-1]
    parent_arc = list(range(e_real, n_arcs)) + [-1]
    arc_cost = [penalty] * (m + n) + [0.0]
    flow = masses.tolist() + [0.0]
    depth = [1] * (m + n) + [0]
    children: list[dict] = [{} for _ in range(m + n)] + [dict.fromkeys(range(m + n))]
    pi = np.array([penalty if up[v] else -penalty for v in range(m + n)] + [0.0])
    # Matched start: sink j hangs below source i by the real arc in slot
    # k, which carries their common mass down; the artificial arc of i
    # keeps zero flow pointing up, and that of j leaves the tree.
    matched = _matched_pairs(supplies, demands, tails, heads, costs)
    if matched:
        arcs, srcs, snks = np.array(matched).T
        slots = arcs * pow(stride, -1, e_real) % e_real
        pair_cost = costs[arcs]
        # every matched source keeps its start potential, penalty
        pi[m + snks] = penalty - pair_cost
        g_cost[slots] = np.inf
        for k, i, v, c in zip(slots.tolist(), srcs.tolist(), (m + snks).tolist(),
                              pair_cost.tolist()):
            del children[root][v]
            children[i][v] = None
            parent[v], parent_arc[v], up[v], arc_cost[v], depth[v] = i, k, False, c, 2
            flow[v], flow[i] = flow[i], 0.0
    pot = pi.tolist()
    # artificial tree arcs (those joining the root to its children) that carry more than tol
    loaded = sum(flow[v] > tol for v in children[root])

    coarse = max(1, min(-(-e_real // _COARSE_BLOCKS), math.ceil(_COARSE_ROOT * math.sqrt(e_real))))
    fine = max(_FINE_MIN, math.ceil(_FINE_ROOT * math.sqrt(e_real)))
    refine = _FINE_RATIO * fine <= coarse
    blocks = _blocks(g_cost, g_tail, g_head, e_real, coarse)
    n_blocks = len(blocks)
    next_block = 0
    iterations = 0
    pivots = degenerate_pivots = 0
    arcs_priced = 0

    while True:
        if iterations >= max_iterations:
            raise IterationLimitError(f"network simplex exceeded {max_iterations} iterations")
        iterations += 1
        entering = -1
        for b in range(n_blocks):
            lo, cost_b, tail_b, head_b = blocks[(next_block + b) % n_blocks]
            arcs_priced += cost_b.size
            reduced = cost_b - pi[tail_b] + pi[head_b]
            k = int(reduced.argmin())
            if reduced[k] < -tol:
                entering = lo + k
                next_block = (next_block + b + 1) % n_blocks
                break
        if entering < 0:
            break
        if refine and not loaded and (
                np.count_nonzero(reduced < -tol) >= _FINE_SHARE * reduced.size):
            # resume in the fine block that holds the next coarse block's first arc
            next_block = blocks[next_block][0] // fine
            blocks = _blocks(g_cost, g_tail, g_head, e_real, fine)
            n_blocks = len(blocks)
            refine = False

        # Cycle created by the entering arc, oriented along it: from the
        # apex down the tree path to its tail, then the entering arc, then
        # from its head up to the apex.  Each side lists the nodes whose
        # parent arcs it uses, from the entering arc upward.  The leaving
        # arc is the last blocking arc met along the cycle's orientation
        # from the apex, which keeps the tree strongly feasible: the first
        # least backward arc (pointing up) of the tail side, or the last
        # least backward arc (pointing down) of the head side, which wins
        # a tie.
        tail_e = int(g_tail[entering])
        head_e = int(g_head[entering])
        x, y = tail_e, head_e
        tail_side: list[int] = []
        head_side: list[int] = []
        theta = theta_head = math.inf
        cut = cut_head = -1
        while x != y:
            if depth[x] >= depth[y]:
                tail_side.append(x)
                if up[x] and flow[x] < theta:
                    theta, cut = flow[x], x
                x = parent[x]
            else:
                head_side.append(y)
                if not up[y] and flow[y] <= theta_head:
                    theta_head, cut_head = flow[y], y
                y = parent[y]
        cut_on_tail = theta_head > theta
        if not cut_on_tail:
            theta, cut = theta_head, cut_head
        if cut < 0:
            raise UnboundedError("all-forward cycle in a balanced problem")  # pragma: no cover

        if theta:
            # an artificial arc on the cycle joins a root apex to a side's top node
            ends = [side[-1] for side in (tail_side, head_side) if side] if x == root else ()
            for v in ends:
                loaded -= flow[v] > tol
            for v in tail_side:
                flow[v] += -theta if up[v] else theta
            for v in head_side:
                flow[v] += theta if up[v] else -theta
            for v in ends:
                loaded += flow[v] > tol
        else:
            degenerate_pivots += 1
        leaving = parent_arc[cut]
        cost_e = float(g_cost[entering])
        g_cost[entering] = np.inf
        if leaving < e_real:
            g_cost[leaving] = arc_cost[cut]

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
    excess = supplies.tolist() + (-demands).tolist() + [float(np.sum(demands) - np.sum(supplies))]
    basic_flow = [0.0] * root
    for v in sorted(range(root), key=depth.__getitem__, reverse=True):
        basic_flow[v] = excess[v] if up[v] else -excess[v]
        excess[parent[v]] += excess[v]
    basic_arc, basic = np.array(parent_arc[:root], dtype=int), np.array(basic_flow)
    # written so that a NaN fails them; an arc out of the basis carries 0
    if not abs(excess[root]) <= tol:
        raise MKLabError("flow conservation failed at the root")  # pragma: no cover
    if not float(np.min(basic, initial=0.0)) >= -tol:
        raise MKLabError("negative basic flow after recomputation")  # pragma: no cover
    np.clip(basic, 0.0, None, out=basic)
    # An unshipped unit crosses two artificial arcs, up into the root and
    # down out of it, so half the artificial flow is the mass not shipped.
    artificial = basic_arc >= e_real
    if 0.5 * float(np.sum(basic[artificial])) > tol:
        raise InfeasibleError("no feasible shipment avoids the deleted pairs")

    # the basic real arcs, from their slots back to input order
    real_flow = np.zeros(e_real)
    real_flow[basic_arc[~artificial] * stride % max(e_real, 1)] = basic[~artificial]
    return BipartiteFlow(
        flow=real_flow,
        source_potentials=pi[:m].copy(),
        sink_potentials=-pi[m:m + n],
        iterations=iterations,
        pivots=pivots,
        arcs_priced=arcs_priced,
        degenerate_pivots=degenerate_pivots,
    )
