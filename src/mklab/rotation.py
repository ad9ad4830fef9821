"""Cyclic-group rotation models: shift-graph costs and level walks.

The finite model replaces the circle by Z_n and an irrational angle by
a shift s coprime to n: point i stands for i/n and one rotation step
sends i to i + s (mod n), so the whole space is a single orbit.  The
lower half {i : 2i < n} plays the role of [0, 1/2): walking the orbit
gains a level on the lower half and loses one on the upper half.  Every
level is read off one running sum of the signs along the orbit of 0,
and prices the k-step shift graphs: ``ap`` is the one-step level cost
and ``ex33`` its clamp over k_max steps.

Everything here is exact integer arithmetic; the shift defaults to the
nearest coprime approximation of the golden-ratio conjugate times n,
the slowest rationally-approximable angle at a given resolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CostMatrix,
    InvariantError,
    Marginal,
    PlanKind,
    PotentialPair,
    TransportPlan,
    MAX_SIDE,
    _Fresh,
)

GOLDEN_CONJUGATE = (math.sqrt(5.0) - 1.0) / 2.0


def check_grid_size(n: int) -> None:
    """Raise unless 4 <= n <= MAX_SIDE, the sizes a rotation instance takes."""
    if n < 4:
        raise InvariantError("grid size must be at least 4")
    if n > MAX_SIDE:
        raise InvariantError(f"grid size {n} exceeds the {MAX_SIDE} cap")


@dataclass(frozen=True)
class RotationInstance:
    """Z_n with a coprime shift; the discrete stand-in for x -> x + alpha."""

    n: int
    shift: int

    def __post_init__(self) -> None:
        check_grid_size(self.n)
        if not (0 < self.shift < self.n):
            raise InvariantError("shift must lie strictly between 0 and n")
        if math.gcd(self.shift, self.n) != 1:
            raise InvariantError(f"gcd({self.shift}, {self.n}) != 1: orbit is not the whole space")


@dataclass(frozen=True)
class OrbitState:
    """A point of the product space Z_n x Z walked by :func:`skew_step`."""

    position: int
    level: int


def golden_shift(n: int) -> int:
    """The coprime shift closest to n times the golden-ratio conjugate, ties to the smaller.

    n is checked first: the search costs time and memory in proportion to n.
    """
    check_grid_size(n)
    target = GOLDEN_CONJUGATE * n
    return min((s for s in range(1, n) if math.gcd(s, n) == 1),
               key=lambda s: (abs(s - target), s))


def make_instance(n: int, shift: Optional[int] = None) -> RotationInstance:
    return RotationInstance(n=n, shift=golden_shift(n) if shift is None else shift)


def uniform_marginal(inst: RotationInstance) -> Marginal:
    return Marginal(np.full(inst.n, 1.0 / inst.n))


def step_sign(inst: RotationInstance, i: int) -> int:
    """+1 on the lower half of Z_n, -1 on the upper half."""
    if not 0 <= i < inst.n:
        raise InvariantError(f"point {i} outside Z_{inst.n}")
    return 1 if 2 * i < inst.n else -1


def step_signs(inst: RotationInstance) -> np.ndarray:
    return np.where(2 * np.arange(inst.n) < inst.n, 1, -1).astype(np.int64)


def birkhoff_level(inst: RotationInstance, i: int, k: int) -> int:
    """1 plus the k-step running sum of step signs along the orbit of i.

    Satisfies level(i, 0) = 1 and
    level(i, k+1) = level(i, k) + sign(i + k * shift).
    """
    if k < 0:
        raise InvariantError("step count must be nonnegative")
    if not 0 <= i < inst.n:
        raise InvariantError(f"point {i} outside Z_{inst.n}")
    total = 1
    for j in range(k):
        total += step_sign(inst, (i + j * inst.shift) % inst.n)
    return total


def _orbit_walk(inst: RotationInstance, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Running sums of the step signs along the orbit of 0, and each point's place on it.

    walk[t] is the sum of sign(j * shift) over j < t, for t = 0 .. steps;
    place[i] = i / shift (mod n), so level(i, k) = 1 + walk[place[i] + k] - walk[place[i]].
    """
    orbit = np.arange(steps) * inst.shift % inst.n
    walk = np.concatenate(([0], np.cumsum(step_signs(inst)[orbit])))
    return walk, np.arange(inst.n) * pow(inst.shift, -1, inst.n) % inst.n


def _graph_columns(inst: RotationInstance, k) -> np.ndarray:
    """Column (i + k * shift) mod n of every row i, for a step count k or a column of them."""
    return (np.arange(inst.n) + k * inst.shift) % inst.n


def birkhoff_levels(inst: RotationInstance, k_max: int) -> np.ndarray:
    """Level table of shape (k_max + 1, n): row k holds level(i, k) for all i."""
    if k_max < 0:
        raise InvariantError("step count must be nonnegative")
    walk, place = _orbit_walk(inst, inst.n + k_max)
    levels = walk[place + np.arange(k_max + 1)[:, None]]
    levels -= walk[place] - 1
    return levels


def ap_cost(inst: RotationInstance) -> CostMatrix:
    """The two-permutation cost, which is the one-step level cost.

    1 on the diagonal, 2 / 0 on the shift graph from the lower / upper half,
    forbidden elsewhere.  Requires even n so the halves carry equal mass.
    """
    if inst.n % 2:
        raise InvariantError("the two-permutation cost needs an even grid")
    return CostMatrix(_Fresh(level_matrix(inst, 1)))


def level_matrix(inst: RotationInstance, k_max: int) -> np.ndarray:
    """Extended-real matrix carrying level(i, k) at cell (i, i + k*shift).

    Finite exactly on the k-step shift graphs for 0 <= k <= k_max < n,
    which share no cell, as the shift is coprime.  At k_max = n - 1 the
    graphs cover every cell, and cell (i, j) holds
    1 + G(j) - G(i) + D [place(j) < place(i)], with G(i) the walk up to
    i's place on the orbit and D the sum of the signs around it.  With
    fewer graphs, whichever is the smaller set is scattered: infinity on
    the graphs past k_max of that all-finite form, or the levels into an
    all-infinite matrix.
    """
    if not 0 <= k_max < inst.n:
        raise InvariantError(f"k_max must lie in [0, {inst.n - 1}]")
    rows = np.arange(inst.n)
    if 2 * k_max >= inst.n:
        walk, place = _orbit_walk(inst, inst.n)
        primitive = walk[place].astype(float)
        out = np.add.outer(1.0 - primitive, primitive)
        if walk[inst.n]:
            out += np.greater.outer(place, place)
        out[rows, _graph_columns(inst, np.arange(k_max + 1, inst.n)[:, None])] = math.inf
        return out
    levels = birkhoff_levels(inst, k_max)
    out = np.full((inst.n, inst.n), math.inf)
    out[rows, _graph_columns(inst, np.arange(k_max + 1)[:, None])] = levels
    return out


def ex33_cost(inst: RotationInstance, k_max: int) -> CostMatrix:
    """Clamped level matrix: max(level, 0) on the shift graphs, infinite off them."""
    levels = level_matrix(inst, k_max)
    return CostMatrix(_Fresh(np.maximum(levels, 0.0, out=levels)))


def skew_step(inst: RotationInstance, state: OrbitState) -> OrbitState:
    """One step of the skew product: rotate, and move the level by the sign."""
    p = state.position % inst.n
    return OrbitState(position=(p + inst.shift) % inst.n,
                      level=state.level + step_sign(inst, p))


def first_passage(inst: RotationInstance, i: int, k_max: int) -> Optional[int]:
    """Smallest k in [1, k_max] whose level at i is <= 0, if any.

    Equivalently the first time the skew-product walk from (i, 0) dips to
    level -1 or below.
    """
    if not 0 <= i < inst.n:
        raise InvariantError(f"point {i} outside Z_{inst.n}")
    if k_max < 0:
        raise InvariantError("step count must be nonnegative")
    walk, place = _orbit_walk(inst, inst.n + k_max)
    p = place[i]
    hits = np.flatnonzero(walk[p + 1:p + k_max + 1] - walk[p] <= -1)  # level(i, k) - 1
    return int(hits[0]) + 1 if hits.size else None


def shift_graph_plan(inst: RotationInstance, *steps: int) -> TransportPlan:
    """Equal-weight mixture of the plans on the (disjoint) shift graphs of distinct step counts."""
    if not steps or len(set(steps)) < len(steps) or not all(0 <= k < inst.n for k in steps):
        raise InvariantError(f"step counts must lie in [0, {inst.n - 1}] and be distinct")
    mass = np.zeros((inst.n, inst.n))
    mass[np.arange(inst.n), _graph_columns(inst, np.array(steps)[:, None])] = \
        (1.0 / len(steps)) * (1.0 / inst.n)
    return TransportPlan(_Fresh(mass), PlanKind.EXACT)


def orbit_certificate(inst: RotationInstance) -> tuple[TransportPlan, PotentialPair]:
    """The uniform diagonal plan and potentials proving the ex33 value is 1.

    At even n the step signs sum to zero around the orbit, so
    G(j * shift) = sum of sign(t * shift) over t < j is well defined on
    Z_n and level(i, k) = 1 + G(i + k * shift) - G(i).  The pair
    (1 - G, G) then has phi + psi = level <= max(level, 0) on every
    finite cell of ``ex33_cost(inst, k_max)`` for any k_max, with
    equality on the diagonal, whose uniform plan costs 1: plan and pair
    certify each other's optimality without an LP.  At odd n the signs
    sum to 1 and no primitive exists.
    """
    if inst.n % 2:
        raise InvariantError(f"odd n={inst.n}: the step signs sum to 1, no primitive exists")
    walk, place = _orbit_walk(inst, inst.n)
    primitive = walk[place].astype(float)
    return shift_graph_plan(inst, 0), PotentialPair(1.0 - primitive, primitive)


def mixture_weights(inst: RotationInstance, k_max: int, levels: np.ndarray) -> np.ndarray:
    """Geometric weights for the mixture of shift-graph plans.

    weight[k] is proportional to 2**-k divided by the larger of 1 and
    the mean absolute level on the k-step graph; the result is
    normalized to sum 1.  Before normalization the decay condition
    weight[k] * mean|level_k| <= 2**-k holds with constant 1 by
    construction.
    """
    if levels.shape[0] < k_max + 1 or levels.shape[1] != inst.n:
        raise InvariantError("level table does not cover 0..k_max")
    level_norms = np.mean(np.abs(levels[:k_max + 1]), axis=1)
    raw = 0.5 ** np.arange(k_max + 1) / np.maximum(1.0, level_norms)
    return raw / raw.sum()


def graph_mixture_plan(inst: RotationInstance, k_max: int) -> TransportPlan:
    """The weighted mixture of shift-graph plans for k = 0 .. k_max, as one n x n array.

    The graphs are disjoint, so cell (i, i + k*shift) holds weight[k] / n.
    """
    if not 0 <= k_max < inst.n:
        raise InvariantError(f"k_max must lie in [0, {inst.n - 1}]")
    weights = mixture_weights(inst, k_max, birkhoff_levels(inst, k_max))[:, None]
    mass = np.zeros((inst.n, inst.n))
    mass[np.arange(inst.n), _graph_columns(inst, np.arange(k_max + 1)[:, None])] = \
        weights * (1.0 / inst.n)
    return TransportPlan(_Fresh(mass), PlanKind.EXACT)


def ap_coupling_space(inst: RotationInstance) -> tuple[int, int]:
    """Rank and affine dimension of the coupling system on the two graphs.

    Unknowns are the diagonal masses and the shift-graph masses; the
    constraints are the row and column sums of the uniform marginals.
    Rank 2n - 1 means the affine solution space is the one-dimensional
    segment between the two pure graph plans.
    """
    n, s = inst.n, inst.shift
    a = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    a[idx, idx] = 1.0
    a[idx, n + idx] = 1.0
    a[n + idx, idx] = 1.0
    a[n + idx, n + (idx - s) % n] = 1.0
    rank = int(np.linalg.matrix_rank(a))
    return rank, 2 * n - rank
