"""Cyclic-group rotation models: shift-graph costs and level walks.

The finite model replaces the circle by Z_n and an irrational angle by
a shift s coprime to n: point i stands for i/n and one rotation step
sends i to i + s (mod n), so the whole space is a single orbit.  The
lower half {i : 2i < n} plays the role of [0, 1/2): walking the orbit
gains a level on the lower half and loses one on the upper half, and
the running level of that walk prices the k-step shift graphs.

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
    mixture_plan,
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
    idx = np.arange(inst.n)
    return np.where(2 * idx < inst.n, 1, -1).astype(np.int64)


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


def birkhoff_levels(inst: RotationInstance, k_max: int) -> np.ndarray:
    """Level table of shape (k_max + 1, n): row k holds level(i, k) for all i."""
    if k_max < 0:
        raise InvariantError("step count must be nonnegative")
    g = step_signs(inst)
    idx = np.arange(inst.n)
    out = np.empty((k_max + 1, inst.n), dtype=np.int64)
    out[0] = 1
    for k in range(k_max):
        out[k + 1] = out[k] + g[(idx + k * inst.shift) % inst.n]
    return out


def ap_cost(inst: RotationInstance) -> CostMatrix:
    """The two-permutation cost: 1 on the diagonal, 2 / 0 on the shift graph.

    The one-step graph costs 2 where the source sits in the lower half
    and 0 where it sits in the upper half; everything off the two graphs
    is forbidden.  Requires even n so the halves carry equal mass.
    """
    if inst.n % 2:
        raise InvariantError("the two-permutation cost needs an even grid")
    n, s = inst.n, inst.shift
    entries = np.full((n, n), math.inf)
    idx = np.arange(n)
    entries[idx, idx] = 1.0
    entries[idx, (idx + s) % n] = np.where(2 * idx < n, 2.0, 0.0)
    return CostMatrix(entries)


def level_matrix(inst: RotationInstance, k_max: int) -> np.ndarray:
    """Extended-real matrix carrying level(i, k) at cell (i, i + k*shift).

    Finite exactly on the union of the k-step shift graphs for
    0 <= k <= k_max; requires k_max < n so distinct k never collide on a
    cell (the shift is coprime, so i -> i + k*shift are distinct
    permutations for k = 0 .. n-1).
    """
    if not 0 <= k_max < inst.n:
        raise InvariantError(f"k_max must lie in [0, {inst.n - 1}]")
    n, s = inst.n, inst.shift
    levels = birkhoff_levels(inst, k_max)
    out = np.full((n, n), math.inf)
    idx = np.arange(n)
    for k in range(k_max + 1):
        out[idx, (idx + k * s) % n] = levels[k]
    return out


def ex33_cost(inst: RotationInstance, k_max: int) -> CostMatrix:
    """Clamped level matrix: cost = max(level, 0) on the shift graphs.

    Cells whose level is <= 0 become free; off the graphs the cost is
    infinite.
    """
    lm = level_matrix(inst, k_max)
    fin = np.isfinite(lm)
    entries = np.where(fin, np.maximum(lm, 0.0), math.inf)
    return CostMatrix(entries)


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
    levels = birkhoff_levels(inst, k_max)  # rejects a negative k_max
    for k in range(1, k_max + 1):
        if levels[k, i] <= 0:
            return k
    return None


def shift_graph_plan(inst: RotationInstance, k: int) -> TransportPlan:
    """The uniform coupling supported on the k-step shift graph."""
    if not 0 <= k < inst.n:
        raise InvariantError(f"k must lie in [0, {inst.n - 1}]")
    n, s = inst.n, inst.shift
    mass = np.zeros((n, n))
    idx = np.arange(n)
    mass[idx, (idx + k * s) % n] = 1.0 / n
    return TransportPlan(mass, PlanKind.EXACT)


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
    n = inst.n
    if n % 2:
        raise InvariantError(f"odd n={n}: the step signs sum to 1, no primitive exists")
    orbit = (np.arange(n) * inst.shift) % n
    primitive = np.empty(n)
    primitive[orbit] = np.concatenate(([0], np.cumsum(step_signs(inst)[orbit])[:-1]))
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
    raw = np.empty(k_max + 1)
    for k in range(k_max + 1):
        level_norm = float(np.mean(np.abs(levels[k])))
        raw[k] = 2.0 ** (-k) / max(1.0, level_norm)
    return raw / raw.sum()


def graph_mixture_plan(inst: RotationInstance, k_max: int) -> TransportPlan:
    """The weighted mixture of shift-graph plans for k = 0 .. k_max."""
    levels = birkhoff_levels(inst, k_max)
    weights = mixture_weights(inst, k_max, levels)
    plans = [shift_graph_plan(inst, k) for k in range(k_max + 1)]
    return mixture_plan(plans, weights)


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
