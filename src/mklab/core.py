"""Finite-space transport data model and plan algebra.

Marginals, extended-real cost matrices, transport plans, and dual
potentials over finite spaces, plus the operations every solver and
diagnostic builds on: the transport cost functional, the integral of a
potential sum against a plan, convex mixtures of plans, and the
absolute-continuity preorder on plans.

Extended-real convention: cost entries live in [0, inf] and potentials
in [-inf, inf), with IEEE infinities as the explicit non-finite flags
(``np.isfinite`` is the tag check; a large finite sentinel is never
used).  Every reduction guards the ``0 * inf`` case through masks, so a
non-finite value never reaches plain accumulation arithmetic and never
enters an LP tableau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

#: Dense desk-scale cap; larger instances are rejected at construction.
MAX_SIDE = 2000

#: Construction-time tolerance on probability mass (user input is strict).
CONSTRUCTION_TOL = 1e-12

#: Solver-interface tolerance on plan marginals (accumulated float error).
MARGINAL_TOL = 1e-9

#: Slack allowed on the weak-duality sign of a reported gap.
WEAK_DUALITY_TOL = 1e-7


class MKLabError(Exception):
    """Base class for all package errors."""


class ShapeError(MKLabError):
    """Operands have incompatible dimensions."""


class InvariantError(MKLabError):
    """A construction-time invariant is violated."""


class InfeasibleError(MKLabError):
    """No feasible point exists for the requested program."""


class IterationLimitError(MKLabError):
    """The pivot budget was exhausted before reaching optimality."""


class UnboundedError(MKLabError):
    """The program is unbounded.

    The programs assembled in this package are all bounded whenever they
    are feasible, so reaching this is an internal error, not a user one.
    """


class _Fresh:
    """An array that a builder in this package made for one object and hands over.

    The constructors below copy what they are given, so that no caller
    keeps a writeable handle on an object's data.  Given a ``_Fresh``
    instead, they take its array as it is and make it read-only; it
    must be a writeable float64 array that owns its data, so a view,
    or an array already handed over, is refused.
    """

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray) -> None:
        self.array = array


def _readonly(values) -> np.ndarray:
    if isinstance(values, _Fresh):
        arr = values.array
        if arr.dtype != np.float64 or not (arr.flags.owndata and arr.flags.writeable):
            raise InvariantError("only a fresh, writeable float64 array can be handed over")
    else:
        arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _require_matrix(arr: np.ndarray, what: str) -> None:
    if arr.ndim != 2:
        raise ShapeError(f"{what} must be a matrix, got ndim={arr.ndim}")
    if arr.shape[0] > MAX_SIDE or arr.shape[1] > MAX_SIDE:
        raise InvariantError(
            f"{what} of shape {arr.shape} exceeds the {MAX_SIDE}x{MAX_SIDE} cap"
        )


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")


@dataclass(frozen=True, eq=False)
class Marginal:
    """A probability measure on a finite space.

    Weights are nonnegative and sum to one within ``CONSTRUCTION_TOL``;
    individual points may carry zero mass.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = _readonly(self.weights)
        if w.ndim != 1 or w.size < 1:
            raise ShapeError("marginal weights must be a nonempty vector")
        if w.size > MAX_SIDE:
            raise InvariantError(f"marginal of size {w.size} exceeds the {MAX_SIDE} cap")
        if not np.all(np.isfinite(w)):
            raise InvariantError("marginal weights must be finite")
        if np.any(w < 0):
            raise InvariantError("marginal weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > CONSTRUCTION_TOL:
            raise InvariantError(
                f"marginal mass {float(w.sum())!r} is not 1 within {CONSTRUCTION_TOL}")
        object.__setattr__(self, "weights", w)

    @property
    def size(self) -> int:
        return int(self.weights.size)


@dataclass(frozen=True, eq=False)
class CostMatrix:
    """An extended-real cost over the product of two finite spaces.

    Entries are finite nonnegative reals or ``+inf``; infinite entries
    mark forbidden pairs and are carried as true IEEE infinities so they
    can be masked out exactly (solvers treat them as deleted variables,
    never as large costs).
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        ent = _readonly(self.entries)
        _require_matrix(ent, "cost matrix")
        if not np.all(ent >= 0):  # NaN, -inf and negative cells all fail this test
            if np.any(np.isnan(ent) | np.isneginf(ent)):
                raise InvariantError("cost entries must be in [0, inf]")
            raise InvariantError("finite cost entries must be nonnegative")
        object.__setattr__(self, "entries", ent)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape  # type: ignore[return-value]

    @property
    def finite_mask(self) -> np.ndarray:
        return np.isfinite(self.entries)

    @cached_property
    def finite_arcs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, columns, costs) of the finite cells in row-major order, read-only.

        Computed on the first read and kept, so every solve on this cost
        shares one scan of the entries.  When every cell is finite, the
        rows and columns are the whole grid and the costs the entries.
        """
        m, n = self.shape
        finite = self.finite_mask
        if finite.all():
            arcs = np.repeat(np.arange(m), n), np.tile(np.arange(n), m), self.entries.ravel()
        else:
            flat = np.flatnonzero(finite)
            rows = flat // n
            cols = rows * n
            arcs = rows, np.subtract(flat, cols, out=cols), self.entries.ravel()[flat]
        for arr in arcs:
            arr.setflags(write=False)
        return arcs


class PlanKind(str, Enum):
    EXACT = "exact-coupling"
    SUB = "sub-coupling"


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """A nonnegative mass matrix, either an exact coupling or a sub-coupling.

    The kind records which marginal contract the plan is meant to satisfy;
    the contract itself is checked against a concrete pair of marginals by
    :func:`verify_exact_coupling` / :func:`verify_sub_coupling`.  Its sums are taken once.
    """

    mass: np.ndarray
    kind: PlanKind = PlanKind.EXACT

    def __post_init__(self) -> None:
        m = _readonly(self.mass)
        _require_matrix(m, "transport plan")
        with np.errstate(invalid="ignore"):  # inf + -inf is named by the scan below
            total = m.sum()  # finite unless some entry is not, or the sum overflows
        if not math.isfinite(total) and not np.all(np.isfinite(m)):
            raise InvariantError("plan entries must be finite")
        if np.any(m < 0):
            raise InvariantError("plan entries must be nonnegative")
        if total > 1.0 + MARGINAL_TOL:
            raise InvariantError(f"plan mass {float(total)!r} exceeds 1")
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "kind", PlanKind(self.kind))
        object.__setattr__(self, "_total", float(total))

    @property
    def shape(self) -> tuple[int, int]:
        return self.mass.shape  # type: ignore[return-value]

    def row_sums(self) -> np.ndarray:
        return self._marginal_sums[0]

    def col_sums(self) -> np.ndarray:
        return self._marginal_sums[1]

    def total_mass(self) -> float:
        return self._total

    @cached_property
    def _marginal_sums(self) -> tuple[np.ndarray, np.ndarray]:
        return _readonly(self.mass.sum(axis=1)), _readonly(self.mass.sum(axis=0))

    def support(self) -> np.ndarray:
        return self.mass > 0


def _marginal_excess(plan: TransportPlan, mu: Marginal, nu: Marginal) -> np.ndarray:
    if plan.shape != (mu.size, nu.size):
        raise ShapeError(f"plan shape {plan.shape} does not match marginals "
                         f"({mu.size}, {nu.size})")
    return np.concatenate([plan.row_sums() - mu.weights, plan.col_sums() - nu.weights])


def verify_exact_coupling(plan: TransportPlan, mu: Marginal, nu: Marginal,
                          tol: float = MARGINAL_TOL) -> None:
    """Raise unless the plan's marginals equal (mu, nu) within tol."""
    err = float(np.max(np.abs(_marginal_excess(plan, mu, nu))))
    if err > tol:
        raise InvariantError(f"not an exact coupling: marginal error {err:.3e} > {tol:.1e}")


def verify_sub_coupling(plan: TransportPlan, mu: Marginal, nu: Marginal,
                        tol: float = MARGINAL_TOL) -> None:
    """Raise unless the plan's marginals are dominated by (mu, nu) within tol."""
    exc = float(np.max(_marginal_excess(plan, mu, nu)))
    if exc > tol:
        raise InvariantError(f"not a sub-coupling: marginal excess {exc:.3e} > {tol:.1e}")


@dataclass(frozen=True, eq=False)
class PotentialPair:
    """Dual potentials over the two factor spaces.

    Values live in [-inf, inf): ``-inf`` is allowed (and absorbing under
    addition), ``+inf`` and NaN are rejected.
    """

    phi: np.ndarray
    psi: np.ndarray

    def __post_init__(self) -> None:
        phi = _readonly(self.phi)
        psi = _readonly(self.psi)
        for name, vec in (("phi", phi), ("psi", psi)):
            if vec.ndim != 1 or vec.size < 1:
                raise ShapeError(f"{name} must be a nonempty vector")
            if np.any(np.isnan(vec)) or np.any(np.isposinf(vec)):
                raise InvariantError(f"{name} values must lie in [-inf, inf)")
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "psi", psi)

    @property
    def shape(self) -> tuple[int, int]:
        return (int(self.phi.size), int(self.psi.size))

    def oplus(self) -> np.ndarray:
        """The matrix phi[x] + psi[y]; -inf absorbs."""
        return np.add.outer(self.phi, self.psi)

    def max_violation(self, cost: CostMatrix) -> float:
        """max over finite-cost cells of phi + psi - c (feasible iff <= 0).

        Infinite-cost cells impose no constraint; a pair with some -inf
        coordinate is feasible on the corresponding rows/columns for free.
        """
        if cost.shape != self.shape:
            raise ShapeError(f"potentials {self.shape} vs cost {cost.shape}")
        fin = cost.finite_mask
        if not fin.any():
            return -math.inf
        gap = self.oplus()[fin] - cost.entries[fin]
        return float(np.max(gap))


def gauge_normalized(pair: PotentialPair, mu: Marginal) -> PotentialPair:
    """Shift (phi, psi) by the constant that zeroes the mu-average of phi.

    The dual objective is invariant under (phi + t, psi - t); fixing
    sum(phi * mu) = 0 makes solver outputs reproducible.
    """
    if pair.phi.size != mu.size:
        raise ShapeError("phi length does not match mu")
    pos = mu.weights > 0
    if not np.all(np.isfinite(pair.phi[pos])):
        raise InvariantError("cannot gauge-normalize a pair with -inf at positive mass")
    shift = float(np.dot(pair.phi[pos], mu.weights[pos]))
    return PotentialPair(pair.phi - shift, pair.psi + shift)


@dataclass(frozen=True)
class SolverStats:
    iterations: int
    pivots: int
    wall_ms: float


@dataclass(frozen=True, eq=False)
class DualityReport:
    """Bundle of solver output: values, optional plan/potentials, stats; gap derived."""

    primal_value: float
    dual_value: float
    optimal_plan: Optional[TransportPlan]
    optimal_potentials: Optional[PotentialPair]
    stats: SolverStats

    def __post_init__(self) -> None:
        if math.isfinite(self.primal_value) and math.isfinite(self.dual_value):
            if self.gap < -WEAK_DUALITY_TOL:
                raise InvariantError(
                    f"weak duality violated: gap {self.gap:.3e} < -{WEAK_DUALITY_TOL:.1e}")

    @property
    def gap(self) -> float:
        """primal_value - dual_value."""
        return self.primal_value - self.dual_value


# ---------------------------------------------------------------------------
# plan algebra


def transport_cost(cost: CostMatrix, plan: TransportPlan) -> float:
    """Total cost of a plan: sum of c * mass with the 0 * inf = 0 convention.

    Returns +inf exactly when some cell carries positive mass at infinite
    cost.
    """
    _require_same_shape(cost.entries, plan.mass)
    rows, cols, costs = cost.finite_arcs
    carried = plan.mass[rows, cols]
    # the mass is nonnegative, so some lies on an infinite cell iff the
    # plan has more nonzero cells than its finite cells carry
    if np.count_nonzero(plan.mass > 0) > np.count_nonzero(carried):
        return math.inf
    return float(np.sum(costs * carried))


def potential_plan_integral(pair: PotentialPair, plan: TransportPlan) -> float:
    """Integral of phi + psi against the plan.

    Returns -inf when a positive-mass cell touches a -inf potential value.
    For finite potentials and an exact coupling this equals
    ``sum(phi * mu) + sum(psi * nu)`` whatever the coupling, which is the
    plan-independence this value is used to witness.
    """
    if pair.shape != plan.shape:
        raise ShapeError(f"potentials {pair.shape} vs plan {plan.shape}")
    support = plan.support()
    neg = np.isneginf(pair.phi)[:, None] | np.isneginf(pair.psi)[None, :]
    if np.any(neg & support):
        return -math.inf
    vals = np.add.outer(pair.phi, pair.psi)
    return float(np.sum(vals[support] * plan.mass[support]))


def mixture_plan(plans: Sequence[TransportPlan], weights: Sequence[float]) -> TransportPlan:
    """Convex combination of exact couplings with the given weights.

    Marginals are preserved; the support of the mixture is the union of
    the supports of the plans with positive weight.
    """
    if len(plans) == 0:
        raise InvariantError("mixture of an empty plan list")
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size != len(plans):
        raise ShapeError("one weight per plan required")
    if np.any(w < 0):
        raise InvariantError("mixture weights must be nonnegative")
    if abs(float(w.sum()) - 1.0) > CONSTRUCTION_TOL:
        raise InvariantError(f"mixture weights sum to {float(w.sum())!r}, not 1")
    shape = plans[0].shape
    for p in plans:
        if p.kind is not PlanKind.EXACT:
            raise InvariantError("mixtures are defined for exact couplings only")
        if p.shape != shape:
            raise ShapeError("mixture over plans of different shapes")
    mass = np.zeros(shape)
    for p, wk in zip(plans, w):
        if wk > 0:
            mass += wk * p.mass
    return TransportPlan(_Fresh(mass), PlanKind.EXACT)


class DominationResult(NamedTuple):
    dominates: bool
    density_bound: Optional[float]


def plan_dominates(pi1: TransportPlan, pi2: TransportPlan) -> DominationResult:
    """Whether supp(pi1) is contained in supp(pi2), with the density bound.

    When true, the second component is max over supp(pi1) of the ratio
    pi1 / pi2 (the sup-norm of the density of pi1 with respect to pi2).
    """
    _require_same_shape(pi1.mass, pi2.mass)
    s1 = pi1.support()
    if not np.all(pi2.mass[s1] > 0):
        return DominationResult(False, None)
    if not s1.any():
        return DominationResult(True, 0.0)
    bound = float(np.max(pi1.mass[s1] / pi2.mass[s1]))
    return DominationResult(True, bound)
