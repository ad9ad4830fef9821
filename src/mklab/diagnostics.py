"""Structural checks on solutions and optimizing sequences.

Strong monotonicity of a plan/potential pair, the attainment
certificate coupling it to the cost value, the telescoped L1 bound
along shift graphs, and the small-set mass profile that probes how much
negative potential mass an optimizing sequence pushes onto vanishing
sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    CostMatrix,
    InvariantError,
    PotentialPair,
    ShapeError,
    TransportPlan,
    potential_plan_integral,
    transport_cost,
)
from . import rotation

#: Default tolerance for LP-produced certificates.
LP_TOL = 1e-7

#: Absolute slack on each telescoped bound, for float error in the means.
BOUND_SLACK = 1e-9


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    witness: Optional[tuple[int, int]] = None
    message: str = ""


def _first_cell(bad: np.ndarray) -> Optional[tuple[int, int]]:
    """The first flagged cell in row-major order, if any."""
    if not bad.any():
        return None
    i, j = np.argwhere(bad)[0]
    return int(i), int(j)


def _check_ccm(cost: CostMatrix, plan: TransportPlan, pair: PotentialPair,
               charged: Optional[np.ndarray], tol: float) -> CheckResult:
    """Feasibility on finite cells, within ``charged`` if given; then support equality."""
    if cost.shape != plan.shape or cost.shape != pair.shape:
        raise ShapeError("cost, plan and potentials must share a shape")
    fin = cost.finite_mask
    gap = pair.oplus() - np.where(fin, cost.entries, 0.0)
    w = _first_cell((fin if charged is None else fin & charged) & (gap > tol))
    if w is not None:
        where = "cell" if charged is None else "charged cell"
        return CheckResult(False, w, f"feasibility violated at {where} {w}")
    # a -inf potential on the support fails through |gap| = inf
    w = _first_cell((plan.mass > tol) & (~fin | (np.abs(gap) > tol)))
    if w is not None:
        return CheckResult(False, w, f"support equality violated at cell {w}")
    return CheckResult(True)


def check_strong_ccm(cost: CostMatrix, plan: TransportPlan, pair: PotentialPair,
                     tol: float = LP_TOL) -> CheckResult:
    """Strong c-cyclic monotonicity of (plan, potentials) at tolerance tol.

    Passes iff phi + psi <= c + tol on every finite-cost cell (infinite
    cells are vacuous) and |phi + psi - c| <= tol on every cell carrying
    mass above tol.
    """
    return _check_ccm(cost, plan, pair, None, tol)


def check_ccm_ae(cost: CostMatrix, plan: TransportPlan, pair: PotentialPair,
                 plan_family: Sequence[TransportPlan],
                 tol: float = LP_TOL) -> CheckResult:
    """Monotonicity with feasibility required only where the family charges.

    Identical to :func:`check_strong_ccm` except that the inequality
    phi + psi <= c is demanded only on the union of the supports of the
    given plans, the finite-space reading of "almost everywhere with
    respect to every finite-cost plan".
    """
    union = np.zeros(cost.shape, dtype=bool)
    for member in plan_family:
        if member.shape != cost.shape:
            raise ShapeError("family plan shape mismatch")
        union |= member.support()
    return _check_ccm(cost, plan, pair, union, tol)


@dataclass(frozen=True)
class AttainmentReport:
    certified: bool
    potential_integral: float
    plan_cost: float
    gap: float
    monotonicity: CheckResult


def attainment_certificate(cost: CostMatrix, plan: TransportPlan,
                           pair: PotentialPair,
                           tol: float = LP_TOL) -> AttainmentReport:
    """Certify joint optimality of a finite-cost coupling and a potential pair.

    Certifies when strong monotonicity passes and the integral of
    phi + psi against the plan matches the plan's cost within tol; both
    sides are then optimal for their problems.
    """
    value = potential_plan_integral(pair, plan)
    cost_value = transport_cost(cost, plan)
    if not math.isfinite(cost_value):
        raise InvariantError("attainment certificates need a finite-cost plan")
    mono = check_strong_ccm(cost, plan, pair, tol)
    gap = cost_value - value if math.isfinite(value) else math.inf
    certified = bool(mono.passed and abs(gap) <= (plan.shape[0] + plan.shape[1]) * tol)
    return AttainmentReport(certified=certified, potential_integral=value,
                            plan_cost=cost_value, gap=gap, monotonicity=mono)


@dataclass(frozen=True)
class BoundRecord:
    sequence_index: int
    k: int
    lhs: float
    rhs: float
    passed: bool


def telescoping_bound_check(inst: rotation.RotationInstance, potentials: Sequence[PotentialPair],
                            k_max: int) -> list[BoundRecord]:
    """Check the telescoped L1 bound along shift graphs, for k = 1 .. k_max.

    For each potential pair the L1 distance between phi + psi and the
    level values on the k-step graph is bounded by k times the L1
    distance between phi + psi and the two-graph base cost (the ``ap``
    cost, level rows 0 and 1), measured against the sum of the uniform
    plans on the diagonal and the one-step graph.  The instance fixes
    both costs.  The k = 0 case is the degenerate base of the telescope
    and is excluded.  A bound passes within ``BOUND_SLACK``.
    """
    n, s = inst.n, inst.shift
    if not 1 <= k_max < n:
        raise InvariantError(f"k_max must lie in [1, {n - 1}]")
    levels = rotation.birkhoff_levels(inst, k_max)
    idx = np.arange(n)
    records = []
    for seq_i, pair in enumerate(potentials):
        phi, psi = pair.phi, pair.psi
        if phi.size != n or psi.size != n:
            raise ShapeError("potential length does not match the instance size")
        base_norm = float(
            np.mean(np.abs(levels[0] - (phi + psi)))
            + np.mean(np.abs(levels[1] - (phi + psi[(idx + s) % n])))
        )
        for k in range(1, k_max + 1):
            oplus_k = phi + psi[(idx + k * s) % n]
            lhs = float(np.mean(np.abs(levels[k] - oplus_k)))
            rhs = k * base_norm
            records.append(BoundRecord(sequence_index=seq_i, k=k, lhs=lhs,
                                       rhs=rhs, passed=bool(lhs <= rhs + BOUND_SLACK)))
    return records


@dataclass(frozen=True)
class SequenceDiagnostics:
    """Per-sequence norms and the small-set mass profile of the last entry."""

    l1_distances_to_limit: tuple[float, ...]
    positive_part_norms: tuple[float, ...]
    singular_mass_estimate: float
    small_set_profile: tuple[tuple[float, float], ...]


def checked_deltas(values) -> tuple[float, ...]:
    """The deltas as floats; raises unless nonempty, positive, finite and strictly decreasing."""
    deltas = tuple(float(d) for d in values)
    if len(deltas) == 0:
        raise InvariantError("empty delta grid")
    if not all(0 < d < math.inf for d in deltas):
        raise InvariantError("deltas must be positive and finite")
    if any(later >= earlier for later, earlier in zip(deltas[1:], deltas)):
        raise InvariantError("deltas must be strictly decreasing")
    return deltas


def singular_mass_estimate(pi0: TransportPlan, potentials: Sequence[PotentialPair],
                           h_ref: np.ndarray, delta_grid) -> SequenceDiagnostics:
    """Small-set mass profile of an optimizing sequence against pi0.

    For each delta the profile records the largest negative mass
    - sum_A (phi + psi) pi0 achievable on a cell set A of pi0-measure
    below delta, taken greedily over cells sorted by their weighted
    contribution (exact for this objective).  On a finite space the true
    vanishing-set limit is zero; the profile shows how much escaping
    negative mass the sequence exhibits at each scale.  Reference values
    h_ref feed the per-entry L1 distances and positive-part norms.  The
    deltas must pass :func:`checked_deltas`.
    """
    deltas = checked_deltas(delta_grid)
    if len(potentials) == 0:
        raise InvariantError("empty potential sequence")
    if h_ref.shape != pi0.shape:
        raise ShapeError("reference matrix does not match the plan shape")
    sup = pi0.support()
    weights = pi0.mass[sup]
    refs = np.asarray(h_ref, dtype=float)[sup]
    if not np.all(np.isfinite(refs)):
        raise InvariantError("reference values must be finite on supp(pi0)")

    l1_list = []
    pos_list = []
    for pair in potentials:
        if pair.shape != pi0.shape:
            raise ShapeError("potential shape does not match the plan shape")
        oplus = pair.oplus()[sup]
        l1_list.append(float(np.sum(np.abs(oplus - refs) * weights)))
        pos_list.append(float(np.sum(np.maximum(oplus - refs, 0.0) * weights)))

    last = potentials[-1].oplus()[sup]
    contrib = last * weights
    # the negative cells, most negative first, taken while their running
    # mass stays below delta; cumsum adds in the same order a loop would
    order = np.argsort(contrib, kind="stable")[:int(np.sum(contrib < 0.0))]
    taken = np.searchsorted(np.cumsum(weights[order]), deltas)
    totals = np.cumsum(contrib[order])
    profile = [(delta, -float(totals[t - 1]) if t else 0.0) for delta, t in zip(deltas, taken)]
    return SequenceDiagnostics(
        l1_distances_to_limit=tuple(l1_list),
        positive_part_norms=tuple(pos_list),
        singular_mass_estimate=profile[-1][1],
        small_set_profile=tuple(profile),
    )
