"""Dense two-phase primal simplex on the full tableau.

The test oracle for the network engine: it shares no code with it, so
the tests solve the coupling program, the partial program and the
budgeted relaxed dual in their own LP forms here and compare.  No
solver in the package imports it.  Variables are nonnegative; rows
carry "le", "ge" or "eq" sense and a nonnegative right-hand side.

Both phases pivot by Bland's smallest-index rule (Bland, Math. Oper.
Res. 2, 1977): the entering column is the lowest-indexed one with a
negative reduced cost, and among the rows tied in the ratio test the
one whose basic column has the lowest index leaves.  No basis then
repeats, so each phase ends after finitely many pivots without any
anti-cycling threshold.  Row duals are recovered from the initial
identity columns, so the caller gets exact LP multipliers without a
separate factorization.
"""

from __future__ import annotations

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

_PIVOT_TOL = 1e-11
_RATIO_TIE_TOL = 1e-12

#: Phase-1 residual above which the program is infeasible, and the most
#: negative reduced cost treated as zero.
TOL = 1e-9
MAX_ITERATIONS = 10 ** 6

SENSES = ("le", "ge", "eq")


@dataclass(frozen=True)
class DenseResult:
    x: np.ndarray
    value: float
    duals: np.ndarray
    iterations: int
    pivots: int


def solve_dense(objective, lhs, senses, rhs) -> DenseResult:
    """Minimize objective @ x subject to lhs x (senses) rhs, x >= 0, rhs >= 0.

    Returns the optimizer, the optimal value, and one dual multiplier per
    row (for a minimum problem the duals satisfy
    objective - lhs.T @ y >= -TOL componentwise).
    """
    c = np.asarray(objective, dtype=float).copy()
    a = np.asarray(lhs, dtype=float).copy()
    b = np.asarray(rhs, dtype=float).copy()
    if a.ndim != 2:
        raise ShapeError("constraint matrix must be 2-d")
    n_rows, n_vars = a.shape
    if c.shape != (n_vars,) or b.shape != (n_rows,):
        raise ShapeError("objective/rhs lengths do not match the constraint matrix")
    sense = list(senses)
    if len(sense) != n_rows or any(s not in SENSES for s in sense):
        raise ShapeError("one sense per row, each in {'le','ge','eq'}")
    if np.any(b < 0):
        raise InvariantError("right-hand side must be nonnegative")

    n_slack = sum(s != "eq" for s in sense)
    n_art = sum(s != "le" for s in sense)
    n_cols = n_vars + n_slack + n_art

    tab = np.zeros((n_rows, n_cols + 1))
    tab[:, :n_vars] = a
    tab[:, n_cols] = b
    basis = np.empty(n_rows, dtype=int)
    id_col = np.empty(n_rows, dtype=int)  # column holding +e_i / -e_i for duals
    is_art = np.zeros(n_cols, dtype=bool)

    col = n_vars
    art_col = n_vars + n_slack
    for i, s in enumerate(sense):
        if s == "le":
            tab[i, col] = 1.0
            basis[i] = col
            id_col[i] = col
            col += 1
        elif s == "ge":
            tab[i, col] = -1.0
            col += 1
            tab[i, art_col] = 1.0
            is_art[art_col] = True
            basis[i] = art_col
            id_col[i] = art_col
            art_col += 1
        else:
            tab[i, art_col] = 1.0
            is_art[art_col] = True
            basis[i] = art_col
            id_col[i] = art_col
            art_col += 1

    # Reduced-cost rows against the starting basis.  Every starting basic
    # column is a slack or an artificial with phase-2 cost 0, so only the
    # phase-1 row needs its basic (artificial) columns priced out.
    z2 = np.zeros(n_cols + 1)
    z2[:n_vars] = c
    z1 = np.zeros(n_cols + 1)
    z1[:n_cols][is_art] = 1.0
    for i in np.flatnonzero(is_art[basis]):
        z1 -= tab[i]

    basic_mask = np.zeros(n_cols, dtype=bool)
    basic_mask[basis] = True

    iterations = 0
    pivots = 0

    def do_pivot(row: int, column: int) -> None:
        nonlocal pivots
        piv = tab[row, column]
        tab[row] /= piv
        factors = tab[:, column].copy()
        factors[row] = 0.0
        tab[:] -= np.outer(factors, tab[row])
        z1[:] -= z1[column] * tab[row]
        z2[:] -= z2[column] * tab[row]
        basic_mask[basis[row]] = False
        basic_mask[column] = True
        basis[row] = column
        pivots += 1

    def run_phase(z: np.ndarray, allowed: np.ndarray) -> None:
        nonlocal iterations
        while True:
            if iterations >= MAX_ITERATIONS:
                raise IterationLimitError(f"simplex exceeded {MAX_ITERATIONS} iterations")
            iterations += 1
            cands = np.flatnonzero(allowed & ~basic_mask & (z[:n_cols] < -TOL))
            if cands.size == 0:
                return
            entering = int(cands[0])
            column = tab[:, entering]
            pos = column > _PIVOT_TOL
            if not pos.any():
                raise UnboundedError("no blocking row for the entering column")
            ratios = np.where(pos, tab[:, n_cols] / np.where(pos, column, 1.0), np.inf)
            rmin = float(ratios.min())
            ties = np.flatnonzero(ratios <= rmin + _RATIO_TIE_TOL * (1.0 + rmin))
            do_pivot(int(ties[np.argmin(basis[ties])]), entering)

    allowed = ~is_art
    if is_art.any():
        run_phase(z1, allowed)
        infeas = float(np.sum(tab[is_art[basis], n_cols]))
        if infeas > TOL:
            raise InfeasibleError(f"phase-1 residual {infeas:.3e} exceeds {TOL:.1e}")
        # Drive basic artificials out; rows with no eligible column are
        # redundant and keep a zero-valued artificial harmlessly.
        for i in range(n_rows):
            if is_art[basis[i]]:
                row = tab[i, :n_cols]
                eligible = np.flatnonzero((np.abs(row) > _PIVOT_TOL) & ~is_art & ~basic_mask)
                if eligible.size:
                    do_pivot(i, int(eligible[0]))

    try:
        run_phase(z2, allowed)
    except UnboundedError:
        raise UnboundedError("objective unbounded below on the feasible set") from None

    if float(np.min(tab[:, n_cols])) < -1e-7:
        raise MKLabError("simplex left the feasible region")  # pragma: no cover

    x_full = np.zeros(n_cols)
    x_full[basis] = tab[:, n_cols]
    x = x_full[:n_vars]
    value = float(np.dot(c, x))

    # Dual of row i from the reduced cost of its initial identity column:
    # for a +e_i column with zero phase-2 cost, z2 = -y_i; the surplus
    # column of a "ge" row is -e_i, but those rows carry an artificial
    # which is used instead, so the +e_i formula applies throughout.
    return DenseResult(x=x, value=value, duals=-z2[id_col], iterations=iterations,
                       pivots=pivots)
