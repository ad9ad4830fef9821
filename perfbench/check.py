"""Correctness gate for the files each op writes, independent of `mklab`.

The instances are read back from their files and the rotation costs are
rebuilt here from their definitions, so a defect in `mklab`'s builders
or readers shows up as a mismatch rather than being shared by the check.
Reported values are compared with a HiGHS reference from
`scipy.optimize.linprog`; scipy is a benchmark-only import, and when it
is missing the value comparison is skipped and recorded as skipped.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from workloads import EPS_DUAL_GRID

try:
    import scipy
    from scipy import sparse
    from scipy.optimize import linprog
except ImportError:  # recorded in the run's provenance
    scipy = None

#: plan marginals, in absolute probability mass (the solvers' own tolerance)
MARGINAL_TOL = 1e-9
#: phi + psi <= c and the relaxed dual's budget, relative to the largest finite |c|
FEASIBILITY_RTOL = 1e-8
#: reported values against each other and against HiGHS, relative to the largest finite |c|
VALUE_RTOL = 1e-7
#: the full-support ex33 value is 1; the result file holds it after float64 summation
EX33_VALUE_TOL = 1e-12
#: `diagnose bound` defaults: the eps list (1e-2, 1e-4) and k up to min(5, n - 1)
BOUND_SEQUENCE_LENGTH = 2
BOUND_K_MAX = 5


class CheckError(Exception):
    """A result file failed a check."""


def _revive(value):
    if isinstance(value, list):
        return [_revive(v) for v in value]
    if value == "inf":
        return math.inf
    if value == "-inf":
        return -math.inf
    return value


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise CheckError(f"{path} does not hold a JSON object")
    return {key: _revive(value) for key, value in doc.items()}


# ---------------------------------------------------------------------------
# instances, rebuilt from their definitions


def golden_shift(n: int) -> int:
    target = (math.sqrt(5.0) - 1.0) / 2.0 * n
    return min((s for s in range(1, n) if math.gcd(s, n) == 1),
               key=lambda s: (abs(s - target), s))


def ex33_cost(n: int, shift: int, k_max: int) -> np.ndarray:
    """max(level, 0) at (i, i + k*shift), level(i, 0) = 1, stepping by the half signs."""
    signs = np.where(2 * np.arange(n) < n, 1, -1)
    idx = np.arange(n)
    cost = np.full((n, n), math.inf)
    level = np.ones(n)
    for k in range(k_max + 1):
        cost[idx, (idx + k * shift) % n] = np.maximum(level, 0.0)
        level = level + signs[(idx + k * shift) % n]
    return cost


def ap_cost(n: int, shift: int) -> np.ndarray:
    idx = np.arange(n)
    cost = np.full((n, n), math.inf)
    cost[idx, idx] = 1.0
    cost[idx, (idx + shift) % n] = np.where(2 * idx < n, 2.0, 0.0)
    return cost


@dataclass(frozen=True)
class InstanceData:
    kind: str
    cost: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    pi0: Optional[np.ndarray]

    @property
    def scale(self) -> float:
        finite = self.cost[np.isfinite(self.cost)]
        return max(1.0, float(np.max(np.abs(finite))))


def load_instance(path: str) -> InstanceData:
    doc = read_json(path)
    kind = doc["kind"]
    if kind == "explicit":
        pi0 = np.array(doc["pi0"], dtype=float) if "pi0" in doc else None
        return InstanceData(kind, np.array(doc["cost"], dtype=float),
                            np.array(doc["mu"], dtype=float),
                            np.array(doc["nu"], dtype=float), pi0)
    n = doc["n"]
    shift = golden_shift(n) if doc.get("shift", "auto-golden") == "auto-golden" else doc["shift"]
    uniform = np.full(n, 1.0 / n)
    if kind == "ex33":
        return InstanceData(kind, ex33_cost(n, shift, doc.get("k_max", n - 1)),
                            uniform, uniform, None)
    idx = np.arange(n)
    pi0 = np.zeros((n, n))
    pi0[idx, idx] = 0.5 / n
    pi0[idx, (idx + shift) % n] = 0.5 / n
    return InstanceData(kind, ap_cost(n, shift), uniform, uniform, pi0)


def instance_sizes(data: InstanceData) -> dict:
    sizes = {"kind": data.kind, "n": int(data.cost.shape[0]),
             "finite_cells": int(np.isfinite(data.cost).sum())}
    if data.pi0 is not None:
        sizes["pi0_support"] = int((data.pi0 > 0).sum())
    return sizes


# ---------------------------------------------------------------------------
# HiGHS references


def _coupling_rows(mask: np.ndarray):
    """Row-sum and column-sum constraint matrix over the cells of `mask`."""
    m, n = mask.shape
    rows, cols = np.nonzero(mask)
    arcs = np.arange(rows.size)
    matrix = sparse.coo_matrix(
        (np.ones(2 * rows.size), (np.concatenate([rows, m + cols]), np.concatenate([arcs, arcs]))),
        shape=(m + n, rows.size)).tocsr()
    return rows, cols, matrix


def _highs(objective, **constraints) -> float:
    res = linprog(objective, method="highs", **constraints)
    if res.status != 0:
        raise CheckError(f"HiGHS reference failed: {res.message}")
    return float(res.fun)


def reference_value(data: InstanceData, problem: str) -> float:
    """Optimal value of `problem` ("primal", "partial:EPS", ...) on the instance."""
    name, _, param = problem.partition(":")
    finite = np.isfinite(data.cost)
    if name in ("primal", "dual"):
        rows, cols, a_eq = _coupling_rows(finite)
        return _highs(data.cost[rows, cols], A_eq=a_eq,
                      b_eq=np.concatenate([data.mu, data.nu]))
    if name == "restricted":
        support = data.pi0 > 0
        rows, cols, a_eq = _coupling_rows(support)
        total = data.pi0.sum()
        return _highs(data.cost[rows, cols], A_eq=a_eq,
                      b_eq=np.concatenate([data.pi0.sum(1), data.pi0.sum(0)]) / total)
    if name == "partial":
        eps = float(param)
        rows, cols, a_ub = _coupling_rows(finite)
        a_ub = sparse.vstack([a_ub, -np.ones((1, rows.size))]).tocsr()
        return _highs(data.cost[rows, cols], A_ub=a_ub,
                      b_ub=np.concatenate([data.mu, data.nu, [-(1.0 - eps)]]))
    if name == "relaxed-dual":
        # max mu.phi + nu.psi  s.t.  phi_i + psi_j - s_ij <= c_ij on supp pi0,
        # sum pi0 * s <= eps, s >= 0, phi and psi free
        eps = float(param)
        m, n = data.cost.shape
        rows, cols = np.nonzero(data.pi0 > 0)
        k = rows.size
        cells = np.arange(k)
        a_ub = sparse.coo_matrix(
            (np.concatenate([np.ones(2 * k), -np.ones(k), data.pi0[rows, cols]]),
             (np.concatenate([cells, cells, cells, np.full(k, k)]),
              np.concatenate([rows, m + cols, m + n + cells, m + n + cells]))),
            shape=(k + 1, m + n + k)).tocsr()
        objective = np.concatenate([-data.mu, -data.nu, np.zeros(k)])
        bounds = [(None, None)] * (m + n) + [(0.0, None)] * k
        return -_highs(objective, A_ub=a_ub,
                       b_ub=np.concatenate([data.cost[rows, cols], [eps]]), bounds=bounds)
    raise CheckError(f"no reference for problem {problem!r}")


# ---------------------------------------------------------------------------
# result files


class Checker:
    """Checks op outputs against one run's instances; caches the references."""

    def __init__(self, instance_paths: dict) -> None:
        self.data = {key: load_instance(path) for key, path in instance_paths.items()}
        self._refs: dict = {}

    def reference(self, key: str, problem: str) -> Optional[float]:
        if scipy is None:
            return None
        if (key, problem) not in self._refs:
            self._refs[key, problem] = reference_value(self.data[key], problem)
        return self._refs[key, problem]

    def check(self, op, path: str) -> None:
        """Raise `CheckError` unless the file `op` wrote at `path` is right."""
        data = self.data[op.instance]
        if op.command == "solve":
            self._check_solve(op.instance, op.args[1], data, read_json(path))
        elif op.command == "sweep":
            self._check_sweep(op.instance, data, _read_csv(path))
        else:
            _check_bound(_read_csv(path))

    def _close(self, what: str, value: float, expected: Optional[float],
               data: InstanceData, factor: float = 1.0) -> None:
        if expected is None:
            return
        tol = VALUE_RTOL * data.scale * factor
        if not abs(value - expected) <= tol:
            raise CheckError(f"{what} {value!r} differs from {expected!r} by more than {tol:.1e}")

    def _check_solve(self, key: str, problem: str, data: InstanceData, doc: dict) -> None:
        name, _, param = problem.partition(":")
        if doc.get("status") != "solved" or doc.get("problem") != problem:
            raise CheckError(f"status/problem fields read {doc.get('status')!r}/{doc.get('problem')!r}")
        primal, dual, gap = doc["primal_value"], doc["dual_value"], doc["gap"]
        self._close("gap", gap, primal - dual, data)
        mu, nu = data.mu, data.nu
        if name == "restricted":
            total = data.pi0.sum()
            mu, nu = data.pi0.sum(1) / total, data.pi0.sum(0) / total
        finite = np.isfinite(data.cost)
        allowed = data.pi0 > 0 if name in ("restricted", "relaxed-dual") else finite

        if name == "relaxed-dual":
            if doc["plan"] is not None:
                raise CheckError("the relaxed dual reports no plan")
            self._close("primal value", primal, dual, data)
        else:
            plan = np.array(doc["plan"], dtype=float)
            expected_kind = "sub-coupling" if name == "partial" else "exact-coupling"
            if plan.shape != data.cost.shape or doc["plan_kind"] != expected_kind:
                raise CheckError(f"plan {plan.shape} of kind {doc['plan_kind']!r}")
            if not np.all(np.isfinite(plan)) or np.any(plan < 0) or np.any(plan[~allowed] != 0):
                raise CheckError("plan has negative, non-finite or forbidden mass")
            row_err, col_err = plan.sum(1) - mu, plan.sum(0) - nu
            if name == "partial":
                short = 1.0 - float(param) - plan.sum()
                if max(row_err.max(), col_err.max(), short) > MARGINAL_TOL:
                    raise CheckError("partial plan is not dominated or carries too little mass")
            elif max(np.abs(row_err).max(), np.abs(col_err).max()) > MARGINAL_TOL:
                raise CheckError("plan marginals are off")
            self._close("plan cost", float(np.sum(data.cost[finite] * plan[finite])), primal, data)

        if name != "partial":
            phi = np.array(doc["phi"], dtype=float)
            psi = np.array(doc["psi"], dtype=float)
            excess = (phi[:, None] + psi[None, :] - data.cost)[allowed]
            if name == "relaxed-dual":
                budget = float(np.sum(data.pi0[allowed] * np.maximum(excess, 0.0)))
                if budget > float(param) + FEASIBILITY_RTOL * data.scale:
                    raise CheckError(f"relaxed dual spends {budget!r} over a budget of {param}")
            elif excess.max() > FEASIBILITY_RTOL * data.scale:
                raise CheckError(f"potentials break phi + psi <= c by {excess.max()!r}")
            self._close("dual objective", float(phi @ mu + psi @ nu), dual, data)

        reference = self.reference(key, problem)
        self._close("primal value", primal, reference, data)
        self._close("dual value", dual, reference, data)
        if data.kind == "ex33" and name == "primal" and abs(primal - 1.0) > EX33_VALUE_TOL:
            raise CheckError(f"ex33 full-support value {primal!r} is not 1")

    def _check_sweep(self, key: str, data: InstanceData, rows: list) -> None:
        if rows[0] != ["parameter", "value", "iterations", "wall_ms"]:
            raise CheckError(f"sweep header {rows[0]}")
        body = rows[1:]
        if len(body) != len(EPS_DUAL_GRID) + 1:
            raise CheckError(f"sweep has {len(body)} rows")
        refs = []
        for eps, row in zip(EPS_DUAL_GRID, body):
            if float(row[0]) != eps or int(row[2]) < 1:
                raise CheckError(f"sweep row {row}")
            refs.append(self.reference(key, f"relaxed-dual:{eps}"))
            self._close(f"relaxed dual at {eps}", float(row[1]), refs[-1], data)
        (e1, e0), last = EPS_DUAL_GRID[-2:], body[-1]
        if float(last[0]) != 0.0:
            raise CheckError(f"extrapolated row {last}")
        if None not in refs:
            limit = refs[-1] - (refs[-2] - refs[-1]) / (e1 - e0) * e0
            # the extrapolation carries the two values' errors, scaled
            self._close("extrapolated limit", float(last[1]), limit, data,
                        factor=1.0 + 2.0 * e0 / (e1 - e0))


def _read_csv(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckError(f"{path} is empty")
    return rows


def _check_bound(rows: list) -> None:
    """Every telescoped-bound row passes and holds its inequality.

    lhs and rhs depend on which optimal vertex of the degenerate relaxed
    dual the solver returns, so they have no unique reference value.
    """
    if rows[0] != ["sequence_index", "k", "lhs", "rhs", "passed"]:
        raise CheckError(f"bound header {rows[0]}")
    expected = [(s, k) for s in range(BOUND_SEQUENCE_LENGTH) for k in range(1, BOUND_K_MAX + 1)]
    if [(int(r[0]), int(r[1])) for r in rows[1:]] != expected:
        raise CheckError("bound rows do not cover every (sequence index, k)")
    for row in rows[1:]:
        lhs, rhs = float(row[2]), float(row[3])
        if row[4] != "true" or not (0.0 <= lhs <= rhs + 1e-9) or not math.isfinite(rhs):
            raise CheckError(f"bound row {row} does not pass")


def tally(checker: Checker, entries) -> tuple:
    """Count (attempted, failed, reasons) over (op, path, exit code, error) entries.

    An op fails on a nonzero exit, an exception, or a failed check.
    """
    failed, reasons = 0, []
    for op, path, code, error in entries:
        reason = None
        if code != 0:
            reason = f"exit code {code}: {error}"
        else:
            try:
                checker.check(op, path)
            except (CheckError, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"{type(exc).__name__}: {exc}"
        if reason is not None:
            failed += 1
            reasons.append(f"{op.name} -> {path}: {reason}")
    return len(entries), failed, reasons
