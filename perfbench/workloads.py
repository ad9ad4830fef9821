"""Workload definitions: the instance files each workload writes and its op list.

An op is one `mklab` CLI call, file in and file out.  A workload runs its
op list as whole passes, so every pass does the same work and the mix of
ops in a run does not depend on how many passes fit in it.  Rotation
instances (`ap`, `ex33`) are fixed by their size; the seed only lands in
their `seed` field.  Explicit instances are drawn from the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EXPLICIT_FORBIDDEN_SHARE = 0.2


@dataclass(frozen=True)
class Instance:
    key: str
    kind: str            # "explicit", "ap" or "ex33"
    n: int


@dataclass(frozen=True)
class Op:
    name: str
    instance: str        # Instance.key
    args: tuple          # CLI arguments after the subcommand and instance path
    command: str         # "solve", "sweep" or "diagnose"
    solves: int          # solver calls the op makes

    @property
    def suffix(self) -> str:
        return "json" if self.command == "solve" else "csv"

    def argv(self, instance_path: str, out_path: str) -> list:
        return [self.command, instance_path, *self.args, "--out", out_path]


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple
    ops: tuple


EPS_DUAL_GRID = (0.1, 0.01, 0.001)
RELAXED_DUAL_EPS = (0.01, 0.001)
PARTIAL_EPS = 0.05

WORKLOADS = {w.name: w for w in (
    Workload(
        "ex33-primal",
        (Instance("ex33", "ex33", 144),),
        (Op("solve-primal", "ex33", ("--problem", "primal"), "solve", 1),),
    ),
    Workload(
        "explicit-io",
        (Instance("explicit", "explicit", 300),),
        (Op("solve-restricted", "explicit", ("--problem", "restricted"), "solve", 1),
         Op("solve-primal", "explicit", ("--problem", "primal"), "solve", 1),
         Op("solve-partial", "explicit", ("--problem", f"partial:{PARTIAL_EPS}"), "solve", 1)),
    ),
    Workload(
        "dual-side",
        (Instance("ap", "ap", 192), Instance("explicit", "explicit", 60)),
        (Op("sweep-epsilon-dual", "ap",
            ("--sweep", "epsilon-dual", "--grid", ",".join(map(str, EPS_DUAL_GRID))),
            "sweep", len(EPS_DUAL_GRID)),
         Op("diagnose-bound", "ap", ("--diag", "bound"), "diagnose", 2),
         # The sweep and bound tables carry no potentials; these result
         # files are where the relaxed dual's budget can be checked.  Two
         # budgets make five ops a pass, so the median op falls inside one
         # op's group of times rather than between two groups.
         *(Op(f"solve-relaxed-dual-{eps}", "ap", ("--problem", f"relaxed-dual:{eps}"),
              "solve", 1) for eps in RELAXED_DUAL_EPS),
         Op("solve-dual", "explicit", ("--problem", "dual"), "solve", 1)),
    ),
)}


def nw_corner(mu: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """North-west-corner coupling of two marginals."""
    row, col = mu.copy(), nu.copy()
    mass = np.zeros((row.size, col.size))
    i = j = 0
    while i < row.size and j < col.size:
        t = min(row[i], col[j])
        mass[i, j] = t
        row[i] -= t
        col[j] -= t
        if row[i] <= col[j]:
            i += 1
        else:
            j += 1
    return mass


def explicit_arrays(seed: int, n: int):
    """Random costs and marginals, a north-west-corner `pi0`, and forbidden cells.

    About `EXPLICIT_FORBIDDEN_SHARE` of all cells become `inf`, drawn off
    the support of `pi0`, so `pi0` stays a finite-cost coupling and every
    problem on the instance is feasible.
    """
    rng = np.random.default_rng(seed)
    cost = rng.uniform(0.0, 5.0, size=(n, n))
    mu = rng.uniform(0.2, 1.0, n)
    nu = rng.uniform(0.2, 1.0, n)
    mu, nu = mu / mu.sum(), nu / nu.sum()
    pi0 = nw_corner(mu, nu)
    off_support = pi0 == 0
    share = EXPLICIT_FORBIDDEN_SHARE / off_support.mean()
    cost[off_support & (rng.random((n, n)) < share)] = np.inf
    return cost, mu, nu, pi0
