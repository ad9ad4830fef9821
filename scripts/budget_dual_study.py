#!/usr/bin/env python3
"""Budgeted-dual convergence study on the two-graph cost.

Sweeps the feasibility budget, reports the dual value, the L1 distance
of the optimizing potentials to the cost on the two graphs, and the
telescoped bound margins for small k.  The dual values converge to the
restricted optimum linearly in the budget; the distances shrink at the
same rate.
"""

import argparse
import sys

import numpy as np

from mklab import (
    ap_cost,
    make_instance,
    relaxed_dual_sweep,
    shift_graph_plan,
    solve_restricted_primal,
    telescoping_bound_check,
    uniform_marginal,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=24)
    parser.add_argument("--shift", type=int, default=None)
    parser.add_argument("--eps", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    parser.add_argument("--k-max", type=int, default=5)
    args = parser.parse_args()

    inst = make_instance(args.n, args.shift)
    cost = ap_cost(inst)
    mu = uniform_marginal(inst)
    pi_half = shift_graph_plan(inst, 0, 1)
    restricted = solve_restricted_primal(cost, pi_half).primal_value
    print(f"n={inst.n} shift={inst.shift} restricted value={restricted:.9f}")

    sweep = relaxed_dual_sweep(cost, mu, mu, pi_half,
                               [float(v) for v in args.eps.split(",")])
    pots = [report.optimal_potentials for report in sweep.reports]
    idx = np.arange(inst.n)
    step = (idx + inst.shift) % inst.n
    print(f"{'eps':>9} {'dual value':>14} {'L1 distance':>12}")
    for eps, value, pair in zip(sweep.epsilons, sweep.values, pots):
        dist = float(
            np.mean(np.abs(cost.entries[idx, idx] - (pair.phi + pair.psi)))
            + np.mean(np.abs(cost.entries[idx, step] - (pair.phi + pair.psi[step]))))
        print(f"{eps:>9.0e} {value:>14.9f} {dist:>12.3e}")

    records = telescoping_bound_check(inst, pots, args.k_max)
    worst = max(records, key=lambda r: r.lhs - r.rhs)
    print(f"telescoped bound: {len(records)} checks, "
          f"all pass={all(r.passed for r in records)}, "
          f"tightest margin={worst.rhs - worst.lhs:.3e} "
          f"(sequence {worst.sequence_index}, k={worst.k})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
