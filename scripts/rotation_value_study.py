#!/usr/bin/env python3
"""Value study on the clamped level cost across grid sizes.

For each n: the full-support optimum, the optimum restricted to the
mixture of the first few shift graphs, the share of free cells, and
whether the orbit certificate proves the full-support value (even n
only; `-` at odd n).  The full-support value sits at exactly 1 on every
cyclic grid (at even n the one-step signs integrate to an orbit
primitive, which prices every coupling identically before clamping);
the table makes that plateau visible instead of assuming a decay.
"""

import argparse
import csv
import sys
import time

import numpy as np

from mklab import (
    attainment_certificate,
    ex33_cost,
    graph_mixture_plan,
    make_instance,
    orbit_certificate,
    solve_primal,
    solve_restricted_primal,
    uniform_marginal,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="12,24,48,96,192",
                        help="comma-separated grid sizes")
    parser.add_argument("--mixture-k", type=int, default=4,
                        help="largest shift graph in the reference mixture")
    parser.add_argument("--out", help="optional CSV path")
    args = parser.parse_args()

    sizes = [int(v) for v in args.sizes.split(",")]
    rows = []
    print(f"{'n':>5} {'shift':>6} {'full':>12} {'restricted':>12} "
          f"{'free cells':>11} {'certified':>9} {'secs':>7}")
    for n in sizes:
        inst = make_instance(n)
        k_max = n - 1
        cost = ex33_cost(inst, k_max)
        mu = uniform_marginal(inst)
        t0 = time.perf_counter()
        full = solve_primal(cost, mu, mu).primal_value
        pi = graph_mixture_plan(inst, min(args.mixture_k, k_max))
        restricted = solve_restricted_primal(cost, pi).primal_value
        if n % 2:
            certified = "-"
        else:
            plan, pair = orbit_certificate(inst)
            certified = str(attainment_certificate(cost, plan, pair).certified)
        elapsed = time.perf_counter() - t0
        free = float(np.mean(cost.entries[cost.finite_mask] == 0.0))
        rows.append([n, inst.shift, full, restricted, free,
                     certified, elapsed])
        print(f"{n:>5} {inst.shift:>6} {full:>12.8f} {restricted:>12.8f} "
              f"{free:>10.1%} {certified:>9} {elapsed:>7.2f}")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "shift", "full_value", "restricted_value",
                             "free_cell_share", "certified", "seconds"])
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
