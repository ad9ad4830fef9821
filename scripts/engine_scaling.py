#!/usr/bin/env python3
"""Engine CPU time and exact counters of the primal network simplex by size.

Each row is one `solve_bipartite` call on the primal program of the
instance that `mklab gen --kind KIND --n N --seed 1` writes: `ex33` at
n = 144, 384, 768 and 1536, and explicit at n = 300, 1000 and 2000.
CPU time depends on the host.  Iterations, pivots and arcs priced depend
only on the code and the instance, so a pricing regression shows in them
whatever the host.
"""

import argparse
import contextlib
import io
import sys
import time

from mklab import cli, fileformats
from mklab.network_simplex import solve_bipartite

SIZES = {"ex33": (144, 384, 768, 1536), "explicit": (300, 1000, 2000)}


def generated(kind: str, n: int) -> fileformats.Problem:
    """The instance `mklab gen --kind KIND --n N --seed 1` writes, materialized."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(["gen", "--kind", kind, "--n", str(n), "--seed", "1"])
    return fileformats.materialize(fileformats.parse_instance(text.getvalue()))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", help="comma-separated n to run for each kind "
                                        "instead of the sizes above")
    args = parser.parse_args()

    print(f"{'kind':>8} {'n':>5} {'arcs':>9} {'iterations':>10} {'pivots':>7} "
          f"{'arcs_priced':>13} {'cpu_s':>8}")
    for kind, sizes in SIZES.items():
        for n in [int(v) for v in args.sizes.split(",")] if args.sizes else sizes:
            problem = generated(kind, n)
            tails, heads, costs = problem.cost.finite_arcs
            t0 = time.process_time()
            res = solve_bipartite(problem.mu.weights, problem.nu.weights, tails, heads, costs)
            cpu = time.process_time() - t0
            print(f"{kind:>8} {n:>5} {costs.size:>9} {res.iterations:>10} {res.pivots:>7} "
                  f"{res.arcs_priced:>13} {cpu:>8.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
