#!/usr/bin/env python3
"""Engine CPU time and exact counters of the primal network simplex by size.

The first two rows are the small engine calls of the benchmark
workloads: the primal program of `ex33` n=144, and the restricted
program on the support of the `ap` n=192 reference plan, which every
`ap` relaxed dual solves.  Each further row is one `solve_bipartite` call
on the primal program of the instance that
`mklab gen --kind KIND --n N --seed 1` writes: `ex33` at n = 384, 768 and
1536, and explicit at n = 300, 1000 and 2000.  CPU time depends on the
host.  Iterations, pivots, degenerate pivots (those that move no flow)
and arcs priced depend only on the code and the instance, so a pricing
regression shows in them whatever the host.  `match_s` is the best of
five CPU timings of the matched start, `_matched_pairs`, on the same
call, so that the start's share of `cpu_s` shows without editing the
engine.
"""

import argparse
import contextlib
import io
import sys
import time

import numpy as np

from mklab import cli, fileformats
from mklab.network_simplex import _matched_pairs, solve_bipartite

SIZES = {"ex33": (384, 768, 1536), "explicit": (300, 1000, 2000)}

#: Timings of the matched start per row, of which the best is printed.
MATCH_REPEATS = 5


def generated(kind: str, n: int) -> fileformats.Problem:
    """The instance `mklab gen --kind KIND --n N --seed 1` writes, materialized."""
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(["gen", "--kind", kind, "--n", str(n), "--seed", "1"])
    return fileformats.materialize(fileformats.parse_instance(text.getvalue()))


def primal_call(problem: fileformats.Problem) -> tuple:
    """The `solve_bipartite` arguments of the problem's primal program."""
    return (problem.mu.weights, problem.nu.weights, *problem.cost.finite_arcs)


def restricted_call(problem: fileformats.Problem) -> tuple:
    """The `solve_bipartite` arguments of the program on the reference plan's
    support, with that plan's marginals."""
    pi0 = problem.reference_plan
    tails, heads = np.nonzero(pi0.support())
    return (pi0.row_sums() / pi0.total_mass(), pi0.col_sums() / pi0.total_mass(),
            tails, heads, problem.cost.entries[tails, heads])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", help="comma-separated n to run for each kind "
                                        "instead of the sizes above")
    args = parser.parse_args()

    rows = [("ex33", "ex33", 144, primal_call), ("ap-restricted", "ap", 192, restricted_call)]
    for kind, sizes in SIZES.items():
        for n in [int(v) for v in args.sizes.split(",")] if args.sizes else sizes:
            rows.append((kind, kind, n, primal_call))

    print(f"{'kind':>13} {'n':>5} {'arcs':>9} {'iterations':>10} {'pivots':>7} "
          f"{'degenerate':>10} {'arcs_priced':>13} {'cpu_s':>8} {'match_s':>8}")
    for label, kind, n, program in rows:
        call = program(generated(kind, n))
        t0 = time.process_time()
        res = solve_bipartite(*call)
        cpu = time.process_time() - t0
        match = []
        for _ in range(MATCH_REPEATS):
            t0 = time.process_time()
            _matched_pairs(*call)
            match.append(time.process_time() - t0)
        print(f"{label:>13} {n:>5} {call[-1].size:>9} {res.iterations:>10} {res.pivots:>7} "
              f"{res.degenerate_pivots:>10} {res.arcs_priced:>13} {cpu:>8.3f} {min(match):>8.4f}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
