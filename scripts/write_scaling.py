#!/usr/bin/env python3
"""In-process time of writing an explicit instance file and its primal result file.

Each row is the instance that `mklab gen --kind explicit --n N --seed 1`
writes, solved once with `solve_primal` (not timed).  Then the text of
the instance file (`dumps_canonical` of its document, as `mklab gen`
builds it) and of the primal result file (`serialize_result` of
`result_document`, as `mklab solve --out` builds it, the instance's
cost embedded) are each built `--repeat` times, and the best wall time
is printed with the text's size.  The process is pinned to one CPU
first.  Times depend on the host; byte counts depend only on the code
and the instance.  At n = 2000 the untimed solve takes most of the run.

    python scripts/write_scaling.py [--sizes 300,1000,2000] [--repeat 5]
"""

import argparse
import contextlib
import io
import os
import sys
import time

from mklab import cli, fileformats
from mklab.solvers import solve_primal

SIZES = (300, 1000, 2000)


def best_of(repeat: int, build) -> tuple:
    """The least wall seconds of ``repeat`` calls of ``build``, and its last text."""
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        text = build()
        best = min(best, time.perf_counter() - t0)
    return best, text


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)),
                        help="comma-separated n (default %(default)s)")
    parser.add_argument("--repeat", type=int, default=5, help="timed builds per file")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    print(f"{'n':>5} {'instance_s':>11} {'instance_bytes':>15} {'result_s':>9} "
          f"{'result_bytes':>13}")
    for n in [int(v) for v in args.sizes.split(",")]:
        gen_text = io.StringIO()
        with contextlib.redirect_stdout(gen_text):
            cli.main(["gen", "--kind", "explicit", "--n", str(n), "--seed", "1"])
        spec = fileformats.parse_instance(gen_text.getvalue())
        problem = fileformats.materialize(spec)
        report = solve_primal(problem.cost, problem.mu, problem.nu)
        del problem
        inst_s, inst_text = best_of(args.repeat, lambda: fileformats.dumps_canonical(
            fileformats.instance_to_jsonable(spec)))
        res_s, res_text = best_of(args.repeat, lambda: fileformats.serialize_result(
            fileformats.result_document("primal", fileformats.instance_to_jsonable(spec),
                                        report)))
        print(f"{n:>5} {inst_s:>11.4f} {len(inst_text):>15} {res_s:>9.4f} "
              f"{len(res_text):>13}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
