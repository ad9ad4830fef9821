#!/usr/bin/env python3
"""Time the CLI ops of a benchmark workload on two source trees in one process.

    python scripts/ab_ops.py PARENT CHANGE --workload NAME [--rounds N]

PARENT and CHANGE are repository roots.  Each one's `src/mklab` is loaded
as its own package, so both run in one process on one pinned CPU under
the same host load.  Each side writes the workload's instance files at
seed 1 the way the benchmark worker does: rotation instances through its
own `mklab gen`, explicit ones from `perfbench/workloads.py` (loaded by
path from CHANGE, read-only) through its own canonical writer.  Every
round then calls each op once on each side, alternating which side goes
first, and keeps each side's output file of that round.

Printed per op: the median wall time of `cli.main` on each side with its
quartiles, the ratio of the medians, and whether both sides wrote the
same bytes in every round.  The `wall_ms` column of a CSV table is a
timing, so it is dropped before the comparison.  The last row pools all
ops, as the benchmark's `op_p50_s` does.  Exits 1 when some output
differs.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: The benchmark seed the instance files are written with.
SEED = 1


def load_module(name: str, path: Path, package: bool = False):
    """Import the module (or package) at ``path`` under the top-level ``name``."""
    spec = importlib.util.spec_from_file_location(
        name, path / "__init__.py" if package else path,
        submodule_search_locations=[str(path)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One source tree's `mklab`, loaded as the package ``name``."""

    def __init__(self, name: str, root: Path, workdir: Path) -> None:
        load_module(name, root / "src" / "mklab", package=True)
        self.cli = importlib.import_module(f"{name}.cli")
        self.fileformats = importlib.import_module(f"{name}.fileformats")
        self.dir = workdir / name
        self.dir.mkdir()

    def call(self, argv: list) -> float:
        """Wall seconds of one `cli.main(argv)`, console output discarded."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            code = self.cli.main(argv)
            wall = time.perf_counter() - t0
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code} in {self.dir}")
        return wall

    def write_instances(self, workloads, workload, seed: int) -> dict:
        """The workload's instance files, written as the benchmark worker writes them."""
        paths = {}
        for inst in workload.instances:
            path = str(self.dir / f"{inst.key}.json")
            if inst.kind == "explicit":
                cost, mu, nu, pi0 = workloads.explicit_arrays(seed, inst.n)
                spec = self.fileformats.InstanceSpec(kind="explicit", cost=cost, mu=mu,
                                                     nu=nu, pi0=pi0, seed=seed)
                self.fileformats.materialize(spec)
                Path(path).write_text(
                    self.fileformats.dumps_canonical(self.fileformats.instance_to_jsonable(spec)),
                    encoding="utf-8")
            else:
                self.call(["gen", "--kind", inst.kind, "--n", str(inst.n),
                           "--seed", str(seed), "--out", path])
            paths[inst.key] = path
        return paths


def comparable(path: str) -> bytes:
    """The file's bytes, without the `wall_ms` column of a CSV table that has one."""
    data = Path(path).read_bytes()
    rows = [line.split(b",") for line in data.splitlines()]
    if not path.endswith(".csv") or b"wall_ms" not in rows[0]:
        return data
    drop = rows[0].index(b"wall_ms")
    return b"".join(b",".join(r[:drop] + r[drop + 1:]) + b"\n" for r in rows)


def spread(times: list) -> str:
    q1, med, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"{med * 1e3:8.3f} [{q1 * 1e3:.3f}-{q3 * 1e3:.3f}]"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path, help="root of the first source tree")
    parser.add_argument("change", type=Path, help="root of the second source tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--rounds", type=int, default=40)
    args = parser.parse_args()
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    workloads = load_module("ab_workloads", args.change / "perfbench" / "workloads.py")
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side("mklab_parent", args.parent, Path(tmp)),
                 Side("mklab_change", args.change, Path(tmp))]
        paths = [side.write_instances(workloads, workload, SEED) for side in sides]
        times = {op.name: ([], []) for op in workload.ops}
        same = dict.fromkeys(times, True)
        for rnd in range(args.rounds):
            for op in workload.ops:
                outs = []
                for s in (0, 1) if rnd % 2 == 0 else (1, 0):
                    out = str(sides[s].dir / f"{op.name}.{op.suffix}")
                    times[op.name][s].append(sides[s].call(op.argv(paths[s][op.instance], out)))
                    outs.append(comparable(out))
                same[op.name] &= outs[0] == outs[1]

    print(f"{args.workload}: {args.rounds} rounds, seed {SEED}, ms median [q1-q3]")
    print(f"{'op':28} {'parent':>26} {'change':>26} {'ratio':>7}  bytes")
    times["all ops"] = tuple([t for op in workload.ops for t in times[op.name][s]]
                             for s in (0, 1))
    for name, (a, b) in times.items():
        bytes_ = "" if name == "all ops" else ("same" if same[name] else "DIFFER")
        ratio = statistics.median(b) / statistics.median(a)
        print(f"{name:28} {spread(a):>26} {spread(b):>26} {ratio:7.3f}  {bytes_}")
    return 0 if all(same.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
