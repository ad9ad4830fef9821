#!/usr/bin/env python3
"""Measure mklab: engine counters and CPU time, write times, and an A/B of two trees.

    python scripts/measure.py engine [--sizes 384,768] [--parent PARENT] [--record PATH]
    python scripts/measure.py write [--sizes 300,1000,2000] [--repeat 5] [--record PATH]
    python scripts/measure.py ab PARENT CHANGE --workload NAME [--rounds 40] [--record PATH]

Each subcommand pins the process to the lowest CPU it may use, as the
benchmark worker does, and builds instances as `mklab gen --kind KIND
--n N --seed 1` writes them, or as the benchmark writes its explicit
ones.  `benchmark_calls` defines the benchmark's engine calls, which
the engine tests pin.  Times depend on the host; counters and byte
counts do not.  `--record PATH` appends the table to PATH as one JSON line
with the commit, date, host, CPU, Python and numpy versions and command;
the command names each source tree by the commit checked out there,
with "-dirty" when its files differ from it, or by its directory name
when it is not a checkout.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import re
import runpy
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: The seed every instance is generated with, as in the benchmark.
SEED = 1

#: Default sizes: of the engine's primal rows per kind, and of the write rows.
ENGINE_SIZES = {"ex33": (384, 768, 1536), "explicit": (300, 1000, 2000)}
WRITE_SIZES = (300, 1000, 2000)

#: The paired rounds of each engine call that `engine --parent` alternates:
#: at least ENGINE_AB_ROUNDS, and more until the timings of both trees sum
#: to ENGINE_AB_BUDGET_S CPU seconds, so that short calls get more rounds.
ENGINE_AB_ROUNDS, ENGINE_AB_BUDGET_S = 7, 2.0


def gen_argv(kind: str, n: int) -> list:
    return ["gen", "--kind", kind, "--n", str(n), "--seed", str(SEED)]


def generated(kind: str, n: int):
    """The instance spec that `mklab gen --kind KIND --n N --seed 1` writes."""
    from mklab import cli, fileformats
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        cli.main(gen_argv(kind, n))
    return fileformats.parse_instance(text.getvalue())


def explicit_spec(fileformats, workloads: dict, n: int):
    """The explicit instance spec that the benchmark writes at size ``n``."""
    return fileformats.InstanceSpec("explicit", *workloads["explicit_arrays"](SEED, n), seed=SEED)


def best_of(k: int, call, clock=time.perf_counter) -> tuple:
    """The least ``clock`` seconds of ``k`` calls of ``call``, and its last result."""
    best = float("inf")
    for _ in range(k):
        t0 = clock()
        result = call()
        best = min(best, clock() - t0)
    return best, result


def alternated(calls, clock=time.process_time) -> tuple:
    """The ``clock`` timings of each of the two ``calls``, one per round,
    with the first call first in even rounds and second in odd ones: at
    least ENGINE_AB_ROUNDS rounds, and more until all timings sum to
    ENGINE_AB_BUDGET_S."""
    times, spent = ([], []), 0.0
    while len(times[0]) < ENGINE_AB_ROUNDS or spent < ENGINE_AB_BUDGET_S:
        for side in (0, 1) if len(times[0]) % 2 == 0 else (1, 0):
            times[side].append(best_of(1, calls[side], clock)[0])
            spent += times[side][-1]
    return times


class Table:
    """Prints a header, then each row as it comes, by ``template``; keeps the rows."""

    def __init__(self, template: str, columns: tuple) -> None:
        self.template, self.columns, self.rows = template, columns, []
        print(re.sub(r"\.\d+f", "", template).format(*columns))

    def add(self, *row) -> None:
        self.rows.append(row)
        print(self.template.format(*row), flush=True)


def load(name: str, root: Path):
    """The `mklab` package of the source tree ``root``, imported as ``name``."""
    package = root / "src" / "mklab"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def engine_call(solve) -> tuple:
    """The one `solve_bipartite` call that ``solve()`` makes: (arguments, result, CPU s)."""
    from mklab import network_simplex
    real, calls = network_simplex.solve_bipartite, []

    def recording(*args):
        t0 = time.process_time()
        res = real(*args)
        calls.append((args, res, time.process_time() - t0))
        return res

    with mock.patch.object(network_simplex, "solve_bipartite", recording):
        solve()
    [call] = calls
    return call


def benchmark_calls() -> dict:
    """The engine call of each benchmark op, by name, as `engine_call` gives it.

    Each op's solver runs on the instance the benchmark writes.  Every `ap`
    op of `dual-side` solves `ap-192-restricted`; its `solve-dual` is
    `explicit-60-primal`.
    """
    from mklab import fileformats as ff, solvers
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    ex33, ap = ff.materialize(generated("ex33", 144)), ff.materialize(generated("ap", 192))
    x300, x60 = (ff.materialize(explicit_spec(ff, workloads, n)) for n in (300, 60))
    solves = {
        "ex33-144-primal": lambda: solvers.solve_primal(ex33.cost, ex33.mu, ex33.nu),
        "ap-192-restricted": lambda: solvers.solve_relaxed_dual(
            ap.cost, ap.mu, ap.nu, ap.reference_plan, workloads["RELAXED_DUAL_EPS"][0]),
        "explicit-300-primal": lambda: solvers.solve_primal(x300.cost, x300.mu, x300.nu),
        "explicit-300-partial": lambda: solvers.solve_partial(
            x300.cost, x300.mu, x300.nu, workloads["PARTIAL_EPS"]),
        "explicit-300-restricted": lambda: solvers.solve_restricted_primal(
            x300.cost, x300.reference_plan),
        "explicit-60-primal": lambda: solvers.solve_dual(x60.cost, x60.mu, x60.nu),
    }
    return {name: engine_call(solve) for name, solve in solves.items()}


def engine(args) -> tuple:
    """Engine CPU time and exact counters of `solve_bipartite` calls.

    First the engine calls of the benchmark ops, then the primal program
    of `ex33` at n = 384, 768, 1536 and explicit at n = 300, 1000, 2000, as
    `mklab gen` writes them.  The counters (degenerate pivots move no
    flow) show a pricing regression on any host.  `cpu_s` times the call
    once; `match_s` is the best of five timings of its greedy matching of
    equal masses, whose arcs the star's start tree hangs in or the proof
    pass reads, and which a call that starts from a spanning tree of its
    arcs does not run (the two restricted rows of the benchmark,
    `ap-192-restricted` and `explicit-300-restricted`).
    With `--parent PARENT`, the call is also solved by PARENT's engine,
    once per tree in each round on the same arguments, alternating which
    goes first, for at least ENGINE_AB_ROUNDS rounds and until both trees'
    timings of the call sum to ENGINE_AB_BUDGET_S CPU seconds: `cpu_s`
    and `parent_cpu_s` are then the medians of each tree's timings,
    `parent_match_s` times PARENT's greedy matching as `match_s` times this
    tree's, and `ratio`, `ratio_q1` and `ratio_q3` the median and quartiles
    of the rounds' quotients, so that a slow moment of the host slows both
    sides of a quotient alike.  `verdict` reads the quartiles: `faster`
    when `ratio_q3` < 1, `slower` when `ratio_q1` > 1, and `unresolved`
    when they straddle 1.  `rounds` counts the rounds.
    """
    from mklab import fileformats, solvers
    from mklab.network_simplex import _matched_pairs, solve_bipartite

    def gen_primal(kind, n):
        p = fileformats.materialize(generated(kind, n))
        return engine_call(lambda: solvers.solve_primal(p.cost, p.mu, p.nu))

    template = "{:>23} {:>9} {:>10} {:>7} {:>10} {:>13} {:>8.3f} {:>8.4f}"
    columns = ("call", "arcs", "iterations", "pivots", "degenerate", "arcs_priced",
               "cpu_s", "match_s")
    if args.parent:
        parent = load("mklab_parent", args.parent).network_simplex
        template += " {:>12.3f} {:>14.4f} {:>6.3f} {:>8.3f} {:>8.3f} {:>10} {:>6}"
        columns += ("parent_cpu_s", "parent_match_s", "ratio", "ratio_q1", "ratio_q3",
                    "verdict", "rounds")
    table = Table(template, columns)
    calls = list(benchmark_calls().items())
    calls += [(f"gen-{kind}-{n}", gen_primal(kind, n))
              for kind, sizes in ENGINE_SIZES.items() for n in args.sizes or sizes]
    for name, (call, res, cpu) in calls:
        match, _ = best_of(5, lambda: _matched_pairs(*call), time.process_time)
        row = [name, call[-1].size, res.iterations, res.pivots, res.degenerate_pivots,
               res.arcs_priced, cpu, match]
        if args.parent:
            times = alternated((lambda: solve_bipartite(*call),
                                lambda: parent.solve_bipartite(*call)))
            row[6], parent_cpu = map(statistics.median, times)
            parent_match, _ = best_of(5, lambda: parent._matched_pairs(*call), time.process_time)
            ratios = [a / b for a, b in zip(*times)]
            q1, _, q3 = statistics.quantiles(ratios, n=4)
            verdict = "faster" if q3 < 1.0 else "slower" if q1 > 1.0 else "unresolved"
            row += [parent_cpu, parent_match, statistics.median(ratios), q1, q3, verdict,
                    len(ratios)]
        table.add(*row)
    return 0, table


def write(args) -> tuple:
    """Wall time of building an explicit instance file and its primal result file.

    Each generated explicit instance is solved once by `solve_primal`, not
    timed.  The instance text (as `mklab gen` builds it) and the result
    text (as `mklab solve --out` builds it) are each built `--repeat`
    times; the best wall time is printed with the text's size.
    """
    from mklab import fileformats
    from mklab.solvers import solve_primal
    table = Table("{:>5} {:>11.4f} {:>15} {:>9.4f} {:>13}",
                  ("n", "instance_s", "instance_bytes", "result_s", "result_bytes"))
    for n in args.sizes or WRITE_SIZES:
        spec = generated("explicit", n)
        problem = fileformats.materialize(spec)
        report = solve_primal(problem.cost, problem.mu, problem.nu)
        del problem
        inst_s, inst_text = best_of(args.repeat, lambda: fileformats.dumps_canonical(
            fileformats.instance_to_jsonable(spec)))
        res_s, res_text = best_of(args.repeat, lambda: fileformats.serialize_result(
            fileformats.result_document("primal", fileformats.instance_to_jsonable(spec),
                                        report)))
        table.add(n, inst_s, len(inst_text), res_s, len(res_text))
    return 0, table


class Side:
    """One source tree's `mklab`, loaded as the top-level package ``name``."""

    def __init__(self, name: str, root: Path, workdir: Path) -> None:
        load(name, root)
        self.cli = importlib.import_module(f"{name}.cli")
        self.fileformats = importlib.import_module(f"{name}.fileformats")
        self.dir = workdir / name
        self.dir.mkdir()

    def call(self, argv: list) -> float:
        """Wall seconds of one `cli.main(argv)`, console output discarded."""
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            wall, code = best_of(1, lambda: self.cli.main(argv))
        if code != 0:
            raise SystemExit(f"{argv[0]} exited {code} in {self.dir}")
        return wall

    def write_instances(self, workloads: dict, workload) -> dict:
        """The workload's instance files, written as the benchmark worker writes them."""
        paths = {}
        for inst in workload.instances:
            paths[inst.key] = path = str(self.dir / f"{inst.key}.json")
            if inst.kind == "explicit":
                ff = self.fileformats
                spec = explicit_spec(ff, workloads, inst.n)
                ff.materialize(spec)
                Path(path).write_text(ff.dumps_canonical(ff.instance_to_jsonable(spec)),
                                      encoding="utf-8")
            else:
                self.call([*gen_argv(inst.kind, inst.n), "--out", path])
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
    return f"{med * 1e3:.3f} [{q1 * 1e3:.3f}-{q3 * 1e3:.3f}]"


def ab(args) -> tuple:
    """Time the CLI ops of a benchmark workload on two source trees in one process.

    PARENT and CHANGE are repository roots.  Each side writes the instance
    files as the benchmark worker does (explicit ones from CHANGE's
    `perfbench/workloads.py`), and each round calls every op once per side,
    alternating which goes first.  Per op: each side's median wall time with
    quartiles, the ratio of the medians, and whether both wrote the same
    bytes (a CSV's `wall_ms` column aside) in every round; the last row
    pools all ops, as `op_p50_s` does.  Exits 1 when some output differs.

    Both trees share one process, with its allocator, caches and garbage
    collector, so a change to the process itself (an allocator or GC
    setting, work at import) must be measured with perfbench runs instead.
    """
    workloads = runpy.run_path(str(args.change / "perfbench" / "workloads.py"))
    if args.workload not in workloads["WORKLOADS"]:
        args.error(f"--workload must be one of {sorted(workloads['WORKLOADS'])}")
    workload = workloads["WORKLOADS"][args.workload]
    with tempfile.TemporaryDirectory() as tmp:
        sides = [Side("mklab_parent", args.parent, Path(tmp)),
                 Side("mklab_change", args.change, Path(tmp))]
        paths = [side.write_instances(workloads, workload) for side in sides]
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
    table = Table("{:28} {:>26} {:>26} {:>7.3f}  {}",
                  ("op", "parent", "change", "ratio", "bytes"))
    times["all ops"] = tuple([t for op in workload.ops for t in times[op.name][s]]
                             for s in (0, 1))
    for name, (a, b) in times.items():
        bytes_ = "" if name == "all ops" else ("same" if same[name] else "DIFFER")
        table.add(name, spread(a), spread(b), statistics.median(b) / statistics.median(a),
                  bytes_)
    return (0 if all(same.values()) else 1), table


def git(root: Path, *words) -> str:
    return subprocess.run(["git", "-C", str(root), *words], capture_output=True,
                          text=True, check=False).stdout.strip()


def edited(root: Path) -> bool:
    """Whether the tracked files under src/ or scripts/ of the checkout at
    ``root`` differ from its commit."""
    return bool(git(root, "status", "--porcelain", "--untracked-files=no", "--", "src",
                    "scripts"))


def tree_name(root: Path) -> str:
    """The commit checked out at ``root``, with "-dirty" appended when its
    files differ from that commit, or its directory name when it is not a
    checkout."""
    top = git(root, "rev-parse", "--show-toplevel")
    if top and Path(top).resolve() == root.resolve():
        return git(root, "rev-parse", "HEAD") + ("-dirty" if edited(root) else "")
    return root.resolve().name


def record(path: str, table: Table, argv: list, trees: list) -> None:
    """Append ``table`` to ``path`` as one JSON line, with what ran it and where.

    Each argument of ``argv`` that names one of the source ``trees``, alone
    or as the value of ``--option=``, is recorded as that tree's
    `tree_name`, so that no path of the machine that ran it enters the
    record.
    """
    names = {tree: tree_name(tree) for tree in trees}

    def named(word: str) -> str:
        option, equals, value = word.partition("=")
        if not (word.startswith("--") and equals):
            option, value = "", word
        return option + equals + names.get(Path(value), value)

    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    entry = {
        "commit": git(ROOT, "rev-parse", "HEAD"),
        "dirty": edited(ROOT),
        "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": platform.node(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__,
        "command": ["scripts/measure.py", *map(named, argv)],
        "columns": list(table.columns), "rows": table.rows,
    }
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def positive(text: str) -> int:
    if int(text) < 1:
        raise ValueError(text)
    return int(text)


def sizes(text: str) -> list:
    return [positive(v) for v in text.split(",")]


def main(argv=None) -> int:
    raw = argparse.RawDescriptionHelpFormatter
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=raw)
    subs, sub = parser.add_subparsers(required=True), {}
    for run in (engine, write, ab):
        sub[run.__name__] = p = subs.add_parser(run.__name__, description=run.__doc__,
                                                formatter_class=raw)
        p.set_defaults(run=run, error=p.error)
        p.add_argument("--record", metavar="PATH", help="append the table to PATH as JSON")
    sub["engine"].add_argument("--sizes", type=sizes, help="comma-separated n of each kind")
    sub["engine"].add_argument("--parent", type=Path,
                               help="root of a source tree whose engine is timed too")
    sub["write"].add_argument("--sizes", type=sizes, help="comma-separated n")
    sub["write"].add_argument("--repeat", type=positive, default=5, help="timed builds per file")
    sub["ab"].add_argument("parent", type=Path, help="root of the first source tree")
    sub["ab"].add_argument("change", type=Path, help="root of the second source tree")
    sub["ab"].add_argument("--workload", required=True)
    sub["ab"].add_argument("--rounds", type=positive, default=40)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    code, table = args.run(args)
    if args.record:
        trees = [getattr(args, side) for side in ("parent", "change") if getattr(args, side, None)]
        record(args.record, table, argv, trees)
    return code


if __name__ == "__main__":
    sys.exit(main())
