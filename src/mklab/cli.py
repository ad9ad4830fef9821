"""Command-line front end: solve, sweep, diagnose, gen.

Exit codes: 0 solved, 1 usage or I/O or validation error, 2 infeasible,
3 iteration limit.  Single solves write deterministic JSON result files;
sweeps and diagnostics write CSV tables.  Only sweep tables carry a
wall-clock column, `wall_ms`, and are not byte-reproducible; diagnostic
tables are.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional, Sequence

import numpy as np

from . import fileformats, rotation, solvers
from .core import (
    DualityReport,
    InfeasibleError,
    InvariantError,
    IterationLimitError,
    MAX_SIDE,
    MKLabError,
    ShapeError,
    TransportPlan,
)
from .diagnostics import (
    LP_TOL,
    check_strong_ccm,
    checked_deltas,
    singular_mass_estimate,
    telescoping_bound_check,
)
from .fileformats import AUTO_SHIFT, FileFormatError, InstanceSpec, Problem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_ITERATIONS = 3

DEFAULT_BOUND_EPS = (1e-2, 1e-4)
DEFAULT_SINGULAR_EPS = (1e-1, 1e-2, 1e-3, 1e-4)
DEFAULT_DELTAS = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)

#: Characters of an output file encoded and written at a time.
WRITE_SLICE = 1 << 18


class UsageError(MKLabError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _fmt(value: float) -> str:
    """A float as the result files write it, unquoted; NaN raises FileFormatError."""
    return fileformats._format_float(float(value)).strip('"')


def _parse_grid(text: str) -> list[float]:
    """The grid's numbers.  A grid of blanks alone is empty, which each command rejects."""
    entries = [v.strip() for v in text.split(",")]
    if any(entries) and not all(entries):
        raise UsageError(f"bad grid {text!r}: entry {entries.index('') + 1} is blank")
    try:
        return [float(v) for v in entries if v]
    except ValueError as exc:
        raise UsageError(f"bad grid {text!r}: {exc}") from exc


def _load_problem(path: str) -> tuple[InstanceSpec, Problem]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    spec = fileformats.parse_instance(text)
    return spec, fileformats.materialize(spec)


def _reference_plan(problem: Problem) -> TransportPlan:
    if problem.reference_plan is None:
        raise UsageError(
            "this problem needs a reference plan; add a \"pi0\" matrix to the "
            "explicit instance file")
    return problem.reference_plan


def _write_text(path: str, text: str) -> None:
    # in slices, so that no encoded copy of a whole large file is held
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for start in range(0, len(text), WRITE_SLICE):
            fh.write(text[start:start + WRITE_SLICE])


def _write_csv(path: str, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {path}")


# ---------------------------------------------------------------------------
# solve


def _solve(args: argparse.Namespace) -> tuple[InstanceSpec, str, DualityReport]:
    """Load the instance and solve the problem that ``--problem`` names on it.

    Also returns the problem's canonical spelling, with the parameter as
    the shortest repr of its float, so that one program has one name.
    """
    spec, problem = _load_problem(args.instance)
    name, colon, param = args.problem.partition(":")
    eps = None
    canonical = name
    if name in ("partial", "relaxed-dual"):
        if not param:
            raise UsageError(f"problem {name} needs a parameter, e.g. {name}:0.1")
        try:
            # + 0.0 turns -0.0 into 0.0, the one name of that program
            eps = float(param) + 0.0
        except ValueError as exc:
            raise UsageError(f"bad epsilon {param!r}") from exc
        canonical = f"{name}:{eps!r}"
    elif colon:
        raise UsageError(f"problem {name} takes no parameter")

    if name == "primal":
        report = solvers.solve_primal(problem.cost, problem.mu, problem.nu)
    elif name == "dual":
        report = solvers.solve_dual(problem.cost, problem.mu, problem.nu)
    elif name == "partial":
        report = solvers.solve_partial(problem.cost, problem.mu, problem.nu, eps)
    elif name == "restricted":
        report = solvers.solve_restricted_primal(problem.cost, _reference_plan(problem))
    elif name == "relaxed-dual":
        report = solvers.solve_relaxed_dual(
            problem.cost, problem.mu, problem.nu, _reference_plan(problem), eps)
    else:
        raise UsageError(f"unknown problem {args.problem!r}")
    return spec, canonical, report


def _cmd_solve(args: argparse.Namespace) -> int:
    # the problem, its cost and its arcs are freed before the result is written
    spec, name, report = _solve(args)
    if args.out:
        doc = fileformats.result_document(
            name, fileformats.instance_to_jsonable(spec), report)
        _write_text(args.out, fileformats.serialize_result(doc))
    print(f"problem        {name}")
    print(f"primal value   {_fmt(report.primal_value)}")
    print(f"dual value     {_fmt(report.dual_value)}")
    print(f"gap            {_fmt(report.gap)}")
    print(f"iterations     {report.stats.iterations}")
    print(f"pivots         {report.stats.pivots}")
    print(f"wall ms        {report.stats.wall_ms:.3f}")
    if args.out:
        print(f"result         {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


def _scaled_spec(spec: InstanceSpec, n: int) -> InstanceSpec:
    if spec.kind == "explicit":
        raise UsageError("n-scaling needs an ap or ex33 instance")
    k_max = spec.k_max
    if k_max is not None:
        k_max = n - 1 if k_max == (spec.n or 0) - 1 else min(k_max, n - 1)
    return InstanceSpec(kind=spec.kind, n=n, shift=AUTO_SHIFT, k_max=k_max,
                        seed=spec.seed)


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, problem = _load_problem(args.instance)
    rows: list[list[str]] = []

    if args.sweep in ("epsilon-primal", "epsilon-dual"):
        grid = _parse_grid(args.grid)
        if args.sweep == "epsilon-primal":
            sweep = solvers.estimate_relaxed_primal(
                problem.cost, problem.mu, problem.nu, grid)
        else:
            sweep = solvers.relaxed_dual_sweep(
                problem.cost, problem.mu, problem.nu, _reference_plan(problem), grid)
        for eps, value, report in zip(sweep.epsilons, sweep.values, sweep.reports):
            rows.append([_fmt(eps), _fmt(value), str(report.stats.iterations),
                         f"{report.stats.wall_ms:.3f}"])
        rows.append([_fmt(0.0), _fmt(sweep.limit), "0", "0.000"])
    elif args.sweep == "n-scaling":
        grid_n = _parse_grid(args.grid)
        if (not grid_n or not all(v.is_integer() and v >= 4 for v in grid_n)
                or any(b <= a for a, b in zip(grid_n, grid_n[1:]))):
            raise UsageError("n grid must be strictly increasing integers >= 4")
        for n in map(int, grid_n):
            scaled = fileformats.materialize(_scaled_spec(spec, n))
            report = solvers.solve_primal(scaled.cost, scaled.mu, scaled.nu)
            rows.append([str(n), _fmt(report.primal_value),
                         str(report.stats.iterations), f"{report.stats.wall_ms:.3f}"])
    else:
        raise UsageError(f"unknown sweep {args.sweep!r}")
    _write_csv(args.out, ["parameter", "value", "iterations", "wall_ms"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# diagnose


def _cmd_diagnose(args: argparse.Namespace) -> int:
    _, problem = _load_problem(args.instance)
    rows: list[list[str]] = []

    if args.diag == "ccm":
        if args.grid is not None:
            raise UsageError("the ccm diagnostic takes no --grid")
        report = solvers.solve_primal(problem.cost, problem.mu, problem.nu)
        result = check_strong_ccm(problem.cost, report.optimal_plan,
                                  report.optimal_potentials, LP_TOL)
        header = ["check", "passed", "witness_i", "witness_j"]
        wi, wj = ("", "") if result.witness is None else result.witness
        rows.append(["strong-ccm", str(result.passed).lower(), str(wi), str(wj)])
    elif args.diag == "bound":
        if problem.kind != "ap":
            raise UsageError("the bound diagnostic needs an ap instance")
        eps_list = _parse_grid(args.grid) if args.grid else list(DEFAULT_BOUND_EPS)
        pots = solvers.dual_sequence(problem.cost, problem.mu, problem.nu,
                                     _reference_plan(problem), eps_list)
        records = telescoping_bound_check(problem.rotation, pots, problem.k_max)
        header = ["sequence_index", "k", "lhs", "rhs", "passed"]
        for rec in records:
            rows.append([str(rec.sequence_index), str(rec.k), _fmt(rec.lhs),
                         _fmt(rec.rhs), str(rec.passed).lower()])
    elif args.diag == "singular":
        pi0 = _reference_plan(problem)
        deltas = checked_deltas(_parse_grid(args.grid) if args.grid else DEFAULT_DELTAS)
        pots = solvers.dual_sequence(problem.cost, problem.mu, problem.nu, pi0,
                                     DEFAULT_SINGULAR_EPS)
        if problem.kind == "ex33":
            h_ref = rotation.level_matrix(problem.rotation, problem.k_max)
        else:
            h_ref = problem.cost.entries
        diag = singular_mass_estimate(pi0, pots, h_ref, deltas)
        header = ["record", "index", "value"]
        for i, v in enumerate(diag.l1_distances_to_limit):
            rows.append(["l1_distance", str(i), _fmt(v)])
        for i, v in enumerate(diag.positive_part_norms):
            rows.append(["positive_part", str(i), _fmt(v)])
        for delta, v in diag.small_set_profile:
            rows.append(["small_set", _fmt(delta), _fmt(v)])
        rows.append(["estimate", "", _fmt(diag.singular_mass_estimate)])
    else:
        raise UsageError(f"unknown diagnostic {args.diag!r}")
    _write_csv(args.out, header, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gen


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.seed is not None and args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    if args.kind == "explicit":
        if args.shift is not None or args.k_max is not None:
            raise UsageError("--shift and --k-max apply to ap and ex33 instances only")
        if args.seed is not None:
            size = 4 if args.n is None else args.n
            if not 1 <= size <= MAX_SIDE:
                raise UsageError(f"--n must lie in [1, {MAX_SIDE}], got {size}")
            rng = np.random.default_rng(args.seed)
            cost = np.round(rng.uniform(0.0, 5.0, size=(size, size)), 6)
            mu = rng.uniform(0.2, 1.0, size)
            nu = rng.uniform(0.2, 1.0, size)
            spec = InstanceSpec(kind="explicit", cost=cost, mu=mu / mu.sum(),
                                nu=nu / nu.sum(), seed=args.seed)
        elif args.n is not None:
            raise UsageError("--n needs --seed for an explicit instance")
        else:
            spec = InstanceSpec(
                kind="explicit",
                cost=np.array([[0.0, float("inf")], [1.0, 0.0]]),
                mu=np.array([0.5, 0.5]), nu=np.array([0.5, 0.5]))
    else:
        if args.n is None:
            raise UsageError(f"gen --kind {args.kind} needs --n")
        shift: object = args.shift
        if shift not in (None, AUTO_SHIFT):
            try:
                shift = int(shift)
            except ValueError as exc:
                raise UsageError(
                    f'--shift must be an integer or "{AUTO_SHIFT}", got {shift!r}') from exc
        spec = InstanceSpec(kind=args.kind, n=args.n, shift=shift,
                            k_max=args.k_max, seed=args.seed)
    fileformats.materialize(spec)  # validate before writing
    text = fileformats.dumps_canonical(fileformats.instance_to_jsonable(spec))
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {args.kind} instance to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mklab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one problem on one instance")
    solve.add_argument("instance")
    solve.add_argument("--problem", required=True,
                       help="primal | dual | partial:EPS | restricted | relaxed-dual:EPS")
    solve.add_argument("--out", help="result JSON path")
    solve.set_defaults(func=_cmd_solve)

    sweep = sub.add_parser("sweep", help="run a parameter sweep, write CSV")
    sweep.add_argument("instance")
    sweep.add_argument("--sweep", required=True,
                       choices=["epsilon-primal", "epsilon-dual", "n-scaling"])
    sweep.add_argument("--grid", required=True, help="comma-separated grid values")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    diagnose = sub.add_parser("diagnose", help="run a diagnostic, write CSV")
    diagnose.add_argument("instance")
    diagnose.add_argument("--diag", required=True, choices=["ccm", "bound", "singular"])
    diagnose.add_argument("--out", required=True)
    diagnose.add_argument("--grid", help="eps list (bound) or delta list (singular)")
    diagnose.set_defaults(func=_cmd_diagnose)

    gen = sub.add_parser("gen", help="write a template instance file")
    gen.add_argument("--kind", required=True, choices=list(fileformats.KINDS))
    gen.add_argument("--n", type=int)
    gen.add_argument("--shift", help=f'integer or "{AUTO_SHIFT}" (the default)')
    gen.add_argument("--k-max", type=int, dest="k_max")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    return parser


#: Built once per process; parse_args leaves no state in it between calls.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FileFormatError, InvariantError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IterationLimitError as exc:
        print(f"iteration limit: {exc}", file=sys.stderr)
        return EXIT_ITERATIONS


if __name__ == "__main__":
    sys.exit(main())
