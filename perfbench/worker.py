"""The measured process: set up one workload, then run its ops in a closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --dir DIR --record PATH
                                [--seconds S --trace 0|1]

Without `--seconds` the worker only sets up (imports `mklab`, writes the
instance files) and records how long that took.  With it, one client
issues one `mklab.cli.main(argv)` call at a time for whole passes of the
op list, stopping at the pass end nearest to `S` seconds.  With
`--trace 1` passes alternate untraced and traced, so the same run gives
the tracing overhead.  The run's parent sets the thread pins; result
files stay in `DIR` for it to check.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import mklab.cli  # noqa: E402
from mklab import fileformats  # noqa: E402

import calibrate  # noqa: E402
from workloads import WORKLOADS, explicit_arrays  # noqa: E402


def write_instances(workload, seed: int, directory: str) -> dict:
    """Write the workload's instance files the way a user would; return paths."""
    paths = {}
    for inst in workload.instances:
        path = os.path.join(directory, f"{inst.key}.json")
        if inst.kind == "explicit":
            cost, mu, nu, pi0 = explicit_arrays(seed, inst.n)
            spec = fileformats.InstanceSpec(kind="explicit", cost=cost, mu=mu, nu=nu,
                                            pi0=pi0, seed=seed)
            fileformats.materialize(spec)  # validate before writing, as `mklab gen` does
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(fileformats.dumps_canonical(fileformats.instance_to_jsonable(spec)))
        else:
            code = quiet_main(["gen", "--kind", inst.kind, "--n", str(inst.n),
                               "--seed", str(seed), "--out", path])[0]
            if code != 0:
                raise RuntimeError(f"mklab gen failed for {inst.key} with exit code {code}")
        paths[inst.key] = path
    return paths


def quiet_main(argv: list) -> tuple:
    """One CLI call with its console output captured; returns (code, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mklab.cli.main(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash
            return None, f"{type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def run_ops(workload, paths: dict, directory: str, seconds: float, traced: bool) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    ops, passes = [], []
    with calibrate.Calibrator() as calibrator:
        kernels = [calibrator.kernel_s()]
        start = time.perf_counter()
        while True:
            index = len(passes)
            trace_pass = traced and index % 2 == 1
            if trace_pass:
                tracer.install()
            pass_start = time.perf_counter()
            for op in workload.ops:
                out = os.path.join(directory, f"op{len(ops):04d}-{op.name}.{op.suffix}")
                tracer.op_id = len(ops)
                t0 = time.perf_counter()
                code, error = quiet_main(op.argv(paths[op.instance], out))
                wall = time.perf_counter() - t0
                kernels.append(calibrator.kernel_s())
                ops.append({"op": op.name, "pass": index, "out": out, "wall_s": wall,
                            "solves": op.solves, "exit_code": code, "error": error})
            passes.append({"wall_s": time.perf_counter() - pass_start, "traced": trace_pass})
            if trace_pass:
                tracer.uninstall()
            # stop at the pass end nearest the deadline; a traced run needs
            # one untraced and one traced pass
            elapsed = time.perf_counter() - start
            if elapsed + passes[-1]["wall_s"] / 2 >= seconds and (not traced or len(passes) >= 2):
                break
    record = {"ops": ops, "passes": passes, "kernels_s": kernels,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if traced:
        record["layers"], record["counters_repeat"] = layer_metrics(
            tracer.spans, {i: op["pass"] for i, op in enumerate(ops)})
        record["spans"] = os.path.join(directory, "spans.json")
        tracer.dump(record["spans"])
    return record


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # one CPU for the ops and the calibration helper, which inherits this,
    # so the kernel measures the CPU the ops ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]
    os.makedirs(args.dir, exist_ok=True)
    paths = write_instances(workload, args.seed, args.dir)
    setup_s = time.perf_counter() - SETUP_START
    with calibrate.Calibrator() as calibrator:
        kernel = statistics.median(calibrator.kernel_s() for _ in range(3))
    record = {"setup_s": setup_s, "setup_kernel_s": kernel, "instances": paths}
    if args.seconds is not None:
        record.update(run_ops(workload, paths, args.dir, args.seconds, bool(args.trace)))
    with open(args.record, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
