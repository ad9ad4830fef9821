"""Benchmark of the `mklab` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Workloads are in
`perfbench/workloads.py`; metric names and units are in `BENCHMARK.json`.
The runner times `mklab` import plus instance writing in fresh worker
processes (`setup_s`, median of several), then starts one worker that
runs the workload's ops in a closed loop with one client for about S
seconds, every BLAS/OpenMP pool pinned to one thread.  End-to-end times
are scaled to reference host speed by the kernel in `calibrate.py`.
Afterwards it checks every result file (`perfbench/check.py`), runs the
self-test that a corrupted result counts as a failure, and prints one
JSON line last: end-to-end metrics with `--trace 0`, per-layer metrics
with `--trace 1`.  A record with provenance, raw times and, with
`--trace 1`, the spans is written under `.perfbench/` in the checkout.
"""

import os

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy loads, here and in every worker

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: extra fresh processes timing set-up; the measured worker adds one more sample
SETUP_PROBES = 4
#: a worker runs about --seconds plus its set-up and one last pass
WORKER_GRACE_S = 90


class RunError(Exception):
    """The benchmark could not produce a result."""


def run_worker(argv: list, record: str, timeout: float) -> dict:
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *argv,
                               "--record", record],
                              cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    with open(record, "r", encoding="utf-8") as fh:
        return json.load(fh)


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args, sizes: dict) -> dict:
    import numpy
    import check
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": None if check.scipy is None else check.scipy.__version__,
        "thread_env": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_commit": git_commit(), "instances": sizes,
    }


def self_test(directory: str) -> list:
    """A good result passes and each corrupted copy of it counts as a failure.

    Returns the ways the check path misbehaved; empty when it is sound.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import mklab.cli
    from mklab import fileformats
    from check import Checker, tally
    from workloads import Op, explicit_arrays

    os.makedirs(directory, exist_ok=True)
    instance = os.path.join(directory, "tiny.json")
    cost, mu, nu, pi0 = explicit_arrays(0, 6)
    spec = fileformats.InstanceSpec(kind="explicit", cost=cost, mu=mu, nu=nu, pi0=pi0)
    with open(instance, "w", encoding="utf-8") as fh:
        fh.write(fileformats.dumps_canonical(fileformats.instance_to_jsonable(spec)))
    op = Op("solve-primal", "tiny", ("--problem", "primal"), "solve", 1)
    good = os.path.join(directory, "good.json")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = mklab.cli.main(op.argv(instance, good))
    if code != 0:
        return [f"the self-test solve exited with code {code}"]
    with open(good, "r", encoding="utf-8") as fh:
        text = fh.read()
    plan_doc, value_doc, phi_doc = (json.loads(text) for _ in range(3))
    plan_doc["plan"][0][0] += 1e-3
    value_doc["primal_value"] += 1e-3
    phi_doc["phi"][0] += 1.0
    corrupted = {"plan": json.dumps(plan_doc), "value": json.dumps(value_doc),
                 "potential": json.dumps(phi_doc), "truncated": text[: len(text) // 2]}

    checker = Checker({"tiny": instance})
    problems = []
    if tally(checker, [(op, good, code, "")])[1] != 0:
        problems.append("an uncorrupted result failed its check")
    for name, body in corrupted.items():
        path = os.path.join(directory, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
        if tally(checker, [(op, path, 0, "")])[1] != 1:
            problems.append(f"the {name}-corrupted result was not counted as failed")
    return problems


def load_metric_specs(trace: int) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    return bench["per_layer" if trace else "end_to_end"]


def measure(args, work: str) -> tuple:
    """Run set-up probes and the measured worker; return (result, summary, spans path)."""
    specs = load_metric_specs(args.trace)
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    timeout = args.seconds + WORKER_GRACE_S
    setups = []
    for k in range(SETUP_PROBES):
        probe = os.path.join(work, f"setup{k}")
        setups.append(run_worker(base + ["--dir", probe], probe + ".json", timeout))
        shutil.rmtree(probe)
    run_dir = os.path.join(work, "run")
    record = run_worker(base + ["--dir", run_dir, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)],
                        os.path.join(work, "run.json"), timeout)
    setups.append(record)

    import calibrate
    from check import Checker, instance_sizes, tally

    ops_by_name = {op.name: op for op in WORKLOADS[args.workload].ops}
    checker = Checker(record["instances"])
    attempted, failed, reasons = tally(checker, [
        (ops_by_name[o["op"]], o["out"], o["exit_code"], o["error"]) for o in record["ops"]])
    problems = self_test(os.path.join(work, "selftest"))
    if args.trace and not record["counters_repeat"]:
        problems.append("layer counters differ between traced passes")

    walls = [o["wall_s"] for o in record["ops"]]
    scaled = calibrate.scaled(walls, record["kernels_s"])
    if args.trace:
        pass_time = {}
        for o, t in zip(record["ops"], scaled):
            pass_time[o["pass"]] = pass_time.get(o["pass"], 0.0) + t
        traced = [t for p, t in pass_time.items() if record["passes"][p]["traced"]]
        untraced = [t for p, t in pass_time.items() if not record["passes"][p]["traced"]]
        values = dict(record["layers"])
        values["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1
    else:
        values = {
            "op_p50_s": statistics.median(scaled),
            "solves_per_s": sum(o["solves"] for o in record["ops"]) / sum(scaled),
            "setup_s": statistics.median(calibrate.to_reference(r["setup_s"], r["setup_kernel_s"])
                                         for r in setups),
            "peak_rss_mib": record["peak_rss_mib"],
        }
    metrics = {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
               for spec in specs}
    result = {"correct": failed == 0 and not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    sizes = {key: instance_sizes(data) for key, data in checker.data.items()}
    for key, path in record["instances"].items():
        sizes[key]["file_bytes"] = os.path.getsize(path)
    summary = {
        "provenance": provenance(args, sizes), "result": result,
        "passes": len(record["passes"]), "ops": len(walls),
        "fail_ratio": failed / attempted, "failures": reasons, "problems": problems,
        "raw_setup_s": [r["setup_s"] for r in setups], "raw_op_walls_s": walls,
        "kernels_s": record["kernels_s"], "setup_kernels_s": [r["setup_kernel_s"] for r in setups],
    }
    return result, summary, record.get("spans")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mklab", "__init__.py")):
        print(f"no mklab sources under {ROOT}/src", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, summary, spans = measure(args, work)
        if spans:
            shutil.move(spans, os.path.join(OUT_DIR, f"{name}-spans.json"))
    except (RunError, OSError, KeyError, ValueError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(OUT_DIR, f"{name}.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    print(f"workload {args.workload} seed {args.seed}: {summary['passes']} passes, "
          f"{summary['ops']} ops, closed loop, 1 client, 1 thread")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"  {'fail_ratio':40s} {summary['fail_ratio']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for line in summary["failures"] + summary["problems"]:
        print(f"  FAIL {line}")
    print("provenance " + json.dumps(summary["provenance"], sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
