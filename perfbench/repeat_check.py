"""Check that the machine-independent counters repeat exactly.

    python3 perfbench/repeat_check.py --workload NAME --seed N

Runs the traced benchmark twice with the same seed and compares every
per-layer metric counted in `count` or `B` (pivots, iterations, arcs,
nodes, tableau cells, bytes in and out, computed scans and bytes moved).
They depend only on the code and the seed, so a pivot regression shows
whatever the host noise.  Exits 1 when any of them differs.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_counters(workload: str, seed: int, counters: list) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} was not correct:\n{proc.stdout}")
    return {name: result["metrics"][name]["value"] for name in counters}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        specs = json.load(fh)["per_layer"]
    counters = [s["name"] for s in specs if s["unit"] in ("count", "B")]
    first = traced_counters(args.workload, args.seed, counters)
    second = traced_counters(args.workload, args.seed, counters)
    differ = [name for name in counters if first[name] != second[name]]
    for name in counters:
        mark = "DIFFERS" if name in differ else "same"
        print(f"{name:40s} {first[name]!r:>16} {second[name]!r:>16} {mark}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
