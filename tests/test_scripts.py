"""The study and measurement scripts run to completion at small sizes."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args", [
    ("budget_dual_study.py", ["--n", "12"]),
    ("rotation_value_study.py", ["--sizes", "12,13"]),
    ("engine_scaling.py", ["--sizes", "12,13"]),
    ("write_scaling.py", ["--sizes", "12,13", "--repeat", "2"]),
])
def test_script_exits_zero(script, args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout
    if script == "engine_scaling.py":
        # every row times the matched start in the last column
        header, *rows = [line.split() for line in run.stdout.splitlines()]
        assert header[-1] == "match_s" and len(rows) == 6
        assert all(len(row) == len(header) and float(row[-1]) >= 0.0 for row in rows)


#: The ops of each benchmark workload, in the order `ab_ops.py` prints them.
WORKLOAD_OPS = {
    "ex33-primal": ["solve-primal"],
    "explicit-io": ["solve-restricted", "solve-primal", "solve-partial"],
    "dual-side": ["sweep-epsilon-dual", "diagnose-bound", "solve-relaxed-dual-0.01",
                  "solve-relaxed-dual-0.001", "solve-dual"],
}


def test_ab_ops_compares_the_repo_with_itself():
    for workload, ops in WORKLOAD_OPS.items():
        run = subprocess.run([sys.executable, str(ROOT / "scripts" / "ab_ops.py"), str(ROOT),
                              str(ROOT), "--workload", workload, "--rounds", "1"],
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        lines = run.stdout.splitlines()
        assert [line.split()[0] for line in lines[2:]] == ops + ["all"]
        assert all(line.endswith("same") for line in lines[2:-1])
