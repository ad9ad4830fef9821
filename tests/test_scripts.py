"""The study and measurement scripts run to completion at small sizes."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from test_network_simplex import BENCHMARK_ENGINE_CALLS, MEASURE

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

#: A small run of each study script; `measure.py` has the tests below.
SCRIPT_RUNS = [
    ("budget_dual_study.py", ["--n", "12"]),
    ("rotation_value_study.py", ["--sizes", "12,13"]),
]

RECORD_KEYS = {"commit", "dirty", "date", "host", "cpu", "python", "numpy", "command",
               "columns", "rows"}


def run_script(script, *args, code=0):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, str(SCRIPTS / script), *map(str, args)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == code, run.stderr
    return run.stdout


def test_every_script_is_run_here():
    assert sorted(p.name for p in SCRIPTS.glob("*.py")) == sorted(
        [script for script, _ in SCRIPT_RUNS] + ["measure.py"])


@pytest.mark.parametrize("script, args", SCRIPT_RUNS)
def test_script_exits_zero(script, args):
    assert run_script(script, *args)


def git(root, *words):
    return subprocess.run(["git", "-C", str(root), *words], capture_output=True, text=True,
                          check=False)


def tree_name(root):
    """What a record calls the source tree at ``root``: the commit checked
    out there, with "-dirty" when its src/ or scripts/ files differ from
    it, or its directory name when it is not a checkout."""
    run = git(root, "rev-parse", "--show-toplevel", "HEAD")
    top, _, head = run.stdout.partition("\n")
    if run.returncode or Path(top) != root:
        return root.name
    edits = git(root, "status", "--porcelain", "--untracked-files=no", "--", "src", "scripts")
    return head.strip() + ("-dirty" if edits.stdout.strip() else "")


def recorded(tmp_path, *args, trees=()):
    """The rows `measure.py` prints, and the one record it appends, whose
    command names each of the source ``trees`` in ``args`` by `tree_name`,
    alone or after ``--option=``."""
    bench = tmp_path / "bench.json"
    bench.write_text('{"earlier": "record"}\n')
    header, *rows = [line.split() for line in run_script(
        "measure.py", *args, "--record", bench).splitlines()]
    earlier, entry = [json.loads(line) for line in bench.read_text().splitlines()]
    assert earlier == {"earlier": "record"}
    assert set(entry) == RECORD_KEYS
    names = {str(tree): tree_name(tree) for tree in trees}
    names.update({f"--parent={tree}": f"--parent={name}" for tree, name in names.items()})
    assert entry["command"] == ["scripts/measure.py", *(names.get(a, a) for a in args),
                                "--record", str(bench)]
    assert entry["columns"] == header
    # the record keeps each printed row, its times unrounded
    for printed, kept in zip(rows, entry["rows"], strict=True):
        assert len(printed) == len(kept)
        assert [p for p, v in zip(printed, kept) if not isinstance(v, float)] == [
            str(v) for v in kept if not isinstance(v, float)]
    return dict(zip(header, zip(*rows))), entry


def test_measure_engine_records(tmp_path):
    columns, entry = recorded(tmp_path, "engine", "--sizes", "12,13")
    # first the benchmark's engine calls with their pinned counters, then the
    # primal program of each generated size
    assert columns["call"] == (*BENCHMARK_ENGINE_CALLS, "gen-ex33-12", "gen-ex33-13",
                               "gen-explicit-12", "gen-explicit-13")
    for row, (*counters, _) in zip(entry["rows"], BENCHMARK_ENGINE_CALLS.values()):
        assert row[2:6] == counters
    assert all(float(t) >= 0.0 for t in columns["cpu_s"] + columns["match_s"])


def test_measure_engine_times_a_parent_engine_too(tmp_path):
    columns, entry = recorded(tmp_path, "engine", "--sizes", "12", f"--parent={ROOT}",
                              trees=[ROOT])
    assert not any(str(ROOT) in word for word in entry["command"])
    assert columns["call"] == (*BENCHMARK_ENGINE_CALLS, "gen-ex33-12", "gen-explicit-12")
    for row, (*counters, _) in zip(entry["rows"], BENCHMARK_ENGINE_CALLS.values()):
        assert row[2:6] == counters
        cpu, parent_cpu, parent_match, ratio, q1, q3, verdict, rounds = row[6], *row[8:]
        assert parent_match >= 0.0 and rounds >= MEASURE["ENGINE_AB_ROUNDS"]
        # the median and quartiles of the rounds' paired quotients
        assert cpu > 0.0 and parent_cpu > 0.0 and 0.0 < q1 <= ratio <= q3
        # faster or slower only when the quartiles lie on one side of 1
        assert verdict == ("faster" if q3 < 1.0 else "slower" if q1 > 1.0 else "unresolved")


@pytest.mark.parametrize("durations, rounds", [((0.25, 0.5), 7), ((1 / 64, 3 / 128), 52)])
def test_engine_rounds_fill_a_budget(durations, rounds):
    # Two calls whose timings are fixed on a clock of their own: at least 7
    # rounds, and more until the timings fill the budget of 2 s (52 rounds
    # of 5/128 s, sums exact in binary), the first call going first in even
    # rounds and second in odd ones.
    now, order = [0.0], []

    def timed(side):
        def call():
            order.append(side)
            now[0] += durations[side]
        return call

    assert (MEASURE["ENGINE_AB_ROUNDS"], MEASURE["ENGINE_AB_BUDGET_S"]) == (7, 2.0)
    times = MEASURE["alternated"]((timed(0), timed(1)), lambda: now[0])
    assert times == ([durations[0]] * rounds, [durations[1]] * rounds)
    assert order == [0, 1, 1, 0] * (rounds // 2) + [0, 1] * (rounds % 2)


def test_measure_write_records(tmp_path):
    columns, entry = recorded(tmp_path, "write", "--sizes", "12,13", "--repeat", "2")
    assert columns["n"] == ("12", "13")
    assert all(isinstance(row[2], int) and isinstance(row[4], int) and row[4] > row[2]
               for row in entry["rows"])


#: The ops of each benchmark workload, in the order `measure.py ab` prints them.
WORKLOAD_OPS = {
    "ex33-primal": ["solve-primal"],
    "explicit-io": ["solve-restricted", "solve-primal", "solve-partial"],
    "dual-side": ["sweep-epsilon-dual", "diagnose-bound", "solve-relaxed-dual-0.01",
                  "solve-relaxed-dual-0.001", "solve-dual"],
}


def test_measure_ab_compares_the_repo_with_itself():
    for workload, ops in WORKLOAD_OPS.items():
        lines = run_script("measure.py", "ab", ROOT, ROOT, "--workload", workload,
                           "--rounds", "1").splitlines()
        assert [line.split()[0] for line in lines[2:]] == ops + ["all"]
        assert all(line.endswith("same") for line in lines[2:-1])


def test_measure_ab_records_its_trees_by_name(tmp_path):
    # a copy of the source that is not a checkout goes by its directory
    # name, and a checkout with an edit by its commit marked dirty
    copy, checkout = tmp_path / "copy", tmp_path / "checkout"
    skip = shutil.ignore_patterns("__pycache__")
    for tree in (copy, checkout):
        shutil.copytree(ROOT / "src", tree / "src", ignore=skip)
    # the second tree's workloads are the ones run
    shutil.copytree(ROOT / "perfbench", checkout / "perfbench", ignore=skip)
    assert not git(checkout, "init", "-q").returncode
    assert not git(checkout, "add", "src").returncode
    assert not git(checkout, "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q",
                   "-m", "src").returncode
    head = git(checkout, "rev-parse", "HEAD").stdout.strip()
    with open(checkout / "src" / "mklab" / "__init__.py", "a", encoding="utf-8") as fh:
        fh.write("# edited\n")
    bench = tmp_path / "bench.json"
    args = ["--workload", "ex33-primal", "--rounds", "1", "--record", str(bench)]
    run_script("measure.py", "ab", copy, checkout, *args)
    [entry] = [json.loads(line) for line in bench.read_text().splitlines()]
    assert entry["command"] == ["scripts/measure.py", "ab", "copy", f"{head}-dirty", *args]
    assert (tree_name(copy), tree_name(checkout)) == ("copy", f"{head}-dirty")


def test_measure_ab_exits_one_when_bytes_differ(tmp_path):
    # a tree whose results end in one more byte
    shutil.copytree(ROOT / "src", tmp_path / "src")
    with open(tmp_path / "src" / "mklab" / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n_write_text = (lambda write: lambda path, text: write(path, text + ' '))"
                 "(_write_text)\n")
    lines = run_script("measure.py", "ab", tmp_path, ROOT, "--workload", "ex33-primal",
                       "--rounds", "1", code=1).splitlines()
    assert lines[2].startswith("solve-primal") and lines[2].endswith("DIFFER")
