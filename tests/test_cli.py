import csv
import math
import warnings

import numpy as np
import pytest

from mklab import cli, fileformats, network_simplex, solvers
from mklab.cli import _fmt, main
from mklab.core import MAX_SIDE, InvariantError
from mklab.diagnostics import singular_mass_estimate
from mklab.fileformats import (
    FileFormatError,
    dumps_canonical,
    materialize,
    parse_instance,
    parse_result,
)


def write_instance(path, doc):
    path.write_text(dumps_canonical(doc))
    return str(path)


@pytest.fixture
def ap_instance(tmp_path):
    return write_instance(tmp_path / "ap.json",
                          {"schema_version": 1, "kind": "ap", "n": 8,
                           "shift": "auto-golden", "k_max": 5})


@pytest.fixture
def explicit_instance(tmp_path):
    return write_instance(tmp_path / "flat.json",
                          {"schema_version": 1, "kind": "explicit",
                           "cost": [[0.0, 1.0], [1.0, 0.0]],
                           "mu": [0.5, 0.5], "nu": [0.5, 0.5]})


class TestSolve:
    def test_ap_primal_is_one(self, ap_instance, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["solve", ap_instance, "--problem", "primal",
                     "--out", str(out)]) == 0
        doc = parse_result(out.read_text())
        assert doc["primal_value"] == pytest.approx(1.0, abs=1e-9)
        assert "primal value" in capsys.readouterr().out

    @pytest.mark.parametrize("problem", ["primal", "dual", "relaxed-dual:0.01"])
    def test_no_result_document_without_out(self, ap_instance, tmp_path, monkeypatch,
                                            capsys, problem):
        def refuse(*args, **kwargs):
            raise AssertionError("a result was built with no --out to write it to")

        monkeypatch.setattr(fileformats, "result_document", refuse)
        monkeypatch.setattr(fileformats, "serialize_result", refuse)
        before = sorted(tmp_path.iterdir())
        monkeypatch.chdir(tmp_path)
        assert main(["solve", ap_instance, "--problem", problem]) == 0
        out = capsys.readouterr().out
        assert f"problem        {problem}" in out and "primal value" in out
        assert "result " not in out
        assert sorted(tmp_path.iterdir()) == before

    def test_explicit_zero_diagonal(self, explicit_instance, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", explicit_instance, "--problem", "primal",
                     "--out", str(out)]) == 0
        assert parse_result(out.read_text())["primal_value"] == pytest.approx(0.0)

    def test_partial_eps_one_is_zero(self, explicit_instance, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", explicit_instance, "--problem", "partial:1.0",
                     "--out", str(out)]) == 0
        assert parse_result(out.read_text())["primal_value"] == pytest.approx(0.0)

    def test_restricted_needs_reference(self, explicit_instance):
        assert main(["solve", explicit_instance, "--problem", "restricted"]) == 1

    def test_restricted_with_reference(self, tmp_path):
        inst = write_instance(tmp_path / "withref.json",
                              {"schema_version": 1, "kind": "explicit",
                               "cost": [[0.0, 1.0], [1.0, 0.0]],
                               "mu": [0.5, 0.5], "nu": [0.5, 0.5],
                               "pi0": [[0.0, 0.5], [0.5, 0.0]]})
        out = tmp_path / "res.json"
        assert main(["solve", inst, "--problem", "restricted", "--out", str(out)]) == 0
        assert parse_result(out.read_text())["primal_value"] == pytest.approx(1.0)

    def test_relaxed_dual(self, ap_instance, tmp_path):
        out = tmp_path / "res.json"
        assert main(["solve", ap_instance, "--problem", "relaxed-dual:0.01",
                     "--out", str(out)]) == 0
        doc = parse_result(out.read_text())
        assert doc["dual_value"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_relaxed_dual_non_finite_budget(self, ap_instance, capsys, eps):
        assert main(["solve", ap_instance, "--problem", f"relaxed-dual:{eps}"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_tol_is_echoed_under_both_config_keys(self, ap_instance, tmp_path, capsys):
        out = tmp_path / "res.json"
        assert main(["solve", ap_instance, "--problem", "primal", "--out", str(out)]) == 0
        assert parse_result(out.read_text())["config"] == {
            "feasibility_tol": 1e-09, "optimality_tol": 1e-09, "max_iterations": 1000000}
        # the engine tolerance is fixed: there is no flag to set it
        assert main(["solve", ap_instance, "--problem", "primal", "--tol", "1e-7"]) == 1
        assert capsys.readouterr().err.startswith("usage error: ")

    def test_infeasible_exit_code(self, tmp_path):
        inst = write_instance(tmp_path / "bad.json",
                              {"schema_version": 1, "kind": "explicit",
                               "cost": [["inf", "inf"], [1.0, 1.0]],
                               "mu": [0.5, 0.5], "nu": [0.5, 0.5]})
        assert main(["solve", inst, "--problem", "primal"]) == 2

    def test_iteration_limit_exit_code(self, ap_instance, monkeypatch):
        monkeypatch.setattr(network_simplex, "MAX_ITERATIONS", 2)
        assert main(["solve", ap_instance, "--problem", "primal"]) == 3

    def test_malformed_json_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"schema_version": 1,\n  "kind": }')
        assert main(["solve", str(path), "--problem", "primal"]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["solve", str(tmp_path / "nope.json"), "--problem", "primal"]) == 1

    def test_bad_problem_name(self, explicit_instance):
        assert main(["solve", explicit_instance, "--problem", "dual:0.3"]) == 1
        assert main(["solve", explicit_instance, "--problem", "wat"]) == 1

    @pytest.mark.parametrize("problem", ["primal:", "dual:", "restricted:"])
    def test_empty_parameter_is_still_a_parameter(self, explicit_instance, tmp_path, capsys,
                                                  problem):
        out = tmp_path / "res.json"
        assert main(["solve", explicit_instance, "--problem", problem,
                     "--out", str(out)]) == 1
        name = problem.rstrip(":")
        assert capsys.readouterr().err == f"usage error: problem {name} takes no parameter\n"
        assert not out.exists()

    @pytest.mark.parametrize("problem,message", [
        ("partial", "usage error: problem partial needs a parameter, e.g. partial:0.1"),
        ("partial:", "usage error: problem partial needs a parameter, e.g. partial:0.1"),
        ("partial:abc", "usage error: bad epsilon 'abc'"),
        ("partial:1.5", "error: eps must lie in [0, 1], got 1.5")])
    def test_bad_partial_parameter(self, explicit_instance, tmp_path, capsys, problem,
                                   message):
        out = tmp_path / "res.json"
        assert main(["solve", explicit_instance, "--problem", problem,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    def test_out_into_a_missing_directory(self, explicit_instance, tmp_path, capsys):
        out = tmp_path / "missing" / "res.json"
        assert main(["solve", explicit_instance, "--problem", "primal",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("i/o error: [Errno 2] No such file")
        assert not out.parent.exists()

    def test_reference_plan_must_carry_mass_one(self, tmp_path, capsys):
        inst = write_instance(tmp_path / "halfref.json",
                              {"schema_version": 1, "kind": "explicit",
                               "cost": [[0.0, 1.0], [1.0, 0.0]],
                               "mu": [0.5, 0.5], "nu": [0.5, 0.5],
                               "pi0": [[0.25, 0.0], [0.0, 0.25]]})
        assert main(["solve", inst, "--problem", "restricted"]) == 1
        assert capsys.readouterr().err == "error: reference plan must carry total mass 1\n"

    @pytest.mark.parametrize("kind,field,value,message", [
        ("ap", "n", 12.0, "n must be an integer"),
        ("ap", "n", "12", "n must be an integer"),
        ("ap", "shift", 2.5, 'shift must be an integer or "auto-golden"'),
        ("ex33", "shift", True, 'shift must be an integer or "auto-golden"'),
        ("ap", "k_max", 3.0, "k_max must be an integer"),
        ("ex33", "k_max", "5", "k_max must be an integer"),
        ("ap", "k_max", 12, "k_max must lie in [1, 11]"),
        ("ap", "k_max", 0, "k_max must lie in [1, 11]"),
        ("ex33", "k_max", 12, "k_max must lie in [0, 11]"),
        ("ex33", "k_max", -1, "k_max must lie in [0, 11]")])
    def test_bad_rotation_instance_field(self, tmp_path, capsys, kind, field, value,
                                         message):
        doc = {"schema_version": 1, "kind": kind, "n": 12, "shift": "auto-golden"}
        doc[field] = value
        inst = write_instance(tmp_path / "bad.json", doc)
        assert main(["solve", inst, "--problem", "primal"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDeterminism:
    def test_result_bytes_stable(self, ap_instance, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(["solve", ap_instance, "--problem", "primal", "--out", str(out1)]) == 0
        assert main(["solve", ap_instance, "--problem", "primal", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("size", [1, 7, 1 << 18])
    def test_result_written_in_slices_keeps_its_text(self, ap_instance, tmp_path,
                                                     monkeypatch, size):
        texts = []
        serialize = fileformats.serialize_result

        def keep(doc):
            texts.append(serialize(doc))
            return texts[-1]
        monkeypatch.setattr(fileformats, "serialize_result", keep)
        monkeypatch.setattr(cli, "WRITE_SLICE", size)
        out = tmp_path / "res.json"
        assert main(["solve", ap_instance, "--problem", "primal", "--out", str(out)]) == 0
        assert out.read_bytes() == texts[0].encode()


class TestReferencePlanOnDemand:
    """Only the commands that read a rotation instance's reference plan build it."""

    @pytest.fixture
    def rotation_instances(self, tmp_path):
        return [write_instance(tmp_path / f"{kind}.json",
                               {"schema_version": 1, "kind": kind, "n": 12,
                                "shift": "auto-golden"})
                for kind in ("ap", "ex33")]

    @staticmethod
    def count_builds(monkeypatch, fail: bool) -> list:
        built = []
        for name in ("graph_mixture_plan", "shift_graph_plan"):
            real = getattr(fileformats, name)

            def builder(*args, _name=name, _real=real, **kwargs):
                built.append(_name)
                if fail:
                    raise AssertionError(f"{_name} was called")
                return _real(*args, **kwargs)
            monkeypatch.setattr(fileformats, name, builder)
        return built

    def test_primal_builds_no_reference(self, rotation_instances, tmp_path, monkeypatch):
        out = tmp_path / "res.json"
        expected = []
        for path in rotation_instances:
            assert main(["solve", path, "--problem", "primal", "--out", str(out)]) == 0
            expected.append(out.read_bytes())
        self.count_builds(monkeypatch, fail=True)
        for path, text in zip(rotation_instances, expected):
            assert main(["solve", path, "--problem", "primal", "--out", str(out)]) == 0
            assert out.read_bytes() == text

    def test_restricted_builds_the_reference(self, rotation_instances, tmp_path,
                                             monkeypatch):
        built = self.count_builds(monkeypatch, fail=False)
        for path in rotation_instances:
            assert main(["solve", path, "--problem", "restricted",
                         "--out", str(tmp_path / "res.json")]) == 0
        assert built == ["shift_graph_plan", "graph_mixture_plan"]

    def test_invalid_pi0_fails_primal_at_load(self, tmp_path, capsys, monkeypatch):
        inst = write_instance(tmp_path / "bad.json",
                              {"schema_version": 1, "kind": "explicit",
                               "cost": [[0.0, 1.0], [1.0, 0.0]],
                               "mu": [0.5, 0.5], "nu": [0.5, 0.5],
                               "pi0": [[0.0, -0.5], [0.5, 0.0]]})

        def no_solve(*args, **kwargs):
            raise AssertionError("solved an instance with an invalid pi0")
        monkeypatch.setattr(network_simplex, "solve_bipartite", no_solve)
        assert main(["solve", inst, "--problem", "primal"]) == 1
        assert capsys.readouterr().err.startswith("error: invalid explicit instance")


def test_cli_runs_leave_numpy_ma_unloaded(tmp_path):
    """numpy.ma costs a fresh CLI process about 2 MiB of peak RSS; no solve path may load it."""
    import subprocess
    import sys

    ap, out = tmp_path / "ap.json", tmp_path / "out"
    probe = f"""
import sys
from mklab import cli
runs = [["gen", "--kind", "ap", "--n", "12", "--out", {str(ap)!r}],
        ["solve", {str(ap)!r}, "--problem", "primal", "--out", {str(out)!r} + ".json"],
        ["sweep", {str(ap)!r}, "--sweep", "epsilon-primal", "--grid", "0.1,0.01",
         "--out", {str(out)!r} + ".csv"],
        ["solve", {str(ap)!r}, "--problem", "relaxed-dual:0.01", "--out", {str(out)!r} + ".json"]]
print([cli.main(argv) for argv in runs], "numpy.ma" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True)
    assert done.stdout.strip().splitlines()[-1] == "[0, 0, 0, 0] False"


class TestSweep:
    def test_epsilon_primal(self, explicit_instance, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", explicit_instance, "--sweep", "epsilon-primal",
                     "--grid", "0.1,0.01,0.001", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4  # grid plus extrapolated row
        assert rows[-1]["parameter"] == "0.0"
        assert float(rows[-1]["value"]) == pytest.approx(0.0, abs=1e-6)
        values = [float(r["value"]) for r in rows[:-1]]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_epsilon_dual_extrapolates_to_restricted(self, tmp_path):
        inst = write_instance(tmp_path / "ex33.json",
                              {"schema_version": 1, "kind": "ex33", "n": 12,
                               "shift": 5, "k_max": 11})
        out = tmp_path / "dual.csv"
        assert main(["sweep", inst, "--sweep", "epsilon-dual",
                     "--grid", "0.1,0.01,0.001,0.0001", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        restricted = tmp_path / "restricted.json"
        assert main(["solve", inst, "--problem", "restricted",
                     "--out", str(restricted)]) == 0
        expected = parse_result(restricted.read_text())["primal_value"]
        assert float(rows[-1]["value"]) == pytest.approx(expected, abs=1e-5)

    def test_n_scaling_nonincreasing(self, tmp_path):
        inst = write_instance(tmp_path / "ex33.json",
                              {"schema_version": 1, "kind": "ex33", "n": 12,
                               "shift": "auto-golden", "k_max": 11})
        out = tmp_path / "scale.csv"
        assert main(["sweep", inst, "--sweep", "n-scaling",
                     "--grid", "8,12,16", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        values = [float(r["value"]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(values, values[1:]))

    def test_bad_grid(self, explicit_instance, tmp_path):
        assert main(["sweep", explicit_instance, "--sweep", "epsilon-primal",
                     "--grid", "0.001,0.1", "--out", str(tmp_path / "x.csv")]) == 1

    def test_grid_of_non_numbers(self, ap_instance, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", ap_instance, "--sweep", "epsilon-dual",
                     "--grid", "0.1,abc", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: bad grid '0.1,abc': could not convert string to float: 'abc'\n")
        assert not out.exists()

    def test_n_scaling_needs_a_rotation_instance(self, explicit_instance, tmp_path, capsys):
        out = tmp_path / "scale.csv"
        assert main(["sweep", explicit_instance, "--sweep", "n-scaling",
                     "--grid", "8,12", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: n-scaling needs an ap or ex33 instance\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["8.9,12.2", "8,12.5", "4.0000001,8"])
    def test_n_scaling_rejects_non_integer_sizes(self, ap_instance, tmp_path, capsys, grid):
        out = tmp_path / "scale.csv"
        assert main(["sweep", ap_instance, "--sweep", "n-scaling",
                     "--grid", grid, "--out", str(out)]) == 1
        assert "integers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.1,nan", "inf,0.1", ","])
    def test_epsilon_dual_bad_grid(self, ap_instance, tmp_path, capsys, grid):
        assert main(["sweep", ap_instance, "--sweep", "epsilon-dual",
                     "--grid", grid, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_epsilon_primal_accepts_eps_one(self, explicit_instance, tmp_path):
        out = tmp_path / "x.csv"
        assert main(["sweep", explicit_instance, "--sweep", "epsilon-primal",
                     "--grid", "1,0.5", "--out", str(out)]) == 0
        assert float(next(csv.DictReader(out.open()))["value"]) == pytest.approx(0.0)


def load_problem(path):
    with open(path, encoding="utf-8") as fh:
        return materialize(parse_instance(fh.read()))


LIBRARY_SWEEPS = {
    "estimate_relaxed_primal": lambda p, grid: solvers.estimate_relaxed_primal(
        p.cost, p.mu, p.nu, grid),
    "relaxed_dual_sweep": lambda p, grid: solvers.relaxed_dual_sweep(
        p.cost, p.mu, p.nu, p.reference_plan, grid),
    "dual_sequence": lambda p, grid: solvers.dual_sequence(
        p.cost, p.mu, p.nu, p.reference_plan, grid),
}
CLI_SWEEPS = {
    "sweep epsilon-primal": ("sweep", "--sweep", "epsilon-primal"),
    "sweep epsilon-dual": ("sweep", "--sweep", "epsilon-dual"),
    "diagnose bound": ("diagnose", "--diag", "bound"),
}


class TestEpsilonGrids:
    @pytest.mark.parametrize("grid", ["0.5,0", "4,2,1", "0.1,nan", "inf,0.1",
                                      "0.01,0.1", ","])
    @pytest.mark.parametrize("entry", [*LIBRARY_SWEEPS, *CLI_SWEEPS])
    def test_bad_grid_rejected_before_any_solve(self, ap_instance, tmp_path, capsys,
                                                monkeypatch, entry, grid):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the grid was checked")

        monkeypatch.setattr(solvers, "solve_partial", no_solve)
        monkeypatch.setattr(solvers, "solve_relaxed_dual", no_solve)
        monkeypatch.setattr(network_simplex, "solve_bipartite", no_solve)
        if entry in LIBRARY_SWEEPS:
            values = [float(v) for v in grid.split(",") if v]
            with pytest.raises(InvariantError, match="epsilons must"):
                LIBRARY_SWEEPS[entry](load_problem(ap_instance), values)
        else:
            command, *flags = CLI_SWEEPS[entry]
            assert main([command, ap_instance, *flags, "--grid", grid,
                         "--out", str(tmp_path / "x.csv")]) == 1
            assert "epsilons must" in capsys.readouterr().err

    def test_relaxed_primal_accepts_eps_one(self, ap_instance):
        p = load_problem(ap_instance)
        sweep = solvers.estimate_relaxed_primal(p.cost, p.mu, p.nu, (1, 0.5))
        assert sweep.epsilons == (1.0, 0.5)

    @pytest.mark.parametrize("kind,entry", [("epsilon-primal", "estimate_relaxed_primal"),
                                            ("epsilon-dual", "relaxed_dual_sweep")])
    def test_cli_sweep_matches_library(self, tmp_path, kind, entry):
        inst = write_instance(tmp_path / "ex33.json",
                              {"schema_version": 1, "kind": "ex33", "n": 12,
                               "shift": 5, "k_max": 11})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", inst, "--sweep", kind, "--grid", "0.1,0.01,0.001",
                     "--out", str(out)]) == 0
        sweep = LIBRARY_SWEEPS[entry](load_problem(inst), (0.1, 0.01, 0.001))
        rows = list(csv.DictReader(out.open()))
        assert [r["parameter"] for r in rows] == [_fmt(e) for e in sweep.epsilons] + ["0.0"]
        assert [r["value"] for r in rows] == (
            [_fmt(v) for v in sweep.values] + [_fmt(sweep.limit)])


class TestDiagnose:
    def test_ccm_passes_on_lp_output(self, explicit_instance, tmp_path):
        out = tmp_path / "ccm.csv"
        assert main(["diagnose", explicit_instance, "--diag", "ccm",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["passed"] == "true"

    def test_ccm_takes_no_grid(self, explicit_instance, tmp_path, capsys):
        out = tmp_path / "ccm.csv"
        assert main(["diagnose", explicit_instance, "--diag", "ccm",
                     "--grid", "0.1,banana", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: the ccm diagnostic takes no --grid\n"
        assert not out.exists()

    def test_bound_table_all_pass(self, ap_instance, tmp_path):
        out = tmp_path / "bound.csv"
        assert main(["diagnose", ap_instance, "--diag", "bound",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 10  # two sequence entries, k = 1..5
        assert all(r["passed"] == "true" for r in rows)

    def test_bound_solves_the_restricted_program_once(self, ap_instance, tmp_path,
                                                      monkeypatch):
        engine = network_simplex.solve_bipartite
        solves = []

        def counted(*args, **kwargs):
            solves.append(1)
            return engine(*args, **kwargs)

        monkeypatch.setattr(network_simplex, "solve_bipartite", counted)
        assert main(["diagnose", ap_instance, "--diag", "bound",
                     "--out", str(tmp_path / "bound.csv")]) == 0
        assert len(solves) == 1  # one per budget before the solves were shared

    def test_bound_reads_k_max_from_the_instance(self, tmp_path):
        inst = write_instance(tmp_path / "ap3.json",
                              {"schema_version": 1, "kind": "ap", "n": 8,
                               "shift": "auto-golden", "k_max": 3})
        out = tmp_path / "bound.csv"
        assert main(["diagnose", inst, "--diag", "bound", "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [(r["sequence_index"], r["k"]) for r in rows] == [
            (str(i), str(k)) for i in range(2) for k in range(1, 4)]
        assert main(["diagnose", inst, "--diag", "bound", "--k-max", "2",
                     "--out", str(out)]) == 1

    def test_bound_requires_ap(self, explicit_instance, tmp_path):
        assert main(["diagnose", explicit_instance, "--diag", "bound",
                     "--out", str(tmp_path / "x.csv")]) == 1

    def test_singular_profile(self, tmp_path):
        inst = write_instance(tmp_path / "ex33.json",
                              {"schema_version": 1, "kind": "ex33", "n": 12,
                               "shift": 5, "k_max": 11})
        out = tmp_path / "singular.csv"
        assert main(["diagnose", inst, "--diag", "singular",
                     "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        kinds = {r["record"] for r in rows}
        assert {"l1_distance", "positive_part", "small_set", "estimate"} <= kinds

    def test_singular_on_ap_measures_against_the_cost(self, ap_instance, tmp_path):
        out = tmp_path / "singular.csv"
        assert main(["diagnose", ap_instance, "--diag", "singular",
                     "--out", str(out)]) == 0
        p = load_problem(ap_instance)
        pots = solvers.dual_sequence(p.cost, p.mu, p.nu, p.reference_plan,
                                     cli.DEFAULT_SINGULAR_EPS)
        diag = singular_mass_estimate(p.reference_plan, pots, p.cost.entries,
                                      cli.DEFAULT_DELTAS)
        rows = [(r["record"], r["value"]) for r in csv.DictReader(out.open())]
        assert rows == (
            [("l1_distance", _fmt(v)) for v in diag.l1_distances_to_limit]
            + [("positive_part", _fmt(v)) for v in diag.positive_part_norms]
            + [("small_set", _fmt(v)) for _, v in diag.small_set_profile]
            + [("estimate", _fmt(diag.singular_mass_estimate))])

    @pytest.mark.parametrize("grid", ["0.5,nan", "inf,0.5", "0.5,-inf"])
    def test_singular_rejects_non_finite_deltas(self, tmp_path, capsys, grid):
        inst = write_instance(tmp_path / "ex33.json",
                              {"schema_version": 1, "kind": "ex33", "n": 12,
                               "shift": 5, "k_max": 11})
        out = tmp_path / "singular.csv"
        assert main(["diagnose", inst, "--diag", "singular", "--grid", grid,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: deltas must be positive and finite\n"
        assert not out.exists()

    @pytest.mark.parametrize("grid,message", [
        ("0.5,nan", "deltas must be positive and finite"),
        ("0.1,0.5", "deltas must be strictly decreasing"),
        (",", "empty delta grid")])
    def test_singular_deltas_checked_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                      grid, message):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the deltas were checked")

        monkeypatch.setattr(network_simplex, "solve_bipartite", no_solve)
        inst = write_instance(tmp_path / "ex33.json",
                              {"schema_version": 1, "kind": "ex33", "n": 12,
                               "shift": 5, "k_max": 11})
        assert main(["diagnose", inst, "--diag", "singular", "--grid", grid,
                     "--out", str(tmp_path / "singular.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestGen:
    def test_gen_ap_then_solve(self, tmp_path):
        inst = tmp_path / "gen.json"
        assert main(["gen", "--kind", "ap", "--n", "8", "--out", str(inst)]) == 0
        assert parse_instance(inst.read_text()).shift == "auto-golden"
        out = tmp_path / "res.json"
        assert main(["solve", str(inst), "--problem", "primal", "--out", str(out)]) == 0
        assert parse_result(out.read_text())["primal_value"] == pytest.approx(1.0)

    def test_gen_explicit_template(self, tmp_path):
        inst = tmp_path / "flat.json"
        assert main(["gen", "--kind", "explicit", "--out", str(inst)]) == 0
        text = inst.read_text()
        assert '"inf"' in text
        assert main(["solve", str(inst), "--problem", "primal"]) == 0

    def test_gen_seeded_explicit_is_solvable(self, tmp_path):
        inst = tmp_path / "rand.json"
        assert main(["gen", "--kind", "explicit", "--n", "5", "--seed", "7",
                     "--out", str(inst)]) == 0
        assert main(["solve", str(inst), "--problem", "dual"]) == 0

    def test_gen_explicit_n_needs_seed(self, tmp_path, capsys):
        out = tmp_path / "rand.json"
        assert main(["gen", "--kind", "explicit", "--n", "5", "--out", str(out)]) == 1
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n", ["-3", "0", str(MAX_SIDE + 1)])
    def test_gen_explicit_size_out_of_range_is_a_usage_error(self, tmp_path, capsys,
                                                               monkeypatch, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("the matrix was drawn before its size was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        out = tmp_path / "rand.json"
        assert main(["gen", "--kind", "explicit", "--n", n, "--seed", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"usage error: --n must lie in [1, {MAX_SIDE}], got {n}\n")
        assert not out.exists()

    @pytest.mark.parametrize("n", ["1", str(MAX_SIDE)])
    def test_gen_explicit_size_bounds_are_accepted(self, tmp_path, monkeypatch, n):
        out = tmp_path / "rand.json"
        # the largest size is checked without writing its 4 million cells
        monkeypatch.setattr(cli.fileformats, "dumps_canonical", lambda doc: "")
        assert main(["gen", "--kind", "explicit", "--n", n, "--seed", "1",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("kind", ["explicit", "ap", "ex33"])
    def test_gen_negative_seed_is_a_usage_error(self, tmp_path, capsys, kind):
        out = tmp_path / "inst.json"
        assert main(["gen", "--kind", kind, "--n", "6", "--seed", "-1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: --seed must be nonnegative, got -1\n"
        assert not out.exists()

    def test_gen_seed_zero_is_accepted(self, tmp_path):
        out = tmp_path / "inst.json"
        assert main(["gen", "--kind", "explicit", "--n", "3", "--seed", "0",
                     "--out", str(out)]) == 0
        assert main(["solve", str(out), "--problem", "primal"]) == 0

    def test_gen_needs_n_for_rotation(self):
        assert main(["gen", "--kind", "ex33"]) == 1

    @pytest.mark.parametrize("flags", [["--shift", "5"], ["--k-max", "7"],
                                       ["--k-max", "7", "--shift", "5"]])
    def test_gen_explicit_rejects_rotation_flags(self, tmp_path, capsys, flags):
        out = tmp_path / "rand.json"
        assert main(["gen", "--kind", "explicit", "--seed", "1", "--n", "3", *flags,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "usage error: --shift and --k-max apply to ap and ex33 instances only\n")
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["abc", "2.5"])
    def test_gen_non_integer_shift_is_a_usage_error(self, tmp_path, capsys, shift):
        out = tmp_path / "ap.json"
        assert main(["gen", "--kind", "ap", "--n", "8", "--shift", shift,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("usage error: --shift must be an integer")
        assert not out.exists()

    def test_usage_error_is_exit_one(self):
        assert main(["solve"]) == 1
        assert main(["frobnicate"]) == 1


class TestOneParserPerProcess:
    def test_main_never_builds_a_parser(self, ap_instance, tmp_path, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1))
        assert main(["gen", "--kind", "ap", "--n", "8", "--out", str(tmp_path / "g.json")]) == 0
        assert main(["solve", ap_instance, "--problem", "primal"]) == 0
        assert main(["solve"]) == 1
        assert built == []

    def test_solve_without_out_after_one_with_it_writes_nothing(self, ap_instance, tmp_path,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "res.json"
        assert main(["solve", ap_instance, "--problem", "primal", "--out", str(out)]) == 0
        text = out.read_text()
        before = sorted(tmp_path.iterdir())
        assert main(["solve", ap_instance, "--problem", "dual"]) == 0
        assert sorted(tmp_path.iterdir()) == before
        assert out.read_text() == text

    def test_valid_call_after_a_usage_error(self, ap_instance, capsys):
        assert main(["solve", ap_instance, "--problem", "primal", "--bogus"]) == 1
        assert main(["sweep", ap_instance, "--sweep", "nope"]) == 1
        capsys.readouterr()
        assert main(["solve", ap_instance, "--problem", "primal"]) == 0
        assert "primal value" in capsys.readouterr().out

    def test_gen_then_solve(self, tmp_path):
        seeded, template = tmp_path / "seeded.json", tmp_path / "template.json"
        assert main(["gen", "--kind", "explicit", "--n", "5", "--seed", "7",
                     "--out", str(seeded)]) == 0
        # neither --n nor --seed carries over: this is the 2 x 2 template
        assert main(["gen", "--kind", "explicit", "--out", str(template)]) == 0
        assert parse_instance(template.read_text()).cost.shape == (2, 2)
        assert main(["solve", str(seeded), "--problem", "primal"]) == 0
        assert main(["solve", str(template), "--problem", "primal"]) == 0


def own_rule_fmt(value):
    """The CLI's own float rule before it took the result files' rule."""
    text = format(float(value), ".17g")
    if not any(ch in text for ch in ".eE") and "inf" not in text:
        text += ".0"
    return text


@pytest.mark.parametrize("value", [
    math.inf, -math.inf, -0.0, 0.0, 1e16, 1e17, 0.1, 1.0, -3.0, 2.5e16, 123456789012345678.0,
    1e-300, 5e-324, np.float64(0.1), np.float64(-1e16), 7])
def test_fmt_keeps_the_csv_text(value):
    assert _fmt(value) == own_rule_fmt(value)


def test_fmt_refuses_nan():
    with pytest.raises(FileFormatError, match="NaN"):
        _fmt(math.nan)


def generated_explicit(tmp_path, edit):
    """`mklab gen --kind explicit --n 3 --seed 2`, written back with ``edit`` applied."""
    path = tmp_path / "e3.json"
    assert main(["gen", "--kind", "explicit", "--n", "3", "--seed", "2", "--out", str(path)]) == 0
    doc = fileformats.loads_canonical(path.read_text())
    edit(doc)
    return write_instance(path, doc)


class TestHugeFiniteCost:
    @pytest.mark.parametrize("problem", ["primal", "dual", "partial:0.1"])
    def test_penalty_overflow_is_an_error(self, tmp_path, capsys, problem):
        def huge(doc):
            doc["cost"][0][0] = 1.7e308

        path = generated_explicit(tmp_path, huge)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no NaN or overflow warning on the way
            assert main(["solve", path, "--problem", problem]) == 1
        assert capsys.readouterr().err == (
            "error: arc costs sum to 1.7e+308: the artificial-arc penalty 3 * (1 + sum |c|) "
            "overflows float64 in the engine's potentials\n")


class TestMessagesPrintPythonFloats:
    @pytest.mark.parametrize("array, scale, message", [
        ("mu", 1.1, "error: invalid explicit instance: marginal mass {} is not 1 within 1e-12"),
        ("nu", 0.5, "error: invalid explicit instance: marginal mass {} is not 1 within 1e-12"),
        ("pi0", 2.0, "error: invalid explicit instance: plan mass {} exceeds 1"),
    ])
    def test_no_numpy_scalar_repr(self, tmp_path, capsys, array, scale, message):
        def rescale(doc):
            doc["pi0"] = [[1.0 / 9] * 3] * 3
            doc[array] = (np.array(doc[array]) * scale).tolist()

        path = generated_explicit(tmp_path, rescale)
        assert main(["solve", path, "--problem", "primal"]) == 1
        err = capsys.readouterr().err
        assert "np.float64(" not in err
        total = float(np.sum(fileformats.loads_canonical(open(path).read())[array]))
        assert err == message.format(repr(total)) + "\n"
