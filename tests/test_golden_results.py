"""Result files keep the exact bytes of earlier releases.

Criterion 8 only compares two runs of the same code, so a writer that
changed the bytes consistently would still pass it.  These digests pin
the bytes themselves: they are the sha256 of result files written by
the canonical writer before it formatted float rows in one pass.  The
instance files are written here with the standard ``json`` module, so
the digests do not rest on the writer under test.

The relaxed-dual digest was pinned again when that program moved to the
network engine: its optimal potentials are another vertex of the same
optimal face, and its iteration and pivot counts changed.  The
engine-independent facts of that file are asserted separately below.

The ex33 primal and relaxed-dual digests were pinned again when the
network simplex began from a matched start (sources and sinks of equal
mass paired).  The ex33 primal file now holds another optimal plan, a
primal value of exactly 1.0 (was 0.9999999999999999) and fewer
iterations and pivots (19/18, were 104/103); the relaxed-dual file
changed only in its counters (20/19, were 46/45).  The explicit
instance has no two equal masses, so its three files did not move.
The engine-independent facts of the ex33 primal file are asserted
below as well.

The ex33 primal digest was pinned again when the network simplex began
to prove a perfect matched start optimal by label correcting, before
any pivot.  The plan and the values did not move.  The potentials are
the same pair up to the rounding of the gauge: each 0.0 of the old
file is now -4.163336342344337e-17 in phi and 4.163336342344337e-17 in
psi, because the engine's pair already has sum(phi * mu) = 0 and the
gauge subtracts the rounding error of that sum (the old pair sat 1838
higher, where the sum rounded to an integer).  The iterations and
pivots are 3/0, were 19/18.

The ap relaxed-dual and explicit restricted digests were pinned again
when a program with no more arcs than nodes began from a spanning tree
of its arcs.  In the ap file only the counters moved: 20/19 -> 1/0.  The
explicit reference plan is a north-west-corner tree, which is the start
tree and is optimal at once (iterations and pivots 24/23 -> 1/0).  Its
basis is rooted elsewhere than the one the pivots ended on, so the exact
flow recovery sums in another order: six plan cells, in rows 0 to 4,
move by one or two units in the last place (at most 1.4e-17).  Every phi
moves by -2.842170943040401e-14 and every psi by +2.842170943040401e-14,
the same shift throughout, set by the gauge.  The dual value went
2.364430165671762 -> 2.3644301656717617 and the gap 1.33e-15 -> 1.78e-15;
the primal value kept its bytes.

The explicit primal and partial digests were pinned again when the
network simplex began to price the arcs in their input order, where it
had priced them in a scattered order.  The primal file holds the same
plan reached by other pivots: iterations and pivots 43/42 -> 47/46, and
the final basis sums the flows in another order, so eight plan cells
move by at most 8.3e-17 (one of 4.5e-4 by 1.7e-13 relative), every phi by
+1.1368683772161603e-13 and every psi by -1.1368683772161603e-13, one
shift set by the gauge.  The primal value went 0.6748165808219729 ->
0.6748165808219728, the dual value 0.674816580821961 ->
0.6748165808219612 and the gap 1.1879e-14 -> 1.1657e-14.  In the
partial file only the counters moved: 58/57 -> 49/48.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from mklab import (Marginal, ap_cost, ex33_cost, make_instance, mixture_plan,
                   shift_graph_plan)
from mklab.cli import main

from conftest import nw_corner

GOLDEN_SHA256 = {
    ("explicit", "primal"):
        "8dcca5306dbc35035d6bd91c41b33fe42af38c237df8bfacb0012ccef230b3ec",
    ("explicit", "restricted"):
        "fe22e180b278b76ab0f45731bf9a6725247311317ccb79ed7280411963c6583b",
    ("explicit", "partial:0.05"):
        "88d391227335492e1c46ba68e38c758fc0d10a2087b6f81e8e0fe7a0c612c37a",
    ("ex33", "primal"):
        "224adab5168f9ef6dec4c56686bcded4a2d6b58d72998b8ea09c73dd529809b4",
    ("ap", "relaxed-dual:0.01"):
        "a7e3116b84da23d763b887b59b4487b5de32f58ace7c2815d7eeef0effd3275e",
}


def explicit_doc(n: int = 12, seed: int = 5) -> dict:
    """Random costs with a few integral cells, forbidden cells off a
    north-west-corner `pi0`, and that `pi0` as the reference plan."""
    rng = np.random.default_rng(seed)
    cost = np.round(rng.uniform(0.0, 5.0, size=(n, n)), 6)
    cost[rng.random((n, n)) < 0.1] = 2.0
    mu = rng.uniform(0.2, 1.0, n)
    nu = rng.uniform(0.2, 1.0, n)
    mu, nu = mu / mu.sum(), nu / nu.sum()
    pi0 = nw_corner(Marginal(mu), Marginal(nu)).mass
    cost[(pi0 == 0) & (rng.random((n, n)) < 0.25)] = math.inf
    return {"schema_version": 1, "kind": "explicit",
            "cost": [["inf" if math.isinf(v) else v for v in row] for row in cost.tolist()],
            "mu": mu.tolist(), "nu": nu.tolist(), "pi0": pi0.tolist(), "seed": seed}


INSTANCES = {
    "explicit": explicit_doc,
    "ex33": lambda: {"schema_version": 1, "kind": "ex33", "n": 24, "shift": "auto-golden"},
    "ap": lambda: {"schema_version": 1, "kind": "ap", "n": 24, "shift": "auto-golden"},
}


def result_sha256(tmp_path, kind: str, problem: str) -> str:
    instance = tmp_path / f"{kind}.json"
    instance.write_text(json.dumps(INSTANCES[kind]()))
    out = tmp_path / "result.json"
    assert main(["solve", str(instance), "--problem", problem, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_relaxed_dual_file_facts(tmp_path):
    """Value 1 + eps, no plan, and a budget kept, whichever optimal pair is written."""
    result_sha256(tmp_path, "ap", "relaxed-dual:0.01")
    doc = json.loads((tmp_path / "result.json").read_text())
    assert doc["plan"] is None
    assert abs(doc["dual_value"] - 1.01) <= 1e-12
    assert abs(doc["primal_value"] - 1.01) <= 1e-12
    inst = make_instance(24)
    cost = ap_cost(inst).entries
    pi0 = mixture_plan([shift_graph_plan(inst, 0), shift_graph_plan(inst, 1)],
                       [0.5, 0.5]).mass
    phi, psi = np.array(doc["phi"]), np.array(doc["psi"])
    support = pi0 > 0
    breach = np.maximum(phi[:, None] + psi[None, :] - cost, 0.0)[support]
    assert float(np.sum(pi0[support] * breach)) <= 0.01 + 1e-12


def test_ex33_primal_file_facts(tmp_path):
    """Value 1, a uniform coupling, and potentials feasible and tight on
    it, whichever optimal vertex is written."""
    result_sha256(tmp_path, "ex33", "primal")
    doc = json.loads((tmp_path / "result.json").read_text())
    n, tol = 24, 1e-12
    assert abs(doc["primal_value"] - 1.0) <= tol
    assert doc["gap"] >= -tol
    cost = ex33_cost(make_instance(n), n - 1).entries
    plan = np.array(doc["plan"])
    assert np.all(plan >= 0.0) and not np.any(plan[np.isinf(cost)])
    assert np.allclose(plan.sum(axis=1), 1.0 / n, rtol=0.0, atol=tol)
    assert np.allclose(plan.sum(axis=0), 1.0 / n, rtol=0.0, atol=tol)
    assert abs(float(np.sum(plan[plan > 0] * cost[plan > 0])) - doc["primal_value"]) <= tol
    reduced = cost - (np.array(doc["phi"])[:, None] + np.array(doc["psi"])[None, :])
    assert float(np.min(reduced)) >= -tol
    assert float(np.max(np.abs(reduced[plan > 0]))) <= tol


@pytest.mark.parametrize("kind,problem", sorted(GOLDEN_SHA256))
def test_result_bytes_match_golden(tmp_path, kind, problem):
    assert result_sha256(tmp_path, kind, problem) == GOLDEN_SHA256[kind, problem]


@pytest.mark.parametrize("kind,problem,spelling", [
    ("explicit", "partial:0.05", "partial:0.05"),
    ("explicit", "partial:0.05", "partial:5e-2"),
    ("explicit", "partial:0.05", "partial:0.050"),
    ("explicit", "partial:0.05", "partial: 0.05"),
    ("ap", "relaxed-dual:0.01", "relaxed-dual:1e-2"),
])
def test_one_program_one_result_file_whatever_its_spelling(tmp_path, kind, problem, spelling):
    """The result names the problem by its parameter's float repr."""
    assert result_sha256(tmp_path, kind, spelling) == GOLDEN_SHA256[kind, problem]
    assert json.loads((tmp_path / "result.json").read_text())["problem"] == problem
