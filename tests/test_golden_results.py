"""Result files keep the exact bytes of earlier releases.

Criterion 8 only compares two runs of the same code, so a writer that
changed the bytes consistently would still pass it.  These digests pin
the bytes themselves: they are the sha256 of result files written by
the canonical writer before it formatted float rows in one pass.  The
instance files are written here with the standard ``json`` module, so
the digests do not rest on the writer under test.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from mklab import Marginal
from mklab.cli import main

from conftest import nw_corner

GOLDEN_SHA256 = {
    ("explicit", "primal"):
        "3d293658e704ea4410aa202f9c42d2d4d7f6926fd61a297527de9f7417dccb18",
    ("explicit", "restricted"):
        "f5afa922d89a67548e2d5333c39837467a161ab9efb7f6cc574a7387e19648d5",
    ("explicit", "partial:0.05"):
        "94db0a57f88e24d62c20b18dc250287802b0860747e2ae58ba3d98f5f72dd662",
    ("ex33", "primal"):
        "f42e6c757641000e73e13d0ce05bc0b7f89f24ecb00f0222aabe5415ee15e4d2",
    ("ap", "relaxed-dual:0.01"):
        "38b575a5cb3b0f6dd04710c644ec1f0515e394b155851d04c12f266ef5c29984",
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


@pytest.mark.parametrize("kind,problem", sorted(GOLDEN_SHA256))
def test_result_bytes_match_golden(tmp_path, kind, problem):
    assert result_sha256(tmp_path, kind, problem) == GOLDEN_SHA256[kind, problem]
