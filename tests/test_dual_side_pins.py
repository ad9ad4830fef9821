"""The `ap` outputs of the dual-side benchmark keep their exact bytes.

`GOLDEN_SHA256` pins one `ap` result file, the relaxed dual at n = 24.
The other outputs of the benchmark's `ap` ops rest on the same reference
plan and restricted support: the restricted result, the epsilon-dual
sweep table and the bound table.  Their SHA-256 digests are pinned here
at the test size and at the benchmark size.  The sweep table's
`wall_ms` column is a timing, so it is dropped before hashing.  Instance
files are written with the standard `json` module.
"""

import hashlib
import json

import pytest

from mklab.cli import main

DUAL_SIDE_SHA256 = {
    (24, "restricted"):
        "6d1858317504b0338907c17c2e4040ef03df52a9af71a43de6305f3845ba0d48",
    (24, "sweep"):
        "ede6358bf55829110c4526cffca716a9de98e889937702fd0017b1142fc315a0",
    (24, "bound"):
        "2fedf61cbb315042ee7a99ce7d7ca8d03b0dea1907a3d4e35d181d0a3060cbca",
    (192, "restricted"):
        "fe46f94aafd565bbc88e0d41ed8dd83af12f8f350bc9d905a1cfcc1b5f254721",
    (192, "sweep"):
        "67f5cd6f01b978371a68e7ef79dc54a06a9a21bd5a179511d4b9be3faa84866e",
    (192, "bound"):
        "82a79c8b1f76fb3659d1477bf3142014f4e54d05424eecb937073164017266ce",
}

ARGS = {
    "restricted": ("solve", "--problem", "restricted"),
    "sweep": ("sweep", "--sweep", "epsilon-dual", "--grid", "0.1,0.01,0.001"),
    "bound": ("diagnose", "--diag", "bound"),
}


def without_wall_ms(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    drop = rows[0].index("wall_ms")
    return "".join(",".join(r[:drop] + r[drop + 1:]) + "\n" for r in rows)


def output_sha256(tmp_path, n: int, op: str) -> str:
    instance = tmp_path / "ap.json"
    instance.write_text(json.dumps({"schema_version": 1, "kind": "ap", "n": n,
                                    "shift": "auto-golden"}))
    command, *flags = ARGS[op]
    out = tmp_path / "out"
    assert main([command, str(instance), *flags, "--out", str(out)]) == 0
    text = out.read_text()
    if op == "sweep":
        text = without_wall_ms(text)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n, op", sorted(DUAL_SIDE_SHA256))
def test_dual_side_output_keeps_its_bytes(tmp_path, n, op):
    assert output_sha256(tmp_path, n, op) == DUAL_SIDE_SHA256[n, op]


def test_wall_ms_is_the_column_dropped():
    assert without_wall_ms("parameter,value,iterations,wall_ms\n0.1,1.5,20,0.8\n") == \
        "parameter,value,iterations\n0.1,1.5,20\n"
