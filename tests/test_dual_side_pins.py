"""The `ap` outputs of the dual-side benchmark keep their exact bytes.

`GOLDEN_SHA256` pins one `ap` result file, the relaxed dual at n = 24.
The other outputs of the benchmark's `ap` ops rest on the same reference
plan and restricted support: the restricted result, the epsilon-dual
sweep table and the bound table.  Their SHA-256 digests are pinned here
at the test size and at the benchmark size.  The sweep table's
`wall_ms` column is a timing, so it is dropped before hashing.  Instance
files are written with the standard `json` module.

The restricted and sweep digests were pinned again when a program with
no more arcs than nodes began from a spanning tree of its arcs.  The
restricted support of `ap` is one cycle, and its tree start is optimal
at once.  Only the counters moved: `iterations` 20 -> 1 and `pivots`
19 -> 0 at n = 24, 209 -> 1 and 208 -> 0 at n = 192, in the result
files and in every row of the sweep tables.  The plans, potentials and
values kept their bytes, and the bound tables did not move.
"""

import hashlib
import json

import pytest

from mklab.cli import main

DUAL_SIDE_SHA256 = {
    (24, "restricted"):
        "f132b00e56065419bb67d9bde83309cee7c0e2db4a58930becbd749627a0349c",
    (24, "sweep"):
        "7025fbf3d7255271c9ced7f544e9cd565daf7c5dca4103abbf5becd2f1bfb505",
    (24, "bound"):
        "2fedf61cbb315042ee7a99ce7d7ca8d03b0dea1907a3d4e35d181d0a3060cbca",
    (192, "restricted"):
        "0de711848d78c03d7f7ce08f2a0f53af8b22c0df45815de9243fe1b7f4f1521d",
    (192, "sweep"):
        "003d99e7d906bb4b15724d5c688e89bc02164c95185624a6ba173456017e3713",
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
