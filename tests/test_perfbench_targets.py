"""The benchmark tracer wraps names in `mklab` modules; each must exist.

`perfbench/tracing.py` looks every `(module, attribute)` of its `TARGETS`
table up with `getattr` when a traced run starts, so a refactor that
renames or drops one of them breaks the traced benchmark.  A name that
still exists but is no longer called where the tracer wraps it breaks
the per-layer metrics silently, so CLI runs must record a span in every
layer.  The tracer imports only the standard library, so it is loaded
here by path.
"""

import importlib
import importlib.util
from pathlib import Path

from mklab import cli
from mklab.fileformats import dumps_canonical

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = [f"{module}.{attr}" for module, attr, _group in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.TARGETS and not missing


def test_cli_runs_record_a_span_in_every_layer(tmp_path):
    ex33 = tmp_path / "ex33.json"
    ex33.write_text(dumps_canonical({"schema_version": 1, "kind": "ex33", "n": 12,
                                     "shift": "auto-golden"}))
    ap = tmp_path / "ap.json"
    ap.write_text(dumps_canonical({"schema_version": 1, "kind": "ap", "n": 8,
                                   "shift": "auto-golden"}))
    runs = (
        ["solve", str(ex33), "--problem", "primal", "--out", str(tmp_path / "p.json")],
        ["solve", str(ap), "--problem", "relaxed-dual:0.01",
         "--out", str(tmp_path / "r.json")],
        ["sweep", str(ap), "--sweep", "epsilon-primal", "--grid", "0.1,0.01",
         "--out", str(tmp_path / "s.csv")],
        ["diagnose", str(ap), "--diag", "bound", "--out", str(tmp_path / "b.csv")],
    )
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        # through the module, where the tracer wrapped `main`
        codes = [cli.main(argv) for argv in runs]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0, 0]
    groups = {span[1] for span in tracer.spans}
    assert groups >= {"cli", "fileformats.parse", "fileformats.materialize",
                      "fileformats.serialize", "rotation", "solvers", "core.verify",
                      "diagnostics", "network_simplex"}
