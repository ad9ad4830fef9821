"""The benchmark tracer wraps names in `mklab` modules; each must exist.

`perfbench/tracing.py` looks every `(module, attribute)` of its `TARGETS`
table up with `getattr` when a traced run starts, so a refactor that
renames or drops one of them breaks the traced benchmark.  The tracer
imports only the standard library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{attr}" for module, attr, _group in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert tracing.TARGETS and not missing
