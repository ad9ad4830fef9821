"""Spans around the public functions of each `mklab` module, from outside.

A `Tracer` replaces a function by a timing wrapper in the namespace where
its caller looks it up: `solvers` calls the engines through their module
(`network_simplex.solve_bipartite`) but binds the `core` helpers by name
(`mklab.solvers.verify_exact_coupling`), and `cli` binds the diagnostics
by name.  Each span records its name, group, start, end, parent span and
op id; spans are kept in memory and written out when the run ends.  The
program itself is not edited.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

ROTATION_BUILDERS = ("ap_cost", "ex33_cost", "golden_shift", "graph_mixture_plan",
                     "shift_graph_plan", "uniform_marginal")
CORE_VERIFY = ("verify_exact_coupling", "verify_sub_coupling", "transport_cost",
               "gauge_normalized")
DIAGNOSTICS = ("check_strong_ccm", "telescoping_bound_check", "singular_mass_estimate")
SOLVERS = ("solve_primal", "solve_dual", "solve_partial", "solve_restricted_primal",
           "solve_relaxed_dual", "dual_sequence", "extrapolate_to_zero")

#: (namespace module, attribute, group).  A span's self time is charged to
#: its group.
TARGETS = (
    ("mklab.cli", "main", "cli"),
    ("mklab.fileformats", "parse_instance", "fileformats.parse"),
    ("mklab.fileformats", "materialize", "fileformats.materialize"),
    ("mklab.fileformats", "instance_to_jsonable", "fileformats.serialize"),
    ("mklab.fileformats", "result_document", "fileformats.serialize"),
    ("mklab.fileformats", "serialize_result", "fileformats.serialize"),
    ("mklab.fileformats", "dumps_canonical", "fileformats.serialize"),
    *(("mklab.fileformats", name, "rotation") for name in ROTATION_BUILDERS),
    *(("mklab.rotation", name, "rotation")
      for name in ROTATION_BUILDERS + ("birkhoff_levels", "level_matrix")),
    *(("mklab.solvers", name, "solvers") for name in SOLVERS),
    *((module, name, "core.verify")
      for module in ("mklab.solvers", "mklab.core") for name in CORE_VERIFY),
    ("mklab.diagnostics", "transport_cost", "core.verify"),
    *((module, name, "diagnostics")
      for module in ("mklab.cli", "mklab.diagnostics") for name in DIAGNOSTICS),
    ("mklab.network_simplex", "solve_bipartite", "network_simplex"),
    ("mklab.dense_simplex", "solve_dense", "dense_simplex"),
)


def _network_counts(args, kwargs, result) -> dict:
    supplies, demands, _tails, _heads, costs = args[:5]
    return {"network_simplex.arcs": len(costs),
            "network_simplex.nodes": len(supplies) + len(demands),
            "network_simplex.pivots": result.pivots,
            "network_simplex.iterations": result.iterations,
            # Dantzig pricing scans every real arc once per iteration
            "network_simplex.arc_scans_computed": len(costs) * result.iterations}


def _dense_counts(args, kwargs, result) -> dict:
    objective, _lhs, senses = args[:3]
    senses = list(senses)
    columns = (len(objective) + sum(s != "eq" for s in senses)
               + sum(s != "le" for s in senses) + 1)
    cells = len(senses) * columns
    return {"dense_simplex.tableau_cells": cells,
            "dense_simplex.pivots": result.pivots,
            "dense_simplex.iterations": result.iterations,
            # a pivot reads the tableau and its outer-product update and
            # writes the tableau back: three float64 passes over it
            "dense_simplex.bytes_moved_computed": result.pivots * cells * 8 * 3}


COUNTERS = {
    "solve_bipartite": _network_counts,
    "solve_dense": _dense_counts,
    "parse_instance": lambda args, kwargs, result: {
        "fileformats.bytes_in": len(args[0].encode())},
    "serialize_result": lambda args, kwargs, result: {
        "fileformats.bytes_out": len(result.encode())},
}
COUNTER_METRICS = (
    "network_simplex.pivots", "network_simplex.iterations", "network_simplex.arcs",
    "network_simplex.nodes", "network_simplex.arc_scans_computed",
    "dense_simplex.pivots", "dense_simplex.iterations", "dense_simplex.tableau_cells",
    "dense_simplex.bytes_moved_computed", "fileformats.bytes_in", "fileformats.bytes_out",
)
#: group whose self time makes each time metric
TIME_METRICS = {
    "network_simplex.solve_s": "network_simplex",
    "dense_simplex.solve_s": "dense_simplex",
    "fileformats.parse_s": "fileformats.parse",
    "fileformats.materialize_s": "fileformats.materialize",
    "fileformats.serialize_s": "fileformats.serialize",
    "rotation.build_s": "rotation",
    "solvers.self_s": "solvers",
    "core.verify_s": "core.verify",
    "diagnostics.check_s": "diagnostics",
    "cli.self_s": "cli",
}


class Tracer:
    """Installs span wrappers on `TARGETS` and keeps the spans they record."""

    def __init__(self) -> None:
        # [name, group, start, end, parent index, op id, counters]
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    def _wrap(self, name: str, group: str, fn, counter):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, group, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op_id, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
            if counter is not None:
                spans[index][6] = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        for module_name, attr, group in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(f"{module_name}.{attr}", group, fn,
                                             COUNTERS.get(attr)))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def dump(self, path: str) -> None:
        keys = ("name", "group", "start", "end", "parent", "op", "counters")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, span)) for span in self.spans], fh)


def _pass_values(spans: list, indices: list) -> dict:
    """Per-layer values of one pass, from the spans at `indices`."""
    child_time = defaultdict(float)
    for i in indices:
        parent = spans[i][4]
        if parent is not None:
            child_time[parent] += spans[i][3] - spans[i][2]
    group_time = defaultdict(float)
    values = dict.fromkeys(COUNTER_METRICS, 0)
    values["dense_simplex.eq_form_s"] = values["dense_simplex.le_form_s"] = 0.0
    for i in indices:
        _name, group, start, end, parent, _op, counters = spans[i]
        group_time[group] += (end - start) - child_time[i]
        for key, value in (counters or {}).items():
            values[key] += value
        if group == "dense_simplex":
            # engine time under the equality-form dual (phase 1 and 2) vs
            # under the budgeted relaxed dual ("le" rows: phase 2 only)
            while parent is not None and spans[parent][1] != "solvers":
                parent = spans[parent][4]
            caller = spans[parent][0].rsplit(".", 1)[1] if parent is not None else ""
            if caller == "solve_dual":
                values["dense_simplex.eq_form_s"] += end - start
            elif caller == "solve_relaxed_dual":
                values["dense_simplex.le_form_s"] += end - start
    for metric, group in TIME_METRICS.items():
        values[metric] = group_time[group]
    pivots = values["network_simplex.pivots"]
    values["network_simplex.ms_per_pivot"] = (
        values["network_simplex.solve_s"] * 1e3 / pivots if pivots else 0.0)
    return values


def layer_metrics(spans: list, pass_of_op: dict) -> tuple[dict, bool]:
    """Per-layer metrics over the traced passes, and whether counters repeat.

    Times are medians over traced passes of each pass's total; counters
    are the per-pass totals, which must be identical in every pass.
    """
    by_pass = defaultdict(list)
    for i, span in enumerate(spans):
        by_pass[pass_of_op[span[5]]].append(i)
    passes = [_pass_values(spans, by_pass[p]) for p in sorted(by_pass)]
    metrics = {key: statistics.median(p[key] for p in passes)
               for key in passes[0] if key not in COUNTER_METRICS}
    repeat = all(p[key] == passes[0][key] for p in passes for key in COUNTER_METRICS)
    metrics.update((key, passes[0][key]) for key in COUNTER_METRICS)
    return metrics, repeat
