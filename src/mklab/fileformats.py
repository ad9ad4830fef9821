"""Instance and result files: strict JSON schemas with deterministic output.

Instances come in three kinds: "explicit" (cost matrix plus marginal
vectors, with the string "inf" marking forbidden cells), "ap" (the
two-permutation rotation cost) and "ex33" (the clamped level cost over
shift graphs).  Unknown fields are rejected.  Result documents are
emitted by a canonical writer: fixed key order, every float with 17
significant digits, infinities as the strings "inf"/"-inf", so equal
inputs produce byte-identical files.

The writer takes float64 arrays as they are.  One mask pass over a
matrix finds its cells other than +0.0 and, from their count in each
row, the rows to splice: those that are mostly +0.0, as the rows of an
optimal plan are (it has at most m + n - 1 nonzero cells).  The other
cells of all spliced rows are formatted in one `%` pass and put into
the text of the all-zero row at computed offsets; the spliced rows
with none share that one string.  So writing a plan costs Python work
in proportion to its nonzero cells.  A denser row, such as a row of an
explicit cost, is formatted in one `%` pass of its own.  A rotation
instance builds its reference plan only when a command reads it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Optional

import numpy as np

from . import network_simplex
from .core import (
    CostMatrix,
    DualityReport,
    InvariantError,
    Marginal,
    MKLabError,
    PlanKind,
    TransportPlan,
)
from .rotation import (
    RotationInstance,
    ap_cost,
    check_grid_size,
    ex33_cost,
    golden_shift,
    graph_mixture_plan,
    shift_graph_plan,
    uniform_marginal,
)

SCHEMA_VERSION = 1
KINDS = ("explicit", "ap", "ex33")
AUTO_SHIFT = "auto-golden"


class FileFormatError(MKLabError):
    """A file failed to parse or violated its schema."""


# ---------------------------------------------------------------------------
# canonical JSON


def _format_float(value: float) -> str:
    if math.isnan(value):
        raise FileFormatError("NaN is not serializable")
    if math.isinf(value):
        return '"inf"' if value > 0 else '"-inf"'
    text = format(value, ".17g")
    if not any(ch in text for ch in ".eE"):
        text += ".0"
    return text


#: One `%`-template per float: "%.17g" drops the point of an integral
#: value below 1e17, so those get ".0" back, and the "inf"/"-inf" it
#: prints for an infinity is quoted.
_FLOAT_TEMPLATES = np.array(["%.17g", "%.17g.0", '"%.17g"'], dtype=object)

#: A row in which more than this share of the cells are not +0.0 is
#: formatted in one pass; a sparser row is spliced into the all-zero row.
_SPLICE_SHARE = 0.25


def _templates(values: np.ndarray) -> np.ndarray:
    """The `%`-template of each value of a float64 array, as an object array."""
    kind = ((values == np.trunc(values)) & (np.abs(values) < 1e17)) + 2 * np.isinf(values)
    return _FLOAT_TEMPLATES[kind]


def _format_float_rows(mat: np.ndarray, pad: str) -> list[str]:
    """Each row of a nonempty 2-D float64 array, as ``_format_float`` would write its values.

    ``pad`` is the indent of a row's brackets.  One mask pass over the
    array finds its cells other than +0.0, and their count per row picks
    the rows to splice.  A dense row joins the `%`-templates of all its
    cells and formats them in one pass.  In a spliced row every +0.0 cell
    is written "0.0", the same width each, so the row is the text of the
    all-zero row with the texts of its other cells put in at computed
    offsets.  Those texts come from one `%` pass over the spliced cells
    of the whole array, and the spliced rows with none share the
    all-zero row's string.
    """
    if np.isnan(mat).any():
        raise FileFormatError("NaN is not serializable")
    item_pad = pad + "  "
    sep = ",\n" + item_pad
    # -0.0 == 0.0, so its sign bit tells it from +0.0
    live = (mat != 0.0) | np.signbit(mat)
    splice = np.count_nonzero(live, axis=1) <= _SPLICE_SHARE * mat.shape[1]
    zero = f"[\n{item_pad}{sep.join(['0.0'] * mat.shape[1])}\n{pad}]"
    rows = [zero] * mat.shape[0]
    for i in np.flatnonzero(~splice).tolist():
        row = mat[i]
        rows[i] = (f"[\n{item_pad}{sep.join(_templates(row).tolist())}\n{pad}]"
                   % tuple(row.tolist()))
    # the cells other than +0.0 of the spliced rows, in row-major order,
    # and where each one's "0.0" starts in the all-zero row
    spliced = np.flatnonzero(splice)
    row_of, col = np.divmod(np.flatnonzero(live[spliced]), mat.shape[1])
    if not col.size:
        return rows
    row_of = spliced[row_of]
    values = mat[row_of, col]
    starts = len(item_pad) + 2 + (len(sep) + 3) * col
    # a formatted float holds no comma
    texts = (",".join(_templates(values).tolist()) % tuple(values.tolist())).split(",")
    row_ends = np.append(row_of[1:] != row_of[:-1], True)
    parts: list[str] = []
    prev = 0
    for i, start, text, row_end in zip(row_of.tolist(), starts.tolist(), texts,
                                       row_ends.tolist()):
        parts += (zero[prev:start], text)
        prev = start + 3
        if row_end:
            parts.append(zero[prev:])
            rows[i] = "".join(parts)
            parts, prev = [], 0
    return rows


def _write_canonical(obj: Any, pieces: list[str], indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        pieces.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise FileFormatError("object keys must be strings")
            pieces.append(f"{pad}  {json.dumps(key)}: ")
            _write_canonical(value, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size and obj.ndim == 1:
        pieces.append(_format_float_rows(obj[None], pad)[0])
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size and obj.ndim == 2:
        item_pad = pad + "  "
        pieces.append("[\n")
        for row in _format_float_rows(obj, item_pad):
            pieces += (item_pad, row, ",\n")
        pieces[-1] = f"\n{pad}]"
    elif isinstance(obj, (list, tuple, np.ndarray)):
        if not len(obj):
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, value in enumerate(obj):
            pieces.append(pad + "  ")
            _write_canonical(value, pieces, indent + 1)
            pieces.append(",\n" if i + 1 < len(obj) else "\n")
        pieces.append(pad + "]")
    else:
        raise FileFormatError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(obj: Any) -> str:
    pieces: list[str] = []
    _write_canonical(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def _revive(obj: Any) -> Any:
    """Turn the "inf"/"-inf" markers back into floats, recursively."""
    if isinstance(obj, str):
        if obj == "inf":
            return math.inf
        if obj == "-inf":
            return -math.inf
        return obj
    if isinstance(obj, list):
        return [_revive(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _revive(v) for k, v in obj.items()}
    return obj


def _reject_constant(name: str) -> None:
    raise FileFormatError(f"{name} is not a JSON value")


def _object_of_unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise FileFormatError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return obj


def _load_json(text: str) -> Any:
    """Strict JSON: NaN, Infinity and -Infinity, and a key repeated in an object, raise."""
    try:
        return json.loads(text, parse_constant=_reject_constant,
                          object_pairs_hook=_object_of_unique_keys)
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise FileFormatError(f"parse error: {exc}") from exc


def loads_canonical(text: str) -> Any:
    return _revive(_load_json(text))


# ---------------------------------------------------------------------------
# instance files


@dataclass(frozen=True)
class InstanceSpec:
    kind: str
    cost: Optional[np.ndarray] = None
    mu: Optional[np.ndarray] = None
    nu: Optional[np.ndarray] = None
    pi0: Optional[np.ndarray] = None
    n: Optional[int] = None
    shift: Optional[object] = None  # int or AUTO_SHIFT
    k_max: Optional[int] = None
    seed: Optional[int] = None


def _inf_markers(values: list) -> Optional[int]:
    """How many "inf"/"-inf" markers a raw JSON list holds.

    None unless the list holds only numbers and those markers (no bools).
    """
    types = set(map(type, values))
    if not types <= {int, float, str}:
        return None
    if str not in types:
        return 0
    strings = [v for v in values if type(v) is str]
    return len(strings) if strings.count("inf") + strings.count("-inf") == len(strings) else None


def _as_float_array(values: list, markers: int | list[int], what: str) -> np.ndarray:
    """A checked raw JSON list as a float64 array, with ``markers`` "inf" markers in each row.

    The JSON reader turns a decimal beyond the float64 range, such as
    1e999, into an infinity, so an infinity that no marker accounts for
    was such a number; an integer of 2**1024 or more does not convert.
    """
    beyond = FileFormatError(f"{what} holds a number beyond the float64 range")
    try:
        arr = np.array(values, dtype=float)
    except OverflowError:
        raise beyond from None
    if not np.array_equal(np.count_nonzero(np.isinf(arr), axis=-1), markers):
        raise beyond
    return arr


def _as_float_matrix(rows: Any, what: str) -> np.ndarray:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise FileFormatError(f"{what} must be a nonempty list of rows")
    width = len(rows[0])
    markers = []
    for r in rows:
        if len(r) != width:
            raise FileFormatError(f"{what} rows have uneven lengths")
        markers.append(_inf_markers(r))
        if markers[-1] is None:
            raise FileFormatError(f"{what} entries must be numbers or \"inf\"")
    return _as_float_array(rows, markers, what)


def _as_float_vector(values: Any, what: str) -> np.ndarray:
    if not isinstance(values, list) or not values:
        raise FileFormatError(f"{what} must be a nonempty list")
    markers = _inf_markers(values)
    if markers is None:
        raise FileFormatError(f"{what} entries must be numbers")
    return _as_float_array(values, markers, what)


def _check_fields(doc: dict, allowed: set[str], required: set[str], kind: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise FileFormatError(f"unknown fields for kind {kind!r}: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise FileFormatError(f"missing fields for kind {kind!r}: {sorted(missing)}")


def parse_instance(text: str) -> InstanceSpec:
    # The float arrays of an explicit instance keep their "inf" markers
    # until numpy converts each whole array; nothing else in an instance
    # may be infinite.
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FileFormatError("instance file must hold a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FileFormatError(f"schema_version must be {SCHEMA_VERSION}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise FileFormatError(f"kind must be one of {KINDS}")
    seed = doc.get("seed")
    if seed is not None and (not isinstance(seed, int) or isinstance(seed, bool)):
        raise FileFormatError("seed must be an integer")

    if kind == "explicit":
        _check_fields(doc, {"schema_version", "kind", "cost", "mu", "nu", "pi0", "seed"},
                      {"cost", "mu", "nu"}, kind)
        cost = _as_float_matrix(doc["cost"], "cost")
        mu = _as_float_vector(doc["mu"], "mu")
        nu = _as_float_vector(doc["nu"], "nu")
        pi0 = _as_float_matrix(doc["pi0"], "pi0") if "pi0" in doc else None
        return InstanceSpec(kind=kind, cost=cost, mu=mu, nu=nu, pi0=pi0, seed=seed)

    _check_fields(doc, {"schema_version", "kind", "n", "shift", "k_max", "seed"},
                  {"n"}, kind)
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise FileFormatError("n must be an integer")
    shift = doc.get("shift", AUTO_SHIFT)
    if shift != AUTO_SHIFT and (not isinstance(shift, int) or isinstance(shift, bool)):
        raise FileFormatError(f'shift must be an integer or "{AUTO_SHIFT}"')
    k_max = doc.get("k_max")
    if k_max is not None and (not isinstance(k_max, int) or isinstance(k_max, bool)):
        raise FileFormatError("k_max must be an integer")
    return InstanceSpec(kind=kind, n=n, shift=shift, k_max=k_max, seed=seed)


def instance_to_jsonable(spec: InstanceSpec) -> dict:
    doc: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "kind": spec.kind}
    if spec.kind == "explicit":
        assert spec.cost is not None and spec.mu is not None and spec.nu is not None
        doc["cost"] = np.asarray(spec.cost, dtype=float)
        doc["mu"] = np.asarray(spec.mu, dtype=float)
        doc["nu"] = np.asarray(spec.nu, dtype=float)
        if spec.pi0 is not None:
            doc["pi0"] = np.asarray(spec.pi0, dtype=float)
    else:
        doc["n"] = int(spec.n)  # type: ignore[arg-type]
        doc["shift"] = spec.shift if spec.shift is not None else AUTO_SHIFT
        if spec.k_max is not None:
            doc["k_max"] = int(spec.k_max)
    if spec.seed is not None:
        doc["seed"] = int(spec.seed)
    return doc


@dataclass(frozen=True)
class Problem:
    """A fully materialized instance ready for the solvers.

    ``reference_plan`` backs the restricted and budgeted-dual problems:
    for "ap" it is the half/half mixture of the graphs k = 0 and 1 in one
    array, for "ex33" the weighted mixture of the first min(5, k_max + 1)
    graph plans, and for "explicit" the optional pi0 matrix, checked when
    the instance is materialized.  A rotation instance builds its plan on
    the first read, since only the commands that need it read it.
    """

    kind: str
    cost: CostMatrix
    mu: Marginal
    nu: Marginal
    rotation: Optional[RotationInstance]
    k_max: Optional[int]
    pi0: Optional[TransportPlan]

    @cached_property
    def reference_plan(self) -> Optional[TransportPlan]:
        inst = self.rotation
        if inst is None:
            return self.pi0
        if self.kind == "ap":
            return shift_graph_plan(inst, 0, 1)
        return graph_mixture_plan(inst, min(4, self.k_max))  # type: ignore[type-var]


def materialize(spec: InstanceSpec) -> Problem:
    """Build the cost and marginals of an instance, and check its pi0 if it has one."""
    if spec.kind == "explicit":
        try:
            cost = CostMatrix(spec.cost)
            mu = Marginal(spec.mu)
            nu = Marginal(spec.nu)
            pi0 = None
            if spec.pi0 is not None:
                pi0 = TransportPlan(spec.pi0, PlanKind.EXACT)
        except (InvariantError, MKLabError) as exc:
            raise FileFormatError(f"invalid explicit instance: {exc}") from exc
        if cost.shape != (mu.size, nu.size):
            raise FileFormatError("cost shape does not match the marginals")
        return Problem(kind=spec.kind, cost=cost, mu=mu, nu=nu, rotation=None, k_max=None,
                       pi0=pi0)

    n = int(spec.n)  # type: ignore[arg-type]
    try:
        check_grid_size(n)
        shift = golden_shift(n) if spec.shift in (None, AUTO_SHIFT) else int(spec.shift)  # type: ignore[arg-type]
        inst = RotationInstance(n=n, shift=shift)
    except InvariantError as exc:
        raise FileFormatError(f"invalid rotation instance: {exc}") from exc
    mu = uniform_marginal(inst)
    if spec.kind == "ap":
        k_max = spec.k_max if spec.k_max is not None else min(5, n - 1)
        if not 1 <= k_max < n:
            raise FileFormatError(f"k_max must lie in [1, {n - 1}]")
        try:
            cost = ap_cost(inst)
        except InvariantError as exc:
            raise FileFormatError(str(exc)) from exc
    else:
        k_max = spec.k_max if spec.k_max is not None else n - 1
        if not 0 <= k_max < n:
            raise FileFormatError(f"k_max must lie in [0, {n - 1}]")
        cost = ex33_cost(inst, k_max)
    return Problem(kind=spec.kind, cost=cost, mu=mu, nu=mu, rotation=inst, k_max=k_max,
                   pi0=None)


# ---------------------------------------------------------------------------
# result files


def result_document(problem_name: str, instance_doc: dict, report: DualityReport) -> dict:
    """Assemble a result document; deterministic, so no wall-clock data.

    The schema keeps both tolerance keys; the one engine tolerance
    ``network_simplex.TOL`` sets both.
    """
    plan, pots = report.optimal_plan, report.optimal_potentials
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": problem_name,
        "config": {
            "feasibility_tol": float(network_simplex.TOL),
            "optimality_tol": float(network_simplex.TOL),
            "max_iterations": int(network_simplex.MAX_ITERATIONS),
        },
        "instance": instance_doc,
        "status": "solved",
        "primal_value": float(report.primal_value),
        "dual_value": float(report.dual_value),
        "gap": float(report.gap),
        "plan": None if plan is None else plan.mass,
        "plan_kind": None if plan is None else plan.kind.value,
        "phi": None if pots is None else pots.phi,
        "psi": None if pots is None else pots.psi,
        "iterations": int(report.stats.iterations),
        "pivots": int(report.stats.pivots),
    }


def serialize_result(doc: dict) -> str:
    return dumps_canonical(doc)


def parse_result(text: str) -> dict:
    doc = loads_canonical(text)
    if not isinstance(doc, dict):
        raise FileFormatError("result file must hold a JSON object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise FileFormatError(f"schema_version must be {SCHEMA_VERSION}")
    return doc
