"""Instance and result files: strict JSON schemas with deterministic output.

Instances come in three kinds: "explicit" (cost matrix plus marginal
vectors, with the string "inf" marking forbidden cells), "ap" (the
two-permutation rotation cost) and "ex33" (the clamped level cost over
shift graphs).  Unknown fields are rejected.  Result documents are
emitted by a canonical writer: fixed key order, every float with 17
significant digits, infinities as the strings "inf"/"-inf", so equal
inputs produce byte-identical files.  A rotation instance builds its
reference plan only when a command reads it.

The writer prints a float as `format(v, ".17g")` does, with ".0" added
to an integral value below 1e17, and it prints the float arrays of a
document with numpy, many cells at once, byte for byte the same.  Take
a finite v with 1e-4 <= |v| < 1e17 and let x be its decimal exponent.
Then "%.17g" prints N = round-half-even(|v| * 10**p), p = 16 - x, in
fixed notation with the trailing zeros stripped.  p lies in [0, 20], so
10**p is exact in float64, and Dekker's exact product (Veltkamp's split
by 2**27 + 1; Dekker, Numer. Math. 18, 1971) gives |v| * 10**p = hi + lo
exactly.  hi is then an even integer of at least 2**53 and |lo| <= 8, so
N = hi + rint(lo), numpy's rint rounding half to even: no tolerance
enters anywhere.  x starts at floor(log10 |v|) and steps by one while N
falls outside [1e16, 1e17); each step moves towards the true exponent,
so p never leaves its range.  The 17 digits go into a 40-byte field per
cell through lookups of four digits at a time, a template per exponent
and sign adds the point, the sign and the zeros, and the bytes left 0
are deleted.  Zeros and infinities get fixed texts.  The other values
get a `%` placeholder that one `%` pass over all of them fills in:
"%.17g" for |v| < 1e-4 and |v| >= 1e17, and "%.1f" for the integers
1e16 <= |v| < 1e17 (x = 16), whose point would not fit in the field.

One mask pass over an array finds its cells other than +0.0 and, from
their count in each row, the rows to splice: those that are mostly +0.0,
as the rows of an optimal plan are (it has at most m + n - 1 nonzero
cells).  The other cells of the spliced rows are formatted and written
between the parts of the all-zero row around their "0.0"s; the spliced
rows with none share that one string.  So writing a plan costs Python
work in proportion to its nonzero cells.  The dense rows and the spliced
cells of all the arrays of a document are formatted in shared blocks of
at most `_BLOCK_CELLS` cells, so a document's small arrays pay for one
numpy pass and a large matrix holds one block of working arrays at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain
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


#: A row in which more than this share of the cells are not +0.0 is
#: formatted whole; a sparser row is spliced into the all-zero row.
_SPLICE_SHARE = 0.25

#: Cells formatted per numpy pass: about 250 bytes of working arrays each.
_BLOCK_CELLS = 4096

# Dekker's exact product: the scale 10**(16 - x) of each decimal exponent
# x in [-4, 15], indexed by x + 4, and its Veltkamp split into two
# halves of at most 26 bits each.
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(b: float) -> tuple:
    high = _SPLITTER * b - (_SPLITTER * b - b)
    return b, high, b - high


_SCALE_PARTS = np.array([_split(10.0 ** p) for p in range(20, 0, -1)])


def _digit_words() -> np.ndarray:
    """The uint64 words that put the 17 digits of a cell into its text field.

    Word g < 10**4 holds the four digits of g at its odd bytes; word
    10**4 + g the same with the trailing zeros left out; and word
    2 * 10**4 + d the leading digit d at its last byte, none for d = 0.
    """
    words = np.zeros((2 * 10 ** 4 + 10, 8), dtype=np.uint8)
    groups = np.arange(10 ** 4)
    for byte, unit in zip((1, 3, 5, 7), (1000, 100, 10, 1)):
        words[:10 ** 4, byte] = groups // unit % 10 + ord("0")
    # a digit is kept in the second half unless it and all after it are zeros
    kept = np.maximum.accumulate(words[:10 ** 4, 7:0:-2] != ord("0"), axis=1)[:, ::-1]
    words[10 ** 4:2 * 10 ** 4, 1::2] = words[:10 ** 4, 1::2] * kept
    words[2 * 10 ** 4 + 1:, 7] = np.arange(1, 10) + ord("0")
    return words.view("<u8")[:, 0]


_DIGIT_WORDS = _digit_words()

#: Text-field templates.  A cell's field is 40 bytes: the separator, the
#: sign, "0.000", then the digits d0 .. d16, each but the last followed
#: by a slot for the point; the bytes left 0 are dropped.  Row
#: 20 * sign + x + 4 serves decimal exponent x in [-4, 15]: for x < 0
#: it keeps "0." and -x - 1 zeros ahead of the digits, for x >= 0 the
#: point after digit x, and it forces "0" under every integer digit and
#: under the first fraction digit, which a stripped trailing zero would
#: drop.  Rows 40 and 41 hold "inf" and "-inf", and rows 42 and 43 the
#: `%` placeholders of the other values, "%.17g" and "%.1f"; the second
#: writes the 17 digits of an integral |v| in [1e16, 1e17) and ".0".
_INF_ROW = 40
_PLACEHOLDER_ROW = 42


def _field_templates() -> np.ndarray:
    rows = np.zeros((44, 40), dtype=np.uint8)
    rows[:, 0] = ord(",")
    rows[20:40, 1] = ord("-")
    for x in range(-4, 16):
        for row in rows[x + 4], rows[x + 24]:
            if x < 0:
                row[2:4] = list(b"0.")
                row[4:3 - x] = ord("0")
            else:
                row[8 + 2 * x] = ord(".")
                row[7:10 + 2 * x:2] = ord("0")
    for i, text in enumerate(['"inf"', '"-inf"', "%.17g", "%.1f"]):
        rows[_INF_ROW + i, 1:1 + len(text)] = list(text.encode())
    return rows.view("<u8")


_FIELD_TEMPLATES = _field_templates()


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """round-half-even(a * 10**(20 - e)) as int64, exact where it lies in [2**53, 2**62].

    Dekker's TwoProduct gives the product as hi + lo exactly; hi is then
    an even integer and |lo| is at most half its spacing.
    """
    b, b_hi, b_lo = _SCALE_PARTS.take(e, axis=0).T
    a_hi = a * _SPLITTER
    a_hi -= a_hi - a
    a_lo = a - a_hi
    hi = a * b
    lo = a_hi * b_hi
    lo -= hi
    lo += a_hi * b_lo
    lo += a_lo * b_hi
    lo += a_lo * b_lo
    n = hi.astype(np.int64)
    n += np.rint(lo, out=lo).astype(np.int64)
    return n


def _float_texts(values: np.ndarray, seps: np.ndarray) -> str:
    """The texts ``_format_float`` gives a 1-D float64 array, joined.

    Each text is preceded by the byte that ``seps`` holds for its value.
    A value of 1e-4 <= |v| < 1e16 gets the 17 digits N and exponent x of
    the module docstring from `_scaled`, and a zero the digits of N = 0
    at x = 0, which its template writes "0.0".  An infinity gets its
    fixed text, and any other value a `%` placeholder that one `%` pass
    fills in at the end; a NaN raises.
    """
    a = np.abs(values)
    all_in_range = np.minimum.reduce(a) >= 1e-4 and np.maximum.reduce(a) < 1e16
    special = np.empty(0, dtype=np.intp)
    if not all_in_range:
        in_range = (a >= 1e-4) & (a < 1e16)
        special = np.flatnonzero(~in_range & (values != 0.0))
        if np.isnan(values[special]).any():
            raise FileFormatError("NaN is not serializable")
        big = a[special]
        special_rows = np.where(np.isinf(big), _INF_ROW + np.signbit(values[special]),
                                _PLACEHOLDER_ROW + (big >= 1e16) * (big < 1e17))
        a = np.where(in_range, a, 1.0)
    # e = x + 4, from floor(log10 |v|) and then stepped until N has 17 digits
    e = np.log10(a)
    e += 4.0
    e = e.astype(np.intp)  # the sum is above -1e-15, so this is its floor or 0
    np.minimum(e, 19, out=e)
    n = _scaled(a, e)
    if np.minimum.reduce(n) < 10 ** 16 or np.maximum.reduce(n) >= 10 ** 17:
        off = np.flatnonzero((n < 10 ** 16) | (n >= 10 ** 17))
        while off.size:
            e[off] += np.where(n[off] < 10 ** 16, -1, 1)
            n[off] = _scaled(a[off], e[off])
            off = off[(n[off] < 10 ** 16) | (n[off] >= 10 ** 17)]
    if not all_in_range:
        n *= in_range
    # word indices, one row per word of a field: the leading digit, then
    # the four groups of four digits, those from the last nonzero group on
    # without trailing zeros
    words = np.empty((5, values.size), dtype=np.intp)
    halves = np.empty((2, values.size), dtype=np.int64)  # the first nine and last eight digits
    np.floor_divide(n, 10 ** 8, out=halves[0])
    np.subtract(n, halves[0] * 10 ** 8, out=halves[1])
    np.floor_divide(halves[0], 10 ** 8, out=words[0])
    halves[0] -= words[0] * 10 ** 8
    words[0] += 2 * 10 ** 4
    np.floor_divide(halves, 10 ** 4, out=words[1::2])
    np.subtract(halves, words[1::2] * 10 ** 4, out=words[2::2])
    zeros_after = words[4] == 0
    np.add(words[3], 10 ** 4, out=words[3], where=zeros_after)
    np.equal(halves[1], 0, out=zeros_after)
    np.add(words[2], 10 ** 4, out=words[2], where=zeros_after)
    zeros_after &= words[2] == 10 ** 4
    np.add(words[1], 10 ** 4, out=words[1], where=zeros_after)
    words[4] += 10 ** 4
    rows = np.signbit(values) * 20
    rows += e
    if special.size:
        rows[special] = special_rows
    field = _FIELD_TEMPLATES.take(rows, axis=0)
    field |= _DIGIT_WORDS.take(words.T)
    text_bytes = field.view(np.uint8)
    text_bytes[:, 0] = seps
    text = text_bytes.tobytes().translate(None, b"\0").decode("ascii")
    if special.size:
        placeholders = special[special_rows >= _PLACEHOLDER_ROW]
        if placeholders.size:
            text %= tuple(values[placeholders].tolist())
    return text


class _FloatArray:
    """A nonempty 1-D or 2-D float64 array of a document, written value by value
    as ``_format_float`` writes them.

    ``pad`` is the indent of the array's brackets; a 1-D array is one row.
    `runs` yields the cells to format: blocks of whole dense rows, then
    the cells other than +0.0 of the spliced rows.  Once `_format_arrays`
    has formatted them, `pieces` gives the array's text.
    """

    def __init__(self, arr: np.ndarray, pad: str) -> None:
        self.vector = arr.ndim == 1
        self.mat = arr[None] if self.vector else arr
        self.pad = pad
        self.row_pad = pad if self.vector else pad + "  "
        self.item_pad = self.row_pad + "  "
        self.sep = ",\n" + self.item_pad
        width = self.mat.shape[1]
        # -0.0 == 0.0, so its sign bit tells it from +0.0
        live = (self.mat != 0.0) | np.signbit(self.mat)
        splice = live.sum(axis=1) <= _SPLICE_SHARE * width
        self.dense = np.flatnonzero(~splice)
        self.zero = ""
        self.row_of = self.col = self.dense[:0]
        if self.dense.size < splice.size:
            spliced = np.flatnonzero(splice)
            self.zero = f"[\n{self.item_pad}{self.sep.join(['0.0'] * width)}\n{self.row_pad}]"
            # the cells other than +0.0 of the spliced rows, in row-major order
            row_of, self.col = np.divmod(np.flatnonzero(live[spliced]), width)
            self.row_of = spliced[row_of]
        self.rows: list = [self.zero] * self.mat.shape[0]
        self.cell_texts: list[str] = []

    def runs(self):
        """(values, run length, taker of their text) for each run of cells to format.

        A taker is given the run's texts with "," between the cells of a
        row and "\x01" between rows.
        """
        width = self.mat.shape[1]
        per_block = max(1, _BLOCK_CELLS // width)
        for lo in range(0, self.dense.size, per_block):
            block = self.dense[lo:lo + per_block]
            yield self.mat[block].ravel(), width, partial(self._set_dense_rows, block.tolist())
        values = self.mat[self.row_of, self.col]
        for lo in range(0, values.size, _BLOCK_CELLS):
            yield values[lo:lo + _BLOCK_CELLS], 1, self._add_cell_texts

    def _set_dense_rows(self, rows: list[int], text: str) -> None:
        start, end = f"[\n{self.item_pad}", f"\n{self.row_pad}]"
        text = text.replace(",", self.sep).replace("\x01", f"{end}\x01{start}")
        for i, row in zip(rows, f"{start}{text}{end}".split("\x01")):
            self.rows[i] = row

    def _add_cell_texts(self, text: str) -> None:
        self.cell_texts += text.split("\x01")

    def pieces(self) -> list[str]:
        """The array's text in pieces: a spliced row is its cell texts between
        the parts of the all-zero row around their "0.0"s."""
        if self.col.size:
            zero = self.zero
            starts = len(self.item_pad) + 2 + (len(self.sep) + 3) * self.col
            firsts = np.flatnonzero(np.append(True, self.row_of[1:] != self.row_of[:-1]))
            ends = np.append(firsts[1:], starts.size)
            gap_starts = np.append(0, starts[:-1] + 3)
            gap_starts[firsts] = 0
            parts: list = [None] * (2 * starts.size)
            parts[::2] = [zero[lo:hi] for lo, hi in zip(gap_starts.tolist(), starts.tolist())]
            parts[1::2] = self.cell_texts
            for i, lo, hi, tail in zip(self.row_of[firsts].tolist(), (2 * firsts).tolist(),
                                       (2 * ends).tolist(), (starts[ends - 1] + 3).tolist()):
                self.rows[i] = (*parts[lo:hi], zero[tail:])
        if self.vector:
            return list(self.rows[0]) if isinstance(self.rows[0], tuple) else self.rows
        out = ["[\n"]
        for row in self.rows:
            out.append(self.row_pad)
            out += row if isinstance(row, tuple) else (row,)
            out.append(",\n")
        out[-1] = f"\n{self.pad}]"
        return out


def _format_arrays(arrays: list[_FloatArray]) -> None:
    """Format the runs of cells of all ``arrays`` in order, joining consecutive
    runs into one `_float_texts` pass of up to ``_BLOCK_CELLS`` cells, so
    that the small arrays of a document share one pass."""
    batch: list[tuple] = []
    size = 0
    for run in chain.from_iterable(arr.runs() for arr in arrays):
        if batch and size + run[0].size > _BLOCK_CELLS:
            _format_runs(batch)
            batch, size = [], 0
        batch.append(run)
        size += run[0].size
    if batch:
        _format_runs(batch)


def _format_runs(runs: list[tuple]) -> None:
    # "\x02" ahead of the first cell of a run, "\x01" ahead of the first
    # cell of each further row in it, "," ahead of the others
    seps = np.full(sum(values.size for values, _, _ in runs), ord(","), dtype=np.uint8)
    start = 0
    for values, run_len, _ in runs:
        seps[start:start + values.size:run_len] = 1
        seps[start] = 2
        start += values.size
    values = np.concatenate([values for values, _, _ in runs]) if len(runs) > 1 else runs[0][0]
    for text, (_, _, take) in zip(_float_texts(values, seps).split("\x02")[1:], runs):
        take(text)


def _write_canonical(obj: Any, pieces: list, indent: int) -> None:
    """Append the canonical text of ``obj`` to ``pieces``, a float64 array as a `_FloatArray`."""
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
    elif (isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size
          and obj.ndim in (1, 2)):
        pieces.append(_FloatArray(obj, pad))
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
    pieces: list = []
    _write_canonical(obj, pieces, 0)
    pieces.append("\n")
    _format_arrays([piece for piece in pieces if isinstance(piece, _FloatArray)])
    return "".join(chain.from_iterable(
        piece.pieces() if isinstance(piece, _FloatArray) else (piece,) for piece in pieces))


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
