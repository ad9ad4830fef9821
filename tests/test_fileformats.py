import functools
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mklab import (
    DualityReport,
    Marginal,
    PlanKind,
    PotentialPair,
    SolverStats,
    TransportPlan,
    fileformats,
)
from mklab.fileformats import (
    FileFormatError,
    InstanceSpec,
    _format_float,
    dumps_canonical,
    instance_to_jsonable,
    loads_canonical,
    materialize,
    parse_instance,
)
from mklab.cli import main
from mklab.solvers import solve_primal

from conftest import nw_corner


def roundtrip(spec: InstanceSpec) -> InstanceSpec:
    return parse_instance(dumps_canonical(instance_to_jsonable(spec)))


class TestCanonicalJson:
    def test_float_has_seventeen_digits(self):
        text = dumps_canonical({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_infinities_as_strings(self):
        text = dumps_canonical({"a": math.inf, "b": -math.inf})
        assert '"inf"' in text and '"-inf"' in text
        back = loads_canonical(text)
        assert back["a"] == math.inf and back["b"] == -math.inf

    def test_floats_keep_a_decimal_point(self):
        assert "1.0" in dumps_canonical({"x": 1.0})

    def test_nan_rejected(self):
        with pytest.raises(FileFormatError):
            dumps_canonical({"x": math.nan})

    def test_roundtrip_bit_exact(self, rng):
        values = [float(v) for v in rng.normal(size=50) * 10.0 ** rng.integers(-8, 8, 50)]
        doc = {"values": values}
        back = loads_canonical(dumps_canonical(doc))
        assert back["values"] == values

    def test_deterministic_bytes(self):
        doc = {"b": [1.5, 2], "a": {"nested": [True, None]}}
        assert dumps_canonical(doc) == dumps_canonical(doc)

    def test_empty_containers(self):
        assert dumps_canonical({}) == "{}\n"
        assert dumps_canonical([]) == "[]\n"
        assert dumps_canonical({"a": {}, "b": (), "c": np.array([])}) == (
            '{\n  "a": {},\n  "b": [],\n  "c": []\n}\n')

    def test_non_string_key_and_unknown_type_rejected(self):
        with pytest.raises(FileFormatError, match="object keys must be strings"):
            dumps_canonical({"a": {1: 2.0}})
        with pytest.raises(FileFormatError, match="cannot serialize set"):
            dumps_canonical({"a": [{1.0}]})

    def test_result_must_be_an_object_of_this_schema(self):
        assert fileformats.parse_result('{"schema_version": 1}') == {"schema_version": 1}
        with pytest.raises(FileFormatError, match="result file must hold a JSON object"):
            fileformats.parse_result('[{"schema_version": 1}]')
        with pytest.raises(FileFormatError, match="schema_version must be 1"):
            fileformats.parse_result('{"schema_version": 2}')

    def test_parse_error_reports_position(self):
        with pytest.raises(FileFormatError, match=r"line 2 column"):
            loads_canonical('{\n  "a": }')


EXPLICIT_TEXT = ('{"schema_version": 1, "kind": "explicit", "cost": [[%s, 1.0], [1.0, 0.0]], '
                 '"mu": [0.5, 0.5], "nu": [0.5, 0.5]}')


class TestStrictJson:
    """Instance and result files are strict JSON: no NaN or infinity tokens, no repeated key."""

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_token_rejected(self, token):
        with pytest.raises(FileFormatError, match=f"^{token} is not a JSON value$"):
            parse_instance(EXPLICIT_TEXT % token)
        with pytest.raises(FileFormatError, match=f"^{token} is not a JSON value$"):
            fileformats.parse_result('{"schema_version": 1, "primal_value": %s}' % token)

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_token_fails_the_cli(self, tmp_path, capsys, token):
        path = tmp_path / "inst.json"
        path.write_text(EXPLICIT_TEXT % token)
        out = tmp_path / "res.json"
        assert main(["solve", str(path), "--problem", "primal", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {token} is not a JSON value\n"
        assert not out.exists()

    def test_inf_marker_still_accepted(self):
        assert math.isinf(parse_instance(EXPLICIT_TEXT % '"inf"').cost[0, 0])

    def test_duplicate_top_level_key_rejected(self):
        text = '{"schema_version": 1, "kind": "ap", "n": 8, "seed": 1, "seed": 2}'
        with pytest.raises(FileFormatError, match="^duplicate key 'seed'$"):
            parse_instance(text)
        assert parse_instance(text.replace(', "seed": 2', "")).seed == 1

    def test_duplicate_nested_key_rejected(self):
        text = ('{"schema_version": 1, "problem": "primal", '
                '"config": {"feasibility_tol": 1e-9, "max_iterations": 5, '
                '"feasibility_tol": 1e-3}}')
        with pytest.raises(FileFormatError, match="^duplicate key 'feasibility_tol'$"):
            fileformats.parse_result(text)
        with pytest.raises(FileFormatError, match="^duplicate key 'a'$"):
            loads_canonical('[{"b": 1}, {"a": {"a": 1}, "c": [{"a": 1, "a": 1}]}]')

    def test_same_key_in_sibling_objects_accepted(self):
        assert loads_canonical('[{"a": 1}, {"a": {"a": 2}}]') == [{"a": 1}, {"a": {"a": 2}}]


NUMBERS_TEXT = ('{"schema_version": 1, "kind": "explicit", '
                '"cost": [[%(cost)s, "inf"], ["inf", 0.0]], "mu": [%(mu)s, 0.5], '
                '"nu": [0.5, %(nu)s], "pi0": [[%(pi0)s, 0.0], [0.0, 0.5]]}')
IN_RANGE = {"cost": "1.0", "mu": "0.5", "nu": "0.5", "pi0": "0.5"}


class TestNumbersBeyondFloat64:
    """A number that float64 cannot hold fails the file, in each array of an explicit instance."""

    @pytest.mark.parametrize("field", IN_RANGE)
    @pytest.mark.parametrize("number", [
        "1e999", "-1e999", "1E400", pytest.param(str(2 ** 1024), id="2**1024"),
        pytest.param(str(-2 ** 1024), id="-2**1024"), pytest.param(str(10 ** 400), id="10**400")])
    def test_rejected(self, field, number):
        text = NUMBERS_TEXT % {**IN_RANGE, field: number}
        with pytest.raises(FileFormatError,
                           match=f"^{field} holds a number beyond the float64 range$"):
            parse_instance(text)

    def test_largest_numbers_still_parse(self):
        spec = parse_instance(NUMBERS_TEXT % {**IN_RANGE, "cost": str(2 ** 1023),
                                              "pi0": "1.7976931348623157e308"})
        assert spec.cost[0, 0] == 2.0 ** 1023 and spec.pi0[0, 0] == 1.7976931348623157e308
        assert np.isinf(spec.cost).sum() == 2

    def test_integer_past_the_digit_limit(self):
        with pytest.raises(FileFormatError, match="^parse error: Exceeds the limit"):
            parse_instance(NUMBERS_TEXT % {**IN_RANGE, "cost": "1" * 5000})

    @pytest.mark.parametrize("field, number", [
        ("cost", "1e999"), pytest.param("mu", str(2 ** 1024), id="mu-2**1024"),
        pytest.param("pi0", str(2 ** 1024), id="pi0-2**1024")])
    def test_cli_prints_an_error_line(self, tmp_path, capsys, field, number):
        path = tmp_path / "inst.json"
        path.write_text(NUMBERS_TEXT % {**IN_RANGE, field: number})
        out = tmp_path / "res.json"
        assert main(["solve", str(path), "--problem", "primal", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {field} holds a number beyond the float64 range\n")
        assert not out.exists()


# Values at the edges of the one-pass float-list writer: signed zeros,
# infinities, the 1e17 bound of its ".0" rule, integers past 2**53, the
# smallest subnormal and a value near the largest double.
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, 1e16, -1e16, 1e17, -1e17,
               99999999999999984.0, 2.0 ** 53 + 2, -(2.0 ** 53 + 2), 5e-324,
               -5e-324, 1.797e308, -1.797e308, -1.0, -3.0, -1234567.0, 0.5, 1e-5]

finite_or_edge = st.one_of(
    st.floats(allow_nan=False),
    st.integers(-2 ** 70, 2 ** 70).map(float),
    st.sampled_from(EDGE_FLOATS),
)


def per_value(values: list, pad: str = "") -> str:
    """A nonempty list laid out one value at a time, as the writer did for every list."""
    items = [str(v) if isinstance(v, int) else _format_float(float(v)) for v in values]
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"


class TestFloatListWriter:
    def test_edge_values(self):
        assert dumps_canonical(EDGE_FLOATS) == per_value(EDGE_FLOATS) + "\n"

    @given(st.lists(finite_or_edge, min_size=1, max_size=40))
    def test_matches_per_value_format(self, values):
        assert dumps_canonical(values) == per_value(values) + "\n"
        nested = dumps_canonical({"rows": [values, values]})
        inner = per_value(values, "    ")
        assert nested == f'{{\n  "rows": [\n    {inner},\n    {inner}\n  ]\n}}\n'
        assert dumps_canonical({"rows": np.array([values, values])}) == nested

    @given(st.lists(finite_or_edge, max_size=20), st.data())
    def test_nan_anywhere_rejected(self, values, data):
        values.insert(data.draw(st.integers(0, len(values))), math.nan)
        with pytest.raises(FileFormatError, match="NaN"):
            dumps_canonical({"values": values})

    @given(st.lists(finite_or_edge, min_size=1, max_size=20))
    def test_numpy_floats_keep_their_bytes(self, values):
        arr = np.array(values)
        assert dumps_canonical([np.float64(v) for v in values]) == per_value(values) + "\n"
        assert dumps_canonical(arr) == per_value(values) + "\n"

    @given(st.lists(st.one_of(finite_or_edge, st.integers(-2 ** 70, 2 ** 70)), min_size=1,
                    max_size=20))
    def test_mixed_ints_and_floats_keep_their_bytes(self, values):
        assert dumps_canonical(values) == per_value(values) + "\n"


# Values planted in rows that are otherwise +0.0: the edge values above and
# any float, integers past 2**53 among them.
planted = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False),
    st.integers(2 ** 53, 2 ** 70).map(float),
    st.integers(2 ** 53, 2 ** 70).map(lambda v: -float(v)),
)


@st.composite
def zero_heavy_rows(draw, min_rows=1, max_rows=1, max_size=300):
    """Rows of one length, each +0.0 but for planted values at random cells.

    A row's share of planted cells runs from none to all, so rows fall on
    both sides of the writer's switch between splicing into the all-zero
    row and formatting in one pass.
    """
    size = draw(st.integers(1, max_size))
    values = draw(st.lists(planted, min_size=1, max_size=12))
    rnd = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    rows = []
    for _ in range(draw(st.integers(min_rows, max_rows))):
        row = [0.0] * size
        for i in rnd.sample(range(size), draw(st.integers(0, size))):
            row[i] = rnd.choice(values)
        rows.append(row)
    return rows


class TestZeroHeavyRows:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(zero_heavy_rows())
    def test_row_matches_per_value_format(self, rows):
        row, = rows
        assert dumps_canonical(np.array(row)) == per_value(row) + "\n"

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(zero_heavy_rows(max_rows=6))
    def test_matrix_is_its_rows_written_one_by_one(self, rows):
        one_by_one = dumps_canonical({"m": [np.array(row) for row in rows]})
        assert dumps_canonical({"m": np.array(rows)}) == one_by_one
        inner = ",\n    ".join(per_value(row, "    ") for row in rows)
        assert one_by_one == f'{{\n  "m": [\n    {inner}\n  ]\n}}\n'

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(zero_heavy_rows(max_rows=3), st.data())
    def test_nan_anywhere_rejected(self, rows, data):
        mat = np.array(rows)
        cell = data.draw(st.tuples(st.integers(0, mat.shape[0] - 1),
                                   st.integers(0, mat.shape[1] - 1)))
        mat[cell] = math.nan
        for arr in (mat, mat[cell[0]]):
            with pytest.raises(FileFormatError, match="NaN"):
                dumps_canonical({"values": arr})

    @pytest.mark.parametrize("planted_cells", [0, 1, 74, 75, 76, 299, 300])
    def test_rows_on_both_sides_of_the_switch(self, planted_cells):
        # the writer splices a row of 300 with up to 75 cells other than +0.0
        row = [0.0] * 300
        for i in range(planted_cells):
            row[(7 * i) % 300] = EDGE_FLOATS[1 + i % (len(EDGE_FLOATS) - 1)]
        assert dumps_canonical(np.array(row)) == per_value(row) + "\n"
        assert dumps_canonical(np.array([row, row[::-1]])) == dumps_canonical([row, row[::-1]])


# The per-row writer that the matrix-level splice replaced, kept as the
# oracle of its bytes: every spliced row was formatted with its own `%`
# pass over the whole row's text.
ORACLE_TEMPLATES = np.array(["%.17g", "%.17g.0", '"%.17g"'], dtype=object)


def oracle_templates(values):
    kind = ((values == np.trunc(values)) & (np.abs(values) < 1e17)) + 2 * np.isinf(values)
    return ORACLE_TEMPLATES[kind]


def per_row_oracle(mat, pad):
    if np.isnan(mat).any():
        raise FileFormatError("NaN is not serializable")
    item_pad = pad + "  "
    sep = ",\n" + item_pad
    live = (mat != 0.0) | np.signbit(mat)
    counts = live.sum(axis=1)
    spliced = counts <= 0.25 * mat.shape[1]

    def one_pass(row):
        return (f"[\n{item_pad}{sep.join(oracle_templates(row).tolist())}\n{pad}]"
                % tuple(row.tolist()))

    if not spliced.any():
        return [one_pass(row) for row in mat]
    zero = f"[\n{item_pad}{sep.join(['0.0'] * mat.shape[1])}\n{pad}]"
    cells = live & spliced[:, None]
    values = mat[cells]
    templates = oracle_templates(values)
    starts = len(item_pad) + 2 + (len(sep) + 3) * (np.flatnonzero(cells) % mat.shape[1])
    rows = []
    lo = 0
    for row, splice, hi in zip(mat, spliced.tolist(),
                               np.cumsum(np.where(spliced, counts, 0)).tolist()):
        if not splice:
            rows.append(one_pass(row))
        elif lo == hi:
            rows.append(zero)
        else:
            parts, prev = [], 0
            for start, template in zip(starts[lo:hi].tolist(), templates[lo:hi].tolist()):
                parts += (zero[prev:start], template)
                prev = start + 3
            parts.append(zero[prev:])
            rows.append("".join(parts) % tuple(values[lo:hi].tolist()))
        lo = hi
    return rows


def as_lists(obj):
    """``obj`` with every numpy array turned into nested lists of Python numbers."""
    if isinstance(obj, dict):
        return {key: as_lists(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [as_lists(value) for value in obj]
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


def oracle_dumps(obj):
    """The document as the writer lays out lists: one `_format_float` per value."""
    return dumps_canonical(as_lists(obj))


def writer_rows(mat, pad):
    """The rows the writer gives a matrix whose brackets sit at ``pad``."""
    arr = fileformats._FloatArray(mat, pad)
    fileformats._format_arrays([arr])
    arr.pieces()
    return ["".join(row) if isinstance(row, tuple) else row for row in arr.rows]


def planted_matrix(rng, shape, live_per_row, values=EDGE_FLOATS[1:]):
    """+0.0 but for ``live_per_row[i]`` cells of row i, drawn from ``values``."""
    mat = np.zeros(shape)
    for row, k in zip(mat, live_per_row):
        row[rng.choice(shape[1], size=k, replace=False)] = rng.choice(values, size=k)
    return mat


class TestMatrixSpliceMatchesPerRowWriter:
    """The matrix-level splice writes the bytes of the per-row writer it replaced."""

    @staticmethod
    def assert_same_bytes(mat):
        for indent in range(4):
            pad = "  " * indent
            assert writer_rows(mat, pad) == per_row_oracle(mat, pad + "  ")
        for doc in (mat, {"m": mat}, {"a": {"m": [mat, mat[0]]}}):
            assert dumps_canonical(doc) == oracle_dumps(doc)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (1, 300), (300, 1), (7, 5)])
    @pytest.mark.parametrize("share", [0.0, 0.1, 0.5, 1.0])
    def test_shapes(self, shape, share):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        live = [int(round(share * shape[1]))] * shape[0]
        self.assert_same_bytes(planted_matrix(rng, shape, live))

    def test_no_nonzero_cell(self):
        for mat in (np.zeros((4, 6)), np.zeros((1, 1)), np.zeros((3, 300))):
            self.assert_same_bytes(mat)

    def test_all_dense(self):
        rng = np.random.default_rng(2)
        mat = rng.uniform(-5.0, 5.0, (6, 40))
        mat[rng.random(mat.shape) < 0.2] = math.inf
        self.assert_same_bytes(mat)
        self.assert_same_bytes(np.array([EDGE_FLOATS[1:]] * 3))

    @pytest.mark.parametrize("width", [4, 8, 12, 300])
    def test_rows_at_the_splice_share(self, width):
        at = int(fileformats._SPLICE_SHARE * width)
        assert at == fileformats._SPLICE_SHARE * width
        live = [at - 1, at, at + 1, 0, at, at + 1, width, at]
        self.assert_same_bytes(planted_matrix(np.random.default_rng(width),
                                              (len(live), width), live))

    @pytest.mark.parametrize("value", [-0.0, math.inf, -math.inf, 5e-324, -5e-324,
                                       2.2250738585072009e-308, 1e17, -1e17, 2.0 ** 60,
                                       99999999999999984.0, 1e300, 0.5])
    def test_edge_cells(self, value):
        mat = np.zeros((5, 12))
        mat[0, 0] = mat[1, 11] = mat[2, 5] = mat[2, 6] = mat[4, [0, 3, 11]] = value
        self.assert_same_bytes(mat)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixtures(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(1, 60, size=2))
        live = rng.integers(0, shape[1] + 1, size=shape[0]) * (rng.random(shape[0]) < 0.7)
        values = np.concatenate([EDGE_FLOATS[1:], rng.normal(size=20) * 1e3])
        self.assert_same_bytes(planted_matrix(rng, shape, live, values))

    def test_nan_raises(self):
        mat = np.zeros((3, 8))
        mat[2, 4] = math.nan
        for arr in (mat, mat[2], mat[:, 4]):
            with pytest.raises(FileFormatError, match="NaN"):
                dumps_canonical({"m": arr})

    def test_ex33_result_file(self):
        spec = InstanceSpec(kind="ex33", n=144, shift="auto-golden", seed=1)
        problem = materialize(spec)
        report = solve_primal(problem.cost, problem.mu, problem.nu)
        doc = fileformats.result_document("primal", instance_to_jsonable(spec), report)
        assert np.count_nonzero(doc["plan"]) == 144
        assert fileformats.serialize_result(doc) == oracle_dumps(doc)

    def test_explicit_result_file(self):
        # the shape of a benchmark instance: n = 300, a fifth of the cost
        # forbidden off the support of a north-west-corner pi0
        rng = np.random.default_rng(1)
        cost = rng.uniform(0.0, 5.0, size=(300, 300))
        mu, nu = (Marginal(w / w.sum()) for w in rng.uniform(0.2, 1.0, size=(2, 300)))
        pi0 = nw_corner(mu, nu)
        cost[(pi0.mass == 0) & (rng.random(cost.shape) < 0.2)] = math.inf
        spec = InstanceSpec(kind="explicit", cost=cost, mu=mu.weights, nu=nu.weights,
                            pi0=pi0.mass, seed=1)
        problem = materialize(spec)
        report = solve_primal(problem.cost, problem.mu, problem.nu)
        doc = fileformats.result_document("primal", instance_to_jsonable(spec), report)
        assert fileformats.serialize_result(doc) == oracle_dumps(doc)


def formatter_texts(values) -> list:
    values = np.asarray(values, dtype=float)
    return fileformats._float_texts(values, np.ones(values.size, np.uint8)).split("\x01")[1:]


def ulp_ladder(center: float, steps: int) -> list:
    """``center`` and its ``steps`` float neighbours on each side."""
    below, above = [center], [center]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def decimal_ties() -> list:
    """Floats v with v * 10**(16 - x) exactly halfway between two integers.

    v = m / 2**(p + 1) with m odd and p = 16 - x puts the half at the
    17th digit: v * 10**p = m * 5**p / 2.  m lies in [b, 10 b) with
    b = 2**(p + 1) * 10**(16 - p), so that v has exponent x, and below
    2**53, so that v is exact.
    """
    out = []
    for p in range(1, 21):
        base = 2.0 ** (p + 1) * 10.0 ** (16 - p)
        for scale in (1, 1.5, 2.25, 3, 7, 9.75):
            m = math.ceil(base * scale) | 1
            if m < 2 ** 53:
                out.append(math.ldexp(m, -(p + 1)))
    return out


@functools.cache
def exactness_families() -> dict:
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=20000, dtype=np.uint64).view(np.float64)
    subnormal_bits = rng.integers(1, 2 ** 52, size=500, dtype=np.uint64).view(np.float64)
    powers = [10.0 ** k for k in range(-30, 31)]
    families = {
        "raw bit patterns": bits[~np.isnan(bits)].tolist(),
        "decimal edges": [v for edge in (1e-5, 1e-4, 1e16, 1e17) for v in ulp_ladder(edge, 40)],
        "powers of ten": [v for p in powers for v in ulp_ladder(p, 1)],
        "ties": decimal_ties(),
        "subnormals": subnormal_bits.tolist() + [5e-324, 2.2250738585072009e-308],
        # m / 2**k has k fraction digits, so its 17 digits end in zeros
        # from every group on
        "dyadic": (rng.integers(1, 2 ** 20, size=20000).astype(float)
                   * 2.0 ** -rng.integers(0, 24, size=20000)).tolist(),
        "integral": [float(k) for k in range(-50, 51)] + [2.0 ** k for k in range(40, 60)]
                    + [99999999999999984.0, 1e17 + 16, 2.0 ** 53 + 2],
        "fixed texts": [0.0, -0.0, math.inf, -math.inf],
        "benchmark cost": rng.uniform(0.0, 5.0, size=5000).tolist(),
    }
    return {name: values + [-v for v in values] for name, values in families.items()}


class TestExactFormatter:
    """`_float_texts` writes what `_format_float` writes, value by value."""

    @pytest.mark.parametrize("family", sorted(exactness_families()))
    def test_family(self, family):
        values = exactness_families()[family]
        assert formatter_texts(values) == [_format_float(v) for v in values]

    def test_ties_are_ties(self):
        from fractions import Fraction

        for v in decimal_ties():
            x = math.floor(math.log10(v))
            assert (Fraction(v) * 10 ** (16 - x)).denominator == 2

    def test_separators(self):
        values = np.arange(6) * 0.25 - 2.0
        seps = np.frombuffer(b"\x01,,\x02,\x01", dtype=np.uint8)
        assert (fileformats._float_texts(values, seps)
                == "\x01-2.0,-1.75,-1.5\x02-1.25,-1.0\x01-0.75")

    def test_nan_raises(self):
        for values in ([math.nan], [1.0, math.nan, math.inf], [0.0, -math.nan]):
            with pytest.raises(FileFormatError, match="NaN"):
                formatter_texts(values)

    def test_working_set_of_a_dense_matrix(self):
        # what writing the rows of a 300 x 300 cost allocates beyond their
        # text: one block of cells at a time, not the matrix
        import tracemalloc

        rng = np.random.default_rng(1)
        mat = rng.uniform(0.0, 5.0, (300, 300))
        mat[rng.random(mat.shape) < 0.2] = math.inf
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows = writer_rows(mat, "")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base - sum(map(len, rows)) < 1.5 * 2 ** 20


class TestInstanceFiles:
    def test_explicit_roundtrip(self, rng):
        cost = rng.uniform(0, 5, (3, 4))
        cost[1, 2] = math.inf
        mu = rng.uniform(0.1, 1, 3)
        nu = rng.uniform(0.1, 1, 4)
        spec = InstanceSpec(kind="explicit", cost=cost, mu=mu / mu.sum(),
                            nu=nu / nu.sum())
        back = roundtrip(spec)
        assert np.array_equal(back.cost, cost)
        assert np.array_equal(back.mu, spec.mu)

    def test_rotation_roundtrip(self):
        for spec in (InstanceSpec(kind="ap", n=8, shift="auto-golden", k_max=5),
                     InstanceSpec(kind="ex33", n=12, shift=5, k_max=11, seed=3)):
            back = roundtrip(spec)
            assert back == spec

    def test_unknown_fields_rejected(self):
        text = dumps_canonical({"schema_version": 1, "kind": "ap", "n": 8,
                                "mystery": 1})
        with pytest.raises(FileFormatError, match="unknown fields"):
            parse_instance(text)

    def test_missing_fields_rejected(self):
        text = dumps_canonical({"schema_version": 1, "kind": "explicit",
                                "mu": [1.0], "nu": [1.0]})
        with pytest.raises(FileFormatError, match="missing fields"):
            parse_instance(text)

    def test_bad_schema_version(self):
        with pytest.raises(FileFormatError, match="schema_version"):
            parse_instance(dumps_canonical({"schema_version": 2, "kind": "ap", "n": 8}))

    def test_bad_kind(self):
        with pytest.raises(FileFormatError, match="kind"):
            parse_instance(dumps_canonical({"schema_version": 1, "kind": "nope"}))

    @pytest.mark.parametrize("cell", [True, "nan", "Infinity", " inf", None, [1.0], False])
    def test_cost_cells_are_numbers_or_inf_markers(self, cell):
        doc = {"schema_version": 1, "kind": "explicit",
               "cost": [[1.0, 2.0], [3.0, cell]], "mu": [0.5, 0.5], "nu": [0.5, 0.5]}
        with pytest.raises(FileFormatError, match='cost entries must be numbers or "inf"'):
            parse_instance(json.dumps(doc))

    def test_inf_markers_and_ints_become_floats(self):
        doc = {"schema_version": 1, "kind": "explicit",
               "cost": [[1, "inf"], ["-inf", 0.5]], "mu": [1, 0], "nu": [0.5, 0.5]}
        spec = parse_instance(json.dumps(doc))
        assert spec.cost.dtype == float and spec.mu.dtype == float
        assert spec.cost.tolist() == [[1.0, math.inf], [-math.inf, 0.5]]
        assert spec.mu.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("values", [[0.5, True], [0.5, "x"], [0.5, [0.5]], [0.5, False],
                                        [1, "inf", "x"]])
    def test_marginal_cells_are_numbers(self, values):
        doc = {"schema_version": 1, "kind": "explicit",
               "cost": [[1.0, 2.0], [3.0, 4.0]], "mu": values, "nu": [0.5, 0.5]}
        with pytest.raises(FileFormatError, match="mu entries must be numbers"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("seed", ["7", 1.5, True, "inf"])
    def test_seed_must_be_an_integer(self, seed):
        for doc in ({"schema_version": 1, "kind": "ap", "n": 8, "seed": seed},
                    {"schema_version": 1, "kind": "explicit", "cost": [[0.0]],
                     "mu": [1.0], "nu": [1.0], "seed": seed}):
            with pytest.raises(FileFormatError, match="seed must be an integer"):
                parse_instance(json.dumps(doc))

    def test_ragged_cost_rejected(self):
        doc = {"schema_version": 1, "kind": "explicit",
               "cost": [[1.0, 2.0], [3.0]], "mu": [0.5, 0.5], "nu": [0.5, 0.5]}
        with pytest.raises(FileFormatError, match="uneven"):
            parse_instance(dumps_canonical(doc))


class TestMaterialize:
    def test_explicit(self):
        spec = InstanceSpec(kind="explicit",
                            cost=np.array([[0.0, math.inf], [1.0, 0.0]]),
                            mu=np.array([0.5, 0.5]), nu=np.array([0.5, 0.5]))
        problem = materialize(spec)
        assert problem.cost.finite_mask.sum() == 3
        assert problem.reference_plan is None

    def test_explicit_with_reference(self):
        spec = InstanceSpec(kind="explicit",
                            cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
                            mu=np.array([0.5, 0.5]), nu=np.array([0.5, 0.5]),
                            pi0=np.eye(2) / 2)
        problem = materialize(spec)
        assert problem.reference_plan is not None

    def test_ap_default_reference_is_half_mixture(self):
        problem = materialize(InstanceSpec(kind="ap", n=8, shift="auto-golden"))
        plan = problem.reference_plan
        assert plan.total_mass() == pytest.approx(1.0)
        assert int(plan.support().sum()) == 16
        assert problem.rotation.shift == 5

    def test_ex33_defaults(self):
        problem = materialize(InstanceSpec(kind="ex33", n=12, shift=5))
        assert problem.k_max == 11
        assert problem.cost.finite_mask.all()

    def test_shape_mismatch_rejected(self):
        spec = InstanceSpec(kind="explicit", cost=np.zeros((2, 2)),
                            mu=np.array([0.5, 0.5]), nu=np.array([0.25, 0.25, 0.5]))
        with pytest.raises(FileFormatError):
            materialize(spec)

    def test_odd_ap_rejected(self):
        with pytest.raises(FileFormatError):
            materialize(InstanceSpec(kind="ap", n=9, shift=2))

    @pytest.mark.parametrize("kind", ["ap", "ex33"])
    @pytest.mark.parametrize("n", [1, 3, 2001, 2_000_000])
    def test_size_checked_before_the_shift_is_derived(self, monkeypatch, kind, n):
        def fail(n):
            raise AssertionError(f"golden_shift({n}) called")

        monkeypatch.setattr(fileformats, "golden_shift", fail)
        with pytest.raises(FileFormatError, match="grid size"):
            materialize(InstanceSpec(kind=kind, n=n, shift="auto-golden"))

    def test_size_one_message(self):
        spec = parse_instance('{"schema_version": 1, "kind": "ap", "n": 1}')
        with pytest.raises(FileFormatError) as err:
            materialize(spec)
        assert str(err.value) == "invalid rotation instance: grid size must be at least 4"


class TestResultFiles:
    def test_roundtrip_identity(self):
        plan = TransportPlan(np.array([[0.5, 0.0], [0.0, 0.5]]), PlanKind.EXACT)
        for optimal_plan in (None, plan):
            report = DualityReport(
                primal_value=1.0, dual_value=1.0, optimal_plan=optimal_plan,
                optimal_potentials=PotentialPair(np.zeros(2), np.array([1.0, -math.inf])),
                stats=SolverStats(iterations=3, pivots=2, wall_ms=0.5))
            doc = fileformats.result_document(
                "primal", {"schema_version": 1, "kind": "ap", "n": 8, "shift": "auto-golden"}, report)
            text = fileformats.serialize_result(doc)
            back = fileformats.parse_result(text)
            # the doc holds arrays where the parsed file holds lists
            assert list(back) == list(doc)
            for key, value in doc.items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(np.array(back[key]), value), key
                else:
                    assert back[key] == value, key
            assert fileformats.serialize_result(back) == text
