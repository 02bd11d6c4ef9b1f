"""The CLI's JSON writer against the serializer it replaced.

`_jsonable` + `json.dumps(..., indent=2)` is kept here as the reference:
`cli._dump_json` must give the same text byte for byte, on the largest
payloads the CLI prints and on arbitrary floats and containers.
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import patrolgame.cli
from patrolgame import bound_suite
from patrolgame.cli import _dump_json, _fields, main


def _jsonable(obj):
    """JSON-ready copy of a payload: dataclasses become dicts, arrays and
    tuples become lists, and floats keep 12 significant digits."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj):
        obj = _fields(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def reference_dump(data) -> str:
    return json.dumps(_jsonable(data), indent=2) + "\n"


# --- the CLI's largest payloads ---------------------------------------------------

def _tau(seed: int, low: int, pin: int | None = None) -> str:
    rng = np.random.default_rng(seed)
    tau = rng.integers(low, 201, size=200)
    tau[int(rng.integers(200)) if pin is None else pin] = 200
    return ",".join(map(str, tau))


@pytest.mark.parametrize("sizes, tau", [
    (["--family", "complete", "--n", "200"], _tau(1, 1)),
    # the centre's duration does not enter the star synthesis: pin a leaf
    (["--family", "star", "--n", "200"], _tau(2, 2, pin=1)),
    (["--family", "bipartite", "--np", "100", "--nq", "100"], _tau(3, 2)),
], ids=["complete-200", "star-200", "bipartite-100+100"])
def test_emit_cdf_payload_matches_the_reference(capsys, monkeypatch, sizes, tau):
    payloads = []

    def recorded(data):
        payloads.append(data)
        return _dump_json(data)

    monkeypatch.setattr(patrolgame.cli, "_dump_json", recorded)
    assert main(["solve", *sizes, "--tau", tau, "--emit-cdf"]) == 0
    (payload,) = payloads
    assert payload["cdf"].shape == payload["P"].shape == (200, 200)
    assert capsys.readouterr().out == reference_dump(payload)


def test_emit_cdf_formats_each_distinct_float_once(monkeypatch):
    payloads, tokens = [], []
    dump, float_text = patrolgame.cli._dump_json, patrolgame.cli._float_text
    monkeypatch.setattr(patrolgame.cli, "_dump_json",
                        lambda data: payloads.append(data) or dump(data))
    monkeypatch.setattr(patrolgame.cli, "_float_text",
                        lambda token: tokens.append(token) or float_text(token))
    argv = ["solve", "--family", "star", "--n", "200", "--tau", _tau(2, 2, pin=1), "--emit-cdf"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    (payload,) = payloads
    arrays = [value for value in payload.values() if isinstance(value, np.ndarray)]
    distinct = sum(len(np.unique(array.view(np.int64))) for array in arrays)
    scalars = sum(isinstance(value, float) for value in payload.values())
    # P, pi and the CDF hold 80,200 floats, but only a few hundred distinct ones
    assert sum(array.size for array in arrays) == 80_200
    assert len(tokens) <= distinct + scalars < 1000


def test_bound_suite_checks_match_the_reference():
    checks = bound_suite().checks
    assert _dump_json(checks) == reference_dump(checks)


# --- arbitrary floats and containers ------------------------------------------------

# a "%.12g" token keeps its text only in fixed notation with a point; these
# sit on either side of that rule: integral values, exponent notation past
# 1e12 and below 1e-4 (where repr switches at 1e16 and 1e-4), 12 digits, +-0
_EDGES = [0.0, -0.0, 1.0, -2.0, 5e-324, 2.2250738585072014e-308, 1e-4, 9.99999999999e-5,
          1.5e-5, 1e12, 1.5e12, 1234567890123.0, 999999999999.5, 1e16, 1.5e16, 1e22,
          1 - 2 ** -53, 0.1 + 0.2, 123456789012.0, 1e300, float("nan"), float("inf"),
          float("-inf")]

floats = st.one_of(
    st.floats(),
    st.sampled_from(_EDGES),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-20, 20)),
    st.integers(-10 ** 9, 10 ** 9).map(lambda k: k / 10 ** 4),
)


@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6),
              elements=floats),
       st.lists(st.integers(0, 11), min_size=1, max_size=8))
@example(np.array([[0.0, 1.0]]), [0, 1, 0, 1])
def test_float_arrays_match_the_reference(array, picks):
    cases = [array]
    if array.size:
        # rows picked, repeats and all, from the array's own rows and from
        # copies whose zeros flip sign, as a 2-D and a 3-D array: each
        # distinct row is formatted once, and a row that differs only in the
        # sign of a zero stays a distinct row
        rows = array.reshape(-1, array.shape[-1])
        pool = np.concatenate([rows, np.where(rows == 0, -rows, rows)])
        repeated = pool[[pick % len(pool) for pick in picks]]
        cases += [repeated, np.stack([repeated, repeated[::-1]])]
    for case in cases:
        assert _dump_json(case) == reference_dump(case)
    payload = {"cdf": array, "rows": [array, list(array)], "mu": float(array.flat[0])
               if array.size else None}
    assert _dump_json(payload) == reference_dump(payload)


def _from_bits(*patterns: int) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


# +-0 side by side, NaNs with the sign bit and payload bits set, +-inf,
# subnormals, each repeated: one text per bit pattern, none merged
_SPECIAL = np.concatenate([
    np.tile([0.0, -0.0, 1.0, -1.0], 3),
    _from_bits(0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
               0xFFF4000000000BAD, 0x7FFFFFFFFFFFFFFF),
    np.repeat([np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310], 2),
    [0.1 + 0.2],
])
_GRID = np.linspace(-3, 3, 24).reshape(4, 6) ** 7


@pytest.mark.parametrize("array", [
    _SPECIAL,
    _SPECIAL.reshape(3, 10)[::-1],
    np.array([-0.0]),
    np.array([0.5]),
    np.array([[-0.0, 0.0, 0.0, -0.0], [0.0, -0.0, 1 / 3, 2 / 3], [1 / 3] * 4]),
    _GRID[:3, :4],
    _GRID.reshape(2, 3, 4),
    np.zeros((2, 3, 4)),
    _GRID.astype(np.float32),
    np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-45, 3.4e38, 0.1] * 2, np.float32),
    _GRID.T,
    _GRID[:, ::2],
    _GRID.reshape(2, 3, 4)[:, ::-1, 1::2],
    np.array(1 / 3),
    np.array(-0.0),
    np.array(np.nan),
], ids=["special", "special-3x10-reversed", "negative-zero", "one-value", "zeros-3x4", "3x4",
        "2x3x4", "zeros-2x3x4", "float32", "float32-special", "transposed", "strided",
        "strided-3d", "0d-third", "0d-negative-zero", "0d-nan"])
def test_fixed_float_arrays_match_the_reference(array):
    assert _dump_json(array) == reference_dump(array)
    assert _dump_json({"a": [array, array]}) == reference_dump({"a": [array, array]})


scalars = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), floats, st.text())
leaves = st.one_of(
    scalars,
    arrays(st.sampled_from([np.int64, np.bool_, np.float64]),
           array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=3)),
)
payloads = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20,
)


@given(payloads)
def test_nested_payloads_match_the_reference(payload):
    assert _dump_json(payload) == reference_dump(payload)


@dataclasses.dataclass
class _Report:
    mu: float
    worst_pair: tuple[int, int]
    skipped: object = None
    cdf: np.ndarray = dataclasses.field(default=None, metadata={"json": "capture_cdf"})


@pytest.mark.parametrize("payload", [
    {"a": [], "b": {}, "c": [[], {}, ()], "d": {"e": {"f": []}}},
    np.zeros((2, 0)),
    np.zeros((0, 3)),
    np.arange(6).reshape(2, 3),
    (1, 2.5, (3, ()), "x"),
    {'quote " back \\ newline \n tab \t': "snowman \u2603, line separator \u2028, nul \0"},
    [_Report(1 / 3, (1, 2)), _Report(0.5, (2, 1), cdf=np.full((2, 2), 2 / 3))],
], ids=["empty-containers", "array-2x0", "array-0x3", "int-array", "tuples", "escapes",
        "dataclasses"])
def test_containers_match_the_reference(payload):
    assert _dump_json(payload) == reference_dump(payload)
