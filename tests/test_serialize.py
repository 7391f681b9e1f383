import json
import math

import numpy as np
import pytest

from toeplab.circulant import CirculantSymbol
from toeplab.classify import ClassificationCertificate
from toeplab.reducing import ReducingReport
from toeplab.serialize import (
    SymbolFormatError,
    circulant_to_json,
    parse_circulant,
    parse_input,
    parse_matrix,
    parse_scalar,
    render_json,
    scalar_to_json,
)
from toeplab.symbols import MatrixSymbol, ScalarSymbol
from toeplab.toeplitz import CommutatorReport

PHI = ScalarSymbol({-2: 0.3 + 0.1j, 0: 0.5, 1: 1.0 / 3.0})
PSI = ScalarSymbol({1: -2.0j, 3: 1e-7})


def through_text(obj):
    """The object as a file holds it: rendered, then read by the json module."""
    return json.loads(render_json(obj))


# ---------------------------------------------------------------------------
# parse round trips


def test_scalar_round_trip():
    assert parse_scalar(through_text(scalar_to_json(PHI))) == PHI


def test_circulant_round_trip():
    c = CirculantSymbol([PHI, PSI, ScalarSymbol.zero()])
    back = parse_input(through_text(circulant_to_json(c)))
    assert isinstance(back, CirculantSymbol)
    assert back == c


def test_matrix_round_trip():
    phi = MatrixSymbol.from_entries([[PHI, PSI], [ScalarSymbol.zero(), PHI]])
    obj = {
        "dim": 2,
        "coeffs": {
            str(n): [[[m[i, j].real, m[i, j].imag] for j in range(2)] for i in range(2)]
            for n, m in phi.items()
        },
    }
    back = parse_input(through_text(obj))
    assert isinstance(back, MatrixSymbol)
    assert back == phi


def test_scalar_parse_rejects_a_matrix():
    with pytest.raises(SymbolFormatError, match="dim 1"):
        parse_scalar({"dim": 2, "coeffs": {}})


# ---------------------------------------------------------------------------
# malformed input is a SymbolFormatError, never a crash or a silent number


def scalar_with(pair):
    return {"dim": 1, "coeffs": {"0": [[pair]]}}


MALFORMED = {
    "dim-true": {"dim": True},
    "dim-true-coeffs": {"dim": True, "coeffs": {"0": [[[1.0, 0.0]]]}},
    "dim-zero": {"dim": 0},
    "dim-float": {"dim": 1.0},
    "bool-pair": scalar_with([True, False]),
    "bool-imag": scalar_with([1.0, False]),
    "nan": scalar_with([math.nan, 0.0]),
    "inf": scalar_with([0.0, math.inf]),
    "minus-inf": scalar_with([-math.inf, 0.0]),
    "int-overflow": scalar_with([10**400, 0]),
    "short-pair": scalar_with([1.0]),
    "string": scalar_with("1"),
}


@pytest.mark.parametrize("obj", MALFORMED.values(), ids=MALFORMED.keys())
def test_parse_matrix_rejects(obj):
    with pytest.raises(SymbolFormatError):
        parse_matrix(obj)


def test_parse_scalar_is_bitwise_the_matrix_route():
    # signed zeros, parts near 1e-16 and parts of mixed scale, in any key order
    rng = np.random.default_rng(34)
    parts = [0.0, -0.0, 1e-16, -3e-16, 1.0 / 3.0, -2.5, 1e300]

    def part():
        return float(rng.choice(parts)) * float(rng.choice([1.0, 0.7, -3.0]))

    for _ in range(500):
        keys = rng.choice(np.arange(-4, 5), size=int(rng.integers(0, 6)), replace=False)
        obj = {"dim": 1, "coeffs": {str(int(n)): [[[part(), part()]]] for n in keys}}
        got, want = parse_scalar(obj), parse_matrix(obj).entry(0, 0)
        assert ([(n, c.real.hex(), c.imag.hex()) for n, c in got.items()]
                == [(n, c.real.hex(), c.imag.hex()) for n, c in want.items()])


@pytest.mark.parametrize("obj", [
    *MALFORMED.values(),
    scalar_with([1.5e308, 1.5e308]),
    {"dim": 2, "coeffs": {"0": [[[1.0, 0.0]]]}},
    {"dim": 1, "coeffs": {"0": [[[1.0, 0.0]], [[0.0, 1.0]]]}},
    {"dim": 1, "coeffs": {"0": [[[1.0, 0.0], [0.0, 1.0]]]}},
    {"dim": 1, "coeffs": []},
    {"dim": 1, "coeffs": {"01": [[[1.0, 0.0]]]}},
    {"coeffs": {}},
    [1.0, 0.0],
])
def test_parse_scalar_refuses_as_the_matrix_route_did(obj):
    with pytest.raises(ValueError) as want:
        parse_matrix(obj).entry(0, 0)
    with pytest.raises(ValueError) as got:
        parse_scalar(obj)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


@pytest.mark.parametrize("n", [True, 0, 2.0, "2"])
def test_parse_circulant_rejects_a_bad_size(n):
    row = [scalar_to_json(PHI), scalar_to_json(PSI)]
    with pytest.raises(SymbolFormatError, match="circulant"):
        parse_circulant({"circulant": n, "row": row})


def test_parse_circulant_rejects_a_bad_row_entry():
    with pytest.raises(SymbolFormatError):
        parse_input({"circulant": 2, "row": [scalar_to_json(PHI), scalar_with([math.nan, 0.0])]})


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1 ", "1_0", "-0", "1.0", "", "one", "\u0661"])
def test_parse_matrix_rejects_a_key_that_is_not_a_canonical_integer(key):
    with pytest.raises(SymbolFormatError, match="canonical"):
        parse_matrix({"dim": 1, "coeffs": {key: [[[1.0, 0.0]]]}})


def test_keys_that_int_reads_alike_are_refused_not_merged():
    obj = {"dim": 1, "coeffs": {"1": [[[1.0, 0.0]]], "01": [[[2.0, 0.0]]], "+1": [[[3.0, 0.0]]]}}
    with pytest.raises(SymbolFormatError, match="'01'"):
        parse_input(obj)


@pytest.mark.parametrize("key", ["0", "7", "-3", "123456789"])
def test_parse_matrix_reads_canonical_keys(key):
    assert parse_scalar({"dim": 1, "coeffs": {key: [[[1.0, 0.0]]]}}).support == (int(key),)


def test_nan_from_json_text_is_rejected():
    # the json module reads NaN and Infinity literals as floats
    obj = json.loads('{"dim": 1, "coeffs": {"0": [[[NaN, 0]]], "1": [[[0, Infinity]]]}}')
    with pytest.raises(SymbolFormatError, match="finite"):
        parse_input(obj)


# ---------------------------------------------------------------------------
# report rendering


def test_render_json_prints_17_significant_digits():
    text = render_json({"x": 0.1, "y": 1.0 / 3.0})
    assert text == '{"x": 0.10000000000000001, "y": 0.33333333333333331}'
    assert render_json([1, True, None, "a"]) == '[1, true, null, "a"]'
    assert render_json(1 + 2j) == "[1, 2]"


def test_render_json_is_byte_stable_and_round_trips_floats():
    rng = np.random.default_rng(3)
    values = [float(x) for x in rng.standard_normal(50) * 10.0 ** rng.integers(-300, 300, 50)]
    report = {"values": values, "nested": {"k": values[:3]}}
    text = render_json(report)
    assert render_json(report) == text
    assert render_json(json.loads(text)) == text
    assert json.loads(text)["values"] == values


@pytest.mark.parametrize(
    "report,text",
    [
        (CommutatorReport("binormal", 64, 488, 3.0517578125e-05, "violated", 1e-08),
         '{"property": "binormal", "order": 64, "window_limit": 488, "window_norm": '
         '3.0517578125e-05, "verdict": "violated", "tolerance": 1e-08}'),
        (ReducingReport(32, 64, 1.0 / 3.0, 2.5e-16, 0.0, "not_reducing", False, 1e-10),
         '{"rank": 32, "ambient_dim": 64, "commutator_T": 0.33333333333333331, '
         '"commutator_Tstar": 2.5000000000000002e-16, "offdiagonal_norm": 0, '
         '"verdict": "not_reducing", "trivial": false, "tolerance": 1e-10}'),
        (ClassificationCertificate("not_normal", "brown_halmos",
                                   {"index": 2, "coeff_pos": 0.5 - 0.25j, "coeff_neg": None,
                                    "reading": "standard", "lags": (1, -2)}),
         '{"verdict": "not_normal", "method": "brown_halmos", "witness": {"index": 2, '
         '"coeff_pos": [0.5, -0.25], "coeff_neg": null, "reading": "standard", "lags": [1, -2]}}'),
        (ClassificationCertificate("inconclusive", "cor310_case"),
         '{"verdict": "inconclusive", "method": "cor310_case", "witness": null}'),
    ],
    ids=["commutator", "reducing", "certificate", "certificate-no-witness"],
)
def test_reports_render_to_fixed_bytes(report, text):
    assert render_json(report.to_json()) == text


@pytest.mark.parametrize("text", ["", "plain", 'quote " and \\ backslash', "tab\tnew\nline\x00",
                                  "\u00e9\u2248\U0001d53b", "\ud800 lone surrogate", "\x7f"])
def test_render_json_quotes_strings_and_keys_as_json_dumps(text):
    assert render_json(text) == json.dumps(text)
    assert render_json({text: [text]}) == json.dumps({text: [text]})


def test_render_json_rejects_numpy_bool():
    with pytest.raises(TypeError, match="bool"):
        render_json({"flag": np.bool_(True)})


@pytest.mark.parametrize("x", [math.nan, math.inf, np.float64(-math.inf)])
def test_render_json_rejects_non_finite_floats(x):
    with pytest.raises(ValueError, match="non-finite"):
        render_json({"x": x})

