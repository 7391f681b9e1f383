import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointwise import evaluate, unit_samples
from toeplab.symbols import MatrixSymbol, ScalarSymbol

Z = ScalarSymbol.monomial(1)
ZBAR = ScalarSymbol.monomial(-1)
ONE = ScalarSymbol.constant(1.0)


def scalar(d):
    return ScalarSymbol(d)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_single_monomial():
    assert evaluate(Z, 1j) == 1j


def test_eval_one_plus_z_at_one():
    assert evaluate(ONE + Z, 1.0) == 2.0 + 0j


def test_eval_two_sided_matches_direct_summation():
    # independent oracle: sum the dictionary by hand
    phi = scalar({1: 1.0, -1: 1.0})
    z = np.exp(1j * np.pi / 3)
    expected = sum(c * z**n for n, c in {1: 1.0, -1: 1.0}.items())
    got = evaluate(phi, z)
    assert abs(got - expected) <= 1e-15
    assert abs(got - 1.0) <= 1e-12  # 2 cos(pi/3)


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_moves_constant_matrix_to_reflected_index():
    a = np.array([[1 + 2j, 3], [0, 4j]])
    phi = MatrixSymbol(2, {1: a})
    adj = phi.adjoint()
    assert adj.support == (-1,)
    assert np.array_equal(adj.coeff(-1), a.conj().T)


def test_adjoint_fixes_hermitian_constant():
    h = np.array([[2.0, 1 - 1j], [1 + 1j, 3.0]])
    phi = MatrixSymbol(2, {0: h})
    assert phi.adjoint() == phi


def test_adjoint_matches_entrywise_conjugate_reflect():
    # oracle: adjoint entry (i, j) equals conj-reflect of entry (j, i)
    phi = MatrixSymbol.from_entries([[Z, ScalarSymbol.zero()], [ONE, ZBAR]])
    adj = phi.adjoint()
    expected = MatrixSymbol.from_entries([[ZBAR, ONE], [ScalarSymbol.zero(), Z]])
    assert adj == expected
    for i in range(2):
        for j in range(2):
            assert adj.entry(i, j) == phi.entry(j, i).conj_reflect()


@given(
    st.dictionaries(
        st.integers(-3, 3),
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        max_size=5,
    )
)
def test_adjoint_is_an_involution(coeffs):
    phi = MatrixSymbol(1, {n: [[c]] for n, c in coeffs.items()})
    assert phi.adjoint().adjoint() == phi


# ---------------------------------------------------------------------------
# arithmetic


def test_mul_z_times_zbar_is_one():
    assert Z * ZBAR == ONE


def test_mul_difference_of_squares():
    assert (ONE + Z) * (ONE - Z) == scalar({0: 1.0, 2: -1.0})


def test_mul_matches_pointwise_evaluation():
    rng = np.random.default_rng(11)

    def rand_sym(dim):
        grid = [
            [
                scalar({int(n): complex(rng.standard_normal(), rng.standard_normal())
                        for n in rng.choice(np.arange(-3, 4), size=3, replace=False)})
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
        return MatrixSymbol.from_entries(grid)

    phi, psi = rand_sym(2), rand_sym(2)
    prod = phi * psi
    for z in unit_samples(32):
        expected = evaluate(phi, z) @ evaluate(psi, z)
        assert np.allclose(evaluate(prod, z), expected, rtol=1e-12, atol=1e-12)


def test_add_and_mul_reject_dimension_mismatch():
    with pytest.raises(ValueError):
        MatrixSymbol.identity(2) + MatrixSymbol.identity(3)
    with pytest.raises(ValueError):
        MatrixSymbol.identity(2) * MatrixSymbol.identity(3)


@given(
    st.dictionaries(st.integers(-3, 3),
                    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                    max_size=4),
    st.dictionaries(st.integers(-3, 3),
                    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                    max_size=4),
    st.floats(0.0, 2 * np.pi),
)
@settings(max_examples=60)
def test_eval_respects_algebra(c1, c2, theta):
    phi, psi = scalar(c1), scalar(c2)
    z = complex(np.cos(theta), np.sin(theta))
    a, b = evaluate(phi, z), evaluate(psi, z)
    assert abs(evaluate(phi + psi, z) - (a + b)) <= 1e-12 * max(1.0, abs(a), abs(b))
    assert abs(evaluate(phi * psi, z) - a * b) <= 1e-12 * max(1.0, abs(a * b))


@given(
    st.dictionaries(st.integers(-4, 4),
                    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                    max_size=5),
    st.dictionaries(st.integers(-4, 4),
                    st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
                    max_size=5),
)
def test_bandwidth_subadditive_under_products(c1, c2):
    phi, psi = scalar(c1), scalar(c2)
    assert (phi * psi).bandwidth <= phi.bandwidth + psi.bandwidth


# ---------------------------------------------------------------------------
# structure predicates and storage


@pytest.mark.parametrize(
    "sym,analytic,coanalytic",
    [
        (ONE + Z, True, False),
        (ScalarSymbol.zero(), True, True),
        (Z + ZBAR, False, False),
        (ScalarSymbol.constant(5.0), True, True),
    ],
)
def test_analytic_and_coanalytic_flags(sym, analytic, coanalytic):
    assert sym.is_analytic() is analytic
    assert sym.is_coanalytic() is coanalytic


def test_bandwidth_examples():
    assert ScalarSymbol.zero().bandwidth == 0
    assert ScalarSymbol.constant(2.0).bandwidth == 0
    assert scalar({-3: 1.0, 2: 1.0}).bandwidth == 3


def test_small_coefficients_are_kept():
    assert scalar({0: 1e-16, 1: 1e-16}).support == (0, 1)
    assert ((ONE + Z) - (ONE + Z)).is_zero()
    phi = MatrixSymbol(2, {0: [[1e-16, 0], [0, 1.0]]})
    assert phi.entry(0, 0) == scalar({0: 1e-16})
    assert phi.entry(0, 1).is_zero()
    assert phi.entry(1, 1) == ONE

    def supports(coeffs):
        sym = scalar(coeffs)
        return (sym.support, sym.as_matrix().support,
                MatrixSymbol(1, {n: [[c]] for n, c in coeffs.items()}).entry(0, 0).support)

    # Python's abs and numpy's modulus differ in the last bit for this value
    found = {0: 1.0, 1: 9.99851971761689e-16 + 1.7205655008244635e-17j}
    assert supports(found) == ((0, 1),) * 3
    rng = np.random.default_rng(38)
    tiny = 1e-15 * rng.uniform(0.999, 1.001, 20_000) * np.exp(2j * np.pi * rng.random(20_000))
    assert supports({n: complex(c) for n, c in enumerate(tiny)}) == (tuple(range(20_000)),) * 3


def test_entry_view_roundtrip():
    grid = [[Z, ONE], [ZBAR, Z * Z]]
    phi = MatrixSymbol.from_entries(grid)
    for i in range(2):
        for j in range(2):
            assert phi.entry(i, j) == grid[i][j]


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), complex(1.0, float("-inf")), complex(float("nan"), 0.0)]
)
def test_non_finite_coefficients_are_rejected(bad):
    with pytest.raises(ValueError):
        ScalarSymbol({0: bad, 1: 1.0})
    with pytest.raises(ValueError):
        MatrixSymbol(1, {0: [[bad]]})
    with pytest.raises(ValueError):
        MatrixSymbol(2, {1: [[1.0, 0.0], [0.0, bad]]})


def test_a_finite_coefficient_whose_modulus_overflows_is_rejected():
    # both parts are finite, but |c| is about 2.1e308
    big = complex(1.5e308, 1.5e308)
    with pytest.raises(ValueError, match="modulus exceeds the float range"):
        ScalarSymbol({1: big})
    with pytest.raises(ValueError, match="modulus exceeds the float range"):
        MatrixSymbol(1, {1: [[big]]})
    with pytest.raises(ValueError, match="modulus exceeds the float range"):
        MatrixSymbol(2, {0: [[1.0, 0.0], [big, 0.0]]})
    assert ScalarSymbol({1: complex(1e308, 1e308)}).coeff(1) == complex(1e308, 1e308)


def test_a_coefficient_difference_beyond_the_float_range_is_inf():
    a, b = ScalarSymbol({0: 1.5e308, 1: 1.0}), ScalarSymbol({0: -1.5e308j, 1: 1.0})
    assert a.max_coeff_diff(b) == b.max_coeff_diff(a) == np.inf
    assert a.max_coeff_diff(a) == 0.0
    assert ScalarSymbol({0: 1e308}).max_coeff_diff(ScalarSymbol({0: -1e308j})) == abs(complex(1e308, 1e308))


def test_overflowing_arithmetic_is_rejected():
    big = ScalarSymbol.constant(1e200)
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        MatrixSymbol(1, {0: [[1e200]]}) * MatrixSymbol(1, {0: [[1e200]]})


def test_matrix_addition_is_python_complex_addition_bitwise():
    # entries over 16 decades; entry extraction must commute with addition
    rng = np.random.default_rng(81)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a, b = (
            MatrixSymbol(d, {
                int(n): (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
                * 10.0 ** rng.integers(-8, 9, (d, d))
                for n in rng.choice(np.arange(-3, 4), size=3, replace=False)
            })
            for _ in range(2)
        )
        total = a + b
        assert total.support == tuple(sorted(set(a.support) | set(b.support)))
        for n in total.support:
            want = np.array([[complex(x) + complex(y) for x, y in zip(ra, rb)]
                             for ra, rb in zip(a.coeff(n), b.coeff(n))])
            assert total.coeff(n).tobytes() == want.tobytes()
        for i in range(d):
            for j in range(d):
                assert total.entry(i, j) == a.entry(i, j) + b.entry(i, j)


def test_matrix_scaling_is_python_complex_multiplication_bitwise():
    # suite criterion 6 (max_linearity_diff == 0.0) and the exact dilation
    # round trip rest on entry extraction commuting with scaling; numpy's
    # vectorized complex multiply rounds differently from Python's
    rng = np.random.default_rng(82)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        m = MatrixSymbol(d, {
            int(n): (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
            * 10.0 ** rng.integers(-8, 9, (d, d))
            for n in rng.choice(np.arange(-3, 4), size=3, replace=False)
        })
        alpha = complex(*rng.standard_normal(2)) * 10.0 ** rng.integers(-4, 5)
        for scaled in (alpha * m, m * alpha):
            for i in range(d):
                for j in range(d):
                    got, want = scaled.entry(i, j), alpha * m.entry(i, j)
                    assert got == want
                    assert all(got.coeff(n).real.hex() == want.coeff(n).real.hex()
                               and got.coeff(n).imag.hex() == want.coeff(n).imag.hex()
                               for n in want.support)
