import math

import numpy as np
import pytest

from toeplab.circulant import (
    CirculantPatternError,
    CirculantSymbol,
    DiagonalSymbol,
    circulant_eigen_symbols,
    circulant_from_matrix_symbol,
    conjugation_blocks,
    dft_unitary,
    diagonalize_check,
)
from pointwise import evaluate, unit_samples
from toeplab.classify import circulant_binormal_classify
from toeplab.reducing import reducing_projectors, verify_reducing
from toeplab.symbols import MatrixSymbol, ScalarSymbol
from toeplab.toeplitz import PROPERTIES, commutator_report, truncate

ONE = ScalarSymbol.constant(1.0)


def const(c):
    return ScalarSymbol.constant(c)


def rand_scalar(rng, w=3):
    idx = rng.choice(np.arange(-w, w + 1), size=rng.integers(1, 2 * w + 1), replace=False)
    return ScalarSymbol({int(n): complex(rng.standard_normal(), rng.standard_normal()) / 2
                         for n in idx})


def rand_circulant(rng, n, w=3):
    return CirculantSymbol([rand_scalar(rng, w) for _ in range(n)])


# ---------------------------------------------------------------------------
# the Fourier unitary


def test_dft_unitary_n2_is_normalized_hadamard():
    u = dft_unitary(2)
    expected = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert np.allclose(u, expected, atol=1e-12)


def test_dft_unitary_n1():
    assert np.allclose(dft_unitary(1), [[1.0]])


def test_dft_unitary_n3_columns():
    mu = (-1 + 1j * np.sqrt(3)) / 2
    u = dft_unitary(3)
    assert abs(u[1, 1] * np.sqrt(3) - mu) <= 1e-12
    expected_col1 = np.array([1, mu, mu**2]) / np.sqrt(3)
    expected_col2 = np.array([1, mu**2, mu**4]) / np.sqrt(3)
    assert np.allclose(u[:, 1], expected_col1, atol=1e-12)
    assert np.allclose(u[:, 2], expected_col2, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 17))
def test_dft_unitarity(n):
    u = dft_unitary(n)
    assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12


@pytest.mark.parametrize("n", [0, -1])
def test_dft_rejects_nonpositive_sizes(n):
    with pytest.raises(ValueError):
        dft_unitary(n)


# ---------------------------------------------------------------------------
# eigenvalue symbols


def test_eigen_symbols_of_constant_pair_match_dense_eigensolver():
    c = CirculantSymbol([const(1.0), const(2.0)])
    lams = [lam.coeff(0) for lam in circulant_eigen_symbols(c).lambdas]
    oracle = np.linalg.eigvals(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # greedy nearest pairing of the multisets
    remaining = list(oracle)
    for v in lams:
        closest = min(range(len(remaining)), key=lambda i: abs(remaining[i] - v))
        assert abs(remaining.pop(closest) - v) <= 1e-10
    assert sorted(x.real for x in lams) == pytest.approx([-1.0, 3.0])


def test_eigen_symbol_formula_n3():
    rng = np.random.default_rng(5)
    p0, p1, p2 = (rand_scalar(rng) for _ in range(3))
    mu = complex(np.exp(2j * np.pi / 3))
    lam1 = circulant_eigen_symbols(CirculantSymbol([p0, p1, p2])).lambdas[1]
    expected = p0 + mu * p1 + mu.conjugate() * p2
    assert lam1.max_coeff_diff(expected) <= 1e-14


def test_eigen_symbols_collapse_for_equal_rows():
    rng = np.random.default_rng(6)
    phi = rand_scalar(rng)
    lams = circulant_eigen_symbols(CirculantSymbol([phi, phi, phi])).lambdas
    assert lams[0].max_coeff_diff(3.0 * phi) <= 1e-14
    assert lams[1].is_zero()
    assert lams[2].is_zero()


@pytest.mark.parametrize("s", [1e-300, 1e-200, 1e-100, 1e-16, 1.0, 1e100, 1e200, 1e300])
def test_eigen_symbols_collapse_for_equal_rows_at_any_scale(s):
    # the residue of the cancelled sums is pruned relative to the rows'
    # own coefficients, so no scale leaves it behind or drops lambda_0
    rng = np.random.default_rng(61)
    for n in (2, 3, 4, 8, 9):
        phi = s * rand_scalar(rng)
        lams = circulant_eigen_symbols(CirculantSymbol([phi] * n)).lambdas
        assert lams[0].support == phi.support
        assert lams[0].max_coeff_diff(n * phi) <= 1e-15 * n * phi.max_modulus_coeff()
        assert all(lam.is_zero() for lam in lams[1:])


def test_a_small_coefficient_survives_the_eigen_symbols():
    row = ONE + 1e-17 * ScalarSymbol.monomial(1)
    (lam,) = circulant_eigen_symbols(CirculantSymbol([row])).lambdas
    assert lam == row
    lams = circulant_eigen_symbols(CirculantSymbol([row] * 3)).lambdas
    assert lams[0].support == (0, 1)
    assert lams[0].coeff(1) == pytest.approx(3e-17, rel=1e-15)
    assert all(lam.is_zero() for lam in lams[1:])


def test_eigen_symbols_that_overflow_are_refused():
    # lambda_0 = 2e308 (1 + z) is no float, and sum_j |row_j[m]| is infinite;
    # pruning against it would leave lambda_0 = 0 and read binormal
    row = 1e308 * (ONE + ScalarSymbol.monomial(1))
    with pytest.raises(ValueError, match="float range"):
        circulant_eigen_symbols(CirculantSymbol([row, row]))
    with pytest.raises(ValueError, match="float range"):
        circulant_binormal_classify(CirculantSymbol([row, row]))
    # every sum of moduli is finite, but lambda_2 = mu^10 c has a modulus just
    # above the largest float
    top = 1.7976931348623157e308 / 2 ** 0.5
    rows = [ScalarSymbol.zero()] * 5 + [ScalarSymbol.constant(complex(top, top))]
    with pytest.raises(ValueError, match="eigen-symbol 2 overflows the float range"):
        circulant_eigen_symbols(CirculantSymbol(rows))


def test_eigen_symbols_preserve_dft_order():
    # order is k = 0..n-1, never sorted: k=0 is always the row sum
    c = CirculantSymbol([const(0.0), const(1.0)])
    lams = circulant_eigen_symbols(c).lambdas
    assert lams[0].coeff(0) == pytest.approx(1.0)
    assert lams[1].coeff(0) == pytest.approx(-1.0)


# ---------------------------------------------------------------------------
# bitwise equality with the symbol-object route
#
# The eigen-symbols, the circulant's matrix symbol and the conjugation blocks
# are built without intermediate symbols.  They must equal the route through
# ScalarSymbol arithmetic and MatrixSymbol.from_entries bit for bit, with the
# eigen-symbols pruned by the same per-index rounding bound.


def _symbol_route_eigen_symbols(c):
    n = c.n
    mu = complex(np.exp(2j * np.pi / n))
    rel = 4 * n * 2.0 ** -52
    lambdas = []
    for k in range(n):
        lam = ScalarSymbol.zero()
        for j, phi in enumerate(c.row):
            lam = lam + (mu ** (j * k)) * phi
        size = {m: sum(abs(phi.coeff(m)) for phi in c.row) for m in lam.support}
        lambdas.append(ScalarSymbol({m: x for m, x in lam.items() if abs(x) > rel * size[m]}))
    return lambdas


def _hex(c):
    return c.real.hex(), c.imag.hex()


def _scalar_bits(phi):
    """Keys in stored order, with their coefficients in float.hex."""
    return [(m, _hex(c)) for m, c in phi.items()]


def _matrix_bits(phi):
    return [(m, [_hex(x) for x in mat.ravel()]) for m, mat in phi.items()]


def _bitwise_corpus(seed=26, count=400):
    """Circulants, n <= 9, w <= 3, whose rows make the DFT sums cancel: equal
    rows (partial sums vanish exactly, so keys leave and re-enter the sum),
    sign-alternating rows, rows drawn from a few values of mixed sign, rows
    of coefficients near 1e-15 and negative zeros."""
    rng = np.random.default_rng(seed)
    values = [1.0, -1.0, 0.5j, -0.5j, 0.25 - 0.75j, complex(-0.0, 1.0), complex(1.0, -0.0),
              complex(-0.0, -0.0), 1e-16, -3e-16j]
    corpus = []
    for i in range(count):
        n = int(rng.integers(1, 10))
        w = int(rng.integers(0, 4))

        def pool_row():
            idx = rng.choice(np.arange(-w, w + 1), size=int(rng.integers(1, 2 * w + 2)),
                             replace=False)
            return ScalarSymbol({int(m): values[int(rng.integers(len(values)))] for m in idx})

        kind = i % 5
        if kind == 0:
            phi = rand_scalar(rng, max(w, 1))
            rows = [phi] * n
        elif kind == 1:
            phi = rand_scalar(rng, max(w, 1))
            rows = [phi if j % 2 == 0 else -phi for j in range(n)]
        elif kind == 2:
            rows = [pool_row() for _ in range(n)]
        elif kind == 3:
            # moduli from 1e-16 to 3e-15: sums of tiny terms, which only
            # their own rounding bound may drop
            rows = [ScalarSymbol({m: 1e-15 * np.exp(2j * np.pi * rng.random()) if rng.random() < 0.5
                                  else 1e-16 * complex(*rng.uniform(-20.0, 20.0, 2))
                                  for m in range(-w, w + 1)}) for _ in range(n)]
        else:
            rows = [rand_scalar(rng, max(w, 1)) for _ in range(n)]
        corpus.append(CirculantSymbol(rows))
    return corpus


def test_eigen_symbols_are_bitwise_the_symbol_route():
    for c in _bitwise_corpus():
        got = circulant_eigen_symbols(c).lambdas
        want = _symbol_route_eigen_symbols(c)
        assert [_scalar_bits(lam) for lam in got] == [_scalar_bits(lam) for lam in want]


def test_products_do_not_depend_on_the_order_a_symbol_was_built_in():
    # products sum their terms in index order, so building the operands from
    # the same coefficients in another order gives the same bits
    rng = np.random.default_rng(28)
    for _ in range(200):
        a, b = rand_scalar(rng), rand_scalar(rng)
        ra, rb = (ScalarSymbol(dict(reversed(list(x.items())))) for x in (a, b))
        assert _scalar_bits(a * b) == _scalar_bits(ra * rb)
        d = int(rng.integers(1, 4))
        blocks = [{int(m): rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                   for m in rng.choice(np.arange(-3, 4), size=4, replace=False)} for _ in range(2)]
        p, q = (MatrixSymbol(d, x) for x in blocks)
        rp, rq = (MatrixSymbol(d, dict(reversed(list(x.items())))) for x in blocks)
        assert _matrix_bits(p * q) == _matrix_bits(rp * rq)


def test_matrix_symbol_is_bitwise_from_entries():
    for c in _bitwise_corpus(seed=27, count=200):
        n = c.n
        want = MatrixSymbol.from_entries([[c.row[(j - i) % n] for j in range(n)] for i in range(n)])
        got = c.as_matrix_symbol()
        assert got == want
        assert _matrix_bits(got) == _matrix_bits(want)


def test_conjugation_blocks_are_bitwise_the_symbol_route():
    for c in _bitwise_corpus(seed=28, count=200):
        phi = c.as_matrix_symbol()
        lam = DiagonalSymbol(_symbol_route_eigen_symbols(c)).as_matrix_symbol()
        u = dft_unitary(c.n)
        want_lags = sorted(set(phi.support) | set(lam.support))
        want = np.array([u.conj().T @ phi.coeff(m) @ u - lam.coeff(m) for m in want_lags],
                        dtype=complex).reshape(-1, c.n, c.n)
        lags, blocks = conjugation_blocks(c)
        assert lags == want_lags
        assert blocks.shape == want.shape
        assert [_hex(x) for x in blocks.ravel()] == [_hex(x) for x in want.ravel()]


def _per_lag_diagonalize_check(c):
    """The residual formed lag by lag from the circulant's matrix symbol,
    with the same exact power-of-two scaling as ``diagonalize_check``."""
    phi = c.as_matrix_symbol()
    lambdas = _symbol_route_eigen_symbols(c)
    u = dft_unitary(c.n)
    blocks = [u.conj().T @ phi.coeff(m) @ u - np.diag([lam.coeff(m) for lam in lambdas])
              for m in phi.support]
    e = math.frexp(max((float(np.abs(b.view(float)).max()) for b in blocks), default=0.0))[1]
    return max((math.ldexp(float(np.linalg.norm(np.ldexp(b.view(float), -e).view(complex))), e)
                for b in blocks), default=0.0)


def test_diagonalize_check_is_bitwise_the_per_lag_route():
    for c in _bitwise_corpus(seed=34, count=300):
        assert diagonalize_check(c).hex() == _per_lag_diagonalize_check(c).hex()


def test_eigen_symbols_are_folded_once_per_symbol():
    c = rand_circulant(np.random.default_rng(34), 4)
    assert circulant_eigen_symbols(c) is circulant_eigen_symbols(c)
    # an equal symbol built apart folds its own, with the same bits
    twin = CirculantSymbol(c.row)
    assert circulant_eigen_symbols(twin) is not circulant_eigen_symbols(c)
    assert ([_scalar_bits(lam) for lam in circulant_eigen_symbols(twin).lambdas]
            == [_scalar_bits(lam) for lam in circulant_eigen_symbols(c).lambdas])
    # a raise is not stored: the second call raises again
    row = 1e308 * (ONE + ScalarSymbol.monomial(1))
    big = CirculantSymbol([row, row])
    for _ in range(2):
        with pytest.raises(ValueError, match="float range"):
            circulant_eigen_symbols(big)


def test_conjugation_builds_no_matrix_symbol(monkeypatch):
    corpus = _bitwise_corpus(seed=35, count=40)
    want = [diagonalize_check(CirculantSymbol(c.row)) for c in corpus]

    def refuse(self):
        raise AssertionError("as_matrix_symbol called")

    monkeypatch.setattr(CirculantSymbol, "as_matrix_symbol", refuse)
    assert [diagonalize_check(c) for c in corpus] == want
    for c in corpus:
        conjugation_blocks(c)


# ---------------------------------------------------------------------------
# diagonalization residual


def test_diagonalize_check_constant_circulant():
    rng = np.random.default_rng(7)
    c = CirculantSymbol([const(complex(*rng.standard_normal(2))) for _ in range(4)])
    assert diagonalize_check(c) <= 1e-12


def test_diagonalize_check_circ123_and_eigensolver_value():
    c = CirculantSymbol([const(1.0), const(2.0), const(3.0)])
    assert diagonalize_check(c) <= 1e-12
    lam1 = circulant_eigen_symbols(c).lambdas[1].coeff(0)
    assert lam1 == pytest.approx(-1.5 - 0.8660254037844386j, abs=1e-10)
    oracle = np.linalg.eigvals(evaluate(c, 1.0))
    assert min(abs(oracle - lam1)) <= 1e-10


def test_diagonalize_check_zero_symbol():
    c = CirculantSymbol([ScalarSymbol.zero()] * 3)
    assert diagonalize_check(c) == 0.0


def test_diagonalize_check_is_finite_and_relative_at_any_scale():
    rng = np.random.default_rng(62)
    corpus = [rand_circulant(rng, int(rng.integers(1, 9))) for _ in range(16)]
    for c in corpus:
        base = diagonalize_check(c)
        size = max(np.linalg.norm(mat) for _, mat in c.as_matrix_symbol().items())
        assert 0.0 < base <= 16 * np.finfo(float).eps * size
        # scaling by a power of two is exact in every step, the norm included
        for k in (-900, -500, 500, 900):
            scaled = CirculantSymbol([math.ldexp(1.0, k) * phi for phi in c.row])
            assert diagonalize_check(scaled) == math.ldexp(base, k)
        # at decimal scales the rounding differs, but stays relative to s
        for s in (1e-300, 1e-200, 1e-16, 1e200, 1e300):
            got = diagonalize_check(CirculantSymbol([s * phi for phi in c.row]))
            assert 0.5 * base <= got / s <= 2.0 * base


def test_diagonalization_invariant_on_random_corpus():
    """64 random circulants, n <= 16: conjugation is diagonal with the DFT values."""
    rng = np.random.default_rng(8)
    samples = unit_samples(5)
    for _ in range(64):
        n = int(rng.integers(2, 17))
        c = rand_circulant(rng, n)
        u = dft_unitary(n)
        lam = circulant_eigen_symbols(c)
        for z in samples:
            resid = np.linalg.norm(u.conj().T @ evaluate(c, z) @ u - evaluate(lam, z))
            assert resid <= 1e-12


def test_diagonalize_check_is_the_largest_per_lag_residual():
    """Seeded corpus, n <= 16, w <= 3: the residual equals a dense oracle
    built lag by lag, and bounds the residual sampled on the circle."""
    rng = np.random.default_rng(15)
    for _ in range(64):
        n = int(rng.integers(1, 17))
        c = rand_circulant(rng, n, w=int(rng.integers(1, 4)))
        u = dft_unitary(n)
        lam = circulant_eigen_symbols(c)
        lags = sorted({m for phi in (*c.row, *lam.lambdas) for m in phi.support})
        per_lag = []
        for m in lags:
            cm = np.array([[c.row[(j - i) % n].coeff(m) for j in range(n)] for i in range(n)])
            lam_m = np.diag([x.coeff(m) for x in lam.lambdas])
            per_lag.append(float(np.linalg.norm(u.conj().T @ cm @ u - lam_m)))
        got = diagonalize_check(c)
        assert got == max(per_lag)
        # sum_m (U* C_m U - Lambda_m) z^m has norm at most the sum over lags,
        # plus the rounding of evaluating the symbols at z and conjugating
        sampled = max(np.linalg.norm(u.conj().T @ evaluate(c, z) @ u - evaluate(lam, z))
                      for z in unit_samples(17))
        size = sum(np.linalg.norm(mat) for _, mat in c.as_matrix_symbol().items())
        assert sampled <= len(lags) * got + (len(lags) + n) * np.finfo(float).eps * size


def test_eigen_symbol_linearity():
    rng = np.random.default_rng(9)
    a = rand_circulant(rng, 4)
    b = rand_circulant(rng, 4)
    left = circulant_eigen_symbols(CirculantSymbol([x + y for x, y in zip(a.row, b.row)])).lambdas
    ea = circulant_eigen_symbols(a).lambdas
    eb = circulant_eigen_symbols(b).lambdas
    for lam, x, y in zip(left, ea, eb):
        assert lam.max_coeff_diff(x + y) <= 1e-14


def test_constant_circulant_eigenvalues_match_eigensolver_multiset():
    rng = np.random.default_rng(10)
    for n in (2, 3, 5, 8):
        vals = [complex(*rng.standard_normal(2)) for _ in range(n)]
        c = CirculantSymbol([const(v) for v in vals])
        mine = [lam.coeff(0) for lam in circulant_eigen_symbols(c).lambdas]
        oracle = list(np.linalg.eigvals(evaluate(c, 1.0)))
        for v in mine:
            closest = min(range(len(oracle)), key=lambda i: abs(oracle[i] - v))
            assert abs(oracle.pop(closest) - v) <= 1e-10


def test_constant_circulants_are_normal_matrices():
    rng = np.random.default_rng(12)
    for n in (2, 4, 8):
        c = CirculantSymbol([const(complex(*rng.standard_normal(2))) for _ in range(n)])
        m = evaluate(c, 1.0)
        assert np.linalg.norm(m.conj().T @ m - m @ m.conj().T) <= 1e-12


# ---------------------------------------------------------------------------
# pattern extraction


def test_from_matrix_symbol_n2_roundtrip():
    rng = np.random.default_rng(13)
    p0, p1 = rand_scalar(rng), rand_scalar(rng)
    phi = MatrixSymbol.from_entries([[p0, p1], [p1, p0]])
    c = circulant_from_matrix_symbol(phi)
    assert c.row == (p0, p1)
    assert c.as_matrix_symbol() == phi


def test_from_matrix_symbol_identity():
    c = circulant_from_matrix_symbol(MatrixSymbol.identity(3))
    assert c.row[0] == ONE
    assert all(r.is_zero() for r in c.row[1:])


def test_from_matrix_symbol_reports_violating_entry():
    rng = np.random.default_rng(14)
    p0, p1, p2 = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng, w=2)
    phi = MatrixSymbol.from_entries([[p0, p1], [p2, p0]])
    with pytest.raises(CirculantPatternError) as err:
        circulant_from_matrix_symbol(phi)
    assert err.value.entry == (1, 0)


# ---------------------------------------------------------------------------
# a circulant symbol is a matrix symbol


def _matrix_corpus(seed=40):
    """Seeded circulants of n in {1, 2, 3, 8}, constant or of w in {1, 3}, and zero rows."""
    rng = np.random.default_rng(seed)
    corpus = [rand_circulant(rng, n, w) for n in (1, 2, 3, 8) for w in (1, 3) for _ in range(3)]
    corpus += [CirculantSymbol([const(complex(*rng.standard_normal(2))) for _ in range(n)])
               for n in (1, 2, 3, 8)]
    return corpus + [CirculantSymbol([ScalarSymbol.zero()] * n) for n in (1, 2, 3, 8)]


def test_a_circulant_symbol_is_its_matrix_symbol():
    for c in _matrix_corpus():
        phi = c.as_matrix_symbol()
        assert isinstance(c, MatrixSymbol)
        assert c == phi and phi == c
        assert _matrix_bits(c) == _matrix_bits(phi)
        assert circulant_from_matrix_symbol(c) is c


def test_a_circulants_blocks_are_read_only():
    for c in _matrix_corpus():
        for _, mat in c.items():
            with pytest.raises(ValueError, match="read-only"):
                mat[0, 0] = 1.0


def test_arithmetic_on_a_circulant_returns_a_matrix_symbol():
    c = rand_circulant(np.random.default_rng(42), 3)
    for result in (2.0 * c, c * 2.0, c + c, c - c, -c, c * c, c.adjoint()):
        assert type(result) is MatrixSymbol
    assert 2.0 * c == c + c


def _report_bits(report):
    return repr(report.to_json())


def test_sections_commutators_and_reducing_checks_are_bitwise_the_matrix_symbols():
    for c in _matrix_corpus():
        phi = c.as_matrix_symbol()
        for order in (1, 3, 8):
            assert truncate(c, order).strips.tobytes() == truncate(phi, order).strips.tobytes()
            for q in reducing_projectors(c, order):
                assert _report_bits(verify_reducing(q, c)) == _report_bits(verify_reducing(q, phi))
        for prop in PROPERTIES:
            if prop == "f-selfadjoint" and c.dim != 1:
                continue  # the f-selfadjoint check applies to scalar symbols only
            assert _report_bits(commutator_report(c, prop)) == _report_bits(commutator_report(phi, prop))


def _first_offending_entry(phi):
    """The pattern check as a double loop over the entry symbols: the first
    (i, j), in row-major order, whose entry differs from row[(j - i) mod n]."""
    n = phi.dim
    row = [phi.entry(0, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if phi.entry(i, j) != row[(j - i) % n]:
                return i, j
    return None


def test_the_first_offending_entry_is_the_double_loops():
    rng = np.random.default_rng(43)
    values = [0.0, 1.0, -0.5j, complex(-0.0, 0.0), 1e-300]
    broken = 0
    for _ in range(400):
        n = int(rng.integers(1, 6))
        c = rand_circulant(rng, n, int(rng.integers(1, 3)))
        blocks = {m: np.array(mat) for m, mat in c.items()}
        for _ in range(int(rng.integers(0, 3))):
            m, i, j = int(rng.integers(-2, 3)), *(int(k) for k in rng.integers(n, size=2))
            blocks.setdefault(m, np.zeros((n, n), dtype=complex))[i, j] = values[int(rng.integers(5))]
        phi = MatrixSymbol(n, blocks)
        want = _first_offending_entry(phi)
        if want is None:
            assert circulant_from_matrix_symbol(phi) == phi
            continue
        broken += 1
        i, j = want
        with pytest.raises(CirculantPatternError) as err:
            circulant_from_matrix_symbol(phi)
        assert err.value.entry == want
        assert str(err.value) == f"entry ({i}, {j}) differs from first-row entry {(j - i) % n}"
    assert broken > 100

