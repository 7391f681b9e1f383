import numpy as np
import pytest

from toeplab import dilation
from toeplab.circulant import CirculantSymbol, diagonalize_check
from toeplab.dilation import gamma, gamma_adjoint, psi_lambda_blocks, theorem41_probe
from toeplab.symbols import MatrixSymbol, ScalarSymbol
from toeplab.toeplitz import CHAIN_BUDGET_BYTES

Z = ScalarSymbol.monomial(1)
ONE = ScalarSymbol.constant(1.0)
ZERO = ScalarSymbol.zero()


def rand_scalar(rng, w=2):
    idx = rng.choice(np.arange(-w, w + 1), size=rng.integers(1, 4), replace=False)
    return ScalarSymbol({int(n): complex(*rng.standard_normal(2)) / 2 for n in idx})


def rand_matrix(rng, dim, w=2):
    return MatrixSymbol.from_entries(
        [[rand_scalar(rng, w) for _ in range(dim)] for _ in range(dim)]
    )


# ---------------------------------------------------------------------------
# flattening and its adjoint


def test_gamma_flattens_rows_in_order():
    rng = np.random.default_rng(41)
    entries = [rand_scalar(rng) for _ in range(4)]
    phi = MatrixSymbol.from_entries([[entries[0], entries[1]], [entries[2], entries[3]]])
    image = gamma(phi)
    assert image.n == 2
    assert image.circulant.n == 4
    assert list(image.circulant.row) == entries


def test_gamma_identity_and_singleton():
    assert list(gamma(MatrixSymbol.identity(2)).circulant.row) == [ONE, ZERO, ZERO, ONE]
    phi = MatrixSymbol.from_entries([[Z]])
    assert list(gamma(phi).circulant.row) == [Z]


def test_gamma_adjoint_roundtrip_is_exactly_n_squared():
    rng = np.random.default_rng(42)
    for n in (2, 3):
        for _ in range(10):
            a = rand_matrix(rng, n)
            back = gamma_adjoint(gamma(a).circulant)
            assert back.max_coeff_diff((n * n) * a) == 0.0


def test_gamma_adjoint_unit_impulse():
    c = CirculantSymbol([ONE, ZERO, ZERO, ZERO])
    out = gamma_adjoint(c)
    assert out == MatrixSymbol(2, {0: np.array([[4.0, 0.0], [0.0, 0.0]])})


def test_gamma_adjoint_zero():
    c = CirculantSymbol([ZERO] * 4)
    assert gamma_adjoint(c).is_zero()


def test_gamma_adjoint_rejects_non_square_sizes():
    with pytest.raises(ValueError):
        gamma_adjoint(CirculantSymbol([ONE, ZERO, ZERO]))


def test_gamma_is_injective_on_corpus():
    rng = np.random.default_rng(43)
    symbols = [rand_matrix(rng, 2) for _ in range(12)]
    rows = [gamma(s).circulant.row for s in symbols]
    for i in range(len(symbols)):
        for j in range(i + 1, len(symbols)):
            if rows[i] == rows[j]:
                assert symbols[i] == symbols[j]


def test_dilated_symbol_is_circulant():
    rng = np.random.default_rng(44)
    phi = rand_matrix(rng, 2)
    assert diagonalize_check(gamma(phi).circulant) <= 1e-10


# ---------------------------------------------------------------------------
# block extraction


def test_block_extraction_matches_display():
    rng = np.random.default_rng(45)
    p = [rand_scalar(rng) for _ in range(4)]
    phi = MatrixSymbol.from_entries([[p[0], p[1]], [p[2], p[3]]])
    psi11, psi22, lam11, lam22 = psi_lambda_blocks(phi)
    assert psi11 == MatrixSymbol.from_entries([[p[0], p[1]], [p[3], p[0]]])
    assert psi22 == MatrixSymbol.from_entries([[p[2], p[3]], [p[1], p[2]]])
    # blocks of the dilated section: top-left 2x2 of every coefficient
    big = gamma(phi).circulant.as_matrix_symbol()
    for n in big.support:
        assert np.array_equal(big.coeff(n)[:2, :2], psi11.coeff(n))
        assert np.array_equal(big.coeff(n)[:2, 2:], psi22.coeff(n))


def test_block_extraction_circulant_input():
    rng = np.random.default_rng(46)
    p0, p1, p3 = rand_scalar(rng), rand_scalar(rng), rand_scalar(rng)
    phi = MatrixSymbol.from_entries([[p0, p1], [p1, p3]])  # phi_1 == phi_2
    psi11, _, _, _ = psi_lambda_blocks(phi)
    assert psi11.entry(1, 0) == p3
    assert psi11.entry(0, 0) == psi11.entry(1, 1) == p0


def test_lambda0_is_the_entry_sum():
    rng = np.random.default_rng(47)
    p = [rand_scalar(rng) for _ in range(4)]
    phi = MatrixSymbol.from_entries([[p[0], p[1]], [p[2], p[3]]])
    _, _, lam11, _ = psi_lambda_blocks(phi)
    expected = p[0] + p[1] + p[2] + p[3]
    assert lam11.entry(0, 0).max_coeff_diff(expected) <= 1e-14


def test_psi_blocks_require_dim_2():
    with pytest.raises(ValueError):
        psi_lambda_blocks(MatrixSymbol.identity(3))


# ---------------------------------------------------------------------------
# the equivalence probe


def test_probe_compression_identity_on_random_corpus():
    rng = np.random.default_rng(48)
    for _ in range(8):
        rep = theorem41_probe(rand_matrix(rng, 2), 24)
        assert rep.compression_exact


def test_probe_zero_symbol_trivially_consistent():
    rep = theorem41_probe(MatrixSymbol.zero(2), 24)
    assert rep.compression_exact
    assert rep.max_gap == 0.0
    assert rep.conjugation_residual == 0.0
    assert rep.verdict == "consistent"


def test_probe_gap_matches_independent_svd_oracle():
    # diagonal fixture: psi11 picks up phi_3 below the diagonal
    phi = MatrixSymbol.from_entries([[Z, ZERO], [ZERO, 2.0 * Z]])
    order = 16
    rep = theorem41_probe(phi, order)

    # oracle truncations built by explicit loops
    def block_toeplitz(c_map, n):
        data = np.zeros((2 * n, 2 * n), dtype=complex)
        for i in range(n):
            for j in range(n):
                if i - j in c_map:
                    data[2 * i:2 * i + 2, 2 * j:2 * j + 2] = c_map[i - j]
        return data

    psi11 = {1: np.array([[1.0, 0.0], [2.0, 1.0]])}
    mu = np.exp(2j * np.pi / 4)
    # flattened row (z, 0, 0, 2z): lambda_k = (1 + 2 mu^{3k}) z
    lam11 = {1: np.diag([1 + 2 * mu**0, 1 + 2 * mu**3])}
    sv_psi = np.linalg.svd(block_toeplitz(psi11, order), compute_uv=False)
    sv_lam = np.linalg.svd(block_toeplitz(lam11, order), compute_uv=False)
    expected_gap = float(np.max(np.abs(sv_psi - sv_lam)))
    assert rep.max_gap == pytest.approx(expected_gap, rel=1e-12)


def test_probe_reports_inconsistency_for_constant_nilpotent():
    phi = MatrixSymbol.from_entries([[ZERO, ZERO], [ONE, ZERO]])
    rep = theorem41_probe(phi, 16)
    assert rep.compression_exact
    # nilpotent sections are not unitarily equivalent to unimodular diagonals
    assert rep.max_gap == pytest.approx(1.0, abs=1e-12)
    assert rep.verdict == "inconsistent"


def test_probe_json_truncates_singular_values():
    rng = np.random.default_rng(49)
    rep = theorem41_probe(rand_matrix(rng, 2), 24)
    js = rep.to_json()
    assert len(js["singular_values_psi_top16"]) == 16
    assert len(js["singular_values_lambda_top16"]) == 16
    assert js["singular_values_psi_top16"] == sorted(js["singular_values_psi_top16"], reverse=True)


def test_probe_requires_dim_2():
    with pytest.raises(ValueError):
        theorem41_probe(MatrixSymbol.identity(3), 24)


def test_probe_refuses_an_order_above_the_budget_before_building_a_section(monkeypatch):
    def no_section(*args):
        raise AssertionError("a section was built")

    monkeypatch.setattr(dilation, "truncate", no_section)
    # a (2N) x (2N) complex section takes 64 N^2 bytes: 256 MiB at N = 2048
    assert 64 * 2048**2 == CHAIN_BUDGET_BYTES
    with pytest.raises(ValueError, match="above the 256 MiB budget"):
        theorem41_probe(MatrixSymbol.identity(2), 2049)
