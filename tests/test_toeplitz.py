import tracemalloc

import numpy as np
import pytest

from toeplab.circulant import (
    CirculantPatternError,
    CirculantSymbol,
    circulant_eigen_symbols,
    circulant_from_matrix_symbol,
    dft_unitary,
)
from toeplab.classify import commuting_normal_family, inner_multiple_test
from toeplab.reducing import OrthogonalProjector, verify_reducing
from toeplab import toeplitz
from toeplab.symbols import MatrixSymbol, ScalarSymbol
from toeplab.toeplitz import (
    VERDICT_CLEAN,
    VERDICT_VIOLATED,
    WindowError,
    _weighted_norm,
    commutator_matrix,
    commutator_report,
    ToeplitzTruncation,
    conjugation_identity_check,
    exact_order,
    settled_order,
    truncate,
)

Z = ScalarSymbol.monomial(1)
ZBAR = ScalarSymbol.monomial(-1)
ONE = ScalarSymbol.constant(1.0)


def rand_scalar(rng, w=2):
    idx = rng.choice(np.arange(-w, w + 1), size=rng.integers(1, 2 * w + 1), replace=False)
    return ScalarSymbol({int(n): complex(rng.standard_normal(), rng.standard_normal()) / 2
                         for n in idx})


def rand_matrix(rng, dim, w=2):
    return MatrixSymbol.from_entries(
        [[rand_scalar(rng, w) for _ in range(dim)] for _ in range(dim)]
    )


# ---------------------------------------------------------------------------
# sections


def test_truncate_scalar_shift_is_lower_shift_matrix():
    t = truncate(Z, 6)
    expected = np.diag(np.ones(5), -1)
    assert np.array_equal(t.data, expected.astype(complex))


def test_truncate_block_shift():
    t = truncate(MatrixSymbol(2, {1: np.eye(2)}), 6)
    expected = np.kron(np.diag(np.ones(5), -1), np.eye(2))
    assert np.array_equal(t.data, expected.astype(complex))
    assert t.data.shape == (12, 12)


def test_truncate_two_sided_matches_block_formula():
    # direct block formula oracle, written out independently
    phi = Z + ZBAR
    n = 8
    expected = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i - j == 1 or i - j == -1:
                expected[i, j] = 1.0
    assert np.array_equal(truncate(phi, n).data, expected)


def test_truncate_rejects_order_at_or_below_4w():
    # the section itself is exact at any order >= 1; the 4w boundary belongs
    # to the window of the four-factor binormal product
    t = truncate(Z, 4)
    assert np.array_equal(t.data, np.diag(np.ones(3), -1).astype(complex))
    ts = t.adjoint()
    k = (ts @ t) @ (t @ ts) - (t @ ts) @ (ts @ t)
    assert k.margin == 4
    with pytest.raises(WindowError):
        k.window_max_abs()
    t = truncate(Z, 5)  # strictly above 4w the window is one entry wide
    ts = t.adjoint()
    k = (ts @ t) @ (t @ ts) - (t @ ts) @ (ts @ t)
    assert k.window_limit == 1
    assert k.window_max_abs() == 0.0
    with pytest.raises(ValueError):
        truncate(Z, 0)


def test_shift_small_and_isometry_window():
    s = truncate(Z, 2)
    assert np.array_equal(s.data, np.array([[0, 0], [1, 0]], dtype=complex))
    n = 10
    s = truncate(Z, n)
    sts = s.adjoint().data @ s.data
    # isometry on indices below N-1
    assert np.array_equal(sts[: n - 1, : n - 1], np.eye(n - 1, dtype=complex))
    # direct multiplication oracle for the co-isometry defect
    sst = s.data @ s.data.conj().T
    assert sst[0, 0] == 0.0
    assert np.array_equal(np.diag(sst)[1:], np.ones(n - 1, dtype=complex))


# ---------------------------------------------------------------------------
# commutator reports


def test_shift_symbol_is_binormal_on_window():
    rep = commutator_report(Z, "binormal", 32, 1e-8)
    assert rep.verdict == VERDICT_CLEAN
    assert rep.window_norm <= 1e-12


def test_one_plus_z_binormal_violation_closed_form():
    # closed-form oracle: the commutator is e0 e1* - e1 e0*
    k = commutator_matrix(ONE + Z, "binormal", 32)
    lim = k.window_limit
    assert lim == 32 - 4
    expected = np.zeros((lim, lim), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 0] = -1.0
    assert np.array_equal(k.data[:lim, :lim], expected)
    rep = commutator_report(ONE + Z, "binormal", 32, 1e-8)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.window_norm == 1.0


def test_real_symbol_is_normal():
    rep = commutator_report(Z + ZBAR, "normal", 32, 1e-8)
    assert rep.verdict == VERDICT_CLEAN


def test_quasinormal_report_for_shift():
    # T_z is an isometry, so T*T = I commutes with T
    rep = commutator_report(Z, "quasinormal", 32, 1e-8)
    assert rep.verdict == VERDICT_CLEAN


def test_commutator_rejects_small_orders_and_bad_property():
    # the binormal product's own margin 4w is the only order guard
    with pytest.raises(WindowError):
        commutator_report(Z, "binormal", 4, 1e-8)  # 4 == 4w: empty window
    rep = commutator_report(Z, "binormal", 5, 1e-8)
    assert rep.window_limit == 1
    assert rep.window_norm == 0.0
    with pytest.raises(ValueError):
        commutator_report(Z, "hyponormal", 32, 1e-8)
    for order in (4.0, 64.0):  # below and above the settled order 17
        with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
            commutator_report(Z, "binormal", order, 1e-8)


def test_normal_check_reads_its_window_just_above_2w():
    # [T*, T] for the shift is e0 e0* on the window; 8 > 2w leaves 6 entries
    rep = commutator_report(Z, "normal", 8, 1e-8)
    assert rep.verdict == VERDICT_VIOLATED
    assert rep.window_limit == 6
    assert rep.window_norm == 1.0


MARGINS = {
    "normal": lambda w: 2 * w,
    "quasinormal": lambda w: 3 * w,
    "binormal": lambda w: 4 * w,
    "f-selfadjoint": lambda w: 4 * w + 2,
}


def test_windows_just_above_the_margin_match_a_large_order():
    rng = np.random.default_rng(29)
    big = 80
    for d in (1, 2, 3):
        for w in (1, 2, 3):
            phi = rand_scalar(rng, w) if d == 1 else rand_matrix(rng, d, w)
            bw = phi.bandwidth
            for prop, margin in MARGINS.items():
                if prop == "f-selfadjoint" and d > 1:
                    continue
                ref = commutator_matrix(phi, prop, big).data
                for n in range(margin(bw) + 1, 4 * bw + 6):
                    k = commutator_matrix(phi, prop, n)
                    assert k.margin == margin(bw)
                    lim = k.window_limit
                    assert lim == (n - margin(bw)) * d
                    assert np.max(np.abs(k.data[:lim, :lim] - ref[:lim, :lim])) <= 1e-12


def test_window_at_twice_the_margin_plus_one_is_the_whole_operator():
    # at order 2W + 1 the window holds the finite-rank corner and every lag of
    # the infinite product, so a larger order finds no larger entry
    rng = np.random.default_rng(30)
    smaller = 0
    for d in (1, 2, 3):
        for w in (1, 2):
            for _ in range(10):
                phi = rand_scalar(rng, w) if d == 1 else rand_matrix(rng, d, w)
                for prop in ("normal", "quasinormal", "binormal"):
                    margin = MARGINS[prop](phi.bandwidth)
                    exact = commutator_matrix(phi, prop, 2 * margin + 1).window_max_abs()
                    assert exact == commutator_matrix(phi, prop, 2 * margin + 9).window_max_abs()
                    if margin:
                        short = commutator_matrix(phi, prop, 2 * margin).window_max_abs()
                        smaller += short < exact
    assert smaller  # order 2W can miss the largest entry


def test_report_window_limit_reflects_margin():
    rep = commutator_report(Z + ZBAR, "quasinormal", 32, 1e-8)
    assert rep.window_limit == 32 - 3 * 1
    rep = commutator_report(rand_matrix(np.random.default_rng(0), 2, w=2), "normal", 32, 1e-8)
    assert rep.window_limit == (32 - 2 * 2) * 2


def test_report_of_a_product_is_the_commutator_report():
    rng = np.random.default_rng(42)
    saw = set()
    for d in (1, 2, 3):
        for w in (1, 2):
            phi = rand_scalar(rng, w) if d == 1 else rand_matrix(rng, d, w)
            for prop, margin in MARGINS.items():
                if prop == "f-selfadjoint" and d > 1:
                    continue
                for n in (margin(phi.bandwidth) + 1, 64):
                    for tol in (1e-8, 1e3):
                        k = commutator_matrix(phi, prop, n)
                        rep = k.report(prop, tol)
                        assert rep == commutator_report(phi, prop, n, tol)
                        lim = k.window_limit
                        norm = float(np.max(np.abs(k.data[:lim, :lim])))
                        assert (rep.property, rep.order, rep.tolerance) == (prop, n, tol)
                        assert rep.window_limit == (n - margin(phi.bandwidth)) * d
                        assert rep.window_norm == norm
                        assert rep.verdict == (VERDICT_VIOLATED if norm > tol else VERDICT_CLEAN)
                        saw.add(rep.verdict)
    assert saw == {VERDICT_CLEAN, VERDICT_VIOLATED}
    k = commutator_matrix(Z, "binormal", 4)
    with pytest.raises(WindowError):
        k.report("binormal", 1e-8)


# ---------------------------------------------------------------------------
# the exact order


# factors of each product: its rounding error scales as (sum_n ||Phi_n||_2)^p
FACTORS = {"normal": 2, "quasinormal": 3, "binormal": 4, "f-selfadjoint": 4}


def _exact_order_corpus(rng):
    """Scalar and d in {2, 4} symbols with w <= 3: generic ones, and ones for
    which each property holds (real-valued scalars are normal, multiples of
    powers of z quasinormal, commuting-normal circulants normal, diagonal
    blocks of such multiples quasinormal)."""
    corpus = []
    for w in (1, 2, 3):
        corpus.append(rand_scalar(rng, w))
        f = rand_scalar(rng, w)
        corpus.append(f + f.conj_reflect())
        corpus.append(ScalarSymbol.monomial(int(rng.integers(-w, w + 1)), 1.5 - 0.5j))
        for d in (2, 4):
            corpus.append(rand_matrix(rng, d, w))
            pairs = [(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
                     for _ in range(d)]
            rows = commuting_normal_family(f + f.conj_reflect(), pairs)
            corpus.append(CirculantSymbol(rows).as_matrix_symbol())
            corpus.append(MatrixSymbol.from_entries(
                [[ScalarSymbol.monomial(int(rng.integers(0, w + 1)), 1.0 + i) if i == j
                  else ScalarSymbol.zero() for j in range(d)] for i in range(d)]))
    return corpus


def test_the_default_order_is_exact_and_agrees_with_large_orders():
    rng = np.random.default_rng(2025)
    saw = {prop: set() for prop in MARGINS}
    for phi in _exact_order_corpus(rng):
        m = sum(float(np.linalg.norm(np.atleast_2d(c), 2)) for _, c in phi.items())
        for prop, margin in MARGINS.items():
            if prop == "f-selfadjoint" and not isinstance(phi, ScalarSymbol):
                continue
            rep = commutator_report(phi, prop)
            assert rep.order == exact_order(margin(phi.bandwidth)) == 2 * margin(phi.bandwidth) + 1
            for n in (64, 128):
                far = commutator_report(phi, prop, n)
                assert far.verdict == rep.verdict
                # within 1e-12 relative to the size of the product's terms
                assert abs(far.window_norm - rep.window_norm) <= 1e-12 * max(
                    far.window_norm, rep.window_norm, m ** FACTORS[prop])
            saw[prop].add(rep.verdict)
    assert all(verdicts == {VERDICT_CLEAN, VERDICT_VIOLATED} for verdicts in saw.values())


@pytest.mark.parametrize("phi,violated", [
    (ScalarSymbol.zero(), set()),
    (ScalarSymbol.constant(2.0 - 1.0j), set()),
    (MatrixSymbol.zero(2), set()),
    (MatrixSymbol.identity(3), set()),
    # a constant nilpotent N: N*N = diag(0, 1) and NN* = diag(1, 0) commute,
    # but neither commutes with N
    (MatrixSymbol(2, {0: np.array([[0.0, 1.0], [0.0, 0.0]])}), {"normal", "quasinormal"}),
], ids=["zero", "constant", "zero-2x2", "identity-3x3", "nilpotent-2x2"])
def test_the_default_order_never_leaves_an_empty_window(phi, violated):
    for prop, margin in MARGINS.items():
        if prop == "f-selfadjoint" and not isinstance(phi, ScalarSymbol):
            continue
        k = commutator_matrix(phi, prop)
        assert k.order == exact_order(k.margin) == 2 * margin(0) + 1
        rep = k.report(prop, 1e-8)
        assert rep.window_limit == (margin(0) + 1) * k.block_dim
        assert rep.verdict == (VERDICT_VIOLATED if prop in violated else VERDICT_CLEAN)


def test_an_explicit_order_builds_the_same_products():
    rng = np.random.default_rng(11)
    phi = rand_matrix(rng, 2, 2)
    for prop in ("normal", "quasinormal", "binormal"):
        k = commutator_matrix(phi, prop)
        again = commutator_matrix(phi, prop, k.order)
        assert (again.order, again.margin) == (k.order, k.margin)
        assert np.array_equal(again.strips, k.strips)


@pytest.mark.parametrize("row", [0, 3, 6])
@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(1.0, np.nan)])
def test_a_non_finite_window_entry_raises(row, bad):
    # margin 1 at order 8: rows 0-5 hold whole strips in the window, row 6 part
    t = truncate(ONE + Z, 8)
    strips = t.strips.copy()
    strips[row, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite") as exc:
        ToeplitzTruncation(8, 1, 1, strips).window_max_abs()
    assert not isinstance(exc.value, WindowError)
    # row 7 lies outside the window, so an entry there is never read
    strips = t.strips.copy()
    strips[7, 0, 1] = bad
    assert ToeplitzTruncation(8, 1, 1, strips).window_max_abs() == 1.0


def test_an_overflowing_product_gives_no_verdict():
    # 1 + z is not binormal; at 1e77 its binormal product overflows, and the
    # nan it leaves must not read as a clean window
    with pytest.warns(RuntimeWarning):  # numpy's overflow warnings
        with pytest.raises(ValueError, match="non-finite"):
            commutator_report(1e77 * (ONE + Z), "binormal", 16)
    rep = commutator_report(3e76 * (ONE + Z), "binormal", 16)
    assert rep.verdict == VERDICT_VIOLATED and np.isfinite(rep.window_norm)


# ---------------------------------------------------------------------------
# the F self-adjointness route


def test_gu_lee_shift_matches_hand_computation():
    # dense numpy oracle: F = S*(T*T)(TT*)S - (T*T)(TT*) with T = S equals
    # e0 e0* on the exact window (the trailing corner feels the cutoff)
    n = 16
    s = np.diag(np.ones(n - 1), -1).astype(complex)
    a = s.conj().T @ s
    b = s @ s.conj().T
    f = s.conj().T @ a @ b @ s - a @ b
    lim = n - 6  # four bandwidth-1 factors plus the two shifts
    expected = np.zeros((lim, lim), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(f[:lim, :lim], expected)

    rep = commutator_report(Z, "f-selfadjoint", 32, 1e-8)
    assert rep.property == "f-selfadjoint"
    assert rep.verdict == VERDICT_CLEAN
    assert rep.window_norm == 0.0


def test_gu_lee_scaled_monomial_agrees_with_inner_test():
    phi = ScalarSymbol.monomial(2, 3.0)
    assert inner_multiple_test(phi).verdict == "binormal"
    assert commutator_report(phi, "f-selfadjoint", 32, 1e-8).verdict == VERDICT_CLEAN


def test_gu_lee_one_plus_z_consistent_with_commutator():
    assert commutator_report(ONE + Z, "f-selfadjoint", 32, 1e-8).verdict == VERDICT_VIOLATED
    assert commutator_report(ONE + Z, "binormal", 32, 1e-8).verdict == VERDICT_VIOLATED


def test_gu_lee_requires_scalar_symbol():
    with pytest.raises(ValueError, match="scalar symbols only"):
        commutator_report(MatrixSymbol.identity(2), "f-selfadjoint", 32, 1e-8)


def test_a_1x1_matrix_symbol_reports_as_its_entry():
    # a scalar symbol is the symbol of block size 1: its sections, reports and
    # reducing checks are bitwise those of the 1 x 1 matrix symbol
    assert ScalarSymbol.dim == 1
    rng = np.random.default_rng(23)
    for w in (1, 2, 3):
        phi = rand_scalar(rng, w)
        block = MatrixSymbol.from_entries([[phi]])
        for order in (1, 2, 5, 16):
            assert truncate(phi, order).strips.tobytes() == truncate(block, order).strips.tobytes()
        for prop in MARGINS:
            assert commutator_report(block, prop) == commutator_report(phi, prop)
        for p in (np.eye(1, dtype=complex), np.zeros((1, 1), dtype=complex)):
            for order in (1, 4, 16):
                q = OrthogonalProjector(p, order)
                assert verify_reducing(q, block) == verify_reducing(q, phi)


def test_gu_lee_random_corpus_agrees_with_commutator():
    rng = np.random.default_rng(21)
    for _ in range(20):
        phi = rand_scalar(rng)
        a = commutator_report(phi, "f-selfadjoint", 48, 1e-8).verdict == VERDICT_CLEAN
        b = commutator_report(phi, "binormal", 48, 1e-8).verdict == VERDICT_CLEAN
        assert a == b


def _sparse_grid(rng, dim):
    """dim x dim entries of bandwidths 0..3, about a third of them zero."""
    return [
        [rand_scalar(rng, int(rng.integers(1, 4))) if rng.random() < 0.7 else ScalarSymbol.zero()
         for _ in range(dim)]
        for _ in range(dim)
    ]


def test_entry_of_a_block_section_is_the_section_of_the_entry():
    rng = np.random.default_rng(30)
    for dim in (2, 3):
        for order in range(1, 41):
            grid = _sparse_grid(rng, dim)
            if order % 5 == 0:
                grid[0][0] = ScalarSymbol.constant(complex(*rng.standard_normal(2)))
            phi = MatrixSymbol.from_entries(grid)
            t = truncate(phi, order)
            for a in range(dim):
                for b in range(dim):
                    e = t.entry(a, b)
                    assert np.array_equal(e.data, truncate(grid[a][b], order).data)
                    assert (e.order, e.block_dim, e.margin) == (order, 1, phi.bandwidth)
                    assert e.margin >= grid[a][b].bandwidth


def test_entry_of_a_product_is_the_sum_of_entry_products():
    rng = np.random.default_rng(31)
    order = 24
    for dim in (2, 3):
        t = truncate(MatrixSymbol.from_entries(_sparse_grid(rng, dim)), order)
        ts = t.adjoint()
        prod = ts @ t
        for a in range(dim):
            for b in range(dim):
                e = prod.entry(a, b)
                terms = [ts.entry(a, k) @ t.entry(k, b) for k in range(dim)]
                expected = terms[0]
                for term in terms[1:]:
                    expected = expected + term
                assert e.margin == expected.margin == 2 * t.margin
                assert e.window_limit == expected.window_limit
                assert np.max(np.abs(e.data - expected.data), initial=0.0) <= 1e-12


# ---------------------------------------------------------------------------
# banded products: the margin bounds the block band that ``@`` reads


def _banded(rng, dim, w):
    """A dim x dim symbol of bandwidth exactly w, with a random support in [-w, w]."""
    lags = {int(n) for n in rng.integers(-w, w + 1, size=3)} | {w if rng.random() < 0.5 else -w}
    return MatrixSymbol(dim, {n: rng.standard_normal((dim, dim, 2)) @ [1, 1j] for n in lags})


def _out_of_band_max(t):
    """Largest |entry| of the blocks (i, j) of ``t`` with |i - j| > t.margin."""
    n, d = t.order, t.block_dim
    blocks = np.abs(t.data).reshape(n, d, n, d).max(axis=(1, 3))
    i, j = np.indices((n, n))
    return float(np.max(blocks[np.abs(i - j) > t.margin], initial=0.0))


def _sections(x, y):
    """Sections built from x and y by every operation, entries and products included."""
    xs, d = x.adjoint(), x.block_dim
    out = [x, y, xs, x + y, x - y, y - xs, x @ y, xs @ x, (x @ y) @ xs, (xs @ x) - (x @ xs)]
    out += [x.entry(0, d - 1), x.entry(d - 1, 0) @ y.entry(0, 0), (x @ y).entry(d // 2, 0)]
    return out


def test_blocks_outside_the_margin_are_exactly_zero():
    rng = np.random.default_rng(90)
    for dim in (1, 2, 3, 8):
        for wx in range(4):
            for wy in range(4):
                phi, psi = _banded(rng, dim, wx), _banded(rng, dim, wy)
                assert (phi.bandwidth, psi.bandwidth) == (wx, wy)
                for order in [*range(1, 4 * (wx + wy) + 6), 64]:
                    for t in _sections(truncate(phi, order), truncate(psi, order)):
                        assert _out_of_band_max(t) == 0.0, (dim, wx, wy, order, t.margin)


def _assert_product_matches_dense(x, y):
    p = x @ y
    dense = x.data @ y.data
    scale = float(np.max(np.abs(x.data) @ np.abs(y.data), initial=0.0))
    assert p.margin == x.margin + y.margin
    assert p.data.shape == dense.shape
    assert np.max(np.abs(p.data - dense), initial=0.0) <= 1e-12 * scale


def test_banded_product_matches_the_dense_product():
    rng = np.random.default_rng(91)
    for dim in (1, 2, 3, 8):
        for order in (1, 5, 9, 17, 33, 64):
            for wx, wy in ((0, 3), (1, 2), (3, 0), (2, 2), (3, 3)):
                x = truncate(_banded(rng, dim, wx), order)
                y = truncate(_banded(rng, dim, wy), order)
                xs = x.adjoint()
                for a, b in ((x, y), (y, x), (xs, x), (x, xs), (x @ y, xs), (xs @ x, x @ xs)):
                    _assert_product_matches_dense(a, b)
                for a in range(dim):
                    for b in range(dim):
                        _assert_product_matches_dense(x.entry(a, b), y.entry(b, a))
                        _assert_product_matches_dense((x @ xs).entry(a, b), xs.entry(b, a))
    # the f-selfadjoint chain, shift included
    for order in (6, 13, 40, 64):
        t = truncate(rand_scalar(rng, 3), order)
        s, ts = truncate(Z, order), t.adjoint()
        ab = (ts @ t) @ (t @ ts)
        for a, b in ((ts, t), (t, ts), (ts @ t, t @ ts), (s.adjoint(), ab), (s.adjoint() @ ab, s)):
            _assert_product_matches_dense(a, b)


def test_a_product_in_one_corner_is_the_dense_product_bitwise():
    # a section of at most M + 1 blocks, M = a + b, is one head product; up
    # to 2 M + 2 blocks the head and tail products meet or leave one row
    rng = np.random.default_rng(92)
    for dim in (1, 2, 3):
        for wx, wy in ((0, 0), (1, 2), (3, 3), (4, 5)):
            m = wx + wy
            for order in range(1, max(2 * m + 2, 8) + 1):
                x = truncate(_banded(rng, dim, wx), order)
                y = truncate(_banded(rng, dim, wy), order)
                for a, b in ((x, y), (x.adjoint(), y), (x.entry(0, dim - 1), y.entry(dim - 1, 0))):
                    p = (a @ b).data
                    assert np.array_equal(p, _dense_corner_product(a, b))
                    if order <= m + 1:
                        assert np.array_equal(p, a.data @ b.data)


def _dense_corner_product(x, y):
    """Reference for ``x @ y`` on the dense sections: block rows
    [0, min(M + 1, N)) and [max(N - M, M + 1), N), M = a + b, each the
    product of the factors' blocks inside their bands, and every row between
    a copy of row M, shifted along the diagonal."""
    n, d = x.order, x.block_dim
    a, m = x.margin, x.margin + y.margin
    xd, yd = x.data, y.data
    out = np.zeros(xd.shape, dtype=complex)
    head = min(m + 1, n)
    tail = max(n - m, head)
    for i0, i1 in ((0, head), (tail, n)):
        if i0 < i1:
            rows = slice(i0 * d, i1 * d)
            mid = slice(max(i0 - a, 0) * d, min(i1 + a, n) * d)
            cols = slice(max(i0 - m, 0) * d, min(i1 + m, n) * d)
            out[rows, cols] = xd[rows, mid] @ yd[mid, cols]
    for i in range(head, tail):
        out[i * d:(i + 1) * d, (i - m) * d:(i + m + 1) * d] = out[m * d:(m + 1) * d, :(2 * m + 1) * d]
    return out


def _assert_strips_zero_outside_the_section(t):
    """Strip position k of row i is block column i - band + k; those outside
    0 .. N - 1 hold zeros."""
    n, d, b = t.order, t.block_dim, t.band
    assert t.strips.shape == (n, d, (2 * b + 1) * d)
    j = np.arange(n)[:, None] - b + np.arange(2 * b + 1)[None, :]
    blocks = np.abs(t.strips).reshape(n, d, 2 * b + 1, d).max(axis=(1, 3))
    assert np.max(blocks[(j < 0) | (j >= n)], initial=0.0) == 0.0


def _assert_matches_the_dense_oracle(x, y):
    xd, yd = x.data, y.data
    assert np.array_equal((x @ y).data, _dense_corner_product(x, y))
    assert np.array_equal(x.adjoint().data, xd.conj().T)
    assert np.array_equal((x + y).data, xd + yd)
    assert np.array_equal((x - y).data, xd - yd)
    for t in (x, y, x @ y, x.adjoint(), x - y):
        _assert_strips_zero_outside_the_section(t)
        if t.window_limit:
            lim = t.window_limit
            assert t.window_max_abs() == float(np.max(np.abs(t.data[:lim, :lim])))
    d = x.block_dim
    for a, b in {(0, 0), (0, d - 1), (d - 1, d // 2)}:
        assert np.array_equal(x.entry(a, b).data, xd[a::d, b::d])


@pytest.mark.parametrize("orders", [
    lambda m: (4 * max(m, 8) + 3, 72),
    lambda m: range(1, m + 2),
], ids=["default", "one-tile"])
def test_strip_operations_are_the_dense_operations_bitwise(orders):
    # default: orders far above 2 M + 1, so most rows of every product are
    # copies; one-tile: orders up to M + 1, so x @ y is one head product
    rng = np.random.default_rng(93)
    for dim in (1, 2, 3, 8):
        for wx, wy in ((0, 0), (0, 3), (1, 2), (3, 1), (2, 2), (3, 3)):
            for order in orders(wx + wy):
                x = truncate(_banded(rng, dim, wx), order)
                y = truncate(_banded(rng, dim, wy), order)
                xs = x.adjoint()
                for a, b in ((x, y), (xs, x), (x @ xs, y), (x @ y, xs @ x)):
                    _assert_matches_the_dense_oracle(a, b)
                e, f = x.entry(dim - 1, 0), (y @ xs).entry(0, dim // 2)
                _assert_matches_the_dense_oracle(e, f)
                _assert_matches_the_dense_oracle(f @ e, e.adjoint())


def _factor_pairs(x, y):
    """Pairs of factors built from the sections x and y by adjoints, sums,
    differences, products and entries."""
    xs, d = x.adjoint(), x.block_dim
    return [(x, y), (xs, x), (x + y, y.adjoint()), (x - xs, x @ y),
            (x.entry(0, d - 1), (xs @ x).entry(d - 1, 0))]


def test_the_rows_between_the_corners_are_row_m():
    # from order 2 M + 2 on, rows M + 1 .. N - M - 1 are copies of row M; the
    # product stays the dense product up to rounding at every order
    rng = np.random.default_rng(95)
    for dim in (1, 2):
        for wx, wy in ((0, 2), (1, 1), (2, 3)):
            phi, psi = _banded(rng, dim, wx), _banded(rng, dim, wy)
            margins = [a.margin + b.margin for a, b in _factor_pairs(truncate(phi, 1), truncate(psi, 1))]
            for k, m in enumerate(margins):
                for order in (2 * m + 1, 2 * m + 2, 64, 257):
                    a, b = _factor_pairs(truncate(phi, order), truncate(psi, order))[k]
                    p = a @ b
                    assert p.margin == m
                    assert (p.strips[m + 1:order - m] == p.strips[m]).all()
                    _assert_product_matches_dense(a, b)


def _check_grid_circulants(rng, dim):
    """A generic circulant and a commuting-normal one of block size dim, each
    scaled by s in [1, 100], as in the benchmark's check grid."""
    f = rand_scalar(rng, 3)
    pairs = [(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2))) for _ in range(dim)]
    rows = [[rand_scalar(rng, 3) for _ in range(dim)], commuting_normal_family(f + f.conj_reflect(), pairs)]
    scales = 10 ** rng.uniform(0.0, 2.0, size=2)
    return [CirculantSymbol([s * r for r in row]).as_matrix_symbol() for s, row in zip(scales, rows)]


def test_window_norms_do_not_depend_on_the_order_bitwise():
    # from order 3 M + 1 on the window holds the whole head product, rows
    # 0 .. M, and otherwise copies of row M, so its largest entry is the same
    # float at every order; at 2 M + 1 it reads the lags n < 0 of row M from
    # the head rows above it instead, which agree up to rounding
    rng = np.random.default_rng(96)
    for dim in (1, 4, 8):
        for phi in _check_grid_circulants(rng, dim):
            bound = sum(float(np.linalg.norm(c, 2)) for _, c in phi.items())
            for prop in ("normal", "quasinormal", "binormal"):
                exact = commutator_report(phi, prop)
                m = exact.order // 2
                norm = commutator_matrix(phi, prop, 3 * m + 1).window_max_abs()
                for order in (64, 128, 256):
                    assert commutator_matrix(phi, prop, order).window_max_abs() == norm
                assert exact.verdict == commutator_report(phi, prop, 64).verdict
                assert abs(exact.window_norm - norm) <= 1e-12 * max(norm, bound ** FACTORS[prop])


def test_a_binormal_check_at_order_4096_reads_its_exact_order_norm_bitwise():
    # the largest window entry of this symbol's commutator lies in the
    # Hankel corner, which both orders read from the same head product
    rng = np.random.default_rng(97)
    phi = MatrixSymbol(8, {n: rng.standard_normal((8, 8, 2)) @ [1, 1j] for n in range(-3, 4)})
    exact = commutator_report(phi, "binormal")
    far = commutator_matrix(phi, "binormal", 4096).report("binormal", 1e-8)
    assert exact.order == 25 and far.window_limit == (4096 - 12) * 8
    assert far.window_norm == exact.window_norm == commutator_report(phi, "binormal", 37).window_norm


def test_a_product_keeps_its_section_small():
    # one dense d = 8 section at N = 1024 takes (8192^2) * 16 bytes = 1,074 MB;
    # the seven strip sections of the binormal check take about 120 MB
    rng = np.random.default_rng(94)
    phi = MatrixSymbol(8, {n: rng.standard_normal((8, 8, 2)) @ [1, 1j] for n in range(-3, 4)})
    tracemalloc.start()
    try:
        rep = commutator_matrix(phi, "binormal", 1024).report("binormal", 1e-8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.window_limit == (1024 - 12) * 8
    assert peak < 268e6


def _report_bits(rep):
    """A report's JSON with its window norm as ``float.hex``, so equal means bitwise."""
    return {**rep.to_json(), "window_norm": float.hex(rep.window_norm)}


def _assert_reports_read_their_own_order(phi, props):
    # above 4M + 1 the report is read from the section at 4M + 1; the oracle
    # is the section built at the order asked for
    for prop in props:
        m = MARGINS[prop](phi.bandwidth)
        for n in (*range(m + 1, 6 * m + 3), 64, 256, 1000):
            want = commutator_matrix(phi, prop, n).report(prop, 1e-8)
            assert _report_bits(commutator_report(phi, prop, n, 1e-8)) == _report_bits(want)


def test_the_settled_order_is_four_margins_plus_one():
    assert [settled_order(m) for m in (0, 1, 4, 12)] == [1, 5, 17, 49]


@pytest.mark.parametrize("dim", [1, 4, 8])
def test_a_check_grid_report_at_any_order_is_its_sections_bitwise(dim):
    rng = np.random.default_rng(98 + dim)
    for phi in _check_grid_circulants(rng, dim):
        _assert_reports_read_their_own_order(phi, ("normal", "quasinormal", "binormal"))


def test_a_scalar_report_at_any_order_is_its_sections_bitwise():
    # a real symbol is normal, so its commutators are rounding noise, which
    # the window at order 2M + 1 reads from other rows than larger orders do
    rng = np.random.default_rng(99)
    for w in (1, 2, 3):
        for _ in range(3):
            f = rand_scalar(rng, w)
            for phi in (f, f + f.conj_reflect()):
                _assert_reports_read_their_own_order(phi, MARGINS)


@pytest.mark.parametrize("phi", [ScalarSymbol.constant(2.5 - 1j), ScalarSymbol.zero()], ids=["constant", "zero"])
def test_a_report_of_a_margin_0_product_at_any_order_is_its_sections_bitwise(phi):
    assert phi.bandwidth == 0
    _assert_reports_read_their_own_order(phi, MARGINS)


def test_a_report_at_order_a_million_costs_what_its_settled_order_costs():
    # the symbol whose chain commutator_matrix refuses at this order
    phi = MatrixSymbol(8, {1: np.ones((8, 8)), -1: np.eye(8)})
    for prop in ("normal", "quasinormal", "binormal"):
        m = MARGINS[prop](phi.bandwidth)
        tracemalloc.start()
        try:
            far = commutator_report(phi, prop, 10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        settled = commutator_report(phi, prop, settled_order(m))
        assert (far.order, far.window_limit) == (10**6, (10**6 - m) * 8)
        assert _report_bits(far) == {**_report_bits(settled), "order": far.order, "window_limit": far.window_limit}
        assert peak < 10e6
        with pytest.raises(ValueError, match="'toeplab classify'"):
            commutator_matrix(phi, prop, 10**6)


@pytest.mark.parametrize("phi, order", [
    (ScalarSymbol.monomial(100000), None),
    (ScalarSymbol.monomial(5000) + ScalarSymbol.monomial(-5000), None),
    (MatrixSymbol(8, {1: np.ones((8, 8)), -1: np.eye(8)}), 10**6),
], ids=["z^100000", "z^5000+z^-5000", "8x8-at-order-1e6"])
def test_a_chain_over_the_memory_budget_is_refused_before_it_allocates(phi, order):
    for prop in MARGINS:
        if prop == "f-selfadjoint" and isinstance(phi, MatrixSymbol):
            continue
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="'toeplab classify'"):
                commutator_matrix(phi, prop, order)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_the_memory_budget_bounds_the_products_strip_array(monkeypatch):
    # exact orders, and explicit ones below and above the margin, where the
    # stored band is order - 1 and the margin
    rng = np.random.default_rng(26)
    phi = rand_matrix(rng, 2, 2)
    for prop in ("normal", "quasinormal", "binormal"):
        for order in (None, 3, 40):
            k = commutator_matrix(phi, prop, order)
            monkeypatch.setattr(toeplitz, "CHAIN_BUDGET_BYTES", k.strips.nbytes)
            assert np.array_equal(commutator_matrix(phi, prop, order).strips, k.strips)
            monkeypatch.setattr(toeplitz, "CHAIN_BUDGET_BYTES", k.strips.nbytes - 1)
            with pytest.raises(ValueError, match="above the 0 MiB budget"):
                commutator_matrix(phi, prop, order)
            monkeypatch.undo()


# ---------------------------------------------------------------------------
# conjugation identity


def _dense_conjugation_residual(phi, order):
    """||V* T_Phi V - T_Lambda||_F with V = I_N (x) U, from the dense sections."""
    circ = circulant_from_matrix_symbol(phi)
    lam = circulant_eigen_symbols(circ).as_matrix_symbol()
    v = np.kron(np.eye(order), dft_unitary(circ.n))
    resid = v.conj().T @ truncate(phi, order).data @ v - truncate(lam, order).data
    return float(np.linalg.norm(resid))


def test_weighted_norm_is_the_frobenius_norm_of_the_section():
    rng = np.random.default_rng(32)
    for order in (1, 2, 3, 4, 7, 16):
        phi = rand_matrix(rng, 3, w=3)
        lags = [n for n in phi.support if abs(n) < order]
        blocks = np.array([phi.coeff(n) for n in lags]).reshape(-1, 3, 3)
        weights = np.array([order - abs(n) for n in lags], dtype=float)
        dense = np.linalg.norm(truncate(phi, order).data)
        assert abs(_weighted_norm(blocks, weights) - dense) <= 1e-12 * max(1.0, dense)


def test_conjugation_identity_matches_the_dense_route():
    rng = np.random.default_rng(33)
    symbols = [CirculantSymbol([ScalarSymbol.zero(), ScalarSymbol.zero()])]
    symbols += [CirculantSymbol([rand_scalar(rng, 3) for _ in range(n)])
                for n in (1, 2, 3, 4, 5) for _ in range(3)]
    for c in symbols:
        phi = c.as_matrix_symbol()
        for order in (1, 2, 3, 4, 9, 32):  # orders at and below the bandwidth too
            residual = conjugation_identity_check(phi, order)
            assert residual <= 1e-12
            assert abs(residual - _dense_conjugation_residual(phi, order)) <= 1e-13


def test_conjugation_identity_rejects_order_zero():
    c = CirculantSymbol([ONE, Z])
    with pytest.raises(ValueError):
        conjugation_identity_check(c.as_matrix_symbol(), 0)



def test_conjugation_identity_random_circulant_pair():
    rng = np.random.default_rng(22)
    c = CirculantSymbol([rand_scalar(rng, 3), rand_scalar(rng, 3)])
    assert conjugation_identity_check(c.as_matrix_symbol(), 32) <= 1e-10


def test_conjugation_identity_scalar_multiple_of_identity():
    rng = np.random.default_rng(23)
    phi = rand_scalar(rng)
    c = CirculantSymbol([phi, ScalarSymbol.zero()])
    assert conjugation_identity_check(c.as_matrix_symbol(), 16) <= 1e-12


def test_conjugation_identity_circ123():
    c = CirculantSymbol([ScalarSymbol.constant(x) for x in (1.0, 2.0, 3.0)])
    assert conjugation_identity_check(c.as_matrix_symbol(), 8) <= 1e-12


def test_conjugation_identity_rejects_non_circulant():
    rng = np.random.default_rng(24)
    phi = rand_matrix(rng, 2)
    with pytest.raises(CirculantPatternError):
        conjugation_identity_check(phi, 16)


# ---------------------------------------------------------------------------
# window invariants


def test_product_window_entries_independent_of_order():
    rng = np.random.default_rng(25)
    phi, psi = rand_matrix(rng, 2, w=2), rand_matrix(rng, 2, w=2)
    n = 24
    small = truncate(phi, n) @ truncate(psi, n)
    large = truncate(phi, n + 8) @ truncate(psi, n + 8)
    lim = small.window_limit
    assert lim == (n - phi.bandwidth - psi.bandwidth) * 2
    assert np.array_equal(small.data[:lim, :lim], large.data[:lim, :lim])


def test_adjoint_of_truncation_is_truncation_of_adjoint():
    rng = np.random.default_rng(26)
    phi = rand_matrix(rng, 3, w=2)
    t = truncate(phi, 16)
    ta = truncate(phi.adjoint(), 16)
    assert np.array_equal(ta.data, t.data.conj().T)


def test_circulant_transfer_of_binormal_window_norms():
    """Spectral norm of the block commutator window equals the max over
    eigenvalue symbols (the window submatrices are unitarily conjugate,
    blockwise, so any unitarily invariant norm transfers)."""
    rng = np.random.default_rng(27)
    order = 64
    for i in range(32):
        n = (2, 3, 4)[i % 3]
        c = CirculantSymbol([rand_scalar(rng, 3) for _ in range(n)])
        w = c.bandwidth
        blocks = order - 4 * w
        block_k = commutator_matrix(c.as_matrix_symbol(), "binormal", order)
        lim = blocks * n
        block_norm = np.linalg.norm(block_k.data[:lim, :lim], 2)
        scalar_norms = [
            np.linalg.norm(commutator_matrix(lam, "binormal", order).data[:blocks, :blocks], 2)
            for lam in circulant_eigen_symbols(c).lambdas
        ]
        assert abs(block_norm - max(scalar_norms)) <= 1e-10


def test_diagonal_symbol_products_split_blockwise():
    rng = np.random.default_rng(28)
    order = 24
    lams = [rand_scalar(rng, 2) for _ in range(3)]
    zero = ScalarSymbol.zero()
    diag = MatrixSymbol.from_entries(
        [[lams[i] if i == j else zero for j in range(3)] for i in range(3)]
    )
    t = truncate(diag, order)
    full = (t.adjoint() @ t) @ (t @ t.adjoint())
    lim = full.window_limit
    expected = np.zeros_like(full.data)
    for k, lam in enumerate(lams):
        tk = truncate(lam, order)
        pk = ((tk.adjoint() @ tk) @ (tk @ tk.adjoint())).data
        expected[k::3, k::3] = pk
    assert np.max(np.abs(full.data[:lim, :lim] - expected[:lim, :lim])) <= 1e-12
