import tracemalloc

import numpy as np
import pytest

from toeplab.circulant import CirculantSymbol
from toeplab.reducing import (
    PROJECTOR_TOL,
    OrthogonalProjector,
    projection_intertwine_check,
    reducing_projectors,
    resolution_residual,
    verify_reducing,
)
from toeplab.symbols import MatrixSymbol, ScalarSymbol
from toeplab.toeplitz import truncate

Z = ScalarSymbol.monomial(1)
ZBAR = ScalarSymbol.monomial(-1)
ONE = ScalarSymbol.constant(1.0)


def rand_scalar(rng, w=2):
    idx = rng.choice(np.arange(-w, w + 1), size=rng.integers(1, 4), replace=False)
    return ScalarSymbol({int(n): complex(*rng.standard_normal(2)) / 2 for n in idx})


def rand_circulant(rng, n):
    return CirculantSymbol([rand_scalar(rng) for _ in range(n)])


# ---------------------------------------------------------------------------
# the intertwining identity


@pytest.mark.parametrize("seed", [0, 1, 17])
def test_intertwine_residual_small(seed):
    assert projection_intertwine_check(4, 2, seed) <= 1e-10


def test_intertwine_with_identity_unitary_is_exact():
    assert projection_intertwine_check(4, 2, seed=3, tau=np.eye(4)) == 0.0


def test_intertwine_near_full_subspace():
    assert projection_intertwine_check(8, 7, seed=5) <= 1e-10


@pytest.mark.parametrize("m,k", [(4, 0), (4, 4), (4, 5), (1, 1)])
def test_intertwine_rejects_degenerate_dims(m, k):
    with pytest.raises(ValueError):
        projection_intertwine_check(m, k, seed=0)


# ---------------------------------------------------------------------------
# projector construction


def test_projector_ranks_and_invariants():
    rng = np.random.default_rng(51)
    c = rand_circulant(rng, 2)
    projs = reducing_projectors(c, 12)
    assert [p.rank for p in projs] == [12, 12]
    for p in projs:
        assert p.ambient_dim == 24
        assert max(p.invariant_residuals()) <= PROJECTOR_TOL


def test_matrix_is_the_kron_of_the_block_bitwise():
    rng = np.random.default_rng(59)
    for n, order in ((1, 3), (2, 1), (3, 7), (8, 5)):
        projs = reducing_projectors(rand_circulant(rng, n), order)
        total = sum(q.matrix for q in projs)
        assert abs(resolution_residual(projs) - np.linalg.norm(total - np.eye(order * n))) <= 1e-14
        for q in projs:
            m = q.matrix
            want = np.kron(np.eye(order), q.block)
            assert m.dtype == want.dtype and m.tobytes() == want.tobytes()
            # what the projector reads from its block, against the dense matrix
            assert q.ambient_dim == m.shape[0] == order * n
            assert q.rank == int(round(float(np.trace(m).real)))
            dense = (np.linalg.norm(m - m.conj().T), np.linalg.norm(m @ m - m))
            for got, want_norm in zip(q.invariant_residuals(), dense):
                assert abs(got - want_norm) <= 1e-14
    # a block that is not a projector: the residuals scale with sqrt(N)
    junk = OrthogonalProjector(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), 6)
    m = junk.matrix
    dense = (np.linalg.norm(m - m.conj().T), np.linalg.norm(m @ m - m))
    assert junk.invariant_residuals() == pytest.approx(dense, rel=1e-12)
    assert max(junk.invariant_residuals()) > PROJECTOR_TOL


def test_projectors_and_their_verification_stay_small_at_order_one_million():
    # one dense projector at this order would be (8e6)^2 complex entries
    order = 10**6
    c = rand_circulant(np.random.default_rng(60), 8)
    sym = c.as_matrix_symbol()
    tracemalloc.start()
    try:
        projs = reducing_projectors(c, order)
        reports = [verify_reducing(q, sym, tolerance=1e-10) for q in projs]
        residual = resolution_residual(projs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [(r.verdict, r.rank, r.ambient_dim) for r in reports] == [("reducing", order, 8 * order)] * 8
    assert residual <= 1e-10


@pytest.mark.parametrize("order", [0, -1])
def test_projectors_reject_orders_below_one(order):
    with pytest.raises(ValueError, match="order must be >= 1"):
        reducing_projectors(rand_circulant(np.random.default_rng(50), 2), order)


def test_projectors_resolve_the_identity():
    rng = np.random.default_rng(52)
    for n in (2, 3, 5):
        c = rand_circulant(rng, n)
        projs = reducing_projectors(c, 10)
        total = sum(p.matrix for p in projs)
        assert np.linalg.norm(total - np.eye(10 * n)) <= 1e-12
        for i in range(n):
            for j in range(i + 1, n):
                assert np.max(np.abs(projs[i].matrix @ projs[j].matrix)) <= 1e-14


def test_projectors_commute_with_circulant_truncation():
    rng = np.random.default_rng(53)
    for n in (2, 3, 4):
        c = rand_circulant(rng, n)
        sym = c.as_matrix_symbol()
        for p in reducing_projectors(c, 16):
            rep = verify_reducing(p, sym, tolerance=1e-10)
            assert rep.verdict == "reducing"
            assert not rep.trivial
            assert rep.offdiagonal_norm <= 1e-10


@pytest.mark.parametrize("order", [1, 4, 8])
def test_projectors_reduce_circulant_at_orders_up_to_4w(order):
    # the conjugating unitary is block-constant, so no window margin applies
    c = CirculantSymbol([Z * Z + 0.5 * ONE, 0.3 * ZBAR * ZBAR + Z])
    assert c.bandwidth == 2
    sym = c.as_matrix_symbol()
    for p in reducing_projectors(c, order):
        rep = verify_reducing(p, sym, tolerance=1e-10)
        assert rep.verdict == "reducing"
        assert not rep.trivial


# ---------------------------------------------------------------------------
# verification


def test_full_projector_is_trivially_reducing():
    rng = np.random.default_rng(54)
    c = rand_circulant(rng, 2)
    q = OrthogonalProjector(np.eye(2, dtype=complex), 8)
    rep = verify_reducing(q, c.as_matrix_symbol(), tolerance=1e-10)
    assert rep.verdict == "reducing"
    assert rep.trivial


def test_verify_rejects_non_projector():
    rng = np.random.default_rng(55)
    junk = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q = OrthogonalProjector(junk, 4)
    with pytest.raises(ValueError):
        verify_reducing(q, rand_circulant(rng, 2).as_matrix_symbol(), tolerance=1e-10)


def test_verify_rejects_dimension_mismatch():
    rng = np.random.default_rng(56)
    c = rand_circulant(rng, 2)
    q = OrthogonalProjector(np.eye(3, dtype=complex), 16)
    with pytest.raises(ValueError, match="does not match"):
        verify_reducing(q, c.as_matrix_symbol(), tolerance=1e-10)


def test_verify_takes_its_order_from_the_projector():
    c = rand_circulant(np.random.default_rng(59), 2)
    q = OrthogonalProjector(np.eye(2, dtype=complex), 5)
    assert verify_reducing(q, c.as_matrix_symbol()).ambient_dim == 10
    # the tolerance is keyword-only, so an order in its place is refused
    with pytest.raises(TypeError):
        verify_reducing(q, c.as_matrix_symbol(), 16)


@pytest.mark.parametrize("order", [0, -3, True, 2.0])
def test_projector_refuses_an_order_that_is_not_a_positive_int(order):
    # at order 0 no lag would have weight, so the non-reducing
    # [[z, 1], [2, zbar]] would read reducing; at -3 the residuals are nan
    with pytest.raises(ValueError, match="order must be >= 1"):
        OrthogonalProjector(np.diag([1.0, 0.0]).astype(complex), order)


def test_projector_stores_a_read_only_copy_of_the_block():
    p = np.diag([1.0, 0.0]).astype(complex)
    q = OrthogonalProjector(p, 4)
    assert p.flags.writeable
    assert not q.block.flags.writeable
    p[1, 1] = 1.0
    assert q.block[1, 1] == 0.0
    phi = MatrixSymbol.from_entries([[Z, ONE], [2.0 * ONE, ZBAR]])
    assert verify_reducing(q, phi).verdict == "not_reducing"


def test_coordinate_projector_fails_for_non_circulant_symbol():
    # fixed fixture with unequal off-diagonal entries
    phi = MatrixSymbol.from_entries([[Z, ONE], [2.0 * ONE, ZBAR]])
    order = 12
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    q = OrthogonalProjector(e0, order)
    rep = verify_reducing(q, phi, tolerance=1e-10)
    assert rep.verdict == "not_reducing"
    # dense commutator oracle
    t = truncate(phi, order).data
    expected = float(np.linalg.norm(q.matrix @ t - t @ q.matrix))
    assert rep.commutator_T == pytest.approx(expected, rel=1e-12)
    assert expected > 1e-2


def test_commutator_and_block_diagonal_verdicts_agree():
    rng = np.random.default_rng(57)
    order = 12
    # reducing instances
    c = rand_circulant(rng, 3)
    sym = c.as_matrix_symbol()
    for p in reducing_projectors(c, order):
        rep = verify_reducing(p, sym, tolerance=1e-10)
        assert (rep.verdict == "reducing") == (rep.offdiagonal_norm <= 1e-10)
    # a non-reducing instance
    phi = MatrixSymbol.from_entries([[Z, ONE], [2.0 * ONE, ZBAR]])
    e0 = np.zeros((2, 2), dtype=complex)
    e0[0, 0] = 1.0
    q = OrthogonalProjector(e0, order)
    rep = verify_reducing(q, phi, tolerance=1e-10)
    assert (rep.verdict == "reducing") == (rep.offdiagonal_norm <= 1e-10)


def test_unitary_transport_of_reducing_projectors():
    """If Q reduces T then V Q V* reduces V T V* for any unitary V."""
    rng = np.random.default_rng(58)
    order = 10
    c = rand_circulant(rng, 2)
    t = truncate(c.as_matrix_symbol(), order).data
    v, _ = np.linalg.qr(rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20)))
    for p in reducing_projectors(c, order):
        q2 = v @ p.matrix @ v.conj().T
        t2 = v @ t @ v.conj().T
        assert np.linalg.norm(q2 @ t2 - t2 @ q2) <= 1e-10
        assert np.linalg.norm(q2 @ t2.conj().T - t2.conj().T @ q2) <= 1e-10


# ---------------------------------------------------------------------------
# the coefficient route against the dense section


def dense_reducing(q, phi, order, tolerance):
    """Dense oracle: (rank, trivial, verdict, commutator_T, commutator_Tstar,
    offdiagonal_norm) read from the (N d) x (N d) section and dense Q."""
    t = truncate(phi, order).data
    qm = q.matrix
    qt, tq = qm @ t, t @ qm
    comm_t = float(np.linalg.norm(qt - tq))
    comm_ts = float(np.linalg.norm(qm @ t.conj().T - t.conj().T @ qm))
    qtq = qt @ qm
    off = max(float(np.linalg.norm(qt - qtq)), float(np.linalg.norm(tq - qtq)))
    r = int(round(float(np.trace(qm).real)))
    verdict = "reducing" if comm_t <= tolerance and comm_ts <= tolerance else "not_reducing"
    return r, r in (0, q.ambient_dim), verdict, comm_t, comm_ts, off


def random_block_projector(rng, d, rank, order):
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    p = basis[:, :rank] @ basis[:, :rank].conj().T
    return OrthogonalProjector(p, order)


def random_matrix_symbol(rng, d, w=3):
    """Lag 0 and two more lags in [-w, w], so order 1 keeps one coefficient."""
    lags = [0, *rng.choice([n for n in range(-w, w + 1) if n], size=2, replace=False)]
    return MatrixSymbol(
        d, {int(n): rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for n in lags}
    )


def commuting_symbol(rng, p, w=3):
    """A symbol whose every coefficient is P A P + (I - P) B (I - P)."""
    d = p.shape[0]
    comp = np.eye(d) - p
    coeffs = {}
    for n in range(-w, w + 1):
        a, b = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for _ in range(2))
        coeffs[n] = p @ a @ p + comp @ b @ comp
    return MatrixSymbol(d, coeffs)


def assert_matches_dense(q, phi, order, tolerance=1e-10):
    rep = verify_reducing(q, phi, tolerance=tolerance)
    r, trivial, verdict, *norms = dense_reducing(q, phi, order, tolerance)
    assert (rep.rank, rep.trivial, rep.verdict) == (r, trivial, verdict)
    for got, want in zip((rep.commutator_T, rep.commutator_Tstar, rep.offdiagonal_norm), norms):
        if want < 1e-8:
            assert abs(got - want) <= 1e-13
        else:
            assert got == pytest.approx(want, rel=1e-12)
    return rep


@pytest.mark.parametrize("order", range(1, 41))
def test_coefficient_route_matches_dense_section(order):
    rng = np.random.default_rng(600 + order)
    d = (1, 2, 3, 4, 8)[order % 5]
    # each d takes every rank from 0 to d over its eight orders
    rank = (7 * (order // 5)) % (d + 1)
    q = random_block_projector(rng, d, rank, order)
    p = q.matrix[:d, :d]
    assert_matches_dense(q, random_matrix_symbol(rng, d), order)
    rep = assert_matches_dense(q, commuting_symbol(rng, p), order)
    assert rep.verdict == "reducing"
    if rank not in (0, d):
        rep = assert_matches_dense(q, random_matrix_symbol(rng, d), order)
        assert rep.verdict == "not_reducing"
    if d == 1:
        assert_matches_dense(q, rand_scalar(rng), order)


@pytest.mark.parametrize("order", [1, 2, 3, 7, 33])
def test_fourier_projectors_match_dense_section(order):
    rng = np.random.default_rng(700 + order)
    for n in (2, 3, 4, 8):
        c = rand_circulant(rng, n)
        sym = c.as_matrix_symbol()
        for q in reducing_projectors(c, order):
            assert assert_matches_dense(q, sym, order).verdict == "reducing"
        # the same projectors against a symbol that is not circulant
        for q in reducing_projectors(c, order):
            assert_matches_dense(q, random_matrix_symbol(rng, n), order)

