"""Reducing subspaces of block Toeplitz truncations.

A projector reduces an operator when it commutes with the operator and its
adjoint, equivalently when the operator is block diagonal in a basis adapted
to range and complement.  For circulant symbols the Fourier coordinate
projectors, transported blockwise, reduce the truncation exactly because the
conjugating unitary is block-constant.

``verify_reducing`` takes block-constant projectors Q = I_N (x) P only.  For
those [Q, T(Phi)] = T([P, Phi]), so it decides from the symbol's
coefficients, each lag n weighted by the w_n = max(N - |n|, 0) times it
occurs in the section, and never builds the (N d) x (N d) section.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import CirculantSymbol, dft_unitary
from .symbols import MatrixSymbol, ScalarSymbol
from .toeplitz import _weighted_norm

# Not used in this module; the binding stays because perfbench/test_tracing.py
# asserts that the benchmark's tracer wraps toeplab.reducing.truncate.
from .toeplitz import truncate  # noqa: F401

PROJECTOR_TOL = 1e-12


@dataclass(frozen=True)
class OrthogonalProjector:
    """A dense self-adjoint idempotent; its ambient dimension and rank are
    read from the matrix, never stored beside it."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def ambient_dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def rank(self) -> int:
        """The trace, rounded: the rank of a projector."""
        return int(round(float(np.trace(self.matrix).real)))

    def invariant_residuals(self) -> tuple[float, float]:
        """(||Q - Q*||_F, ||Q^2 - Q||_F)."""
        q = self.matrix
        return (
            float(np.linalg.norm(q - q.conj().T)),
            float(np.linalg.norm(q @ q - q)),
        )

    def is_valid(self, tol: float = PROJECTOR_TOL) -> bool:
        h, i = self.invariant_residuals()
        return h <= tol and i <= tol


def _complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def projection_intertwine_check(
    m: int, k: int, seed: int, tau: np.ndarray | None = None
) -> float:
    """||tau P - Q tau||_F for a seeded random subspace and unitary.

    P projects onto a random k-dimensional subspace, Q onto its image under
    the unitary tau; the intertwining holds identically, so the residual is
    floating-point noise.  Pass ``tau`` to override the random unitary.
    """
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")
    rng = np.random.default_rng(seed)
    basis, _ = np.linalg.qr(_complex_gaussian(rng, m, k))
    p = basis @ basis.conj().T
    if tau is None:
        tau, _ = np.linalg.qr(_complex_gaussian(rng, m, m))
    moved = tau @ basis
    q = moved @ moved.conj().T
    return float(np.linalg.norm(tau @ p - q @ tau))


def reducing_projectors(c: CirculantSymbol, order: int) -> list[OrthogonalProjector]:
    """One projector per Fourier coordinate, transported to the symbol's frame.

    P_k = (I_N (x) U) (I_N (x) E_k) (I_N (x) U)* where E_k is the coordinate
    projector; each has rank N, they are mutually orthogonal, sum to the
    identity, and commute with the truncation of the circulant symbol.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    u = dft_unitary(c.n)
    eye = np.eye(order)
    return [OrthogonalProjector(np.kron(eye, np.outer(col, col.conj()))) for col in u.T]


@dataclass(frozen=True)
class ReducingReport:
    rank: int
    ambient_dim: int
    commutator_T: float
    commutator_Tstar: float
    offdiagonal_norm: float
    verdict: str  # reducing | not_reducing
    trivial: bool
    tolerance: float

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "ambient_dim": self.ambient_dim,
            "commutator_T": self.commutator_T,
            "commutator_Tstar": self.commutator_Tstar,
            "offdiagonal_norm": self.offdiagonal_norm,
            "verdict": self.verdict,
            "trivial": self.trivial,
            "tolerance": self.tolerance,
        }


def verify_reducing(
    q: OrthogonalProjector,
    phi: MatrixSymbol | ScalarSymbol,
    order: int,
    tolerance: float = 1e-10,
) -> ReducingReport:
    """Commutator and block-diagonality evidence for one projector.

    The projector must be block-constant, Q = I_N (x) P with P the d x d
    block ``q.matrix[:d, :d]``; any other Q raises ``ValueError``.  Then
    [Q, T(Phi)] is the section of the symbol [P, Phi], and every number is
    read from the coefficients Phi_n with no section built: lag n occurs
    w_n = max(N - |n|, 0) times in an N x N block section, so

        ||[Q, T]||_F^2  = sum_n w_n ||P Phi_n - Phi_n P||_F^2,
        ||[Q, T*]||_F^2 = sum_n w_n ||P Phi_n* - Phi_n* P||_F^2,

    and the off-diagonal blocks of T in a basis adapted to range(Q) +
    range(I - Q), read as ||QT - QTQ||_F and ||TQ - QTQ||_F, are the same
    weighted sums of P Phi_n - P Phi_n P and Phi_n P - P Phi_n P.  The rank
    is N trace(P), and the projector residuals sqrt(N) ||P - P*||_F and
    sqrt(N) ||P^2 - P||_F equal those of Q.  The cost is O(|supp| d^3),
    whatever the order.

    Any order >= 1 whose section matches the projector's ambient dimension
    is accepted.  For N > bandwidth every lag of the symbol has w_n >= 1,
    so a zero commutator means P commutes with every coefficient and the
    verdict also holds for the infinite block Toeplitz operator.
    """
    sym = phi.as_matrix() if isinstance(phi, ScalarSymbol) else phi
    d = sym.dim
    if order * d != q.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: projector {q.ambient_dim}, truncation {order * d}"
        )
    p = q.matrix[:d, :d]
    if not np.array_equal(q.matrix, np.kron(np.eye(order), p)):
        raise ValueError(f"projector is not block-constant I_{order} (x) P with P {d} x {d}")
    scale = np.sqrt(order)
    h = scale * float(np.linalg.norm(p - p.conj().T))
    i = scale * float(np.linalg.norm(p @ p - p))
    if not (h <= PROJECTOR_TOL and i <= PROJECTOR_TOL):
        raise ValueError(
            f"input is not an orthogonal projector (hermitian residual {h:.3e}, "
            f"idempotency residual {i:.3e})"
        )

    lags = [(n, mat) for n, mat in sym.items() if abs(n) < order]
    weights = np.array([order - abs(n) for n, _ in lags], dtype=float)
    coeffs = np.array([mat for _, mat in lags], dtype=complex).reshape(-1, d, d)
    pc = p @ coeffs
    cp = coeffs @ p
    adj = coeffs.conj().transpose(0, 2, 1)
    comm_t = _weighted_norm(pc - cp, weights)
    comm_ts = _weighted_norm(p @ adj - adj @ p, weights)

    # QT(I - Q) and (I - Q)TQ are the off-diagonal blocks in the adapted
    # basis, up to a unitary change of basis that keeps the Frobenius norm
    pcp = pc @ p
    off = max(_weighted_norm(pc - pcp, weights), _weighted_norm(cp - pcp, weights))
    r = int(round(order * float(np.trace(p).real)))

    reducing = comm_t <= tolerance and comm_ts <= tolerance
    return ReducingReport(
        rank=r,
        ambient_dim=q.ambient_dim,
        commutator_T=comm_t,
        commutator_Tstar=comm_ts,
        offdiagonal_norm=off,
        verdict="reducing" if reducing else "not_reducing",
        trivial=r in (0, q.ambient_dim),
        tolerance=tolerance,
    )
