"""Reducing subspaces of block Toeplitz operators.

A projector reduces an operator when it commutes with the operator and its
adjoint, equivalently when the operator is block diagonal in a basis adapted
to range and complement.  For circulant symbols the Fourier coordinate
projectors, transported blockwise, reduce the truncation exactly because the
conjugating unitary is block-constant.

Projectors here are block-constant, Q = I_N (x) P, and an
``OrthogonalProjector`` stores only its d x d block P and the order N.  For
those [Q, T(Phi)] = T([P, Phi]), so ``verify_reducing`` decides from the
symbol's coefficients, each lag n weighted by the w_n = max(N - |n|, 0) times
it occurs in the section, and never builds an (N d) x (N d) array.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

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
    """The block-constant projector Q = I_N (x) P on C^(N d), stored as its
    d x d block P and the order N.  Its ambient dimension, rank and residuals
    are read from P; ``matrix`` builds Q only when a caller asks for it."""

    block: np.ndarray
    order: int

    def __post_init__(self):
        self.block.setflags(write=False)

    @property
    def matrix(self) -> np.ndarray:
        """The (N d) x (N d) array kron(I_N, P)."""
        return np.kron(np.eye(self.order), self.block)

    @property
    def ambient_dim(self) -> int:
        return self.order * self.block.shape[0]

    @property
    def rank(self) -> int:
        """The trace N trace(P), rounded: the rank of a projector."""
        return int(round(self.order * float(np.trace(self.block).real)))

    def invariant_residuals(self) -> tuple[float, float]:
        """(||Q - Q*||_F, ||Q^2 - Q||_F) = sqrt(N) (||P - P*||_F, ||P^2 - P||_F)."""
        p = self.block
        scale = np.sqrt(self.order)
        return (
            scale * float(np.linalg.norm(p - p.conj().T)),
            scale * float(np.linalg.norm(p @ p - p)),
        )


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

    Q_k = (I_N (x) U) (I_N (x) E_k) (I_N (x) U)* = I_N (x) u_k u_k*, with E_k
    the coordinate projector and u_k column k of U, stored as its block
    u_k u_k*; each has rank N, they are mutually orthogonal, sum to the
    identity, and commute with the truncation of the circulant symbol.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    u = dft_unitary(c.n)
    return [OrthogonalProjector(np.outer(col, col.conj()), order) for col in u.T]


def resolution_residual(projectors: Sequence[OrthogonalProjector]) -> float:
    """||sum_k Q_k - I||_F for projectors of one order N, read from their
    blocks as sqrt(N) ||sum_k P_k - I_d||_F."""
    total = sum(q.block for q in projectors)
    return float(np.sqrt(projectors[0].order) * np.linalg.norm(total - np.eye(len(total))))


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
        return asdict(self)


def verify_reducing(
    q: OrthogonalProjector,
    phi: MatrixSymbol | ScalarSymbol,
    *,
    tolerance: float = 1e-10,
) -> ReducingReport:
    """Commutator and block-diagonality evidence for one projector.

    The projector Q = I_N (x) P sets the order N of the section.  Its block P
    must have the symbol's size d, a ``ScalarSymbol`` being a symbol of block
    size 1, and P must be an orthogonal projector; anything else raises
    ``ValueError``.  Then
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
    whatever the order, and no (N d) x (N d) array is built.

    Any order >= 1 is accepted.  For N > bandwidth every lag of the symbol
    has w_n >= 1, so a zero commutator means P commutes with every
    coefficient and the verdict also holds for the infinite block Toeplitz
    operator.
    """
    d = phi.dim
    p = q.block
    order = q.order
    if p.shape != (d, d):
        raise ValueError(f"projector block P of shape {p.shape} does not match a {d} x {d} symbol")
    h, i = q.invariant_residuals()
    if not (h <= PROJECTOR_TOL and i <= PROJECTOR_TOL):
        raise ValueError(
            f"input is not an orthogonal projector (hermitian residual {h:.3e}, "
            f"idempotency residual {i:.3e})"
        )

    lags = [(n, mat) for n, mat in phi.items() if abs(n) < order]
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
    r = q.rank

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
