"""Reducing subspaces of block Toeplitz truncations.

A projector reduces an operator when it commutes with the operator and its
adjoint, equivalently when the operator is block diagonal in a basis adapted
to range and complement.  For circulant symbols the Fourier coordinate
projectors, transported blockwise, reduce the truncation exactly because the
conjugating unitary is block-constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circulant import CirculantSymbol, dft_unitary
from .symbols import MatrixSymbol, ScalarSymbol
from .toeplitz import truncate

PROJECTOR_TOL = 1e-12


@dataclass(frozen=True)
class OrthogonalProjector:
    """A dense self-adjoint idempotent with its ambient dimension and rank."""

    matrix: np.ndarray
    ambient_dim: int
    rank: int

    def __post_init__(self):
        self.matrix.setflags(write=False)

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
    u = dft_unitary(c.n).matrix
    eye = np.eye(order)
    out = []
    for k in range(c.n):
        col = u[:, k]
        small = np.outer(col, col.conj())
        out.append(
            OrthogonalProjector(
                matrix=np.kron(eye, small),
                ambient_dim=order * c.n,
                rank=order,
            )
        )
    return out


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

    Reports ||[Q, T]||_F and ||[Q, T*]||_F for the truncation T, and checks
    the equivalent formulation: in an orthonormal basis adapted to
    range(Q) + range(I - Q), the off-diagonal blocks of T must vanish.  Their
    norms are read as ||QT - QTQ||_F and ||TQ - QTQ||_F, and the rank as
    trace(Q), so no eigendecomposition of Q is formed.

    Reads the whole section, not a window, so any order >= 1 whose section
    matches the projector's ambient dimension is accepted.
    """
    if not q.is_valid():
        h, i = q.invariant_residuals()
        raise ValueError(
            f"input is not an orthogonal projector (hermitian residual {h:.3e}, "
            f"idempotency residual {i:.3e})"
        )
    t = truncate(phi, order).data
    if t.shape[0] != q.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: projector {q.ambient_dim}, truncation {t.shape[0]}"
        )
    qt = q.matrix @ t
    tq = t @ q.matrix
    comm_t = float(np.linalg.norm(qt - tq))
    comm_ts = float(np.linalg.norm(q.matrix @ t.conj().T - t.conj().T @ q.matrix))

    # QT(I - Q) and (I - Q)TQ are the off-diagonal blocks in the adapted
    # basis, up to a unitary change of basis that keeps the Frobenius norm
    qtq = qt @ q.matrix
    r = int(round(float(np.trace(q.matrix).real)))
    off = max(float(np.linalg.norm(qt - qtq)), float(np.linalg.norm(tq - qtq)))

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
