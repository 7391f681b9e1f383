"""Row-flattening dilation of matrix symbols into larger circulant symbols.

``gamma`` sends an n x n matrix symbol to the n^2 x n^2 circulant symbol
whose first row is the row-major flattening of the entries; ``gamma_adjoint``
reverses the flattening and scales by n^2, so the composition is n^2 times
the identity.  For n = 2 the dilated 4 x 4 symbol splits into two Toeplitz
2 x 2 blocks and the DFT diagonalization splits into two diagonal blocks;
``theorem41_probe`` gathers numeric evidence on whether the corresponding
finite sections can be unitarily equivalent, without asserting that they are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circulant import CirculantSymbol, circulant_eigen_symbols, dft_unitary
from .symbols import MatrixSymbol, ScalarSymbol
from .toeplitz import CHAIN_BUDGET_BYTES, truncate


@dataclass(frozen=True)
class GammaImage:
    """The circulant symbol produced by flattening an n x n matrix symbol."""

    n: int
    circulant: CirculantSymbol


def gamma(phi: MatrixSymbol) -> GammaImage:
    """Row-major flatten into a circulant row of length n^2."""
    n = phi.dim
    row = [phi.entry(i, j) for i in range(n) for j in range(n)]
    return GammaImage(n=n, circulant=CirculantSymbol(row))


def gamma_adjoint(c: CirculantSymbol) -> MatrixSymbol:
    """Un-flatten a circulant of perfect-square size, scaling entries by n^2."""
    m = c.n
    n = math.isqrt(m)
    if n * n != m:
        raise ValueError(f"circulant size {m} is not a perfect square")
    scale = float(m)
    grid = [[scale * c.row[i * n + j] for j in range(n)] for i in range(n)]
    return MatrixSymbol.from_entries(grid)


def psi_lambda_blocks(
    phi: MatrixSymbol,
) -> tuple[MatrixSymbol, MatrixSymbol, MatrixSymbol, MatrixSymbol]:
    """The four 2 x 2 blocks associated with the dilation of a 2 x 2 symbol.

    Returns (psi11, psi22, lambda11, lambda22): the Toeplitz-patterned
    diagonal and off-diagonal blocks of the 4 x 4 dilated circulant, and the
    two diagonal halves of its eigenvalue symbol.
    """
    if phi.dim != 2:
        raise ValueError(f"block extraction is defined for 2 x 2 symbols, got dim {phi.dim}")
    return _blocks_of_dilation(phi, gamma(phi).circulant)


def _blocks_of_dilation(
    phi: MatrixSymbol, big: CirculantSymbol
) -> tuple[MatrixSymbol, MatrixSymbol, MatrixSymbol, MatrixSymbol]:
    """``psi_lambda_blocks`` of the 2 x 2 symbol ``phi``, its dilated
    circulant ``big`` already built."""
    p0, p1 = phi.entry(0, 0), phi.entry(0, 1)
    p2, p3 = phi.entry(1, 0), phi.entry(1, 1)
    psi11 = MatrixSymbol.from_entries([[p0, p1], [p3, p0]])
    psi22 = MatrixSymbol.from_entries([[p2, p3], [p1, p2]])
    lams = circulant_eigen_symbols(big).lambdas
    zero = ScalarSymbol.zero()
    lam11 = MatrixSymbol.from_entries([[lams[0], zero], [zero, lams[1]]])
    lam22 = MatrixSymbol.from_entries([[lams[2], zero], [zero, lams[3]]])
    return psi11, psi22, lam11, lam22


@dataclass(frozen=True)
class EquivalenceReport:
    """Evidence for or against unitary equivalence of two finite sections.

    Equal sorted singular values are necessary for unitary equivalence, so a
    gap above tolerance certifies the sections are inequivalent at this
    order; a small gap is merely consistent with equivalence.
    """

    order: int
    compression_exact: bool
    sv_psi: tuple[float, ...]
    sv_lambda: tuple[float, ...]
    max_gap: float
    conjugation_residual: float
    verdict: str  # consistent | inconsistent
    tolerance: float

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "compression_exact": self.compression_exact,
            "singular_values_psi_top16": list(self.sv_psi[:16]),
            "singular_values_lambda_top16": list(self.sv_lambda[:16]),
            "max_singular_value_gap": self.max_gap,
            "conjugation_residual": self.conjugation_residual,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
        }


def theorem41_probe(
    phi: MatrixSymbol, order: int, tolerance: float = 1e-8
) -> EquivalenceReport:
    """Probe the dilation block equivalence claim on finite sections.

    Three pieces of evidence, none of which asserts the claim itself:

    * the compression identity: reading off the first two components of every
      block of the dilated section must reproduce the psi11 section exactly
      (it is a sub-block read-off), decided lag by lag from the coefficients;
    * the sorted singular values of the psi11 and lambda11 sections, whose
      maximum gap decides the consistent/inconsistent verdict;
    * the residual of the one natural candidate conjugation, blockwise
      application of the 2 x 2 DFT unitary.

    The probe builds several dense (2N) x (2N) sections; an order whose
    section would exceed ``CHAIN_BUDGET_BYTES`` (order > 2048) is refused
    with ``ValueError`` before any is built.
    """
    if phi.dim != 2:
        raise ValueError(f"probe is defined for 2 x 2 symbols, got dim {phi.dim}")
    size = 16 * (2 * order) ** 2
    if size > CHAIN_BUDGET_BYTES:
        raise ValueError(
            f"the probe builds dense sections of {size / 2**20:.0f} MiB each (order {order}), "
            f"above the {CHAIN_BUDGET_BYTES >> 20} MiB budget"
        )
    big = gamma(phi).circulant
    psi11, _, lam11, _ = _blocks_of_dilation(phi, big)
    # block (i, j) of a section is the coefficient at i - j, so the compression
    # of the dilated section is the psi11 section exactly when their
    # coefficients' [0:2, 0:2] components agree at every lag |n| < order
    lags = {n for n in (*big.support, *psi11.support) if abs(n) < order}
    compression_exact = all(np.array_equal(big.coeff(n)[:2, :2], psi11.coeff(n)) for n in lags)
    t_psi = truncate(psi11, order).data
    t_lam = truncate(lam11, order).data

    sv_psi = np.linalg.svd(t_psi, compute_uv=False)
    sv_lam = np.linalg.svd(t_lam, compute_uv=False)
    max_gap = float(np.max(np.abs(sv_psi - sv_lam)))

    v = np.kron(np.eye(order), dft_unitary(2))
    conj_resid = float(np.linalg.norm(v @ t_lam @ v.conj().T - t_psi))

    verdict = "consistent" if max_gap <= tolerance else "inconsistent"
    return EquivalenceReport(
        order=order,
        compression_exact=compression_exact,
        sv_psi=tuple(float(x) for x in sv_psi),
        sv_lambda=tuple(float(x) for x in sv_lam),
        max_gap=max_gap,
        conjugation_residual=conj_resid,
        verdict=verdict,
        tolerance=tolerance,
    )
