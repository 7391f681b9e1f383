"""Circulant matrix symbols and their pointwise diagonalization.

A circulant symbol is an n x n matrix symbol whose matrix view at every
point of the circle is circ(row[0](z), ..., row[n-1](z)), i.e. entry (i, j)
equals row[(j - i) mod n].  All such matrices share the eigenvector basis
given by the discrete Fourier columns, so the symbol is unitarily equivalent
to a diagonal symbol whose entries are coefficientwise DFTs of the row.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .symbols import MatrixSymbol, ScalarSymbol, unit_samples


class CirculantPatternError(ValueError):
    """A matrix symbol does not follow the circulant rotation pattern."""

    def __init__(self, i: int, j: int, message: str | None = None):
        self.entry = (i, j)
        super().__init__(message or f"entry ({i}, {j}) violates the circulant pattern")


def dft_unitary(n: int) -> np.ndarray:
    """The constant n x n unitary of Fourier eigenvectors, read-only.

    Column k is (1/sqrt n) * (1, mu^k, mu^(2k), ..., mu^((n-1)k))^T with
    mu = e^(2 pi i / n).  Built from the closed form, never from an
    eigensolver, so the conjugation identity is deterministic.
    """
    if n < 1:
        raise ValueError(f"size must be a positive integer, got {n}")
    mu = complex(np.exp(2j * np.pi / n))
    j = np.arange(n)
    powers = np.outer(j, j)
    matrix = mu ** powers / np.sqrt(n)
    matrix.setflags(write=False)
    return matrix


class CirculantSymbol:
    """First-row representation of an n x n circulant matrix symbol."""

    __slots__ = ("_n", "_row")

    def __init__(self, row: Sequence[ScalarSymbol]):
        row = tuple(row)
        if not row:
            raise ValueError("circulant row must be nonempty")
        if not all(isinstance(phi, ScalarSymbol) for phi in row):
            raise TypeError("circulant row entries must be ScalarSymbol")
        self._n = len(row)
        self._row = row

    @property
    def n(self) -> int:
        return self._n

    @property
    def row(self) -> tuple[ScalarSymbol, ...]:
        return self._row

    @property
    def bandwidth(self) -> int:
        return max(phi.bandwidth for phi in self._row)

    def as_matrix_symbol(self) -> MatrixSymbol:
        n = self._n
        grid = [[self._row[(j - i) % n] for j in range(n)] for i in range(n)]
        return MatrixSymbol.from_entries(grid)

    def __call__(self, z: complex) -> np.ndarray:
        vals = [phi(z) for phi in self._row]
        n = self._n
        return np.array([[vals[(j - i) % n] for j in range(n)] for i in range(n)])

    def __add__(self, other: "CirculantSymbol") -> "CirculantSymbol":
        if not isinstance(other, CirculantSymbol):
            return NotImplemented
        if self._n != other._n:
            raise ValueError(f"size mismatch: {self._n} vs {other._n}")
        return CirculantSymbol([a + b for a, b in zip(self._row, other._row)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, CirculantSymbol):
            return NotImplemented
        return self._n == other._n and self._row == other._row

    def __repr__(self) -> str:
        return f"CirculantSymbol(n={self._n})"


class DiagonalSymbol:
    """diag(lambda_0(z), ..., lambda_{n-1}(z)) in DFT index order."""

    __slots__ = ("_lambdas",)

    def __init__(self, lambdas: Sequence[ScalarSymbol]):
        self._lambdas = tuple(lambdas)
        if not self._lambdas:
            raise ValueError("diagonal must be nonempty")

    @property
    def n(self) -> int:
        return len(self._lambdas)

    @property
    def lambdas(self) -> tuple[ScalarSymbol, ...]:
        return self._lambdas

    def as_matrix_symbol(self) -> MatrixSymbol:
        n = self.n
        zero = ScalarSymbol.zero()
        grid = [[self._lambdas[i] if i == j else zero for j in range(n)] for i in range(n)]
        return MatrixSymbol.from_entries(grid)

    def __call__(self, z: complex) -> np.ndarray:
        return np.diag([lam(z) for lam in self._lambdas])

    def __repr__(self) -> str:
        return f"DiagonalSymbol(n={self.n})"


def circulant_eigen_symbols(c: CirculantSymbol) -> DiagonalSymbol:
    """Eigenvalue symbols lambda_k = sum_j row[j] * mu^(j k), k in DFT order.

    The DFT is applied coefficientwise; the order k = 0..n-1 is never sorted.
    """
    n = c.n
    mu = complex(np.exp(2j * np.pi / n))
    lambdas = []
    for k in range(n):
        lam = ScalarSymbol.zero()
        for j, phi in enumerate(c.row):
            lam = lam + (mu ** (j * k)) * phi
        lambdas.append(lam)
    return DiagonalSymbol(lambdas)


def diagonalize_check(c: CirculantSymbol) -> float:
    """Max of ||U* C(z) U - Lambda(z)||_F over the 17 points of ``unit_samples``."""
    u = dft_unitary(c.n)
    lam = circulant_eigen_symbols(c)
    worst = 0.0
    for z in unit_samples():
        resid = np.linalg.norm(u.conj().T @ c(z) @ u - lam(z))
        worst = max(worst, float(resid))
    return worst


def circulant_from_matrix_symbol(phi: MatrixSymbol) -> CirculantSymbol:
    """Extract the first row, rejecting symbols that break the rotation pattern."""
    n = phi.dim
    row = [phi.entry(0, j) for j in range(n)]
    for i in range(n):
        for j in range(n):
            if phi.entry(i, j) != row[(j - i) % n]:
                raise CirculantPatternError(
                    i, j,
                    f"entry ({i}, {j}) differs from first-row entry {(j - i) % n}",
                )
    return CirculantSymbol(row)
