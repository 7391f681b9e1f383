"""Circulant matrix symbols and their coefficientwise diagonalization.

A circulant symbol is an n x n matrix symbol whose coefficient at every lag
is a circulant matrix: entry (i, j) of the symbol is row[(j - i) mod n].  All
circulant matrices share the eigenvector basis given by the discrete Fourier
columns U, so U* Phi_n U = Lambda_n holds lag by lag, with Lambda the
diagonal symbol whose entries are coefficientwise DFTs of the row.  That
identity between coefficients is how the diagonalization is checked.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .symbols import MatrixSymbol, ScalarSymbol


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


def conjugation_blocks(c: CirculantSymbol, phi: MatrixSymbol) -> tuple[list[int], np.ndarray]:
    """The lags n of ``phi``, the matrix symbol of ``c``, and of its eigen
    symbols, in increasing order, with the blocks U* Phi_n U - Lambda_n
    stacked in the same order, shape (lags, n, n)."""
    lam = circulant_eigen_symbols(c).as_matrix_symbol()
    u = dft_unitary(c.n)
    lags = sorted(set(phi.support) | set(lam.support))
    blocks = np.array(
        [u.conj().T @ phi.coeff(n) @ u - lam.coeff(n) for n in lags], dtype=complex
    ).reshape(-1, c.n, c.n)
    return lags, blocks


def diagonalize_check(c: CirculantSymbol) -> float:
    """max_n ||U* C_n U - Lambda_n||_F over the lags of the symbol.

    C(z) = sum_n C_n z^n and Lambda(z) = sum_n Lambda_n z^n, so U* C U =
    Lambda holds on the whole circle exactly when it holds at every lag, and
    the residual is pure floating-point noise; 0.0 for the zero symbol.
    """
    _, blocks = conjugation_blocks(c, c.as_matrix_symbol())
    return max((float(np.linalg.norm(b)) for b in blocks), default=0.0)


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
