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

from .symbols import COEFF_PRUNE_TOL, MatrixSymbol, ScalarSymbol


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
        """The n x n matrix symbol, entry (i, j) = row[(j - i) mod n].

        Bitwise ``MatrixSymbol.from_entries`` of that grid, key order
        included: lags in order of first appearance over row[0 .. n-1], each
        entry's lags sorted, because ``MatrixSymbol.__mul__`` accumulates in
        that order.  Each lag's block is one gather of its column of the row.
        """
        n = self._n
        cols: dict[int, np.ndarray] = {}
        for j, phi in enumerate(self._row):
            for m, c in phi.items():
                cols.setdefault(m, np.zeros(n, dtype=complex))[j] = c
        rotation = (np.arange(n) - np.arange(n)[:, None]) % n
        return MatrixSymbol(n, {m: col[rotation] for m, col in cols.items()})

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
    Each lambda_k is folded in one dict with the operations of the symbol
    route ``lam = lam + (mu ** (j * k)) * phi``, in its order: a term below
    ``COEFF_PRUNE_TOL`` is skipped, a partial sum below it is removed.  So
    the result is bitwise that route's, key order included, which matters
    because ``ScalarSymbol.__mul__`` sums in insertion order.
    """
    n = c.n
    mu = complex(np.exp(2j * np.pi / n))
    lambdas = []
    for k in range(n):
        acc: dict[int, complex] = {}
        for j, phi in enumerate(c.row):
            w = mu ** (j * k)
            for m, a in phi._coeffs.items():
                t = w * a
                if abs(t) < COEFF_PRUNE_TOL:
                    continue
                s = acc.get(m, 0j) + t
                if abs(s) < COEFF_PRUNE_TOL:
                    acc.pop(m)
                else:
                    acc[m] = s
        lambdas.append(ScalarSymbol(acc))
    return DiagonalSymbol(lambdas)


def conjugation_blocks(c: CirculantSymbol, phi: MatrixSymbol) -> tuple[list[int], np.ndarray]:
    """The lags n of ``phi``, the matrix symbol of ``c``, and of its eigen
    symbols, in increasing order, with the blocks U* Phi_n U - Lambda_n
    stacked in the same order, shape (lags, n, n).

    Lambda is built as ``DiagonalSymbol.as_matrix_symbol`` builds it, from
    diagonal arrays through the ``MatrixSymbol`` constructor, but without
    that method's grid of zero symbols.  The constructor's pruning stays: it
    reads numpy's modulus, which can put an entry just above
    ``COEFF_PRUNE_TOL`` below it, where ``ScalarSymbol``'s modulus does not,
    and then zeroes the entry or drops the lag.  So lags and blocks are
    bitwise those of ``DiagonalSymbol.as_matrix_symbol``.  U* is formed once.
    """
    n = c.n
    diag: dict[int, np.ndarray] = {}
    for k, lam in enumerate(circulant_eigen_symbols(c).lambdas):
        for m, x in lam.items():
            diag.setdefault(m, np.zeros((n, n), dtype=complex))[k, k] = x
    lam = MatrixSymbol(n, diag)
    u = dft_unitary(n)
    uh = u.conj().T
    lags = sorted(set(phi.support) | set(lam.support))
    blocks = np.array(
        [uh @ phi.coeff(m) @ u - lam.coeff(m) for m in lags], dtype=complex
    ).reshape(-1, n, n)
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
