"""Circulant matrix symbols and their coefficientwise diagonalization.

A circulant symbol is an n x n matrix symbol whose coefficient at every lag
is a circulant matrix: entry (i, j) of the symbol is row[(j - i) mod n].  All
circulant matrices share the eigenvector basis given by the discrete Fourier
columns U, so U* Phi_n U = Lambda_n holds lag by lag, with Lambda the
diagonal symbol whose entries are coefficientwise DFTs of the row.  That
identity between coefficients is how the diagonalization is checked.

A ``CirculantSymbol`` is a ``MatrixSymbol`` that keeps its first row: its
blocks are views of one read-only stack, the row's coefficients gathered by
the index ``_rotation(n)``, which ``circulant_from_matrix_symbol`` also reads
the pattern of any other matrix symbol with.

A ``CirculantSymbol`` is immutable, so its eigen-symbols are folded once and
stored on it: every later ``circulant_eigen_symbols`` call, the classifier's
and ``diagonalize_check``'s included, returns the stored ``DiagonalSymbol``.
The fold stays in Python complex arithmetic.  numpy's complex ``*`` and
``abs`` are not bitwise Python's (numpy 2.4.6 on an AVX-512 Xeon: of 200,000
products and moduli of standard complex normals, 87,459 and 69,744
differed).  Split into float ufuncs (re*re - im*im, ``np.hypot``) the fold
is bitwise Python's, but slower: 0.149 s against 0.103 s for the 800
circulants of one perfbench symbol-corpus pass (n in {2, 3, 4, 8, 9}).  So
a matmul F R of the DFT matrix with the rows would be neither faster at
these sizes nor bitwise.
"""

from __future__ import annotations

import math
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


def _rotation(n: int) -> np.ndarray:
    """The (n, n) index (j - i) mod n: entry (i, j) of a circulant is row[(j - i) mod n]."""
    return (np.arange(n) - np.arange(n)[:, None]) % n


class CirculantSymbol(MatrixSymbol):
    """The n x n matrix symbol of a circulant, built from its first row."""

    __slots__ = ("_stack", "_row", "_eigen")

    def __init__(self, row: Sequence[ScalarSymbol]):
        row = tuple(row)
        if not row:
            raise ValueError("circulant row must be nonempty")
        if not all(isinstance(phi, ScalarSymbol) for phi in row):
            raise TypeError("circulant row entries must be ScalarSymbol")
        # ScalarSymbol has validated every entry: each block is finite and nonzero
        n = len(row)
        lags = sorted(set().union(*(phi.support for phi in row)))
        at = {m: k for k, m in enumerate(lags)}
        cols = np.zeros((len(lags), n), dtype=complex)
        for j, phi in enumerate(row):
            for m, c in phi.items():
                cols[at[m], j] = c
        stack = cols[:, _rotation(n)]
        stack.setflags(write=False)
        self._dim = n
        self._coeffs = dict(zip(lags, stack))
        self._stack = stack
        self._row = row
        self._eigen: DiagonalSymbol | None = None  # set by circulant_eigen_symbols

    n = MatrixSymbol.dim

    @property
    def row(self) -> tuple[ScalarSymbol, ...]:
        return self._row

    def as_matrix_symbol(self) -> MatrixSymbol:
        """The same symbol as a plain ``MatrixSymbol``, block for block."""
        return MatrixSymbol(self._dim, self._coeffs)

    def __repr__(self) -> str:
        return f"CirculantSymbol(n={self._dim})"


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
    lambda_k[m] is an n-term sum of products w * row[j][m] with |w| = 1, so
    its rounding error is at most about (n + 2) u S_m, with u = 2^-53 and
    S_m = sum_j |row[j][m]| (Higham, Accuracy and Stability, section 3.5),
    plus the rounding of the weights mu^(j k) themselves.  A coefficient is
    dropped when |lambda_k[m]| <= 4 n 2^-52 S_m = 8 n u S_m, which leaves room
    for both: the residue that equal rows leave where they cancel goes (it
    stays under a fifth of the bound up to n = 64), and a coefficient that
    the rows carry above rounding stays, at any scale.  Each index is judged
    against its own sum, so there is no absolute floor.  An S_m or a
    lambda_k[m] beyond the float range raises ValueError: an infinite S_m
    would prune every finite coefficient at index m.

    The result is stored on ``c`` and returned by every later call; a raise
    stores nothing.
    """
    if c._eigen is not None:
        return c._eigen
    n = c.n
    mu = complex(np.exp(2j * np.pi / n))
    size: dict[int, float] = {}
    for phi in c.row:
        for m, a in phi.items():
            size[m] = size.get(m, 0.0) + abs(a)
    if not max(size.values(), default=0.0) < math.inf:
        raise ValueError("eigen-symbols overflow: a sum of coefficient moduli exceeds the float range")
    rel = 4 * n * 2.0 ** -52
    lambdas = []
    for k in range(n):
        acc: dict[int, complex] = {}
        for j, phi in enumerate(c.row):
            w = mu ** (j * k)
            for m, a in phi.items():
                acc[m] = acc.get(m, 0j) + w * a
        try:  # abs overflows for finite parts, ScalarSymbol refuses infinite ones
            lambdas.append(ScalarSymbol({m: s for m, s in acc.items() if abs(s) > rel * size[m]}))
        except (OverflowError, ValueError):
            raise ValueError(f"eigen-symbol {k} overflows the float range") from None
    c._eigen = DiagonalSymbol(lambdas)
    return c._eigen


def conjugation_blocks(c: CirculantSymbol) -> tuple[list[int], np.ndarray]:
    """The lags n of ``c`` in increasing order, and the blocks
    U* C_n U - Lambda_n stacked in the same order, shape (lags, n, n).

    The eigen-symbols' support lies in the row's, so these are also the lags
    of Lambda.  U* C U is one stacked matmul, each slice bitwise the product
    of its own block, and Lambda is subtracted on the diagonals only, since
    subtracting a zero changes no bit.
    """
    n = c.n
    lambdas = circulant_eigen_symbols(c).lambdas
    lags = list(c.support)
    u = dft_unitary(n)
    blocks = u.conj().T @ c._stack @ u
    diag = np.arange(n)
    blocks[:, diag, diag] -= np.array([[lam.coeff(m) for lam in lambdas] for m in lags],
                                      dtype=complex).reshape(-1, n)
    return lags, blocks


def diagonalize_check(c: CirculantSymbol) -> float:
    """max_n ||U* C_n U - Lambda_n||_F over the lags of the symbol.

    C(z) = sum_n C_n z^n and Lambda(z) = sum_n Lambda_n z^n, so U* C U =
    Lambda holds on the whole circle exactly when it holds at every lag, and
    the residual is pure floating-point noise; 0.0 for the zero symbol.
    The norms are taken of the blocks / 2^e, 2^e the power of two just above
    their largest real or imaginary part, and scaled back: the scaling is
    exact, and the largest sum of squares, the only one returned, neither
    overflows nor underflows to zero, at any scale of the symbol.
    """
    _, blocks = conjugation_blocks(c)
    parts = blocks.view(float)
    e = math.frexp(float(np.abs(parts).max(initial=0.0)))[1]
    scaled = np.ldexp(parts, -e).view(complex)
    return max((math.ldexp(float(np.linalg.norm(b)), e) for b in scaled), default=0.0)


def circulant_from_matrix_symbol(phi: MatrixSymbol) -> CirculantSymbol:
    """The circulant of a matrix symbol with the rotation pattern, ``phi``
    itself if it is one; else ``CirculantPatternError`` at the first entry
    (i, j), in row-major order, that differs from row[(j - i) mod n] at some lag."""
    if isinstance(phi, CirculantSymbol):
        return phi
    n = phi.dim
    stack = np.array([mat for _, mat in phi.items()], dtype=complex).reshape(-1, n, n)
    bad = np.argwhere((stack != stack[:, 0, _rotation(n)]).any(axis=0))
    if len(bad):
        i, j = (int(k) for k in bad[0])
        raise CirculantPatternError(i, j, f"entry ({i}, {j}) differs from first-row entry {(j - i) % n}")
    return CirculantSymbol([phi.entry(0, j) for j in range(n)])
