"""Laurent polynomial symbols with scalar and matrix coefficients.

A symbol is a finitely supported Laurent polynomial on the unit circle.
``ScalarSymbol`` holds complex coefficients, ``MatrixSymbol`` holds square
complex matrix coefficients, and both constructors reject a NaN or infinite
coefficient, or one whose modulus exceeds the float range, with
``ValueError``.  A coefficient is kept exactly when it is nonzero, however
small, and the indices are stored in increasing order, so products sum their
terms in index order whatever order a symbol was built in.  Pruning rounding
residue is left to the routine that knows the rounding bound of its own
sums.  Symbols are immutable value objects; all arithmetic returns new
instances, so they are safe to share across threads.
Every identity the package checks is an identity between coefficients, so a
symbol is never evaluated at points of the circle.
"""

from __future__ import annotations

from math import inf
from typing import Iterator, Mapping, Sequence

import numpy as np


def modulus(c: complex) -> float:
    """|c|, or inf where |c| exceeds the float range, which ``abs`` refuses
    with ``OverflowError`` even when both parts of c are finite."""
    try:
        return abs(c)
    except OverflowError:
        return inf


class ScalarSymbol:
    """A complex Laurent polynomial, stored as a sparse index->coefficient map."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, complex] | None = None):
        kept: dict[int, complex] = {}
        if coeffs:
            for n, c in coeffs.items():
                c = complex(c)
                if not modulus(c) < inf:
                    raise ValueError(f"coefficient at index {n} is not finite or its modulus "
                                     f"exceeds the float range: {c!r}")
                if c:
                    kept[int(n)] = c
        self._coeffs = dict(sorted(kept.items()))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls) -> "ScalarSymbol":
        return cls()

    @classmethod
    def constant(cls, c: complex) -> "ScalarSymbol":
        return cls({0: c})

    @classmethod
    def monomial(cls, n: int, c: complex = 1.0) -> "ScalarSymbol":
        """The single term c * z**n (n may be negative)."""
        return cls({n: c})

    # -- structure queries ----------------------------------------------

    def coeff(self, n: int) -> complex:
        return self._coeffs.get(n, 0j)

    def items(self) -> Iterator[tuple[int, complex]]:
        return iter(self._coeffs.items())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    @property
    def bandwidth(self) -> int:
        """max(|lowest index|, highest index); 0 for constants and zero."""
        if not self._coeffs:
            return 0
        return max(max(self._coeffs), -min(self._coeffs), 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_analytic(self) -> bool:
        return all(n >= 0 for n in self._coeffs)

    def is_coanalytic(self) -> bool:
        return all(n <= 0 for n in self._coeffs)

    def max_modulus_coeff(self) -> float:
        return max((abs(c) for c in self._coeffs.values()), default=0.0)

    # -- algebra ---------------------------------------------------------

    def conj_reflect(self) -> "ScalarSymbol":
        """Symbol of the adjoint operator: coefficient at n becomes conj(c_{-n})."""
        return ScalarSymbol({-n: c.conjugate() for n, c in self._coeffs.items()})

    def __add__(self, other: "ScalarSymbol") -> "ScalarSymbol":
        if not isinstance(other, ScalarSymbol):
            return NotImplemented
        out = dict(self._coeffs)
        for n, c in other._coeffs.items():
            out[n] = out.get(n, 0j) + c
        return ScalarSymbol(out)

    def __sub__(self, other: "ScalarSymbol") -> "ScalarSymbol":
        return self + (-other)

    def __neg__(self) -> "ScalarSymbol":
        return ScalarSymbol({n: -c for n, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, ScalarSymbol):
            out: dict[int, complex] = {}
            for n, a in self._coeffs.items():
                for m, b in other._coeffs.items():
                    out[n + m] = out.get(n + m, 0j) + a * b
            return ScalarSymbol(out)
        if isinstance(other, (int, float, complex)):
            return ScalarSymbol({n: other * c for n, c in self._coeffs.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return ScalarSymbol({n: other * c for n, c in self._coeffs.items()})
        return NotImplemented

    # -- comparison -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScalarSymbol):
            return NotImplemented
        return self._coeffs == other._coeffs

    def max_coeff_diff(self, other: "ScalarSymbol") -> float:
        """Largest modulus of a coefficient of self - other; inf where that
        modulus exceeds the float range."""
        idx = set(self._coeffs) | set(other._coeffs)
        return max((modulus(self.coeff(n) - other.coeff(n)) for n in idx), default=0.0)

    def __repr__(self) -> str:
        if not self._coeffs:
            return "ScalarSymbol(0)"
        terms = ", ".join(f"{n}: {c}" for n, c in self.items())
        return f"ScalarSymbol({{{terms}}})"

    def as_matrix(self) -> "MatrixSymbol":
        return MatrixSymbol(1, {n: np.array([[c]], dtype=complex) for n, c in self._coeffs.items()})


class MatrixSymbol:
    """A d x d matrix-valued Laurent polynomial, one dense matrix per index."""

    __slots__ = ("_dim", "_coeffs")

    def __init__(self, dim: int, coeffs: Mapping[int, np.ndarray] | None = None):
        dim = int(dim)
        if dim < 1:
            raise ValueError(f"matrix symbol dimension must be >= 1, got {dim}")
        self._dim = dim
        kept: dict[int, np.ndarray] = {}
        if coeffs:
            for n, mat in coeffs.items():
                arr = np.array(mat, dtype=complex)
                if arr.shape != (dim, dim):
                    raise ValueError(
                        f"coefficient at index {n} has shape {arr.shape}, expected {(dim, dim)}"
                    )
                if not np.abs(arr).max() < inf:
                    raise ValueError(f"coefficient at index {n} has a non-finite entry or "
                                     "one whose modulus exceeds the float range")
                if arr.any():
                    arr.setflags(write=False)
                    kept[int(n)] = arr
        self._coeffs = dict(sorted(kept.items()))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "MatrixSymbol":
        return cls(dim)

    @classmethod
    def identity(cls, dim: int) -> "MatrixSymbol":
        return cls(dim, {0: np.eye(dim, dtype=complex)})

    @classmethod
    def from_entries(cls, grid: Sequence[Sequence[ScalarSymbol]]) -> "MatrixSymbol":
        """Build from a d x d grid of scalar symbols."""
        d = len(grid)
        if any(len(row) != d for row in grid):
            raise ValueError("entry grid must be square")
        coeffs: dict[int, np.ndarray] = {}
        for i, row in enumerate(grid):
            for j, phi in enumerate(row):
                for n, c in phi.items():
                    coeffs.setdefault(n, np.zeros((d, d), dtype=complex))[i, j] = c
        return cls(d, coeffs)

    # -- structure queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self._dim

    def coeff(self, n: int) -> np.ndarray:
        mat = self._coeffs.get(n)
        if mat is None:
            return np.zeros((self._dim, self._dim), dtype=complex)
        return mat

    def items(self) -> Iterator[tuple[int, np.ndarray]]:
        return iter(self._coeffs.items())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self._coeffs)

    @property
    def bandwidth(self) -> int:
        if not self._coeffs:
            return 0
        return max(max(self._coeffs), -min(self._coeffs), 0)

    def is_zero(self) -> bool:
        return not self._coeffs

    def is_analytic(self) -> bool:
        return all(n >= 0 for n in self._coeffs)

    def is_coanalytic(self) -> bool:
        return all(n <= 0 for n in self._coeffs)

    def entry(self, i: int, j: int) -> ScalarSymbol:
        """Extract entry (i, j) across all indices as a ScalarSymbol."""
        return ScalarSymbol({n: mat[i, j] for n, mat in self._coeffs.items()})

    # -- algebra ----------------------------------------------------------

    def adjoint(self) -> "MatrixSymbol":
        """Pointwise adjoint on the circle: coefficient at n is (coeff at -n)*."""
        return MatrixSymbol(self._dim, {-n: mat.conj().T for n, mat in self._coeffs.items()})

    def _require_same_dim(self, other: "MatrixSymbol") -> None:
        if self._dim != other._dim:
            raise ValueError(f"dimension mismatch: {self._dim} vs {other._dim}")

    def __add__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        if not isinstance(other, MatrixSymbol):
            return NotImplemented
        self._require_same_dim(other)
        # componentwise IEEE addition, bitwise the same as ScalarSymbol's
        return MatrixSymbol(
            self._dim,
            {n: self.coeff(n) + other.coeff(n) for n in set(self._coeffs) | set(other._coeffs)},
        )

    def __sub__(self, other: "MatrixSymbol") -> "MatrixSymbol":
        return self + (-other)

    def __neg__(self) -> "MatrixSymbol":
        return MatrixSymbol(self._dim, {n: -m for n, m in self._coeffs.items()})

    # Scaling goes entry by entry through Python complex multiplication so
    # that extracting an entry commutes bitwise with ScalarSymbol's scaling
    # (numpy's vectorized complex multiply may fuse differently).  Dimensions
    # are small, so this costs nothing.
    def _scaled(self, factor: complex) -> "MatrixSymbol":
        d = self._dim
        out: dict[int, np.ndarray] = {}
        for n, src in self._coeffs.items():
            mat = np.empty((d, d), dtype=complex)
            for i in range(d):
                for j in range(d):
                    mat[i, j] = factor * complex(src[i, j])
            out[n] = mat
        return MatrixSymbol(d, out)

    def __mul__(self, other):
        if isinstance(other, MatrixSymbol):
            self._require_same_dim(other)
            out: dict[int, np.ndarray] = {}
            for n, a in self._coeffs.items():
                for m, b in other._coeffs.items():
                    k = n + m
                    prod = a @ b
                    if k in out:
                        out[k] = out[k] + prod
                    else:
                        out[k] = prod
            return MatrixSymbol(self._dim, out)
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float, complex)):
            return self._scaled(other)
        return NotImplemented

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MatrixSymbol):
            return NotImplemented
        if self._dim != other._dim or set(self._coeffs) != set(other._coeffs):
            return False
        return all(np.array_equal(self._coeffs[n], other._coeffs[n]) for n in self._coeffs)

    def max_coeff_diff(self, other: "MatrixSymbol") -> float:
        self._require_same_dim(other)
        idx = set(self._coeffs) | set(other._coeffs)
        return max(
            (float(np.max(np.abs(self.coeff(n) - other.coeff(n)))) for n in idx),
            default=0.0,
        )

    def __repr__(self) -> str:
        return f"MatrixSymbol(dim={self._dim}, support={list(self.support)})"
