"""Finite sections of block Toeplitz operators and window-exact certification.

A truncation keeps the N x N leading blocks of the infinite block Toeplitz
matrix (block (i, j) = coefficient at i - j).  Products of truncations are
not truncations of products, but they agree with the infinite-operator
products on a leading window:

    Entries (r, c) of a product of factors with bandwidths w_1, ..., w_p are
    exact whenever min(r, c) < (N - sum w_i) * d.  Any path of matrix indices
    contributing to such an entry moves at most sum w_i away from the smaller
    endpoint, so it never reaches the rows/columns removed by the cutoff, and
    every visited entry equals the corresponding infinite-operator entry.

Each ``ToeplitzTruncation`` carries that accumulated bandwidth as ``margin``:
fresh sections start at the symbol bandwidth, products add margins, sums and
differences take the maximum, adjoints and the scalar entries of a block
section (``entry``) keep it.  The same rules make the margin a block-band
bound of the section itself: block (i, j) is zero whenever |i - j| > margin.
``@`` multiplies only inside its factors' bands, so the cost of a product
grows linearly in N instead of as N^3; storage stays the dense
(N d) x (N d) array.  Reports read entries only from the exact window, so a
nonzero entry there disproves an operator identity.  From order 2W + 1 on, a
clean window of a product of margin W proves it: by T(a) T(b) = T(ab) -
H(a) H(b~) (Boettcher-Silbermann) the infinite product is T(sigma) + K, sigma
of bandwidth <= W and K in the first W x W blocks (each factor of margin w_i
widens the Hankel corner by at most w_i).  A window of W + 1 blocks holds all
of K and every lag n of sigma outside it, at block (W, W - n) for n >= 0 and
(W + n, W) for n < 0, so its largest entry is that of the infinite operator.

The margin is the only order policy: any order >= 1 builds a section, and
``window_max_abs`` raises ``WindowError`` exactly when a product's window is
empty (order <= margin).  ``ToeplitzTruncation.report`` is the one reader
that turns a product's window into a ``CommutatorReport``; callers that
already hold the product read its report there instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .circulant import circulant_eigen_symbols, circulant_from_matrix_symbol, dft_unitary
from .symbols import MatrixSymbol, ScalarSymbol

DEFAULT_ORDER = 64
DEFAULT_TOLERANCE = 1e-8

VERDICT_VIOLATED = "violated"
VERDICT_CLEAN = "no_violation_up_to_window"


class WindowError(ValueError):
    """Truncation order too small for the requested window-exact computation."""


@dataclass(frozen=True)
class ToeplitzTruncation:
    """Dense (N d) x (N d) finite section with window bookkeeping.

    Layout is coefficient-major: scalar row index = block index * d + component.
    ``margin`` is the accumulated bandwidth bound described in the module
    docstring: blocks farther than ``margin`` from the diagonal are zero, and
    entries with both indices below ``window_limit`` match the
    infinite-operator counterpart.
    """

    order: int
    block_dim: int
    margin: int
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.data.setflags(write=False)

    @property
    def window_limit(self) -> int:
        return max(self.order - self.margin, 0) * self.block_dim

    def window_view(self) -> np.ndarray:
        lim = self.window_limit
        return self.data[:lim, :lim]

    def window_max_abs(self) -> float:
        view = self.window_view()
        if view.size == 0:
            raise WindowError(
                f"empty exact window: order {self.order} <= accumulated margin {self.margin}"
            )
        return float(np.max(np.abs(view)))

    def entry(self, a: int, b: int) -> "ToeplitzTruncation":
        """Entry (a, b) of every block, as a scalar section with the block's
        margin, which bounds the entry's own, so its window stays exact."""
        d = self.block_dim
        return ToeplitzTruncation(self.order, 1, self.margin, self.data[a::d, b::d])

    def _combine_dims(self, other: "ToeplitzTruncation") -> None:
        if self.order != other.order or self.block_dim != other.block_dim:
            raise ValueError("truncations must share order and block dimension")

    def adjoint(self) -> "ToeplitzTruncation":
        return ToeplitzTruncation(self.order, self.block_dim, self.margin, self.data.conj().T)

    def __matmul__(self, other: "ToeplitzTruncation") -> "ToeplitzTruncation":
        """Product of sections, multiplied only inside the factors' block bands.

        Block (i, j) of a factor is zero for |i - j| > margin, so block row i
        of the product reads block columns i - a .. i + a of ``self`` and
        writes block columns i - a - b .. i + a + b (a, b the margins).  Rows
        go in tiles of ``max(a + b, 8)`` blocks, at least 8 so that a small
        section stays one BLAS call; a tile that spans the whole section is
        exactly ``self.data @ other.data``.
        """
        if not isinstance(other, ToeplitzTruncation):
            return NotImplemented
        self._combine_dims(other)
        n, d = self.order, self.block_dim
        a, b = self.margin, other.margin
        tile = max(a + b, 8)
        out = np.zeros(self.data.shape, dtype=np.result_type(self.data, other.data))
        for i0 in range(0, n, tile):
            i1 = min(i0 + tile, n)
            rows = slice(i0 * d, i1 * d)
            mid = slice(max(i0 - a, 0) * d, min(i1 + a, n) * d)
            cols = slice(max(i0 - a - b, 0) * d, min(i1 + a + b, n) * d)
            out[rows, cols] = self.data[rows, mid] @ other.data[mid, cols]
        return ToeplitzTruncation(n, d, a + b, out)

    def __add__(self, other: "ToeplitzTruncation") -> "ToeplitzTruncation":
        if not isinstance(other, ToeplitzTruncation):
            return NotImplemented
        self._combine_dims(other)
        return ToeplitzTruncation(
            self.order, self.block_dim, max(self.margin, other.margin), self.data + other.data
        )

    def __sub__(self, other: "ToeplitzTruncation") -> "ToeplitzTruncation":
        if not isinstance(other, ToeplitzTruncation):
            return NotImplemented
        self._combine_dims(other)
        return ToeplitzTruncation(
            self.order, self.block_dim, max(self.margin, other.margin), self.data - other.data
        )

    def report(self, property: str, tolerance: float) -> "CommutatorReport":
        """Read this product's window as the report for ``property``.

        ``violated`` certifies the identity fails (a window entry is a true
        entry of the infinite operator); the clean verdict proves it holds
        from order 2 * margin + 1 on (module docstring), and only bounds the
        window below that.  An empty window raises ``WindowError``.
        """
        norm = self.window_max_abs()
        return CommutatorReport(
            property=property,
            order=self.order,
            window_limit=self.window_limit,
            window_norm=norm,
            verdict=VERDICT_VIOLATED if norm > tolerance else VERDICT_CLEAN,
            tolerance=tolerance,
        )


def truncate(symbol: MatrixSymbol | ScalarSymbol, order: int) -> ToeplitzTruncation:
    """Finite section with block (i, j) = coefficient at i - j.

    The section is defined and exact for every order >= 1.  Whether the
    order leaves a product a window is decided by ``window_max_abs`` from
    the product's margin, not by this builder.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    phi = symbol.as_matrix() if isinstance(symbol, ScalarSymbol) else symbol
    w = phi.bandwidth
    d = phi.dim
    data = np.zeros((order * d, order * d), dtype=complex)
    for n, mat in phi.items():
        # coefficient n sits on block diagonal i - j = n
        for i in range(max(n, 0), min(order, order + n)):
            j = i - n
            data[i * d:(i + 1) * d, j * d:(j + 1) * d] = mat
    return ToeplitzTruncation(order=order, block_dim=d, margin=w, data=data)


@dataclass(frozen=True)
class CommutatorReport:
    """Window-exact commutator evidence for one operator identity."""

    property: str
    order: int
    window_limit: int
    window_norm: float
    verdict: str
    tolerance: float

    def to_json(self) -> dict:
        return {
            "property": self.property,
            "order": self.order,
            "window_limit": self.window_limit,
            "window_norm": self.window_norm,
            "verdict": self.verdict,
            "tolerance": self.tolerance,
        }


PROPERTIES = ("normal", "quasinormal", "binormal", "f-selfadjoint")


def commutator_matrix(
    symbol: MatrixSymbol | ScalarSymbol, property: str, order: int
) -> ToeplitzTruncation:
    """The truncation-level test matrix for one of the commutator identities.

    ``f-selfadjoint`` is F - F* with F = S* (T*T)(TT*) S - (T*T)(TT*) and S
    the shift, the section of the symbol z; for scalar symbols F = F* is
    equivalent to binormality.  The
    product's margin is 2w, 3w, 4w or 4w + 2 (normal, quasinormal, binormal,
    f-selfadjoint) for a symbol of bandwidth w; no order is refused here.
    """
    if property == "f-selfadjoint" and not isinstance(symbol, ScalarSymbol):
        raise TypeError("the f-selfadjoint check takes a scalar symbol")
    t = truncate(symbol, order)
    ts = t.adjoint()
    if property == "normal":
        return ts @ t - t @ ts
    if property == "quasinormal":
        a = ts @ t
        return a @ t - t @ a
    if property == "binormal":
        a = ts @ t
        b = t @ ts
        return a @ b - b @ a
    if property == "f-selfadjoint":
        s = truncate(ScalarSymbol.monomial(1), order)
        ab = (ts @ t) @ (t @ ts)
        f = s.adjoint() @ ab @ s - ab
        return f - f.adjoint()
    raise ValueError(f"unknown property {property!r}; expected one of {PROPERTIES}")


def commutator_report(
    symbol: MatrixSymbol | ScalarSymbol,
    property: str,
    order: int = DEFAULT_ORDER,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CommutatorReport:
    """Build [T*,T], [T*T,T], [T*T,TT*] or F - F* and read its report.

    This is ``commutator_matrix(...).report(...)``.  The order only has to
    exceed the product's own margin (see ``commutator_matrix``); at or below
    it the window is empty and ``WindowError`` is raised.
    """
    return commutator_matrix(symbol, property, order).report(property, tolerance)


def _weighted_norm(blocks: np.ndarray, weights: np.ndarray) -> float:
    """sqrt(sum_n w_n ||blocks[n]||_F^2): the Frobenius norm of the section
    whose lag-n blocks all equal blocks[n] and occur w_n times."""
    return float(np.sqrt(np.sum(weights * np.sum(np.abs(blocks) ** 2, axis=(1, 2)))))


def conjugation_identity_check(phi: MatrixSymbol, order: int) -> float:
    """||V* T_Phi V - T_Lambda||_F for circulant-patterned Phi, V = I_N (x) U.

    V is block-constant, so V* T_Phi V is the section of U* Phi U and the
    residual is sqrt(sum_n w_n ||U* Phi_n U - Lambda_n||_F^2), lag n occurring
    w_n = max(N - |n|, 0) times; no section is built.  The identity holds on
    the whole section, so the residual is pure floating-point noise.
    """
    circ = circulant_from_matrix_symbol(phi)
    if order < 1:
        raise ValueError("order must be >= 1")
    lam = circulant_eigen_symbols(circ).as_matrix_symbol()
    u = dft_unitary(circ.n)
    lags = [n for n in sorted(set(phi.support) | set(lam.support)) if abs(n) < order]
    blocks = np.array(
        [u.conj().T @ phi.coeff(n) @ u - lam.coeff(n) for n in lags], dtype=complex
    ).reshape(-1, circ.n, circ.n)
    weights = np.array([order - abs(n) for n in lags], dtype=float)
    return _weighted_norm(blocks, weights)

