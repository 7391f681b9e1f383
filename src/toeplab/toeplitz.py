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
So a section is stored as block-row strips: row i keeps only block columns
i - margin .. i + margin, and memory is O(N d^2 margin), not the (N d)^2 of
the dense matrix, which ``data`` builds on demand for the callers that need
one.  Truncation, adjoints, sums and window reductions walk the strips.

In exact arithmetic every section these operations build is T_N(sigma)
plus two corners, its first and its last ``margin`` x ``margin`` blocks: a
fresh section has none, adjoints, sums and entries keep them in place, and
by Widom's formula T_N(a) T_N(b) = T_N(ab) - P_N H(a) H(b~) P_N -
W_N H(a~) H(b) W_N a product of margins a and b has corners of at most
a + b blocks.  So block rows [margin, N - margin) meet no corner and are one
row shifted along the diagonal.  Block row i of a product of margin
M = a + b reads row i of the left factor and rows i - a .. i + a of the
right one, for M <= i < N - M all in those Toeplitz rows.  So ``@``
computes block rows [0, M] and the last M rows, each group as one dense
product inside the factors' bands, and copies row M into the rows between:
its multiplication work is set by M and d, not by N.  The copies carry row
M's rounding, which computing each row would reproduce only up to rounding.

Reports read entries only from the exact window, so a nonzero entry there
disproves an operator identity.  From order 2W + 1 on (``exact_order``), a
clean window of a product of margin W proves it: by T(a) T(b) = T(ab) -
H(a) H(b~) (Boettcher-Silbermann) the infinite product is T(sigma) + K, sigma
of bandwidth <= W and K in the first W x W blocks (each factor of margin w_i
widens the Hankel corner by at most w_i).  A window of W + 1 blocks holds all
of K and every lag n of sigma outside it, at block (W, W - n) for n >= 0 and
(W + n, W) for n < 0, so its largest entry is that of the infinite operator.

That is the one order policy: ``commutator_matrix`` and ``commutator_report``
build their product at ``exact_order`` of its margin unless given an order,
and the 2x2 block checks in ``toeplab.classify`` read theirs at that order.
Any explicit order >= 1 builds a section; ``window_max_abs`` raises
``WindowError`` exactly when a product's window is empty (order <= margin),
and ``ValueError`` when it holds a non-finite entry (the product overflowed).
``ToeplitzTruncation.report`` is the one reader that turns a product's window
into a ``CommutatorReport``; callers that already hold the product read its
report there instead of rebuilding it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .circulant import circulant_from_matrix_symbol, conjugation_blocks
from .symbols import MatrixSymbol, ScalarSymbol

DEFAULT_TOLERANCE = 1e-8

VERDICT_VIOLATED = "violated"
VERDICT_CLEAN = "no_violation_up_to_window"


class WindowError(ValueError):
    """Truncation order too small for the requested window-exact computation."""


def _band(order: int, margin: int) -> int:
    """Block diagonals a section stores: those of its margin that meet the section."""
    return min(margin, order - 1)


def _skew(dense: np.ndarray, d: int, w: int) -> np.ndarray:
    """View of the C-contiguous dense block rows ``dense`` (R d, W) whose
    block row r starts at column block r: the strips (R, d, w) inside them,
    for W >= (R - 1) d + w."""
    rows, width = dense.shape
    item = dense.itemsize
    strides = ((d * width + d) * item, width * item, item)
    return np.ndarray((rows // d, d, w), dense.dtype, dense, 0, strides)


def _dense_rows(strips: np.ndarray) -> np.ndarray:
    """Strips (R, d, w) as dense block rows (R d, (R - 1) d + w), zero
    outside the strips."""
    rows, d, w = strips.shape
    dense = np.zeros((rows * d, (rows - 1) * d + w), dtype=strips.dtype)
    _skew(dense, d, w)[...] = strips
    return dense


@dataclass(frozen=True)
class ToeplitzTruncation:
    """(N d) x (N d) finite section, stored as block-row strips, with window
    bookkeeping.

    Layout is coefficient-major: scalar row index = block index * d + component.
    ``margin`` is the accumulated bandwidth bound described in the module
    docstring: blocks farther than ``margin`` from the diagonal are zero, and
    entries with both indices below ``window_limit`` match the
    infinite-operator counterpart.  ``strips`` has shape (N, d, (2 b + 1) d),
    b = min(margin, N - 1) the stored band: row i holds block columns i - b ..
    i + b, and the parts outside the section stay zero.  ``data`` is the
    dense matrix, built on demand for callers that need one.

    ``@`` assumes each factor is Toeplitz in its block rows
    [margin, N - margin), each row there the row ``margin`` shifted along
    the diagonal; that holds for every section this module builds.
    """

    order: int
    block_dim: int
    margin: int
    strips: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.strips.setflags(write=False)

    @property
    def band(self) -> int:
        return _band(self.order, self.margin)

    @property
    def data(self) -> np.ndarray:
        """The dense (N d) x (N d) section, a new array on every call."""
        n, b, d = self.order, self.band, self.block_dim
        return _dense_rows(self.strips)[:, b * d:(b + n) * d].copy()

    @property
    def window_limit(self) -> int:
        return max(self.order - self.margin, 0) * self.block_dim

    def window_max_abs(self) -> float:
        """Largest |entry| of the window, read from the band inside it; an
        empty window raises ``WindowError``, a non-finite entry ``ValueError``."""
        lim, b, d = self.order - self.margin, self.band, self.block_dim
        if lim <= 0:
            raise WindowError(
                f"empty exact window: order {self.order} <= accumulated margin {self.margin}"
            )
        # rows below lim - b hold their whole strip inside the window; row i
        # keeps the strip entries q < (lim - i + b) d, its block columns below lim
        full = max(lim - b, 0)
        head = np.abs(self.strips[:full]).max(initial=0.0)
        tail = np.abs(self.strips[full:lim]).max(axis=1)
        keep = np.arange(self.strips.shape[2]) < ((lim + b - np.arange(full, lim)) * d)[:, None]
        tail = tail[keep].max(initial=0.0)
        if not (np.isfinite(head) and np.isfinite(tail)):
            raise ValueError("the window holds a non-finite entry: the product overflowed")
        return float(max(head, tail))

    def entry(self, a: int, b: int) -> "ToeplitzTruncation":
        """Entry (a, b) of every block, as a scalar section with the block's
        margin, which bounds the entry's own, so its window stays exact."""
        d = self.block_dim
        strips = np.ascontiguousarray(self.strips[:, a:a + 1, b::d])
        return ToeplitzTruncation(self.order, 1, self.margin, strips)

    def _combine_dims(self, other: "ToeplitzTruncation") -> None:
        if self.order != other.order or self.block_dim != other.block_dim:
            raise ValueError("truncations must share order and block dimension")

    def adjoint(self) -> "ToeplitzTruncation":
        n, d, b = self.order, self.block_dim, self.band
        # block (i, i - b + k) of the adjoint is block (i - b + k, i) conjugated
        # and transposed: strip position 2 b - k of row i - b + k, read from
        # strips padded with b zero rows on each side
        padded = np.zeros((n + 2 * b, d, 2 * b + 1, d), dtype=complex)
        padded[b:b + n] = self.strips.reshape(n, d, 2 * b + 1, d)
        row, comp, pos, item = padded.strides
        mirrored = np.ndarray((n, 2 * b + 1, d, d), complex, padded, 2 * b * pos,
                              (row, row - pos, comp, item))
        strips = np.ascontiguousarray(mirrored.conj().transpose(0, 3, 1, 2)).reshape(n, d, -1)
        return ToeplitzTruncation(n, d, self.margin, strips)

    def __matmul__(self, other: "ToeplitzTruncation") -> "ToeplitzTruncation":
        """Product of sections: block rows [0, M] and the last M rows, M the
        sum a + b of the factors' margins, each as one dense product of the
        factors' blocks inside their bands, and copies of row M between them
        (module docstring).

        Block row i of the product reads block columns i - a .. i + a of
        ``self`` and writes block columns i - M .. i + M.  A section of at
        most M + 1 blocks is one product, exactly ``self.data @ other.data``.
        """
        if not isinstance(other, ToeplitzTruncation):
            return NotImplemented
        self._combine_dims(other)
        n, d = self.order, self.block_dim
        a, b = self.margin, other.margin
        m = a + b
        band, ba, bb = _band(n, m), self.band, other.band
        width = (2 * band + 1) * d
        out = np.empty((n, d, width), dtype=complex)
        head = min(m + 1, n)
        tail = max(n - m, head)
        for g0, g1 in ((0, head), (tail, n)):
            if g0 >= g1:
                continue
            m0, m1 = max(g0 - a, 0), min(g1 + a, n)
            c0, c1 = max(g0 - m, 0), min(g1 + m, n)
            # dense rows of strips r0 .. r1 start at block column r0 - (stored band)
            lhs = _dense_rows(self.strips[g0:g1])[:, (m0 - g0 + ba) * d:(m1 - g0 + ba) * d]
            rhs = _dense_rows(other.strips[m0:m1])[:, (c0 - m0 + bb) * d:(c1 - m0 + bb) * d]
            prod = np.zeros(((g1 - g0) * d, (g1 - g0 - 1) * d + width), dtype=complex)
            prod[:, (c0 - g0 + band) * d:(c1 - g0 + band) * d] = lhs @ rhs
            out[g0:g1] = _skew(prod, d, width)
        if tail > head:
            out[head:tail] = out[m]
        return ToeplitzTruncation(n, d, m, out)

    def _widened(self, band: int) -> np.ndarray:
        """The strips with the stored band widened to ``band`` by zeros."""
        pad = (band - self.band) * self.block_dim
        return self.strips if pad == 0 else np.pad(self.strips, ((0, 0), (0, 0), (pad, pad)))

    def _combine(self, other: "ToeplitzTruncation", op) -> "ToeplitzTruncation":
        self._combine_dims(other)
        margin = max(self.margin, other.margin)
        band = _band(self.order, margin)
        strips = op(self._widened(band), other._widened(band))
        return ToeplitzTruncation(self.order, self.block_dim, margin, strips)

    def __add__(self, other: "ToeplitzTruncation") -> "ToeplitzTruncation":
        if not isinstance(other, ToeplitzTruncation):
            return NotImplemented
        return self._combine(other, np.add)

    def __sub__(self, other: "ToeplitzTruncation") -> "ToeplitzTruncation":
        if not isinstance(other, ToeplitzTruncation):
            return NotImplemented
        return self._combine(other, np.subtract)

    def report(self, property: str, tolerance: float) -> "CommutatorReport":
        """Read this product's window as the report for ``property``.

        ``violated`` certifies the identity fails (a window entry is a true
        entry of the infinite operator); the clean verdict proves it holds
        from ``exact_order(margin)`` on, and only bounds the window below
        that.  ``window_max_abs`` raises for an empty or non-finite window.
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

    A ``ScalarSymbol`` is a symbol of block size 1: each complex coefficient
    fills its 1 x 1 block.  The section is defined and exact for every
    order >= 1.  Whether the order leaves a product a window is decided by
    ``window_max_abs`` from the product's margin, not by this builder.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    w = symbol.bandwidth
    d = symbol.dim
    band = _band(order, w)
    strips = np.zeros((order, d, 2 * band + 1, d), dtype=complex)
    for n, mat in symbol.items():
        # coefficient n sits on block diagonal i - j = n, strip position band - n
        if abs(n) <= band:
            strips[max(n, 0):min(order, order + n), :, band - n, :] = mat
    return ToeplitzTruncation(order=order, block_dim=d, margin=w, strips=strips.reshape(order, d, -1))


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
        return asdict(self)


# The margin of each commutator product, as (a, b): a w + b for a symbol of
# bandwidth w (``commutator_matrix``).
_PRODUCT_MARGINS = {"normal": (2, 0), "quasinormal": (3, 0), "binormal": (4, 0), "f-selfadjoint": (4, 2)}
PROPERTIES = tuple(_PRODUCT_MARGINS)


def exact_order(margin: int) -> int:
    """2 W + 1: from this order on, the window of a product of margin W holds
    every entry of its infinite operator (module docstring)."""
    return 2 * margin + 1


# The largest strip array a commutator chain may build, in bytes.  The
# chain's peak memory is several times this: the products' dense temporaries
# come on top of the strips.
CHAIN_BUDGET_BYTES = 1 << 28


def _refuse_oversized_chain(order: int, d: int, margin: int) -> None:
    """Raise ``ValueError`` before anything is allocated when the chain's
    largest strip array, the product's (order, d, (2 band + 1) d) complex
    strips, would exceed ``CHAIN_BUDGET_BYTES``."""
    size = 16 * order * d * d * (2 * _band(order, margin) + 1)
    if size > CHAIN_BUDGET_BYTES:
        raise ValueError(
            f"the check needs a {size / 2**20:.0f} MiB section (order {order}, block dim {d}, "
            f"margin {margin}), above the {CHAIN_BUDGET_BYTES >> 20} MiB budget; "
            f"'toeplab classify' decides normality and binormality from the coefficients"
        )


def commutator_matrix(
    symbol: MatrixSymbol | ScalarSymbol, property: str, order: int | None = None
) -> ToeplitzTruncation:
    """The truncation-level test matrix for one of the commutator identities.

    ``f-selfadjoint`` is F - F* with F = S* (T*T)(TT*) S - (T*T)(TT*) and S
    the shift, the section of the symbol z; for scalar symbols F = F* is
    equivalent to binormality.  It takes a symbol of block size 1 (``dim``
    1); a larger block raises ``ValueError``.  The product's margin is 2w,
    3w, 4w or 4w + 2 (normal, quasinormal, binormal, f-selfadjoint) for a
    symbol of bandwidth w, and the default order is ``exact_order`` of it,
    where the product's window decides the identity for T(Phi) itself.  An
    explicit order builds the same products at that order.  A chain whose
    largest strip array would exceed ``CHAIN_BUDGET_BYTES`` is refused with
    ``ValueError`` before the section is built.
    """
    if property not in _PRODUCT_MARGINS:
        raise ValueError(f"unknown property {property!r}; expected one of {PROPERTIES}")
    if property == "f-selfadjoint" and symbol.dim != 1:
        raise ValueError("the f-selfadjoint check applies to scalar symbols only")
    a, b = _PRODUCT_MARGINS[property]
    margin = a * symbol.bandwidth + b
    if order is None:
        order = exact_order(margin)
    _refuse_oversized_chain(order, symbol.dim, margin)
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
    s = truncate(ScalarSymbol.monomial(1), order)
    ab = (ts @ t) @ (t @ ts)
    f = s.adjoint() @ ab @ s - ab
    return f - f.adjoint()


def commutator_report(
    symbol: MatrixSymbol | ScalarSymbol,
    property: str,
    order: int | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CommutatorReport:
    """Build [T*,T], [T*T,T], [T*T,TT*] or F - F* and read its report.

    This is ``commutator_matrix(...).report(...)``.  By default the order is
    the product's exact order 2W + 1, and the verdict is a proof either way.
    An explicit order only has to exceed the product's margin; at or below
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
    w_n = max(N - |n|, 0) times; no section is built.  The blocks are those of
    ``circulant.conjugation_blocks``, whose largest is ``diagonalize_check``.
    The identity holds on the whole section, so the residual is pure
    floating-point noise.
    """
    circ = circulant_from_matrix_symbol(phi)
    if order < 1:
        raise ValueError("order must be >= 1")
    lags, blocks = conjugation_blocks(circ, phi)
    weights = np.array([order - abs(n) for n in lags], dtype=float)
    inside = weights > 0
    return _weighted_norm(blocks[inside], weights[inside])

