"""Point evaluation of symbols on the unit circle, for tests only.

The package decides every identity from coefficients; these helpers give the
tests an independent, pointwise view of the same symbols.
"""

import numpy as np

from toeplab.symbols import MatrixSymbol, ScalarSymbol


def unit_samples(count):
    """Equispaced points e^(2 pi i t / count) of the unit circle."""
    return [complex(np.exp(2j * np.pi * t / count)) for t in range(count)]


def evaluate(symbol, z):
    """sum_n c_n z^n: a complex number for a ScalarSymbol, a d x d array for
    a MatrixSymbol and for anything with ``as_matrix_symbol`` (circulant and
    diagonal symbols)."""
    if isinstance(symbol, ScalarSymbol):
        return sum((c * z**n for n, c in symbol.items()), 0j)
    if not isinstance(symbol, MatrixSymbol):
        symbol = symbol.as_matrix_symbol()
    out = np.zeros((symbol.dim, symbol.dim), dtype=complex)
    for n, mat in symbol.items():
        out += mat * z**n
    return out
