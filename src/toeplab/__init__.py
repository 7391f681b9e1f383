"""toeplab: finite-section verification of block Toeplitz operator properties.

The package turns operator identities (normality, quasinormality,
binormality, diagonalization of circulant symbols, reducing subspaces) into
finite, window-exact computations on banded finite sections, paired with exact
coefficient-level classifiers for polynomial symbols.
"""

__version__ = "0.1.0"

from .circulant import (
    CirculantPatternError,
    CirculantSymbol,
    DiagonalSymbol,
    circulant_eigen_symbols,
    circulant_from_matrix_symbol,
    dft_unitary,
    diagonalize_check,
)
from .classify import (
    ClassificationCertificate,
    ConditionSystemReport,
    block2_condition_system,
    brown_halmos_normal_test,
    circulant_binormal_classify,
    commuting_normal_family,
    inner_multiple_test,
    scalar_binormal_classify,
    special_case_checks,
)
from .dilation import EquivalenceReport, GammaImage, gamma, gamma_adjoint, psi_lambda_blocks, theorem41_probe
from .reducing import (
    OrthogonalProjector,
    ReducingReport,
    projection_intertwine_check,
    reducing_projectors,
    verify_reducing,
)
from .symbols import MatrixSymbol, ScalarSymbol
from .toeplitz import (
    CommutatorReport,
    ToeplitzTruncation,
    WindowError,
    commutator_report,
    conjugation_identity_check,
    truncate,
)

__all__ = [
    "__version__",
    "CirculantPatternError",
    "CirculantSymbol",
    "ClassificationCertificate",
    "CommutatorReport",
    "ConditionSystemReport",
    "DiagonalSymbol",
    "EquivalenceReport",
    "GammaImage",
    "MatrixSymbol",
    "OrthogonalProjector",
    "ReducingReport",
    "ScalarSymbol",
    "ToeplitzTruncation",
    "WindowError",
    "block2_condition_system",
    "brown_halmos_normal_test",
    "circulant_binormal_classify",
    "circulant_eigen_symbols",
    "circulant_from_matrix_symbol",
    "commutator_report",
    "commuting_normal_family",
    "conjugation_identity_check",
    "dft_unitary",
    "diagonalize_check",
    "gamma",
    "gamma_adjoint",
    "inner_multiple_test",
    "projection_intertwine_check",
    "psi_lambda_blocks",
    "reducing_projectors",
    "scalar_binormal_classify",
    "special_case_checks",
    "theorem41_probe",
    "truncate",
    "verify_reducing",
]
