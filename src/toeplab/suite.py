"""Seeded acceptance corpus: every shipped claim, checked at desk scale.

Each criterion function is a deterministic claim: for a given seed it
returns the same ``CriterionResult``, with JSON-renderable details, on any
host.  No verdict reads the time; ``run_suite`` times each criterion call and
records it as the result's ``elapsed``.  The criteria are consumed both by
the test suite (one test per criterion) and by the CLI ``suite`` command.
Commutator checks (criteria 3-5) run at each product's exact order 2W + 1
(``toeplitz.exact_order``), so their verdicts are about T(Phi) itself; the
sections of criteria 2, 8 and 9 keep their stated orders.  Criterion 9
always compares its gap data with the committed
``reference/theorem41_gaps.json`` (``REFERENCE_PATH``), and fails without it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .circulant import CirculantSymbol, circulant_eigen_symbols, diagonalize_check
from .classify import (
    block2_condition_system,
    brown_halmos_normal_test,
    commuting_normal_family,
    scalar_binormal_classify,
    special_case_checks,
)
from .dilation import gamma, gamma_adjoint, theorem41_probe
from .reducing import reducing_projectors, resolution_residual, verify_reducing
from .serialize import render_json
from .symbols import MatrixSymbol, ScalarSymbol
from .toeplitz import (
    VERDICT_CLEAN,
    VERDICT_VIOLATED,
    commutator_matrix,
    commutator_report,
    conjugation_identity_check,
)

ACCEPTANCE_SEED = 74025

# criterion 9's committed gap data, at the root of the checkout that holds src/toeplab
REFERENCE_PATH = Path(__file__).resolve().parents[2] / "reference" / "theorem41_gaps.json"

NUMERIC_TOL = 1e-8
RESIDUAL_TOL = 1e-10


@dataclass
class CriterionResult:
    cid: int
    label: str
    passed: bool
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.cid}: {status} - {self.label} ({self.elapsed:.2f}s)"

    def to_json(self) -> dict:
        return {
            "id": self.cid,
            "label": self.label,
            "passed": self.passed,
            "elapsed_seconds": self.elapsed,
            "details": self.details,
        }


def _rng(seed: int, criterion: int) -> np.random.Generator:
    return np.random.default_rng([seed, criterion])


# ---------------------------------------------------------------------------
# corpus generators


def random_coeff(rng: np.random.Generator) -> complex:
    """Modulus in [0.25, 1] with uniform phase, keeping margins healthy."""
    r = 0.25 + 0.75 * rng.random()
    theta = 2 * np.pi * rng.random()
    return complex(r * np.cos(theta), r * np.sin(theta))


def random_scalar_symbol(rng: np.random.Generator, max_bandwidth: int = 3) -> ScalarSymbol:
    w = int(rng.integers(1, max_bandwidth + 1))
    count = int(rng.integers(2, 2 * w + 2))
    idx = rng.choice(np.arange(-w, w + 1), size=min(count, 2 * w + 1), replace=False)
    return ScalarSymbol({int(n): random_coeff(rng) for n in idx})


def random_analytic_symbol(rng: np.random.Generator, max_bandwidth: int = 3) -> ScalarSymbol:
    w = int(rng.integers(1, max_bandwidth + 1))
    count = int(rng.integers(2, w + 2))
    idx = rng.choice(np.arange(0, w + 1), size=min(count, w + 1), replace=False)
    return ScalarSymbol({int(n): random_coeff(rng) for n in idx})


def random_real_symbol(rng: np.random.Generator, max_bandwidth: int = 3) -> ScalarSymbol:
    """Real-valued on the circle: c_{-n} = conj(c_n), real constant term."""
    w = int(rng.integers(1, max_bandwidth + 1))
    coeffs: dict[int, complex] = {0: complex(2 * rng.random() - 1)}
    for n in range(1, w + 1):
        if rng.random() < 0.7:
            c = random_coeff(rng)
            coeffs[n] = c
            coeffs[-n] = c.conjugate()
    if len(coeffs) == 1:
        c = random_coeff(rng)
        coeffs[w] = c
        coeffs[-w] = c.conjugate()
    return ScalarSymbol(coeffs)


def random_circulant(rng: np.random.Generator, n: int, max_bandwidth: int = 3) -> CirculantSymbol:
    return CirculantSymbol([random_scalar_symbol(rng, max_bandwidth) for _ in range(n)])


def random_matrix_symbol(rng: np.random.Generator, dim: int, max_bandwidth: int = 3) -> MatrixSymbol:
    grid = [[random_scalar_symbol(rng, max_bandwidth) for _ in range(dim)] for _ in range(dim)]
    return MatrixSymbol.from_entries(grid)


CORPUS_KINDS = (
    "generic", "generic", "generic", "generic",
    "analytic", "analytic",
    "coanalytic",
    "monomial",
    "affine_real",
    "constant",
)


def classifier_corpus(rng: np.random.Generator, count: int = 200) -> list[tuple[str, ScalarSymbol]]:
    """Mixed corpus covering every classifier branch, bandwidth <= 3."""
    out: list[tuple[str, ScalarSymbol]] = []
    for i in range(count):
        kind = CORPUS_KINDS[i % len(CORPUS_KINDS)]
        if kind == "generic":
            sym = random_scalar_symbol(rng)
        elif kind == "analytic":
            sym = random_analytic_symbol(rng)
        elif kind == "coanalytic":
            sym = random_analytic_symbol(rng).conj_reflect()
        elif kind == "monomial":
            sym = ScalarSymbol.monomial(int(rng.integers(-3, 4)), random_coeff(rng))
        elif kind == "affine_real":
            f = random_real_symbol(rng)
            sym = random_coeff(rng) * f + ScalarSymbol.constant(random_coeff(rng))
        else:
            sym = ScalarSymbol.constant(random_coeff(rng))
        out.append((kind, sym))
    return out


def diagonalization_corpus(rng: np.random.Generator, count: int = 64) -> list[CirculantSymbol]:
    sizes = (2, 3, 4, 8)
    return [random_circulant(rng, sizes[i % len(sizes)]) for i in range(count)]


def transfer_corpus(rng: np.random.Generator, count: int = 32) -> list[CirculantSymbol]:
    sizes = (2, 3, 4)
    return [random_circulant(rng, sizes[i % len(sizes)]) for i in range(count)]


def theorem41_fixtures() -> list[tuple[str, MatrixSymbol]]:
    """Fixed 2 x 2 corpus whose dilation gap data is recorded as reference."""
    z = ScalarSymbol.monomial(1)
    zb = ScalarSymbol.monomial(-1)
    one = ScalarSymbol.constant(1.0)
    two = ScalarSymbol.constant(2.0)
    zero = ScalarSymbol.zero()
    e = MatrixSymbol.from_entries
    return [
        ("zero", MatrixSymbol.zero(2)),
        ("identity", MatrixSymbol.identity(2)),
        ("constant_nilpotent", e([[zero, zero], [one, zero]])),
        ("constant_circulant", e([[one, two], [two, one]])),
        ("circulant_poly", e([[one + z, z], [z, one + z]])),
        ("diagonal_shifts", e([[z, zero], [zero, 2.0 * z]])),
        ("analytic_entries", e([[one + z, z * z], [3.0 * z, one - z]])),
        ("two_sided", e([[z + zb, one], [z, two]])),
    ]


# ---------------------------------------------------------------------------
# criteria


def criterion_diagonalization(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """64 random circulants diagonalize coefficientwise, lag by lag."""
    rng = _rng(seed, 1)
    residuals = [diagonalize_check(c) for c in diagonalization_corpus(rng)]
    worst = max(residuals)
    return CriterionResult(
        1,
        "circulant diagonalization residual <= 1e-10 coefficientwise, 64 fixtures",
        worst <= RESIDUAL_TOL,
        {"count": len(residuals), "max_residual": worst},
    )


def criterion_conjugation_identity(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Same corpus: blockwise conjugation carries the section onto the diagonal one."""
    rng = _rng(seed, 1)  # same corpus as criterion 1
    residuals = [conjugation_identity_check(c, 32) for c in diagonalization_corpus(rng)]
    worst = max(residuals)
    return CriterionResult(
        2,
        "truncation conjugation identity residual <= 1e-10 at N=32, 64 fixtures",
        worst <= RESIDUAL_TOL,
        {"count": len(residuals), "max_residual": worst, "order": 32},
    )


def criterion_binormality_transfer(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Block binormal verdict equals the aggregate of eigenvalue-symbol verdicts."""
    rng = _rng(seed, 3)
    disagreements = []
    fixtures = transfer_corpus(rng)
    for i, c in enumerate(fixtures):
        block = commutator_report(c, "binormal", tolerance=NUMERIC_TOL)
        per = [
            commutator_report(lam, "binormal", tolerance=NUMERIC_TOL)
            for lam in circulant_eigen_symbols(c).lambdas
        ]
        aggregate_clean = all(r.verdict == VERDICT_CLEAN for r in per)
        if (block.verdict == VERDICT_CLEAN) != aggregate_clean:
            disagreements.append(i)
    return CriterionResult(
        3,
        "binormality transfer: block verdict == aggregate eigenvalue verdicts, 32 fixtures",
        not disagreements,
        {
            "count": len(fixtures),
            "tolerance": NUMERIC_TOL,
            "disagreements": disagreements,
        },
    )


def criterion_classifier_agreement(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Coefficient-level classifiers agree with window commutator verdicts."""
    rng = _rng(seed, 4)
    corpus = classifier_corpus(rng, 200)
    binormal_disagreements = []
    normal_disagreements = []
    for i, (kind, sym) in enumerate(corpus):
        cert = scalar_binormal_classify(sym)
        numeric = commutator_report(sym, "binormal", tolerance=NUMERIC_TOL)
        if (cert.verdict == "binormal") != (numeric.verdict == VERDICT_CLEAN):
            binormal_disagreements.append({"index": i, "kind": kind})
        bh = brown_halmos_normal_test(sym)
        numeric_n = commutator_report(sym, "normal", tolerance=NUMERIC_TOL)
        if (bh.verdict == "normal") != (numeric_n.verdict == VERDICT_CLEAN):
            normal_disagreements.append({"index": i, "kind": kind})
    return CriterionResult(
        4,
        "exact-vs-numeric classifier agreement on 200 seeded polynomials",
        not binormal_disagreements and not normal_disagreements,
        {
            "count": len(corpus),
            "tolerance": NUMERIC_TOL,
            "binormal_disagreements": binormal_disagreements,
            "normal_disagreements": normal_disagreements,
        },
    )


def criterion_known_fixtures(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Hand-computed fixtures come out exactly as derived."""
    z = ScalarSymbol.monomial(1)
    one = ScalarSymbol.constant(1.0)
    zero = ScalarSymbol.zero()
    checks: dict[str, bool] = {}

    rep = commutator_report(z, "binormal", tolerance=NUMERIC_TOL)
    checks["shift_binormal_window_norm"] = rep.window_norm <= 1e-12

    k = commutator_matrix(one + z, "binormal")
    rep = k.report("binormal", NUMERIC_TOL)
    checks["one_plus_z_violated"] = rep.verdict == VERDICT_VIOLATED
    kd = k.data
    checks["one_plus_z_exact_entries"] = bool(
        kd[0, 1] == 1.0 + 0.0j
        and kd[1, 0] == -1.0 + 0.0j
        and abs(kd[0, 0]) == 0.0
        and abs(kd[1, 1]) == 0.0
    )

    rep = commutator_report(z + z.conj_reflect(), "normal", tolerance=NUMERIC_TOL)
    checks["z_plus_zbar_normal"] = rep.verdict == VERDICT_CLEAN

    ex_a = special_case_checks([zero, zero, one + z, zero], "ex54a", NUMERIC_TOL)
    checks["lower_corner_binormal"] = ex_a["binormal_report"]["verdict"] == VERDICT_CLEAN
    checks["lower_corner_not_normal"] = ex_a["normal_report"]["verdict"] == VERDICT_VIOLATED

    ex_b = special_case_checks([zero, one, z, zero], "ex54b", NUMERIC_TOL)
    checks["antidiagonal_binormal"] = ex_b["binormal_report"]["verdict"] == VERDICT_CLEAN

    return CriterionResult(
        5,
        "known-value fixtures (shift, 1+z, real symbol, corner blocks)",
        all(checks.values()),
        {"checks": checks},
    )


def criterion_gamma_roundtrip(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Flatten/unflatten is exactly n^2 times the identity, and exactly linear."""
    rng = _rng(seed, 6)
    worst_roundtrip = 0.0
    worst_linearity = 0.0
    for n in (2, 3):
        for _ in range(32):
            a = random_matrix_symbol(rng, n)
            b = random_matrix_symbol(rng, n)
            back = gamma_adjoint(gamma(a).circulant)
            worst_roundtrip = max(worst_roundtrip, back.max_coeff_diff((n * n) * a))
            alpha = random_coeff(rng)
            lhs = gamma(alpha * a + b).circulant
            ga, gb = gamma(a).circulant, gamma(b).circulant
            for k in range(n * n):
                rhs_k = alpha * ga.row[k] + gb.row[k]
                worst_linearity = max(worst_linearity, lhs.row[k].max_coeff_diff(rhs_k))
    passed = worst_roundtrip == 0.0 and worst_linearity == 0.0
    return CriterionResult(
        6,
        "dilation round trip n^2-exact and linear, n in {2,3}, 32 fixtures each",
        passed,
        {"max_roundtrip_diff": worst_roundtrip, "max_linearity_diff": worst_linearity},
    )


def criterion_condition_system(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Three-line system verdicts match direct block binormality on 32 families."""
    rng = _rng(seed, 7)
    fs = [random_real_symbol(rng) for _ in range(8)]
    inconsistent = []
    families = []
    for f in fs:
        for _ in range(4):
            pairs = [(random_coeff(rng), random_coeff(rng)) for _ in range(4)]
            families.append(commuting_normal_family(f, pairs))
    for i, phis in enumerate(families):
        rep = block2_condition_system(phis, NUMERIC_TOL)
        if not rep.binormal_consistent:
            inconsistent.append(i)

    corner_failures = []
    for i, f in enumerate(fs):
        a, b = commuting_normal_family(f, [(random_coeff(rng), random_coeff(rng)),
                                           (random_coeff(rng), random_coeff(rng))])
        zero = ScalarSymbol.zero()
        for tag, phis in (("offdiag", [zero, a, b, zero]), ("diag", [a, zero, zero, b])):
            rep = block2_condition_system(phis, NUMERIC_TOL)
            if rep.system_a != (0.0, 0.0, 0.0) or rep.binormal_report.verdict != VERDICT_CLEAN:
                corner_failures.append({"f_index": i, "shape": tag})
    passed = not inconsistent and not corner_failures
    return CriterionResult(
        7,
        "2x2 condition system matches direct binormality; corner fixtures exactly zero",
        passed,
        {
            "families": len(families),
            "inconsistent": inconsistent,
            "corner_failures": corner_failures,
            "tolerance": NUMERIC_TOL,
        },
    )


def criterion_reducing_subspaces(seed: int = ACCEPTANCE_SEED) -> CriterionResult:
    """Fourier projectors reduce circulant truncations and resolve the identity."""
    rng = _rng(seed, 8)
    order = 32
    sizes = (2, 3, 4, 8)
    failures = []
    for i in range(32):
        c = random_circulant(rng, sizes[i % len(sizes)])
        projs = reducing_projectors(c, order)
        if resolution_residual(projs) > 1e-12:
            failures.append({"fixture": i, "problem": "sum_to_identity"})
        for k, p in enumerate(projs):
            rep = verify_reducing(p, c, tolerance=RESIDUAL_TOL)
            if rep.verdict != "reducing":
                failures.append({"fixture": i, "projector": k, "problem": "commutator"})
    return CriterionResult(
        8,
        "reducing projectors commute and resolve identity",
        not failures,
        {"fixtures": 32, "order": order, "failures": failures},
    )


def criterion_dilation_probe(
    seed: int = ACCEPTANCE_SEED, reference_path: str | Path = REFERENCE_PATH
) -> CriterionResult:
    """Compression identity exact on all fixtures; gap data equal to the reference."""
    order = 32
    rows = []
    all_exact = True
    for name, sym in theorem41_fixtures():
        rep = theorem41_probe(sym, order, NUMERIC_TOL)
        all_exact = all_exact and rep.compression_exact
        rows.append({"name": name, **rep.to_json()})
    payload = {"order": order, "tolerance": NUMERIC_TOL, "fixtures": rows}
    try:
        on_disk = Path(reference_path).read_text(encoding="utf-8")
    except OSError:
        on_disk = None
    reference_matches = on_disk == render_json(payload) + "\n"
    return CriterionResult(
        9,
        "dilation probe: compression identity exact; singular-value gaps equal the reference",
        all_exact and reference_matches,
        {"compression_exact": all_exact, "gap_data": payload, "reference_matches": reference_matches},
    )


ALL_CRITERIA = (
    criterion_diagonalization,
    criterion_conjugation_identity,
    criterion_binormality_transfer,
    criterion_classifier_agreement,
    criterion_known_fixtures,
    criterion_gamma_roundtrip,
    criterion_condition_system,
    criterion_reducing_subspaces,
    criterion_dilation_probe,
)


@dataclass
class SuiteResult:
    results: list[CriterionResult]
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "pass_count": sum(r.passed for r in self.results),
            "fail_count": sum(not r.passed for r in self.results),
            "criteria": [r.to_json() for r in self.results],
        }


def run_suite(seed: int = ACCEPTANCE_SEED, reference_path: str | Path = REFERENCE_PATH) -> SuiteResult:
    """Run every criterion at ``seed`` and time each call; no verdict reads the time."""
    results = []
    for fn in ALL_CRITERIA:
        start = time.perf_counter()
        if fn is criterion_dilation_probe:
            result = fn(seed, reference_path=reference_path)
        else:
            result = fn(seed)
        result.elapsed = time.perf_counter() - start
        results.append(result)
    return SuiteResult(results=results, seed=seed)
