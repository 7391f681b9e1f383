"""Exact normality/binormality classification for polynomial scalar symbols.

The tests here work on coefficients alone, never by sampling the circle.
Each non-inconclusive verdict carries a witness that can be recomputed from
the symbol: the index of a monomial, the end indices of a one-sided symbol
with more than one term, the first pair's coefficients, the index breaking
the normality relation, or the unimodular factor linking positive and
negative coefficients.  The window-based reports in ``toeplab.toeplitz``
provide the independent numeric counterpart; tests and the acceptance suite
require the two routes to agree.

The 2x2-block checks decide their side conditions from coefficients: the
shape a special case demands, and the commuting-normal hypothesis on the
entries, by Brown-Halmos.  The paper's identities and the binormal and
normal reports are read from one section T of the block symbol at order
8w + 1, exact for T(Phi) itself: entries with ``ToeplitzTruncation.entry``,
reports with ``ToeplitzTruncation.report`` on the products already formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .circulant import CirculantSymbol, circulant_eigen_symbols
from .symbols import MatrixSymbol, ScalarSymbol, modulus
from .toeplitz import DEFAULT_TOLERANCE, VERDICT_CLEAN, CommutatorReport, ToeplitzTruncation, exact_order, truncate

# Not used in this module; the binding stays because perfbench/test_tracing.py
# asserts that the benchmark's tracer wraps toeplab.classify.commutator_report.
from .toeplitz import commutator_report  # noqa: F401

# Coefficient comparisons are scale-relative, with no absolute floor: values
# this far below the largest coefficient are treated as zero.
COEFF_REL_TOL = 1e-12


@dataclass(frozen=True)
class ClassificationCertificate:
    """Coefficient-level verdict with reproducible evidence."""

    verdict: str  # normal | binormal | not_normal | not_binormal | inconclusive
    method: str   # inner_multiple | brown_halmos | cor310_case | condition_system
    witness: dict | None = None

    def to_json(self) -> dict:
        """``dataclasses.asdict`` of the certificate: witness values are
        scalars, so a shallow copy of the witness is its deep copy."""
        witness = None if self.witness is None else dict(self.witness)
        return {"verdict": self.verdict, "method": self.method, "witness": witness}


def inner_multiple_test(phi: ScalarSymbol) -> ClassificationCertificate:
    """Decide whether an analytic or coanalytic polynomial has constant
    modulus on the circle, that is, is a constant multiple of an inner function.

    If its lowest and highest indices are a < b, |phi|^2 has the nonzero
    coefficient c_b conj(c_a) at frequency b - a; a monomial c z^k has
    |phi|^2 = |c|^2.  So the test is "at most one nonzero coefficient", read
    from the support with no rounding.  The witness is the monomial's
    ``index`` (None for zero), or the ``lag`` b - a with ``lowest`` a and
    ``highest`` b.
    """
    if not (phi.is_analytic() or phi.is_coanalytic()):
        raise ValueError("inner_multiple_test requires an analytic or coanalytic symbol")
    support = phi.support
    if len(support) <= 1:
        return ClassificationCertificate(
            "binormal", "inner_multiple", {"index": support[0] if support else None})
    a, b = support[0], support[-1]
    return ClassificationCertificate(
        "not_binormal", "inner_multiple", {"lag": b - a, "lowest": a, "highest": b})


def brown_halmos_normal_test(phi: ScalarSymbol) -> ClassificationCertificate:
    """Normality via the affine-in-a-real-function criterion.

    Standard reading: phi = alpha * f + beta with alpha, beta complex and f
    real-valued on the circle.  Coefficientwise this says c_{-n} equals
    gamma * conj(c_n) for every n >= 1, with one unimodular gamma fixed from
    the lowest nonzero pair.

    The first pair's presence is read exactly, and its moduli are compared
    within ``COEFF_REL_TOL`` |c_{n0}| before gamma is formed, which then
    cannot overflow.  The relation keeps ``COEFF_REL_TOL`` max|c_k|:
    eigen-symbols and alpha * f + beta carry rounding that it cannot see.
    A residual whose modulus exceeds the float range exceeds that tolerance.
    """
    def cert(verdict: str, **witness) -> ClassificationCertificate:
        return ClassificationCertificate(verdict, "brown_halmos", {**witness, "reading": "standard"})

    indices = sorted({abs(n) for n in phi.support if n != 0})
    if not indices:
        return cert("normal", gamma=None, constant=True)
    n0 = indices[0]
    cp, cm = phi.coeff(n0), phi.coeff(-n0)
    if not cp or not cm or abs(abs(cm) - abs(cp)) > COEFF_REL_TOL * abs(cp):
        return cert("not_normal", index=n0, coeff_pos=cp, coeff_neg=cm)
    gamma = cm / cp.conjugate()
    tol = COEFF_REL_TOL * phi.max_modulus_coeff()
    for n in indices:
        if modulus(phi.coeff(-n) - gamma * phi.coeff(n).conjugate()) > tol:
            return cert("not_normal", index=n, gamma=gamma)
    return cert("normal", gamma=gamma)


def scalar_binormal_classify(phi: ScalarSymbol) -> ClassificationCertificate:
    """Binormality of a scalar Toeplitz operator, decided by symbol shape.

    Analytic and coanalytic symbols go through the constant-multiple-of-inner
    test; symbols with coefficients on both sides are binormal exactly when
    they are normal.
    """
    if phi.is_analytic() or phi.is_coanalytic():
        cert = inner_multiple_test(phi)
        verdict = cert.verdict
        branch = "analytic" if phi.is_analytic() else "coanalytic"
    else:
        cert = brown_halmos_normal_test(phi)
        verdict = "binormal" if cert.verdict == "normal" else "not_binormal"
        branch = "mixed"
    return ClassificationCertificate(
        verdict, "cor310_case", {**cert.witness, "branch": branch, "via": cert.method})


@dataclass(frozen=True)
class CirculantClassification:
    aggregate: str
    certificates: tuple[ClassificationCertificate, ...]

    def to_json(self) -> dict:
        return {
            "aggregate": self.aggregate,
            "per_eigenvalue": [c.to_json() for c in self.certificates],
        }


def circulant_binormal_classify(c: CirculantSymbol) -> CirculantClassification:
    """Classify every eigenvalue symbol; binormal only if all of them are."""
    certs = tuple(scalar_binormal_classify(lam) for lam in circulant_eigen_symbols(c).lambdas)
    aggregate = "binormal" if all(x.verdict == "binormal" for x in certs) else "not_binormal"
    return CirculantClassification(aggregate=aggregate, certificates=certs)


def commuting_normal_family(
    f: ScalarSymbol, pairs: Sequence[tuple[complex, complex]]
) -> list[ScalarSymbol]:
    """Symbols alpha * f + beta over a real-valued f.

    Every member generates a Toeplitz operator affine in the self-adjoint
    T_f, so the family is mutually commuting and normal by construction.
    """
    if f.conj_reflect() != f:
        raise ValueError("f must be real-valued on the circle (c_{-n} = conj(c_n))")
    return [alpha * f + ScalarSymbol.constant(beta) for alpha, beta in pairs]


def _block_section(phis: Sequence[ScalarSymbol]) -> ToeplitzTruncation:
    """The section of the 2x2 block symbol with entries ``phis`` in the order
    (0, 0), (0, 1), (1, 0), (1, 1).  The order is ``exact_order(4w)`` =
    8w + 1, w the block's bandwidth: no check reads a margin above 4w (K, x,
    cor52ii's t1 skew and s2 s2), and from order 2W + 1 on the window of a
    margin-W product holds every entry of its infinite operator
    (``toeplab.toeplitz``).
    """
    block = MatrixSymbol.from_entries([[phis[0], phis[1]], [phis[2], phis[3]]])
    return truncate(block, exact_order(4 * block.bandwidth))


def _check_commuting_normal(phis: Sequence[ScalarSymbol]) -> None:
    """Refuse entries that do not generate mutually commuting normal Toeplitz
    operators: each must be normal by ``brown_halmos_normal_test``, and each
    pair's non-constant parts u, v parallel, every minor u_n v_m - u_m v_n of
    u / max|u| and v / max|v| within ``COEFF_REL_TOL`` (Brown-Halmos)."""
    parts = []
    for i, phi in enumerate(phis, 1):
        cert = brown_halmos_normal_test(phi)
        if cert.verdict != "normal":
            raise ValueError(f"symbol {i} is not normal (Brown-Halmos, index {cert.witness['index']})")
        u = {n: c for n, c in phi.items() if n != 0}
        top = max(map(abs, u.values()), default=1.0)
        parts.append({n: c / top for n, c in u.items()})
    for (i, u), (j, v) in combinations(enumerate(parts, 1), 2):
        for n, m in combinations(sorted(u.keys() | v.keys()), 2):
            if abs(u.get(n, 0j) * v.get(m, 0j) - u.get(m, 0j) * v.get(n, 0j)) > COEFF_REL_TOL:
                raise ValueError(f"symbols {i} and {j} do not commute (non-constant parts "
                                 f"not parallel at indices {n}, {m})")


@dataclass(frozen=True)
class ConditionSystemReport:
    """Residuals for the two three-line binormality systems of T(Phi).

    ``system_a`` holds the residuals of the reduced system valid under the
    commuting-normal hypothesis (symmetrized cross terms plus the off-diagonal
    balance); ``system_b`` holds the unreduced three-line system, which is
    the (0, 0), (1, 1) and (0, 1) entries of the block commutator
    [T* T, T T*].  The third lines are the same expression and share one
    residual.  ``normality`` holds the residuals of the block-normality
    conditions.  ``binormal_report`` and ``normal_report`` are the reports of
    [T* T, T T*] and T* T - T T* read from the same section, of ``order`` 8w + 1.
    """

    order: int
    tolerance: float
    system_a: tuple[float, float, float]
    system_b: tuple[float, float, float]
    normality: tuple[float, float, float]
    binormal_report: CommutatorReport
    normal_report: CommutatorReport

    @property
    def system_a_holds(self) -> bool:
        return all(r <= self.tolerance for r in self.system_a)

    @property
    def binormal_consistent(self) -> bool:
        return self.system_a_holds == (self.binormal_report.verdict == VERDICT_CLEAN)


def block2_condition_system(
    phis: Sequence[ScalarSymbol],
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionSystemReport:
    """Evaluate the 2x2-block binormality systems for commuting normal entries.

    The entries (phi_1, phi_2, phi_3, phi_4) must generate mutually commuting
    normal Toeplitz operators (as produced by ``commuting_normal_family``);
    this is decided from their coefficients, and violations raise before any
    section is built.  Everything else is read from one section T of the
    block at order 8w + 1, exact for T(Phi): the six quadratic operators are
    entries of T* T and T T*, system B (with the third line it shares with
    system A) is the (0, 0), (1, 1) and (0, 1) entries of K = [T* T, T T*],
    and the binormal and normal reports are those of K and T* T - T T*.
    """
    phis = list(phis)
    if len(phis) != 4:
        raise ValueError("expected four scalar symbols (phi_1 .. phi_4)")
    _check_commuting_normal(phis)
    t = _block_section(phis)

    ts = t.adjoint()
    tst, tts = ts @ t, t @ ts
    k = tst @ tts - tts @ tst
    t2, s2 = tst.entry(0, 1), tts.entry(0, 1)

    x = s2 @ t2.adjoint()
    a1 = (x - x.adjoint()).window_max_abs()
    y = s2.adjoint() @ t2
    a2 = (y - y.adjoint()).window_max_abs()
    offdiag = k.entry(0, 1).window_max_abs()

    b, c = t.entry(0, 1), t.entry(1, 0)
    n1 = (c.adjoint() @ c - b @ b.adjoint()).window_max_abs()
    n2 = (b.adjoint() @ b - c @ c.adjoint()).window_max_abs()
    n3 = (t2 - s2).window_max_abs()

    return ConditionSystemReport(
        order=t.order,
        tolerance=tolerance,
        system_a=(a1, a2, offdiag),
        system_b=(k.entry(0, 0).window_max_abs(), k.entry(1, 1).window_max_abs(), offdiag),
        normality=(n1, n2, n3),
        binormal_report=k.report("binormal", tolerance),
        normal_report=(tst - tts).report("normal", tolerance),
    )


SPECIAL_CASES = ("cor52i", "cor52ii", "cor53ii", "ex54a", "ex54b")
_ONE = ScalarSymbol.constant(1.0)


def special_case_checks(
    phis: Sequence[ScalarSymbol],
    case: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Structured checks for the documented special 2x2 block shapes.

    Always takes the four entry symbols (phi_1, phi_2, phi_3, phi_4) and
    validates the shape the case demands, and for cor52i, cor52ii and
    cor53ii the commuting-normal hypothesis from coefficients, before
    evaluating its displayed identity alongside the direct verdicts.  Every
    case reads its entries, products and reports from one section T of the
    block at the ``order`` 8w + 1, exact for T(Phi): the binormal report
    from [T* T, T T*], the normal report from T* T - T T*.
    """
    phis = list(phis)
    if len(phis) != 4:
        raise ValueError("expected four scalar symbols (phi_1 .. phi_4)")
    if case not in SPECIAL_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {SPECIAL_CASES}")
    p1, p2, p3, p4 = phis
    if case == "cor52i" and not p1 == p4 == _ONE:
        raise ValueError("cor52i requires phi_1 = phi_4 = 1")
    if case in ("cor52ii", "cor53ii") and not p2 == p3 == _ONE:
        raise ValueError(f"{case} requires phi_2 = phi_3 = 1")
    if case == "ex54a":
        for name, p in (("phi_1", p1), ("phi_2", p2), ("phi_4", p4)):
            if not p.is_zero():
                raise ValueError(f"ex54a requires {name} = 0")
    if case == "ex54b":
        if not (p1.is_zero() and p4.is_zero()):
            raise ValueError("ex54b requires phi_1 = phi_4 = 0")
        if p2 != _ONE:
            raise ValueError("ex54b requires phi_2 = 1")

    if case in ("cor52i", "cor52ii", "cor53ii"):
        _check_commuting_normal(phis)
    t = _block_section(phis)
    out: dict = {"case": case, "order": t.order, "tolerance": tolerance}
    b, c = t.entry(0, 1), t.entry(1, 0)
    ts = t.adjoint()
    tst, tts = ts @ t, t @ ts
    if case in ("ex54a", "ex54b"):
        if case == "ex54b":
            ident = truncate(ScalarSymbol.constant(1.0), t.order)
            unitary_resid = max(
                (c.adjoint() @ c - ident).window_max_abs(),
                (c @ c.adjoint() - ident).window_max_abs(),
            )
            out["unitary_window_residual"] = unitary_resid
            out["unitary_like"] = unitary_resid <= tolerance
        nrep = (tst - tts).report("normal", tolerance)
        out["binormal_report"] = (tst @ tts - tts @ tst).report("binormal", tolerance).to_json()
        out["normal_report"] = nrep.to_json()
        if case == "ex54b":
            out["consistent"] = out["unitary_like"] == (nrep.verdict == VERDICT_CLEAN)
        return out

    if case == "cor53ii":
        psi = p1 + p4.conj_reflect()
        real_resid = psi.conj_reflect().max_coeff_diff(psi)
        is_real = real_resid <= COEFF_REL_TOL * psi.max_modulus_coeff()
        rep = (tst - tts).report("normal", tolerance)
        out["real_valued_residual"] = real_resid
        out["real_valued"] = is_real
        out["normal_report"] = rep.to_json()
        out["consistent"] = is_real == (rep.verdict == VERDICT_CLEAN)
        return out

    if case == "cor52i":
        d = c.adjoint() @ c - b.adjoint() @ b
        e = b + c.adjoint()
        residual = (d @ e + e @ d).window_max_abs()
        out["identity_residual"] = residual
        holds = residual <= tolerance
    else:  # cor52ii
        t1, t2, t3, s2 = tst.entry(0, 0), tst.entry(0, 1), tst.entry(1, 1), tts.entry(0, 1)
        skew = t2.adjoint() - t2
        r1 = (t1 @ skew - skew @ t3).window_max_abs()
        sq = s2 @ s2
        r2 = (sq - sq.adjoint()).window_max_abs()
        out["skew_balance_residual"] = r1
        out["square_selfadjoint_residual"] = r2
        holds = r1 <= tolerance and r2 <= tolerance
    rep = (tst @ tts - tts @ tst).report("binormal", tolerance)
    out["identity_holds"] = holds
    out["binormal_report"] = rep.to_json()
    out["consistent"] = holds == (rep.verdict == VERDICT_CLEAN)
    return out
