"""Exact normality/binormality classification for polynomial scalar symbols.

The tests here work on coefficients alone, never by sampling the circle.
Each non-inconclusive verdict carries a witness that can be recomputed from
the symbol: a nonzero autocorrelation lag, the index breaking the normality
relation, or the unimodular factor linking positive and negative
coefficients.  The window-based reports in ``toeplab.toeplitz`` provide the
independent numeric counterpart; tests and the acceptance suite require the
two routes to agree.

The 2x2-block checks read every entry operator, product block, residual
and commutator report from one section of the block symbol: entries with
``ToeplitzTruncation.entry``, reports with ``ToeplitzTruncation.report`` on
the products already formed, at order 8w + 1: exact for T(Phi) itself.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

from .circulant import CirculantSymbol, circulant_eigen_symbols
from .symbols import MatrixSymbol, ScalarSymbol
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
        return asdict(self)


def autocorrelation(phi: ScalarSymbol, scale: float = 1.0) -> dict[int, complex]:
    """r_j = sum_k c_{k+j} * conj(c_k) for all lags j with support overlap,
    of the coefficients c of phi / scale."""
    coeffs = [(n, c / scale) for n, c in phi.items()]
    out: dict[int, complex] = {}
    for n, a in coeffs:
        for m, b in coeffs:
            lag = n - m
            out[lag] = out.get(lag, 0j) + a * b.conjugate()
    return out


def _zero_tol(phi: ScalarSymbol) -> float:
    return COEFF_REL_TOL * phi.max_modulus_coeff()


def inner_multiple_test(phi: ScalarSymbol) -> ClassificationCertificate:
    """Decide whether an analytic polynomial has constant modulus on the circle.

    |phi|^2 on the circle has Fourier coefficient r_j at frequency j, so the
    modulus is constant exactly when every nonzero lag vanishes; the constant
    square modulus is then r_0 and phi is a constant multiple of an inner
    function.  The lags are decided on phi / m, m the power of two just
    above the largest coefficient modulus, so that no r_j overflows and the
    scaling is exact; the witness is in phi's own units, m^2 r_j.
    """
    if not phi.is_analytic():
        raise ValueError("inner_multiple_test requires an analytic symbol")
    m = math.ldexp(1.0, math.frexp(phi.max_modulus_coeff())[1])
    r = autocorrelation(phi, m)
    r0 = r.get(0, 0j).real
    tol = COEFF_REL_TOL * r0
    bad = sorted(j for j, v in r.items() if j > 0 and abs(v) > tol)
    if not bad:
        return ClassificationCertificate(
            verdict="binormal",
            method="inner_multiple",
            witness={"constant_modulus_sq": r0 * m * m},
        )
    lag = bad[0]
    return ClassificationCertificate(
        verdict="not_binormal",
        method="inner_multiple",
        witness={"lag": lag, "autocorrelation": r[lag] * m * m},
    )


def coanalytic_inner_multiple_test(phi: ScalarSymbol) -> ClassificationCertificate:
    """Same test applied to the conjugate-reflected (hence analytic) symbol."""
    if not phi.is_coanalytic():
        raise ValueError("coanalytic_inner_multiple_test requires a coanalytic symbol")
    cert = inner_multiple_test(phi.conj_reflect())
    witness = dict(cert.witness or {})
    witness["reflected"] = True
    return ClassificationCertificate(cert.verdict, cert.method, witness)


def brown_halmos_normal_test(phi: ScalarSymbol) -> ClassificationCertificate:
    """Normality via the affine-in-a-real-function criterion.

    Standard reading: phi = alpha * f + beta with alpha, beta complex and f
    real-valued on the circle.  Coefficientwise this says c_{-n} equals
    gamma * conj(c_n) for every n >= 1, with one unimodular gamma fixed from
    the lowest nonzero pair.
    """
    tol = _zero_tol(phi)
    indices = sorted({abs(n) for n in phi.support if n != 0})
    if not indices:
        return ClassificationCertificate(
            verdict="normal",
            method="brown_halmos",
            witness={"gamma": None, "constant": True, "reading": "standard"},
        )
    n0 = indices[0]
    cp, cm = phi.coeff(n0), phi.coeff(-n0)
    if abs(cp) <= tol or abs(cm) <= tol:
        return ClassificationCertificate(
            verdict="not_normal",
            method="brown_halmos",
            witness={"index": n0, "coeff_pos": cp, "coeff_neg": cm, "reading": "standard"},
        )
    gamma = cm / cp.conjugate()
    if abs(abs(gamma) - 1.0) > COEFF_REL_TOL:
        return ClassificationCertificate(
            verdict="not_normal",
            method="brown_halmos",
            witness={"index": n0, "gamma_modulus": abs(gamma), "reading": "standard"},
        )
    for n in indices:
        if abs(phi.coeff(-n) - gamma * phi.coeff(n).conjugate()) > tol:
            return ClassificationCertificate(
                verdict="not_normal",
                method="brown_halmos",
                witness={"index": n, "gamma": gamma, "reading": "standard"},
            )
    return ClassificationCertificate(
        verdict="normal",
        method="brown_halmos",
        witness={"gamma": gamma, "reading": "standard"},
    )


def scalar_binormal_classify(phi: ScalarSymbol) -> ClassificationCertificate:
    """Binormality of a scalar Toeplitz operator, decided by symbol shape.

    Analytic symbols and coanalytic symbols go through the constant-multiple-
    of-inner test; symbols with coefficients on both sides are binormal
    exactly when they are normal.
    """
    if phi.is_analytic():
        inner = inner_multiple_test(phi)
        branch = "analytic"
    elif phi.is_coanalytic():
        inner = coanalytic_inner_multiple_test(phi)
        branch = "coanalytic"
    else:
        bh = brown_halmos_normal_test(phi)
        verdict = "binormal" if bh.verdict == "normal" else "not_binormal"
        witness = dict(bh.witness or {})
        witness["branch"] = "mixed"
        witness["via"] = bh.method
        return ClassificationCertificate(verdict, "cor310_case", witness)
    witness = dict(inner.witness or {})
    witness["branch"] = branch
    witness["via"] = inner.method
    return ClassificationCertificate(inner.verdict, "cor310_case", witness)


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
    if f.conj_reflect().max_coeff_diff(f) > _zero_tol(f):
        raise ValueError("f must be real-valued on the circle (c_{-n} = conj(c_n))")
    out = []
    for alpha, beta in pairs:
        out.append(alpha * f + ScalarSymbol.constant(beta))
    return out


def _block_section(
    phis: Sequence[ScalarSymbol],
) -> tuple[ToeplitzTruncation, list[ToeplitzTruncation]]:
    """The section of the 2x2 block symbol and its four entries, in the
    order of ``phis``: (0, 0), (0, 1), (1, 0), (1, 1).  The order is
    ``exact_order(4w)`` = 8w + 1, w the block's bandwidth: no check reads a
    margin above 4w (K, x, cor52ii's t1 skew and s2 s2), and from order
    2W + 1 on the window of a margin-W product holds every entry of its
    infinite operator (``toeplab.toeplitz``).
    """
    block = MatrixSymbol.from_entries([[phis[0], phis[1]], [phis[2], phis[3]]])
    t = truncate(block, exact_order(4 * block.bandwidth))
    return t, [t.entry(a, b) for a in (0, 1) for b in (0, 1)]


def _check_commuting_normal(ts: Sequence[ToeplitzTruncation], tolerance: float) -> None:
    for i, t in enumerate(ts):
        resid = (t.adjoint() @ t - t @ t.adjoint()).window_max_abs()
        if resid > tolerance:
            raise ValueError(f"symbol {i + 1} is not normal (residual {resid:.3e})")
    for i in range(len(ts)):
        for j in range(i + 1, len(ts)):
            resid = (ts[i] @ ts[j] - ts[j] @ ts[i]).window_max_abs()
            if resid > tolerance:
                raise ValueError(
                    f"symbols {i + 1} and {j + 1} do not commute (residual {resid:.3e})"
                )


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
    def system_b_holds(self) -> bool:
        return all(r <= self.tolerance for r in self.system_b)

    @property
    def normality_holds(self) -> bool:
        return all(r <= self.tolerance for r in self.normality)

    @property
    def binormal_consistent(self) -> bool:
        return self.system_a_holds == (self.binormal_report.verdict == VERDICT_CLEAN)

    @property
    def normal_consistent(self) -> bool:
        return self.normality_holds == (self.normal_report.verdict == VERDICT_CLEAN)


def block2_condition_system(
    phis: Sequence[ScalarSymbol],
    tolerance: float = DEFAULT_TOLERANCE,
) -> ConditionSystemReport:
    """Evaluate the 2x2-block binormality systems for commuting normal entries.

    The entries (phi_1, phi_2, phi_3, phi_4) must generate mutually commuting
    normal Toeplitz operators (as produced by ``commuting_normal_family``);
    this is checked and violations raise.  Everything is read from one
    section T of the block at order 8w + 1, exact for T(Phi): the six
    quadratic operators are entries of T* T and T T*, system B (with the third
    line it shares with system A) is the (0, 0), (1, 1) and (0, 1) entries of
    K = [T* T, T T*], and the binormal and normal reports are those of K and
    T* T - T T*.
    """
    phis = list(phis)
    if len(phis) != 4:
        raise ValueError("expected four scalar symbols (phi_1 .. phi_4)")
    t, entries = _block_section(phis)
    _check_commuting_normal(entries, tolerance)

    ts = t.adjoint()
    tst, tts = ts @ t, t @ ts
    k = tst @ tts - tts @ tst
    t2, s2 = tst.entry(0, 1), tts.entry(0, 1)

    x = s2 @ t2.adjoint()
    a1 = (x - x.adjoint()).window_max_abs()
    y = s2.adjoint() @ t2
    a2 = (y - y.adjoint()).window_max_abs()
    offdiag = k.entry(0, 1).window_max_abs()

    _, b, c, _ = entries
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


def _is_constant_one(phi: ScalarSymbol) -> bool:
    return phi.max_coeff_diff(ScalarSymbol.constant(1.0)) <= COEFF_REL_TOL


def special_case_checks(
    phis: Sequence[ScalarSymbol],
    case: str,
    tolerance: float = DEFAULT_TOLERANCE,
) -> dict:
    """Structured checks for the documented special 2x2 block shapes.

    Always takes the four entry symbols (phi_1, phi_2, phi_3, phi_4) and
    validates the shape the case demands before evaluating its displayed
    identity alongside the direct verdicts.  Every case reads its entries,
    products and reports from one section T of the block at the ``order``
    8w + 1, exact for T(Phi): the binormal report from [T* T, T T*], the
    normal report from T* T - T T*.
    """
    phis = list(phis)
    if len(phis) != 4:
        raise ValueError("expected four scalar symbols (phi_1 .. phi_4)")
    if case not in SPECIAL_CASES:
        raise ValueError(f"unknown case {case!r}; expected one of {SPECIAL_CASES}")
    p1, p2, p3, p4 = phis
    if case == "cor52i" and not (_is_constant_one(p1) and _is_constant_one(p4)):
        raise ValueError("cor52i requires phi_1 = phi_4 = 1")
    if case in ("cor52ii", "cor53ii") and not (_is_constant_one(p2) and _is_constant_one(p3)):
        raise ValueError(f"{case} requires phi_2 = phi_3 = 1")
    if case == "ex54a":
        for name, p in (("phi_1", p1), ("phi_2", p2), ("phi_4", p4)):
            if not p.is_zero():
                raise ValueError(f"ex54a requires {name} = 0")
    if case == "ex54b":
        if not (p1.is_zero() and p4.is_zero()):
            raise ValueError("ex54b requires phi_1 = phi_4 = 0")
        if not _is_constant_one(p2):
            raise ValueError("ex54b requires phi_2 = 1")

    t, entries = _block_section(phis)
    out: dict = {"case": case, "order": t.order, "tolerance": tolerance}
    _, b, c, _ = entries
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

    _check_commuting_normal(entries, tolerance)
    if case == "cor53ii":
        psi = p1 + p4.conj_reflect()
        real_resid = psi.conj_reflect().max_coeff_diff(psi)
        is_real = real_resid <= _zero_tol(psi)
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
