import dataclasses

import numpy as np
import pytest

from toeplab import classify
from toeplab.circulant import CirculantSymbol
from toeplab.classify import (
    ClassificationCertificate,
    block2_condition_system,
    brown_halmos_normal_test,
    circulant_binormal_classify,
    commuting_normal_family,
    inner_multiple_test,
    scalar_binormal_classify,
    special_case_checks,
)
from toeplab.serialize import render_json
from toeplab.suite import classifier_corpus
from toeplab.symbols import MatrixSymbol, ScalarSymbol
from toeplab.toeplitz import VERDICT_CLEAN, VERDICT_VIOLATED, commutator_report, truncate

Z = ScalarSymbol.monomial(1)
ZBAR = ScalarSymbol.monomial(-1)
ONE = ScalarSymbol.constant(1.0)
ZERO = ScalarSymbol.zero()
F_REAL = Z + ZBAR


# ---------------------------------------------------------------------------
# constant-multiple-of-inner test


def test_inner_monomial_is_binormal_with_constant_modulus():
    phi = ScalarSymbol.monomial(2, 3.0)
    cert = inner_multiple_test(phi)
    assert cert.verdict == "binormal"
    assert cert.witness == {"index": 2}
    # |3 z^2|^2 = 9 on the circle, the square modulus of the one coefficient
    assert abs(phi.coeff(cert.witness["index"])) ** 2 == 9.0
    assert inner_multiple_test(ZERO).witness == {"index": None}


def test_inner_one_plus_z_fails_at_lag_one():
    cert = inner_multiple_test(ONE + Z)
    assert cert.verdict == "not_binormal"
    assert cert.witness == {"lag": 1, "lowest": 0, "highest": 1}
    # r_1 = c_1 conj(c_0) = 1
    assert Z.coeff(1) * ONE.coeff(0).conjugate() == 1.0


def test_inner_gapped_symbol_fails_at_lag_two():
    phi = ScalarSymbol({1: 1.0, 3: 1.0})
    # brute-force autocorrelation oracle
    coeffs = {1: 1.0 + 0j, 3: 1.0 + 0j}
    r = {}
    for n, a in coeffs.items():
        for m, b in coeffs.items():
            r[n - m] = r.get(n - m, 0j) + a * b.conjugate()
    assert {j for j, v in r.items() if j > 0 and abs(v) > 0} == {2}

    cert = inner_multiple_test(phi)
    assert cert.verdict == "not_binormal"
    assert cert.witness == {"lag": 2, "lowest": 1, "highest": 3}
    # the witness lag's r has the one term c_b conj(c_a), which is not zero
    w = cert.witness
    assert r[w["lag"]] == phi.coeff(w["highest"]) * phi.coeff(w["lowest"]).conjugate() != 0


@pytest.mark.parametrize(
    "s", [5e-324, 1e-300, 1e-200, 1e-16, 1e-14, 1.0, 1e154, 1e300, 2.0 ** 1023, 1.7e308]
)
def test_inner_multiple_verdicts_do_not_depend_on_scale(s):
    # the verdict is read from the support, so no |phi|^2 coefficient is
    # formed that could overflow or underflow at any scale
    cert = scalar_binormal_classify(s * (ONE + Z))
    assert cert.verdict == "not_binormal"
    assert (cert.witness["lag"], cert.witness["lowest"], cert.witness["highest"]) == (1, 0, 1)
    cube = scalar_binormal_classify(ScalarSymbol.monomial(3, s))
    assert cube.verdict == "binormal" and cube.witness["index"] == 3
    render_json({"binormal": cert.to_json(), "cube": cube.to_json()})


def test_inner_test_reads_a_tiny_second_coefficient():
    # neither is a monomial: |phi|^2 has the coefficient 1e-13 at lag 1 and
    # at lag 3, however small it is next to r_0
    for phi, lag in ((ONE + 1e-13 * Z, 1),
                     (ScalarSymbol({-2: 1.0, -5: 1e-13}), 3)):
        cert = scalar_binormal_classify(phi)
        assert cert.verdict == "not_binormal"
        assert cert.witness["lag"] == lag
        assert inner_multiple_test(phi).verdict == "not_binormal"


def test_inner_rejects_non_analytic():
    with pytest.raises(ValueError):
        inner_multiple_test(Z + ZBAR)


def test_coanalytic_variant():
    assert inner_multiple_test(ZBAR).verdict == "binormal"
    assert inner_multiple_test(ONE + ZBAR).verdict == "not_binormal"
    assert inner_multiple_test(ScalarSymbol.constant(5.0)).verdict == "binormal"
    # the witness of a coanalytic symbol names its own indices
    assert inner_multiple_test(ONE + ZBAR).witness == {"lag": 1, "lowest": -1, "highest": 0}
    assert inner_multiple_test(ONE + Z).verdict == "not_binormal"
    with pytest.raises(ValueError):
        inner_multiple_test(ONE + Z + ZBAR)


# ---------------------------------------------------------------------------
# normality


def test_normal_real_symbol():
    cert = brown_halmos_normal_test(F_REAL)
    assert cert.verdict == "normal"
    assert cert.witness["gamma"] == pytest.approx(1.0)


def test_shift_is_not_normal():
    cert = brown_halmos_normal_test(Z)
    assert cert.verdict == "not_normal"
    assert cert.witness["index"] == 1
    numeric = commutator_report(Z, "normal", 64, 1e-8)
    assert numeric.verdict == VERDICT_VIOLATED


def test_rotated_real_symbol_is_normal():
    phi = ScalarSymbol({1: 1 + 1j, -1: 1 - 1j})
    cert = brown_halmos_normal_test(phi)
    assert cert.verdict == "normal"
    assert cert.witness["gamma"] == pytest.approx(1.0)
    assert commutator_report(phi, "normal", 64, 1e-8).verdict == VERDICT_CLEAN


def test_unbalanced_pair_is_not_normal():
    phi = ScalarSymbol({1: 1.0, -1: 2.0})  # |gamma| would be 2
    cert = brown_halmos_normal_test(phi)
    assert cert.verdict == "not_normal"
    assert cert.witness["index"] == 1
    assert commutator_report(phi, "normal", 64, 1e-8).verdict == VERDICT_VIOLATED


def test_constant_is_normal():
    assert brown_halmos_normal_test(ScalarSymbol.constant(2 - 1j)).verdict == "normal"


def test_a_small_first_pair_is_read_as_its_coefficients_say():
    # real-valued, so normal: a first pair far below the largest coefficient
    # still fixes gamma
    phi = ScalarSymbol({0: 1.0, 1: 1e-13, -1: 1e-13})
    cert = brown_halmos_normal_test(phi)
    assert cert.verdict == "normal" and cert.witness["gamma"] == 1.0
    assert scalar_binormal_classify(phi).verdict == "binormal"
    # gamma = i from the small pair holds at index 2 as well
    rotated = ScalarSymbol({1: 1e-13, -1: 1e-13j, 2: 1.0, -2: 1j})
    assert brown_halmos_normal_test(rotated).verdict == "normal"


def test_a_first_pair_of_far_apart_moduli_is_not_normal_without_forming_gamma():
    # cm / conj(cp) would be inf: the moduli are compared first
    phi = ScalarSymbol({1: 1e-300, -1: 1e300, 0: 1.0})
    cert = brown_halmos_normal_test(phi)
    assert cert.verdict == "not_normal"
    assert cert.witness == {"index": 1, "coeff_pos": 1e-300, "coeff_neg": 1e300,
                            "reading": "standard"}
    render_json({"normal": cert.to_json(), "binormal": scalar_binormal_classify(phi).to_json()})
    one_sided = brown_halmos_normal_test(ScalarSymbol({0: 1.0, -2: 3.0}))
    assert one_sided.witness == {"index": 2, "coeff_pos": 0j, "coeff_neg": 3.0,
                                 "reading": "standard"}


def _gaussian_integer_corpus(rng, count):
    """Scalar symbols, w <= 3, with Gaussian-integer coefficients whose parts
    lie in -3..3, in four kinds: generic, analytic, coanalytic and
    alpha * f + beta with f real-valued.  Every product and sum a window of
    such a symbol forms is an exact float."""
    def gauss():
        return complex(*rng.integers(-3, 4, 2))

    out = []
    for i in range(count):
        w = int(rng.integers(1, 4))
        kind = ("generic", "analytic", "coanalytic", "affine")[i % 4]
        if kind == "generic":
            phi = ScalarSymbol({n: gauss() for n in range(-w, w + 1)})
        elif kind == "analytic":
            phi = ScalarSymbol({n: gauss() for n in range(w + 1)})
        elif kind == "coanalytic":
            phi = ScalarSymbol({-n: gauss() for n in range(w + 1)})
        else:
            half = {n: gauss() for n in range(1, w + 1)}
            f = ScalarSymbol({0: float(rng.integers(-3, 4)), **half,
                              **{-n: c.conjugate() for n, c in half.items()}})
            phi = gauss() * f + ScalarSymbol.constant(gauss())
        out.append((kind, phi))
    return out


def test_exact_classifiers_agree_with_the_window_route_at_tolerance_zero():
    # exact window arithmetic leaves no tolerance to argue about: the window
    # is clean exactly when the commutator of T(phi) is zero
    seen = set()
    for kind, phi in _gaussian_integer_corpus(np.random.default_rng(29), 3000):
        for prop, cert, holds in (
            ("binormal", scalar_binormal_classify(phi), "binormal"),
            ("normal", brown_halmos_normal_test(phi), "normal"),
        ):
            clean = commutator_report(phi, prop, tolerance=0.0).verdict == VERDICT_CLEAN
            assert (cert.verdict == holds) == clean, (kind, prop, phi)
            seen.add((kind, prop, clean))
    # the one-sided and generic kinds read both ways for binormality, the
    # generic kind for normality too; alpha * f + beta is always normal
    assert {(k, "binormal", c) for k in ("generic", "analytic", "coanalytic")
            for c in (True, False)} <= seen
    assert {("generic", "normal", True), ("generic", "normal", False)} <= seen
    assert {c for k, _, c in seen if k == "affine"} == {True}


# ---------------------------------------------------------------------------
# binormality dispatch


def test_classify_analytic_monomial():
    cert = scalar_binormal_classify(Z * Z)
    assert cert.verdict == "binormal"
    assert cert.witness["branch"] == "analytic"


def test_classify_mixed_real_symbol_via_normality():
    cert = scalar_binormal_classify(F_REAL)
    assert cert.verdict == "binormal"
    assert cert.witness["branch"] == "mixed"
    assert cert.method == "cor310_case"


def test_classify_unbalanced_mixed_symbol():
    phi = ScalarSymbol({-1: 2.0, 1: 1.0})
    cert = scalar_binormal_classify(phi)
    assert cert.verdict == "not_binormal"
    assert commutator_report(phi, "binormal", 64, 1e-8).verdict == VERDICT_VIOLATED


def test_classification_is_scaling_invariant():
    rng = np.random.default_rng(31)
    for _ in range(10):
        idx = rng.choice(np.arange(-3, 4), size=3, replace=False)
        phi = ScalarSymbol({int(n): complex(*rng.standard_normal(2)) for n in idx})
        base = scalar_binormal_classify(phi).verdict
        for c in (1.7 - 0.3j, -2j, 0.01):
            assert scalar_binormal_classify(c * phi).verdict == base
        base_n = brown_halmos_normal_test(phi).verdict
        for c in (1.7 - 0.3j, -2j):
            assert brown_halmos_normal_test(c * phi).verdict == base_n


def test_classifier_corpus_verdicts_do_not_depend_on_scale():
    # no absolute floor under the coefficient tolerance: a tiny 1 + z is still
    # not binormal, and a tiny real z + zbar is still normal
    assert scalar_binormal_classify(1e-10 * (ONE + Z)).verdict == "not_binormal"
    assert brown_halmos_normal_test(1e-12 * F_REAL).verdict == "normal"

    def verdicts(phi):
        return scalar_binormal_classify(phi).verdict, brown_halmos_normal_test(phi).verdict

    for kind, phi in classifier_corpus(np.random.default_rng(46), 200):
        for s in (1e-13, 1e-10, 1e-6, 1.0, 1e3, 1e6):
            assert verdicts(s * phi) == verdicts(phi), (kind, phi, s)


def test_a_relation_residual_beyond_the_float_range_reads_not_normal():
    # gamma = -1 from the first pair; at n = 2 the residual is
    # 1e308 - 1.5e308 i, finite in both parts, but |.| is about 1.8e308
    phi = ScalarSymbol({1: 1.5e308, -1: -1.5e308, 2: 1e308, -2: -1.5e308j})
    cert = brown_halmos_normal_test(phi)
    assert cert.verdict == "not_normal"
    assert cert.witness["index"] == 2 and cert.witness["gamma"] == -1
    assert scalar_binormal_classify(phi).verdict == "not_binormal"
    # the same residual scaled down, and a normal symbol at the same scale
    assert brown_halmos_normal_test(1e-10 * phi).verdict == "not_normal"
    assert brown_halmos_normal_test(ScalarSymbol({1: 1e308, -1: 1e308, 2: 1e308j, -2: -1e308j})).verdict == "normal"
    render_json(cert.to_json())


def test_circulant_classify_monomial_rows():
    res = circulant_binormal_classify(CirculantSymbol([Z, Z]))
    assert res.aggregate == "binormal"
    assert [c.verdict for c in res.certificates] == ["binormal", "binormal"]


def test_circulant_classify_one_and_z():
    res = circulant_binormal_classify(CirculantSymbol([ONE, Z]))
    assert res.aggregate == "not_binormal"
    # lambda_0 = 1 + z fails the inner test with lag 1
    assert res.certificates[0].verdict == "not_binormal"
    assert res.certificates[0].witness["lag"] == 1


def test_circulant_classify_equal_rows_collapse():
    phi = ONE + Z  # modulus not constant
    res = circulant_binormal_classify(CirculantSymbol([phi, phi, phi]))
    assert res.aggregate == "not_binormal"
    assert res.certificates[0].verdict == "not_binormal"
    assert res.certificates[1].verdict == "binormal"  # zero symbol
    assert res.certificates[2].verdict == "binormal"


def test_tiny_symbols_are_classified_as_their_coefficients_say():
    # 1e-16 is no floor: these are 1 + z and a circulant of non-monomials
    tiny = 1e-16 * (ONE + Z)
    assert scalar_binormal_classify(tiny).verdict == "not_binormal"
    assert brown_halmos_normal_test(tiny).verdict == "not_normal"
    rows = [1e-16 * (ONE + 2.0 * Z), 1e-16 * (-3.0 * ONE + Z)]
    res = circulant_binormal_classify(CirculantSymbol(rows))
    assert res.aggregate == "not_binormal"
    assert [c.verdict for c in res.certificates] == ["not_binormal", "not_binormal"]


def test_certificate_json_is_asdict_and_a_copy():
    certs = [ClassificationCertificate("inconclusive", "inner_multiple")]
    for _, phi in classifier_corpus(np.random.default_rng(26), 100):
        certs += [scalar_binormal_classify(phi), brown_halmos_normal_test(phi)]
    for cert in certs:
        out = cert.to_json()
        assert out == dataclasses.asdict(cert)
        assert list(out) == ["verdict", "method", "witness"]
        if cert.witness is not None:
            before = dict(cert.witness)
            out["witness"]["lag"] = -1
            out["witness"].pop("reading", None)
            assert cert.witness == before


def test_circulant_classify_agrees_with_block_numeric():
    rng = np.random.default_rng(32)
    for i in range(8):
        n = (2, 3)[i % 2]
        row = []
        for _ in range(n):
            idx = rng.choice(np.arange(-2, 3), size=2, replace=False)
            row.append(ScalarSymbol({int(k): complex(*rng.standard_normal(2)) for k in idx}))
        c = CirculantSymbol(row)
        exact = circulant_binormal_classify(c).aggregate
        numeric = commutator_report(c.as_matrix_symbol(), "binormal", 64, 1e-8)
        assert (exact == "binormal") == (numeric.verdict == VERDICT_CLEAN)


# ---------------------------------------------------------------------------
# commuting normal families


def test_family_basic_member():
    fam = commuting_normal_family(F_REAL, [(1.0, 0.0)])
    assert fam[0] == F_REAL


def test_family_members_are_normal_and_commute_on_window():
    fam = commuting_normal_family(F_REAL, [(1.0, 0.0), (1j, 1.0)])
    for phi in fam:
        assert brown_halmos_normal_test(phi).verdict == "normal"
    t0, t1 = truncate(fam[0], 64), truncate(fam[1], 64)
    assert (t0 @ t1 - t1 @ t0).window_max_abs() <= 1e-12


def test_family_from_zero_is_constant():
    fam = commuting_normal_family(ZERO, [(2.0, 3.0), (1j, -1.0)])
    assert fam[0] == ScalarSymbol.constant(3.0)
    assert fam[1] == ScalarSymbol.constant(-1.0)


def test_family_rejects_non_real_generator():
    with pytest.raises(ValueError):
        commuting_normal_family(Z, [(1.0, 0.0)])


def test_family_rejects_a_generator_that_is_real_only_within_a_tolerance():
    # the imaginary constant 1e-13 makes f not real-valued
    with pytest.raises(ValueError, match="real-valued"):
        commuting_normal_family(F_REAL + ScalarSymbol.constant(1e-13j), [(1.0, 0.0)])


# ---------------------------------------------------------------------------
# condition systems


def _family(rng, count=4):
    f = ScalarSymbol({0: 0.5, 1: complex(*rng.standard_normal(2)) / 2})
    f = f + f.conj_reflect()  # force real-valued
    pairs = [(complex(*rng.standard_normal(2)), complex(*rng.standard_normal(2)))
             for _ in range(count)]
    return commuting_normal_family(f, pairs)


def test_condition_system_corner_cases_are_exactly_zero():
    rng = np.random.default_rng(33)
    a, b = _family(rng, 2)
    for phis in ([ZERO, a, b, ZERO], [a, ZERO, ZERO, b]):
        rep = block2_condition_system(phis, 1e-8)
        assert rep.system_a == (0.0, 0.0, 0.0)
        assert rep.binormal_report.verdict == VERDICT_CLEAN
        assert rep.binormal_consistent


def test_condition_system_third_lines_coincide():
    rng = np.random.default_rng(34)
    rep = block2_condition_system(_family(rng), 1e-8)
    assert rep.system_a[2] == rep.system_b[2]


def test_condition_system_matches_direct_verdicts():
    rng = np.random.default_rng(35)
    saw_violated = False
    for _ in range(6):
        rep = block2_condition_system(_family(rng), 1e-8)
        assert rep.binormal_consistent
        assert all(r <= 1e-8 for r in rep.normality) == (rep.normal_report.verdict == VERDICT_CLEAN)
        assert rep.system_a_holds == all(r <= 1e-8 for r in rep.system_b)
        saw_violated = saw_violated or not rep.system_a_holds
    assert saw_violated  # generic families are not binormal


def _entry_level_residuals(phis, order):
    """System A, system B and the normality lines written out entry by entry.

    Each entry gets its own section; the six quadratic operators are the
    blocks of T* T and T T* expanded by hand, and system B is expanded term
    by term.  This is the independent oracle for the block-section route.
    """
    t = [truncate(p, order) for p in phis]
    ts = [x.adjoint() for x in t]
    t1 = ts[0] @ t[0] + ts[2] @ t[2]
    t2 = ts[0] @ t[1] + ts[2] @ t[3]
    t3 = ts[1] @ t[1] + ts[3] @ t[3]
    s1 = t[0] @ ts[0] + t[1] @ ts[1]
    s2 = t[0] @ ts[2] + t[1] @ ts[3]
    s3 = t[2] @ ts[2] + t[3] @ ts[3]
    x = s2 @ t2.adjoint()
    y = s2.adjoint() @ t2
    offdiag = (t1 @ s2 + t2 @ s3 - s1 @ t2 - s2 @ t3).window_max_abs()
    system_a = ((x - x.adjoint()).window_max_abs(), (y - y.adjoint()).window_max_abs(), offdiag)
    b1 = (t1 @ s1 + t2 @ s2.adjoint() - s1 @ t1 - s2 @ t2.adjoint()).window_max_abs()
    b2 = (t3 @ s3 + t2.adjoint() @ s2 - s3 @ t3 - s2.adjoint() @ t2).window_max_abs()
    normality = (
        (ts[2] @ t[2] - t[1] @ ts[1]).window_max_abs(),
        (ts[1] @ t[1] - t[2] @ ts[2]).window_max_abs(),
        (t2 - s2).window_max_abs(),
    )
    return system_a, (b1, b2, offdiag), normality


def _oracle_families(rng):
    """Commuting normal families with zero, constant and mixed-bandwidth entries."""
    def coeff():
        return complex(*rng.standard_normal(2)) / 2

    out = []
    for w in (0, 1, 2, 3):
        f = ScalarSymbol({n: coeff() for n in range(1, w + 1)})
        f = f + f.conj_reflect() + ScalarSymbol.constant(rng.standard_normal() / 2)
        for _ in range(6):
            pairs = [(coeff(), coeff()) for _ in range(4)]
            for k in rng.choice(4, size=rng.integers(0, 3), replace=False):
                # alpha = 0 gives a constant entry, alpha = beta = 0 a zero one
                pairs[k] = (0.0, 0.0 if rng.random() < 0.5 else coeff())
            out.append(commuting_normal_family(f, pairs))
        a, b = commuting_normal_family(f, [(coeff(), coeff()), (coeff(), coeff())])
        out += [[ZERO, a, b, ZERO], [a, ZERO, ZERO, b]]  # binormal corner shapes
    return out


def test_condition_system_matches_the_entry_level_oracle():
    rng = np.random.default_rng(39)
    families = _oracle_families(rng)
    held = 0
    for phis in families:
        rep = block2_condition_system(phis, 1e-8)
        system_a, system_b, normality = _entry_level_residuals(phis, rep.order)
        expected = {
            "system_a_holds": all(r <= 1e-8 for r in system_a),
            "system_b_holds": all(r <= 1e-8 for r in system_b),
            "normality_holds": all(r <= 1e-8 for r in normality),
        }
        expected["binormal_consistent"] = expected["system_a_holds"] == (
            rep.binormal_report.verdict == VERDICT_CLEAN)
        expected["normal_consistent"] = expected["normality_holds"] == (
            rep.normal_report.verdict == VERDICT_CLEAN)
        for got, want in ((rep.system_a, system_a), (rep.system_b, system_b),
                          (rep.normality, normality)):
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (got, want)
        normality_holds = all(r <= 1e-8 for r in rep.normality)
        flags = {
            "system_a_holds": rep.system_a_holds,
            "system_b_holds": all(r <= 1e-8 for r in rep.system_b),
            "normality_holds": normality_holds,
            "binormal_consistent": rep.binormal_consistent,
            "normal_consistent": normality_holds == (rep.normal_report.verdict == VERDICT_CLEAN),
        }
        assert flags == expected
        held += rep.system_a_holds
    assert 0 < held < len(families)


def test_condition_system_truncates_the_block_once(monkeypatch):
    calls = []
    real = classify.truncate

    def counted(symbol, order):
        calls.append(symbol)
        return real(symbol, order)

    monkeypatch.setattr(classify, "truncate", counted)
    rng = np.random.default_rng(40)
    block2_condition_system(_family(rng), 1e-8)
    assert len(calls) == 1
    assert isinstance(calls[0], MatrixSymbol) and calls[0].dim == 2


def _block(phis):
    return MatrixSymbol.from_entries([[phis[0], phis[1]], [phis[2], phis[3]]])


def _count_commutator_reports(monkeypatch):
    calls = []
    real = classify.commutator_report

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(classify, "commutator_report", counted)
    return calls


def _special_case_inputs(rng):
    a, b = _family(rng, 2)
    return {
        "cor52i": [ONE, a, b, ONE],
        "cor52ii": [a, ONE, ONE, b],
        "cor53ii": [a, ONE, ONE, a],
        "ex54a": [ZERO, ZERO, ONE + Z, ZERO],
        "ex54b": [ZERO, ONE, Z, ZERO],
    }


def test_block_checks_read_their_reports_from_the_section(monkeypatch):
    calls = _count_commutator_reports(monkeypatch)
    rng = np.random.default_rng(43)
    block2_condition_system(_family(rng), 1e-8)
    assert calls == []
    for case, phis in _special_case_inputs(rng).items():
        special_case_checks(phis, case, 1e-8)
        assert calls == [], case


def _assert_decided_at_8w_plus_1(block, prop, got):
    """``got`` (a report's JSON) is bitwise the commutator report of the block
    at 8w + 1, and its norm is the norm at order 64 within 1e-15 relative.

    A norm at rounding level (the exact value is 0) is noise from BLAS calls
    of different sizes, which round differently; there both norms must stay
    below 1e-12 m^p, m = sum ||Phi_n||_2 and p = 2 or 4 the degree of the
    normal or binormal commutator.
    """
    order = 8 * block.bandwidth + 1
    assert got["order"] == order
    assert got == commutator_report(block, prop, order, 1e-8).to_json()
    far = commutator_report(block, prop, 64, 1e-8)
    assert far.verdict == got["verdict"]
    m = sum(np.linalg.norm(c, 2) for _, c in block.items())
    noise = 1e-12 * m ** {"normal": 2, "binormal": 4}[prop]
    if far.window_norm > noise:
        assert abs(got["window_norm"] - far.window_norm) <= 1e-15 * far.window_norm
    else:
        assert got["window_norm"] <= noise


def test_block_check_reports_equal_the_commutator_report_of_the_block():
    rng = np.random.default_rng(44)
    for phis in _oracle_families(rng):
        block = _block(phis)
        rep = block2_condition_system(phis, 1e-8)
        assert rep.order == 8 * block.bandwidth + 1
        _assert_decided_at_8w_plus_1(block, "binormal", rep.binormal_report.to_json())
        _assert_decided_at_8w_plus_1(block, "normal", rep.normal_report.to_json())
    names = {"binormal_report": "binormal", "normal_report": "normal"}
    for _ in range(8):
        for case, phis in _special_case_inputs(rng).items():
            block = _block(phis)
            rep = special_case_checks(phis, case, 1e-8)
            assert rep["order"] == 8 * block.bandwidth + 1
            for key in names.keys() & rep.keys():
                _assert_decided_at_8w_plus_1(block, names[key], rep[key])


def test_condition_system_rejects_non_normal_entries():
    with pytest.raises(ValueError):
        block2_condition_system([Z, ONE, ONE, Z], 1e-8)


def test_block_checks_refuse_normal_entries_that_do_not_commute():
    # both normal, but the non-constant parts (1, 1) and (-i, i) at -1, 1
    # are not parallel: T(f) T(g) != T(g) T(f)
    f, g = F_REAL, ScalarSymbol({1: 1j, -1: -1j})
    with pytest.raises(ValueError, match="do not commute"):
        block2_condition_system([f, g, f, g], 1e-8)
    with pytest.raises(ValueError, match="do not commute"):
        special_case_checks([f, ONE, ONE, g], "cor52ii", 1e-8)


@pytest.mark.parametrize("s", [1e4, 1e5])
def test_block_checks_accept_scaled_commuting_normal_entries(s):
    # the hypothesis is a fact about coefficients, so scale cannot break it
    a, b, c, d = (s * p for p in _family(np.random.default_rng(45)))
    assert block2_condition_system([a, b, c, d], 1e-8).order == 9
    assert special_case_checks([a, ONE, ONE, b], "cor52ii", 1e-8)["order"] == 9


def test_condition_system_rejects_wrong_arity():
    with pytest.raises(ValueError):
        block2_condition_system([ONE, ONE], 1e-8)


# ---------------------------------------------------------------------------
# special cases


def test_special_case_lower_corner():
    rep = special_case_checks([ZERO, ZERO, ONE + Z, ZERO], "ex54a", 1e-8)
    assert rep["binormal_report"]["verdict"] == VERDICT_CLEAN
    assert rep["normal_report"]["verdict"] == VERDICT_VIOLATED


def test_special_case_lower_corner_structure_enforced():
    with pytest.raises(ValueError):
        special_case_checks([ONE, ZERO, Z, ZERO], "ex54a", 1e-8)


def test_special_case_antidiagonal_with_shift():
    rep = special_case_checks([ZERO, ONE, Z, ZERO], "ex54b", 1e-8)
    assert rep["binormal_report"]["verdict"] == VERDICT_CLEAN
    # T_z is a non-unitary isometry: the normality defect shows on the window
    assert rep["unitary_like"] is False
    assert rep["normal_report"]["verdict"] == VERDICT_VIOLATED
    assert rep["consistent"] is True


def test_special_case_antidiagonal_with_unimodular_constant():
    rep = special_case_checks([ZERO, ONE, ONE, ZERO], "ex54b", 1e-8)
    assert rep["binormal_report"]["verdict"] == VERDICT_CLEAN
    assert rep["unitary_like"] is True
    assert rep["normal_report"]["verdict"] == VERDICT_CLEAN
    assert rep["consistent"] is True


def test_special_case_real_sum_condition():
    rng = np.random.default_rng(36)
    a, b = _family(rng, 2)
    # phi_1 + conj-reflect(phi_4) = 2 Re(alpha) f + 2 Re(beta) when phi_4 = phi_1
    rep = special_case_checks([a, ONE, ONE, a], "cor53ii", 1e-8)
    assert rep["real_valued"] is True
    assert rep["normal_report"]["verdict"] == VERDICT_CLEAN
    assert rep["consistent"] is True

    # scaling by i breaks real-valuedness and normality together
    rep = special_case_checks([1j * a, ONE, ONE, ZERO], "cor53ii", 1e-8)
    assert rep["real_valued"] is False
    assert rep["normal_report"]["verdict"] == VERDICT_VIOLATED
    assert rep["consistent"] is True


def test_special_case_real_sum_requires_commuting_normal_entries():
    with pytest.raises(ValueError):
        special_case_checks([Z, ONE, ONE, Z], "cor53ii", 1e-8)


def test_special_case_identity_diagonal():
    rng = np.random.default_rng(37)
    a, b = _family(rng, 2)
    rep = special_case_checks([ONE, a, b, ONE], "cor52i", 1e-8)
    assert rep["consistent"] is True
    rep = special_case_checks([a, ONE, ONE, b], "cor52ii", 1e-8)
    assert rep["consistent"] is True


def test_special_case_identity_diagonal_binormal_instance():
    # phi_3 = conj-reflect(phi_2) makes the displayed identity vanish
    rng = np.random.default_rng(38)
    a, _ = _family(rng, 2)
    rep = special_case_checks([ONE, a, a.conj_reflect(), ONE], "cor52i", 1e-8)
    assert rep["identity_holds"] is True
    assert rep["binormal_report"]["verdict"] == VERDICT_CLEAN
    assert rep["consistent"] is True


def test_special_case_shapes_demand_exact_ones():
    # 1 + 1e-13 is not 1, as 1e-13 is not 0 for ex54a
    near_one = ScalarSymbol.constant(1.0 + 1e-13)
    a, b = _family(np.random.default_rng(42), 2)
    with pytest.raises(ValueError, match="phi_1 = phi_4 = 1"):
        special_case_checks([near_one, a, b, ONE], "cor52i", 1e-8)
    with pytest.raises(ValueError, match="phi_2 = phi_3 = 1"):
        special_case_checks([a, ONE, near_one, b], "cor52ii", 1e-8)
    with pytest.raises(ValueError, match="phi_2 = 1"):
        special_case_checks([ZERO, near_one, Z, ZERO], "ex54b", 1e-8)
    with pytest.raises(ValueError, match="phi_1 = 0"):
        special_case_checks([ScalarSymbol.constant(1e-13), ZERO, ONE + Z, ZERO], "ex54a", 1e-8)


def test_special_case_rejects_unknown_case():
    with pytest.raises(ValueError):
        special_case_checks([ONE, ONE, ONE, ONE], "cor99", 1e-8)


def test_special_case_reports_keep_their_keys_in_order():
    rng = np.random.default_rng(41)
    a, b = _family(rng, 2)
    head = ["case", "order", "tolerance"]
    cases = {
        "cor52i": ([ONE, a, b, ONE],
                   ["identity_residual", "identity_holds", "binormal_report", "consistent"]),
        "cor52ii": ([a, ONE, ONE, b],
                    ["skew_balance_residual", "square_selfadjoint_residual", "identity_holds",
                     "binormal_report", "consistent"]),
        "cor53ii": ([a, ONE, ONE, a],
                    ["real_valued_residual", "real_valued", "normal_report", "consistent"]),
        "ex54a": ([ZERO, ZERO, ONE + Z, ZERO], ["binormal_report", "normal_report"]),
        "ex54b": ([ZERO, ONE, Z, ZERO],
                  ["unitary_window_residual", "unitary_like", "binormal_report",
                   "normal_report", "consistent"]),
    }
    for case, (phis, keys) in cases.items():
        rep = special_case_checks(phis, case, 1e-8)
        assert list(rep) == head + keys
        order = 8 * _block(phis).bandwidth + 1
        assert (rep["case"], rep["order"], rep["tolerance"]) == (case, order, 1e-8)
