"""Tests of how check-grid judges a commutator report against its reference."""

from dataclasses import replace

import run
from workloads import KNOWN_DEFECTS, judge_window

toeplab = run.import_program()
ORDER = 32


def _affine_normal(s: float):
    """s * ((0.6+0.8i) f + 2 - i) with f real on the circle: a normal symbol."""
    c1, c2 = 0.37 + 0.51j, -0.29 + 0.43j
    f = toeplab.ScalarSymbol({-2: c2.conjugate(), -1: c1.conjugate(), 0: 0.123, 1: c1, 2: c2})
    return s * ((0.6 + 0.8j) * f + toeplab.ScalarSymbol.constant(2 - 1j))


def _norm_bound(phi) -> float:
    return sum(abs(c) for _, c in phi.items())


def _correct(check) -> bool:
    tally = run.Tally(KNOWN_DEFECTS)
    tally.add([check])
    return tally.counts()["correct"]


def test_rounding_level_violation_is_the_known_scale_defect():
    phi = _affine_normal(100.0)
    rep = toeplab.commutator_report(phi, "binormal", ORDER)
    assert rep.verdict == toeplab.toeplitz.VERDICT_VIOLATED
    check = judge_window(toeplab, rep, True, _norm_bound(phi), 0.0)
    assert (check.outcome, check.defect) == ("wrong", "scale-tolerance")
    assert _correct(check)


def test_large_violation_of_a_true_identity_makes_the_run_incorrect():
    phi = toeplab.ScalarSymbol({-1: 2.0, 1: 1.0})  # not normal: |c_1| != |c_-1|
    rep = toeplab.commutator_report(phi, "normal", ORDER)
    assert rep.window_norm > 1.0
    check = judge_window(toeplab, rep, True, 3.0, 0.0)
    assert (check.outcome, check.defect) == ("wrong", None)
    assert not _correct(check)


def test_violated_below_the_reports_own_tolerance_is_unexpected():
    rep = toeplab.commutator_report(toeplab.ScalarSymbol.constant(1.0), "normal", ORDER)
    assert rep.window_norm <= rep.tolerance
    rep = replace(rep, verdict=toeplab.toeplitz.VERDICT_VIOLATED)
    check = judge_window(toeplab, rep, True, 1.0, 0.0)
    assert check.defect is None
    assert not _correct(check)
