from pathlib import Path

import pytest

from toeplab.suite import (
    ALL_CRITERIA,
    criterion_condition_system,
    criterion_conjugation_identity,
    criterion_dilation_probe,
    run_suite,
)

REFERENCE = Path(__file__).resolve().parents[1] / "reference" / "theorem41_gaps.json"


@pytest.fixture(scope="module")
def results():
    suite = run_suite(reference_path=str(REFERENCE))
    return {r.cid: r for r in suite.results}


@pytest.mark.parametrize("cid", range(1, 9), ids=[fn.__name__ for fn in ALL_CRITERIA[:8]])
def test_criterion_passes(results, cid):
    assert results[cid].passed, results[cid].details


def test_dilation_probe_matches_the_reference(results):
    assert results[9].passed
    assert results[9].details["reference_matches"] is True


def test_run_suite_times_every_criterion(results):
    assert all(r.elapsed > 0 for r in results.values())


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=[fn.__name__ for fn in ALL_CRITERIA])
def test_a_criterion_is_a_deterministic_claim(criterion):
    # no clock inside a criterion: two calls give equal results, elapsed included
    assert criterion() == criterion()


def test_dilation_probe_reads_the_committed_reference_by_default():
    result = criterion_dilation_probe()
    assert result.passed
    assert result.details["reference_matches"] is True


def test_dilation_probe_fails_without_its_reference(tmp_path):
    result = criterion_dilation_probe(reference_path=tmp_path / "missing.json")
    assert result.details["compression_exact"] is True
    assert result.details["reference_matches"] is False
    assert not result.passed


@pytest.mark.parametrize("seed", [1, 41, 501])
@pytest.mark.parametrize("criterion", [criterion_conjugation_identity, criterion_condition_system])
def test_section_criteria_pass_at_other_seeds(criterion, seed):
    result = criterion(seed)
    assert result.passed, result.details
