from pathlib import Path

import pytest

from toeplab.suite import (
    ALL_CRITERIA,
    criterion_condition_system,
    criterion_conjugation_identity,
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


@pytest.mark.parametrize("seed", [1, 41, 501])
@pytest.mark.parametrize("criterion", [criterion_conjugation_identity, criterion_condition_system])
def test_section_criteria_pass_at_other_seeds(criterion, seed):
    result = criterion(seed)
    assert result.passed, result.details
