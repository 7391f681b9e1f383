"""One benchmark pass of each workload, judged as perfbench's run judges it.

perfbench/run.py rejects a change when a workload's share of failed checks
grows, so the outcomes of one pass are pinned here, as ceilings: check-grid
fails only by the known scale-tolerance defect, at most as often as today,
and symbol-corpus and the suite fail nowhere.  The workloads are imported
from perfbench/workloads.py and used as they are.
"""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

import toeplab
import toeplab.serialize
import toeplab.suite

ROOT = Path(__file__).resolve().parents[1]


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _pass(name: str, seed: int) -> list:
    workload = workloads.WORKLOADS[name](toeplab, ROOT)
    return workload.run_pass(workload.prepare(seed))


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", ["symbol-corpus", "suite"])
def test_every_check_of_a_pass_is_ok(name, seed):
    outcomes = Counter(check.outcome for check in _pass(name, seed))
    assert set(outcomes) == {workloads.OK}, outcomes


# the scale-tolerance failures of one check-grid pass of 54 checks, per seed
SCALE_TOLERANCE_CEILING = {1: 3, 2: 6, 3: 3, 4: 0, 5: 3, 6: 3, 7: 3, 8: 0, 9: 3, 10: 3}


@pytest.mark.parametrize("seed", sorted(SCALE_TOLERANCE_CEILING))
def test_check_grid_fails_only_by_the_known_scale_defect(seed):
    checks = _pass("check-grid", seed)
    failed = [c for c in checks if c.outcome in (workloads.WRONG, workloads.RAISED)]
    assert all(c.defect == "scale-tolerance" for c in failed), failed
    assert len(failed) <= SCALE_TOLERANCE_CEILING[seed]
