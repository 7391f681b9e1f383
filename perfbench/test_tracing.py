"""Tests of the benchmark's tracer and of BENCHMARK.json's metric lists."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from tracing import SPAN_NAMES, Tracer, metric_specs

toeplab = run.import_program()


def _bindings() -> dict[tuple[str, str, str], object]:
    """Every attribute of every toeplab module and of every class they define."""
    out = {}
    for mod_name, module in list(sys.modules.items()):
        if not (mod_name == "toeplab" or mod_name.startswith("toeplab.")):
            continue
        for name, value in vars(module).items():
            out[(mod_name, "", name)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for attr, member in vars(value).items():
                    out[(mod_name, name, attr)] = member
    return out


def test_hand_counts_of_one_binormal_check():
    z = toeplab.ScalarSymbol.monomial(1)
    with Tracer() as tracer:
        tracer.mark_pass()
        report = toeplab.commutator_report(z, "binormal", 16)
    m = tracer.pass_metrics(0)
    assert report.verdict == "no_violation_up_to_window"
    assert m["toeplitz.commutator_report.calls"] == 1
    assert m["toeplitz.truncate.calls"] == 1
    assert m["toeplitz.ToeplitzTruncation.__matmul__.calls"] == 4
    assert m["toeplitz.matmul.gflop"] * 1e9 == 4 * 8 * 16**3
    assert m["toeplitz.truncate.mbytes"] * 1e6 == 16 * 16**2


def test_wrappers_cover_every_binding_and_are_all_restored():
    before = _bindings()
    truncate = toeplab.toeplitz.truncate
    report = toeplab.toeplitz.commutator_report
    with pytest.raises(TypeError, match="cannot render bool"):
        with Tracer() as tracer:
            tracer.mark_pass()
            for module in (toeplab.toeplitz, toeplab.classify, toeplab.reducing, toeplab.dilation):
                assert module.truncate.__wrapped__ is truncate
            for module in (toeplab, toeplab.classify, toeplab.suite):
                assert module.commutator_report.__wrapped__ is report
            assert toeplab.suite.ALL_CRITERIA[-1] is toeplab.suite.criterion_dilation_probe
            toeplab.MatrixSymbol.from_entries([[toeplab.ScalarSymbol.constant(1.0)]])
            toeplab.serialize.render_json({"flag": np.bool_(True)})
    m = tracer.pass_metrics(0)
    assert m["symbols.MatrixSymbol.from_entries.calls"] == 1
    assert m["serialize.render_json.raised"] == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), [k for k in before if after[k] is not before[k]]


def test_computed_counts_repeat_exactly():
    phi = toeplab.MatrixSymbol(2, {-1: np.eye(2), 1: np.ones((2, 2))})
    values = []
    for _ in range(2):
        with Tracer() as tracer:
            tracer.mark_pass()
            toeplab.commutator_report(phi, "quasinormal", 20)
            toeplab.reducing_projectors(toeplab.CirculantSymbol([toeplab.ScalarSymbol.constant(1.0)] * 2), 8)
        values.append({k: v for k, v in tracer.pass_metrics(0).items() if not k.endswith("self_s")})
    assert values[0] == values[1]
    assert values[0]["reducing.projector.mbytes"] * 1e6 == 2 * 16 * 16**2


def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == metric_specs()
    assert len(SPAN_NAMES) == len(set(SPAN_NAMES))
