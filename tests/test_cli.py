import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from toeplab import cli, dilation

# a 2 x 2 circulant with bandwidth w = 2: the binormal product's margin is 4w = 8
CIRCULANT = {
    "circulant": 2,
    "row": [
        {"dim": 1, "coeffs": {"2": [[[1.0, 0.0]]], "0": [[[0.5, 0.0]]]}},
        {"dim": 1, "coeffs": {"-2": [[[0.3, 0.1]]], "1": [[[1.0, 0.0]]]}},
    ],
}


def _write_input(tmp_path, obj=CIRCULANT, name="circ.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def _run(tmp_path, *args):
    """(exit code, parsed report) of one in-process run writing to --out."""
    out = tmp_path / "report.json"
    code = cli.main([*args, "--out", str(out)])
    report = json.loads(out.read_text(encoding="utf-8")) if code == cli.EXIT_OK else None
    return code, report


def test_reduce_reports_at_order_4w(tmp_path):
    out = tmp_path / "reduce.json"
    code = cli.main(["reduce", "--input", _write_input(tmp_path), "--order", "8",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert len(report["projectors"]) == 2
    assert all(p["verdict"] == "reducing" for p in report["projectors"])


def test_probe_t41_reports_at_order_4w(tmp_path):
    out = tmp_path / "probe.json"
    code = cli.main(["probe-t41", "--input", _write_input(tmp_path), "--order", "8",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["order"] == 8


def test_probe_t41_refuses_an_order_above_the_budget(tmp_path, capsys, monkeypatch):
    def no_section(*args):
        raise AssertionError("a section was built")

    monkeypatch.setattr(dilation, "truncate", no_section)
    for order in ("2049", "100000"):
        code, _ = _run(tmp_path, "probe-t41", "--input", _write_input(tmp_path), "--order", order)
        assert code == cli.EXIT_PARSE
        assert "MiB budget" in capsys.readouterr().err


@pytest.mark.parametrize("prop,margin", [("normal", 4), ("quasinormal", 6), ("binormal", 8)])
def test_check_reports_at_the_exact_order_of_its_product(tmp_path, prop, margin):
    code, report = _run(tmp_path, "check", "--input", _write_input(tmp_path), "--property", prop)
    assert code == cli.EXIT_OK
    assert set(report) == {"meta", "property", "report"}
    # order 2W + 1 leaves a window of W + 1 blocks of size 2
    assert report["report"]["order"] == 2 * margin + 1
    assert report["report"]["window_limit"] == (margin + 1) * 2
    assert report["report"]["property"] == prop


def test_check_normal_just_above_its_margin(tmp_path):
    # a constant symbol has w = 0, so its exact order 2W + 1 = 1 sits just above the
    # normal product's margin 0: one exact block in the window
    nilpotent = {"dim": 2, "coeffs": {"0": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}}
    code, report = _run(tmp_path, "check", "--input", _write_input(tmp_path, nilpotent, "n.json"),
                        "--property", "normal")
    assert code == cli.EXIT_OK
    assert report["report"]["order"] == 1
    assert report["report"]["window_limit"] == 2
    assert report["report"]["verdict"] == "violated"


def test_check_takes_no_order(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--input", _write_input(tmp_path), "--property", "normal",
                  "--order", "9"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "--order" in capsys.readouterr().err


def test_an_overflowing_check_exits_2_without_a_verdict(tmp_path, capsys):
    # 1e77 (1 + z) is not binormal, but its binormal product overflows; so does
    # the normal product of a 2 x 2 block symbol with entries at 1e300
    scalar = {"dim": 1, "coeffs": {"0": [[[1e77, 0.0]]], "1": [[[1e77, 0.0]]]}}
    block = {"dim": 2, "coeffs": {"1": [[[1e300, 0], [0, 0]], [[0, 0], [1, 0]]],
                                  "-1": [[[1, 0], [0, 0]], [[0, 0], [1e300, 0]]]}}
    out = tmp_path / "report.json"
    for big, prop in ((scalar, "binormal"), (block, "normal")):
        code = cli.main(["check", "--input", _write_input(tmp_path, big, "big.json"),
                         "--property", prop, "--out", str(out)])
        assert code == cli.EXIT_PARSE
        # the refusal alone: no numpy overflow warning before it
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("toeplab: input error:") and "non-finite" in err[0]
        assert out.read_text(encoding="utf-8") == ""


def test_check_refuses_a_section_over_the_memory_budget(tmp_path, capsys):
    # z^100000: the binormal product's strips alone would take 2.33 TiB
    path = _write_input(tmp_path, {"dim": 1, "coeffs": {"100000": [[[1.0, 0.0]]]}}, "z.json")
    out = tmp_path / "report.json"
    for prop in ("binormal", "f-selfadjoint"):
        code = cli.main(["check", "--input", path, "--property", prop, "--out", str(out)])
        assert code == cli.EXIT_PARSE
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("toeplab: input error:") and "'toeplab classify'" in err[0]
        assert out.read_text(encoding="utf-8") == ""
    # the alternative the message names decides the same symbol
    code, report = _run(tmp_path, "classify", "--input", path)
    assert code == cli.EXIT_OK
    assert report["binormal"]["verdict"] == "binormal"


def test_suite_writes_its_report(tmp_path):
    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is True
    # criterion 9 is compared with the checkout's committed reference
    dilation = report["criteria"][8]
    assert dilation["id"] == 9
    assert dilation["details"]["reference_matches"] is True


def test_suite_report_records_its_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--out", str(out)]) == cli.EXIT_OK
    env = json.loads(out.read_text(encoding="utf-8"))["environment"]
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["blas_threads"]["MKL_NUM_THREADS"] is None
    assert set(env["blas_threads"]) == set(cli.BLAS_THREAD_VARIABLES)
    assert env["cpu_count"] == os.cpu_count()


def test_check_runs_an_8x8_circulant_at_its_exact_order(tmp_path):
    rng = np.random.default_rng(95)
    row = [{"dim": 1, "coeffs": {str(n): [[[float(x), float(y)]]]
                                 for n, (x, y) in zip((-1, 0, 2), rng.standard_normal((3, 2)))}}
           for _ in range(8)]
    circ = _write_input(tmp_path, {"circulant": 8, "row": row}, "circ8.json")
    code, report = _run(tmp_path, "check", "--input", circ, "--property", "binormal")
    assert code == cli.EXIT_OK
    assert report["report"]["order"] == 2 * 4 * 2 + 1
    assert report["report"]["window_limit"] == (4 * 2 + 1) * 8


def test_diagonalize_reports(tmp_path):
    code, report = _run(tmp_path, "diagonalize", "--input", _write_input(tmp_path))
    assert code == cli.EXIT_OK
    assert set(report) == {"meta", "n", "eigen_symbols", "max_residual"}
    assert report["n"] == 2 and len(report["eigen_symbols"]) == 2
    assert report["max_residual"] <= 1e-10


def test_diagonalize_reports_a_circulant_of_large_coefficients(tmp_path):
    # the residual is about 1e184: its Frobenius norm is taken at a scale
    # where the squares do not overflow
    big = {"circulant": 2, "row": [
        {"dim": 1, "coeffs": {"0": [[[1e200, 0.0]]], "1": [[[2e200, 0.0]]]}},
        {"dim": 1, "coeffs": {"0": [[[-3e200, 0.0]]], "1": [[[1e200, 0.0]]]}},
    ]}
    code, report = _run(tmp_path, "diagonalize", "--input", _write_input(tmp_path, big, "big.json"))
    assert code == cli.EXIT_OK
    assert 0.0 < report["max_residual"] <= 1e-14 * 1e200


def test_classify_reports_circulant_and_scalar(tmp_path):
    code, report = _run(tmp_path, "classify", "--input", _write_input(tmp_path))
    assert code == cli.EXIT_OK
    assert set(report) == {"meta", "kind", "aggregate", "per_eigenvalue"}
    assert report["kind"] == "circulant"

    scalar = {"dim": 1, "coeffs": {"1": [[[1.0, 0.0]]], "0": [[[0.5, 0.0]]]}}
    code, report = _run(tmp_path, "classify", "--input", _write_input(tmp_path, scalar, "z.json"))
    assert code == cli.EXIT_OK
    assert set(report) == {"meta", "kind", "binormal", "normal"}
    assert report["kind"] == "scalar"
    assert report["normal"]["verdict"] == "not_normal"

    # a 1 x 1 circulant is still classified as a circulant
    one = {"circulant": 1, "row": [scalar]}
    code, report = _run(tmp_path, "classify", "--input", _write_input(tmp_path, one, "c1.json"))
    assert code == cli.EXIT_OK
    assert report["kind"] == "circulant"


def test_classify_reports_a_tiny_symbol_by_its_coefficients(tmp_path):
    tiny = {"dim": 1, "coeffs": {"0": [[[1e-16, 0.0]]], "1": [[[1e-16, 0.0]]]}}
    code, report = _run(tmp_path, "classify", "--input", _write_input(tmp_path, tiny, "tiny.json"))
    assert code == cli.EXIT_OK
    assert report["binormal"]["verdict"] == "not_binormal"
    assert report["normal"]["verdict"] == "not_normal"


@pytest.mark.parametrize("coeffs", [
    {"3": [[[1e200, 0.0]]]},                          # |phi|^2 = 1e400 is no float
    {"1": [[[1e308, 0.0]]], "2": [[[1e308, 0.0]]]},  # nor is r_1 = 1e616
])
def test_classify_reports_an_extreme_scale_analytic_symbol(tmp_path, coeffs):
    path = _write_input(tmp_path, {"dim": 1, "coeffs": coeffs}, "big.json")
    code, report = _run(tmp_path, "classify", "--input", path)
    assert code == cli.EXIT_OK
    assert report["binormal"]["verdict"] == ("binormal" if len(coeffs) == 1 else "not_binormal")


def test_classify_reports_a_symbol_whose_relation_residual_overflows(tmp_path, capsys):
    # c_{-2} - gamma conj(c_2) = 1e308 - 1.5e308 i has a modulus beyond the
    # float range: not normal, with no traceback
    coeffs = {"1": [[[1.5e308, 0.0]]], "-1": [[[-1.5e308, 0.0]]],
              "2": [[[1e308, 0.0]]], "-2": [[[0.0, -1.5e308]]]}
    path = _write_input(tmp_path, {"dim": 1, "coeffs": coeffs}, "big.json")
    code, report = _run(tmp_path, "classify", "--input", path)
    assert code == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    assert report["normal"]["verdict"] == "not_normal" and report["normal"]["witness"]["index"] == 2
    assert report["binormal"]["verdict"] == "not_binormal"


@pytest.mark.parametrize("command", ["classify", "diagonalize"])
def test_a_circulant_whose_eigen_symbols_overflow_exits_2(tmp_path, capsys, command):
    # lambda_0 = 2e308 (1 + z): refused, not pruned to a zero symbol
    row = {"dim": 1, "coeffs": {"0": [[[1e308, 0.0]]], "1": [[[1e308, 0.0]]]}}
    path = _write_input(tmp_path, {"circulant": 2, "row": [row, row]}, "huge.json")
    assert cli.main([command, "--input", path]) == cli.EXIT_PARSE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("toeplab: input error:") and "float range" in err


def test_classify_reports_a_first_pair_of_far_apart_moduli(tmp_path):
    coeffs = {"1": [[[1e-300, 0.0]]], "-1": [[[1e300, 0.0]]], "0": [[[1.0, 0.0]]]}
    path = _write_input(tmp_path, {"dim": 1, "coeffs": coeffs}, "apart.json")
    code, report = _run(tmp_path, "classify", "--input", path)
    assert code == cli.EXIT_OK
    assert report["normal"]["verdict"] == "not_normal"
    assert report["binormal"]["verdict"] == "not_binormal"


def test_gamma_reports(tmp_path):
    code, report = _run(tmp_path, "gamma", "--input", _write_input(tmp_path))
    assert code == cli.EXIT_OK
    assert set(report) == {"meta", "n", "dilated", "roundtrip_max_diff"}
    assert report["n"] == 2 and report["dilated"]["circulant"] == 4
    assert report["roundtrip_max_diff"] == 0.0


def test_classify_rejects_a_boolean_dim(tmp_path, capsys):
    path = _write_input(tmp_path, {"dim": True}, "bad.json")
    assert cli.main(["classify", "--input", path]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("toeplab: input error:") and "dim" in err


def test_a_coefficient_key_that_is_not_canonical_exits_2(tmp_path, capsys):
    # "01" and "+1" would otherwise both read as index 1, keeping one coefficient
    obj = {"dim": 1, "coeffs": {"1": [[[1.0, 0.0]]], "01": [[[2.0, 0.0]]], "+1": [[[3.0, 0.0]]]}}
    path = _write_input(tmp_path, obj, "keys.json")
    assert cli.main(["classify", "--input", path]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("toeplab: input error:") and "'01'" in err


def test_f_selfadjoint_check_rejects_a_matrix_symbol(tmp_path, capsys):
    code = cli.main(["check", "--input", _write_input(tmp_path), "--property", "f-selfadjoint"])
    assert code == cli.EXIT_PARSE
    assert "scalar symbols only" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["normal", "quasinormal", "binormal", "f-selfadjoint"])
def test_a_1x1_circulant_checks_as_its_scalar_symbol(tmp_path, prop):
    entry = {"dim": 1, "coeffs": {"0": [[[0.5, 0.25]]], "1": [[[1.0, 0.0]]], "-2": [[[0.3, -0.1]]]}}
    _, scalar = _run(tmp_path, "check", "--input", _write_input(tmp_path, entry, "s.json"),
                     "--property", prop)
    code, circulant = _run(tmp_path, "check", "--input",
                           _write_input(tmp_path, {"circulant": 1, "row": [entry]}, "c.json"),
                           "--property", prop)
    assert code == cli.EXIT_OK
    assert circulant["report"] == scalar["report"]


@pytest.mark.parametrize("command", ["reduce", "probe-t41"])
def test_single_order_commands_reject_an_order_list(tmp_path, capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--input", _write_input(tmp_path), "--order", "8,16"])
    assert exc.value.code == cli.EXIT_PARSE
    assert "expected one truncation order" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reduce", "probe-t41"])
def test_single_order_commands_report_the_order_they_ran(tmp_path, command):
    code, report = _run(tmp_path, command, "--input", _write_input(tmp_path), "--order", "8")
    assert code == cli.EXIT_OK
    assert report["meta"]["order"] == 8
    assert report["order"] == 8


@pytest.mark.parametrize("argv", [
    ["classify", "--seed", "3"],
    ["diagonalize", "--tolerance", "1e-6"],
    ["gamma", "--order", "8"],
    ["suite", "--tolerance", "1"],
    ["suite", "--input", "x.json"],
])
def test_options_a_command_does_not_read_are_rejected(tmp_path, argv):
    if argv[0] != "suite":
        argv = [*argv, "--input", _write_input(tmp_path)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE


@pytest.mark.parametrize("command", ["check", "probe-t41", "reduce"])
@pytest.mark.parametrize("tolerance", ["-1", "nan", "inf", "-inf", "tight"])
def test_a_tolerance_that_is_not_finite_and_nonnegative_is_rejected(tmp_path, capsys, command,
                                                                    tolerance):
    argv = [command, "--input", _write_input(tmp_path), f"--tolerance={tolerance}"]
    argv += ["--property", "normal"] if command == "check" else ["--order", "9"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_PARSE
    assert "tolerance" in capsys.readouterr().err


def test_a_zero_tolerance_is_accepted(tmp_path):
    code, report = _run(tmp_path, "check", "--input", _write_input(tmp_path),
                        "--property", "normal", "--tolerance", "0")
    assert code == cli.EXIT_OK
    assert report["meta"]["tolerance"] == 0.0
    assert report["report"]["tolerance"] == 0.0


@pytest.mark.parametrize("argv", [
    ["check", "--property", "normal"],
    ["suite"],
])
def test_an_unwritable_out_exits_2_without_a_traceback(tmp_path, capsys, argv):
    if argv[0] != "suite":
        argv = [*argv, "--input", _write_input(tmp_path)]
    out = tmp_path / "missing" / "report.json"
    assert cli.main([*argv, "--out", str(out)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("toeplab: cannot write report:") and str(out) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,extra", [
    ("diagonalize", []),
    ("classify", []),
    ("gamma", []),
    ("check", ["--property", "normal"]),
    ("probe-t41", ["--order", "9"]),
    ("reduce", ["--order", "9"]),
])
def test_meta_records_only_the_options_the_command_takes(tmp_path, command, extra):
    path = _write_input(tmp_path)
    code, report = _run(tmp_path, command, "--input", path, *extra)
    assert code == cli.EXIT_OK
    meta = report["meta"]
    keys = {"tool", "version", "command", "input", "input_digest"}
    if extra:
        keys.add("tolerance")
        assert meta["tolerance"] == 1e-8
    if "--order" in extra:
        keys.add("order")
        assert meta["order"] == 9
    assert set(meta) == keys
    assert meta["command"] == command and meta["input"] == path


def test_check_writes_only_its_json_report(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["check", "--input", _write_input(tmp_path), "--property", "normal",
                     "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text(encoding="utf-8"))["report"]["order"] == 9
    assert sorted(p.name for p in tmp_path.iterdir()) == ["circ.json", "r.json"]


@pytest.mark.parametrize("argv,work", [
    (["check", "--property", "normal"], "commutator_report"),
    (["suite"], "run_suite"),
])
def test_an_unwritable_out_is_refused_before_any_work(tmp_path, monkeypatch, argv, work):
    if argv[0] != "suite":
        argv = [*argv, "--input", _write_input(tmp_path)]
    calls = []
    real = getattr(cli, work)
    monkeypatch.setattr(cli, work, lambda *a, **k: calls.append(a) or real(*a, **k))
    assert cli.main([*argv, "--out", str(tmp_path / "missing" / "report.json")]) == cli.EXIT_PARSE
    assert calls == []
    if work == "commutator_report":  # the same run with a writable --out does the work once
        assert cli.main([*argv, "--out", str(tmp_path / "report.json")]) == cli.EXIT_OK
        assert len(calls) == 1


@pytest.mark.parametrize("text", [
    '{"dim": 1, "coeffs": {"0": [[' + json.dumps(list(range(100_000))) + "]]}}",
    '{"dim": 1, "coeffs": {"0": [[' + "[" * 950 + "]" * 950 + "]]}}",
    '{"dim": ' + json.dumps(list(range(100_000))) + "}",
    '{"circulant": ' + json.dumps(list(range(100_000))) + ', "row": []}',
], ids=["wide-pair", "deep-pair", "wide-dim", "wide-circulant-size"])
def test_a_malformed_value_is_echoed_in_a_short_line(tmp_path, text):
    # a fresh interpreter, as a user runs it: inside pytest's deeper stack
    # the 950-deep pair would already be refused as nested too deeply
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "toeplab.cli", "classify", "--input", str(path)],
                          capture_output=True, env=env, timeout=120)
    err = proc.stderr.decode("utf-8")
    assert (proc.returncode, proc.stdout) == (cli.EXIT_PARSE, b"")
    assert len(proc.stderr) < 1024
    assert "must be a positive integer" in err or "expected an [re, im] pair" in err
    assert err.endswith("…\n")


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,
    '{"dim": 1, "coeffs": {"0": ' + "[" * 50_000 + "]" * 50_000 + "}}",
], ids=["list", "coefficient"])
def test_a_deeply_nested_input_exits_2_without_a_traceback(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["classify", "--input", str(path)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"toeplab: input error: {path}: JSON nested too deeply\n"
