import json

from toeplab import cli

# a 2 x 2 circulant with bandwidth w = 2, so order 8 = 4w
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


def test_check_keeps_the_window_guard(tmp_path):
    # 8 <= 4w, the binormal product's margin: its exact window is empty
    code = cli.main(["check", "--input", _write_input(tmp_path), "--property", "binormal",
                     "--order", "8"])
    assert code == cli.EXIT_WINDOW


def test_check_normal_just_above_its_margin(tmp_path):
    # 5 > 2w, the normal product's margin: one exact block in the window
    out = tmp_path / "check.json"
    code = cli.main(["check", "--input", _write_input(tmp_path), "--property", "normal",
                     "--order", "5", "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["reports"][0]["window_limit"] == 2


def test_suite_writes_its_report(tmp_path):
    out = tmp_path / "suite.json"
    assert cli.main(["suite", "--out", str(out)]) == cli.EXIT_OK
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["passed"] is True
    # criterion 9 is compared with the checkout's committed reference
    dilation = report["criteria"][8]
    assert dilation["id"] == 9
    assert dilation["details"]["reference_matches"] is True


def test_diagonalize_reports(tmp_path):
    code, report = _run(tmp_path, "diagonalize", "--input", _write_input(tmp_path))
    assert code == cli.EXIT_OK
    assert set(report) == {"meta", "n", "eigen_symbols", "max_residual", "sample_count"}
    assert report["n"] == 2 and len(report["eigen_symbols"]) == 2
    assert report["max_residual"] <= 1e-10


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


def test_f_selfadjoint_check_rejects_a_matrix_symbol(tmp_path, capsys):
    code = cli.main(["check", "--input", _write_input(tmp_path), "--property", "f-selfadjoint"])
    assert code == cli.EXIT_PARSE
    assert "scalar symbols only" in capsys.readouterr().err
