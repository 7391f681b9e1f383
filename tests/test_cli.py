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


def _write_input(tmp_path):
    path = tmp_path / "circ.json"
    path.write_text(json.dumps(CIRCULANT), encoding="utf-8")
    return str(path)


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
    assert json.loads(out.read_text(encoding="utf-8"))["passed"] is True
