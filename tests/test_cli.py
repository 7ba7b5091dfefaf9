"""Command-line interface: reports, exit codes, determinism, file formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import airy_gap
from airy_gap import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def strip_timing(report_text):
    payload = json.loads(report_text)
    payload.pop("timing_seconds")
    return payload


# ---------------------------------------------------------------------------
# det
# ---------------------------------------------------------------------------

def test_det_basic_report(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.0]})
    code, out, _ = run(["det", cfg, "--nodes", "24", "--refine", "2"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["command"] == "det"
    labels = {r["label"]: r["value"] for r in payload["results"]}
    assert abs(labels["log_f"] + 0.8837651153091381) < 1e-8
    assert labels["converged"] == 1.0
    assert len(payload["convergence"]) == 3
    assert [n for n, _ in payload["convergence"]] == [24, 48, 96]


def test_det_trivial_weights(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -3.0], "s": [1.0, 1.0]})
    code, out, _ = run(["det", cfg], capsys)
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0 and labels["log_f"] == 0.0


def test_det_rejects_bad_ordering(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-3.0, -1.0], "s": [0.5, 0.5]})
    code, _, err = run(["det", cfg], capsys)
    assert code == 2
    assert "endpoints must be strictly decreasing" in err


def test_det_refuses_deep_gap_with_exit_4(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-13.0], "s": [0.0]})
    code, out, err = run(["det", cfg], capsys)
    assert code == 4 and out == ""
    assert "Cholesky pivot" in err and "80-bit arithmetic cannot resolve" in err


def test_det_missing_file(capsys):
    code, _, err = run(["det", "/nonexistent/config.json"], capsys)
    assert code == 3


def test_config_validation_rules(tmp_path, capsys):
    # both s and beta
    cfg = write_config(tmp_path, {"x": [-1.0], "s": [0.5], "beta": ["0.1i"]})
    assert run(["det", cfg], capsys)[0] == 2
    # inconsistent x vs r*tau
    cfg = write_config(tmp_path, {"x": [-3.0], "tau": [-1.0], "r": 2.0, "s": [0.5]})
    assert run(["det", cfg], capsys)[0] == 2
    # m mismatch
    cfg = write_config(tmp_path, {"m": 2, "x": [-1.0], "s": [0.5]})
    assert run(["det", cfg], capsys)[0] == 2
    # unknown field
    cfg = write_config(tmp_path, {"x": [-1.0], "s": [0.5], "frobnicate": 1})
    assert run(["det", cfg], capsys)[0] == 2
    # malformed JSON
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["det", str(path)], capsys)[0] == 2


@pytest.mark.parametrize("argv, config, field", [
    (["det"], {"x": -2, "s": [0.5]}, "x"),
    (["det"], {"x": [-2], "s": 0.5}, "s"),
    (["det"], {"tau": -1, "r": 2, "s": [0.5]}, "tau"),
    (["det"], {"x": [None], "s": [0.5]}, "x"),
    (["det"], {"x": [-2], "s": [0.5], "r": [1]}, "r"),
    (["det"], {"x": [float("nan")], "s": [0.5]}, "x"),
    (["det"], {"x": [-2], "beta": 0.3}, "beta"),
    (["det"], {"x": [-2], "beta": "0.1i"}, "beta"),
    (["det"], {"m": None, "x": [-2], "s": [0.5]}, "m"),
    (["det", "--tail", "inf"], {"x": [-2], "s": [0.5]}, "tail"),
    (["det", "--tail", "nan"], {"x": [-2], "s": [0.5]}, "tail"),
    (["det", "--refine", "9"], {"x": [-2], "s": [0.5]}, "refine"),
    (["compare", "--r-list", "nan"], {"tau": [-1.0], "s": [0.5]}, "r-list"),
    (["compare", "--r-list", "2,inf"], {"tau": [-1.0], "s": [0.5]}, "r-list"),
    (["parametrix", "--model", "chg", "--beta", "nani"], None, "beta"),
    (["parametrix", "--model", "chg", "--beta", "infi"], None, "beta"),
    (["sweep", "--vary", "nodes", "--values", "16.9,24", "--out", os.devnull],
     {"x": [-2], "s": [0.5]}, "--values"),
    (["sweep", "--vary", "s_x", "--values", "0.5", "--out", os.devnull],
     {"x": [-2], "s": [0.5]}, "malformed field 's_x'"),
    (["sweep", "--vary", "r", "--values", "3", "--out", os.devnull],
     {"x": [-2], "s": [0.5]}, "tau"),
], ids=["x-scalar", "s-scalar", "tau-scalar", "x-null", "r-as-list", "x-nan", "beta-scalar",
        "beta-string", "m-null", "tail-inf", "tail-nan", "refine-9", "r-list-nan", "r-list-inf",
        "beta-nan", "beta-inf", "sweep-nodes-fraction", "sweep-index-malformed",
        "sweep-r-without-tau"])
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, argv, config, field):
    if config is not None:
        argv = argv[:1] + [write_config(tmp_path, config)] + argv[1:]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("flags, size", [(["--nodes", "64", "--refine", "6"], 16384),
                                         (["--tail", "5000"], 60000)])
def test_det_refuses_oversized_discretization(tmp_path, capsys, monkeypatch, flags, size):
    # N is checked before any matrix exists: reaching one fails the test at once
    def no_matrix(*args, **kwargs):
        raise AssertionError("a determinant matrix was built")

    monkeypatch.setattr(cli.fredholm, "logdet_single", no_matrix)
    monkeypatch.setattr(cli.fredholm, "_kernel_matrix", no_matrix)
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    code, out, err = run(["det", cfg, *flags], capsys)
    assert code == 2 and out == ""
    assert f"N = {size}" in err


def test_json_report_unwritable_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    code, _, err = run(["det", cfg, "--nodes", "16", "--refine", "1",
                        "--json", str(tmp_path / "missing-dir" / "r.json")], capsys)
    assert code == 3 and err.startswith("i/o error: ")


def test_tau_r_parametrization(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0], "r": 2.0, "s": [0.0]})
    code, out, _ = run(["det", cfg, "--nodes", "24", "--refine", "1"], capsys)
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0
    assert abs(labels["log_f"] + 0.8837651153091381) < 1e-8


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_thinned_route(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0, -2.0], "beta": ["-0.2i", "-0.2i"]})
    out_csv = tmp_path / "cmp.csv"
    code, out, _ = run(["compare", cfg, "--r-list", "4,6", "--nodes", "32",
                        "--out", str(out_csv)], capsys)
    assert code == 0
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert labels["gap_final"] < 0.05
    lines = out_csv.read_bytes().decode().splitlines()
    assert lines[0] == "r,log_numeric,log_asymptotic,gap,gap_r32_over_logr"
    assert len(lines) == 3


def test_compare_conditioned_route(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0, -2.0], "s": [0.0, 0.5]})
    code, out, _ = run(["compare", cfg, "--r-list", "4,5", "--nodes", "24"], capsys)
    assert code == 0
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert labels["gap_final"] < 0.1


def test_compare_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0, -2.0], "s": [0.5, 0.5]})
    assert run(["compare", cfg, "--r-list", ""], capsys)[0] == 2
    assert run(["compare", cfg, "--r-list", "6,4"], capsys)[0] == 2
    cfg_x = write_config(tmp_path, {"x": [-1.0], "s": [0.5]}, "x_only.json")
    assert run(["compare", cfg_x, "--r-list", "4,6"], capsys)[0] == 2


@pytest.mark.parametrize("x", ([-5.0, -1.0], [-1.0, -5.0]))
def test_config_rejects_x_with_tau_but_no_r(tmp_path, capsys, x):
    # without r nothing ties x to tau, and compare would run on tau alone
    cfg = write_config(tmp_path, {"x": x, "tau": [-1.0, -2.0], "s": [0.5, 0.5]})
    code, _, err = run(["compare", cfg, "--r-list", "2,3"], capsys)
    assert code == 2
    assert "needs r" in err


def test_compare_trivial_parameters_tiny_gap(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0], "s": [1.0]})
    code, out, _ = run(["compare", cfg, "--r-list", "4,6", "--nodes", "16"], capsys)
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0
    assert labels["gap_final"] < 1e-8


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_stats_halfline(tmp_path, capsys):
    code, out, _ = run(["stats", "--x", "-10"], capsys)
    assert code == 0
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert labels["mean_gap"] < 0.02
    assert labels["var_gap"] < 0.05


def test_stats_interval(tmp_path, capsys):
    code, out, _ = run(["stats", "--interval", "-20", "-10"], capsys)
    assert code == 0
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert labels["additivity_residual"] < 1e-9
    assert labels["halfline_cov_gap"] < 0.05
    assert labels["interval_var_gap"] < 0.05


def test_stats_validation(capsys):
    assert run(["stats"], capsys)[0] == 2
    assert run(["stats", "--x", "-3", "--interval", "-3", "-1"], capsys)[0] == 2
    assert run(["stats", "--interval", "-1", "-3"], capsys)[0] == 2
    assert run(["stats", "--x", "2.0"], capsys)[0] == 2


# ---------------------------------------------------------------------------
# parametrix
# ---------------------------------------------------------------------------

def test_parametrix_airy(capsys):
    code, out, _ = run(["parametrix", "--model", "airy"], capsys)
    assert code == 0
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert labels["jump_max"] < 1e-9
    assert labels["det_max"] < 1e-10
    assert labels["coeff_error"] < 1e-5


def test_parametrix_bessel(capsys):
    code, out, _ = run(["parametrix", "--model", "bessel"], capsys)
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0
    assert labels["coeff_error"] < 1e-5


def test_parametrix_chg(capsys):
    code, out, _ = run(["parametrix", "--model", "chg", "--beta", "0.3i"], capsys)
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    assert code == 0
    assert labels["jump_max"] < 1e-7
    assert labels["coeff_error"] < 1e-4
    assert labels["logderivative_error"] < 1e-4


def test_parametrix_validation(capsys):
    assert run(["parametrix", "--model", "chg"], capsys)[0] == 2
    assert run(["parametrix", "--model", "chg", "--beta", "0.9i"], capsys)[0] == 2
    assert run(["parametrix", "--model", "chg", "--beta", "1+2i"], capsys)[0] == 2
    assert run(["parametrix", "--model", "airy", "--beta", "0.1i"], capsys)[0] == 2


def test_parse_imag_variants():
    assert cli.parse_imag("0.3i") == 0.3j
    assert cli.parse_imag("-0.25j") == -0.25j
    assert cli.parse_imag("0.4") == 0.4j
    with pytest.raises(cli.ValidationError):
        cli.parse_imag("1+1j")
    with pytest.raises(cli.ValidationError):
        cli.parse_imag("abc")


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_nodes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.0]})
    out_csv = tmp_path / "nodes.csv"
    code, out, _ = run(["sweep", cfg, "--vary", "nodes", "--values", "16,24,32",
                        "--out", str(out_csv)], capsys)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "nodes,log_f,est_error"
    assert len(lines) == 4


def test_sweep_weight_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -4.0], "s": [0.5, 0.5]})
    out_csv = tmp_path / "s2.csv"
    code, _, _ = run(["sweep", cfg, "--vary", "s_2", "--values", "0.4,0.6",
                      "--nodes", "24", "--out", str(out_csv)], capsys)
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "s_2,log_f,log_asymptotic,gap"
    assert len(rows) == 3


def test_sweep_weight_field_of_conditioned_config(tmp_path, capsys):
    # s_1 = 0 has no unconditioned expansion: its columns are left nan
    cfg = write_config(tmp_path, {"x": [-2.0, -4.0], "s": [0.0, 0.5]})
    out_csv = tmp_path / "s2.csv"
    code, _, _ = run(["sweep", cfg, "--vary", "s_2", "--values", "0.4",
                      "--nodes", "16", "--out", str(out_csv)], capsys)
    assert code == 0
    header, row = out_csv.read_text().splitlines()
    assert header == "s_2,log_f,log_asymptotic,gap"
    value, log_f, log_asym, gap = row.split(",")
    assert float(value) == 0.4 and math.isfinite(float(log_f))
    assert log_asym == gap == "nan"


def test_sweep_r_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0], "s": [0.3]})
    out_csv = tmp_path / "r.csv"
    code, _, _ = run(["sweep", cfg, "--vary", "r", "--values", "3,4",
                      "--nodes", "24", "--out", str(out_csv)], capsys)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 3


def test_sweep_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    out_csv = str(tmp_path / "o.csv")
    assert run(["sweep", cfg, "--vary", "nodes", "--values", "", "--out", out_csv], capsys)[0] == 2
    assert run(["sweep", cfg, "--vary", "zeta", "--values", "1", "--out", out_csv], capsys)[0] == 2
    assert run(["sweep", cfg, "--vary", "s_7", "--values", "0.5", "--out", out_csv], capsys)[0] == 2
    code, _, _ = run(["sweep", cfg, "--vary", "nodes", "--values", "8,16",
                      "--out", "/nonexistent-dir/out.csv"], capsys)
    assert code == 3


def test_sweep_respects_thread_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AIRY_GAP_THREADS", "2")
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    out_csv = tmp_path / "t.csv"
    code, _, _ = run(["sweep", cfg, "--vary", "nodes", "--values", "8,12,16",
                      "--out", str(out_csv)], capsys)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 4
    monkeypatch.setenv("AIRY_GAP_THREADS", "zero")
    assert run(["sweep", cfg, "--vary", "nodes", "--values", "8",
                "--out", str(out_csv)], capsys)[0] == 2


def test_sweep_rejects_index_with_underscore(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -3.0], "s": [0.5, 0.5]})
    out_csv = str(tmp_path / "o.csv")
    code, _, err = run(["sweep", cfg, "--vary", "s_1_0", "--values", "0.4", "--out", out_csv],
                       capsys)
    assert code == 2 and "out of range" in err


def test_sweep_csv_independent_of_thread_count(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"x": [-2.0, -3.0, -4.5], "s": [0.5, 0.5, 0.3]})
    csvs = []
    for threads in ("1", "2"):
        monkeypatch.setenv("AIRY_GAP_THREADS", threads)
        out_csv = tmp_path / f"threads{threads}.csv"
        code, _, _ = run(["sweep", cfg, "--vary", "s_2", "--values", "0.1,0.3,0.5,0.7",
                          "--nodes", "24", "--out", str(out_csv)], capsys)
        assert code == 0
        csvs.append(out_csv.read_bytes())
    assert csvs[0] == csvs[1]
    assert len(csvs[0].splitlines()) == 5


# ---------------------------------------------------------------------------
# determinism and serialization
# ---------------------------------------------------------------------------

def test_reports_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -3.5], "s": [0.4, 0.8]})
    _, out1, _ = run(["det", cfg, "--nodes", "24"], capsys)
    _, out2, _ = run(["det", cfg, "--nodes", "24"], capsys)
    assert strip_timing(out1) == strip_timing(out2)
    assert json.dumps(strip_timing(out1), sort_keys=True) == json.dumps(strip_timing(out2), sort_keys=True)


def test_csv_deterministic_bytes(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.0]})
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["sweep", cfg, "--vary", "nodes", "--values", "16,24", "--out", str(a)], capsys)
    run(["sweep", cfg, "--vary", "nodes", "--values", "16,24", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_json_file_output(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    json_path = tmp_path / "report.json"
    code, out, _ = run(["det", cfg, "--nodes", "16", "--json", str(json_path)], capsys)
    assert code == 0
    on_disk = json.loads(json_path.read_text())
    assert strip_timing(out) == {k: v for k, v in on_disk.items() if k != "timing_seconds"}


def test_csv_seventeen_digit_roundtrip(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.0]})
    out_csv = tmp_path / "x.csv"
    run(["sweep", cfg, "--vary", "nodes", "--values", "24", "--out", str(out_csv)], capsys)
    header, row = out_csv.read_text().splitlines()[:2]
    log_f = float(row.split(",")[1])
    from airy_gap import fredholm as fr
    ref = fr.log_det(fr.GapConfig((-2.0,), (0.0,)), nodes_per_panel=24, refine=1).log_f
    assert log_f == ref  # 17 significant digits round-trip doubles exactly


def test_sweep_beta_field(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -4.0], "s": [0.5, 0.5]})
    out_csv = tmp_path / "b1.csv"
    # negative comma lists need the = form so argparse keeps them as values
    code, _, _ = run(["sweep", cfg, "--vary", "beta_1", "--values=-0.1,-0.2",
                      "--nodes", "24", "--out", str(out_csv)], capsys)
    assert code == 0
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "beta_1,log_f,log_asymptotic,gap"
    assert len(rows) == 3
    # s_1 = 0 configs cannot sweep a jump parameter
    cfg0 = write_config(tmp_path, {"x": [-2.0, -4.0], "s": [0.0, 0.5]}, "zero.json")
    assert run(["sweep", cfg0, "--vary", "beta_2", "--values=-0.1",
                "--out", str(out_csv)], capsys)[0] == 2


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------

_IMPORT_GUARD = """
import json, sys
from pathlib import Path
import airy_gap
assert "scipy" not in sys.modules, "import airy_gap"
from airy_gap import cli
tmp = Path(sys.argv[1])
(tmp / "x.json").write_text(json.dumps({"x": [-2.0, -3.0], "s": [0.5, 0.5]}))
(tmp / "tau.json").write_text(json.dumps({"tau": [-1.0, -1.6], "s": [0.4, 0.7]}))
for argv in (["det", str(tmp / "x.json"), "--nodes", "16", "--refine", "1"],
             ["compare", str(tmp / "tau.json"), "--r-list", "2,3", "--nodes", "16"],
             ["stats", "--x", "-2.5", "--nodes", "16"],
             ["stats", "--interval", "-4", "-1", "--nodes", "16"],
             ["sweep", str(tmp / "x.json"), "--vary", "s_2", "--values", "0.3,0.6",
              "--nodes", "16", "--out", str(tmp / "sweep.csv")]):
    assert cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
assert cli.main(["parametrix", "--model", "bessel"]) == 0
assert "scipy.special" in sys.modules
"""


def test_scipy_loaded_only_by_complex_argument_commands(tmp_path):
    # scipy.special is most of the import time; only parametrix needs it
    src = str(Path(airy_gap.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
