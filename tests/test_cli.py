"""Command-line interface: reports, exit codes, determinism, file formats."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import airy_gap
from airy_gap import cli, fredholm


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
    code, out, _ = run(["det", cfg, "--nodes", "24"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema_version"] == cli.SCHEMA_VERSION
    assert payload["command"] == "det"
    labels = {r["label"]: r["value"] for r in payload["results"]}
    assert abs(labels["log_f"] + 0.8837651153091381) < 1e-8
    assert labels["converged"] == 1.0
    assert [n for n, _ in payload["convergence"]] == [24, 36]


@pytest.mark.parametrize("flags, orders", [([], [250, 375]), (["--nodes", "24"], [24, 36]),
                                           (["--nodes", "17"], [17, 26])])
def test_det_resolution_defaults_come_from_the_library(tmp_path, capsys, flags, orders):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.0]})
    code, out, _ = run(["det", cfg, *flags], capsys)
    assert code == 0
    assert [n for n, _ in json.loads(out)["convergence"]] == orders


def test_det_default_walks_the_nystrom_ladder_off_the_hard_gap(tmp_path, capsys):
    # the hard gap at x = -2 takes the Painleve II rungs (test above)
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    code, out, _ = run(["det", cfg], capsys)
    assert code == 0
    assert [n for n, _ in json.loads(out)["convergence"]] == [16, 24]


def test_det_on_a_hard_gap_prints_the_library_floats(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-30.0], "s": [0.0]})
    code, out, _ = run(["det", cfg], capsys)
    assert code == 0
    report = fredholm.log_det(fredholm.GapConfig((-30.0,), (0.0,)))
    payload = strip_timing(out)
    assert payload["convergence"] == [[n, v] for n, v in report.resolutions]
    assert payload["results"] == [{"label": "log_f", "value": report.log_f},
                                  {"label": "est_error", "value": report.est_error},
                                  {"label": "converged", "value": 1.0}]
    # shortest round-trip digits, as json prints a plain float
    assert f'"value": {report.log_f!r}' in out and f'"value": {report.est_error!r}' in out
    # the value printed before the tail integrals were cached
    assert abs(report.log_f + 2250.5616879474346) <= 2e-15 * 2250.5616879474346


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
    # a one-point hard gap takes the Painleve II route at any depth; this
    # two-point gap stays on the Nystrom route and its 80-bit refusal
    cfg = write_config(tmp_path, {"x": [-13.0, -14.0], "s": [0.0, 0.5]})
    code, out, err = run(["det", cfg], capsys)
    assert code == 4 and out == ""
    assert "Cholesky pivot" in err and "80-bit arithmetic cannot resolve" in err


def test_det_refuses_an_unresolved_thinned_grid_with_exit_4(tmp_path, capsys):
    # every s_j >= NEAR_ONE_GAP: the Cholesky factorization of I - A fails
    cfg = write_config(tmp_path, {"x": [-30.0, -60.0], "s": [0.5, 0.3]})
    code, out, err = run(["det", cfg, "--nodes", "4"], capsys)
    assert code == 4 and out == ""
    assert "not positive definite (N=68, 4 nodes per panel, min s=0.3)" in err


def test_non_finite_result_exits_4(tmp_path, capsys, monkeypatch):
    # RunReport.add refuses to print a non-finite value as a result
    monkeypatch.setattr(cli.fredholm, "log_det", lambda *args, **kwargs: fredholm.DeterminantReport(
        ((16, math.nan),), math.nan, "nystrom"))
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    code, out, err = run(["det", cfg], capsys)
    assert code == 4 and out == ""
    assert err == "numerical failure: non-finite result for 'log_f'\n"


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
    (["compare", "--r-list", "nan"], {"tau": [-1.0], "s": [0.5]}, "r-list"),
    (["compare", "--r-list", "2,inf"], {"tau": [-1.0], "s": [0.5]}, "r-list"),
    (["parametrix", "--model", "chg", "--beta", "nani"], None, "beta"),
    (["parametrix", "--model", "chg", "--beta", "infi"], None, "beta"),
    (["sweep", "--vary", "nodes", "--values", "16.9,24", "--out", os.devnull],
     {"x": [-2], "s": [0.5]}, "--values"),
    (["sweep", "--vary", "s_x", "--values", "0.5", "--out", os.devnull],
     {"x": [-2], "s": [0.5]}, "malformed field 's_x'"),
    # config values are JSON numbers: a string or a bool is not parsed as one
    (["det"], {"x": [-2], "s": ["0.5"]}, "s"),
    (["det"], {"x": [-2], "s": [True]}, "s"),
    (["det"], {"tau": [-1], "r": "2", "s": [0.5]}, "r: r must be positive and finite, got '2'"),
    (["det"], {"tau": [-1], "r": True, "s": [0.5]}, "r"),
    (["det"], {"x": [-10 ** 400], "s": [0.5]}, "x"),  # past the float range
    (["det"], [{"x": [-2], "s": [0.5]}], "config must be a JSON object"),
    (["det"], {"tau": [-1], "r": 0, "s": [0.5]}, "r must be positive"),
    (["det"], {"tau": [-1], "r": -1, "s": [0.5]}, "r must be positive"),
    (["det"], {"tau": [-1, -2], "s": [0.5]}, "tau and s must have equal length"),
    (["det"], {"tau": [-1], "s": [0.5]}, "config needs endpoints"),
    # scalar fields get scalar messages; r has one rule, in the config and in --r-list
    (["det"], {"m": "1", "x": [-2], "s": [0.5]}, "m: expected the number of points, 1, got '1'"),
    (["det"], {"m": True, "x": [-2], "s": [0.5]}, "m: expected the number of points, 1, got True"),
    (["compare", "--r-list=-2,3"], {"tau": [-1.0], "s": [0.5]},
     "--r-list: r must be positive and finite, got -2.0"),
    (["compare", "--r-list=0,3"], {"tau": [-1.0], "s": [0.5]},
     "--r-list: r must be positive and finite, got 0.0"),
    # the --values of a nodes sweep are its rule orders; a --nodes beside them has no role
    (["sweep", "--vary", "nodes", "--values", "16,24", "--nodes", "24", "--out", os.devnull],
     {"x": [-2], "s": [0.5]}, "--nodes conflicts with --vary nodes"),
], ids=["x-scalar", "s-scalar", "tau-scalar", "x-null", "r-as-list", "x-nan", "beta-scalar",
        "beta-string", "m-null", "r-list-nan", "r-list-inf",
        "beta-nan", "beta-inf", "sweep-nodes-fraction", "sweep-index-malformed",
        "s-string", "s-bool", "r-string", "r-bool", "x-int-overflow", "config-list",
        "r-zero", "r-negative", "tau-s-lengths", "tau-without-r",
        "m-string", "m-bool", "r-list-negative", "r-list-zero", "sweep-nodes-with-nodes-flag"])
def test_malformed_input_exits_2_naming_the_field(tmp_path, capsys, argv, config, field):
    if config is not None:
        argv = argv[:1] + [write_config(tmp_path, config)] + argv[1:]
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("flag", ["--tail", "--refine"])
def test_det_resolution_flags_removed(tmp_path, capsys, flag):
    # --nodes alone sets the resolution; the tail follows from x_1
    cfg = write_config(tmp_path, {"x": [-10.0], "s": [0.0]})
    with pytest.raises(SystemExit) as exc:
        cli.main(["det", cfg, flag, "8"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# 3 panels at x = -6, ceil(6/4 + 12.5/12): the top rung ceil(1.5 n) sets N; at
# 1900 the first rung (N = 5700) fits and only the second (N = 8550) does not
@pytest.mark.parametrize("flags, size", [(["--nodes", "2048"], 9216), (["--nodes", "1900"], 8550)])
def test_det_refuses_oversized_discretization(tmp_path, capsys, monkeypatch, flags, size):
    # N is checked before any scheme exists: building one fails the test at once
    def no_scheme(*args, **kwargs):
        raise AssertionError("a scheme or determinant matrix was built")

    for name in ("build_scheme", "_layout_scheme", "logdet_single", "_kernel_matrix"):
        monkeypatch.setattr(cli.fredholm, name, no_scheme)
    cfg = write_config(tmp_path, {"x": [-6.0], "s": [0.5]})
    code, out, err = run(["det", cfg, *flags], capsys)
    assert code == 2 and out == ""
    assert f"N = {size}" in err


@pytest.mark.parametrize("nodes", ("1", "2", "3"))
def test_det_rule_order_refusal_names_the_given_nodes(tmp_path, capsys, nodes):
    # not the second rung ceil(1.5 n), which the caller never gave
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    code, out, err = run(["det", cfg, "--nodes", nodes], capsys)
    assert code == 2 and out == ""
    assert err == f"error: nodes_per_panel must be at least 4, got {nodes}\n"


def test_json_report_unwritable_exits_3(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    code, _, err = run(["det", cfg, "--nodes", "16",
                        "--json", str(tmp_path / "missing-dir" / "r.json")], capsys)
    assert code == 3 and err.startswith("i/o error: ")


def test_closed_stdout_pipe_exits_3(tmp_path):
    # the reader of stdout is gone before the report is written: one error
    # line and exit 3, as for an unwritable --json, and nothing at shutdown
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    env = dict(os.environ, PYTHONPATH=str(Path(airy_gap.__file__).resolve().parents[1]))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "airy_gap.cli", "det", cfg], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=300)
    finally:
        os.close(write)
    assert proc.returncode == 3
    assert proc.stderr == "i/o error: [Errno 32] Broken pipe\n"


def test_tau_r_parametrization(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0], "r": 2.0, "s": [0.0]})
    code, out, _ = run(["det", cfg, "--nodes", "32"], capsys)
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


def test_compare_out_writes_one_row_per_r(tmp_path, capsys):
    cfg = write_config(tmp_path, {"tau": [-1.0], "s": [0.3]})
    out_csv = tmp_path / "r.csv"
    code, out, _ = run(["compare", cfg, "--r-list", "3,4", "--nodes", "24",
                        "--out", str(out_csv)], capsys)
    assert code == 0
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    header, *rows = out_csv.read_text().splitlines()
    assert header == "r,log_numeric,log_asymptotic,gap,gap_r32_over_logr"
    rows = [[float(v) for v in row.split(",")] for row in rows]
    assert [row[0] for row in rows] == [3.0, 4.0]
    assert [row[3] for row in rows] == [labels["gap_r_3"], labels["gap_r_4"]]


def test_compare_scaled_gap_past_the_float_range_reads_inf(tmp_path, capsys):
    # r^(3/2) overflows at r = 1e300, but the determinant at x = -1 and its gap do not
    cfg = write_config(tmp_path, {"tau": [-1e-300], "s": [0.5]})
    out_csv = tmp_path / "big-r.csv"
    code, out, err = run(["compare", cfg, "--r-list", "1e300", "--out", str(out_csv)], capsys)
    assert code == 0, err
    labels = {r["label"]: r["value"] for r in json.loads(out)["results"]}
    header, row = out_csv.read_text().splitlines()
    assert header.split(",")[-1] == "gap_r32_over_logr" and row.split(",")[-1] == "inf"
    assert float(row.split(",")[3]) == labels["gap_final"] and math.isfinite(labels["gap_final"])


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


def test_compare_near_the_edge_of_the_barnes_series(tmp_path, capsys):
    # s = 4.8e-6 puts |beta| at 1.95, where log G(1 + i beta) needs ~1900 series terms
    cfg = write_config(tmp_path, {"tau": [-1.0], "s": [4.8e-6]})
    code, out, _ = run(["compare", cfg, "--r-list", "2,3"], capsys)
    assert code == 0
    assert math.isfinite({r["label"]: r["value"] for r in json.loads(out)["results"]}["gap_final"])


def test_compare_refuses_a_weight_ratio_beyond_e_4pi(tmp_path, capsys):
    # s_2 = 3e-6 < e^(-4 pi): beta_2 = -2.02i, outside the Barnes G pair's |beta| < 2;
    # the error names beta and the ratio bound, not log G's internal argument
    cfg = write_config(tmp_path, {"tau": [-1.0, -1.6], "s": [0.5, 3e-6]})
    code, _, err = run(["compare", cfg, "--r-list", "2,3"], capsys)
    assert code == 2
    assert "beta = -2.02" in err and "needs |beta| < 2, that is s_j/s_(j+1) within e^(-4 pi) ... e^(4 pi)" in err
    assert "log_barnes_g" not in err


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


@pytest.mark.parametrize("argv", [["--x", "nan"], ["--x=-inf"]])
def test_stats_rejects_nonfinite_x(capsys, argv):
    code, out, err = run(["stats", *argv], capsys)
    assert code == 2 and out == ""
    assert "--x must be finite and negative" in err


@pytest.mark.parametrize("argv, message", [
    (["--interval", " -inf", " -1"], "requires 0 > B > A, both finite"),
    (["--interval", "-1", " nan"], "requires 0 > B > A, both finite"),
    # 1-3 nodes per panel once gave a variance (-0.70 at 1 node) and exit 0
    (["--interval", "-4", "-1", "--nodes", "3"], "nodes_per_panel must be at least 4"),
    (["--x", "-2", "--nodes", "1"], "nodes_per_panel must be at least 4"),
])
def test_stats_rejects_bad_interval_and_rule_order(capsys, argv, message):
    code, out, err = run(["stats", *argv], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_stats_refuses_a_negative_variance_with_exit_4(capsys):
    # 16 nodes per panel on (-99, -50) once printed interval_var_numeric -1.61
    # and exit 0; the variance is 0.83623
    code, out, err = run(["stats", "--interval", "-99", "-50", "--nodes", "16"], capsys)
    assert code == 4 and out == ""
    assert "negative count variance -1.61 on [(-99.0, -50.0)] at 16 nodes per panel" in err


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


def test_sweep_weight_near_the_edge_of_the_barnes_series(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    out_csv = tmp_path / "s1.csv"
    code, _, _ = run(["sweep", cfg, "--vary", "s_1", "--values", "4.8e-6", "--out", str(out_csv)],
                     capsys)
    assert code == 0
    header, row = out_csv.read_text().splitlines()
    assert header == "s_1,log_f,log_asymptotic,gap"
    assert all(math.isfinite(float(v)) for v in row.split(","))


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
    # the table over r is compare --out's; sweep refuses r and says so
    cfg = write_config(tmp_path, {"tau": [-1.0], "s": [0.3]})
    out_csv = tmp_path / "r.csv"
    code, out, err = run(["sweep", cfg, "--vary", "r", "--values", "3,4",
                          "--nodes", "24", "--out", str(out_csv)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "compare --out" in err
    assert not out_csv.exists()


def test_sweep_validation(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    out_csv = str(tmp_path / "o.csv")
    assert run(["sweep", cfg, "--vary", "nodes", "--values", "", "--out", out_csv], capsys)[0] == 2
    assert run(["sweep", cfg, "--vary", "zeta", "--values", "1", "--out", out_csv], capsys)[0] == 2
    assert run(["sweep", cfg, "--vary", "s_7", "--values", "0.5", "--out", out_csv], capsys)[0] == 2
    code, _, _ = run(["sweep", cfg, "--vary", "nodes", "--values", "8,16",
                      "--out", "/nonexistent-dir/out.csv"], capsys)
    assert code == 3


def test_sweep_rows_run_on_the_calling_thread(tmp_path, capsys, monkeypatch):
    threads = []
    log_det = fredholm.log_det

    def recording_log_det(*args, **kwargs):
        threads.append(threading.get_ident())
        return log_det(*args, **kwargs)

    monkeypatch.setattr(fredholm, "log_det", recording_log_det)
    cfg = write_config(tmp_path, {"x": [-2.0], "s": [0.5]})
    out_csv = tmp_path / "t.csv"
    code, _, _ = run(["sweep", cfg, "--vary", "nodes", "--values", "8,12,16",
                      "--out", str(out_csv)], capsys)
    assert code == 0
    assert len(out_csv.read_text().splitlines()) == 4
    assert threads == [threading.get_ident()] * 3


def test_sweep_rejects_index_with_underscore(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -3.0], "s": [0.5, 0.5]})
    out_csv = str(tmp_path / "o.csv")
    code, _, err = run(["sweep", cfg, "--vary", "s_1_0", "--values", "0.4", "--out", out_csv],
                       capsys)
    assert code == 2 and "out of range" in err


def test_sweep_csv_identical_across_runs(tmp_path, capsys):
    cfg = write_config(tmp_path, {"x": [-2.0, -3.0, -4.5], "s": [0.5, 0.5, 0.3]})
    csvs = []
    for k in range(2):
        out_csv = tmp_path / f"run{k}.csv"
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
    run(["sweep", cfg, "--vary", "nodes", "--values", "32", "--out", str(out_csv)], capsys)
    header, row = out_csv.read_text().splitlines()[:2]
    log_f = float(row.split(",")[1])
    from airy_gap import fredholm as fr
    ref = fr.log_det(fr.GapConfig((-2.0,), (0.0,)), nodes_per_panel=32).log_f
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


@pytest.mark.parametrize("argv, config", [
    (["det", "{config}"], {"x": [-2.0], "beta": ["300i"]}),
    (["sweep", "{config}", "--vary", "beta_1", "--values", "300", "--out", "{out}"], {"x": [-2.0], "s": [0.5]}),
], ids=["det", "sweep"])
def test_a_large_positive_beta_exits_2(tmp_path, capsys, argv, config):
    # e^(2 pi 300) is past the float range: the weight above 1 is refused before
    # exp can overflow, with exit 2 and the error line, not a traceback
    names = {"config": write_config(tmp_path, config), "out": str(tmp_path / "out.csv")}
    code, out, err = run([a.format(**names) for a in argv], capsys)
    assert code == 2 and out == ""
    assert err == "error: beta vector corresponds to weights above 1\n"


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
(tmp / "hard.json").write_text(json.dumps({"x": [-9.0], "s": [0.0]}))
(tmp / "tau.json").write_text(json.dumps({"tau": [-1.0, -1.6], "s": [0.4, 0.7]}))
for argv in (["det", str(tmp / "x.json"), "--nodes", "16"],
             ["det", str(tmp / "hard.json")],
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
