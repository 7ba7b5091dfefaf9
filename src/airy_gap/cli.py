"""Command-line front end: determinant, comparison, statistics, model-solution
verification, and sweep jobs with JSON reports and CSV tables.

Reports are deterministic: identical inputs give byte-identical payloads,
with wall-clock timing kept in a separate `timing_seconds` field that
consumers are expected to ignore when comparing runs.  Exit codes: 0 success,
2 validation error, 3 I/O error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, asymptotics, fredholm, parametrix
from .fredholm import GapConfig
from .specfun import NumericalError, _is_imaginary, check_endpoints, check_negative, check_negative_pair

SCHEMA_VERSION = "airy-gap-report/1"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


class ValidationError(ValueError):
    """Bad user input (config file, flag combination, parameter range)."""


@dataclass
class RunReport:
    """Uniform result envelope every subcommand emits."""

    command: str
    config: dict
    results: list = field(default_factory=list)
    convergence: list = field(default_factory=list)
    timing_seconds: float = 0.0
    schema_version: str = SCHEMA_VERSION

    def add(self, label: str, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise NumericalError(f"non-finite result for {label!r}")
        self.results.append({"label": label, "value": value})

    def add_gap(self, name: str, numeric: float, asymptotic: float) -> None:
        """<name>_numeric, <name>_asymptotic and their distance <name>_gap."""
        self.add(f"{name}_numeric", numeric)
        self.add(f"{name}_asymptotic", asymptotic)
        self.add(f"{name}_gap", abs(numeric - asymptotic))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def write_csv(path: str, header: list, rows: list) -> None:
    """RFC-4180-style CSV, '.' decimal separator, 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, (int, float, np.floating)) else str(v)
                              for v in row))
    try:
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines) + "\r\n")
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}") from exc


def parse_imag(text: str) -> complex:
    """Parse a purely imaginary parameter like '0.3i', '-0.25j' or '0.3'.

    A bare real number is taken as the imaginary part.
    """
    s = text.strip().lower().replace("i", "j")
    try:
        if s.endswith("j"):
            value = complex(s)
        else:
            value = complex(0.0, float(s))
    except ValueError as exc:
        raise ValidationError(f"cannot parse imaginary parameter beta = {text!r}") from exc
    if not _is_imaginary(value):
        raise ValidationError(f"beta = {text!r} must be finite and purely imaginary")
    return complex(0.0, value.imag)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def _numbers(values, name: str) -> list[float]:
    """A non-empty list of finite floats; a bool, str or null entry is a ValidationError."""
    if isinstance(values, list) and values and all(type(v) is float and math.isfinite(v) for v in values):
        return values
    raise ValidationError(f"{name}: expected a non-empty list of finite numbers, got {values!r}")


def _scale(r, name: str) -> float:
    """The one rule on the scale r, a finite float r > 0; name is the config field or flag."""
    if type(r) is float and math.isfinite(r) and r > 0:
        return r
    raise ValidationError(f"{name}: r must be positive and finite, got {r!r}")


def _flag_numbers(text: str, name: str) -> list[float]:
    """The comma-separated entries of a flag, checked by _numbers."""
    try:
        return _numbers([float(v) for v in text.split(",") if v.strip()], name)
    except ValueError:
        raise ValidationError(f"{name}: expected a comma-separated list of finite numbers, "
                              f"got {text!r}") from None


def load_config(path: str) -> dict:
    """Problem description: {x, s} and/or {tau, r, s|beta}.

    x next to tau needs r, and must equal r*tau.  beta entries
    are strings parsed by parse_imag; exactly one of s/beta is required.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh, parse_int=float)  # an integer past the float range reads as inf
    except OSError as exc:
        raise IOError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path} is not valid JSON (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ValidationError("config must be a JSON object")

    unknown = set(raw) - {"m", "x", "s", "tau", "r", "beta"}
    if unknown:
        raise ValidationError(f"unknown config fields: {sorted(unknown)}")

    out: dict = {}
    if "tau" in raw:
        tau = _numbers(raw["tau"], "tau")
        check_endpoints(tau, "tau")
        check_negative(tau[0], "tau_1")
        out["tau"] = tau
    if "x" in raw:
        out["x"] = _numbers(raw["x"], "x")
    if "r" in raw:
        out["r"] = _scale(raw["r"], "r")
    if "tau" in out and "r" in out:
        expect = [out["r"] * t for t in out["tau"]]
        out.setdefault("x", expect)
        if any(abs(a - b) > 1e-9 * max(1.0, abs(b)) for a, b in zip(out["x"], expect)):
            raise ValidationError("x and r*tau disagree; drop one parametrization")
    elif "x" in out and "tau" in out:
        raise ValidationError("x next to tau needs r, since x must equal r*tau")

    if ("s" in raw) == ("beta" in raw):
        raise ValidationError("config needs exactly one of 's' or 'beta'")
    if "s" in raw:
        out["s"] = _numbers(raw["s"], "s")
    elif not isinstance(raw["beta"], list):
        raise ValidationError(f"beta: expected a list of imaginary numbers, got {raw['beta']!r}")
    else:
        betas = [parse_imag(str(v)) for v in raw["beta"]]
        out["beta"] = [v.imag for v in betas]
        out["s"] = list(asymptotics.s_from_beta(betas))

    n = len(out["s"])
    for key in ("x", "tau"):
        if key in out and len(out[key]) != n:
            raise ValidationError(f"{key} and s must have equal length")
    if "m" in raw and not (type(raw["m"]) is float and raw["m"] == n):
        raise ValidationError(f"m: expected the number of points, {n}, got {raw['m']!r}")
    out["m"] = n
    return out


def _gap_config(cfg: dict) -> GapConfig:
    if "x" not in cfg:
        raise ValidationError("config needs endpoints: give 'x' or both 'tau' and 'r'")
    return GapConfig(cfg["x"], cfg["s"])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_det(args) -> RunReport:
    cfg = load_config(args.config)
    gap = _gap_config(cfg)
    report = RunReport("det", cfg)
    det = fredholm.log_det(gap, nodes_per_panel=args.nodes)
    report.add("log_f", det.log_f)
    report.add("est_error", det.est_error)
    report.add("converged", 1.0 if det.converged else 0.0)
    report.convergence = [[int(n), float(v)] for n, v in det.resolutions]
    return report


def _compare_row(tau, s, r, nodes):
    x = tuple(r * t for t in tau)
    gap = GapConfig(x, s)
    conditioned = s[0] == 0.0
    numeric = (fredholm.log_E0 if conditioned else fredholm.log_E)(gap, nodes_per_panel=nodes)
    asym = asymptotics.log_E0_asym if conditioned else asymptotics.log_E_asym
    total = asym(x, asymptotics.beta_from_s(s)).total
    diff = abs(numeric - total)
    scaled = diff * r * math.sqrt(r) / math.log(r) if r > 1 else float("nan")  # inf where r ** 1.5 raises
    return [r, numeric, total, diff, scaled]


def cmd_compare(args) -> RunReport:
    cfg = load_config(args.config)
    if "tau" not in cfg:
        raise ValidationError("compare needs a tau-parametrized config")
    rs = [_scale(r, "--r-list") for r in _flag_numbers(args.r_list, "--r-list")]
    if any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValidationError("r list must be strictly ascending")
    rows = [_compare_row(cfg["tau"], cfg["s"], r, args.nodes) for r in rs]
    report = RunReport("compare", cfg)
    for row in rows:
        report.add(f"gap_r_{_fmt(row[0])}", row[3])
    gaps = [row[3] for row in rows]
    report.add("gap_monotone_decreasing",
               1.0 if all(b < a for a, b in zip(gaps, gaps[1:])) else 0.0)
    report.add("gap_final", gaps[-1])
    if args.out:
        write_csv(args.out, ["r", "log_numeric", "log_asymptotic", "gap", "gap_r32_over_logr"], rows)
    return report


def cmd_stats(args) -> RunReport:
    if (args.x is None) == (args.interval is None):
        raise ValidationError("give exactly one of --x or --interval")
    report = RunReport("stats", {"x": args.x, "interval": args.interval})
    nodes = args.nodes
    if args.x is not None:
        x = float(args.x)
        check_negative(x, "--x")
        mean_a, var_a = asymptotics.moment_asym(x)
        report.add_gap("mean", fredholm.mean_count([(x, math.inf)], nodes), mean_a)
        report.add_gap("var", fredholm.var_count([(x, math.inf)], nodes), var_a)
        return report
    a, b = (float(v) for v in args.interval)
    check_negative_pair(b, a, "B", "A")  # --interval A B
    var_n = fredholm.var_count([(a, b)], nodes)
    # interval (a, b) = (r*tau2, r*tau1) with r = |b| and tau1 = -1
    report.add_gap("interval_var", var_n, asymptotics.var_interval_asym(-b, -1.0, a / -b))
    mid = 0.5 * (a + b)
    additivity = abs(var_n - fredholm.var_count([(a, mid)], nodes)
                     - fredholm.var_count([(mid, b)], nodes)
                     - 2.0 * fredholm.cov_count([(a, mid)], [(mid, b)], nodes))
    report.add("additivity_residual", additivity)
    report.add_gap("halfline_cov", fredholm.cov_halflines(b, a, nodes), asymptotics.sigma_cov(b, a))
    return report


_PARAMETRIX_RADII = (1.0, 3.0)
_DET_SAMPLE_POINTS = (0.5, 2.0, 8.0)


def cmd_parametrix(args) -> RunReport:
    model = args.model
    problem = parametrix.MODELS[model]
    if (args.beta is None) == problem.takes_beta:
        need = "required" if problem.takes_beta else "not accepted"
        raise ValidationError(f"--beta is {need} for the {model} model")
    # parametrix enforces |beta| <= CHG_MAX_BETA
    beta = None if args.beta is None else parse_imag(args.beta)
    report = RunReport("parametrix", {"model": model, "beta": args.beta})

    worst_jump = 0.0
    for ray in problem.rays:
        for t in _PARAMETRIX_RADII:
            res = parametrix.jump_residual(model, ray, t, beta)
            report.add(f"jump_ray{ray}_t{_fmt(t)}", res)
            worst_jump = max(worst_jump, res)
    report.add("jump_max", worst_jump)

    worst_det = 0.0
    for r in _DET_SAMPLE_POINTS:
        for theta in (0.9, 2.1, -1.2, -2.6):
            sample = parametrix._sample(model, r * cmath.exp(1j * theta), beta)
            worst_det = max(worst_det, sample.det_residual)
    report.add("det_max", worst_det)

    fitted = parametrix.extract_asym_coeff(model, beta)
    report.add("coeff_error", float(np.abs(fitted - problem.reference(beta)).max()))
    if problem.takes_beta:
        report.add("logderivative_error",
                   abs(parametrix.hg_logderivative_limit(beta)
                       - parametrix.hg_logderivative_exact(beta)))
    return report


def _sweep_one(cfg: dict, kind: str, j: int | None, value: float, nodes: int | None):
    """One sweep row; kind is nodes, s or beta, and j the 0-based index of s_j or beta_j."""
    if kind == "nodes":
        gap = _gap_config(cfg)
        det = fredholm.log_det(gap, nodes_per_panel=int(value))
        return [int(value), det.log_f, det.est_error]
    s = list(cfg["s"])
    if kind == "s":
        s[j] = float(value)
    else:
        betas = list(asymptotics.beta_from_s(s))
        if cfg["s"][0] == 0.0:
            raise ValidationError("beta sweep needs s_1 > 0")
        betas[j] = complex(0.0, float(value))
        s = list(asymptotics.s_from_beta(betas))
    sub = dict(cfg)
    sub["s"] = s
    gap = _gap_config(sub)
    det = fredholm.log_det(gap, nodes_per_panel=nodes)
    row = [float(value), det.log_f]
    if all(v > 0 for v in s):
        row.append(asymptotics.log_E_asym(sub["x"], asymptotics.beta_from_s(s)).total)
        row.append(abs(det.log_f - row[-1]))
    else:
        row += [float("nan"), float("nan")]
    return row


def cmd_sweep(args) -> RunReport:
    cfg = load_config(args.config)
    f = args.vary
    kind, _, idx = f.partition("_")
    j = None
    if f != "nodes" and kind not in ("beta", "s"):
        raise ValidationError(f"--vary must be one of nodes, s_<j>, beta_<j> "
                              f"(compare --out writes the table over r); got {f!r}")
    if kind in ("beta", "s"):
        try:
            j = int(idx) - 1
        except ValueError as exc:
            raise ValidationError(f"malformed field {f!r}; use e.g. s_2") from exc
        if not 0 <= j < cfg["m"]:
            raise ValidationError(f"index in {f!r} out of range for m = {cfg['m']}")
    values = _flag_numbers(args.values, "--values")
    if f == "nodes" and args.nodes is not None:
        raise ValidationError("--nodes conflicts with --vary nodes, whose --values are the rule orders")
    if f == "nodes" and any(v != int(v) for v in values):
        raise ValidationError(f"--values: node counts must be integers, got {args.values!r}")

    rows = [_sweep_one(cfg, kind, j, v, args.nodes) for v in values]

    header = ["nodes", "log_f", "est_error"] if f == "nodes" else [f, "log_f", "log_asymptotic", "gap"]
    write_csv(args.out, header, rows)
    report = RunReport("sweep", cfg)
    report.add("rows", float(len(rows)))
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airy-gap",
        description="Airy-kernel Fredholm determinants with jump discontinuities: "
                    "numerics, large-gap expansions, counting statistics, and "
                    "model Riemann-Hilbert solution checks.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", default=None, metavar="PATH",
                        help="also write the JSON report to this file")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)

    p = sub.add_parser("det", help="log Fredholm determinant with refinement report",
                       parents=[common])
    p.add_argument("config")
    p.add_argument("--nodes", type=int, default=None)
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("compare", help="numeric vs asymptotic log determinant over r",
                       parents=[common])
    p.add_argument("config")
    p.add_argument("--r-list", required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.add_argument("--out", default=None, help="optional CSV path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("stats", help="counting-statistics traces vs expansions",
                       parents=[common])
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--interval", nargs=2, metavar=("A", "B"), default=None)
    p.add_argument("--nodes", type=int, default=fredholm.DEFAULT_NODES_PER_PANEL)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("parametrix", help="verify a model Riemann-Hilbert solution",
                       parents=[common])
    p.add_argument("--model", required=True, choices=tuple(parametrix.MODELS))
    p.add_argument("--beta", default=None)
    p.set_defaults(func=cmd_parametrix)

    p = sub.add_parser("sweep", help="CSV table over one varying field",
                       parents=[common])
    p.add_argument("config")
    p.add_argument("--vary", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--nodes", type=int, default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    report.timing_seconds = time.perf_counter() - start
    out = report.to_json()
    try:
        if args.json is not None:
            with open(args.json, "w") as fh:
                fh.write(out + "\n")
        print(out, flush=True)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # stdout's reader left: nothing more goes there
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
