"""Workloads of the airy-gap benchmark: seeded schedules over the reference
pool, the ops that call the library or the CLI, and the checks of every
returned value against the pool's stored references.

Every op uses the library's default resolution (no ``nodes_per_panel``, the
default ``refine``), so a schedule the library picks for itself shows in the
numbers.  The pool groups its entries into strata of similar cost; a round
takes one entry of every stratum, in seeded order, and strata are drawn
without replacement.  Runs of equal length therefore cover the same mix of
inputs whatever the seed, which keeps medians steady across seeds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

from airy_gap import asymptotics, cli, fredholm
from airy_gap.fredholm import GapConfig
from airy_gap.specfun import NumericalError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
POOL_PATH = HERE / "pool.json"
OUT_DIR = HERE / "out"
WORKLOADS = ("thinned_scan", "deep_gap", "cli_jobs")

#: Arithmetic floor added to every tolerance, relative to max(1, |reference|).
#: Quadrature of the smooth Airy kernel reaches the double-precision floor at
#: 16-20 nodes per panel, far below the default 48, so a default-resolution
#: value further than this plus the error estimates from its reference is a
#: defect, not discretization noise.
REL_FLOOR = 1e-10
#: A known miss (recorded at pool generation) may improve or be refused with
#: NumericalError; it may not grow beyond this factor of its recorded error.
KNOWN_MISS_GROWTH = 2.0


def load_pool() -> dict:
    with open(POOL_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def strata(pool: dict, workload: str) -> list[list[dict]]:
    """Entry groups of one workload; a round takes one entry of each group."""
    if workload == "thinned_scan":
        entries = pool["thinned"]
    elif workload == "deep_gap":
        entries = pool["hard_gap"] + pool["sentinels"] + pool["conditioned"]
    elif workload == "cli_jobs":
        entries = pool["cli"]["ops"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    groups: dict[str, list[dict]] = {}
    for entry in entries:
        groups.setdefault(entry["stratum"], []).append(entry)
    return [groups[k] for k in sorted(groups)]


def pass_rounds(pool: dict, workload: str) -> int:
    """Rounds that take every pool entry of the workload at least once."""
    return max(len(g) for g in strata(pool, workload))


def rounds(pool: dict, workload: str, seed: int):
    """Endless seeded rounds: strata drawn without replacement, order shuffled."""
    rng = random.Random(seed)
    groups = strata(pool, workload)
    orders = [rng.sample(g, len(g)) for g in groups]
    k = 0
    while True:
        rnd = [order[k % len(order)] for order in orders]
        rng.shuffle(rnd)
        yield rnd
        k += 1


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------

@dataclass
class Op:
    """One scheduled call with its prebuilt inputs."""

    entry: dict
    kind: str
    config: GapConfig | None = None
    argv: list[str] = field(default_factory=list)
    out_csv: Path | None = None


def prepare(pool: dict, workload: str, seed: int) -> list[Op]:
    """Build every input a workload can draw: GapConfigs, or CLI config files."""
    ops = []
    for group in strata(pool, workload):
        for entry in group:
            ops.append(prepare_op(entry, seed))
    return ops


def prepare_op(entry: dict, seed: int) -> Op:
    """One op's inputs: a GapConfig, or CLI argv with its config file written."""
    kind = entry["kind"]
    if kind in ("thinned", "hard_gap", "conditioned"):
        return Op(entry, kind, config=GapConfig(entry["x"], entry["s"]))
    OUT_DIR.mkdir(exist_ok=True)
    names = {}
    if entry.get("config") is not None:
        names["config"] = OUT_DIR / f"cfg-{entry['id']}.json"
        names["config"].write_text(json.dumps(entry["config"]))
    if kind == "sweep":
        names["out"] = OUT_DIR / f"sweep-{entry['id']}-seed{seed}.csv"
    argv = [a.format(**{k: str(v) for k, v in names.items()}) for a in entry["argv"]]
    return Op(entry, kind, argv=argv, out_csv=names.get("out"))


@dataclass
class Result:
    """What one op returned: numbers by label, or the failure it raised."""

    values: dict = field(default_factory=dict)
    csv_rows: list | None = None
    error: str | None = None
    refused: bool = False  # NumericalError or CLI exit 4: an honest refusal
    rss_kb: int = 0


def run_library_op(op: Op) -> Result:
    """thinned_scan / deep_gap op: the numeric determinant next to its expansion."""
    cfg = op.config
    try:
        if op.kind == "conditioned":
            value = fredholm.log_E0(cfg)
            asym = asymptotics.log_E0_asym(cfg.x, asymptotics.beta_from_s(cfg.s)).total
            return Result({"value": value, "asym": asym})
        det = fredholm.log_det(cfg)
        if op.kind == "hard_gap":
            asym = asymptotics.log_F_m1_s0(cfg.x[0])
        else:
            asym = asymptotics.log_E_asym(cfg.x, asymptotics.beta_from_s(cfg.s)).total
        return Result({"value": det.log_f, "est_error": det.est_error, "asym": asym})
    except NumericalError as exc:
        return Result(error=f"NumericalError: {exc}", refused=True)
    except (ValueError, ArithmeticError) as exc:
        return Result(error=f"{type(exc).__name__}: {exc}")


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(op: Op) -> Result:
    """cli_jobs op: a fresh `python -m airy_gap.cli` run, spawn to exit."""
    with open(OUT_DIR / "cli-stderr.txt", "w+b") as err_fh:
        proc = subprocess.Popen([sys.executable, "-m", "airy_gap.cli", *op.argv],
                                stdout=subprocess.PIPE, stderr=err_fh, cwd=ROOT, env=cli_env())
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_fh.seek(0)
        err_text = err_fh.read().decode(errors="replace").strip()
    return _cli_result(op, proc.returncode, out.decode(), err_text, usage.ru_maxrss)


def run_cli_in_process(op: Op) -> Result:
    """The same argv through `airy_gap.cli.main` in this interpreter (traced run)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv)
    return _cli_result(op, code, buf.getvalue(), "", 0)


def _cli_result(op: Op, code: int, out: str, err_text: str, rss_kb: int) -> Result:
    if code != 0:
        return Result(error=f"exit {code}: {err_text[-300:]}", refused=code == cli.EXIT_NUMERICAL,
                      rss_kb=rss_kb)
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return Result(error=f"unparsable report: {exc}", rss_kb=rss_kb)
    values = {"schema_version": payload.get("schema_version"), "command": payload.get("command")}
    values.update({r["label"]: r["value"] for r in payload.get("results", [])})
    rows = None
    if op.out_csv is not None:
        with open(op.out_csv, newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    return Result(values, csv_rows=rows, rss_kb=rss_kb)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Verdict on one op.

    status: 'ok', 'miss' (a finite value outside its tolerance) or 'failed'
    (raised, exited non-zero or returned a non-finite value).  expected is
    False when the verdict contradicts the pool: the benchmark then reports
    correct = false.  err is the largest |value - reference| over the op's
    numeric estimates (None when it has none).
    """

    status: str
    expected: bool
    err: float | None
    detail: str = ""


def tolerance(check: dict, op_est_error: float = 0.0) -> float:
    return (op_est_error + check.get("est_error", 0.0) + check.get("allowance", 0.0)
            + REL_FLOOR * max(1.0, abs(check["ref"])))


def _compare(label: str, value, check: dict, op_est_error: float = 0.0):
    """(error or None, message or None) for one labelled value."""
    kind = check["kind"]
    if kind == "flag":
        return None, (None if value == check["ref"] else f"{label}={value!r}, want {check['ref']!r}")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return None, f"{label} is not a finite number: {value!r}"
    if kind == "residual":
        return None, (None if abs(value) <= check["bound"]
                      else f"{label}={value:.3e} above bound {check['bound']:.0e}")
    err = abs(value - check["ref"])
    tol = tolerance(check, op_est_error)
    return err, (None if err <= tol else f"{label}: |{value!r} - {check['ref']!r}| = {err:.3e} > {tol:.3e}")


def check(op: Op, res: Result) -> Outcome:
    entry = op.entry
    known = entry.get("known_miss", False)
    if res.error is not None:
        return Outcome("failed", known and res.refused, None, res.error)
    if op.kind in ("thinned", "hard_gap", "conditioned"):
        return _check_library(op, res, known)
    return _check_cli(op, res)


def _check_library(op: Op, res: Result, known: bool) -> Outcome:
    entry = op.entry
    value = res.values["value"]
    if not math.isfinite(value):
        return Outcome("failed", False, None, f"non-finite value {value!r}")
    op_est = res.values.get("est_error", entry.get("op_est_error", 0.0))
    err, msg = _compare("value", value, entry["check"], op_est)
    _, asym_msg = _compare("asym", res.values["asym"], entry["asym_check"])
    if asym_msg:
        return Outcome("miss", False, err, asym_msg)
    if msg is None:
        return Outcome("ok", True, err)
    if not known:
        return Outcome("miss", False, err, msg)
    grown = err > KNOWN_MISS_GROWTH * entry["seed_error"]
    return Outcome("miss", not grown, err, msg + (" (known miss, grew)" if grown else " (known miss)"))


def _check_cli(op: Op, res: Result) -> Outcome:
    entry = op.entry
    problems, errs = [], []
    expected_labels = set(entry["checks"]) | {"schema_version", "command"}
    if set(res.values) != expected_labels:
        problems.append(f"labels {sorted(set(res.values) ^ expected_labels)} differ from the pool")
    op_est = res.values.get("est_error", 0.0) if op.kind == "det" else 0.0
    for label, chk in entry["checks"].items():
        if label in res.values:
            err, msg = _compare(label, res.values[label], chk, op_est if label == "log_f" else 0.0)
            errs.append(err)
            problems.append(msg)
    for name, want in (("schema_version", entry["schema_version"]), ("command", entry["command"])):
        if res.values.get(name) != want:
            problems.append(f"{name}={res.values.get(name)!r}, want {want!r}")
    if entry.get("csv") is not None:
        rows = res.csv_rows or []
        if len(rows) != len(entry["csv"]):
            problems.append(f"{len(rows)} CSV rows, want {len(entry['csv'])}")
        for i, (row, want_row) in enumerate(zip(rows, entry["csv"])):
            for j, (value, chk) in enumerate(zip(row, want_row)):
                err, msg = _compare(f"row{i}.col{j}", value, chk)
                errs.append(err)
                problems.append(msg)
    problems = [p for p in problems if p]
    errs = [e for e in errs if e is not None]
    err = max(errs) if errs else None
    if problems:
        return Outcome("miss", False, err, "; ".join(problems))
    return Outcome("ok", True, err)
