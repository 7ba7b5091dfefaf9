"""Generate perfbench/pool.json: the benchmark's inputs with their references.

Run once from the repository root, at the commit the references belong to:

    python3 perfbench/make_pool.py

References are computed at a finer resolution than any op uses (ops run the
library defaults: 48 nodes per panel, refine=1 for the library, refine=2 for
`airy-gap det`):

* thinned determinants: `log_det` at 96 nodes per panel, refine=1;
* conditioned `log_E0`: both determinants at 64 nodes per panel, refine=1;
* hard gaps: the closed-form tail `log_F_m1_s0(x)`, with an allowance of
  twice the largest |determinant - tail| * |x|^3 fitted over x in [-10, -7],
  where the determinant is converged;
* CLI reports: the same subcommand at --nodes 96, with --nodes 64 giving each
  value's est_error; residual-type labels are held to the bounds the
  library's own tests use.

Each entry also records whether the default-resolution op met its reference
at generation.  Entries that missed are kept and flagged `known_miss`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from airy_gap import asymptotics, cli, fredholm  # noqa: E402
from airy_gap.fredholm import GapConfig  # noqa: E402

import workloads  # noqa: E402
from run import git_commit, source_sha256  # noqa: E402

POOL_SEED = 1812
#: Thinned strata are panel counts, which set N (48 or 96 nodes per panel) and
#: so an op's cost.  A round takes one op per count.  With an odd number of
#: counts a run's median latency falls inside the middle count's cluster
#: rather than on the edge between two.
THINNED_PANELS = (4, 5, 6, 7, 8)
THINNED_PER_STRATUM = 3
THINNED_NODES = 96
CONDITIONED_NODES = 64
CLI_NODES, CLI_NODES_CHECK = 96, 64
TAIL_FIT_X = (-7.0, -7.5, -8.0, -8.5, -9.0, -9.5, -10.0)
TAIL_MARGIN = 2.0

FLAG_LABELS = {"converged", "gap_monotone_decreasing", "rows"}
#: Bounds on residual-type labels, as asserted by tests/test_cli.py and
#: tests/test_parametrix.py; est_error is held to the library's convergence
#: tolerance.
RESIDUAL_BOUNDS = {
    "est_error": fredholm.CONVERGENCE_TOL,
    "additivity_residual": 1e-9,
}
PARAMETRIX_BOUNDS = {
    "airy": {"jump": 1e-9, "det_max": 1e-10, "coeff_error": 1e-5},
    "bessel": {"jump": 1e-9, "det_max": 1e-10, "coeff_error": 1e-5},
    "chg": {"jump": 1e-7, "det_max": 1e-7, "coeff_error": 1e-4, "logderivative_error": 1e-4},
}

SWEEP_A = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8"
SWEEP_B = "0.15,0.25,0.35,0.45,0.55,0.65,0.75,0.85"
#: (stratum, argv template, config file contents or None).  Seven strata, an
#: odd number, for the same reason as THINNED_PANELS.
CLI_OPS = [
    ("det", ["det", "{config}"], {"x": [-2.0], "s": [0.5]}),
    ("det", ["det", "{config}"], {"x": [-2.5], "s": [0.35]}),
    ("det", ["det", "{config}"], {"x": [-3.0], "s": [0.6]}),
    ("compare", ["compare", "{config}", "--r-list", "2,3"], {"tau": [-1.0, -1.6], "s": [0.4, 0.7]}),
    ("compare", ["compare", "{config}", "--r-list", "2,3"], {"tau": [-1.0, -1.5], "s": [0.3, 0.6]}),
    ("stats_x", ["stats", "--x", "-2.5"], None),
    ("stats_x", ["stats", "--x", "-3.0"], None),
    ("stats_x", ["stats", "--x", "-4.0"], None),
    ("stats_interval", ["stats", "--interval", "-4.0", "-1.0"], None),
    ("stats_interval", ["stats", "--interval", "-5.0", "-2.0"], None),
    ("parametrix_ab", ["parametrix", "--model", "airy"], None),
    ("parametrix_ab", ["parametrix", "--model", "bessel"], None),
    ("parametrix_chg", ["parametrix", "--model", "chg", "--beta", "0.15i"], None),
    ("parametrix_chg", ["parametrix", "--model", "chg", "--beta=-0.25i"], None),
    ("parametrix_chg", ["parametrix", "--model", "chg", "--beta", "0.35i"], None),
    ("sweep", ["sweep", "{config}", "--vary", "s_2", "--values", SWEEP_A, "--out", "{out}"],
     {"x": [-2.0, -3.0, -4.5], "s": [0.5, 0.5, 0.3]}),
    ("sweep", ["sweep", "{config}", "--vary", "s_2", "--values", SWEEP_B, "--out", "{out}"],
     {"x": [-1.5, -2.5, -4.0], "s": [0.6, 0.5, 0.4]}),
]


def estimate(ref: float, est_error: float = 0.0, **extra) -> dict:
    return {"kind": "estimate", "ref": float(ref), "est_error": float(est_error), **extra}


def record_seed_outcome(entry: dict) -> dict:
    """Run the default-resolution op once and flag a miss as known."""
    op = workloads.prepare_op(entry, 0)
    outcome = workloads.check(op, workloads.run_library_op(op))
    entry["known_miss"] = outcome.status != "ok"
    entry["seed_error"] = outcome.err
    label = entry["id"]
    print(f"  {label}: {outcome.status} err={outcome.err} {outcome.detail}", flush=True)
    return entry


def thinned_entries(rng: random.Random) -> list[dict]:
    """Configs drawn with m in {1, 2, 3}, r in [2, 6], tau_1 = -1, gaps in
    [0.3, 1.0] and s_j in [0.05, 0.95], kept until every panel count has
    THINNED_PER_STRATUM of them."""
    buckets = {p: [] for p in THINNED_PANELS}
    while any(len(b) < THINNED_PER_STRATUM for b in buckets.values()):
        m = rng.choice((1, 2, 3))
        r = round(rng.uniform(2.0, 6.0), 4)
        tau = [-1.0]
        for _ in range(m - 1):
            tau.append(round(tau[-1] - rng.uniform(0.3, 1.0), 4))
        s = [round(rng.uniform(0.05, 0.95), 4) for _ in range(m)]
        x = [r * t for t in tau]
        bucket = buckets.get(len(fredholm.build_scheme(GapConfig(x, s), 4).panels))
        if bucket is not None and len(bucket) < THINNED_PER_STRATUM:
            bucket.append((tau, r, x, s))
    out = []
    for panels, bucket in buckets.items():
        for k, (tau, r, x, s) in enumerate(bucket):
            ref = fredholm.log_det(GapConfig(x, s), nodes_per_panel=THINNED_NODES)
            asym = asymptotics.log_E_asym(x, asymptotics.beta_from_s(s)).total
            out.append(record_seed_outcome({
                "id": f"thin-p{panels}-{k}", "kind": "thinned", "stratum": f"panels-{panels}",
                "tau": tau, "r": r, "x": x, "s": s,
                "check": estimate(ref.log_f, ref.est_error),
                "asym_check": estimate(asym)}))
    return out


def tail_allowance_fit() -> dict:
    rows = []
    for x in TAIL_FIT_X:
        det = fredholm.log_det(GapConfig((x,), (0.0,)), nodes_per_panel=CONDITIONED_NODES)
        diff = abs(det.log_f - asymptotics.log_F_m1_s0(x))
        rows.append({"x": x, "abs_diff": diff, "est_error": det.est_error})
        print(f"  tail fit x={x}: |num - tail|={diff:.3e} est_error={det.est_error:.2e}", flush=True)
    c = max(r["abs_diff"] * abs(r["x"]) ** 3 for r in rows)
    return {"c": c, "margin": TAIL_MARGIN, "formula": "margin * c / |x|^3",
            "fit_nodes_per_panel": CONDITIONED_NODES, "fit_refine": 1, "fit": rows}


def hard_gap_entry(x: float, ident: str, stratum: str, fit: dict) -> dict:
    tail = asymptotics.log_F_m1_s0(x)
    allowance = fit["margin"] * fit["c"] / abs(x) ** 3
    return record_seed_outcome({
        "id": ident, "kind": "hard_gap", "stratum": stratum, "x": [x], "s": [0.0],
        "check": estimate(tail, 0.0, allowance=allowance), "asym_check": estimate(tail)})


def conditioned_entry(x, s, ident: str) -> dict:
    tail = fredholm.default_tail_length(x[0])
    full = fredholm.log_det(GapConfig(x, s), nodes_per_panel=CONDITIONED_NODES, tail_length=tail)
    base = fredholm.log_det(GapConfig((x[0],), (0.0,)), nodes_per_panel=CONDITIONED_NODES,
                            tail_length=tail)
    dflt = [fredholm.log_det(cfg, tail_length=tail) for cfg in (GapConfig(x, s), GapConfig((x[0],), (0.0,)))]
    asym = asymptotics.log_E0_asym(x, asymptotics.beta_from_s(s)).total
    return record_seed_outcome({
        "id": ident, "kind": "conditioned", "stratum": "conditioned", "x": list(x), "s": list(s),
        "op_est_error": sum(d.est_error for d in dflt),
        "check": estimate(full.log_f - base.log_f, full.est_error + base.est_error),
        "asym_check": estimate(asym)})


def _cli_report(argv: list[str]) -> tuple[dict, list | None]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"reference run {argv} exited {code}")
    payload = json.loads(buf.getvalue())
    labels = {r["label"]: r["value"] for r in payload["results"]}
    rows = None
    if "--out" in argv:
        with open(argv[argv.index("--out") + 1], newline="") as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    return {"payload": payload, "labels": labels}, rows


def residual_bound(command: str, model: str | None, label: str) -> float | None:
    if command == "parametrix":
        bounds = PARAMETRIX_BOUNDS[model]
        return bounds["jump"] if label.startswith("jump") else bounds[label]
    return RESIDUAL_BOUNDS.get(label)


def cli_entry(index: int, stratum: str, argv: list[str], config, tmp: Path) -> dict:
    entry = {"id": f"cli-{index:02d}-{stratum}", "kind": argv[0], "stratum": stratum,
             "command": argv[0], "argv": argv, "config": config,
             "schema_version": cli.SCHEMA_VERSION, "csv": None}
    names = {"config": tmp / f"{index}.json", "out": tmp / f"{index}.csv"}
    if config is not None:
        names["config"].write_text(json.dumps(config))
    concrete = [a.format(**{k: str(v) for k, v in names.items()}) for a in argv]
    model = concrete[concrete.index("--model") + 1] if "--model" in concrete else None
    takes_nodes = argv[0] != "parametrix"
    fine, fine_rows = _cli_report(concrete + (["--nodes", str(CLI_NODES)] if takes_nodes else []))
    check_run, check_rows = _cli_report(concrete + (["--nodes", str(CLI_NODES_CHECK)] if takes_nodes else []))
    checks = {}
    for label, value in fine["labels"].items():
        bound = residual_bound(argv[0], model, label)
        if label in FLAG_LABELS:
            checks[label] = {"kind": "flag", "ref": value}
        elif bound is not None:
            checks[label] = {"kind": "residual", "ref": 0.0, "bound": bound}
        else:
            checks[label] = estimate(value, abs(value - check_run["labels"][label]))
    entry["checks"] = checks
    if fine_rows is not None:
        entry["csv"] = [[{"kind": "flag", "ref": row[0]}]
                        + [estimate(v, abs(v - w)) for v, w in zip(row[1:], other[1:])]
                        for row, other in zip(fine_rows, check_rows)]
    op = workloads.prepare_op(entry, 0)
    outcome = workloads.check(op, workloads.run_cli_in_process(op))
    print(f"  {entry['id']}: {outcome.status} err={outcome.err} {outcome.detail}", flush=True)
    if outcome.status != "ok":
        raise SystemExit(f"default-resolution CLI op {entry['id']} misses its reference")
    return entry


def main() -> int:
    rng = random.Random(POOL_SEED)
    print("thinned determinants", flush=True)
    thinned = thinned_entries(rng)
    print("hard-gap tail allowance", flush=True)
    fit = tail_allowance_fit()
    print("hard gaps", flush=True)
    hard = []
    edges = np.linspace(-11.0, -7.0, 7)
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        for k in range(2):
            x = round(rng.uniform(lo, hi), 4)
            hard.append(hard_gap_entry(x, f"hard-{i}-{k}", f"hard-{i}", fit))
    sentinels = [hard_gap_entry(x, f"sentinel{x:g}", f"sentinel{x:g}", fit) for x in (-11.0, -12.0)]
    for s in sentinels:
        s["sentinel"] = True
    print("conditioned", flush=True)
    conditioned = [conditioned_entry((-8.0, -12.0), (0.0, 0.3), "cond-8-12"),
                   conditioned_entry((-8.5, -11.0), (0.0, 0.5), "cond-8.5-11")]
    print("cli", flush=True)
    with tempfile.TemporaryDirectory() as tmp:
        cli_ops = [cli_entry(i, stratum, argv, config, Path(tmp))
                   for i, (stratum, argv, config) in enumerate(CLI_OPS)]
    pool = {
        "provenance": {
            "generator": "perfbench/make_pool.py",
            "commit": git_commit(),
            "source_sha256": source_sha256(),
            "pool_seed": POOL_SEED,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
            "resolution": {
                "thinned": {"nodes_per_panel": THINNED_NODES, "refine": 1},
                "conditioned": {"nodes_per_panel": CONDITIONED_NODES, "refine": 1},
                "hard_gap": "closed-form tail log_F_m1_s0 plus allowance",
                "cli": {"nodes": CLI_NODES, "est_error_from_nodes": CLI_NODES_CHECK},
                "ops": "library defaults (48 nodes per panel; refine 1, CLI det refine 2)",
            },
            "rel_floor": workloads.REL_FLOOR,
            "tail_allowance": fit,
        },
        "thinned": thinned,
        "hard_gap": hard,
        "sentinels": sentinels,
        "conditioned": conditioned,
        "cli": {"ops": cli_ops},
    }
    workloads.POOL_PATH.write_text(json.dumps(pool, indent=1) + "\n")
    misses = [e["id"] for e in thinned + hard + sentinels + conditioned if e["known_miss"]]
    print(f"wrote {workloads.POOL_PATH.relative_to(ROOT)}; known misses: {misses}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
