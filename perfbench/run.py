"""airy-gap benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload thinned_scan --seed 1 --seconds 25 --trace 0

Run from the repository root; the library is imported from ./src.  Workloads
(see BENCHMARK.json for why each exists):

* thinned_scan - `log_det` + `log_E_asym` on thinned multi-point configs;
* deep_gap     - hard gaps x in [-11, -7], the x = -11 and -12 sentinels and
                 conditioned `log_E0`, nearly all on the 80-bit path;
* cli_jobs     - fresh `python -m airy_gap.cli` processes, spawn to exit.

With --trace 0 the run measures the end-to-end metrics: ops are run in
closed loop by one client, in whole rounds, while the next round should end
within half a round of --seconds.  Its timings are scaled to nominal machine
speed by a probe kernel timed between ops (speed.py); the raw timings are
printed next to them.  With --trace 1 it runs a fixed number of
pool passes once untraced and once with spans recorded (counts then repeat
exactly), and reports the per-layer metrics; end-to-end numbers never come
from a traced run.  BLAS runs single-threaded in every process (BLAS_ENV).
Every returned value is checked against the reference pool
(perfbench/pool.json, made by perfbench/make_pool.py).  Misses are printed
to stderr.  A miss the pool does not expect makes the result
`"correct": false` and the exit code 1.

The last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}.  `failed` counts ops that raised, exited non-zero or returned a
non-finite value; `ok_frac` also counts ops that missed their reference, so
fail_frac = 1 - ok_frac.  Full results, machine facts, per-op outcomes and,
for traced runs, the spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS threads for the benchmark and every process it starts.  On a 2-CPU
#: machine shared with other tenants, two OpenBLAS threads made thinned_scan's
#: op_p50_s swing by +-17% between runs, one thread by +-5%, at the same
#: median speed.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_REPEATS = 7
IMPORT_REPEATS = 3
#: Pool passes of a traced run, so that its counts repeat exactly.
TRACE_PASSES = {"thinned_scan": 4, "deep_gap": 1, "cli_jobs": 1}
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"),
              ("ok_frac", "ratio"), ("peak_rss_mb", "MB"))


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# machine facts
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            out[f"L{level}"] = size
    return out


def _openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "airy_gap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine_facts(seed: int, pool: dict) -> dict:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": _openblas_threads(),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "seed": seed,
        "commit": git_commit(),
        "source_sha256": source_sha256(),
        "pool_commit": pool["provenance"]["commit"],
        "pool_source_sha256": pool["provenance"]["source_sha256"],
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def _fresh_interpreter(args: list[str], env=None) -> float:
    """Wall time from spawn until the child prints its first line."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE, cwd=ROOT, env=env)
    line = proc.stdout.readline()
    elapsed = perf_counter() - start
    proc.stdout.read()
    proc.stdout.close()
    if proc.wait() != 0 or not line.strip():
        raise RuntimeError(f"fresh interpreter {args} failed (exit {proc.returncode})")
    return elapsed


def setup_probe(workload: str, seed: int) -> int:
    """Child side of setup_s: import airy_gap and build the workload's inputs."""
    import workloads

    workloads.prepare(workloads.load_pool(), workload, seed)
    print("ready", flush=True)
    return 0


def run_ops(ops, execute, tracer=None, probe=None):
    """Execute ops in order; return (starts, latencies, outcomes, results, wall).

    With a speed probe, the probe is sampled between ops when due; its time
    is inside the returned wall.
    """
    import workloads

    starts, latencies, outcomes, results = [], [], [], []
    start = perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        if probe is not None:
            probe.maybe_sample()
        t = perf_counter()
        res = execute(op)
        latencies.append(perf_counter() - t)
        starts.append(t)
        results.append(res)
        outcomes.append(workloads.check(op, res))
    return starts, latencies, outcomes, results, perf_counter() - start


def measure(workload: str, seed: int, seconds: float, pool: dict):
    import speed
    import workloads

    spawn_probe = speed.SpeedProbe(lambda: _fresh_interpreter([str(HERE / "speed.py")]),
                                   speed.NOMINAL_SPAWN_S, speed.SPAWN_INTERVAL_S)
    setup_starts, setup = [], []
    for _ in range(SETUP_REPEATS):
        spawn_probe.sample()
        setup_starts.append(perf_counter())
        setup.append(_fresh_interpreter([str(HERE / "run.py"), "--setup-probe", "--workload",
                                         workload, "--seed", str(seed)]))
    spawn_probe.sample()
    by_id = {op.entry["id"]: op for op in workloads.prepare(pool, workload, seed)}
    cli_jobs = workload == "cli_jobs"
    execute = workloads.run_cli_process if cli_jobs else workloads.run_library_op
    # CLI ops are fresh interpreters, as the spawn probe is; library ops run here.
    probe = spawn_probe if cli_jobs else speed.SpeedProbe(
        speed.Kernel().timed, speed.NOMINAL_KERNEL_S, speed.KERNEL_INTERVAL_S)
    if not cli_jobs:  # let lazy set-up inside numpy/scipy finish before timing
        execute(next(iter(by_id.values())))

    starts, latencies, outcomes, results, ops = [], [], [], [], []
    probe_before = probe.spent_s
    start = perf_counter()
    for n, rnd in enumerate(workloads.rounds(pool, workload, seed)):
        elapsed = perf_counter() - start
        if n and elapsed + 0.5 * elapsed / n > seconds:  # would end past --seconds + half a round
            break
        batch = [by_id[e["id"]] for e in rnd]
        begun, lat, out, res, _ = run_ops(batch, execute, probe=probe)
        starts += begun
        latencies += lat
        outcomes += out
        results += res
        ops += batch
    busy = perf_counter() - start - (probe.spent_s - probe_before)
    probe.sample()  # so that the last ops have samples after them too

    if cli_jobs:
        rss_kb = max(r.rss_kb for r in results)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    n = len(latencies)
    ok = sum(o.status == "ok" for o in outcomes)
    errs = [o.err for o in outcomes if o.err is not None]
    scaled = probe.scale(starts, latencies)
    metrics = {
        "setup_s": statistics.median(spawn_probe.scale(setup_starts, setup, speed.SETUP_WINDOW)),
        "ops_per_s": n / sum(scaled),
        "op_p50_s": statistics.median(scaled),
        "ok_frac": ok / n,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "raw.setup_s": (statistics.median(setup), "s"),
        "raw.ops_per_s": (n / sum(latencies), "1/s"),
        "raw.op_p50_s": (statistics.median(latencies), "s"),
        "speed.spawn_probe_p50_s": (statistics.median(spawn_probe.samples), "s"),
        "speed.probe_p50_s": (statistics.median(probe.samples), "s"),
        "speed.probe_samples": (len(probe.samples), "count"),
        "fail_frac": ((n - ok) / n, "ratio"),
        "err_p50": (statistics.median(errs) if errs else float("nan"), "abs"),
        "ops": (n, "count"),
        "measured_s": (busy, "s"),
    }
    beyond = n - math.ceil(0.9 * n)
    if beyond >= TAIL_SAMPLES:
        p90 = statistics.quantiles(scaled, n=10, method="inclusive")[8]
        extra["op_p90_s"] = (p90, f"s (n={n}, {beyond} beyond)")
    timeline = {"op_start_s": [t - start for t in starts],
                "setup_start_s": [t - start for t in setup_starts], "setup_s": setup,
                "probe_start_s": [t - start for t in probe.times], "probe_s": probe.samples,
                "spawn_probe_start_s": [t - start for t in spawn_probe.times],
                "spawn_probe_s": spawn_probe.samples}
    return metrics, extra, ops, latencies, scaled, outcomes, timeline


def traced(workload: str, seed: int, pool: dict, out_prefix: Path):
    import tracing
    import workloads

    env = workloads.cli_env()
    import_s = statistics.median(_fresh_interpreter(
        ["-c", "import airy_gap.cli; print('ready')"], env=env) for _ in range(IMPORT_REPEATS))
    by_id = {op.entry["id"]: op for op in workloads.prepare(pool, workload, seed)}
    count = TRACE_PASSES[workload] * workloads.pass_rounds(pool, workload)
    gen = workloads.rounds(pool, workload, seed)
    ops = [by_id[e["id"]] for _ in range(count) for e in next(gen)]
    execute = (workloads.run_cli_in_process if workload == "cli_jobs"
               else workloads.run_library_op)
    execute(ops[0])  # warm-up, as in the untraced run

    _, lat_plain, out_plain, _, wall_plain = run_ops(ops, execute)
    tracer = tracing.Tracer()
    tracer.install()
    t0 = perf_counter()
    try:
        _, latencies, out_traced, _, wall_traced = run_ops(ops, execute, tracer)
    finally:
        tracer.uninstall()
    tracer.write(out_prefix.with_name(out_prefix.name + "-spans.jsonl"), t0)
    layers = tracing.layer_metrics(tracer.spans, import_s, wall_traced - wall_plain)
    units = dict(tracing.LAYER_METRICS)
    return ({k: (v, units[k]) for k, v in layers.items()}, ops + ops,
            lat_plain + latencies, out_plain + out_traced)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "airy_gap" / "__init__.py").is_file():
        return fail(f"no library sources at {SRC.relative_to(ROOT)}/airy_gap; "
                    "run from a checkout of the repository")
    if not (HERE / "pool.json").is_file():
        return fail("perfbench/pool.json is missing; run perfbench/make_pool.py")
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import airy_gap
    import tracing
    import workloads

    if Path(airy_gap.__file__).resolve().parent != (SRC / "airy_gap").resolve():
        return fail(f"imported airy_gap from {airy_gap.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    pool = workloads.load_pool()
    facts = machine_facts(args.seed, pool)
    workloads.OUT_DIR.mkdir(exist_ok=True)
    prefix = workloads.OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        table, ops, latencies, outcomes = traced(args.workload, args.seed, pool, prefix)
        scaled, timeline = [None] * len(ops), None
        reported = {k: v for k, v in table.items() if k not in tracing.UNDECLARED}
    else:
        metrics, extra, ops, latencies, scaled, outcomes, timeline = measure(
            args.workload, args.seed, args.seconds, pool)
        units = dict(END_TO_END)
        table = {k: (v, units[k]) for k, v in metrics.items()} | extra
        reported = {k: table[k] for k, _ in END_TO_END}

    for op, o in zip(ops, outcomes):
        if o.status != "ok":
            tag = "KNOWN MISS" if o.expected else "MISS"
            print(f"{tag} {op.entry['id']}: {o.status}: {o.detail}", file=sys.stderr)
    failed = sum(o.status == "failed" for o in outcomes)
    correct = all(o.expected for o in outcomes)

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(outcomes)} correct={correct}")
    print("# facts " + json.dumps(facts, sort_keys=True))
    width = max(len(k) for k in table)
    for name, (value, unit) in table.items():
        print(f"{name:<{width}}  {value!r:<24}  {unit}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "facts": facts, "pool_provenance": pool["provenance"],
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in table.items()},
        "ops": [{"id": op.entry["id"], "latency_s": lat, "scaled_s": sc, "status": o.status,
                 "err": o.err, "expected": o.expected, "detail": o.detail}
                for op, lat, sc, o in zip(ops, latencies, scaled, outcomes)],
        "timeline": timeline,
    }
    with open(prefix.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": len(outcomes), "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in reported.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
