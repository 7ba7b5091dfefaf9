"""Spans recorded from outside the library, and the per-layer metrics built
from them.

`Tracer.install` replaces module attributes that fredholm and cli resolve at
call time (``specfun.gauss_legendre_rule``, ``fredholm.logdet_single``, ...)
with wrappers that record a span: name, start, end, parent and the op it
belongs to.  Stacks are thread-local; spans opened on a sweep's pool threads
take the enclosing ``cli.sweep`` span as parent.  Spans stay in memory until
the run writes them out.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from airy_gap import asymptotics, cli, fredholm, parametrix, specfun

LONGDOUBLE_BYTES = np.dtype(np.longdouble).itemsize
TRACE_NAMES = ("fredholm.mean_count", "fredholm.var_count", "fredholm.cov_count",
               "fredholm.cov_halflines")
#: Public asymptotics entry points (those the package exports).
ASYMPTOTICS_NAMES = ("beta_from_s", "log_E0_asym", "log_E0_product_form", "log_E_asym",
                     "log_E_m1", "log_E_product_form", "log_F_m1_s0", "moment_asym", "mu",
                     "s_from_beta", "sigma2", "sigma_cov", "thinned_joint_tail_asym",
                     "var_interval_asym")

#: (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("specfun.gauss_legendre_rule.calls", "count"),
    ("specfun.gauss_legendre_rule.self_s", "s"),
    ("fredholm.build_scheme.calls", "count"),
    ("fredholm.build_scheme.self_s", "s"),
    ("fredholm.logdet_single.calls", "count"),
    ("fredholm.logdet_single.self_s", "s"),
    ("fredholm.logdet_single.n_sum", "count"),
    ("fredholm.logdet_single.n_max", "count"),
    ("fredholm.logdet_single.flops_computed", "flop"),
    ("fredholm.logdet_single.bytes_computed", "B"),
    ("fredholm.escalation_ratio", "ratio"),
    ("fredholm.extended.self_s", "s"),
    ("specfun.airy_ai_real_xp.calls", "count"),
    ("specfun.airy_ai_real_xp.points", "count"),
    ("specfun.airy_ai_real_xp.self_s", "s"),
    ("fredholm.log_det.calls", "count"),
    ("fredholm.log_det.self_s", "s"),
    ("fredholm.log_det.unconverged_ratio", "ratio"),
    ("fredholm.traces.calls", "count"),
    ("fredholm.traces.self_s", "s"),
    ("asymptotics.calls", "count"),
    ("asymptotics.self_s", "s"),
    ("parametrix.extract_asym_coeff.self_s", "s"),
    ("parametrix.jump_residual.calls", "count"),
    ("parametrix.jump_residual.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.sweep.overlap", "ratio"),
    ("trace.overhead_s", "s"),
)
#: Self times of layers that some workload never enters, so they read exactly
#: 0 on every run of it.  They appear in the per-layer table and file, but not
#: in the result line, whose times must be measured on every workload.
UNDECLARED = frozenset({
    "fredholm.extended.self_s", "specfun.airy_ai_real_xp.self_s", "fredholm.traces.self_s",
    "parametrix.extract_asym_coeff.self_s", "parametrix.jump_residual.self_s",
    "cli.main.self_s",
})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    extra: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder with call-time wrappers around library attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None  # id shared by every span of the current op
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._spawn_parent: int | None = None
        self._patches: list = []

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        rec = {"id": next(self._ids), "extra": {}}
        parent = stack[-1] if stack else self._spawn_parent
        stack.append(rec["id"])
        start = perf_counter()
        try:
            yield rec
        finally:
            end = perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(rec["id"], name, start, end, parent, self.op,
                                       threading.get_ident(), rec["extra"]))

    def wrap(self, module, attr: str, name: str, note=None, spawns: bool = False) -> None:
        """Replace module.attr by a spanning wrapper.

        note(args, kwargs, result) returns extra fields for the span.  With
        spawns, spans opened on threads with an empty stack while this one
        runs take it as parent.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                if spawns:
                    self._spawn_parent = rec["id"]
                try:
                    result = original(*args, **kwargs)
                finally:
                    if spawns:
                        self._spawn_parent = None
                if note is not None:
                    rec["extra"].update(note(args, kwargs, result))
                return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def install(self) -> None:
        self.wrap(specfun, "gauss_legendre_rule", "specfun.gauss_legendre_rule")
        self.wrap(specfun, "airy_ai_real_xp", "specfun.airy_ai_real_xp",
                  note=lambda a, k, r: {"points": int(np.size(a[0]))})
        self.wrap(fredholm, "build_scheme", "fredholm.build_scheme")
        self.wrap(fredholm, "logdet_single", "fredholm.logdet_single",
                  note=lambda a, k, r: {"n": int((a[1] if len(a) > 1 else k["scheme"]).size)})
        self.wrap(fredholm, "log_det", "fredholm.log_det",
                  note=lambda a, k, r: {"converged": bool(r.converged)})
        for name in TRACE_NAMES:
            self.wrap(fredholm, name.split(".")[1], name)
        for attr in ASYMPTOTICS_NAMES:
            self.wrap(asymptotics, attr, f"asymptotics.{attr}")
        self.wrap(parametrix, "jump_residual", "parametrix.jump_residual")
        self.wrap(parametrix, "extract_asym_coeff", "parametrix.extract_asym_coeff")
        self.wrap(cli, "main", "cli.main")
        self.wrap(cli, "cmd_sweep", "cli.sweep", spawns=True)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write(self, path, t0: float) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start - t0,
                                     "end": s.end - t0, "parent": s.parent, "op": s.op,
                                     "thread": s.thread, **s.extra}) + "\n")


def _covered(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(spans: list[Span], import_s: float, overhead_s: float) -> dict:
    """Every LAYER_METRICS value from one traced run's spans."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def self_time(s: Span) -> float:
        inner = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        return (s.end - s.start) - _covered([iv for iv in inner if iv[1] > iv[0]])

    def descendants(s: Span):
        for c in children[s.id]:
            yield c
            yield from descendants(c)

    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    names = {s.id: s.name for s in spans}

    def calls(name):
        return len(by_name[name])

    def self_s(*names_):
        return sum((self_time(s) for n in names_ for s in by_name[n]), 0.0)

    def entries(group):
        return sum(1 for n in group for s in by_name[n] if names.get(s.parent) not in group)

    logdets = by_name["fredholm.logdet_single"]
    escalated = [s for s in logdets
                 if any(d.name == "specfun.airy_ai_real_xp" for d in descendants(s))]
    esc_ids = {s.id for s in escalated}
    flops = sum((4.0 / 3.0 + (2.0 / 3.0 if s.id in esc_ids else 0.0)) * s.extra["n"] ** 3
                for s in logdets)
    nbytes = sum((8 + (LONGDOUBLE_BYTES if s.id in esc_ids else 0)) * s.extra["n"] ** 2
                 for s in logdets)
    log_dets = by_name["fredholm.log_det"]
    sweeps = by_name["cli.sweep"]
    sweep_wall = sum(s.end - s.start for s in sweeps)
    sweep_det = sum(d.end - d.start for s in sweeps for d in descendants(s)
                    if d.name == "fredholm.log_det")
    asym = tuple(f"asymptotics.{a}" for a in ASYMPTOTICS_NAMES)
    values = {
        "specfun.gauss_legendre_rule.calls": calls("specfun.gauss_legendre_rule"),
        "specfun.gauss_legendre_rule.self_s": self_s("specfun.gauss_legendre_rule"),
        "fredholm.build_scheme.calls": calls("fredholm.build_scheme"),
        "fredholm.build_scheme.self_s": self_s("fredholm.build_scheme"),
        "fredholm.logdet_single.calls": len(logdets),
        "fredholm.logdet_single.self_s": self_s("fredholm.logdet_single"),
        "fredholm.logdet_single.n_sum": sum(s.extra["n"] for s in logdets),
        "fredholm.logdet_single.n_max": max((s.extra["n"] for s in logdets), default=0),
        "fredholm.logdet_single.flops_computed": flops,
        "fredholm.logdet_single.bytes_computed": nbytes,
        "fredholm.escalation_ratio": len(escalated) / len(logdets) if logdets else 0.0,
        "fredholm.extended.self_s": sum((self_time(s) for s in escalated), 0.0),
        "specfun.airy_ai_real_xp.calls": calls("specfun.airy_ai_real_xp"),
        "specfun.airy_ai_real_xp.points": sum(s.extra["points"] for s in by_name["specfun.airy_ai_real_xp"]),
        "specfun.airy_ai_real_xp.self_s": self_s("specfun.airy_ai_real_xp"),
        "fredholm.log_det.calls": len(log_dets),
        "fredholm.log_det.self_s": self_s("fredholm.log_det"),
        "fredholm.log_det.unconverged_ratio":
            sum(not s.extra["converged"] for s in log_dets) / len(log_dets) if log_dets else 0.0,
        "fredholm.traces.calls": entries(TRACE_NAMES),
        "fredholm.traces.self_s": self_s(*TRACE_NAMES),
        "asymptotics.calls": entries(asym),
        "asymptotics.self_s": self_s(*asym),
        "parametrix.extract_asym_coeff.self_s": self_s("parametrix.extract_asym_coeff"),
        "parametrix.jump_residual.calls": calls("parametrix.jump_residual"),
        "parametrix.jump_residual.self_s": self_s("parametrix.jump_residual"),
        "cli.import_s": import_s,
        "cli.main.self_s": self_s("cli.main"),
        "cli.sweep.overlap": sweep_det / sweep_wall if sweep_wall else 0.0,
        "trace.overhead_s": overhead_s,
    }
    return {name: values[name] for name, _ in LAYER_METRICS}
