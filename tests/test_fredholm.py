"""Determinant core: kernel, schemes, log det, the resolvent trace identity, counting traces."""

import logging
import math
import re

import numpy as np
import pytest

from airy_gap import fredholm as fr
from airy_gap import specfun as sf
from airy_gap.asymptotics import beta_from_s, log_F_m1_s0
from airy_gap.fredholm import GapConfig, NumericalError

#: frozen regression value for log F(-2; 0) (nodes_per_panel = 160)
LOGF_MINUS2_S0 = -0.8837651153091381


# ---------------------------------------------------------------------------
# configuration type
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", ((math.nan,), (-1.0, -math.inf), (math.inf, -1.0)))
def test_config_rejects_nonfinite_endpoints(x):
    with pytest.raises(ValueError, match="finite"):
        GapConfig(x, (0.5,) * len(x))


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_config_rejects_nonfinite_weights(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GapConfig((-1.0, -2.0), (0.5, bad))


def test_config_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        GapConfig((-3.0, -1.0), (0.5, 0.5))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        GapConfig((-1.0,), (1.5,))
    with pytest.raises(ValueError, match="s_1"):
        GapConfig((-1.0, -2.0), (0.5, 0.0))
    with pytest.raises(ValueError):
        GapConfig((), ())


def test_config_beta_reproduces_weight_ratios():
    cfg = GapConfig((-1.0, -2.0, -3.5), (0.3, 0.8, 0.6))
    svals = cfg.s + (1.0,)
    for j, b in enumerate(beta_from_s(cfg.s)):
        ratio = svals[j] / svals[j + 1]
        assert abs(np.exp(-2j * np.pi * b) - ratio) < 1e-14
    # s_1 = 0 leaves beta_1 undefined: the map returns beta_2..beta_m only
    assert len(beta_from_s(GapConfig((-1.0, -2.0), (0.0, 0.5)).s)) == 1


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

def test_kernel_symmetry(rng):
    pts = rng.uniform(-15.0, 5.0, size=(50, 2))
    for u, v in pts:
        assert abs(fr.airy_kernel(u, v) - fr.airy_kernel(v, u)) < 1e-13


def test_kernel_at_origin():
    expected = 3.0 ** (-2.0 / 3.0) / math.gamma(1.0 / 3.0) ** 2
    assert abs(fr.airy_kernel(0.0, 0.0) - expected) < 1e-14


def test_kernel_block_matches_scalar_kernel(rng):
    xa = np.sort(rng.uniform(-12.0, -1.0, size=17))
    xb = np.sort(rng.uniform(0.0, 6.0, size=11))
    xi = np.concatenate((xa, xb))
    K = fr._kernel_matrix(xi, np.ones_like(xi))[:17, 17:]  # the block cov_count reads
    assert K.shape == (17, 11)
    expected = np.array([[fr.airy_kernel(u, v) for v in xb] for u in xa])
    assert np.max(np.abs(K - expected)) < 1e-13


def test_kernel_precision_follows_node_dtype(monkeypatch):
    calls = []
    original = sf.airy_ai_real_xp

    def counting(x):
        calls.append(x.size)
        return original(x)

    monkeypatch.setattr(sf, "airy_ai_real_xp", counting)
    cfg = GapConfig((-2.0,), (0.5,))
    xi = fr.build_scheme(cfg, 8).xi
    K = fr._kernel_matrix(xi, np.ones_like(xi))
    assert K.dtype == np.float64 and calls == []
    xi = fr.build_scheme(cfg, 8, dtype=np.longdouble).xi
    assert calls == [xi.size]  # the 80-bit scheme's own Airy pair
    calls.clear()
    K = fr._kernel_matrix(xi, np.ones_like(xi))
    assert K.dtype == np.longdouble and calls == [xi.size]


def _outer_product_kernel(xi, w, airy):
    """The assembly with its numerator as an outer product M less its transpose."""
    ai, aip = (v * np.sqrt(w) for v in airy)
    M = np.outer(ai, aip)
    A = M - M.T
    den = np.subtract.outer(xi, xi)
    np.fill_diagonal(den, 1.0)
    A /= den
    np.fill_diagonal(A, aip * aip - xi * ai * ai)
    return A


@pytest.mark.parametrize("n", [16, 24])
def test_kernel_numerator_is_the_outer_product_form(n):
    # cond-8-12's first two rungs: np.einsum adds the two rounded products to 0, so each
    # entry is the outer-product form's to the bit, in 80-bit and in double (a numpy whose
    # einsum fused the multiply-add, as BLAS does for np.dot, would move double entries)
    cfg = GapConfig((-8.0, -12.0), (0.0, 0.3))
    layout = fr._panel_layout(fr._scheme_intervals(cfg, None), 16, 81)  # the default ladder's
    for dtype in (np.longdouble, np.float64):
        scheme = fr._layout_scheme(layout, (n,), dtype)[0]
        w = fr._thinned_weights(cfg, scheme)
        A = fr._kernel_matrix(scheme.xi, w, scheme.airy)
        assert A.dtype == dtype
        assert np.array_equal(A, _outer_product_kernel(scheme.xi, w, scheme.airy))


def test_kernel_confluence():
    u, v = -1.0, -1.0 + 1e-5
    off_diag = fr.airy_kernel(u, v)
    mid = 0.5 * (u + v)
    ai, aip = sf.airy_ai(mid)
    diagonal = (aip * aip - mid * ai * ai).real
    assert abs(off_diag - diagonal) < 1e-8
    # the dedicated near-diagonal branch agrees with the confluent form
    assert abs(fr.airy_kernel(u, u + 1e-9) - fr.airy_kernel(u, u)) < 1e-9


# ---------------------------------------------------------------------------
# scheme construction
# ---------------------------------------------------------------------------

def _within_panel_bounds(panels):
    """Every part of a panel below 0 at most 4 long, every part above 0 at most 12."""
    return all(min(b, 0.0) - min(a, 0.0) <= 4.0 + 1e-12 and max(b, 0.0) - max(a, 0.0) <= 12.0 + 1e-12
               for a, b in panels)


def test_scheme_single_interval_layout():
    cfg = GapConfig((-2.0,), (0.0,))
    scheme = fr.build_scheme(cfg, nodes_per_panel=16, tail_length=12.0)
    assert len(scheme.panels) == 2  # ceil(2/4 + 10/12)
    assert scheme.panels[0][0] == -2.0
    assert scheme.panels[-1][1] == 10.0
    assert _within_panel_bounds(scheme.panels)
    assert np.all(fr._thinned_weights(cfg, scheme) == scheme.w)  # factor 1 - s = 1


def test_scheme_weight_factors():
    cfg = GapConfig((-1.0, -3.0), (0.5, 0.2))
    scheme = fr.build_scheme(cfg, nodes_per_panel=8, tail_length=8.0)
    # intervals by ascending position: (-3, -1) first, then the tail (-1, 7)
    inner = scheme.interval_index == 0
    outer = scheme.interval_index == 1
    w = fr._thinned_weights(cfg, scheme)  # the weights A is assembled with
    assert np.allclose(w[inner] / scheme.w[inner], 0.8)
    assert np.allclose(w[outer] / scheme.w[outer], 0.5)
    assert np.all(scheme.xi[inner] < -1.0) and np.all(scheme.xi[inner] > -3.0)


def test_scheme_all_weights_one_vanishes():
    cfg = GapConfig((-1.0, -2.0), (1.0, 1.0))
    scheme = fr.build_scheme(cfg, nodes_per_panel=8)
    assert np.all(fr._thinned_weights(cfg, scheme) == 0.0)


def test_scheme_long_interval_split_and_default_tail():
    cfg = GapConfig((-1.0, -11.0), (0.5, 0.5))
    scheme = fr.build_scheme(cfg, nodes_per_panel=8)
    inner = [p for p in scheme.panels if p[1] <= -1.0]
    assert len(inner) == 3  # ceil(10/4)
    assert len(scheme.panels) == 5  # and ceil(1/4 + 12.5/12) on (-1, 12.5)
    assert _within_panel_bounds(scheme.panels)
    # default tail clears the truncation floor
    assert scheme.panels[-1][1] >= fr.TRUNCATION_POINT_MIN


def test_scheme_validation():
    cfg = GapConfig((-2.0,), (0.5,))
    with pytest.raises(ValueError):
        fr.build_scheme(cfg, nodes_per_panel=2)
    with pytest.raises(ValueError):
        fr.build_scheme(cfg, tail_length=4.0)


@pytest.mark.parametrize("a", (-3.0, -1.0, 0.0, 6.0))
def test_one_halfline_cut_for_determinants_and_traces(a):
    trace = fr._set_scheme([(a, math.inf)], 8)
    scheme = fr.build_scheme(GapConfig((a,), (0.5,)), 8)
    assert trace.w.sum() == pytest.approx(scheme.w.sum(), abs=1e-12)
    assert trace.panels == scheme.panels
    assert scheme.panels[-1][1] == a + fr.default_tail_length(a)


def _map_per_panel(intervals, nodes_per_panel, dtype):
    """The panels _layout_scheme maps at once, one panel at a time from the rule:
    ceil(phi(b) - phi(a)) panels per interval, phi(u) = u/4 below 0 and u/12
    above, edges equidistributed in phi, the interval's ends kept and its
    interior edges mapped back, and one QuadRule.mapped call each."""
    def phi(u):
        return u / 4.0 if u < 0.0 else u / 12.0

    def u_of(t):
        return 4.0 * t if t < 0.0 else 12.0 * t

    rule = sf.gauss_legendre_rule(nodes_per_panel, dtype=dtype)
    panels, xs, ws, pos = [], [], [], []
    for p, (a, b) in enumerate(intervals):
        count = max(1, math.ceil(phi(b) - phi(a) - 1e-12))
        edges = [a] + [u_of(t) for t in np.linspace(phi(a), phi(b), count + 1)[1:-1].tolist()] + [b]
        for pa, pb in zip(edges[:-1], edges[1:]):
            nodes, weights = rule.mapped(dtype(pa), dtype(pb))
            panels.append((float(pa), float(pb)))
            xs.append(nodes)
            ws.append(weights)
            pos.append(np.full(nodes.size, p, dtype=np.int32))
    return tuple(panels), np.concatenate(xs), np.concatenate(ws), np.concatenate(pos)


@pytest.mark.parametrize("dtype", (np.float64, np.longdouble))
@pytest.mark.parametrize("n", (16, 24, 36))
@pytest.mark.parametrize("x, s", [((-2.0,), (0.5,)), ((-1.0, -3.0, -5.5), (0.2, 0.5, 0.9)),
                                  ((-99.0,), (0.5,)), ((-8.0, -12.0), (0.0, 0.3)),
                                  ((6.0, 0.0, -5.5), (0.5, 0.2, 0.9))])
def test_panelize_maps_every_panel_like_quadrule_mapped(dtype, n, x, s):
    intervals = fr._scheme_intervals(GapConfig(x, s), None)
    lo, hi, pos = layout = fr._panel_layout(intervals, n)
    want = _map_per_panel(intervals, n, dtype)
    assert tuple(zip(lo.tolist(), hi.tolist())) == want[0]
    assert np.array_equal(pos.repeat(n), want[3])
    # alone and as the second of two orders mapped at once, column by column
    for orders in ((n,), (7, n)):
        scheme = fr._layout_scheme(layout, orders, dtype)[-1]
        assert scheme.nodes_per_panel == n and np.array_equal(scheme.interval_index, want[3])
        for a, b in zip((scheme.xi, scheme.w), want[1:3]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# the 15 thinned configurations of the benchmark pool (perfbench/pool.json)
THINNED_POOL = [
    ((-2.5168,), (0.764,)),
    ((-2.9506,), (0.1122,)),
    ((-2.9215,), (0.1676,)),
    ((-3.3438, -5.56441758), (0.4651, 0.4953)),
    ((-2.9852, -4.29749392), (0.5718, 0.5165)),
    ((-4.3314,), (0.1339,)),
    ((-4.3633, -5.8053706499999995), (0.3742, 0.2083)),
    ((-2.1372, -3.75634272, -4.510346879999999), (0.1944, 0.0978, 0.1916)),
    ((-2.4137, -4.02074146, -6.4008910299999995), (0.3112, 0.8619, 0.4442)),
    ((-3.8042, -6.40132734, -9.65391834), (0.142, 0.7936, 0.8268)),
    ((-4.465, -8.3267785, -12.2854475), (0.7337, 0.656, 0.4323)),
    ((-3.892, -5.9804471999999995, -7.5247928), (0.16, 0.7027, 0.2269)),
    ((-4.848, -8.9183808, -11.491214399999999), (0.2933, 0.9247, 0.3363)),
    ((-5.8875, -8.241322499999999, -12.51447), (0.5014, 0.3323, 0.6117)),
    ((-5.4412, -9.7207038, -12.057699200000002), (0.4944, 0.7468, 0.3629)),
]


@pytest.mark.parametrize("x, s", THINNED_POOL + [
    ((6.0, 0.0, -5.5), (0.5, 0.2, 0.9)), ((3.0,), (0.5,)), ((-0.1,), (0.5,)),
    ((-99.0,), (0.5,)), ((-8.0, -12.0), (0.0, 0.3))])
def test_panels_are_at_most_four_long_below_zero_and_eight_above(x, s):
    cfg = GapConfig(x, s)
    for tail in (None, 8.0, 31.0):
        scheme = fr.build_scheme(cfg, 16, tail)
        panels = scheme.panels
        assert _within_panel_bounds(panels)
        assert all(b == c for (_, b), (c, _) in zip(panels, panels[1:]))
        # every x_j and the cut x_1 + T are exact panel edges
        assert set(cfg.x) <= {a for a, _ in panels}
        assert panels[0][0] == cfg.x[-1] and panels[-1][1] == fr._halfline_cut(cfg.x[0], tail)
        # the 80-bit scheme maps the same double edges
        assert fr.build_scheme(cfg, 16, tail, dtype=np.longdouble).panels == panels


def test_thinned_pool_panel_count():
    # 90 panels of length at most 4 on both sides, 68 at most 8 long above 0, 59 at most 12
    assert sum(len(fr.build_scheme(GapConfig(x, s), 16).panels) for x, s in THINNED_POOL) == 59


@pytest.mark.parametrize("x, s", THINNED_POOL)
def test_default_ladder_stops_at_24_nodes_on_the_thinned_pool(x, s):
    cfg = GapConfig(x, s)
    report = fr.log_det(cfg)
    assert [n for n, _ in report.resolutions] == [16, 24]
    assert abs(report.log_f - fr.log_det(cfg, nodes_per_panel=54).log_f) <= report.est_error


@pytest.mark.parametrize("x, s", [((-8.0, -12.0), (0.0, 0.3)), ((-8.5, -11.0), (0.0, 0.5))])
def test_conditioned_pool_ladders_stop_at_24_nodes(x, s):
    # cond-8-12 and cond-8.5-11: log_E0 runs the ladder on the configuration and
    # on F(x_1; 0); a panel layout that pushed either to a third rung would cost
    # the deep-gap benchmark a 36-node 80-bit determinant per value
    for cfg in (GapConfig(x, s), GapConfig(x[:1], (0.0,))):
        assert [n for n, _ in fr._nystrom_log_det(cfg).resolutions] == [16, 24], cfg


@pytest.mark.parametrize("x", (0.5, 2.0, 4.5, 6.0))
@pytest.mark.parametrize("s", (0.3, 0.9))
def test_default_ladder_on_a_tail_wholly_above_zero(x, s):
    # (x, x + T) is one decaying panel, up to 12 long at x = 0.5
    cfg = GapConfig((x,), (s,))
    assert len(fr.build_scheme(cfg, 16).panels) == 1
    report = fr.log_det(cfg)
    assert [n for n, _ in report.resolutions] == [16, 24]
    assert abs(report.log_f - fr.log_det(cfg, nodes_per_panel=54).log_f) <= report.est_error


@pytest.mark.parametrize("x, s, n", [(x, s, None) for x, s in THINNED_POOL] + [
    ((-8.0, -12.0), (0.0, 0.3), None), ((-8.5, -11.0), (0.0, 0.5), None),  # cond-8-12, cond-8.5-11
    ((-6.0, -8.0), (0.0, 0.5), None),
    ((-2.0, -3.0, -4.5), (0.5, 0.5, 0.3), 24), ((-6.0, -8.0), (0.0, 0.5), 24)])
def test_ladder_values_are_the_values_of_single_rungs(monkeypatch, x, s, n):
    # the ladder shares one layout and one Airy call between its first two
    # rungs; each value stays the bits of logdet_single on build_scheme
    escalations = []
    original = sf.airy_ai_real_xp
    monkeypatch.setattr(sf, "airy_ai_real_xp", lambda xi: escalations.append(xi.size) or original(xi))
    cfg = GapConfig(x, s)
    report = fr.log_det(cfg, nodes_per_panel=n)
    assert report.route == "nystrom" and len(report.resolutions) >= 2
    assert bool(escalations) == (s[0] == 0.0)  # these s_1 = 0 gaps are deep enough to escalate
    assert list(report.resolutions) == [(k, fr.logdet_single(cfg, fr.build_scheme(cfg, k)))
                                        for k, _ in report.resolutions]


def test_ladder_hands_each_rung_its_own_scheme(monkeypatch):
    # a wrapper of logdet_single sees one call per rung, the rung's scheme second
    calls = []
    original = fr.logdet_single

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(fr, "logdet_single", recording)
    cfg = GapConfig((-2.0, -3.0, -4.5), (0.5, 0.5, 0.3))
    report = fr.log_det(cfg)
    assert len(calls) == len(report.resolutions)
    for (args, kwargs), (n, _) in zip(calls, report.resolutions):
        assert kwargs == {} and args[0] is cfg
        scheme, reference = args[1], fr.build_scheme(cfg, n)
        assert scheme.nodes_per_panel == n and scheme.size == reference.size
        assert scheme.panels == reference.panels and np.array_equal(scheme.xi, reference.xi)


@pytest.mark.parametrize("x, s", THINNED_POOL)
def test_thinned_log_det_assembles_and_factors_once_per_rung(monkeypatch, x, s):
    # one panel layout, one _layout_scheme call and one Airy call for both rungs, then
    # per rung one assembly and one double Cholesky, each of that rung's whole matrix
    events = []
    lay, build, kernel = fr._panel_layout, fr._layout_scheme, fr._kernel_matrix
    airy, cholesky = sf.airy_real, np.linalg.cholesky
    monkeypatch.setattr(fr, "_panel_layout", lambda *a: events.append(("layout",)) or lay(*a))
    monkeypatch.setattr(fr, "_layout_scheme", lambda *a: events.append(("schemes", a[1])) or build(*a))
    monkeypatch.setattr(sf, "airy_real", lambda t: events.append(("airy", t.size)) or airy(t))
    monkeypatch.setattr(fr, "_kernel_matrix",
                        lambda xi, w, airy=None: events.append(("kernel", xi.size)) or kernel(xi, w, airy))
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: events.append(("cholesky", a.shape)) or cholesky(a))
    cfg = GapConfig(x, s)
    report = fr.log_det(cfg)
    monkeypatch.undo()
    sizes = [fr.build_scheme(cfg, n).size for n, _ in report.resolutions]
    assert [n for n, _ in report.resolutions] == [16, 24]
    assert events == [("layout",), ("schemes", (16, 24)), ("airy", sum(sizes)),
                      ("kernel", sizes[0]), ("cholesky", (sizes[0],) * 2),
                      ("kernel", sizes[1]), ("cholesky", (sizes[1],) * 2)]


@pytest.mark.parametrize("x, s, n", [(x, s, None) for x, s in THINNED_POOL[::3]] + [
    ((-40.0,), (0.5,), None), ((-6.0,), (0.0,), 16), ((-5.4,), (0.0,), 14),
    ((-2.0, -3.0, -4.5), (0.5, 0.5, 0.3), 24), ((-6.0, -8.0), (0.0, 0.5), None)])
def test_logdet_single_sees_every_rung(monkeypatch, x, s, n):
    # a profiler wraps logdet_single by module attribute and reads the scheme from its
    # second argument: every rung of log_det, double or 80-bit, is one such call
    calls = []
    run = fr.logdet_single
    monkeypatch.setattr(fr, "logdet_single", lambda *a: calls.append(a) or run(*a))
    cfg = GapConfig(x, s)
    report = fr.log_det(cfg, nodes_per_panel=n)
    assert [(config, scheme.nodes_per_panel) for config, scheme in calls] == \
        [(cfg, k) for k, _ in report.resolutions]
    assert [value for _, value in report.resolutions] == [run(*a) for a in calls]


@pytest.mark.parametrize("tail", (math.inf, math.nan))
def test_scheme_rejects_nonfinite_tail(tail):
    with pytest.raises(ValueError, match="tail_length must be finite"):
        fr.build_scheme(GapConfig((-2.0,), (0.5,)), tail_length=tail)


# ---------------------------------------------------------------------------
# log determinant
# ---------------------------------------------------------------------------

def test_logdet_trivial_weights():
    report = fr.log_det(GapConfig((-2.0, -4.0), (1.0, 1.0)))
    assert report.log_f == 0.0
    assert report.converged


def test_impossible_refinement_fails_before_any_scheme(monkeypatch):
    def no_scheme(*args, **kwargs):
        raise AssertionError("a scheme was built")

    # build_scheme and the ladder both build through _layout_scheme
    for name in ("build_scheme", "_layout_scheme"):
        monkeypatch.setattr(fr, name, no_scheme)
    # the first rung fits, its refinement ceil(1.5 * 3000) = 4500 does not
    with pytest.raises(ValueError, match="rule order 4500 is above MAX_RULE_ORDER = 4096"):
        fr.log_det(GapConfig((-2.0,), (0.5,)), nodes_per_panel=3000)


def test_traces_refuse_oversized_discretization(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a kernel matrix was built")

    monkeypatch.setattr(fr, "_kernel_matrix", no_matrix)
    # 13 panels of 4096 nodes
    with pytest.raises(ValueError, match=f"N = 53248 nodes, above MAX_NODES = {fr.MAX_NODES}"):
        fr.var_count([(-50.0, -1.0)], nodes_per_panel=4096)
    # each set fits alone (4096 and 8192 nodes); cov_count's one matrix is on their union
    with pytest.raises(ValueError, match=f"N = 12288 nodes, above MAX_NODES = {fr.MAX_NODES}"):
        fr.cov_count([(-8.0, -4.0)], [(-4.0, 4.0)], nodes_per_panel=4096)


def test_logdet_self_convergence_and_regression():
    cfg = GapConfig((-2.0,), (0.0,))
    values = [fr.logdet_single(cfg, fr.build_scheme(cfg, n)) for n in (40, 80, 160)]
    assert max(values) - min(values) < 1e-8
    assert abs(values[-1] - LOGF_MINUS2_S0) < 1e-9


@pytest.mark.parametrize("x, s", [((-6.0,), (0.0,)), ((-4.0, -8.0, -12.0), (0.5, 0.3, 0.2))])
def test_default_ladder_stops_at_the_tolerance(x, s):
    cfg = GapConfig(x, s)
    report = fr._nystrom_log_det(cfg)
    assert [n for n, _ in report.resolutions] == [16, 24]
    assert report.converged
    fine = fr.log_det(cfg, nodes_per_panel=128)
    assert abs(report.log_f - fine.log_f) <= report.est_error + fine.est_error


def test_default_ladder_refines_by_half():
    rungs = fr.DEFAULT_LADDER
    assert all(b == math.ceil(1.5 * a) for a, b in zip(rungs, rungs[1:]))


def test_default_ladder_builds_only_the_schemes_it_runs(monkeypatch):
    events, layouts = [], []
    lay, build, run = fr._panel_layout, fr._layout_scheme, fr.logdet_single

    def laying(*args, **kwargs):
        layouts.append(lay(*args, **kwargs))
        return layouts[-1]

    def building(layout, orders, dtype=np.float64):
        assert any(layout is known for known in layouts)
        events.append(("build", tuple(orders), dtype))
        return build(layout, orders, dtype)

    def running(config, scheme):
        events.append(("run", scheme.nodes_per_panel, scheme.xi.dtype.type))
        return run(config, scheme)

    # every scheme is built by _layout_scheme, build_scheme's too
    monkeypatch.setattr(fr, "_panel_layout", laying)
    monkeypatch.setattr(fr, "_layout_scheme", building)
    monkeypatch.setattr(fr, "logdet_single", running)
    # the tail of log F(-6; 0) is below log DEEP_GAP_THRESHOLD: rungs 16 and 24
    # are built together in 80-bit and run there alone, with no double scheme;
    # (-40; 0.5) needs a third rung
    double, extended = np.float64, np.longdouble
    for x, s, rungs, expected in [
            ((-6.0,), (0.0,), [16, 24],
             [("build", (16, 24), extended), ("run", 16, extended), ("run", 24, extended)]),
            ((-40.0,), (0.5,), [16, 24, 36],
             [("build", (16, 24), double), ("run", 16, double), ("run", 24, double),
              ("build", (36,), double), ("run", 36, double)])]:
        events.clear()
        layouts.clear()
        report = fr._nystrom_log_det(GapConfig(x, s))
        assert [n for n, _ in report.resolutions] == rungs
        # one panel layout for the whole ladder, its escalations included
        assert len(layouts) == 1
        # the first two rungs always run and are built by one call; a later
        # rung, or an 80-bit one, is built only after the one before it ran
        assert events == expected


@pytest.mark.parametrize("n, rungs", [(24, [24, 36]), (48, [48, 72]), (17, [17, 26])])
def test_explicit_resolution_runs_two_rungs(n, rungs):
    cfg = GapConfig((-2.0,), (0.5,))
    report = fr.log_det(cfg, nodes_per_panel=n)
    assert [k for k, _ in report.resolutions] == rungs
    gap = abs(report.resolutions[1][1] - report.resolutions[0][1])
    assert report.est_error == max(gap, fr.ROUNDING_FLOOR * max(abs(report.log_f), 1.0))


def test_default_ladder_reports_its_last_gap_when_unconverged():
    # at x = -11 the 80-bit floor keeps every refinement gap above 1e-8
    report = fr._nystrom_log_det(GapConfig((-11.0,), (0.0,)))
    assert [n for n, _ in report.resolutions] == list(fr.DEFAULT_LADDER)
    assert not report.converged
    (_, coarse), (_, fine) = report.resolutions[-2:]
    assert report.est_error == max(abs(fine - coarse), fr.ROUNDING_FLOOR * abs(fine))
    assert report.log_f == fine


def test_report_derives_log_f_and_converged_from_its_fields():
    report = fr.DeterminantReport(((16, -1.25), (24, -1.5)), 0.25, "nystrom")
    assert report.log_f == -1.5 and not report.converged
    assert fr.DeterminantReport(((16, -1.5),), 1e-9, "nystrom").converged


def _logdet_80bit(config, n):
    """log det(I - A) by one 80-bit Cholesky of the 80-bit assembly."""
    scheme = fr.build_scheme(config, n, dtype=np.longdouble)
    A = fr._kernel_matrix(scheme.xi, fr._thinned_weights(config, scheme))
    np.negative(A, out=A)
    A.flat[::A.shape[0] + 1] += 1.0
    return float(fr._cholesky_logdet_ld(A))


@pytest.mark.parametrize("x", (-8.0, -20.0))
def test_small_weight_floor_covers_the_cholesky_rounding(x):
    # lambda_max(A) is near 1 - 0.001: the double Cholesky rounds to 50-140
    # ulps of |log F| here, beyond a 32-ulp floor
    cfg = GapConfig((x,), (0.001,))
    floor = fr.ROUNDING_FLOOR * max(1.0, fr.SMALL_WEIGHT_NOISE / 0.001)
    report = fr.log_det(cfg)
    assert report.converged and report.est_error >= floor * abs(report.log_f)
    for n, value in report.resolutions:
        assert abs(value - _logdet_80bit(cfg, n)) <= floor * abs(value), n


def test_small_weight_floor_takes_the_least_positive_weight_when_s1_vanishes():
    # s_1 = 0 conditions nothing; s_2 = 0.0015 sets the Cholesky's rounding,
    # which a floor from min s = 0 left 2x outside est_error of the 72-node ladder
    cfg = GapConfig((-2.099, -5.079), (0.0, 0.0015))
    report = fr.log_det(cfg)
    floor = fr.ROUNDING_FLOOR * fr.SMALL_WEIGHT_NOISE / 0.0015 * abs(report.log_f)
    assert report.converged and report.est_error >= floor
    assert abs(report.log_f - fr.log_det(cfg, nodes_per_panel=72).log_f) <= report.est_error


@pytest.mark.parametrize("x, s", [((-2.0,), (1e-3,)), ((-20.0,), (1e-3,)), ((-40.0,), (0.01,)),
                                  ((-2.0, -5.0), (0.5, 0.3))])
def test_double_kernel_within_a_third_of_the_rounding_floor(x, s):
    # double Airy step, folded assembly and double Cholesky against 80-bit
    # nodes, Airy values, assembly and Cholesky
    cfg = GapConfig(x, s)
    value = fr.logdet_single(cfg, fr.build_scheme(cfg, 24))
    floor = fr.ROUNDING_FLOOR * max(1.0, fr.SMALL_WEIGHT_NOISE / min(s)) * max(abs(value), 1.0)
    assert abs(value - _logdet_80bit(cfg, 24)) <= floor / 3


@pytest.mark.parametrize("x, s", [((-2.0,), (0.9,)), ((-4.0,), (0.9,)), ((-2.0,), (0.5,))])
def test_rounding_floor_covers_small_log_f(x, s):
    # |log F| < 1: the Cholesky rounds to 1-4e-15 however small |log F| is,
    # up to 153 ulps of |log F| = 0.062 at (-2,)/(0.9,)
    cfg = GapConfig(x, s)
    report = fr.log_det(cfg, nodes_per_panel=36)
    assert abs(report.log_f) < 1.0 and report.converged
    for n, value in report.resolutions:
        assert abs(value - _logdet_80bit(cfg, n)) <= report.est_error, n


@pytest.mark.parametrize("x, s", [((-2.0,), (0.5,)), ((-11.0,), (0.0,))])
def test_default_ladder_costs_no_more_than_the_explicit_default(monkeypatch, x, s):
    sizes = []
    original = fr.logdet_single

    def recording(config, scheme):
        sizes.append(scheme.size)
        return original(config, scheme)

    monkeypatch.setattr(fr, "logdet_single", recording)
    cfg = GapConfig(x, s)
    fr._nystrom_log_det(cfg)
    # the fixed (48, 96) pair the ladder replaced as the library default
    fixed_cost = sum(fr.build_scheme(cfg, n).size ** 3 for n in (48, 96))
    assert sizes and sum(n ** 3 for n in sizes) <= fixed_cost


def test_default_ladder_refuses_an_oversized_rung_before_any_determinant(monkeypatch):
    def no_determinant(*args, **kwargs):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(fr, "logdet_single", no_determinant)
    # 102 panels, ceil(2/4 + 1212/12): the 16-node rung fits, the 81-node one (N = 8262) does not
    with pytest.raises(ValueError, match=f"N = 8262 nodes, above MAX_NODES = {fr.MAX_NODES}"):
        fr.log_det(GapConfig((-2.0,), (0.5,)), tail_length=1214.0)


def test_logdet_merge_invariance():
    merged = fr.log_det(GapConfig((-3.0,), (0.6,))).log_f
    split = fr.log_det(GapConfig((-1.0, -3.0), (0.6, 0.6))).log_f
    assert abs(merged - split) < 1e-10


def test_logdet_nonpositive():
    for cfg in (GapConfig((-2.0,), (0.0,)), GapConfig((-1.0, -2.0), (0.7, 0.3))):
        assert fr.log_det(cfg).log_f <= 1e-12


def test_logdet_monotone_in_each_weight(rng):
    # F = E prod s^N is non-decreasing in every s_j
    for _ in range(20):
        m = int(rng.integers(1, 4))
        x = np.sort(rng.uniform(-6.0, -0.3, size=m))[::-1]
        if np.any(np.diff(x) > -0.2):
            continue
        s = rng.uniform(0.1, 0.95, size=m)
        base = fr.log_det(GapConfig(x, s), nodes_per_panel=32).log_f
        j = int(rng.integers(0, m))
        bumped = s.copy()
        bumped[j] = min(1.0, bumped[j] + 1e-4)
        shifted = fr.log_det(GapConfig(x, bumped), nodes_per_panel=32).log_f
        assert shifted >= base - 1e-12


def test_logdet_spectral_refinement_rate():
    # refinement gap should drop by at least 4x per node doubling until it
    # hits the arithmetic floor
    cfg = GapConfig((-14.0,), (0.4,))
    values = {n: fr.logdet_single(cfg, fr.build_scheme(cfg, n)) for n in (40, 80, 160, 320)}
    e40 = abs(values[80] - values[40])
    e80 = abs(values[160] - values[80])
    e160 = abs(values[320] - values[160])
    assert e80 < e40 / 4.0 or e80 < 1e-12
    assert e160 < e80 / 4.0 or e160 < 1e-12


def test_logdet_spectral_rate_before_the_floor():
    # x = -9, s = 0 sits above the arithmetic floor: the error against 48
    # nodes per panel falls from 7.7e-5 at 12 nodes to 1.8e-10 at 16
    cfg = GapConfig((-9.0,), (0.0,))
    ref = fr.logdet_single(cfg, fr.build_scheme(cfg, 48))
    e12, e16 = (abs(fr.logdet_single(cfg, fr.build_scheme(cfg, n)) - ref) for n in (12, 16))
    assert e12 > 1e-5
    assert e16 < e12 / 1000.0


def test_logdet_tail_robustness():
    a = fr.log_det(GapConfig((-2.0,), (0.3,)), tail_length=12.0).log_f
    b = fr.log_det(GapConfig((-2.0,), (0.3,)), tail_length=16.0).log_f
    assert abs(a - b) < 1e-10


#: thinned configurations (every s_j >= NEAR_ONE_GAP) for the Cholesky route
THINNED = [
    ((-2.0,), (0.5,)),
    ((-1.0, -3.0), (0.3, 0.7)),
    ((-1.5, -3.0, -5.0), (0.2, 0.5, 0.9)),
    ((-4.0, -8.0, -12.0), (0.5, 0.3, 0.2)),
    ((-99.0,), (0.5,)),
    ((-60.0, -99.0), (0.3, 0.6)),
]


@pytest.mark.parametrize("x, s", THINNED)
def test_cholesky_logdet_matches_the_spectrum(x, s):
    cfg = GapConfig(x, s)
    for n in (16, 24, 36):
        scheme = fr.build_scheme(cfg, n)
        A = fr._kernel_matrix(scheme.xi, fr._thinned_weights(cfg, scheme))
        twin = float(np.sum(np.log1p(-np.linalg.eigvalsh(A))))
        value = fr.logdet_single(cfg, scheme)
        assert abs(value - twin) <= fr.ROUNDING_FLOOR * abs(twin), (n, value, twin)


@pytest.mark.parametrize("x, s", THINNED)
def test_thinning_keeps_the_spectrum_off_one(monkeypatch, x, s):
    # A = S^(1/2) A_0 S^(1/2) with S = diag(1 - s_j): lambda_max(A) is at most
    # (1 - min s) lambda_max(A_0), and lambda_max(A_0) <= 1 once the grid
    # resolves the projection kernel (the rungs the ladder converged on);
    # coarser rungs of deep configs overshoot, but stay clear of 1
    schemes = []
    original = fr.logdet_single

    def recording(config, scheme):
        schemes.append(scheme)
        return original(config, scheme)

    monkeypatch.setattr(fr, "logdet_single", recording)
    report = fr.log_det(GapConfig(x, s))
    assert report.converged and len(schemes) == len(report.resolutions)
    for k, scheme in enumerate(schemes):
        A = fr._kernel_matrix(scheme.xi, fr._thinned_weights(GapConfig(x, s), scheme))
        top = np.linalg.eigvalsh(A)[-1]
        sw = np.sqrt(scheme.w)
        top0 = np.linalg.eigvalsh(sw[:, None] * fr._kernel_matrix(scheme.xi, np.ones_like(scheme.xi)) * sw[None, :])[-1]
        assert top <= (1.0 - min(s)) * max(top0, 1.0) + 1e-12
        assert top < 1.0 - fr.NEAR_ONE_GAP
        if k >= len(schemes) - 2:
            assert top <= 1.0 - min(s) + 1e-9, scheme.nodes_per_panel


def test_cholesky_refuses_an_unresolved_grid():
    # 4 nodes per panel on (-60, 12.5) leave an eigenvalue of A above 1
    with pytest.raises(NumericalError) as info:
        fr.log_det(GapConfig((-30.0, -60.0), (0.5, 0.3)), nodes_per_panel=4)
    msg = str(info.value)
    assert "not positive definite" in msg
    assert "N=68, 4 nodes per panel, min s=0.3" in msg


@pytest.mark.parametrize("x, s, route", [
    ((-2.0,), (0.5,), "cholesky"),
    ((-2.0,), (fr.NEAR_ONE_GAP,), "cholesky"),
    ((-2.0,), (1e-4,), "cholesky"),  # det(I - A) >= DEEP_GAP_THRESHOLD
    ((-2.0,), (0.0,), "cholesky"),
    ((-9.0, -11.0), (0.0, 0.5), "cholesky-eigh"),  # det below it: the 80-bit eigh follows
    ((-6.0,), (0.0,), "cholesky-eigh"),
])
def test_factorization_follows_the_smallest_weight(monkeypatch, x, s, route):
    calls = []
    for name in ("cholesky", "eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def recording(M, *args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
    cfg = GapConfig(x, s)
    fr.logdet_single(cfg, fr.build_scheme(cfg, 24))
    assert calls == route.split("-")


@pytest.mark.parametrize("x, s", [((-2.0,), (0.0,)), ((-5.0,), (0.0,)),
                                  ((-2.0, -4.0), (0.0, 0.5)), ((-3.0,), (1e-4,))])
def test_determinant_bounds_the_spectral_gap(x, s):
    # K(x, y) = int_0^inf Ai(x + t) Ai(y + t) dt makes A a Gram matrix, so
    # every 1 - lambda is at most 1 and det(I - A) <= min(1 - lambda): the
    # premise of logdet_single's certificate
    cfg = GapConfig(x, s)
    for n in (16, 24, 48):
        scheme = fr.build_scheme(cfg, n)
        gap = 1.0 - np.linalg.eigvalsh(fr._kernel_matrix(scheme.xi, fr._thinned_weights(cfg, scheme)))[-1]
        det = math.exp(fr.logdet_single(cfg, scheme))
        assert gap >= det * (1.0 - 1e-9), (n, gap, det)


def test_logdet_deep_gap_uses_extended_path():
    # at x = -10 the spectral gap of I - A is ~5e-12; the auto escalation
    # keeps the value within the known tail expansion to ~4e-5
    cfg = GapConfig((-10.0,), (0.0,))
    report = fr.log_det(cfg, nodes_per_panel=64)
    expected = math.log(2.0) / 24.0 - 0.1654211437004509 - math.log(10.0) / 8.0 - 1000.0 / 12.0
    assert abs(report.log_f - expected) < 2e-4
    # confirm this configuration actually crosses the escalation threshold
    scheme = fr.build_scheme(cfg)
    A = fr._kernel_matrix(scheme.xi, fr._thinned_weights(cfg, scheme))
    spectral_gap = 1.0 - float(np.linalg.eigvalsh(A)[-1])
    assert spectral_gap < fr.DEEP_GAP_THRESHOLD


def _exact_spectrum_matrix(gaps):
    """float128 Q diag(1 - gaps) Q^T whose eigenvalues are exactly 1 - gaps.

    Q is the 16 x 16 Sylvester-Hadamard matrix over 4 (entries +-1/4) and
    every gap is a multiple of 2^-59, so each product and partial sum of the
    assembly is exact in the 64-bit significand.
    """
    H = np.ones((1, 1))
    for _ in range(4):
        H = np.block([[H, H], [H, -H]])
    Q = (H / 4.0).astype(np.longdouble)
    return (Q * (1 - gaps)) @ Q.T


@pytest.mark.parametrize("near_pair", [(5000, 5500), (57646075, 63410682)])
def test_ritz_logdet_synthetic_spectrum(near_pair):
    # a pair just below 1, then two more near-1 eigenvalues and a bulk.  At
    # 8.7e-15 and 9.5e-15 the pair is closer than double resolves inside a
    # matrix near 1, so eigh mixes its eigenvectors (per-vector Rayleigh
    # quotients miss by ~1e-3 here); 1e-10 and 1.1e-10 are resolved cleanly
    units = list(near_pair) + [2 ** 39, 2 ** 47] + [k * 2 ** 55 for k in range(1, 13)]
    gaps = np.array([np.ldexp(np.longdouble(u), -59) for u in units])
    expected = float(np.sum(np.log(gaps)))
    A = _exact_spectrum_matrix(gaps)
    value = fr._ritz_logdet(A)
    # every eigenvalue is at least 1/4: the numerical range is the whole space
    L, residual = fr._numerical_range(A.astype(np.float64))
    assert L.shape == (16, 16) and abs(np.sum(residual)) < 1e-14
    # 80-bit rounding of the O(1) entries of A V resolves a gap g only to
    # about eps/g relative; the bound is 1e-9 relative unless that is coarser
    floor = 2.0 * float(np.finfo(np.longdouble).eps * np.sum(1 / gaps[:4]))
    assert abs(value - expected) < max(1e-9 * abs(expected), floor)


def test_ritz_logdet_rejects_eigenvalue_above_one():
    gaps = np.array([np.ldexp(np.longdouble(k), -4) for k in range(1, 17)])
    gaps[0] = -gaps[0]
    with pytest.raises(NumericalError, match="Cholesky"):
        fr._ritz_logdet(_exact_spectrum_matrix(gaps))


def _ritz_logdet_full_eigh(A):
    """The reference Ritz log det: eigh of the whole N x N double rounding of A gives the
    eigenvectors, then the same 80-bit Rayleigh-Ritz step.  Returns the value and the
    double 1 - lambda of the near-1 eigenvalues."""
    evals, vecs = np.linalg.eigh(A.astype(np.float64))
    near = 1.0 - evals < fr.NEAR_ONE_GAP
    V = vecs[:, near].astype(np.longdouble)
    ritz = fr._cholesky_logdet_ld(V.T @ (V - A @ V)) - fr._cholesky_logdet_ld(V.T @ V)
    return float(np.longdouble(np.sum(np.log1p(-evals[~near]))) + ritz), 1.0 - evals[near]


def _escalated_matrix(cfg, n):
    """The float128 A that logdet_single hands to _ritz_logdet at n nodes per panel."""
    xscheme = fr.build_scheme(cfg, n, dtype=np.longdouble)
    return fr._kernel_matrix(xscheme.xi, fr._thinned_weights(cfg, xscheme), xscheme.airy)


def _assert_within_the_full_eigh_bound(value, A):
    """value is log det(I - A) within max(1e-9 |expected|, 2 eps_80 sum 1/|1 - lambda|) of
    _ritz_logdet_full_eigh(A): the 80-bit Ritz noise of the near-1 eigenvalues.  A double
    eigenvalue of A may round to 1 or above; its distance from 1 enters by its size."""
    expected, gaps = _ritz_logdet_full_eigh(A)
    floor = 2.0 * float(np.finfo(np.longdouble).eps * np.sum(1 / np.abs(gaps)))
    assert abs(value - expected) < max(1e-9 * abs(expected), floor), (value, expected, floor)


_ESCALATED = [(x, s, n) for x, s in (((-8.0, -12.0), (0.0, 0.3)), ((-8.0,), (0.0,)),
                                     ((-8.5, -11.0), (0.0, 0.5)), ((-8.5,), (0.0,)))
              for n in (16, 24)] + [((x,), (0.0,), 24) for x in (-7.0, -9.0, -10.0)]


@pytest.mark.parametrize("x, s, n", _ESCALATED)
def test_ritz_logdet_matches_the_full_eigh_reference(x, s, n):
    # the conditioned pool configurations with their references F(x_1; 0), both
    # rungs, and the hard gaps: the rank-r eigenvectors change only the rounding
    A = _escalated_matrix(GapConfig(x, s), n)
    expected, gaps = _ritz_logdet_full_eigh(A)
    assert gaps.size > 0  # a deep gap: the Ritz step runs
    floor = 2.0 * float(np.finfo(np.longdouble).eps * np.sum(1 / gaps))
    assert abs(fr._ritz_logdet(A) - expected) < max(1e-9 * abs(expected), floor)


@pytest.mark.parametrize("x, s, n", [(x, s, n) for x, s, n in _ESCALATED if len(x) > 1])
def test_the_reference_block_off_the_shared_factor_meets_the_full_eigh_bound(x, s, n):
    # F(x_1; 0) read off the rows of the full block's pivoted Cholesky from its first
    # node: within the Ritz bound of the full eigh of its own block, while the full
    # value stays the bits of the full block factored alone
    A = _escalated_matrix(GapConfig(x, s), n)
    t = A.shape[0] - fr.build_scheme(GapConfig(x[:1], s[:1]), n).size
    full, ref = fr._ritz_logdet(A, (0, t))
    assert full == fr._ritz_logdet(A)[0]
    _assert_within_the_full_eigh_bound(ref, A[t:, t:])


def _cholesky_loop(M):
    """log det of one float128 matrix by the plain one-matrix Cholesky loop on its lower triangle."""
    L, logdet = np.zeros_like(M), np.longdouble(0.0)
    for j in range(M.shape[0]):
        d = M[j, j] - L[j, :j] @ L[j, :j]
        assert d > 0.0
        L[j, j] = np.sqrt(d)
        L[j + 1:, j] = (M[j + 1:, j] - L[j + 1:, :j] @ L[j, :j]) / L[j, j]
        logdet += np.log(d)
    return logdet


def test_batched_cholesky_is_the_one_matrix_loop_to_the_bit(monkeypatch):
    # (-10, -13)/(0, 0.3): the full block has k = 5 eigenvalues near 1 and F(-10; 0) 4,
    # so the reference's Ritz and Gram matrices are padded with the identity
    stacks, batched = [], fr._cholesky_logdet_ld
    monkeypatch.setattr(fr, "_cholesky_logdet_ld", lambda M: stacks.append(M) or batched(M))
    fr._nystrom_ladders(GapConfig((-10.0, -13.0), (0.0, 0.3)), True)
    assert [[m.shape[0] for m in M] for M in stacks] == [[5, 5, 4, 4], [5, 5, 4, 4], [4, 4]]
    for M in stacks:
        assert list(batched(M)) == [_cholesky_loop(m) for m in M]


def test_batched_cholesky_refuses_for_the_first_failing_matrix():
    # the second matrix fails at pivot 2 of 3 and the third sooner, at 0 of 2: the
    # error names the second, by its own order and its place in the list
    late = np.diag(np.array([1.0, 1.0, -1.0], dtype=np.longdouble))
    early = -np.eye(2, dtype=np.longdouble)
    with pytest.raises(NumericalError, match=r"^non-positive Cholesky pivot -1 at 2 of 3$") as info:
        fr._cholesky_logdet_ld([np.eye(4, dtype=np.longdouble), late, early])
    assert info.value.index == 1


@pytest.mark.parametrize("x, s, n", [((-8.0, -12.0), (0.0, 0.3), 16), ((-8.0, -12.0), (0.0, 0.3), 24),
                                     ((-8.0,), (0.0,), 16), ((-10.0,), (0.0,), 30)])
def test_numerical_range_is_low_rank_within_its_tolerance(x, s, n):
    A = _escalated_matrix(GapConfig(x, s), n).astype(np.float64)
    L, residual = fr._numerical_range(A)
    N = A.shape[0]
    assert 64 <= N <= 120 and L.shape[0] == N and 0 < L.shape[1] <= 20
    tol = N * np.finfo(np.float64).eps * np.max(np.diagonal(A))
    # a positive semidefinite residual is bounded entrywise by its diagonal
    assert np.max(np.abs(A - L @ L.T)) <= tol
    assert abs(np.sum(residual)) <= N * tol


def test_conditioned_escalations_run_no_full_eigh(monkeypatch):
    # log_E0 of cond-8-12 escalates every rung of both ladders; eigh sees only L^T L
    orders = []
    original = np.linalg.eigh

    def recording(M, *args, **kwargs):
        orders.extend([M.shape[-1]] * (M.shape[0] if M.ndim == 3 else 1))
        return original(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    fr.log_E0(GapConfig((-8.0, -12.0), (0.0, 0.3)))
    assert len(orders) >= 4 and max(orders) <= 20, orders


def test_deep_gap_refusal_names_the_spectral_gap():
    # at x = -13 the Ritz block of I - A loses positivity in 80-bit arithmetic
    # on the first rung of the default ladder (16 nodes per panel, N = 80)
    with pytest.raises(NumericalError) as info:
        fr._nystrom_log_det(GapConfig((-13.0,), (0.0,)))
    msg = str(info.value)
    assert re.search(r"Cholesky pivot .* \(N=80, k=\d+, double min\(1-lambda\)=\S+\)", msg)
    assert "80-bit arithmetic cannot resolve" in msg and "s in [0,1]" not in msg


def test_extended_matches_double_where_double_suffices(caplog):
    for x, s in ((-5.0,), (0.0,)), ((-1.0,), (0.5,)):
        cfg = GapConfig(x, s)
        scheme = fr.build_scheme(cfg)
        xscheme = fr.build_scheme(cfg, scheme.nodes_per_panel, dtype=np.longdouble)
        with caplog.at_level(logging.INFO, logger="airy_gap.fredholm"):
            extended = fr._ritz_logdet(fr._kernel_matrix(xscheme.xi, fr._thinned_weights(cfg, xscheme)))
        certified = fr.logdet_single(cfg, scheme)
        assert certified >= math.log(fr.DEEP_GAP_THRESHOLD)  # the Cholesky value is kept
        assert abs(extended - certified) < 1e-11
        # an 80-bit scheme runs logdet_single on the 80-bit path alone, as
        # every rung of a ladder the tail of F(x_1; 0) puts there does
        assert abs(fr.logdet_single(cfg, xscheme) - certified) < 1e-11
    # x = -1, s = 0.5 has no eigenvalue near 1: the Ritz block is empty
    assert f"N={scheme.size}, k=0 " in caplog.records[-1].getMessage()


@pytest.mark.parametrize("x, s", [((-6.0,), (0.0,)), ((-8.0,), (0.0,)), ((-10.0,), (0.0,)),
                                  ((-8.0, -12.0), (0.0, 0.3)), ((-8.5, -11.0), (0.0, 0.5))])
def test_every_rung_of_a_tail_ladder_starts_in_80_bit_to_the_bit(caplog, x, s):
    # hard gaps at 24 nodes per panel and the conditioned pool points with their
    # references: every rung starts on the 80-bit path by the tail of F(x_1; 0),
    # and its value is the bits of the rung's own fresh double scheme escalating:
    # logdet_single for the full determinant, and for the reference
    # _logdet_blocks of both blocks, which reads it off the full block's factor,
    # within the Ritz bound of the full eigh of its own block
    cfg = GapConfig(x, s)
    kwargs = {"nodes_per_panel": 24} if cfg.m == 1 else {}
    with caplog.at_level(logging.INFO, logger="airy_gap.fredholm"):
        reports = fr._nystrom_ladders(cfg, cfg.m > 1, **kwargs)
    assert len(reports[0].resolutions) >= 2
    assert reports[0].resolutions == tuple((n, fr.logdet_single(cfg, fr.build_scheme(cfg, n)))
                                           for n, _ in reports[0].resolutions)
    if cfg.m > 1:
        head = GapConfig(x[:1], s[:1])
        assert [n for n, _ in reports[1].resolutions] == [n for n, _ in reports[0].resolutions]
        for n, value in reports[1].resolutions:
            scheme = fr.build_scheme(cfg, n)
            t = scheme.size - fr.build_scheme(head, n).size
            assert value == fr._logdet_blocks(cfg, scheme, (0, t))[1]
            _assert_within_the_full_eigh_bound(value, _escalated_matrix(head, n))
    started = [r.getMessage() for r in caplog.records if "starts on the 80-bit path" in r.getMessage()]
    assert [int(m.split()[1]) for m in started] == [n for n, _ in reports[0].resolutions]
    tail = log_F_m1_s0(x[0])
    assert all(f"x={x}" in m and f"has the tail log F(x_1; 0) = {tail:.6g} <" in m for m in started)


@pytest.mark.parametrize("x, s, n", [((-10.0,), (1e-4,), None), ((-4.0, -12.0), (0.0, 0.05), None),
                                     ((-4.0, -12.0), (0.0, 0.05), 20)])
def test_a_deep_ladder_off_the_tail_escalates_each_double_rung_to_the_bit(caplog, x, s, n):
    # min s < NEAR_ONE_GAP and det(I - A) < DEEP_GAP_THRESHOLD, but s_1 > 0 or
    # x_1 above the tail's crossing: every rung is double and escalates on its
    # own, no rung starts on the 80-bit path, and each value, the reference's
    # (certified in double) too, is the bits of logdet_single on its own scheme
    cfg = GapConfig(x, s)
    with caplog.at_level(logging.INFO, logger="airy_gap.fredholm"):
        reports = fr._nystrom_ladders(cfg, cfg.m > 1, n)
    for block, report in zip((cfg, GapConfig(x[:1], s[:1])), reports):
        assert len(report.resolutions) >= 2
        assert report.resolutions == tuple((k, fr.logdet_single(block, fr.build_scheme(block, k)))
                                           for k, _ in report.resolutions)
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("80-bit log det") for m in messages)
    assert not any("starts on the 80-bit path" in m for m in messages)


def _s1_zero_draws():
    """16 seeded s_1 = 0 configurations: m = 1-3, x_1 in [-12, -3] away from the tail's
    threshold crossing, s_j log-uniform on [1e-3, 1], default or explicit rule orders."""
    rng, draws = np.random.default_rng(1812), []
    while len(draws) < 16:
        m, x1 = int(rng.integers(1, 4)), float(rng.uniform(-12.0, -3.0))
        if abs(x1 + 5.447) < 0.05:
            continue
        x = (x1, *(x1 - np.cumsum(rng.uniform(0.5, 4.0, m - 1))).tolist())
        s = (0.0, *(10.0 ** rng.uniform(-3.0, 0.0, m - 1)).tolist())
        n = None if rng.random() < 0.5 else int(rng.integers(8, 30))
        draws.append((x, s, n))
    return draws


def _ladders_or_refusal(cfg, n):
    try:
        return fr._nystrom_ladders(cfg, cfg.m > 1, n)
    except NumericalError as exc:
        return str(exc)


@pytest.mark.parametrize("x, s, n", _s1_zero_draws())
def test_the_tail_prediction_changes_no_bit(monkeypatch, x, s, n):
    # starting a ladder on the 80-bit path where the tail of F(x_1; 0) is below
    # DEEP_GAP_THRESHOLD skips only double passes that could not certify: values,
    # rungs, est_error and refusals are those of the ladder without the prediction
    cfg = GapConfig(x, s)
    predicted = _ladders_or_refusal(cfg, n)
    monkeypatch.setattr(fr.asymptotics, "log_F_m1_s0", lambda x1: 0.0)
    assert predicted == _ladders_or_refusal(cfg, n)


def test_the_tail_prediction_window_moves_a_value_within_its_error(monkeypatch):
    # x_1 = -5.44695 is just past the tail's crossing of log DEEP_GAP_THRESHOLD,
    # but the double Cholesky at rung 14 would still certify: the 80-bit value
    # stands in for it, about 1e-12 away and within either ladder's est_error
    cfg = GapConfig((-5.44695,), (0.0,))
    assert log_F_m1_s0(cfg.x[0]) < math.log(fr.DEEP_GAP_THRESHOLD)
    on, = fr._nystrom_ladders(cfg, False, 14)
    monkeypatch.setattr(fr.asymptotics, "log_F_m1_s0", lambda x1: 0.0)
    off, = fr._nystrom_ladders(cfg, False, 14)
    assert off.resolutions[0][1] >= math.log(fr.DEEP_GAP_THRESHOLD)
    assert [n for n, _ in on.resolutions] == [n for n, _ in off.resolutions] == [14, 21]
    for (_, a), (_, b) in zip(on.resolutions, off.resolutions):
        assert abs(a - b) <= min(1e-11, on.est_error, off.est_error)


@pytest.mark.parametrize("x, s, expected, tol", [
    ((-9.0,), (0.0,), -61.16112840903529, 1e-9),
    ((-10.0,), (0.0,), -83.75765666858979, 1e-7),
    ((-8.0, -12.0), (0.0, 0.3), -50.99977627284346, 1e-10),
])
def test_deep_gap_values_pinned(x, s, expected, tol):
    # values of the earlier 80-bit pivoted-LU factorization, 48 nodes per panel
    cfg = GapConfig(x, s)
    assert abs(fr.logdet_single(cfg, fr.build_scheme(cfg)) - expected) < tol


def test_escalation_logged_at_info(caplog):
    cfg = GapConfig((-10.0,), (0.0,))
    scheme = fr.build_scheme(cfg)
    with caplog.at_level(logging.INFO, logger="airy_gap.fredholm"):
        fr.logdet_single(cfg, scheme)
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    assert f"N={scheme.size}, k=" in record.getMessage()
    assert "min(1-lambda)=" in record.getMessage()


def test_auto_refuses_deep_gap_without_wider_longdouble(monkeypatch):
    monkeypatch.setattr(fr, "EXTENDED_PRECISION", False)
    deep = GapConfig((-10.0,), (0.0,))
    with pytest.raises(NumericalError, match="longdouble"):
        fr.logdet_single(deep, fr.build_scheme(deep))
    shallow = GapConfig((-2.0,), (0.0,))
    assert fr.logdet_single(shallow, fr.build_scheme(shallow)) < 0.0
    # det(I - A) ~ 1e-8 fails the Cholesky certificate, but the gap 2.9e-5
    # measured on the way to the 80-bit path is wide enough for double
    uncertified = GapConfig((-6.0,), (0.0,))
    assert fr.logdet_single(uncertified, fr.build_scheme(uncertified, 48)) < 0.0


def test_unconverged_ladder_logs_a_warning(caplog):
    # the compare config tau = (-1, -2), s = (0, 0.2846) at r = 12: neither
    # determinant of log_E0 reaches CONVERGENCE_TOL on the default ladder
    with caplog.at_level(logging.WARNING, logger="airy_gap.fredholm"):
        fr.log_E0(GapConfig((-12.0, -24.0), (0.0, 0.2846)))
    messages = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    assert len(messages) == 2
    assert "unconverged: x=(-12.0, -24.0), s=(0.0, 0.2846), top rung 81 nodes per panel" in messages[0]
    assert "x=(-12.0,), s=(0.0,)" in messages[1] and all("est_error=" in m for m in messages)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="airy_gap.fredholm"):
        assert fr.log_det(GapConfig((-2.0, -3.0), (0.0, 0.5))).converged
    assert not caplog.records


def test_log_E_and_E0_dispatch():
    cfg = GapConfig((-1.0, -2.0), (0.5, 0.25))
    assert fr.log_E(cfg) == fr.log_det(cfg).log_f
    with pytest.raises(ValueError, match="log_E0"):
        fr.log_E(GapConfig((-1.0, -2.0), (0.0, 0.5)))
    with pytest.raises(ValueError, match="s_1"):
        fr.log_E0(cfg)
    with pytest.raises(ValueError, match="m >= 2"):
        fr.log_E0(GapConfig((-1.0,), (0.0,)))


def test_log_E0_matches_two_determinants():
    cfg = GapConfig((-1.0, -3.0), (0.0, 0.5))
    value = fr.log_E0(cfg, nodes_per_panel=32)
    tail = fr.default_tail_length(-1.0)
    full = fr.log_det(GapConfig(cfg.x, cfg.s), nodes_per_panel=32, tail_length=tail).log_f
    ref = fr.log_det(GapConfig((-1.0,), (0.0,)), nodes_per_panel=32, tail_length=tail).log_f
    assert abs(value - (full - ref)) < 1e-12
    assert 0.0 < math.exp(value) <= 1.0


def test_log_E0_trivial_conditioning():
    # all interior weights 1: numerator and denominator coincide
    assert abs(fr.log_E0(GapConfig((-1.0, -2.0), (0.0, 1.0)))) < 1e-12


@pytest.mark.parametrize("x, s, kwargs, rungs", [
    ((-8.0, -12.0), (0.0, 0.3), {}, (2, 2)),  # cond-8-12
    ((-8.5, -11.0), (0.0, 0.5), {}, (2, 2)),  # cond-8.5-11
    ((-5.0, -30.0), (0.0, 0.3), {}, (3, 2)),  # the full walks on alone after the reference stops
    ((-10.0, -13.0), (0.0, 0.3), {}, (2, 3)),  # the reference walks on alone after the full stops
    ((-12.0, -24.0), (0.0, 0.2846), {}, (5, 5)),  # both unconverged at 81
    ((-7.0, -16.0, -24.0), (0.0, 0.4, 0.2), {}, (2, 2)),
    ((-2.0, -3.0), (0.0, 0.5), {"nodes_per_panel": 17}, (2, 2)),
    ((-2.0, -3.0), (0.0, 0.5), {"nodes_per_panel": 27}, (2, 2)),
    ((-2.0, -3.0), (0.0, 0.5), {"tail_length": 16.0}, (2, 2)),
], ids=["cond-8-12", "cond-8.5-11", "full-longer", "ref-longer", "unconverged", "m3", "n17", "n27", "tail"])
def test_log_E0_is_two_ladders_to_the_bit(caplog, x, s, kwargs, rungs):
    # F(x_1; 0) read off the trailing block of the full determinant's matrix walks
    # its own ladder's rungs.  The full determinant is its own ladder to the bit:
    # values, rungs and est_error.  So is each reference rung, but one where both
    # blocks run on the full block's 80-bit factorization: that value is within
    # the Ritz bound of the full eigh of its own block
    cfg, head = GapConfig(x, s), GapConfig(x[:1], (0.0,))
    with caplog.at_level(logging.ERROR, logger="airy_gap.fredholm"):
        full, ref = fr._nystrom_log_det(cfg, **kwargs), fr._nystrom_log_det(head, **kwargs)
        shared_full, shared_ref = fr._nystrom_ladders(cfg, True, **kwargs)
        assert shared_full == full
        assert fr.log_E0(cfg, **kwargs) == full.log_f - shared_ref.log_f
    assert (len(full.resolutions), len(ref.resolutions)) == rungs
    assert [n for n, _ in shared_ref.resolutions] == [n for n, _ in ref.resolutions]
    full_values = dict(full.resolutions)
    for (n, value), (_, alone) in zip(shared_ref.resolutions, ref.resolutions):
        if n in full_values and not fr._certified(cfg.s, full_values[n]) and not fr._certified(head.s, alone):
            _assert_within_the_full_eigh_bound(value, _escalated_matrix(head, n))
        else:
            assert value == alone


@pytest.mark.parametrize("x, s, n", [((-2.0, -3.0), (0.5, 0.5), 16),  # every block certified in double
                                     ((-8.0, -12.0), (0.0, 0.3), 24),  # every block escalates
                                     ((-7.0, -16.0, -24.0), (0.0, 0.4, 0.2), 16)])
def test_each_trailing_block_is_the_determinant_of_the_leading_points(x, s, n):
    # the block from the first node of (x_k, x_{k-1}) is the determinant of
    # (x_1, ..., x_k) on its own scheme: alone to the bit, and together with the
    # wider blocks to the bit in double; a narrower block escalating with the
    # widest reads its factor off the widest block's, within the Ritz bound
    cfg = GapConfig(x, s)
    scheme = fr.build_scheme(cfg, n)
    leading = [GapConfig(x[:k], s[:k]) for k in range(cfg.m, 0, -1)]
    starts = [scheme.size - fr.build_scheme(head, n).size for head in leading]
    expected = [fr.logdet_single(head, fr.build_scheme(head, n)) for head in leading]
    values = fr._logdet_blocks(cfg, scheme, starts)
    assert starts[0] == 0 and values[0] == expected[0]
    deep = not fr._certified(cfg.s, expected[0])
    for head, value, alone in zip(leading[1:], values[1:], expected[1:]):
        if deep and not fr._certified(head.s, alone):
            _assert_within_the_full_eigh_bound(value, _escalated_matrix(head, n))
        else:
            assert value == alone
    for t, value in zip(starts[1:], expected[1:]):
        assert fr._logdet_blocks(cfg, scheme, (t,)) == [value]


def test_a_reference_walking_alone_assembles_only_its_block(monkeypatch):
    # (-10, -13)/(0, 0.3): the full ladder stops at 24 and F(-10; 0) walks on
    # to 36 alone, where every assembly, double or 80-bit, is its block only
    cfg, head = GapConfig((-10.0, -13.0), (0.0, 0.3)), GapConfig((-10.0,), (0.0,))
    sizes = []
    kernel = fr._kernel_matrix
    monkeypatch.setattr(fr, "_kernel_matrix", lambda xi, w, airy=None: sizes.append(xi.size) or kernel(xi, w, airy))
    full, ref = fr._nystrom_ladders(cfg, True)
    assert [n for n, _ in full.resolutions] == [16, 24] and [n for n, _ in ref.resolutions] == [16, 24, 36]
    full_sizes = {fr.build_scheme(cfg, n).size for n in (16, 24)}
    k = sum(size in full_sizes for size in sizes)
    assert set(sizes[:k]) == full_sizes and set(sizes[k:]) == {fr.build_scheme(head, 36).size}


def test_log_E0_builds_one_ladder(monkeypatch):
    # cond-8-12: the tail of F(-8; 0) puts both determinants on the 80-bit path
    # from rung 16, on one panel layout: one 80-bit scheme call for rungs 16 and
    # 24, one 80-bit assembly and one Ritz step for both blocks per rung, and no
    # double scheme, assembly or Cholesky
    counts = {}

    def counted(name, key, module=fr):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            label = (name, key(*args, **kwargs))
            counts[label] = counts.get(label, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def precision(dtype):
        return "80-bit" if np.dtype(dtype) == np.longdouble else "double"

    counted("_panel_layout", lambda *args: "")
    counted("_layout_scheme", lambda layout, orders, dtype=np.float64: precision(dtype))
    counted("_kernel_matrix", lambda xi, w, airy=None: precision(xi.dtype))
    counted("_ritz_logdet", lambda A, offsets=(0,): len(offsets))
    counted("cholesky", lambda M: "", np.linalg)
    fr.log_E0(GapConfig((-8.0, -12.0), (0.0, 0.3)))
    assert counts == {("_panel_layout", ""): 1, ("_layout_scheme", "80-bit"): 1,
                      ("_kernel_matrix", "80-bit"): 2, ("_ritz_logdet", 2): 2}


def test_log_E0_refuses_as_its_full_determinant():
    # within a rung the full block is factored first: at (-13, -16) its 80-bit
    # Ritz step refuses on the first rung, before that of F(-13; 0) (N = 80)
    cfg = GapConfig((-13.0, -16.0), (0.0, 0.3))
    with pytest.raises(NumericalError) as full:
        fr._nystrom_log_det(cfg)
    with pytest.raises(NumericalError) as conditioned:
        fr.log_E0(cfg)
    msg = str(conditioned.value)
    assert msg == str(full.value)
    assert re.search(r"Cholesky pivot .* in the 80-bit Rayleigh-Ritz step \(N=96, k=8, "
                     r"double min\(1-lambda\)=\S+\) on numerical rank r=\d+", msg)


# ---------------------------------------------------------------------------
# resolvent and the weight-derivative identity
# ---------------------------------------------------------------------------

def test_weight_derivative_identity():
    fd, res, gap = fr.weight_derivative_identity_gap(GapConfig((-1.0, -3.0), (0.5, 0.5)))
    assert gap < 1e-6
    assert fd > 0.0
    assert res > 0.0  # R(x, x) >= 0: the resolvent of a positive operator below 1


@pytest.mark.parametrize("x, s, n", [((-1.0, -3.0), (0.5, 0.5), 48),
                                     ((-1.0, -2.0, -4.0), (0.6, 0.3, 0.5), 24)])
def test_weight_derivative_identity_builds_one_scheme(monkeypatch, x, s, n):
    # the resolvent and both finite-difference determinants share one scheme,
    # whose nodes do not depend on s; each determinant stays the bits of
    # logdet_single on its own build_scheme
    builds, values = [], []
    build, run = fr._layout_scheme, fr.logdet_single
    monkeypatch.setattr(fr, "_layout_scheme", lambda *a: builds.append(a[1]) or build(*a))
    monkeypatch.setattr(fr, "logdet_single", lambda c, sc: values.append((c, run(c, sc))) or values[-1][1])
    fr.weight_derivative_identity_gap(GapConfig(x, s), n)
    assert builds == [(n,)] and len(values) == 2
    monkeypatch.undo()
    (up, _), (down, _) = values
    assert up.x == down.x == x and up.s[:-1] == down.s[:-1] == s[:-1] and up.s[-1] > s[-1] > down.s[-1]
    for config, value in values:
        assert value == fr.logdet_single(config, fr.build_scheme(config, n))


def test_weight_derivative_identity_singular_solve_raises(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    with pytest.raises(NumericalError, match="singular I - A"):
        fr.weight_derivative_identity_gap(GapConfig((-1.0, -3.0), (0.5, 0.5)), nodes_per_panel=16)


@pytest.mark.parametrize("s_m", (0.0, 1.0))
def test_weight_derivative_identity_needs_interior_weight(s_m):
    # the central difference would step outside [0, 1]
    with pytest.raises(ValueError, match=r"s_m in \(0, 1\)"):
        fr.weight_derivative_identity_gap(GapConfig((-1.0,), (s_m,)))


# ---------------------------------------------------------------------------
# counting statistics
# ---------------------------------------------------------------------------

def test_mean_far_right_tail():
    assert fr.mean_count([(10.0, math.inf)]) < 1e-8


def test_mean_halfline_vs_leading_term():
    mean = fr.mean_count([(-10.0, math.inf)])
    assert abs(mean - 2.0 / (3.0 * math.pi) * 10.0 ** 1.5) < 0.02


def test_mean_additivity():
    whole = fr.mean_count([(-4.0, math.inf)]) - fr.mean_count([(-2.0, math.inf)])
    part = fr.mean_count([(-4.0, -2.0)])
    assert abs(whole - part) < 1e-10


def test_var_nonnegative(rng):
    for _ in range(6):
        a = rng.uniform(-9.0, -1.0)
        b = a + rng.uniform(0.3, 3.0)
        assert fr.var_count([(a, b)]) >= 0.0


def test_cov_bilinearity():
    A = [(-9.0, -5.0)]
    B = [(-5.0, -2.0)]
    lhs = fr.var_count(A + B)
    rhs = fr.var_count(A) + fr.var_count(B) + 2.0 * fr.cov_count(A, B)
    assert abs(lhs - rhs) < 1e-9


def _unweighted_var(intervals):
    """tr(K 1_A) - w (K o K) w from the unweighted K on the nodes of A, and tr(K 1_A)."""
    scheme = fr._set_scheme(intervals, 48)
    xi, w = scheme.xi, scheme.w
    K = fr._kernel_matrix(xi, np.ones_like(xi))
    linear = float(w @ np.diag(K))
    return linear - float(w @ (K * K) @ w), linear


def _unweighted_cov(a, b):
    """-w_a (K_ab o K_ab) w_b from the unweighted K on one node set for A then B, and
    tr(K 1_(A u B))."""
    scheme = fr._set_scheme(a + b, 48)
    xi, w, pos = scheme.xi, scheme.w, scheme.interval_index
    K = fr._kernel_matrix(xi, np.ones_like(xi))
    na = np.count_nonzero(pos < len(a))
    block = K[:na, na:]
    return -float(w[:na] @ (block * block) @ w[na:]), float(w @ np.diag(K))


@pytest.mark.parametrize("kind, args", [
    ("var", ([(-3.0, math.inf)],)),
    ("var", ([(-5.0, -2.0)],)),
    ("var", ([(-40.0, -20.0)],)),
    ("var", ([(-99.0, -50.0)],)),
    ("var", ([(-4.0, -2.5), (-2.5, -1.0)],)),
    ("cov", ([(-5.0, -3.5)], [(-3.5, -2.0)])),
    ("cov", ([(-60.0, -30.0)], [(-30.0, -10.0)])),
    ("halflines", (-2.0, -5.0)),
    ("halflines", (-20.0, -80.0)),
])
def test_traces_match_the_unweighted_formulas(kind, args):
    # the traces read tr A - ||A||_F^2 off the determinants' weighted kernel
    # A = W^(1/2) K W^(1/2); the same numbers from K and w apart, within 8 eps of
    # the linear term tr(K 1_A)
    if kind == "var":
        value, (expected, linear) = fr.var_count(*args, 48), _unweighted_var(*args)
    elif kind == "cov":
        value, (expected, linear) = fr.cov_count(*args, 48), _unweighted_cov(*args)
    else:
        x1, x2 = args
        var, var_linear = _unweighted_var([(x1, math.inf)])
        cov, cov_linear = _unweighted_cov([(x1, math.inf)], [(x2, x1)])
        value, expected, linear = fr.cov_halflines(x1, x2, 48), var + cov, max(var_linear, cov_linear)
    assert abs(value - expected) <= 8.0 * np.finfo(float).eps * linear, (value, expected)


def test_cov_rejects_overlap():
    with pytest.raises(ValueError, match="overlap"):
        fr.cov_count([(-3.0, -1.0)], [(-2.0, 0.0)])
    with pytest.raises(ValueError, match="overlap"):
        fr.var_count([(-3.0, -1.0), (-2.0, 0.0)])


def test_overlap_checked_before_halfline_truncation():
    # (13, 14) lies inside (-1, inf), past the point where that half-line is cut
    with pytest.raises(ValueError, match="intervals overlap"):
        fr.cov_count([(-1.0, math.inf)], [(13.0, 14.0)])
    with pytest.raises(ValueError, match="intervals overlap"):
        fr.var_count([(-1.0, math.inf), (13.0, 14.0)])


@pytest.mark.parametrize("call", [
    lambda: fr.mean_count([(-math.inf, -1.0)]),
    lambda: fr.var_count([(-math.inf, math.inf)]),
    lambda: fr.mean_count([]),
    lambda: fr.var_count([(-1.0, math.nan)]),
    lambda: fr.cov_count([(-3.0, -2.0)], [(-1.0, -math.inf)]),
], ids=["lower-inf", "whole-line", "empty-set", "nan", "cov-reversed"])
def test_traces_reject_bad_interval_sets(call):
    with pytest.raises(ValueError, match="intervals need finite a < b"):
        call()


def test_traces_take_a_list_of_intervals():
    # one interval is [(a, b)]; a bare pair is not an interval set
    assert fr.mean_count([(-4.0, -1.0)]) > 0.0
    with pytest.raises(TypeError):
        fr.mean_count((-4.0, -1.0))


@pytest.mark.parametrize("x2", (-math.inf, math.nan, -1.0))
def test_cov_halflines_needs_finite_ordered_endpoints(x2):
    with pytest.raises(ValueError, match="x1, x2 must be strictly decreasing and finite"):
        fr.cov_halflines(-1.0, x2)


@pytest.mark.parametrize("n", (1, 3))
def test_traces_refuse_the_rule_orders_determinants_refuse(n):
    for call in (lambda: fr.mean_count([(-4.0, -1.0)], n), lambda: fr.var_count([(-4.0, -1.0)], n),
                 lambda: fr.build_scheme(GapConfig((-2.0,), (0.5,)), n)):
        with pytest.raises(ValueError, match=f"nodes_per_panel must be at least 4, got {n}"):
            call()


@pytest.mark.parametrize("n", (1, 2, 3))
def test_log_det_refusal_names_the_given_rule_order(monkeypatch, n):
    # the first rung's lower bound is checked before any scheme is built
    def no_scheme(*args, **kwargs):
        raise AssertionError("a scheme was built")

    for name in ("build_scheme", "_layout_scheme"):
        monkeypatch.setattr(fr, name, no_scheme)
    for call in (lambda: fr.log_det(GapConfig((-2.0,), (0.5,)), nodes_per_panel=n),
                 lambda: fr.log_E0(GapConfig((-2.0, -3.0), (0.0, 0.5)), nodes_per_panel=n)):
        with pytest.raises(ValueError, match=f"nodes_per_panel must be at least 4, got {n}$"):
            call()


def test_cov_halflines_negative_of_disjoint_blocks():
    v = fr.cov_halflines(-10.0, -20.0)
    assert v > 0.0
    with pytest.raises(ValueError):
        fr.cov_halflines(-20.0, -10.0)


def test_derivative_at_weight_one_matches_mean():
    # F(x; s) = E s^N implies d/ds F at s = 1 equals the expected count
    x = -3.0
    h = 1e-5
    tail = fr.default_tail_length(x)
    up = math.exp(fr.log_det(GapConfig((x,), (1.0 - h,)), tail_length=tail).log_f)
    dn = math.exp(fr.log_det(GapConfig((x,), (1.0 - 2 * h,)), tail_length=tail).log_f)
    slope = (up - dn) / h
    assert abs(slope - fr.mean_count([(x, math.inf)])) < 1e-5
