"""Determinant core: kernel, schemes, log det, resolvent, counting traces."""

import logging
import math
import re

import numpy as np
import pytest

from airy_gap import fredholm as fr
from airy_gap import specfun as sf
from airy_gap.asymptotics import beta_from_s
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
    K = fr._kernel_matrix(xa, xb)
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
    K = fr._kernel_matrix(fr.build_scheme(cfg, 8).xi)
    assert K.dtype == np.float64 and calls == []
    xi = fr.build_scheme(cfg, 8, dtype=np.longdouble).xi
    K = fr._kernel_matrix(xi)
    assert K.dtype == np.longdouble and calls == [xi.size]
    assert fr._kernel_matrix(xi[:5], xi[5:]).dtype == np.longdouble


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

def test_scheme_single_interval_layout():
    cfg = GapConfig((-2.0,), (0.0,))
    scheme = fr.build_scheme(cfg, nodes_per_panel=16, tail_length=12.0)
    assert len(scheme.panels) == 3
    assert scheme.panels[0][0] == -2.0
    assert scheme.panels[-1][1] == 10.0
    assert np.all(scheme.w_eff == scheme.w_plain)  # factor 1 - s = 1


def test_scheme_weight_factors():
    cfg = GapConfig((-1.0, -3.0), (0.5, 0.2))
    scheme = fr.build_scheme(cfg, nodes_per_panel=8, tail_length=8.0)
    inner = scheme.interval_index == 2
    outer = scheme.interval_index == 1
    assert np.allclose(scheme.w_eff[inner] / scheme.w_plain[inner], 0.8)
    assert np.allclose(scheme.w_eff[outer] / scheme.w_plain[outer], 0.5)
    assert np.all(scheme.xi[inner] < -1.0) and np.all(scheme.xi[inner] > -3.0)


def test_scheme_all_weights_one_vanishes():
    cfg = GapConfig((-1.0, -2.0), (1.0, 1.0))
    scheme = fr.build_scheme(cfg, nodes_per_panel=8)
    assert np.all(scheme.w_eff == 0.0)


def test_scheme_long_interval_split_and_default_tail():
    cfg = GapConfig((-1.0, -11.0), (0.5, 0.5))
    scheme = fr.build_scheme(cfg, nodes_per_panel=8)
    inner = [p for p in scheme.panels if p[1] <= -1.0]
    assert len(inner) == 3  # ceil(10/4)
    assert all(b - a <= 4.0 + 1e-12 for a, b in scheme.panels)
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
    _, w = fr._set_nodes([(a, math.inf)], 8)
    scheme = fr.build_scheme(GapConfig((a,), (0.5,)), 8)
    assert w.sum() == pytest.approx(scheme.w_plain.sum(), abs=1e-12)
    assert scheme.tail_length == fr.default_tail_length(a)


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
        raise AssertionError("build_scheme called")

    monkeypatch.setattr(fr, "build_scheme", no_scheme)
    with pytest.raises(ValueError, match="rule orders above 4096"):
        fr.log_det(GapConfig((-2.0,), (0.5,)), refine=7)


def test_traces_refuse_oversized_discretization(monkeypatch):
    def no_matrix(*args, **kwargs):
        raise AssertionError("a kernel matrix was built")

    monkeypatch.setattr(fr, "_kernel_matrix", no_matrix)
    # 13 panels of 4096 nodes
    with pytest.raises(ValueError, match=f"N = 53248 nodes, above MAX_NODES = {fr.MAX_NODES}"):
        fr.var_count([(-50.0, -1.0)], nodes_per_panel=4096)


def test_logdet_self_convergence_and_regression():
    cfg = GapConfig((-2.0,), (0.0,))
    report = fr.log_det(cfg, nodes_per_panel=40, refine=2)
    values = [v for _, v in report.resolutions]
    assert max(values) - min(values) < 1e-8
    assert report.converged
    assert abs(report.log_f - LOGF_MINUS2_S0) < 1e-9


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
        base = fr.log_det(GapConfig(x, s), nodes_per_panel=24, refine=1).log_f
        j = int(rng.integers(0, m))
        bumped = s.copy()
        bumped[j] = min(1.0, bumped[j] + 1e-4)
        shifted = fr.log_det(GapConfig(x, bumped), nodes_per_panel=24, refine=1).log_f
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


def test_logdet_deep_gap_uses_extended_path():
    # at x = -10 the spectral gap of I - A is ~5e-12; the auto escalation
    # keeps the value within the known tail expansion to ~4e-5
    cfg = GapConfig((-10.0,), (0.0,))
    report = fr.log_det(cfg, refine=1)
    expected = math.log(2.0) / 24.0 - 0.1654211437004509 - math.log(10.0) / 8.0 - 1000.0 / 12.0
    assert abs(report.log_f - expected) < 2e-4
    # confirm this configuration actually crosses the escalation threshold
    A = fr._symmetrized_matrix(fr.build_scheme(cfg))
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
    value = fr._ritz_logdet(_exact_spectrum_matrix(gaps))
    # 80-bit rounding of the O(1) entries of A V resolves a gap g only to
    # about eps/g relative; the bound is 1e-9 relative unless that is coarser
    floor = 2.0 * float(np.finfo(np.longdouble).eps * np.sum(1 / gaps[:4]))
    assert abs(value - expected) < max(1e-9 * abs(expected), floor)


def test_ritz_logdet_rejects_eigenvalue_above_one():
    gaps = np.array([np.ldexp(np.longdouble(k), -4) for k in range(1, 17)])
    gaps[0] = -gaps[0]
    with pytest.raises(NumericalError, match="Cholesky"):
        fr._ritz_logdet(_exact_spectrum_matrix(gaps))


def test_deep_gap_refusal_names_the_spectral_gap():
    # at x = -13 the Ritz block of I - A loses positivity in 80-bit arithmetic
    with pytest.raises(NumericalError) as info:
        fr.log_det(GapConfig((-13.0,), (0.0,)))
    msg = str(info.value)
    assert re.search(r"Cholesky pivot .* \(N=336, k=\d+, double min\(1-lambda\)=\S+\)", msg)
    assert "80-bit arithmetic cannot resolve" in msg and "s in [0,1]" not in msg


def test_extended_matches_double_where_double_suffices(caplog):
    for x, s in ((-5.0,), (0.0,)), ((-1.0,), (0.5,)):
        cfg = GapConfig(x, s)
        scheme = fr.build_scheme(cfg)
        with caplog.at_level(logging.INFO, logger="airy_gap.fredholm"):
            extended = fr._logdet_extended(cfg, scheme)
        assert abs(extended - fr.logdet_single(cfg, scheme)) < 1e-11
    # x = -1, s = 0.5 has no eigenvalue near 1: the Ritz block is empty
    assert f"N={scheme.size}, k=0 " in caplog.records[-1].getMessage()


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


# ---------------------------------------------------------------------------
# resolvent and the weight-derivative identity
# ---------------------------------------------------------------------------

def test_resolvent_zero_operator():
    cfg = GapConfig((-2.0,), (1.0,))
    scheme = fr.build_scheme(cfg, nodes_per_panel=16)
    res = fr.resolvent_diag(cfg, scheme, (-2.0, 0.0))
    assert np.all(res.values == 0.0)


def test_resolvent_positive_and_window():
    cfg = GapConfig((-2.0,), (0.5,))
    scheme = fr.build_scheme(cfg, nodes_per_panel=24)
    res = fr.resolvent_diag(cfg, scheme, (-2.0, -1.0))
    assert np.all(res.values > 0.0)
    assert res.integral() > 0.0
    with pytest.raises(ValueError, match="window"):
        fr.resolvent_diag(GapConfig((-1.0, -3.0), (0.5, 0.5)),
                          fr.build_scheme(GapConfig((-1.0, -3.0), (0.5, 0.5))),
                          (-0.5, 0.5))


def test_resolvent_window_checked_when_last_weight_is_one():
    cfg = GapConfig((-1.0, -3.0), (0.5, 1.0))
    scheme = fr.build_scheme(cfg, nodes_per_panel=24)
    for window in ((5.0, 9.0), (-1.5, -3.0)):
        with pytest.raises(ValueError, match="window"):
            fr.resolvent_diag(cfg, scheme, window)
    res = fr.resolvent_diag(cfg, scheme, (-3.0, -1.0))
    assert res.values.size > 0 and np.all(res.values == 0.0)


def test_weight_derivative_identity():
    fd, res, gap = fr.weight_derivative_identity_gap(GapConfig((-1.0, -3.0), (0.5, 0.5)))
    assert gap < 1e-6
    assert fd > 0.0


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
