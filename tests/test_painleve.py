"""The Painleve II route for the one-point hard gap F(x; 0)."""

import logging
import tracemalloc

import numpy as np
import pytest

from airy_gap import fredholm as fr
from airy_gap import painleve as pii
from airy_gap import specfun as sf
from airy_gap.asymptotics import log_F_m1_s0
from airy_gap.fredholm import GapConfig, NumericalError

EPS = np.finfo(float).eps


def four_term_tail(x):
    """log F(x; 0) up to O(|x|^-12): good to 2e-10 at x = -10, 1e-14 at -16."""
    r = -x
    return log_F_m1_s0(x) + 3 / (64 * r ** 3) + 63 / (256 * r ** 6) + 7221 / (1536 * r ** 9)


def reference_log_hard_gap(x, n):
    """The n-point Gauss-Legendre rule on [x, RIGHT], exact for (t - x) p^2
    with p the degree n - 1 interpolant of q: O(n^2) per value."""
    order = pii._order(n)
    nodes, weights = sf.gauss_legendre_rule(n).mapped(x, pii.RIGHT)
    p = pii._interpolate(order.columns, nodes[:, None] - order.t)
    return -float(weights @ ((nodes - x) * p * p))


# ---------------------------------------------------------------------------
# the boundary-value solve
# ---------------------------------------------------------------------------

def test_solution_matches_its_asymptotics_inside_the_interval():
    order = pii._order(pii.RUNGS[-1])
    far_left, near_left, right = pii._interpolate(order.columns,
                                                  np.array([-60.0, -30.0, 6.0])[:, None] - order.t)
    assert abs(far_left - pii._left_value(-60.0)) < 1e-13 * far_left
    assert abs(near_left - pii._left_value(-30.0)) < 1e-13 * near_left
    # q - Ai is of order Ai^3 out here: 2e-11 relative at t = 6
    ai = sf.airy_real(6.0)[0]
    assert abs(right - ai) < 1e-9 * ai


def reference_hastings_mcleod(n):
    """The Newton build with a fresh Jacobian per step, D and D^2 kept apart and
    the differentiation matrix through np.eye and np.diag."""
    k = np.arange(n)
    x = -np.cos(np.pi * k / (n - 1))
    c = np.where((k == 0) | (k == n - 1), 2.0, 1.0) * (-1.0) ** k
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n))
    D -= np.diag(D.sum(axis=1))
    t = 0.5 * (pii.RIGHT - pii.LEFT) * (x + 1.0) + pii.LEFT
    D2 = (D @ D) * (2.0 / (pii.RIGHT - pii.LEFT)) ** 2
    q = np.sqrt((np.sqrt(t * t + 1.0) - t) / 4.0)
    q[0] = pii._left_value(pii.LEFT)
    q[-1] = float(sf.airy_real(pii.RIGHT)[0])
    for _ in range(pii.NEWTON_MAX_STEPS):
        residual = D2 @ q - t * q - 2.0 * q ** 3
        jacobian = D2 - np.diag(t + 6.0 * q * q)
        residual[[0, -1]] = 0.0
        jacobian[[0, -1]] = 0.0
        jacobian[0, 0] = jacobian[-1, -1] = 1.0
        step = np.linalg.solve(jacobian, residual)
        q -= step
        if np.max(np.abs(step)) < pii.NEWTON_TOL:
            return t, q
    raise AssertionError("reference Newton did not converge")


@pytest.mark.parametrize("n", pii.RUNGS)
def test_one_matrix_newton_build_keeps_the_bits(n):
    order = pii._order(n)
    t, q = reference_hastings_mcleod(n)
    assert np.array_equal(order.t, t) and np.array_equal(order.q, q)


def test_newton_build_keeps_one_matrix():
    # one n x n matrix carried through the loop and the copy np.linalg.solve
    # makes of it: 2.4 MB at n = 375, where D, D^2, a diagonal matrix and a
    # Jacobian per step held together would take 5.4 MB
    n = pii.RUNGS[-1]
    tracemalloc.start()
    try:
        pii.hastings_mcleod(n)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * n * n * 8


def test_newton_failure_raises(monkeypatch):
    monkeypatch.setattr(pii, "NEWTON_MAX_STEPS", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        pii.hastings_mcleod(40)  # uncached


# ---------------------------------------------------------------------------
# the cached tail integrals
# ---------------------------------------------------------------------------

# 24 values of x drawn once (seed 26) on the whole domain, beside the fixed
# ones.  One, x = 3.94, falls where q is under 1e-3 of its maximum 7.7: there
# the barycentric rounding of both evaluators, about eps max|q| / q, exceeds
# 1e-14 relative.  Against an 80-bit interpolation the value is 5e-14 off and
# the reference 7e-14 (log F = -6.4e-8; est_error is 7e-15 absolute).
SEEDED_X = [x if x <= 3.0 else pytest.param(x, marks=pytest.mark.xfail(
                strict=True, reason="double barycentric rounding above x = 3"))
            for x in np.random.default_rng(26).uniform(-100.0, pii.RIGHT, 24).tolist()]


# Toward the right end both evaluators carry the rounding of barycentric
# interpolation from nodes where q reaches 7.7: each is ~3e-15 relative off
# an 80-bit interpolation at x = 2.  1e-14 there is still 1000x under the
# gap between the two orders.
@pytest.mark.parametrize("n", pii.RUNGS)
@pytest.mark.parametrize("x", [-100.0, -99.0, -60.0, -30.0, -16.0, -13.0, -10.9554, -9.0,
                               -6.0, -4.0, -2.0, 0.0, 2.0] + SEEDED_X)
def test_cached_sums_match_the_n_point_rule(x, n):
    value = pii.log_hard_gap(x, n)
    assert abs(value - reference_log_hard_gap(x, n)) <= (2e-15 if x <= -2 else 1e-14) * abs(value)


@pytest.mark.parametrize("n", pii.RUNGS)
def test_cached_sums_are_continuous_across_a_node(n):
    order = pii._order(n)
    t, J = order.t, order.J
    k = int(np.searchsorted(t, -10.0))
    at, below, above = (pii.log_hard_gap(t[k] + d, n) for d in (0.0, -1e-9, 1e-9))
    for x, value in ((t[k], at), (t[k] - 1e-9, below), (t[k] + 1e-9, above)):
        assert abs(value - reference_log_hard_gap(x, n)) <= 2e-15 * abs(value)
    # d/dx log F = integral_x^inf q^2 = J(t_k) at the node, from either side
    for quotient in ((at - below) / 1e-9, (above - at) / 1e-9):
        assert abs(quotient - J[k]) < 1e-5 * J[k]


def test_a_value_on_a_chebyshev_point_is_its_table_entry():
    for n in pii.RUNGS:
        order = pii._order(n)
        t, G, u = order.t, order.G, order.u
        for k in np.searchsorted(t, [-60.0, -10.0, -3.0]):
            assert pii.log_hard_gap(t[k], n) == -G[k]
            below, above = np.nextafter(t[k], -np.inf), np.nextafter(t[k], np.inf)
            assert np.any(below + (t[k] - below) * u == t[k])  # rule points rounding onto t_k
            for x in (below, above):
                value = pii.log_hard_gap(x, n)
                assert abs(value - reference_log_hard_gap(x, n)) <= 2e-15 * abs(value), (n, k, x)


def test_a_cached_value_interpolates_nothing(monkeypatch):
    for n in pii.RUNGS:
        pii.log_hard_gap(-10.0, n)  # warm-up: the record of each order
    misses = pii._order.cache_info().misses
    calls = []
    interpolate = pii._interpolate

    def counting(columns, d):
        calls.append(d.shape)
        return interpolate(columns, d)

    monkeypatch.setattr(pii, "_interpolate", counting)
    for x in np.linspace(-99.0, 7.0, 100):
        fr.log_det(GapConfig((float(x),), (0.0,)))
    assert calls == []
    assert pii._order.cache_info().misses == misses
    for n in pii.RUNGS:
        order = pii._order(n)
        assert not any(a.flags.writeable for a in order[:-1])
        assert type(order.table) is tuple and all(type(row) is tuple for row in order.table)


def twelve_point_log_hard_gap(x, n):
    """The value as a 12-point sum over its last gap, O(n) per value: -(G(t_k) +
    h J(t_k) + h^2 sum_i w_i u_i q(x + h u_i)^2), q interpolated from every t_j."""
    order = pii._order(n)
    t = order.t
    k = int(np.searchsorted(t, x))
    if t[k] == x:
        return -float(order.G[k])
    h = t[k] - x
    p = pii._interpolate(order.columns, (x - t) + h * order.u[:, None])
    return -float(order.G[k] + h * order.J[k] + h * h * (order.weights @ (order.u * p * p)))


@pytest.mark.parametrize("n", pii.RUNGS)
def test_the_gap_table_matches_the_twelve_point_sum(n):
    # seeded x, every Chebyshev point on [-100, 3] and its neighbours either side
    t = pii._order(n).t
    points = t[(t >= -100.0) & (t <= 3.0)]
    xs = np.concatenate([np.random.default_rng(41).uniform(-100.0, 3.0, 400), points,
                         np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])
    for x in xs[xs >= -100.0].tolist():
        value, reference = pii.log_hard_gap(x, n), twelve_point_log_hard_gap(x, n)
        assert type(value) is float
        assert abs(value - reference) <= 4 * EPS * max(abs(reference), 1.0), (x, value, reference)


def test_gap_table_interpolates_in_blocks():
    # one interpolation matrix for all (n - 1) LOCAL_POINTS points would take
    # 27 MB at n = 375; the blocked build peaks at 1.1 MB
    order = pii._order(pii.RUNGS[-1])
    tracemalloc.start()
    try:
        coefficients = pii.gap_table(order.t, order.columns, order.u, order.weights)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    assert [row[4:] for row in order.table] == [tuple(c) for c in coefficients.tolist()]


def test_table_build_interpolates_in_blocks():
    # one interpolation matrix for all (n - 1) GAP_NODES points would take
    # 13.5 MB at n = 375; the blocked build peaks at 0.89 MB
    order = pii._order(pii.RUNGS[-1])
    tracemalloc.start()
    try:
        J, G = pii.tail_integrals(order.t, order.columns, order.u, order.weights)  # uncached
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6
    assert np.array_equal(J, order.J) and np.array_equal(G, order.G)


# ---------------------------------------------------------------------------
# log_det on the Painleve II route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-16.0, -30.0, -60.0, -99.0])
def test_deep_hard_gap_matches_the_four_term_tail(x):
    report = fr.log_det(GapConfig((x,), (0.0,)))
    assert report.route == "painleve" and report.converged
    assert [n for n, _ in report.resolutions] == list(pii.RUNGS)
    assert abs(report.log_f - four_term_tail(x)) < 1e-13 * abs(report.log_f)


@pytest.mark.parametrize("x", [-16.0, -30.0, -100.0])
def test_est_error_has_a_rounding_floor(x):
    # the two orders can round alike: at x = -16 their gap was once 0 while
    # the value sat 1.1e-12 from the four-term tail
    report = fr.log_det(GapConfig((x,), (0.0,)))
    gap = abs(report.resolutions[-1][1] - report.resolutions[-2][1])
    assert report.est_error == max(gap, fr.ROUNDING_FLOOR * abs(report.log_f))
    assert abs(report.log_f - four_term_tail(x)) <= report.est_error
    assert report.converged


@pytest.mark.parametrize("x, s, kwargs", [((-10.0,), (0.0,), {}), ((-2.0,), (0.5,), {}),
                                          ((-2.0,), (0.0,), {"nodes_per_panel": 24})],
                         ids=["painleve", "nystrom", "nystrom-hard-gap"])
def test_reports_hold_plain_floats(x, s, kwargs):
    # on the Painleve route the resolutions are log_hard_gap's own values
    report = fr.log_det(GapConfig(x, s), **kwargs)
    assert type(report.log_f) is float and type(report.est_error) is float
    assert all(type(v) is float for _, v in report.resolutions)


def test_hard_gap_where_the_nystrom_route_refuses():
    # the 80-bit Nystrom path raises at x = -13 (test_fredholm)
    report = fr.log_det(GapConfig((-13.0,), (0.0,)))
    assert report.route == "painleve"
    assert abs(report.log_f - four_term_tail(-13.0)) <= report.est_error + 1e-10


# s = 0 is below NEAR_ONE_GAP, so logdet_single takes the 80-bit path; double
# assembly noise would spread a double value over ~1e-10 below x ~ -5.5
# (min 1 - lambda = 2.9e-5 at x = -6).
@pytest.mark.parametrize("x", [-6.25, -6.0, -4.0, -2.0, 0.0, 2.0],
                         ids=["-6.25-80bit", "-6-80bit", "-4", "-2", "0", "2"])
def test_painleve_agrees_with_the_nystrom_determinant(x):
    cfg = GapConfig((x,), (0.0,))
    report = fr.log_det(cfg)
    assert report.route == "painleve"
    assert abs(report.log_f - fr.logdet_single(cfg, fr.build_scheme(cfg, 48))) < 1e-11


@pytest.mark.parametrize("x", [-5.5, -6.0, -6.25, -6.5])
def test_nystrom_ladders_agree_with_painleve_below_the_certificate(x):
    # the default ladder and an explicit 48-node pair, both on the 80-bit path
    cfg = GapConfig((x,), (0.0,))
    ref = fr.log_det(cfg).log_f
    for kwargs in ({}, {"nodes_per_panel": 48}):
        assert abs(fr._nystrom_log_det(cfg, **kwargs).log_f - ref) < 1e-11, kwargs


def test_hard_gap_below_the_airy_domain_raises():
    with pytest.raises(sf.DomainError, match="-100"):
        fr.log_det(GapConfig((-101.0,), (0.0,)))


@pytest.mark.parametrize("x, s, kwargs", [
    ((-2.0,), (0.5,), {}),
    ((-2.0, -3.0), (0.0, 0.5), {}),
    ((-2.0,), (0.0,), {"nodes_per_panel": 24}),
    ((-2.0,), (0.0,), {"tail_length": 16.0}),
    ((pii.RIGHT,), (0.0,), {}),
], ids=["thinned", "two-point", "nodes", "tail", "right-end"])
def test_every_other_config_takes_the_nystrom_route(x, s, kwargs):
    assert fr.log_det(GapConfig(x, s), **kwargs).route == "nystrom"


def test_painleve_route_logged_at_info(caplog):
    with caplog.at_level(logging.INFO, logger="airy_gap.fredholm"):
        report = fr.log_det(GapConfig((-9.0,), (0.0,)))
    (record,) = caplog.records
    assert record.levelno == logging.INFO
    msg = record.getMessage()
    assert "x=-9," in msg and str(pii.RUNGS) in msg and f"est_error={report.est_error:.3g}" in msg


def test_log_E0_keeps_both_determinants_on_the_nystrom_route(monkeypatch):
    def no_painleve(*args, **kwargs):
        raise AssertionError("the Painleve route ran")

    monkeypatch.setattr(pii, "log_hard_gap", no_painleve)
    cfg = GapConfig((-2.0, -3.0), (0.0, 0.5))
    full = fr._nystrom_log_det(cfg).log_f
    ref = fr._nystrom_log_det(GapConfig((-2.0,), (0.0,)))
    # s_1 = 0 puts both ladders on the 80-bit path, where F(-2; 0) reads its factor
    # off the full block's pivoted Cholesky: within the 80-bit Ritz noise of its
    # own ladder (3e-16 here), inside that ladder's est_error
    assert abs(fr.log_E0(cfg) - (full - ref.log_f)) <= ref.est_error
