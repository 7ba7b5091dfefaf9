"""Special-function layer tests, with mpmath-based independent oracles."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from mpmath import mp
from scipy.integrate import quad

from airy_gap import fredholm as fr
from airy_gap import specfun as sf
from airy_gap._constants import EULER_GAMMA, LOG_2PI, zeta_minus_one_scaled


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

def test_rule_order_one_is_midpoint():
    r = sf.gauss_legendre_rule(1)
    assert r.nodes.tolist() == [0.0]
    assert r.weights.tolist() == [2.0]


def test_rule_order_two_closed_form():
    r = sf.gauss_legendre_rule(2)
    assert np.allclose(r.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-15)
    assert np.allclose(r.weights, [1.0, 1.0], atol=1e-15)


def test_rule_high_degree_monomial():
    # exact value of the integral of x^126 over (-1, 1) is 2/127
    r = sf.gauss_legendre_rule(64)
    approx = float(np.sum(r.weights * r.nodes ** 126))
    assert abs(approx - 2.0 / 127.0) <= 1e-13 * (2.0 / 127.0)


@pytest.mark.parametrize("n", [5, 48, 160, 433])
def test_rule_invariants(n):
    r = sf.gauss_legendre_rule(n)
    assert np.all(np.diff(r.nodes) > 0)
    assert np.all(r.weights > 0)
    assert abs(r.weights.sum() - 2.0) < 1e-14
    assert np.allclose(r.nodes, -r.nodes[::-1], atol=0)
    assert np.allclose(r.weights, r.weights[::-1], atol=0)


def test_rule_runge_error_decreases():
    exact = 2.0 / 5.0 * math.atan(5.0)
    errors = []
    for n in (16, 32, 64, 128, 256):
        r = sf.gauss_legendre_rule(n)
        errors.append(abs(float(np.sum(r.weights / (1 + 25 * r.nodes ** 2))) - exact))
    # strictly decreasing until the machine floor (n = 128 already lands on it)
    assert all(b < a or b < 1e-14 for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("n", [0, -3, 4097, 2.5])
def test_rule_rejects_bad_order(n):
    with pytest.raises(ValueError):
        sf.gauss_legendre_rule(n)


def test_rule_cached_read_only_and_still_validated():
    r = sf.gauss_legendre_rule(48)
    assert sf.gauss_legendre_rule(np.int64(48)) is r
    assert sf.gauss_legendre_rule(48, np.longdouble) is not r
    assert not r.nodes.flags.writeable and not r.weights.flags.writeable
    with pytest.raises(ValueError):
        r.nodes[0] = 0.0
    with pytest.raises(ValueError):
        sf.gauss_legendre_rule(48.0)


# ---------------------------------------------------------------------------
# Airy functions
# ---------------------------------------------------------------------------

def test_airy_at_origin():
    ai, aip = sf.airy_ai(0.0)
    assert abs(ai - 3.0 ** (-2.0 / 3.0) / math.gamma(2.0 / 3.0)) < 1e-15
    assert abs(aip + 3.0 ** (-1.0 / 3.0) / math.gamma(1.0 / 3.0)) < 1e-15


def test_airy_connection_identity_grid(rng):
    omega = np.exp(2j * np.pi / 3)
    pts = 10.0 * np.sqrt(rng.uniform(0.01, 1.0, 100)) * np.exp(2j * np.pi * rng.uniform(size=100))
    for z in pts:
        a0, _ = sf.airy_ai(z)
        a1, _ = sf.airy_ai(omega * z)
        a2, _ = sf.airy_ai(omega ** 2 * z)
        # the summands reach ~1e9 inside |z| <= 10, so the cancellation bound
        # is relative to their size (one ulp of a term is already ~1e-7)
        scale = max(abs(a0), abs(a1), abs(a2), 1.0)
        assert abs(a0 + omega * a1 + omega ** 2 * a2) < 1e-10 * scale


def test_airy_against_maclaurin_oracle(mp40):
    # 200-term Maclaurin series at 40 digits, written from the ODE recurrence
    def airy_series(z):
        c1 = mp.mpf(3) ** mp.mpf(-2.0 / 3.0) / mp.gamma(mp.mpf(2) / 3)
        c2 = mp.mpf(3) ** mp.mpf(-1.0 / 3.0) / mp.gamma(mp.mpf(1) / 3)
        f = mp.mpf(1)
        fp = mp.mpf(0)
        g = z
        gp = mp.mpf(1)
        tf, tg = mp.mpf(1), z
        for k in range(1, 200):
            tf = tf * z ** 3 / ((3 * k) * (3 * k - 1))
            f += tf
            fp += tf * (3 * k) / z
            tg = tg * z ** 3 / ((3 * k + 1) * (3 * k))
            g += tg
            gp += tg * (3 * k + 1) / z
        return c1 * f - c2 * g, c1 * fp - c2 * gp

    for z in (mp.mpf(-5), mp.mpf(2.5), mp.mpc(-3, 4)):
        ref_ai, ref_aip = airy_series(z)
        ai, aip = sf.airy_ai(complex(z))
        assert abs(ai - complex(ref_ai)) <= 1e-11 * abs(complex(ref_ai))
        assert abs(aip - complex(ref_aip)) <= 1e-11 * abs(complex(ref_aip))


def test_airy_ode_residual_via_finite_differences():
    # Ai'' = x Ai checked with a 5-point stencil applied to ai_prime
    h = 1e-3
    for x in np.linspace(-30.0, 10.0, 41):
        vals = [sf.airy_ai(x + k * h)[1] for k in (-2, -1, 0, 1, 2)]
        second = (-vals[4] + 8 * vals[3] - 8 * vals[1] + vals[0]).real / (12 * h)
        ai = sf.airy_ai(x)[0].real
        assert abs(second - x * ai) < 1e-6


def test_airy_on_an_array():
    z = np.array([[0.0, -1.0 + 0.5j], [2.0, 3.0j]])
    ai, aip = sf.airy_ai(z)
    assert ai.shape == aip.shape == z.shape and ai.dtype == complex
    for zi, a, ap in zip(z.ravel(), ai.ravel(), aip.ravel()):
        assert (a, ap) == sf.airy_ai(zi)


def test_airy_domain_error():
    with pytest.raises(sf.DomainError):
        sf.airy_ai(61.0)


def test_airy_extended_precision_vs_mpmath(mp40):
    xs = np.array([-55.0, -22.0, -13.7, -9.3, -5.0, -1.0, 0.0, 2.3, 7.7, 11.9, 12.0, 14.5,
                   20.0, 47.3, 75.1, 103.9])
    ai, aip = sf.airy_ai_real_xp(xs)
    for x, a, ap in zip(xs, ai, aip):
        mx = mp.mpf(float(x))
        scale = abs(mp.airyai(mx)) + abs(mp.airyai(mx, 1))
        err = abs(mp.mpf(np.format_float_scientific(a, precision=25)) - mp.airyai(mx))
        errp = abs(mp.mpf(np.format_float_scientific(ap, precision=25)) - mp.airyai(mx, 1))
        assert float((err + errp) / scale) < 5e-17


def test_airy_double_nodes_within_4_ulp_of_mpmath(mp40):
    xs = np.linspace(-16.0, 26.0, 421)
    ai, aip = fr._airy_pair(xs)
    assert ai.dtype == aip.dtype == np.float64
    for x, a, ap in zip(xs, ai, aip):
        mx = mp.mpf(float(x))
        ref, refp = mp.airyai(mx), mp.airyai(mx, 1)
        err = (abs(mp.mpf(float(a)) - ref) + abs(mp.mpf(float(ap)) - refp)) / (abs(ref) + abs(refp))
        assert float(err) <= 4 * np.finfo(np.float64).eps, x


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_airy_real_independent_of_call_history(monkeypatch, dtype):
    xs = np.linspace(-5.3, 14.2, 97).astype(dtype)
    sf._anchor.cache_clear()  # the anchors are read only while rows are built,
    monkeypatch.setattr(sf, "_ROWS", (0, sf._ROWS[1][:0]))  # so clear the rows too
    before = sf.airy_real(xs)
    assert sf._anchor.cache_info().currsize == 70  # anchors 12 - j/4 down to -5.25
    sf.airy_real(np.linspace(-40.0, 0.0, 33).astype(dtype))  # builds deeper anchors
    assert sf._anchor.cache_info().currsize == 209 and not sf._anchor(208).flags.writeable
    after = sf.airy_real(xs)
    for b, a in zip(before, after):
        assert b.dtype == dtype
        assert np.array_equal(b, a)


def test_anchor_table_grows_to_the_deepest_request_under_threads(monkeypatch):
    # deepest first: without the lock a shallower build started earlier can
    # land after the deepest one (about half the rounds on a 2-CPU machine)
    grids = [np.linspace(lo, 12.0, 64) for lo in np.tile(np.linspace(-99.0, -1.0, 16), 2)]
    expected = [sf.airy_real(g) for g in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            sf._anchor.cache_clear()
            monkeypatch.setattr(sf, "_ROWS", (0, sf._ROWS[1][:0]))
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(sf.airy_real, grids, timeout=60))
            assert sf._anchor.cache_info().currsize == 445  # anchor 12 - 444/4 = -99
            for (ai, aip), (ref, refp) in zip(results, expected):
                assert np.array_equal(ai, ref) and np.array_equal(aip, refp)
    finally:
        sys.setswitchinterval(interval)


def _separate_taylor_sums(a, h):
    """(Ai, Ai') at x0 + h from the Taylor coefficients a of Ai about x0 by one
    Horner loop per function: the reference for the anchor march's packed step."""
    y = a[sf._MARCH_ORDER]
    yp = y * sf._MARCH_ORDER
    for k in range(sf._MARCH_ORDER - 1, 0, -1):
        y = y * h + a[k]
        yp = yp * h + a[k] * k
    return y * h + a[0], yp


def _separate_anchors(depth):
    """Taylor coefficients of Ai about 12 - j/4, j < depth, marched by _separate_taylor_sums."""
    anchors = []
    for j in range(depth):
        x0 = np.longdouble(sf._ASYM_ANCHOR - sf._MARCH_STEP * j)
        y, yp = (sf._airy_asymptotic_ld(x0) if j == 0
                 else _separate_taylor_sums(anchors[-1], np.longdouble(-sf._MARCH_STEP)))
        a = [y, yp, x0 * y / sf._RECURRENCE_LD[0]]
        for k in range(1, sf._MARCH_ORDER - 1):
            a.append((x0 * a[k] + a[k - 1]) / sf._RECURRENCE_LD[k])
        anchors.append(np.array(a))
    return np.array(anchors)


@pytest.mark.parametrize("dtype", [np.longdouble])
def test_packed_taylor_step_is_bit_identical(dtype):
    # the anchor march, down to the anchor 12 - 448/4 = AIRY_REAL_MIN
    depth = int((sf._ASYM_ANCHOR - sf.AIRY_REAL_MIN) / sf._MARCH_STEP) + 1
    anchors = _separate_anchors(depth)
    table = np.array([sf._anchor(j) for j in range(depth)])
    assert table.dtype == dtype
    assert np.array_equal(table[:, :, 0], anchors)
    assert np.array_equal(table[:, :, 1], anchors * np.arange(sf._MARCH_ORDER + 1))


def test_double_step_within_4_eps_of_the_rounded_80_bit_values():
    # double nodes sum the float64 copy of each row, so most pairs move by an
    # ulp or two off the 80-bit values, rounded once
    xs = np.linspace(-100.0, 30.0, 24001)
    ai, aip = sf.airy_real(xs)
    ref, refp = (v.astype(np.float64) for v in sf.airy_real(xs.astype(np.longdouble)))
    assert ai.dtype == aip.dtype == np.float64
    err = (np.abs(ai - ref) + np.abs(aip - refp)) / (np.abs(ref) + np.abs(refp))
    assert err.max() <= 4 * np.finfo(np.float64).eps, xs[err.argmax()]


def test_double_rows_from_the_series_up_to_104(mp40):
    # rows at and above 12 come from the 80-bit series; from 104 on double Ai
    # is subnormal and the points keep the rounded series itself
    xs = np.linspace(26.0, 103.99, 241)
    ai, aip = sf.airy_real(xs)
    for x, a, ap in zip(xs, ai, aip):
        mx = mp.mpf(float(x))
        ref, refp = mp.airyai(mx), mp.airyai(mx, 1)
        err = (abs(mp.mpf(float(a)) - ref) + abs(mp.mpf(float(ap)) - refp)) / (abs(ref) + abs(refp))
        assert float(err) <= 4 * np.finfo(np.float64).eps, x
    far = np.array([104.0, 104.03, 110.0, 250.0, 1e6])
    ai, aip = sf.airy_real(far)
    ref, refp = sf._airy_asymptotic_ld(far)
    assert np.array_equal(ai, ref.astype(np.float64)) and np.array_equal(aip, refp.astype(np.float64))


def test_double_rows_independent_of_call_history(monkeypatch):
    xs = np.linspace(-5.3, 14.2, 97)
    monkeypatch.setattr(sf, "_ROWS", (0, sf._ROWS[1][:0]))  # the only row cache
    sf.airy_real(1e6)  # the series alone: no row built
    assert len(sf._ROWS[1]) == 0
    before = sf.airy_real(xs)
    assert sf._ROWS[0] == -277 and len(sf._ROWS[1]) == 313  # anchors 12 + k/16, -5.3125 to 14.1875
    sf.airy_real(np.array([-40.0, 60.0, 1e6]))
    start, rows = sf._ROWS
    assert start == -832 and start + len(rows) - 1 == 768 and not rows.flags.writeable
    after = sf.airy_real(xs)
    for b, a in zip(before, after):
        assert np.array_equal(b, a)


def test_row_table_grows_to_the_widest_request_under_threads(monkeypatch):
    # widest first, from both ends: without the lock a narrower table built
    # alongside could replace a wider one
    grids = [np.linspace(lo, hi, 64) for lo, hi in zip(np.linspace(-99.0, -1.0, 16), np.linspace(100.0, 13.0, 16))]
    expected = [sf.airy_real(g) for g in grids]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(sf, "_ROWS", (0, sf._ROWS[1][:0]))
            with ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(sf.airy_real, grids, timeout=60))
            start, rows = sf._ROWS
            assert start == -1776 and start + len(rows) - 1 == 1408  # anchors -99 and 100
            for (ai, aip), (ref, refp) in zip(results, expected):
                assert np.array_equal(ai, ref) and np.array_equal(aip, refp)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("dtype, tol", [(np.longdouble, 5e-17), (np.float64, 4 * np.finfo(np.float64).eps)])
def test_airy_real_accurate_down_to_its_domain_edge(mp40, dtype, tol):
    xs = np.linspace(sf.AIRY_REAL_MIN, sf.AIRY_REAL_MIN + 2.0, 17)
    ai, aip = sf.airy_real(xs.astype(dtype))
    for x, a, ap in zip(xs, ai, aip):
        mx = mp.mpf(float(x))
        ref, refp = mp.airyai(mx), mp.airyai(mx, 1)
        err = abs(mp.mpf(np.format_float_scientific(a, precision=25)) - ref) \
            + abs(mp.mpf(np.format_float_scientific(ap, precision=25)) - refp)
        assert float(err / (abs(ref) + abs(refp))) <= tol, x
    past = np.nextafter(dtype(sf.AIRY_REAL_MIN), dtype(-np.inf))
    with pytest.raises(sf.DomainError, match="x >= -100"):
        sf.airy_real(np.array([0.5, past], dtype=dtype))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_airy_real_rejects_non_finite(bad):
    with pytest.raises(sf.DomainError, match="finite"):
        sf.airy_real(np.array([0.5, bad]))
    with pytest.raises(sf.DomainError, match="finite"):
        sf.airy_real([0.5, bad])
    with pytest.raises(sf.DomainError):
        sf.airy_ai_real_xp(bad)


@pytest.mark.parametrize("bad", [np.array([0.5 + 0j]), np.array([1 + 2j]), 1 + 2j, [0.5, 2j],
                                 np.array([0.5 + 0j], dtype=np.clongdouble)])
@pytest.mark.parametrize("func", [sf.airy_real, sf.airy_ai_real_xp])
def test_airy_real_rejects_complex(func, bad):
    # a zero imaginary part too: the real-axis evaluator takes real dtypes only
    with pytest.raises(sf.DomainError, match="real arguments"):
        func(bad)


def _same_bits(got, want):
    """Equal dtype, shape, values and signs: the bits, for these finite values
    (an 80-bit array's padding bytes hold no value)."""
    return (got.dtype == want.dtype and got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_airy_real_of_concatenated_nodes_is_bit_identical(rng, dtype):
    # the Nystrom ladder evaluates its first two rungs in one call: the stacked
    # matmul sums each point on its own, whatever else is in the batch
    cfg = fr.GapConfig((-2.0, -3.0, -4.5), (0.5, 0.5, 0.3))
    sets = [(fr.build_scheme(cfg, 16, dtype=dtype).xi, fr.build_scheme(cfg, 24, dtype=dtype).xi),
            (rng.uniform(-99.0, 103.0, 37).astype(dtype), rng.uniform(-3.0, 20.0, 250).astype(dtype)),
            (np.array([5.0], dtype=dtype), rng.uniform(-60.0, 60.0, 1001).astype(dtype))]
    for a, b in sets:
        together = sf.airy_real(np.concatenate([a, b]))
        for got, alone_a, alone_b in zip(together, sf.airy_real(a), sf.airy_real(b)):
            assert _same_bits(got[:a.size], alone_a) and _same_bits(got[a.size:], alone_b)


def _row_step_by_cumprod(t):
    """(Ai, Ai') at the points t below 104 with the powers [h^15, ..., h, 1] of each point
    formed by one cumprod along its row, the row-wise form of the column-wise step."""
    k = np.rint((t - sf._ASYM_ANCHOR) * (1 / sf._ROW_STEP))
    start, rows = sf._row_table(int(k.min()), int(k.max()))
    powers = np.empty((t.size, sf._ROW_TERMS), dtype=t.dtype)
    rising = powers[:, ::-1]
    rising[:, 0] = 1.0
    rising[:, 1:] = (t - (sf._ASYM_ANCHOR + sf._ROW_STEP * k))[:, None]
    np.cumprod(rising, axis=1, out=rising)
    values = np.matmul(rows["double" if t.dtype == np.float64 else "extended"][k.astype(np.intp) - start],
                       powers[:, :, None])
    return values[:, 0, 0], values[:, 1, 0]


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("size", [1, 2, 80, 120, 240, 5000])
def test_row_step_powers_are_the_cumprod_products(rng, dtype, size):
    # h^j = h^(j-1) h over all points at once is the sequential product a cumprod along
    # each point's row forms, and the matmul of the transposed view sums it alike
    t = np.sort(rng.uniform(sf.AIRY_REAL_MIN, sf._ROWS_TOP, size)).astype(dtype)
    t = t[t < sf._ROWS_TOP]
    for got, want in zip(sf.airy_real(t), _row_step_by_cumprod(t)):
        assert _same_bits(got, want)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_mask_free_step_matches_the_split(dtype):
    # points all below 104 skip the mask; across 104 the split keeps the series above
    xs = np.linspace(94.0, 104.5, 106).astype(dtype)  # steps of 0.1, six points from 104
    near, far = xs < sf._ROWS_TOP, xs >= sf._ROWS_TOP
    assert far.sum() == 6
    ai, aip = sf.airy_real(xs)
    for got, want in zip((ai[near], aip[near]), sf.airy_real(xs[near])):
        assert _same_bits(got, want)
    for got, want in zip((ai[far], aip[far]), sf._airy_asymptotic_ld(xs[far])):
        assert _same_bits(got, want.astype(dtype))
    # an array of any shape, a 0-d point and no points keep their shapes and dtype
    grid = xs[6:].reshape(10, 10)  # 94.6 to 104.5, across 104
    for got, flat in zip(sf.airy_real(grid), sf.airy_real(grid.ravel())):
        assert _same_bits(got, flat.reshape(10, 10))
    for got, flat in zip(sf.airy_real(grid[:, :5] - 100.0), sf.airy_real((grid[:, :5] - 100.0).ravel())):
        assert _same_bits(got, flat.reshape(10, 5))
    for point in (dtype(-3.5), dtype(110.0)):
        got = sf.airy_real(point)
        for value, want in zip(got, sf.airy_real(np.array([point]))):
            assert type(value) is dtype and _same_bits(np.array([value]), want)
    for shape in ((0,), (0, 3)):
        for value in sf.airy_real(np.empty(shape, dtype=dtype)):
            assert value.shape == shape and value.dtype == dtype


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_airy_real_domain_messages(dtype):
    past = np.nextafter(dtype(sf.AIRY_REAL_MIN), dtype(-np.inf))
    for bad in ([0.5, np.nan], [np.inf, 0.5], [0.5, -np.inf], [past, np.nan], [np.nan]):
        with pytest.raises(sf.DomainError) as info:
            sf.airy_real(np.array(bad, dtype=dtype))
        assert str(info.value) == "airy_real needs finite arguments"
    for bad in (np.array([0.5, past, 120.0], dtype=dtype), past, np.array([[past]], dtype=dtype)):
        with pytest.raises(sf.DomainError) as info:
            sf.airy_real(bad)
        assert str(info.value) == f"airy_real supports x >= {sf.AIRY_REAL_MIN}, got {past}"


# ---------------------------------------------------------------------------
# gamma family
# ---------------------------------------------------------------------------

def test_log_gamma_classics():
    assert abs(sf.log_gamma(1.0)) < 1e-15
    assert abs(sf.log_gamma(0.5) - 0.5 * math.log(math.pi)) < 5e-15


def test_log_gamma_recurrence_grid(rng):
    pts = rng.uniform(0.2, 4.0, 60) + 1j * rng.uniform(-3.0, 3.0, 60)
    for z in pts:
        res = sf.log_gamma(z + 1) - sf.log_gamma(z) - np.log(z)
        # residual is a multiple of 2 pi i on principal branches; reduce it
        res -= 2j * np.pi * round(res.imag / (2 * np.pi))
        assert abs(res) < 1e-12


def test_log_gamma_pole():
    with pytest.raises(sf.PoleError):
        sf.log_gamma(-3.0)
    with pytest.raises(sf.PoleError, match="digamma pole"):
        sf.digamma(0)


def test_digamma_classics_and_recurrence(rng):
    assert abs(sf.digamma(1.0) + EULER_GAMMA) < 1e-14
    assert abs(sf.digamma(2.0) - (1.0 - EULER_GAMMA)) < 1e-14
    pts = rng.uniform(0.2, 4.0, 50) + 1j * rng.uniform(-3.0, 3.0, 50)
    for z in pts:
        assert abs(sf.digamma(z + 1) - sf.digamma(z) - 1.0 / z) < 1e-12


def test_digamma_matches_log_gamma_derivative():
    z = 1.0 + 0.5j
    h = 1e-5
    fd = (sf.log_gamma(z + h) - sf.log_gamma(z - h)) / (2 * h)
    assert abs(fd - sf.digamma(z)) < 1e-8


# ---------------------------------------------------------------------------
# Barnes G
# ---------------------------------------------------------------------------

def test_barnes_g_small_integers():
    assert abs(sf.log_barnes_g(1.0)) == 0.0
    assert abs(sf.log_barnes_g(2.0)) == 0.0
    assert abs(sf.log_barnes_g(3.0)) < 1e-14
    # chain G(4) = Gamma(3) G(3) = 2
    chained = sf.log_gamma(3.0) + sf.log_barnes_g(3.0)
    assert abs(chained - math.log(2.0)) < 1e-11


def test_barnes_g_recurrence_grid(rng):
    # stay inside the declared domain of both z and z + 1
    pts = rng.uniform(0.6, 1.6, 50) + 1j * rng.uniform(-0.8, 0.8, 50)
    for z in pts:
        res = sf.log_barnes_g(z + 1) - sf.log_gamma(z) - sf.log_barnes_g(z)
        res -= 2j * np.pi * round(res.imag / (2 * np.pi))
        assert abs(res) < 1e-11


def test_barnes_g_against_mpmath(mp40):
    # from |z - 1| = 1.93 the series runs past k = 1022, where 2^(k+1) alone overflows
    for z in (1.3 + 0.4j, 0.2 + 0.5j, 1.0 + 1.9j, 2.9 + 0.1j, 1.0 + 1.93j, 1.0 - 1.95j, 1.0 + 1.96j):
        ref = complex(mp.log(mp.barnesg(mp.mpc(z))))
        assert abs(sf.log_barnes_g(z) - ref) < 1e-12


@pytest.mark.parametrize("z", [1.0 + 0.3j, 1.0 + 0.9j, 1.0 + 1.9j, 0.7 - 1.2j, 2.3 + 0.4j, 0.2 + 1.1j])
def test_barnes_g_coefficient_table_keeps_every_bit(z):
    # each term recomputed as before the table: sign, 2^k (zeta(k) - 1), then c q^n / n
    shift = 0.0 + 0.0j
    zc = complex(z)
    while zc.real >= 1.5:
        zc -= 1.0
        shift += sf.log_gamma(zc)
    while zc.real < 0.5:
        shift -= sf.log_gamma(zc)
        zc += 1.0
    w = zc - 1.0
    gsum = (0.5 * LOG_2PI - 0.5) * w - 0.5 * (1.0 + EULER_GAMMA) * w * w \
        + np.log1p(w) - w + 0.5 * w * w
    q = 0.5 * w
    qn = q * q
    total = 0.0 + 0.0j
    for n in range(3, 2000):
        qn *= q
        term = (-1.0) ** (n - 1) * (2.0 * zeta_minus_one_scaled(n - 1)) * qn / n
        total += term
        if abs(term) < 1e-19 * (1.0 + abs(total)):
            break
    assert sf.log_barnes_g(z) == shift + gsum + total


def test_barnes_g_domain():
    with pytest.raises(sf.DomainError):
        sf.log_barnes_g(4.0)
    with pytest.raises(sf.DomainError):
        sf.log_barnes_g(-0.5 + 0.1j)
    with pytest.raises(sf.DomainError, match="did not converge"):
        sf.log_barnes_g(1.0 + 1.97j)  # more than the series' 2000 terms


@pytest.mark.parametrize("b", [0.1, 0.25, 0.5])
def test_barnes_quadratic_integral_identity(b):
    # beta^2 + log G(1+beta)G(1-beta) equals the integral of
    # x d/dx log(Gamma(1+x)/Gamma(1-x)) along the imaginary segment [0, i b],
    # evaluated here by adaptive quadrature
    def integrand(t):
        return -t * 2.0 * sf.digamma(1.0 + 1j * t).real

    integral, est = quad(integrand, 0.0, b, epsabs=1e-13, epsrel=1e-13)
    beta = 1j * b
    lhs = (beta ** 2).real + (sf.log_barnes_g(1.0 + beta) + sf.log_barnes_g(1.0 - beta)).real
    assert est < 1e-11
    assert abs(lhs - integral) < 1e-10


def test_zeta_literals_audited(mp40):
    for k in range(2, 44):
        assert abs(1.0 + math.ldexp(zeta_minus_one_scaled(k), -k) - float(mp.zeta(k))) < 1e-15
    with pytest.raises(ValueError, match="k >= 2"):
        zeta_minus_one_scaled(1)  # the pole of zeta
    for k in (2, 40, 41, 1023, 1999):  # in range for every k, where 2^k alone overflows
        with mp.workprec(k + 64):  # zeta(k) - 1 ~ 2^-k
            ref = float(mp.ldexp(mp.zeta(k) - 1, k))
        assert zeta_minus_one_scaled(k) == pytest.approx(ref, rel=1e-15)


# ---------------------------------------------------------------------------
# Bessel family
# ---------------------------------------------------------------------------

def test_bessel_small_argument_behavior():
    i0, _, i0p, _ = sf.bessel_modified_I0K0(1e-4)
    assert abs(i0 - 1.0) < 1e-7
    assert abs(i0p) < 1e-3


@pytest.mark.parametrize("z", [1.0, 2.5, 0.3 + 1.2j, 8.0 - 2.0j])
def test_bessel_wronskian(z):
    i0, k0, i0p, k0p = sf.bessel_modified_I0K0(z)
    w = i0 * k0p - i0p * k0
    assert abs(w + 1.0 / z) < 1e-10 * abs(1.0 / z)


def test_bessel_series_oracle(mp40):
    # ascending series for I0 and K0 at 40 digits
    z = mp.mpf(2.5)
    i0 = mp.mpf(1)
    term = mp.mpf(1)
    for k in range(1, 150):
        term *= (z / 2) ** 2 / k ** 2
        i0 += term
    k0 = -(mp.log(z / 2) + mp.euler) * i0
    term = mp.mpf(1)
    harm = mp.mpf(0)
    for k in range(1, 150):
        term *= (z / 2) ** 2 / k ** 2
        harm += mp.mpf(1) / k
        k0 += term * harm
    mine = sf.bessel_modified_I0K0(2.5)
    assert abs(mine[0] - complex(i0)) < 1e-13 * abs(complex(i0))
    assert abs(mine[1] - complex(k0)) < 1e-12 * abs(complex(k0))


def test_bessel_domain_errors():
    with pytest.raises(sf.DomainError):
        sf.bessel_modified_I0K0(-2.0)
    with pytest.raises(sf.DomainError):
        sf.bessel_modified_I0K0(81.0)
    with pytest.raises(sf.DomainError, match="hankel_H0 supports"):
        sf.hankel_H0(81.0, 1)
    with pytest.raises(ValueError, match="kind must be 1 or 2, got 3"):
        sf.hankel_H0(1.0, 3)


def test_hankel_conjugation_symmetry():
    for x in (0.7, 3.0, 11.0):
        h1, h1p = sf.hankel_H0(x, 1)
        h2, h2p = sf.hankel_H0(x, 2)
        assert abs(h2 - h1.conjugate()) < 1e-13
        assert abs(h2p - h1p.conjugate()) < 1e-13


def test_hankel_mean_is_j0(mp40):
    # (H0^(1) + H0^(2))/2 = J0, against the Maclaurin series of J0
    z = mp.mpf(3)
    j0 = mp.mpf(1)
    term = mp.mpf(1)
    for k in range(1, 120):
        term *= -(z / 2) ** 2 / k ** 2
        j0 += term
    h1, _ = sf.hankel_H0(3.0, 1)
    h2, _ = sf.hankel_H0(3.0, 2)
    assert abs(0.5 * (h1 + h2) - complex(j0)) < 1e-11


def test_hankel_wronskian():
    z = 1.0
    h1, h1p = sf.hankel_H0(z, 1)
    h2, h2p = sf.hankel_H0(z, 2)
    w = h1 * h2p - h1p * h2
    assert abs(w - (-4j / (math.pi * z))) < 1e-10


def test_hankel_singularity():
    with pytest.raises(sf.SingularityError):
        sf.hankel_H0(0.0, 1)


# ---------------------------------------------------------------------------
# Whittaker / Kummer
# ---------------------------------------------------------------------------

def test_whittaker_kappa_half_closed_form():
    # kappa = 1/2 gives a = 0, so M(0,1,z) = 1 and M_{1/2,0} = sqrt(z) e^(-z/2)
    for z in (0.7, 2.0 + 1.5j, 9.0):
        m, _ = sf.whittaker_pair_mu0(0.5, z)
        assert abs(m - np.sqrt(z) * np.exp(-z / 2)) < 1e-13 * abs(m)


@pytest.mark.parametrize("kappa,z", [
    (0.5 - 0.2j, 4.0),
    (0.5 + 0.3j, 2.0 + 1.0j),
    (-0.5 - 0.1j, 9.0 + 2.0j),
    (0.5 - 0.3j, 16.0 * np.exp(2.2j)),
    (1.5 - 0.25j, 30.0 * np.exp(-0.8j)),
    (1.5 + 0.25j, 20.5),
])
def test_whittaker_against_mpmath(mp40, kappa, z):
    m, w = sf.whittaker_pair_mu0(kappa, z)
    ref_m = complex(mp.whitm(mp.mpc(kappa), 0, mp.mpc(z)))
    ref_w = complex(mp.whitw(mp.mpc(kappa), 0, mp.mpc(z)))
    assert abs(m - ref_m) < 1e-8 * max(abs(ref_m), 1.0)
    assert abs(w - ref_w) < 1e-8 * max(abs(ref_w), 1.0)


def test_whittaker_m_reproduces_series(mp40):
    # the shipped M against a 40-digit evaluation of its defining series
    for kappa, z in ((0.5 - 0.2j, 18.0 + 4.0j), (1.5 + 0.1j, -3.0 + 14.0j)):
        a = mp.mpc(0.5) - mp.mpc(kappa)
        total = mp.mpf(1)
        term = mp.mpf(1)
        for k in range(400):
            term *= (a + k) * mp.mpc(z) / ((k + 1) * (k + 1))
            total += term
        ref = mp.sqrt(mp.mpc(z)) * mp.e ** (-mp.mpc(z) / 2) * total
        m, _ = sf.whittaker_pair_mu0(kappa, z)
        assert abs(m - complex(ref)) < 1e-9 * abs(complex(ref))


def test_whittaker_m_left_half_plane_scan(mp40):
    # the ascending series of M(a, 1, z) cancels like e^|z| here; Kummer's
    # transformation runs the series of M(1 - a, 1, -z) instead
    rng = np.random.default_rng(20261019)
    for kappa in (-0.5 - 0.1j, 0.2j, -0.3 + 0.1j, -0.3 - 0.5j):
        for r, theta in zip(rng.uniform(12.0, 60.0, 16), rng.uniform(0.5, 1.5, 16) * math.pi):
            z = r * np.exp(1j * theta)
            m, _ = sf.whittaker_pair_mu0(kappa, z)
            ref = complex(mp.whitm(mp.mpc(kappa), 0, mp.mpc(z)))
            assert abs(m - ref) < 1e-8 * max(abs(ref), 1.0), (kappa, z)


def test_kummer_u_smooth_at_zero_parameter():
    assert abs(sf.kummer_u(0.0, 3.0 + 1.0j) - 1.0) < 1e-15
    # continuity of the a -> 0 limit
    assert abs(sf.kummer_u(1e-9j, 3.0 + 1.0j) - 1.0) < 1e-7


def test_kummer_asymptotic_routes(mp40):
    for a, z in ((1 - 0.3j, 20.0), (-0.3j, 25.0 * np.exp(0.4j)), (0.3j, -30.0 + 4.0j)):
        ref_u = complex(mp.hyperu(mp.mpc(a), 1, mp.mpc(z)))
        ref_m = complex(mp.hyp1f1(mp.mpc(a), 1, mp.mpc(z)))
        # the large-argument series floor is ~e^(-|z|) of the value scale
        assert abs(sf.kummer_u(a, z) - ref_u) < 5e-8 * max(abs(ref_u), 1e-3)
        assert abs(sf.kummer_m_b1_asym(a, z) - ref_m) < 5e-8 * max(abs(ref_m), 1e-3)


def test_kummer_routes_against_mpmath(mp40):
    # both sides of the switch, in both half-planes: the ascending series
    # where it cancels less than e^19, the large-|z| routes beyond
    for r in (18.0, 20.0, 25.0, 40.0):
        for k in range(8):
            z = r * np.exp(1j * k * math.pi / 4)
            for a in (-0.5j, 1 + 0.35j, -1 - 0.25j):
                ref_m = complex(mp.hyp1f1(mp.mpc(a), 1, mp.mpc(z)))
                assert abs(sf.kummer_m(a, z) - ref_m) < 2e-8 * max(abs(ref_m), 1.0), (a, z)
                if k != 4:  # U off its branch cut
                    ref_u = complex(mp.hyperu(mp.mpc(a), 1, mp.mpc(z)))
                    assert abs(sf.kummer_u(a, z) - ref_u) < 5e-8 * max(abs(ref_u), 1.0), (a, z)


@pytest.mark.parametrize("z", [-3.0, -30.0, 0.0])
def test_kummer_u_principal_branch_rejects_the_cut(z):
    # one cut rule for the ascending and the large-|z| series alike
    with pytest.raises(sf.DomainError, match="principal branch"):
        sf.kummer_u(0.3j, z)


def test_whittaker_branch_cut_rejected():
    with pytest.raises(sf.DomainError):
        sf.whittaker_pair_mu0(0.5 - 0.2j, -4.0)


def test_whittaker_rejects_z_beyond_its_range():
    with pytest.raises(sf.DomainError, match="whittaker_pair_mu0 supports"):
        sf.whittaker_pair_mu0(0.5, 61.0)
