"""Acceptance criteria, one test per criterion, one printed verdict line each.

Criteria 3 and 5 compare a determinant with its closed-form expansion over a
four-point grid of gap sizes r (r = |x| for the one-point thinned tail,
the scale of x = r (-1, -2) for the conditioned expansion).  The expansions
hold up to a remainder of order r^(-3/2) log r; for thinned weights that
remainder carries an oscillating factor, so the gap |determinant - expansion|
is not monotone in r and passes near zero between sign changes.  The tests
therefore bound the envelope the theorem does promise,

    max_k gap_k r_k^(3/2) / log r_k <= ENVELOPE_C = 0.1,

the scaling of tests/test_asymptotics.py::test_gap_envelope_decays_with_r,
next to each criterion's absolute gap bound.

The paper proves the rate, not the constant, so ENVELOPE_C is fixed here from
measurement.  Signed defects d = determinant - expansion on dense scans
(rule orders 64 and 96, est_error <= 2.3e-14 throughout):

* criterion 3, x from -3 to -12 in steps of 0.5: d changes sign 14 times at
  beta = -0.1i and 15 times at beta = -0.3i, while |d| |x|^(3/2) stays below
  0.028 and 0.10; the envelope over the grid's range x <= -4 peaks at 0.053
  (x = -5, beta = -0.3i);
* criterion 5, r from 3 to 10.5: d r^(3/2) stays between 0.014 and 0.078
  and does not grow; the envelope over r >= 4 peaks at 0.035.

On the test grids the envelope reads 0.0063 and 0.043 (criterion 3, beta =
-0.1i and -0.3i) and 0.035 (criterion 5).  A missing constant or a wrong
coefficient in the expansion leaves an O(1) or O(r^(3/2)) defect, which the
scaling turns into growth, and each such error tried pushes the envelope past
0.1: dropping the Barnes G term (0.22 and 1.9 for criterion 3, 0.89 for
criterion 5), log|x| in place of log|4x| (0.29 and 2.6), the drift scaled by
1.001 (0.19 at beta = -0.3i; 0.32 for criterion 5), and dropping the
conditioned log[2(x1 - x)/(x1 - 2x)] term (0.25).
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from airy_gap import asymptotics as asym
from airy_gap import fredholm as fr
from airy_gap import parametrix as px
from airy_gap import specfun as sf
from airy_gap._constants import EULER_GAMMA, PI_SQ

R_GRID = (4.0, 6.0, 8.0, 10.0)
X_GRID = (-4.0, -6.0, -8.0, -10.0)

# bound on gap * r^(3/2) / log r for criteria 3 and 5: about twice the largest
# value on dense scans over the grids' range (0.053), and each wrong-coefficient
# variant tried exceeds it (reaching >= 0.19 at its worst beta); see docstring
ENVELOPE_C = 0.1


def verdict(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def envelope(gaps, scales):
    """max gap * r^(3/2) / log r, the scaled remainder of an expansion."""
    return max(g * r ** 1.5 / math.log(r) for g, r in zip(gaps, scales))


def thinning(b):
    """weight s = e^(-2 pi i beta) for beta = i b"""
    return float(np.exp(2.0 * np.pi * b))


# ---------------------------------------------------------------------------

def test_criterion_01_nystrom_self_convergence():
    start = time.perf_counter()
    cfg = fr.GapConfig((-2.0,), (0.0,))
    values = [fr.logdet_single(cfg, fr.build_scheme(cfg, n)) for n in (40, 80, 160)]
    elapsed = time.perf_counter() - start
    spread = max(values) - min(values)
    verdict(1, spread < 1e-8 and elapsed < 5.0,
            f"spread {spread:.2e} over nodes (40, 80, 160), {elapsed:.2f}s")


def test_criterion_02_hard_tail_trend():
    start = time.perf_counter()
    gaps = []
    for x in X_GRID:
        numeric = fr.log_det(fr.GapConfig((x,), (0.0,)), nodes_per_panel=64)
        gaps.append(abs(numeric.log_f - asym.log_F_m1_s0(x)))
    elapsed = time.perf_counter() - start
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    verdict(2, decreasing and gaps[2] < 0.01 and elapsed < 60.0,
            f"gaps {['%.2e' % g for g in gaps]} at x in {X_GRID}, {elapsed:.1f}s")


def _thinned_gaps(b):
    s = thinning(b)
    out = []
    for x in X_GRID:
        numeric = fr.log_det(fr.GapConfig((x,), (s,)), nodes_per_panel=64)
        out.append(abs(numeric.log_f - asym.log_E_m1(x, 1j * b)))
    return out


def test_criterion_03_thinned_tail():
    # the sign of Im beta is fixed by s = e^(-2 pi i beta) in (0, 1); the gap
    # oscillates in x, so the envelope is bounded rather than each step
    results = {}
    for b in (-0.1, -0.3):
        gaps = _thinned_gaps(b)
        results[b] = gaps
    bound_ok = all(results[b][2] < 0.02 for b in results)
    envelopes = {b: envelope(g, [abs(x) for x in X_GRID]) for b, g in results.items()}
    envelope_ok = all(e <= ENVELOPE_C for e in envelopes.values())
    detail = " ".join(f"beta={b}i gaps={['%.2e' % g for g in results[b]]} "
                      f"envelope={envelopes[b]:.2e}" for b in results)
    verdict(3, bound_ok and envelope_ok, detail)


def test_criterion_04_two_point_prefactor():
    tau = (-1.0, -2.0)
    b = -0.2
    target = 4.0 * PI_SQ * b * b * asym.sigma_cov(*tau)
    s_single = thinning(b)
    s_joint = asym.s_from_beta((1j * b, 1j * b))
    gaps = []
    for r in R_GRID:
        x = tuple(r * t for t in tau)
        joint = fr.log_E(fr.GapConfig(x, s_joint))
        singles = sum(fr.log_E(fr.GapConfig((v,), (s_single,))) for v in x)
        gaps.append(abs(joint - singles - target))
    verdict(4, all(g < 0.05 for g in gaps) and gaps[-1] < 0.05,
            f"|quantity - prefactor| {['%.2e' % g for g in gaps]} over r in {R_GRID}")


def test_criterion_05_conditioned_expansion():
    tau = (-1.0, -2.0)
    b = -0.2
    s = (0.0, thinning(b))
    gaps = []
    for r in R_GRID:
        x = tuple(r * t for t in tau)
        numeric = fr.log_E0(fr.GapConfig(x, s))
        gaps.append(abs(numeric - asym.log_E0_asym(x, (1j * b,)).total))
    scaled = envelope(gaps, R_GRID)
    verdict(5, scaled <= ENVELOPE_C and gaps[-1] < 0.05,
            f"gaps {['%.2e' % g for g in gaps]} over r in {R_GRID}, envelope {scaled:.2e}")


def test_criterion_06_exact_equivalences():
    rng = np.random.default_rng(11)
    worst_unconditioned = 0.0
    worst_conditioned = 0.0
    for _ in range(50):
        m = int(rng.integers(1, 5))
        x = np.cumsum(-rng.uniform(0.4, 6.0, size=m)) - rng.uniform(0.2, 2.0)
        beta = [1j * v for v in rng.uniform(-0.5, 0.5, size=m)]
        d = abs(asym.log_E_asym(x, beta).total - asym.log_E_product_form(x, beta))
        worst_unconditioned = max(worst_unconditioned, d)
    for _ in range(50):
        m = int(rng.integers(2, 5))
        x = np.cumsum(-rng.uniform(0.4, 6.0, size=m)) - rng.uniform(0.2, 2.0)
        beta0 = [1j * v for v in rng.uniform(-0.5, 0.5, size=m - 1)]
        d = abs(asym.log_E0_asym(x, beta0).total - asym.log_E0_product_form(x, beta0))
        worst_conditioned = max(worst_conditioned, d)
    verdict(6, worst_unconditioned < 1e-12 and worst_conditioned < 1e-12,
            f"max residuals {worst_unconditioned:.2e} / {worst_conditioned:.2e} on 50+50 configs")


def test_criterion_07_moments():
    mean_gap = abs(fr.mean_count([(-10.0, math.inf)]) - 2.0 / (3.0 * math.pi) * 10.0 ** 1.5)
    var_ref = 0.75 / PI_SQ * math.log(40.0) + (1.0 + EULER_GAMMA) / (2.0 * PI_SQ)
    var_gap = abs(fr.var_count([(-10.0, math.inf)]) - var_ref)
    cov_gap = abs(fr.cov_halflines(-10.0, -20.0) - asym.sigma_cov(-1.0, -2.0))
    A, B = [(-9.0, -5.0)], [(-5.0, -2.0)]
    bilinear = abs(fr.var_count(A + B) - fr.var_count(A) - fr.var_count(B)
                   - 2.0 * fr.cov_count(A, B))
    verdict(7, mean_gap < 0.02 and var_gap < 0.05 and cov_gap < 0.05 and bilinear < 1e-9,
            f"mean {mean_gap:.2e}, var {var_gap:.2e}, cov {cov_gap:.2e}, bilinearity {bilinear:.2e}")


def test_criterion_08_weight_derivative_identity():
    fd, res, gap = fr.weight_derivative_identity_gap(
        fr.GapConfig((-1.0, -3.0), (0.5, 0.5)))
    verdict(8, gap < 1e-5, f"|finite difference - resolvent trace| = {gap:.2e}")


def test_criterion_09_barnes_integral_identity():
    worst = 0.0
    for b in (0.1, 0.25, 0.5):
        integral, _ = quad(lambda t: -2.0 * t * sf.digamma(1.0 + 1j * t).real,
                           0.0, b, epsabs=1e-13, epsrel=1e-13)
        beta = 1j * b
        lhs = (beta ** 2).real + (sf.log_barnes_g(1.0 + beta) + sf.log_barnes_g(1.0 - beta)).real
        worst = max(worst, abs(lhs - integral))
    verdict(9, worst < 1e-10, f"max residual {worst:.2e} for |beta| in (0.1, 0.25, 0.5)")


def test_criterion_10_model_solutions():
    jump_ab = max(px.jump_residual(model, ray, t)
                  for model, rays in (("airy", px.AIRY_RAYS), ("bessel", px.BESSEL_RAYS))
                  for ray in rays for t in (1.0, 3.0))
    jump_chg = max(px.jump_residual("chg", ray, t, b)
                   for ray in range(1, 7) for t in (0.8, 3.0) for b in (0.1j, 0.3j, 0.5j))
    airy_err = float(np.abs(px.extract_asym_coeff("airy") - px.PHI_AI_1).max())
    bessel_err = float(np.abs(px.extract_asym_coeff("bessel") - px.PHI_BE_1).max())
    chg_err = max(float(np.abs(px.extract_asym_coeff("chg", b) - px.phi_hg1_reference(b)).max())
                  for b in (0.1j, 0.3j))
    logder_err = max(abs(px.hg_logderivative_limit(b) - px.hg_logderivative_exact(b))
                     for b in (0.1j, 0.3j))
    ok = (jump_ab < 1e-9 and jump_chg < 1e-7 and airy_err < 1e-5
          and bessel_err < 1e-5 and chg_err < 1e-4 and logder_err < 1e-4)
    verdict(10, ok,
            f"jumps {jump_ab:.1e}/{jump_chg:.1e}, coeffs {airy_err:.1e}/{bessel_err:.1e}/{chg_err:.1e}, "
            f"log-derivative {logder_err:.1e}")


def test_criterion_11_structural_invariants():
    merge = abs(fr.log_det(fr.GapConfig((-1.0, -3.0), (0.6, 0.6))).log_f
                - fr.log_det(fr.GapConfig((-3.0,), (0.6,))).log_f)
    rng = np.random.default_rng(3)
    monotone = True
    in_unit = True
    for _ in range(8):
        m = int(rng.integers(1, 4))
        x = np.cumsum(-rng.uniform(0.5, 3.0, size=m)) - 0.3
        s = rng.uniform(0.15, 0.9, size=m)
        base = fr.log_det(fr.GapConfig(x, s), nodes_per_panel=32).log_f
        in_unit &= 0.0 < math.exp(base) <= 1.0
        j = int(rng.integers(0, m))
        s2 = s.copy()
        s2[j] = min(1.0, s2[j] + 1e-4)
        monotone &= fr.log_det(fr.GapConfig(x, s2), nodes_per_panel=32).log_f >= base - 1e-12
    tail = abs(fr.log_det(fr.GapConfig((-2.0,), (0.3,)), tail_length=12.0).log_f
               - fr.log_det(fr.GapConfig((-2.0,), (0.3,)), tail_length=16.0).log_f)
    verdict(11, merge < 1e-10 and monotone and in_unit and tail < 1e-10,
            f"merge {merge:.1e}, monotone {monotone}, F in (0,1] {in_unit}, tail sweep {tail:.1e}")
