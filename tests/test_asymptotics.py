"""Closed-form expansions: exact values, algebraic identities, realness."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airy_gap import asymptotics as asym
from airy_gap import fredholm as fr
from airy_gap._constants import EULER_GAMMA, PI_SQ, ZETA_PRIME_MINUS_ONE
from airy_gap.specfun import DomainError, SingularityError, log_barnes_g


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------

def test_beta_trivial_weights():
    assert asym.beta_from_s([1.0, 1.0, 1.0]) == (0.0, 0.0, 0.0)


def test_beta_single_point_half():
    (b,) = asym.beta_from_s([0.5])
    assert abs(b - (-1j * math.log(2.0) / (2 * math.pi))) < 1e-16
    assert abs(np.exp(-2j * np.pi * b) - 0.5) < 1e-15


def test_beta_two_point_ratios():
    b1, b2 = asym.beta_from_s([0.25, 0.5])
    assert abs(b1 - 1j * math.log(0.5) / (2 * math.pi)) < 1e-16
    assert abs(b2 - 1j * math.log(0.5) / (2 * math.pi)) < 1e-16


def test_beta_roundtrip(rng):
    for _ in range(25):
        m = int(rng.integers(1, 5))
        s = tuple(rng.uniform(0.05, 1.0, size=m))
        beta = asym.beta_from_s(s)
        back = asym.s_from_beta(beta)
        assert max(abs(a - b) for a, b in zip(s, back)) < 1e-14


def test_beta_s1_zero_conventions():
    beta0 = asym.beta_from_s([0.0, 0.5, 0.75])
    assert len(beta0) == 2
    s = asym.s_from_beta(beta0)  # beta_2, beta_3 give back s_2, s_3
    assert len(s) == 2
    assert abs(s[0] - 0.5) < 1e-14 and abs(s[1] - 0.75) < 1e-14


def test_beta_invalid_weights():
    with pytest.raises(ValueError):
        asym.beta_from_s([0.5, 0.0])
    with pytest.raises(ValueError):
        asym.beta_from_s([1.2])
    with pytest.raises(ValueError):
        asym.s_from_beta([0.3j])  # would need s > 1


@pytest.mark.parametrize("s", [[], (), np.array([])], ids=["list", "tuple", "array"])
def test_beta_from_no_weights_raises(s):
    # check_weights accepts no weights; s_1 would then be read past the end
    with pytest.raises(ValueError, match=r"^need m >= 1 weights s, got "):
        asym.beta_from_s(s)


@pytest.mark.parametrize("s", [[0.5 + 0j, 0.3], [0.5, "0.3"], 0.5j])
def test_beta_non_real_weights_raise(s):
    # rejected by dtype before any cast: no ComplexWarning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^weights s must be real numbers, got " + re.escape(repr(s))):
            asym.beta_from_s(s)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def test_mu_closed_forms():
    assert abs(asym.mu(-1.0) - 2.0 / (3.0 * math.pi)) < 1e-16
    assert abs(asym.mu(-4.0) - 16.0 / (3.0 * math.pi)) < 1e-15
    with pytest.raises(ValueError):
        asym.mu(0.5)


def test_sigma2_closed_forms():
    assert asym.sigma2(-0.25) == 0.0
    assert abs(asym.sigma2(-1.0) - 3.0 / (4.0 * PI_SQ) * math.log(4.0)) < 1e-16


def test_sigma_cov_values():
    # (sqrt1 + sqrt4)^2 / 3 = 3 and (sqrt1 + sqrt9)^2 / 8 = 2
    assert abs(asym.sigma_cov(-1.0, -4.0) - math.log(3.0) / (2 * PI_SQ)) < 1e-16
    assert abs(asym.sigma_cov(-1.0, -9.0) - math.log(2.0) / (2 * PI_SQ)) < 1e-16


def test_sigma_cov_scale_invariance():
    assert abs(asym.sigma_cov(-2.0, -8.0) - asym.sigma_cov(-1.0, -4.0)) < 1e-15
    for c in (0.3, 2.0, 17.5):
        assert abs(asym.sigma_cov(-c * 1.3, -c * 2.9) - asym.sigma_cov(-1.3, -2.9)) < 1e-14


def test_sigma_cov_errors():
    with pytest.raises(ValueError):
        asym.sigma_cov(-2.0, -1.0)
    with pytest.raises(ValueError):
        asym.sigma_cov(1.0, -2.0)
    with pytest.raises(SingularityError):
        asym.sigma_cov(-1.0, -1.0 - 1e-13)


@pytest.mark.parametrize("b", [1e-3, 1e-2, 0.1, 0.3, 0.6, 0.9])
def test_barnes_pair_against_mpmath(mp40, b):
    # the real series keeps full relative accuracy as beta -> 0, where the
    # complex route's log1p(i b) is off by 7e-11 relative at b = 1e-3
    for sign in (1.0, -1.0):
        ref = float(2 * mp40.re(mp40.log(mp40.barnesg(1 + 1j * mp40.mpf(sign * b)))))
        assert abs(asym.barnes_pair(1j * sign * b) - ref) <= 1e-15 * abs(ref)


def test_barnes_pair_matches_log_barnes_g():
    # the twin: 2 Re log G(1 + i b) by the complex series, up to 1.3e-15 off mpmath
    # near b = 1.8 where the real series is 8.9e-16 off, so 1e-15 of max(1, value)
    for b in np.linspace(0.05, 1.9, 75):
        twin = 2.0 * log_barnes_g(1.0 + 1j * b).real
        assert abs(asym.barnes_pair(1j * b) - twin) <= 1e-15 * max(1.0, abs(twin))
    assert asym.barnes_pair(0.0) == 0.0


@pytest.mark.parametrize("b", [1.97, -2.0, 2.02, 5.0])
def test_barnes_pair_domain_names_beta(b):
    # |beta| < 2 is every ratio s_j/s_(j+1) within e^(+-4 pi); from |beta| = 1.97 the
    # series does not converge within its 2000 terms
    with pytest.raises(DomainError, match=rf"beta = {b!r}i needs \|beta\| < 2, that is s_j/s_\(j\+1\) "
                                          r"within e\^\(-4 pi\) \.\.\. e\^\(4 pi\)"):
        asym.barnes_pair(1j * b)


def test_expansions_refuse_a_weight_ratio_beyond_e_4pi():
    # s_2 = 3e-6 is below e^(-4 pi) = 3.5e-6: beta_2 = log(3e-6) / (2 pi) i = -2.02i
    x, beta = (-4.0, -6.4), asym.beta_from_s((0.5, 3e-6))
    for call in (lambda: asym.log_E_asym(x, beta), lambda: asym.log_E_m1(-6.4, beta[1])):
        with pytest.raises(DomainError, match=r"beta = -2\.02.*i needs \|beta\| < 2"):
            call()


# ---------------------------------------------------------------------------
# one-point tails
# ---------------------------------------------------------------------------

def test_hard_tail_at_minus_one():
    expected = math.log(2.0) / 24.0 + ZETA_PRIME_MINUS_ONE - 1.0 / 12.0
    assert abs(asym.log_F_m1_s0(-1.0) - expected) < 1e-16


def test_hard_tail_cubic_difference():
    # the |x|^3/12 term dominates doubling differences: -(8-1)|x|^3/12 plus
    # the log piece
    x = -3.0
    diff = asym.log_F_m1_s0(2 * x) - asym.log_F_m1_s0(x)
    expected = -(7.0 * abs(x) ** 3) / 12.0 - math.log(2.0) / 8.0
    assert abs(diff - expected) < 1e-12


def test_thinned_tail_zero_parameter():
    assert asym.log_E_m1(-3.0, 0.0) == 0.0


def test_thinned_tail_quarter_point():
    # log|4x| = 0 at x = -1/4: only the Barnes pair and the drift remain
    b = -0.23
    value = asym.log_E_m1(-0.25, 1j * b)
    expected = asym.barnes_pair(1j * b) + (4.0 / 3.0) * b * 0.125
    assert abs(value - expected) < 1e-15


def test_one_point_tails_against_determinants():
    # numeric cross-checks at the scale used throughout the validation suite
    num = fr.log_det(fr.GapConfig((-8.0,), (0.0,))).log_f
    assert abs(num - asym.log_F_m1_s0(-8.0)) < 0.01
    s = float(np.exp(2 * np.pi * -0.2))
    num = fr.log_det(fr.GapConfig((-8.0,), (s,))).log_f
    assert abs(num - asym.log_E_m1(-8.0, -0.2j)) < 0.02


# ---------------------------------------------------------------------------
# multi-point expansions
# ---------------------------------------------------------------------------

def test_breakdown_zero_parameters():
    br = asym.log_E_asym([-1.0, -2.0], [0.0, 0.0])
    assert br.total == 0.0


def test_breakdown_total_is_sum():
    br = asym.log_E_asym([-3.0, -7.0], [-0.2j, 0.35j])
    assert br.total == br.drift_term + br.variance_term + br.cross_term + br.barnes_term


def test_single_point_reduction():
    x, b = -5.0, -0.31j
    assert abs(asym.log_E_asym([x], [b]).total - asym.log_E_m1(x, b)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_of_theorem_forms(data):
    m = data.draw(st.integers(1, 4))
    gaps = data.draw(st.lists(st.floats(0.4, 8.0), min_size=m, max_size=m))
    start = data.draw(st.floats(-3.0, -0.3))
    x = []
    acc = start
    for g in gaps:
        x.append(acc)
        acc -= g
    b = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=m, max_size=m))
    beta = [1j * v for v in b]
    explicit = asym.log_E_asym(x, beta).total
    product = asym.log_E_product_form(x, beta)
    assert abs(explicit - product) < 1e-12 * max(1.0, abs(explicit))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_equivalence_of_conditioned_forms(data):
    m = data.draw(st.integers(2, 4))
    gaps = data.draw(st.lists(st.floats(0.4, 8.0), min_size=m, max_size=m))
    start = data.draw(st.floats(-3.0, -0.3))
    x = []
    acc = start
    for g in gaps:
        x.append(acc)
        acc -= g
    b = data.draw(st.lists(st.floats(-0.5, 0.5), min_size=m - 1, max_size=m - 1))
    beta0 = [1j * v for v in b]
    explicit = asym.log_E0_asym(x, beta0).total
    product = asym.log_E0_product_form(x, beta0)
    assert abs(explicit - product) < 1e-12 * max(1.0, abs(explicit))


def test_conditioned_two_point_vanishing_parameter():
    assert asym.log_E0_asym([-1.0, -4.0], [0.0]).total == 0.0


_SEQUENCES = (tuple, list, np.array)


def _bits(values):
    assert all(type(v) is float for v in values)  # Python floats, not numpy scalars
    return [v.hex() for v in values]


@pytest.mark.parametrize("x, s", [((-2.5168,), (0.764,)), ((-3.3438, -5.56441758), (0.4651, 0.4953)),
                                  ((-2.1372, -3.75634272, -4.51034688), (0.1944, 0.0978, 0.1916))])
def test_expansions_give_the_same_bits_for_any_sequence(x, s):
    # thinned pool configurations: endpoints and betas as tuples, lists or arrays give
    # one set of bits, and so do the conditioned forms on (x_1 + 1, x) with s_1 = 0
    beta = asym.beta_from_s(s)
    y, beta0 = (x[0] + 1.0, *x), asym.beta_from_s((0.0, *s))
    got = [_bits([*vars(asym.log_E_asym(seq(x), seq(beta))).values(),
                  asym.log_E_product_form(seq(x), seq(beta)),
                  *vars(asym.log_E0_asym(seq(y), seq(beta0))).values(),
                  asym.log_E0_product_form(seq(y), seq(beta0))]) for seq in _SEQUENCES]
    assert got[0] == got[1] == got[2]
    one_point = [[float(asym.log_E_m1(point(v), number(b))).hex() for v, b in zip(x, beta)]
                 for point in (float, np.float64, np.array) for number in (complex, np.complex128)]
    assert all(bits == one_point[0] for bits in one_point)


@pytest.mark.parametrize("call, x, beta, error, message", [
    (asym.log_E_asym, (-1.0, -2.0), (0.1j,), ValueError,
     r"need m >= 1 and one beta per x_1, \.\.\., x_m"),
    (asym.log_E0_asym, (-1.0,), (), ValueError, r"need m >= 2 and one beta per x_2, \.\.\., x_m"),
    (asym.log_E_product_form, (-2.0, -1.0), (0.1j, 0.1j), ValueError,
     "endpoints must be strictly decreasing and finite"),
    (asym.log_E0_product_form, (-1.0, math.nan), (0.1j,), ValueError,
     "endpoints must be strictly decreasing and finite"),
    (asym.log_E_asym, (1.0,), (0.1j,), ValueError, r"x_1 must be finite and negative, got 1\.0"),
    (asym.log_E_asym, (-1.0,), (0.1,), ValueError,
     r"beta must be purely imaginary, got 0\.1$"),
    (asym.log_E0_asym, (-1.0, -2.0), (0.1,), ValueError,
     r"beta0 must be purely imaginary, got 0\.1$"),
    (asym.log_E_product_form, (-1.0, -2.0), (0.1j, 2.5j), DomainError,
     r"the Barnes G pair of beta = 2\.5i needs \|beta\| < 2"),
    (asym.log_E0_product_form, (-1.0, -2.0, -3.0), (2.5j, 0.1j), DomainError,
     r"the Barnes G pair of beta = 2\.5i needs \|beta\| < 2"),
])
def test_expansion_errors_are_the_same_for_any_sequence(call, x, beta, error, message):
    texts = []
    for seq in _SEQUENCES:
        with pytest.raises(error, match=f"^{message}") as info:
            call(seq(x), seq(beta))
        texts.append(str(info.value))
    assert texts[0] == texts[1] == texts[2]
    with pytest.raises(ValueError, match=r"^x must be finite and negative, got 1\.0$"):
        asym.log_E_m1(1.0, 0.1j)
    with pytest.raises(ValueError, match=r"^beta must be purely imaginary, got 0\.3$"):
        asym.log_E_m1(-1.0, 0.3)


def test_realness_enforced():
    with pytest.raises(ValueError, match="imaginary"):
        asym.log_E_asym([-1.0, -2.0], [0.1 + 0.1j, 0.2j])
    with pytest.raises(ValueError):
        asym.log_E_m1(-2.0, 0.3)
    # under its own name, not that of log_E0_product_form's beta0
    with pytest.raises(ValueError, match="^beta must be purely imaginary, got 0.3$"):
        asym.thinned_joint_tail_asym(-2.0, -4.0, 0.3)


def test_ordering_enforced():
    with pytest.raises(ValueError):
        asym.log_E_asym([-2.0, -1.0], [0.1j, 0.1j])
    with pytest.raises(ValueError):
        asym.log_E0_asym([-1.0], [])


NONFINITE = (math.nan, math.inf, -math.inf)


@pytest.mark.parametrize("bad", NONFINITE)
@pytest.mark.parametrize("call, message", [
    (lambda v: asym.log_E_asym([v], [0.1j]), "endpoints must"),
    (lambda v: asym.log_E_asym([-1.0, v], [0.1j, 0.1j]), "endpoints must"),
    (lambda v: asym.log_E0_asym([-1.0, v], [0.1j]), "endpoints must"),
    (lambda v: asym.log_E0_asym([v, -3.0], [0.1j]), "endpoints must"),
    (lambda v: asym.log_E_product_form([v], [0.1j]), "endpoints must"),
    (lambda v: asym.beta_from_s([0.5, v]), "weights must"),
    (asym.mu, "x must"), (asym.sigma2, "x must"), (asym.log_F_m1_s0, "x must"),
    (lambda v: asym.log_E_m1(v, 0.1j), "x must"),
    (asym.moment_asym, "x must"),
    # each names its own arguments, not those of the expansion it calls
    (lambda v: asym.mu0(v, -1.0), "0 > x1 > x,"),
    (lambda v: asym.sigma2_0(-3.0, v), "0 > x1 > x,"),
    (lambda v: asym.var_interval_asym(10.0, -1.0, v), "0 > tau1 > tau2,"),
    (lambda v: asym.thinned_joint_tail_asym(v, -2.0, 0.1j), "0 > x1 > x2,"),
    (lambda v: asym.thinned_joint_tail_asym(-2.0, -4.0, v), "^beta must be purely imaginary"),
], ids=["log_E_asym", "log_E_asym-x2", "log_E0_asym", "log_E0_asym-x1", "log_E_product_form",
        "beta_from_s", "mu", "sigma2", "log_F_m1_s0", "log_E_m1", "moment_asym",
        "mu0", "sigma2_0", "var_interval_asym", "thinned_joint_tail_asym",
        "thinned_joint_tail_asym-beta"])
def test_nonfinite_inputs_raise(call, message, bad):
    with pytest.raises(ValueError, match=message):
        call(bad)


def test_var_interval_asym_rejects_nan_scale():
    with pytest.raises(ValueError, match="r must be"):
        asym.var_interval_asym(math.nan, -1.0, -2.0)


def test_small_parameter_quadratic_scaling():
    # with the Barnes pair expanded to second order the exponent is an exact
    # quadratic in beta, so total(eps*beta)/eps^2 converges as eps -> 0
    x = [-2.0, -5.0]
    beta = [-0.4j, 0.3j]
    q = []
    for eps in (1e-1, 1e-2, 1e-3):
        total = asym.log_E_asym(x, [eps * b for b in beta]).total
        drift = asym.log_E_asym(x, [eps * b for b in beta]).drift_term
        q.append((total - drift) / eps ** 2)
    assert abs(q[1] - q[2]) < 1e-2 * abs(q[2])


# ---------------------------------------------------------------------------
# moments, interval variance, joint tail
# ---------------------------------------------------------------------------

def test_moment_asym_values():
    mean, var = asym.moment_asym(-0.25)
    assert var == (1.0 + EULER_GAMMA) / (2.0 * PI_SQ)
    mean, _ = asym.moment_asym(-1.0)
    assert abs(mean - 2.0 / (3.0 * math.pi)) < 1e-16


def test_moment_asym_vs_traces():
    mean_n = fr.mean_count([(-10.0, math.inf)])
    mean_a, var_a = asym.moment_asym(-10.0)
    assert abs(mean_n - mean_a) < 0.02
    assert abs(fr.var_count([(-10.0, math.inf)]) - var_a) < 0.05


def test_var_interval_identity():
    r, t1, t2 = 7.3, -0.8, -2.6
    direct = asym.var_interval_asym(r, t1, t2)
    _, v1 = asym.moment_asym(r * t1)
    _, v2 = asym.moment_asym(r * t2)
    combined = v1 + v2 - 2.0 * asym.sigma_cov(t1, t2)
    assert abs(direct - combined) < 1e-12


def test_var_interval_r_shift():
    r, t1, t2 = 5.0, -1.0, -2.0
    shift = asym.var_interval_asym(2 * r, t1, t2) - asym.var_interval_asym(r, t1, t2)
    assert abs(shift - 1.5 / PI_SQ * math.log(2.0)) < 1e-15


def test_var_interval_vs_trace():
    num = fr.var_count([(-20.0, -10.0)])
    assert abs(num - asym.var_interval_asym(10.0, -1.0, -2.0)) < 0.05


def test_joint_tail_zero_parameter():
    assert asym.thinned_joint_tail_asym(-2.0, -5.0, 0.0) == asym.log_F_m1_s0(-2.0)


def test_joint_tail_matches_conditioned_expansion():
    x1, x2, b = -2.0, -5.5, -0.27j
    lhs = asym.thinned_joint_tail_asym(x1, x2, b)
    rhs = asym.log_F_m1_s0(x1) + asym.log_E0_asym([x1, x2], [b]).total
    assert abs(lhs - rhs) < 1e-12


def test_joint_tail_vs_determinant():
    x1, x2, b = -8.0, -16.0, -0.2j
    s2 = float(np.exp(2 * np.pi * b.imag))
    num = fr.log_det(fr.GapConfig((x1, x2), (0.0, s2))).log_f
    assert abs(num - asym.thinned_joint_tail_asym(x1, x2, b)) < 0.05


def test_gap_envelope_decays_with_r():
    # the defect between determinant and expansion carries an oscillatory
    # subleading factor, so only its envelope decays; see the module docstring
    # of tests/test_acceptance.py for the measured sequences and dense scans
    # that rule out strict monotonicity
    tau = (-1.0, -2.0)
    beta = (-0.2j, -0.2j)
    s = asym.s_from_beta(beta)
    gaps = []
    for r in (4.0, 6.0, 8.0, 10.0):
        x = tuple(r * t for t in tau)
        numeric = fr.log_E(fr.GapConfig(x, s))
        gaps.append(abs(numeric - asym.log_E_asym(x, beta).total))
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 0.05
    scaled = [g * r ** 1.5 / math.log(r) for g, r in zip(gaps, (4.0, 6.0, 8.0, 10.0))]
    assert max(scaled) < 0.25


def test_product_form_vanishing_second_parameter():
    x = [-2.0, -6.0]
    value = asym.log_E_product_form(x, [-0.3j, 0.0])
    assert abs(value - asym.log_E_m1(-2.0, -0.3j)) < 1e-14
