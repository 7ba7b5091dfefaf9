"""Closed-form large-gap expansions for the Airy-kernel determinants.

All jump parameters beta are purely imaginary; writing beta = i*b with real b
makes every term manifestly real, which is how the formulas are evaluated
here.  The two equivalent statements of each expansion (product of one-point
factors versus fully explicit exponent) are implemented separately so their
algebraic identity is a meaningful cross-check.  The argument check turns the
endpoints and the imaginary parts of beta into Python floats, so the expansions
are evaluated in Python float arithmetic, with no numpy scalars and no array
conversions, and every sum adds its terms one by one, left to right (_sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._constants import EULER_GAMMA, PI_SQ, TWO_PI, ZETA_PRIME_MINUS_ONE
from .specfun import (DomainError, SingularityError, _barnes_coefficients, _is_imaginary,
                      check_endpoints, check_negative, check_negative_pair, check_weights)

LOG2 = math.log(2.0)


def _imag_part(beta, name: str = "beta") -> float:
    """Validate a purely imaginary jump parameter and return its imaginary part."""
    b = complex(beta)
    if not _is_imaginary(b):
        raise ValueError(f"{name} must be purely imaginary, got {beta!r}")
    return b.imag


def _imag_vector(betas, name: str = "beta") -> list[float]:
    return [_imag_part(v, name) for v in np.array(betas, ndmin=1).tolist()]


def _sum(terms) -> float:
    """terms added one by one, left to right, to 0.0: the same rounding on every Python,
    where sum() compensates the rounding of a sum of floats from Python 3.12 on."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _expansion_args(x, beta, conditioned: bool = False) -> tuple[list[float], list[float]]:
    """Negative endpoints x_1 > ... > x_m and the imaginary parts of beta, as Python floats.

    A conditioned expansion needs m >= 2 and takes beta_2, ..., beta_m.
    """
    xs = np.array(x, dtype=float, ndmin=1).tolist()
    check_endpoints(xs)
    bs = _imag_vector(beta, "beta0" if conditioned else "beta")
    if len(xs) <= conditioned or len(bs) != len(xs) - conditioned:
        raise ValueError(f"need m >= {1 + conditioned} and one beta per x_{1 + conditioned}, ..., x_m")
    check_negative(xs[0], "x_1")
    return xs, bs


# ---------------------------------------------------------------------------
# parameter maps
# ---------------------------------------------------------------------------

def beta_from_s(s) -> tuple[complex, ...]:
    """Jump parameters from thinning weights.

    beta_j = i log(s_j / s_{j+1}) / (2 pi) with s_{m+1} = 1.  If s_1 = 0 the
    first parameter is undefined and the returned tuple holds beta_2..beta_m.
    """
    values = np.array(s, ndmin=1)
    if values.dtype.kind not in "biuf":
        raise ValueError(f"weights s must be real numbers, got {s!r}")
    svals = values.tolist()
    if not svals:
        raise ValueError(f"need m >= 1 weights s, got {s!r}")
    check_weights(svals)
    ext = svals + [1.0]
    start = 1 if svals[0] == 0.0 else 0
    return tuple(1j * math.log(ext[j] / ext[j + 1]) / TWO_PI
                 for j in range(start, len(svals)))


def s_from_beta(beta) -> tuple[float, ...]:
    """Thinning weights from jump parameters; inverse of beta_from_s where s_1 > 0."""
    bs = _imag_vector(beta)
    out = []
    acc = 0.0
    for b in bs[::-1]:
        acc += TWO_PI * b  # log s_j = log s_{j+1} + log ratio; ratio = e^{2 pi b}
        out.append(math.exp(acc))
    out.reverse()
    if any(v > 1.0 + 1e-12 for v in out):
        raise ValueError("beta vector corresponds to weights above 1")
    return tuple(min(v, 1.0) for v in out)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

def mu(x: float) -> float:
    """Leading counting-function mean (2/(3 pi)) |x|^(3/2), x < 0."""
    check_negative(x)
    return 2.0 / (3.0 * math.pi) * abs(x) ** 1.5


def sigma2(x: float) -> float:
    """Counting-function variance slope (3/(4 pi^2)) log|4x|, x < 0."""
    check_negative(x)
    return 3.0 / (4.0 * PI_SQ) * math.log(abs(4.0 * x))


def sigma_cov(tau_k: float, tau_j: float) -> float:
    """Limiting covariance of half-line counts at scaled endpoints.

    (1/(2 pi^2)) log[(sqrt|tau_k| + sqrt|tau_j|)^2 / (tau_k - tau_j)] for
    finite 0 > tau_k > tau_j; scale-invariant, logarithmically divergent at
    coinciding arguments.
    """
    check_negative_pair(tau_k, tau_j, "tau_k", "tau_j")
    if tau_k - tau_j < 1e-12:
        raise SingularityError("covariance diverges logarithmically as tau_k -> tau_j")
    num = (math.sqrt(abs(tau_k)) + math.sqrt(abs(tau_j))) ** 2
    return math.log(num / (tau_k - tau_j)) / (2.0 * PI_SQ)


def barnes_pair(beta) -> float:
    """log[G(1 + beta) G(1 - beta)] for purely imaginary beta = i b, a real number.

    It is 2 Re log G(1 + i b): specfun.log_barnes_g's resummed Taylor series at
    w = i b without its odd powers of w, which are imaginary, and with
    Re log1p(i b) = log1p(b^2) / 2,

        gamma_E b^2 + log1p(b^2) - sum_{k>=2} (-1)^k (zeta(2k-1) - 1) b^(2k) / k,

    summed in real arithmetic in powers of -b^2/4 with log_barnes_g's
    coefficients, 1e-19 stop and 2000-term cap (k < 1000).  Within 3e-16
    relative of mpmath for b in [1e-3, 0.9], also as b -> 0, where the complex
    log1p(i b) of log_barnes_g loses 7e-11 relative at b = 1e-3.  The series
    converges for |b| < 2, that is every weight ratio s_j / s_(j+1) (with
    s_(m+1) = 1) within e^(-4 pi) ... e^(4 pi), and the cap reaches |b| = 1.963;
    beyond either, DomainError naming beta.
    """
    b = _imag_part(beta)
    q = -0.25 * b * b  # (w/2)^2; from |b| = 2 on, no term is small
    qk = q  # q^k, loop starts at k = 2
    total = 0.0
    for k, c in zip(range(2, 1000), islice(_barnes_coefficients(), 1, None, 2)):
        qk *= q
        term = c * qk / k
        total += term
        if abs(term) < 1e-19 * (1.0 + abs(total)):
            break
    else:
        raise DomainError(f"the Barnes G pair of beta = {b!r}i needs |beta| < 2, that is "
                          "s_j/s_(j+1) within e^(-4 pi) ... e^(4 pi) (s_(m+1) = 1), and its "
                          "series converges within 2000 terms only up to |beta| = 1.96")
    return EULER_GAMMA * b * b + math.log1p(b * b) + total


# ---------------------------------------------------------------------------
# one-point tails
# ---------------------------------------------------------------------------

def log_F_m1_s0(x: float) -> float:
    """Tail of the hard gap log F(x; 0) = log2/24 + zeta'(-1) - log|x|/8 - |x|^3/12."""
    check_negative(x)
    ax = abs(x)
    return LOG2 / 24.0 + ZETA_PRIME_MINUS_ONE - math.log(ax) / 8.0 - ax ** 3 / 12.0


def log_E_m1(x: float, beta) -> float:
    """Thinned one-point tail.

    log[G(1+beta)G(1-beta)] - (3/2) beta^2 log|4x| - (4 i beta / 3) |x|^(3/2),
    real-valued for beta in i R; |beta| < 2 (barnes_pair), else DomainError.
    """
    check_negative(x)
    b = _imag_part(beta)
    return (barnes_pair(beta)
            + 1.5 * b * b * math.log(abs(4.0 * x))
            + (4.0 / 3.0) * b * abs(x) ** 1.5)


# ---------------------------------------------------------------------------
# multi-point expansions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AsymptoticBreakdown:
    """Additive pieces of an expansion, kept separate for inspection.

    total is always the exact sum of the other fields; every piece is real
    because the jump parameters are purely imaginary.
    """

    drift_term: float
    variance_term: float
    cross_term: float
    barnes_term: float

    @property
    def total(self) -> float:
        return self.drift_term + self.variance_term + self.cross_term + self.barnes_term


def _pair_term(bs, xs) -> float:
    """Pair prefactor -4 pi^2 sum_{k<j} beta_j beta_k Sigma(x_k, x_j), with beta = i b."""
    return 4.0 * PI_SQ * _sum(bs[k] * bs[j] * sigma_cov(xs[k], xs[j])
                              for k in range(len(xs)) for j in range(k + 1, len(xs)))


def _breakdown(bs, mus, sigma2s, pair_points) -> AsymptoticBreakdown:
    """Drift -2 pi i sum beta_j mu_j, variance -2 pi^2 sum beta_j^2 sigma2_j,
    the pair prefactor at pair_points and the Barnes G pair terms."""
    drift = TWO_PI * _sum(b * m for b, m in zip(bs, mus))
    variance = 2.0 * PI_SQ * _sum(b * b * v for b, v in zip(bs, sigma2s))
    barnes = _sum(barnes_pair(1j * b) for b in bs)
    return AsymptoticBreakdown(drift, variance, _pair_term(bs, pair_points), barnes)


def log_E_asym(x, beta) -> AsymptoticBreakdown:
    """Explicit multi-point expansion of log E(x; beta).

    Drift: -2 pi i sum beta_j mu(x_j); variance: -2 pi^2 sum beta_j^2
    sigma2(x_j); cross: -4 pi^2 sum_{k<j} beta_j beta_k Sigma(x_k, x_j)
    (evaluated at the endpoints directly, using scale invariance); plus the
    Barnes G pair terms, which need every |beta_j| < 2, that is every ratio
    s_j / s_(j+1) within e^(-4 pi) ... e^(4 pi) (barnes_pair), else DomainError.
    """
    xs, bs = _expansion_args(x, beta)
    return _breakdown(bs, [mu(v) for v in xs], [sigma2(v) for v in xs], xs)


def log_E_product_form(x, beta) -> float:
    """Product-of-one-point-tails statement of the same expansion.

    sum_j log E(x_j; beta_j) plus the pair prefactor
    -4 pi^2 sum_{k<j} beta_j beta_k Sigma(x_k, x_j); agrees with
    log_E_asym(...).total to rounding, which the tests pin at 1e-12.
    """
    xs, bs = _expansion_args(x, beta)
    one_point = _sum(log_E_m1(v, 1j * b) for v, b in zip(xs, bs))
    return one_point + _pair_term(bs, xs)


def mu0(x: float, x1: float) -> float:
    """Conditioned drift mu(x - x1) + (|x1|/pi) |x1 - x|^(1/2), for finite x1 < 0, x < x1."""
    check_negative_pair(x1, x, "x1", "x")
    return mu(x - x1) + abs(x1) / math.pi * math.sqrt(x1 - x)


def sigma2_0(x: float, x1: float) -> float:
    """Conditioned variance sigma2(x - x1) - (1/(2 pi^2)) log[2(x1-x)/(x1-2x)], finite x1 < 0, x < x1."""
    check_negative_pair(x1, x, "x1", "x")
    return sigma2(x - x1) - math.log(2.0 * (x1 - x) / (x1 - 2.0 * x)) / (2.0 * PI_SQ)


def log_E0_asym(x, beta0) -> AsymptoticBreakdown:
    """Explicit expansion of the conditioned functional log E0(x; beta_2..m).

    Same structure as log_E_asym with the shifted ingredients mu0, sigma2_0
    and Sigma0(tau_k, tau_j) = Sigma(tau_k - tau_1, tau_j - tau_1).
    """
    xs, bs = _expansion_args(x, beta0, conditioned=True)
    x1, rest = xs[0], xs[1:]
    return _breakdown(bs, [mu0(v, x1) for v in rest], [sigma2_0(v, x1) for v in rest],
                      [v - x1 for v in rest])


def log_E0_product_form(x, beta0) -> float:
    """Conditioned expansion through the shifted unconditioned one:

    log E(y; beta0) with y_j = x_j - x_1, plus per-point factors
    beta_j^2 log[2(x1-x_j)/(x1-2x_j)] - 2 i beta_j |x1| |x1-x_j|^(1/2).
    """
    xs, bs = _expansion_args(x, beta0, conditioned=True)
    x1, rest = xs[0], xs[1:]
    shifted = log_E_asym([v - x1 for v in rest], [1j * b for b in bs]).total
    extra = _sum(-b * b * math.log(2.0 * (x1 - v) / (x1 - 2.0 * v))
                 + 2.0 * b * abs(x1) * math.sqrt(x1 - v)
                 for b, v in zip(bs, rest))
    return shifted + extra


# ---------------------------------------------------------------------------
# moments, interval variance, joint tail
# ---------------------------------------------------------------------------

def moment_asym(x: float) -> tuple[float, float]:
    """(mean, variance) of the count on (x, inf) as x -> -inf.

    mean = mu(x); variance = sigma2(x) + (1 + gamma_E)/(2 pi^2).
    """
    return mu(x), sigma2(x) + (1.0 + EULER_GAMMA) / (2.0 * PI_SQ)


def var_interval_asym(r: float, tau1: float, tau2: float) -> float:
    """Variance of the count on (r tau2, r tau1), finite tau1 < 0, tau2 < tau1, r > 0.

    (3/(2 pi^2)) log r + (3/(4 pi^2)) log|16 tau1 tau2|
    + (1 + gamma_E)/pi^2 - 2 Sigma(tau1, tau2).
    """
    if not 0.0 < r < math.inf:
        raise ValueError("r must be finite and positive")
    check_negative_pair(tau1, tau2, "tau1", "tau2")
    return (1.5 / PI_SQ * math.log(r)
            + 0.75 / PI_SQ * math.log(abs(16.0 * tau1 * tau2))
            + (1.0 + EULER_GAMMA) / PI_SQ
            - 2.0 * sigma_cov(tau1, tau2))


def thinned_joint_tail_asym(x1: float, x2: float, beta) -> float:
    """log P(largest thinned particle < x2, largest < x1), finite x1 < 0, x2 < x1.

    log F(x1; 0) + log E0((x1, x2); beta), the conditioned expansion in product form.
    """
    check_negative_pair(x1, x2, "x1", "x2")
    _imag_part(beta)
    return log_F_m1_s0(x1) + log_E0_product_form((x1, x2), (beta,))
