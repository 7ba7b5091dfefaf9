"""Special-function layer: Gauss-Legendre rules, Airy functions, the complex
gamma family, Barnes G, modified Bessel / Hankel pairs, and Whittaker
functions at mu = 0.

Everything here is double precision except the real-axis Airy evaluator
`airy_real` (x >= -100).  It computes in 80-bit floats and rounds once to the dtype of
its argument, so double nodes get values within an ulp and the deep-gap
determinants, which push eigenvalues of the discretized operator within
~1e-12 of 1 where double-rounded kernel entries are not accurate enough, get
80-bit values from the same code.  scipy serves the complex arguments;
`scipy.special` is imported inside those functions on their first call, so
importing this module and every real-axis path stay scipy-free.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._constants import EULER_GAMMA, LOG_2PI, zeta_minus_one


class DomainError(ValueError):
    """Argument outside the supported evaluation region."""


class PoleError(ValueError):
    """Evaluation at a pole."""


class SingularityError(ValueError):
    """Evaluation at a non-pole singularity (branch point, log blow-up)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, fit, conditioning)."""


def _is_imaginary(z: complex) -> bool:
    """Whether z is finite and purely imaginary up to rounding: |Re z| <= 1e-12 max(1, |Im z|)."""
    return math.isfinite(z.imag) and abs(z.real) <= 1e-12 * max(1.0, abs(z.imag))


# ---------------------------------------------------------------------------
# Gauss-Legendre rules
# ---------------------------------------------------------------------------

MAX_RULE_ORDER = 4096


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Gauss-Legendre rule on (-1, 1): strictly increasing nodes, positive
    weights summing to 2, symmetric under node negation."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def mapped(self, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights transplanted to the interval (a, b)."""
        half = 0.5 * (b - a)
        return half * self.nodes + 0.5 * (a + b), half * self.weights


def _legendre_with_derivative(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    dp = n * (x * p - p_prev) / (x * x - 1.0)
    return p, dp


def gauss_legendre_rule(n: int, dtype=np.float64) -> QuadRule:
    """n-point Gauss-Legendre rule via Newton iteration on P_n.

    Newton starts from the Tricomi estimate cos(pi (k + 3/4)/(n + 1/2)) and
    is run to ~10 ulp in the requested dtype, so the same code serves the
    float128 determinant path.  Rules are cached per (n, dtype) and their
    arrays are read-only.
    """
    if not isinstance(n, (int, np.integer)) or not 1 <= n <= MAX_RULE_ORDER:
        raise ValueError(f"rule order must be an integer in [1, {MAX_RULE_ORDER}], got {n!r}")
    return _gauss_legendre_rule(int(n), np.dtype(dtype))


@functools.lru_cache(maxsize=64)
def _gauss_legendre_rule(n: int, dtype: np.dtype) -> QuadRule:
    k = np.arange(n, dtype=dtype)
    x = np.cos(np.pi * (k + 0.75) / (n + 0.5))
    tol = 10 * np.finfo(dtype).eps
    for _ in range(100):
        p, dp = _legendre_with_derivative(n, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < tol:
            break
    else:  # pragma: no cover - Newton converges in < 10 sweeps
        raise RuntimeError("Gauss-Legendre Newton iteration failed to converge")
    _, dp = _legendre_with_derivative(n, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = x[::-1], w[::-1]
    # enforce the exact antisymmetry the analytic rule has
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = False  # shared by every caller of the cache
    w.flags.writeable = False
    return QuadRule(n, x, w)


# ---------------------------------------------------------------------------
# Airy functions
# ---------------------------------------------------------------------------

AIRY_MAX_ABS = 60.0


def airy_ai(z):
    """Airy function pair (Ai(z), Ai'(z)) for complex z, |z| <= 60.

    Accepts scalars or arrays; scalars come back as python complex.
    """
    from scipy import special

    zc = np.asarray(z, dtype=complex)
    if np.any(np.abs(zc) > AIRY_MAX_ABS):
        raise DomainError(f"airy_ai supports |z| <= {AIRY_MAX_ABS}")
    ai, aip, _, _ = special.airy(zc)
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(ai), complex(aip)
    return ai, aip


# --- real-axis evaluator, computed in 80-bit floats ------------------------

_LD = np.longdouble
_ASYM_ANCHOR = 12.0
_MARCH_STEP = 0.25
_MARCH_ORDER = 30
#: terms of the large-argument series: the last is its smallest term at
#: t = 12 (5e-26 relative), and every term is smaller further out
_ASYM_TERMS = 56
#: (-1)^k u_k and (-1)^k v_k, k >= 1, of the series for Ai and Ai' (DLMF 9.7.5-6)
_ASYM_U = np.cumprod([_LD(-(6 * k - 5) * (6 * k - 3) * (6 * k - 1)) / _LD((2 * k - 1) * 216 * k)
                      for k in range(1, _ASYM_TERMS + 1)])
_ASYM_V = _ASYM_U * [_LD(6 * k + 1) / _LD(1 - 6 * k) for k in range(1, _ASYM_TERMS + 1)]
#: (k + 1)(k + 2) of the Taylor recurrence of y'' = x y, as 80-bit scalars
_RECURRENCE_LD = [_LD((k + 1) * (k + 2)) for k in range(_MARCH_ORDER - 1)]
#: lowest argument of `airy_real`: the march is checked against mpmath down
#: to here (3.2e-17 relative), and below it the truncation error of the fixed
#: step grows fast (5e-15 at -200, 2e-11 at -300)
AIRY_REAL_MIN = -100.0


def _airy_asymptotic_ld(t):
    """(Ai, Ai') at real t >= 12 from the large-argument expansion, float128."""
    t = np.asarray(t, dtype=_LD)
    zeta = _LD(2.0) / _LD(3.0) * t ** _LD(1.5)
    powers = np.cumprod(np.broadcast_to(1 / zeta[..., None], zeta.shape + _ASYM_U.shape), axis=-1)
    su = 1 + powers @ _ASYM_U
    sv = 1 + powers @ _ASYM_V
    pref = np.exp(-zeta) / (_LD(2.0) * np.sqrt(_LD(np.pi)))
    ai = pref * su / t ** _LD(0.25)
    aip = -pref * sv * t ** _LD(0.25)
    return ai, aip


def _taylor_sum(a, h):
    """(Ai, Ai') at x0 + h from the Taylor coefficients a about x0, by Horner's rule."""
    y = a[_MARCH_ORDER]
    yp = y * _MARCH_ORDER
    for k in range(_MARCH_ORDER - 1, 0, -1):
        y = y * h + a[k]
        yp = yp * h + a[k] * k
    return y * h + a[0], yp


@functools.lru_cache(maxsize=None)
def _anchor(j: int) -> np.ndarray:
    """Taylor coefficients a_0..a_30 of Ai about the anchor 12 - j/4, in 80-bit.

    Anchor 0 comes from the large-argument series and anchor j from one
    Taylor step of length 1/4 off anchor j - 1, so a value never depends on
    how deep the table has been built.  Marching leftward is the
    well-conditioned direction (the recessive solution grows relative to the
    dominant one).
    """
    x0 = _LD(_ASYM_ANCHOR - _MARCH_STEP * j)
    if j == 0:
        y, yp = _airy_asymptotic_ld(x0)
    else:
        y, yp = _taylor_sum(_anchor(j - 1), _LD(-_MARCH_STEP))
    a = [y, yp, x0 * y / _RECURRENCE_LD[0]]
    for k in range(1, _MARCH_ORDER - 1):
        a.append((x0 * a[k] + a[k - 1]) / _RECURRENCE_LD[k])
    a = np.array(a)
    a.flags.writeable = False  # shared by every caller of the cache
    return a


def airy_real(x):
    """(Ai(x), Ai'(x)) for real x >= -100, in the dtype of x (at least double).

    Computed in 80-bit floats and rounded once: points at or above 12 by the
    large-argument series, every other point by one Taylor step (|h| <= 1/8)
    off its nearest anchor 12 - j/4.  The anchors are cached as deep as the
    lowest point has needed so far.
    """
    x = np.asarray(x)
    dtype = np.promote_types(x.dtype, np.float64)
    t = x.astype(_LD)
    if not np.all(np.isfinite(t)):
        raise DomainError("airy_real needs finite arguments")
    if np.any(t < AIRY_REAL_MIN):
        raise DomainError(f"airy_real supports x >= {AIRY_REAL_MIN}, got {t.min()}")
    ai = np.empty_like(t)
    aip = np.empty_like(t)
    far = t >= _ASYM_ANCHOR
    ai[far], aip[far] = _airy_asymptotic_ld(t[far])
    near = t[~far]
    if near.size:
        j = np.rint((_ASYM_ANCHOR - near) / _MARCH_STEP).astype(np.intp)
        used, slot = np.unique(j, return_inverse=True)
        table = np.stack([_anchor(i) for i in used], axis=1)
        ai[~far], aip[~far] = _taylor_sum(table[:, slot], near - (_ASYM_ANCHOR - _MARCH_STEP * j))
    return ai.astype(dtype, copy=False)[()], aip.astype(dtype, copy=False)[()]


def airy_ai_real_xp(x):
    """(Ai, Ai') on the real axis in extended precision (float128 arrays)."""
    return airy_real(np.asarray(x, dtype=_LD))


# ---------------------------------------------------------------------------
# Gamma family
# ---------------------------------------------------------------------------

def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == round(z.real)


def log_gamma(z) -> complex:
    """Principal branch of log Gamma(z)."""
    from scipy import special

    zc = complex(z)
    if _is_nonpositive_integer(zc):
        raise PoleError(f"log_gamma pole at z = {zc}")
    return complex(special.loggamma(zc))


def digamma(z) -> complex:
    """Digamma psi(z) = Gamma'(z)/Gamma(z)."""
    from scipy import special

    zc = complex(z)
    if _is_nonpositive_integer(zc):
        raise PoleError(f"digamma pole at z = {zc}")
    return complex(special.digamma(zc))


def log_barnes_g(z) -> complex:
    """log G(z) for the Barnes G-function, Re z > 0 and |z - 1| <= 2.

    G satisfies G(z+1) = Gamma(z) G(z) with G(1) = 1.  The recurrence pulls
    Re z into [0.5, 1.5); the remaining offset w = z - 1 goes through the
    Taylor expansion of log G(1+w), written with zeta(k)-1 so the log(1+w)
    part is resummed exactly and the series converges for |w| < 2.
    """
    zc = complex(z)
    if not (zc.real > 0.0 and abs(zc - 1.0) <= 2.0):
        raise DomainError(f"log_barnes_g supports Re z > 0 and |z - 1| <= 2, got {zc}")
    shift = 0.0 + 0.0j
    while zc.real >= 1.5:
        zc -= 1.0
        shift += log_gamma(zc)
    while zc.real < 0.5:
        shift -= log_gamma(zc)
        zc += 1.0
    w = zc - 1.0
    if abs(w) < 1e-300:
        return shift
    gsum = (0.5 * LOG_2PI - 0.5) * w - 0.5 * (1.0 + EULER_GAMMA) * w * w \
        + np.log1p(w) - w + 0.5 * w * w
    # sum_{n>=3} (-1)^(n-1) (zeta(n-1) - 1) w^n / n, iterated as (w/2)^n to
    # stay in range even close to |w| = 2
    q = 0.5 * w
    qn = q * q  # q^2, loop starts at n = 3
    total = 0.0 + 0.0j
    for n in range(3, 2000):
        qn *= q
        c = zeta_minus_one(n - 1) * 2.0 ** n
        term = (-1.0) ** (n - 1) * c * qn / n
        total += term
        if abs(term) < 1e-19 * (1.0 + abs(total)):
            break
    else:
        raise DomainError(f"Barnes G series did not converge for z = {z} (|z-1| too close to 2)")
    return shift + gsum + total


# ---------------------------------------------------------------------------
# Bessel family
# ---------------------------------------------------------------------------

BESSEL_MAX_ABS = 80.0


def bessel_modified_I0K0(z):
    """(I0, K0, I0', K0') at complex z with |arg z| < pi, |z| <= 80."""
    from scipy import special

    zc = complex(z)
    if zc == 0 or (zc.real < 0 and zc.imag == 0):
        raise DomainError("bessel_modified_I0K0 requires |arg z| < pi")
    if abs(zc) > BESSEL_MAX_ABS:
        raise DomainError(f"bessel_modified_I0K0 supports |z| <= {BESSEL_MAX_ABS}")
    i0 = complex(special.iv(0, zc))
    k0 = complex(special.kv(0, zc))
    i0p = complex(special.iv(1, zc))
    k0p = -complex(special.kv(1, zc))
    return i0, k0, i0p, k0p


def hankel_H0(z, kind: int):
    """(H0, H0') for the Hankel function of the given kind (1 or 2)."""
    from scipy import special

    zc = complex(z)
    if zc == 0:
        raise SingularityError("hankel_H0 is singular at z = 0")
    if abs(zc) > BESSEL_MAX_ABS:
        raise DomainError(f"hankel_H0 supports |z| <= {BESSEL_MAX_ABS}")
    if kind == 1:
        return complex(special.hankel1(0, zc)), -complex(special.hankel1(1, zc))
    if kind == 2:
        return complex(special.hankel2(0, zc)), -complex(special.hankel2(1, zc))
    raise ValueError(f"kind must be 1 or 2, got {kind!r}")


# ---------------------------------------------------------------------------
# Kummer / Whittaker functions (mu = 0, i.e. the logarithmic b = 1 case)
# ---------------------------------------------------------------------------

WHITTAKER_MAX_ABS = 60.0
_KUMMER_MAX_TERMS = 600


def kummer_m_b1(a, z) -> complex:
    """Confluent hypergeometric M(a, 1, z) by its ascending series."""
    a = complex(a)
    z = complex(z)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    for k in range(_KUMMER_MAX_TERMS):
        term *= (a + k) * z / ((k + 1) * (k + 1))
        total += term
        if abs(term) < 1e-18 * (1.0 + abs(total)):
            return total
    raise DomainError(f"Kummer M series did not converge for |z| = {abs(z):.3g}")


def kummer_u_b1(a, z, log_z) -> complex:
    """Second Kummer solution U(a, 1, z), logarithmic case, by its ascending series.

    U(a,1,z) = -(1/Gamma(a)) sum_k (a)_k/(k!)^2 z^k [log z + psi(a+k) - 2 psi(k+1)].

    `log_z` selects the branch; passing log|z| + i*theta with theta outside
    (-pi, pi] evaluates the analytic continuation (the series apart from the
    explicit logarithm is entire).  The k = 0 term is rewritten through
    a*psi(a) = a*psi(1+a) - 1 so a -> 0 is a smooth limit with U(0,1,z) = 1.
    """
    from scipy import special

    a = complex(a)
    z = complex(z)
    inv_gamma_1pa = complex(special.rgamma(1.0 + a))  # 1/Gamma(1+a), entire
    pref = -a * inv_gamma_1pa                         # -1/Gamma(a)
    psi1 = complex(special.digamma(1.0 + a)) if not _is_nonpositive_integer(1.0 + a) else 0.0
    # k = 0 term, pole of psi(a) cancelled analytically
    total = pref * (log_z + psi1 + 2.0 * EULER_GAMMA) + inv_gamma_1pa
    poch = 1.0 + 0.0j
    zk = 1.0 + 0.0j
    for k in range(_KUMMER_MAX_TERMS):
        poch *= a + k
        zk *= z / ((k + 1) * (k + 1))
        coeff = poch * zk
        term = pref * coeff * (log_z + complex(special.digamma(a + k + 1.0)) - 2.0 * complex(special.digamma(k + 2.0)))
        total += term
        if abs(coeff) * (abs(log_z) + 10.0) < 1e-18 * (1.0 + abs(total)):
            return total
    raise DomainError(f"Kummer U series did not converge for |z| = {abs(z):.3g}")


def kummer_m_b1_asym(a, z) -> complex:
    """M(a, 1, z) for large |z| via the exact U-connection.

    M is entire, so no branch bookkeeping: with sigma = sign(Im z),
    M(a,1,z) = e^(sigma a pi i) U(a,1,z)/Gamma(1-a)
             + e^(sigma (a-1) pi i) e^z U(1-a,1,-z)/Gamma(a),
    both U on principal branches by their large-argument series.  Needed
    because the ascending series cancels like e^|z| once Re z < 0 and
    |(a)_k| grows like k!.
    """
    from scipy import special

    a = complex(a)
    z = complex(z)
    sigma = 1.0 if z.imag >= 0.0 else -1.0
    u1 = kummer_u_b1_asym(a, z, complex(np.log(z)))
    u2 = kummer_u_b1_asym(1.0 - a, -z, complex(np.log(-z)))
    return (np.exp(1j * np.pi * sigma * a) * complex(special.rgamma(1.0 - a)) * u1
            + np.exp(1j * np.pi * sigma * (a - 1.0) + z) * complex(special.rgamma(a)) * u2)


def kummer_u_b1_asym(a, z, log_z) -> complex:
    """U(a, 1, z) by the large-argument expansion z^(-a) sum (a)_k^2 / (k! (-z)^k).

    Truncated at the smallest term, so the error is ~e^(-|z|); `log_z`
    selects the branch of z^(-a).
    """
    a = complex(a)
    z = complex(z)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    prev = 1.0
    for k in range(400):
        term *= -(a + k) * (a + k) / ((k + 1) * z)
        if abs(term) >= prev:
            break
        prev = abs(term)
        total += term
        if prev < 1e-18 * abs(total):
            break
    return np.exp(-a * log_z) * total


#: the ascending series lose about e^(|z| - max(Re z, 0)) (M) and e^|z| (U)
#: of their accuracy to cancellation; they run while that exponent is below
#: this, and the large-|z| routes beyond it
_KUMMER_SERIES_MAX_LOSS = 19.0


def kummer_m(a, z) -> complex:
    """M(a, 1, z) by the ascending series or, past its cancellation limit, the U connection."""
    z = complex(z)
    if abs(z) - max(z.real, 0.0) < _KUMMER_SERIES_MAX_LOSS:
        return kummer_m_b1(a, z)
    return kummer_m_b1_asym(a, z)


def kummer_u(a, z, log_z=None) -> complex:
    """U(a, 1, z) on the branch of `log_z`, the principal one (z off (-inf, 0]) by default."""
    z = complex(z)
    if log_z is None:
        if z == 0 or (z.real < 0 and z.imag == 0):
            raise DomainError("kummer_u principal branch requires z off (-inf, 0]")
        log_z = complex(np.log(z))
    if abs(z) < _KUMMER_SERIES_MAX_LOSS:
        return kummer_u_b1(a, z, log_z)
    return kummer_u_b1_asym(a, z, log_z)


def whittaker_pair_mu0(kappa, z):
    """Whittaker pair (M_{kappa,0}(z), W_{kappa,0}(z)) on the principal branch.

    Both are e^(-z/2) sqrt(z) times M(a,1,z) resp. U(a,1,z) with a = 1/2 - kappa.
    """
    zc = complex(z)
    if abs(zc) > WHITTAKER_MAX_ABS:
        raise DomainError(f"whittaker_pair_mu0 supports |z| <= {WHITTAKER_MAX_ABS}")
    a = 0.5 - complex(kappa)
    u_val = kummer_u(a, zc)  # raises on the branch cut (-inf, 0]
    pref = np.exp(-0.5 * zc) * np.sqrt(zc)
    return pref * kummer_m(a, zc), pref * u_val
