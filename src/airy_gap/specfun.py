"""Special-function layer: Gauss-Legendre rules, Airy functions, the complex
gamma family, Barnes G, modified Bessel / Hankel pairs, and Whittaker
functions at mu = 0.

Everything here is double precision except the real-axis Airy evaluator
`airy_real` (x >= -100).  Its one Taylor step reads coefficient rows built in
80-bit floats.  80-bit nodes sum the 80-bit rows, ~3e-17 relative (up to
~5e-17 near 104): the deep-gap determinants push eigenvalues of the
discretized operator within ~1e-12 of 1, where double kernel entries are not
accurate enough.  Double nodes sum float64 copies of the same rows, each
rounded once: within 4 eps of the exact values relative to |Ai| + |Ai'|
(1.2 eps on [-16, 104), 2.1 on [-100, -16]), which moves thinned
determinants by about 1e-15.  scipy serves the complex arguments;
`scipy.special` is imported inside those functions on their first call, so
importing this module and every real-axis path stay scipy-free.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from ._constants import EULER_GAMMA, LOG_2PI, zeta_minus_one_scaled


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


def check_endpoints(x, name: str = "endpoints") -> None:
    """ValueError unless x_1 > ... > x_m are all finite."""
    if not all(map(math.isfinite, x)) or any(b >= a for a, b in zip(x, x[1:])):
        raise ValueError(f"{name} must be strictly decreasing and finite")


def check_weights(s) -> None:
    """ValueError unless every s_j lies in [0, 1] and only s_1 may vanish."""
    if not all(0.0 <= v <= 1.0 for v in s) or any(v == 0.0 for v in s[1:]):
        raise ValueError("weights must lie in [0, 1], and only s_1 may vanish")


def check_negative(x: float, name: str = "x") -> None:
    """ValueError unless x is a finite negative number; NaN fails too."""
    if not -math.inf < x < 0.0:
        raise ValueError(f"{name} must be finite and negative, got {float(x)!r}")


def check_negative_pair(hi: float, lo: float, hi_name: str, lo_name: str) -> None:
    """ValueError unless 0 > hi > lo, both finite; NaN fails too."""
    if not -math.inf < lo < hi < 0.0:
        raise ValueError(f"requires 0 > {hi_name} > {lo_name}, both finite; got {float(hi)!r}, {float(lo)!r}")


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
        """Nodes and weights transplanted to (a, b); column arrays a, b map many intervals."""
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


# --- real-axis evaluator: 80-bit anchors and series -------------------------

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


def _taylor_step(pairs, h):
    """(Ai, Ai') at x0 + h from the coefficient pairs [a_k, k a_k] of Ai about x0.

    pairs is (31, 2, ...) and h broadcasts against its trailing axes; one
    Horner recurrence runs Ai and Ai' together, rounding as two separate
    ones would.
    """
    y = pairs[_MARCH_ORDER].copy()
    for k in range(_MARCH_ORDER - 1, 0, -1):
        y *= h
        y += pairs[k]
    return y[0] * h + pairs[0, 0], y[1]


def _taylor_coefficients(x0, y, yp, terms: int) -> list:
    """The first `terms` Taylor coefficients a_k of Ai about x0 from (Ai, Ai')(x0),
    by the recurrence (k + 1)(k + 2) a_(k+2) = x0 a_k + a_(k-1) of y'' = x y."""
    a = [y, yp, x0 * y / _RECURRENCE_LD[0]]
    for k in range(1, terms - 2):
        a.append((x0 * a[k] + a[k - 1]) / _RECURRENCE_LD[k])
    return a


@functools.lru_cache(maxsize=None)
def _anchor(j: int) -> np.ndarray:
    """Coefficient pairs [a_k, k a_k], (31, 2), of Ai about the anchor 12 - j/4, in 80-bit.

    Anchor 0 comes from the large-argument series and anchor j from one
    Taylor step of length 1/4 off anchor j - 1, so a value never depends on
    how deep the march has gone.  Marching leftward is the well-conditioned
    direction (the recessive solution grows relative to the dominant one).
    The domain x >= -100 needs j <= 448, which bounds the cache.
    """
    x0 = _LD(_ASYM_ANCHOR - _MARCH_STEP * j)
    y, yp = _airy_asymptotic_ld(x0) if j == 0 else _taylor_step(_anchor(j - 1), _LD(-_MARCH_STEP))
    a = np.array(_taylor_coefficients(x0, y, yp, _MARCH_ORDER + 1))
    pairs = np.stack([a, a * np.arange(_MARCH_ORDER + 1)], axis=1)
    pairs.flags.writeable = False  # shared by every caller of the cache
    return pairs


# --- the step: one row of a shared table per point --------------------------

#: anchors of the step, a quarter of the march step apart: |h| <= 1/32
#: halves the rounding the terms in h add to double values (2.6 eps against
#: the 80-bit values at worst on [-100, 30], against 3.9 with anchors 1/8 apart)
_ROW_STEP = _MARCH_STEP / 4
#: Taylor terms of a step: with |h| <= 1/32 the terms left out stay below
#: 1e-19 of |Ai| + |Ai'|, at the worst anchors -100 and 104; 80-bit values
#: rely on that bound, about one 80-bit ulp
_ROW_TERMS = 16
#: double Ai is subnormal from about here; points at or above it, double or
#: 80-bit, take the 80-bit series
_ROWS_TOP = 104.0
#: (start, double, extended): extended[i] is the 80-bit Taylor row of the
#: anchor 12 + (start + i)/16, [a_15, ..., a_1, a_0] over [0, 15 a_15, ...,
#: 2 a_2, a_1], so that both meet the powers [h^15, ..., h, 1], and double[i]
#: its float64 copy, rounded once; both (K, 2, 16) and read-only, and
#: _row_table swaps in a wider tuple under _ROWS_LOCK
_ROWS = (0, np.empty((0, 2, _ROW_TERMS)), np.empty((0, 2, _ROW_TERMS), _LD))
#: the CLI evaluates on one thread, but library callers may call airy_real
#: from their own; unlocked, a narrower table built alongside could replace
#: a wider one
_ROWS_LOCK = threading.Lock()


def _build_rows(k: np.ndarray) -> np.ndarray:
    """Rows of the anchors 12 + k/16, built in 80-bit.

    k <= 0 comes from one 80-bit step of -(k mod 4)/16 off the anchor
    12 - j/4 at or above it (no step when k is a multiple of 4); k > 0 from
    the large-argument series.
    """
    x0 = _ASYM_ANCHOR + _LD(_ROW_STEP) * k
    y, yp = np.empty_like(x0), np.empty_like(x0)
    near = k <= 0
    j = -k[near]
    if j.size:
        anchor, offset = divmod(j, 4)
        anchors = [_anchor(i) for i in range(anchor.max() + 1)]  # in order, so no deep recursion
        pairs = np.stack([anchors[i] for i in anchor], axis=-1)
        y[near], yp[near] = _taylor_step(pairs, _LD(-_ROW_STEP) * offset)
    y[~near], yp[~near] = _airy_asymptotic_ld(x0[~near])
    a = np.array(_taylor_coefficients(x0, y, yp, _ROW_TERMS))[::-1].T  # (len(k), 16)
    rows = np.zeros((len(k), 2, _ROW_TERMS), _LD)
    rows[:, 0] = a
    rows[:, 1, 1:] = a[:, :-1] * np.arange(_ROW_TERMS - 1, 0, -1, dtype=_LD)
    return rows


def _row_table(lo: int, hi: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(start, double, extended) covering at least the anchors 12 + k/16, lo <= k <= hi."""
    global _ROWS
    start, _, extended = table = _ROWS
    if start <= lo and hi < start + len(extended):
        return table
    with _ROWS_LOCK:
        start, _, extended = _ROWS
        end = start + len(extended)
        extended = np.concatenate([_build_rows(np.arange(min(lo, start), start)), extended,
                                   _build_rows(np.arange(end, max(hi + 1, end)))])
        double = extended.astype(np.float64)
        double.flags.writeable = extended.flags.writeable = False  # shared by every caller
        _ROWS = table = min(lo, start), double, extended
    return table


def _row_step(t: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') at the points t of one axis, lo = min t and hi = max t within
    [-100, 104), in the dtype of t: one Taylor step (|h| <= 1/32) off the
    nearest anchor 12 + k/16, every point by one matmul of its row in that
    dtype.  k = rint((t - 12) 16) is monotone in t, so lo and hi give its range.
    The powers [h^15, ..., h, 1] are the columns of one (16, N) array, built a
    row at a time: h^j = h^(j-1) h, the sequential product a cumprod along each
    point's powers forms, by 14 multiplies over all N points; the matmul reads
    the array's transposed view."""
    k, lo, hi = (np.rint((v - _ASYM_ANCHOR) * (1 / _ROW_STEP)) for v in (t, lo, hi))
    start, double, extended = _row_table(int(lo), int(hi))
    powers = np.empty((_ROW_TERMS, t.size), dtype=t.dtype)
    power = list(powers)  # views of its rows h^15, ..., h, 1
    power[-1][...] = 1.0
    h = np.subtract(t, _ASYM_ANCHOR + _ROW_STEP * k, power[-2])
    for j in range(_ROW_TERMS - 3, -1, -1):
        np.multiply(power[j + 1], h, power[j])
    rows = double if t.dtype == np.float64 else extended
    values = np.matmul(rows.take(k.astype(np.intp) - start, axis=0), powers.T[:, :, None])
    return values[:, 0, 0], values[:, 1, 0]


def airy_real(x):
    """(Ai(x), Ai'(x)) for real x >= -100, in the dtype of x (at least double).

    Every point below 104 takes one Taylor step (|h| <= 1/32) off the nearest
    anchor 12 + k/16, whose 16-term row is built in 80-bit: 80-bit x sums
    that row, ~3e-17 relative (up to ~5e-17 near 104, where the rows come
    from the large-argument series); double x sums its float64 copy,
    rounded once, within 4 eps of the exact pair relative to |Ai| + |Ai'|
    (measured: 1.2 eps on [-16, 104), 2.1 eps on [-100, -16]).  Points at
    or above 104, where double Ai is subnormal, take the 80-bit
    large-argument series; below it, as checked by one min and one max, no
    mask splits the points.  The rows are built as far as the points have
    needed so far.  Complex x raises DomainError, even with a zero imaginary part.
    """
    x = np.asarray(x)
    if x.dtype.kind not in "biuf":
        raise DomainError(f"airy_real needs real arguments, got dtype {x.dtype}")
    t = x.astype(np.promote_types(x.dtype, np.float64), copy=False)
    if not t.size:
        return np.empty_like(t), np.empty_like(t)
    lo, hi = t.min(), t.max()  # NaN anywhere makes both NaN
    if not -math.inf < lo <= hi < math.inf:
        raise DomainError("airy_real needs finite arguments")
    if lo < AIRY_REAL_MIN:
        raise DomainError(f"airy_real supports x >= {AIRY_REAL_MIN}, got {lo}")
    if hi < _ROWS_TOP:
        ai, aip = _row_step(t.ravel(), lo, hi)
        return ai.reshape(t.shape)[()], aip.reshape(t.shape)[()]
    ai, aip = np.empty_like(t), np.empty_like(t)
    far = t >= _ROWS_TOP
    ai[far], aip[far] = _airy_asymptotic_ld(t[far])
    ai[~far], aip[~far] = airy_real(t[~far])  # no point at or above 104 there
    return ai[()], aip[()]


def airy_ai_real_xp(x):
    """(Ai, Ai') on the real axis in extended precision (float128 arrays).

    x is promoted, not cast, so complex x meets airy_real's DomainError.
    """
    x = np.asarray(x)
    return airy_real(x.astype(np.promote_types(x.dtype, _LD), copy=False))


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


@functools.lru_cache(maxsize=None)
def _barnes_coefficients() -> tuple[float, ...]:
    """log_barnes_g's coefficients of (w/2)^n, (-1)^(n-1) 2^n (zeta(n-1) - 1), n < 2000."""
    return tuple((-1.0) ** (n - 1) * (2.0 * zeta_minus_one_scaled(n - 1)) for n in range(3, 2000))


def log_barnes_g(z) -> complex:
    """log G(z) for the Barnes G-function, Re z > 0 and |z - 1| <= 2.

    G satisfies G(z+1) = Gamma(z) G(z) with G(1) = 1.  The recurrence pulls
    Re z into [0.5, 1.5); the remaining offset w = z - 1 goes through the
    Taylor expansion of log G(1+w), written with zeta(k)-1 so the log(1+w)
    part is resummed exactly and the series converges for |w| < 2: within
    2000 terms for |w| <= 1.96, to ~1e-15 relative, else DomainError.
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
    gsum = (0.5 * LOG_2PI - 0.5) * w - 0.5 * (1.0 + EULER_GAMMA) * w * w \
        + np.log1p(w) - w + 0.5 * w * w
    # sum_{n>=3} (-1)^(n-1) (zeta(n-1) - 1) w^n / n, iterated as (w/2)^n to
    # stay in range even close to |w| = 2
    q = 0.5 * w
    qn = q * q  # q^2, loop starts at n = 3
    total = 0.0 + 0.0j
    for n, c in zip(range(3, 2000), _barnes_coefficients()):
        qn *= q
        term = c * qn / n
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
    """M(a, 1, z) by whichever ascending series cancels less: its own, which loses
    |z| - max(Re z, 0), or Kummer's transformation e^z M(1 - a, 1, -z) (DLMF
    13.2.39), which loses |z| - max(-Re z, 0); past both limits, the U connection."""
    z = complex(z)
    if abs(z) - abs(z.real) >= _KUMMER_SERIES_MAX_LOSS:
        return kummer_m_b1_asym(a, z)
    return kummer_m_b1(a, z) if z.real >= 0.0 else np.exp(z) * kummer_m_b1(1.0 - complex(a), -z)


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
