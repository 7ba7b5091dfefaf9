"""Model Riemann-Hilbert solutions: Airy, Bessel, and confluent
hypergeometric 2x2 matrix functions with prescribed ray jumps.

Each solution is assembled per sector from classical special functions and
verified through three independent surfaces: unimodularity, the ray jump
relations, and the large-z asymptotic coefficient matrices.  What sets one
model apart (domain, branch, rays, sectors, formulas, fit plan, reference
coefficient) is one ModelProblem record in MODELS, which the single sampler
and the verification surfaces read.  Ray orientation follows the
jump-contour figures: the real-axis rays and the rays reaching into the left
half plane are traversed toward the origin where the sector tables require
it, and the + side of a ray is the side lying to the left of its traversal.
Boundary values are evaluated exactly on the ray by sector dispatch, so jump
residuals measure analytic consistency, not a finite offset.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import specfun
from .specfun import DomainError

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


class RayError(ValueError):
    """The requested point sits on a jump ray; pick a side."""


#: the Pauli matrix sigma_1
SIGMA_1 = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
#: M = (I + i sigma_1)/sqrt(2), the unitary normalizer of the asymptotics
M_NORMALIZER = (np.eye(2, dtype=complex) + 1j * SIGMA_1) / math.sqrt(2.0)

_OMEGA = cmath.exp(2j * math.pi / 3.0)
_M_AIRY = math.sqrt(2.0 * math.pi) * cmath.exp(1j * math.pi / 6.0) * np.diag([1.0, -1j])
_E6 = np.diag([cmath.exp(-1j * math.pi / 6.0), cmath.exp(1j * math.pi / 6.0)])

#: reference asymptotic coefficient matrices
PHI_AI_1 = 0.125 * np.array([[1.0 / 6.0, 1j], [1j, -1.0 / 6.0]])
PHI_BE_1 = 0.0625 * np.array([[-1.0, -2j], [-2j, 1.0]])


def tau_ratio(beta) -> complex:
    """tau(beta) = -Gamma(-beta)/Gamma(1 + beta) from the CHG asymptotics."""
    b = complex(beta)
    if b == 0:
        raise specfun.PoleError("tau_ratio has a pole at beta = 0")
    return -cmath.exp(specfun.log_gamma(-b) - specfun.log_gamma(1.0 + b))


def phi_hg1_reference(beta) -> np.ndarray:
    """beta^2 [[-1, tau(beta)], [-tau(-beta), 1]], in the beta->0-stable form."""
    b = complex(beta)
    g_plus = cmath.exp(specfun.log_gamma(1.0 + b) - specfun.log_gamma(1.0 - b))
    return np.array([
        [-b * b, b / g_plus],
        [b * g_plus, b * b],
    ])


@dataclass(frozen=True, eq=False)
class ParametrixSample:
    """One evaluation of a model solution: point, sector, 2x2 value."""

    z: complex
    sector: str
    matrix: np.ndarray
    model: str
    beta: complex | None = None

    @property
    def det_residual(self) -> float:
        return abs(complex(np.linalg.det(self.matrix)) - 1.0)


def _near_any(theta: float, angles, tol: float = 1e-12) -> bool:
    return any(abs(math.remainder(theta - a, 2.0 * math.pi)) < tol for a in angles)


# ---------------------------------------------------------------------------
# Airy model solution
# ---------------------------------------------------------------------------

_J_UPPER = np.array([[1.0, 0.0], [1.0, 1.0]], dtype=complex)   # rising-ray jump
_J_RPLUS = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
_J_CYCLE = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)

#: ray table: angle, jump matrix as a function of beta, (+ sector, - sector)
AIRY_RAYS = {
    0: (0.0, lambda b: _J_RPLUS, "I", "IV"),
    1: (TWO_THIRDS_PI, lambda b: _J_UPPER, "I", "II"),
    2: (math.pi, lambda b: _J_CYCLE, "II", "III"),
    3: (-TWO_THIRDS_PI, lambda b: _J_UPPER, "III", "IV"),
}


def _phi_ai_in_sector(z: complex, sector: str) -> np.ndarray:
    ai, aip = specfun.airy_ai(z)
    if sector in ("I", "II"):
        a2, a2p = specfun.airy_ai(_OMEGA ** 2 * z)
        base = np.array([[ai, a2], [aip, _OMEGA ** 2 * a2p]]) @ _E6
        if sector == "II":
            base = base @ np.array([[1.0, 0.0], [-1.0, 1.0]], dtype=complex)
    else:
        a1, a1p = specfun.airy_ai(_OMEGA * z)
        base = np.array([[ai, -_OMEGA ** 2 * a1], [aip, -a1p]]) @ _E6
        if sector == "III":
            base = base @ _J_UPPER
    return _M_AIRY @ base


def _strip_airy(phi: np.ndarray, z: complex, theta: float, beta) -> np.ndarray:
    zq = z ** 0.25
    z32 = z ** 1.5
    left = np.diag([zq, 1.0 / zq])
    right = np.diag([cmath.exp(2.0 / 3.0 * z32), cmath.exp(-2.0 / 3.0 * z32)])
    return M_NORMALIZER.conj().T @ left @ phi @ right


# ---------------------------------------------------------------------------
# Bessel model solution
# ---------------------------------------------------------------------------

BESSEL_RAYS = {
    1: (TWO_THIRDS_PI, lambda b: _J_UPPER, "I", "II"),
    2: (math.pi, lambda b: _J_CYCLE, "II", "III"),
    3: (-TWO_THIRDS_PI, lambda b: _J_UPPER, "III", "I"),
}


def _phi_be_in_sector(z: complex, sector: str) -> np.ndarray:
    if sector == "I":
        w = 2.0 * cmath.sqrt(z)
        i0, k0, i0p, k0p = specfun.bessel_modified_I0K0(w)
        return np.array([
            [i0, 1j / math.pi * k0],
            [2j * math.pi * cmath.sqrt(z) * i0p, -2.0 * cmath.sqrt(z) * k0p],
        ])
    w = 2.0 * cmath.sqrt(-z)
    h1, h1p = specfun.hankel_H0(w, 1)
    h2, h2p = specfun.hankel_H0(w, 2)
    if sector == "II":
        return np.array([
            [0.5 * h1, 0.5 * h2],
            [math.pi * cmath.sqrt(z) * h1p, math.pi * cmath.sqrt(z) * h2p],
        ])
    return np.array([
        [0.5 * h2, -0.5 * h1],
        [-math.pi * cmath.sqrt(z) * h2p, math.pi * cmath.sqrt(z) * h1p],
    ])


def _strip_bessel(phi: np.ndarray, z: complex, theta: float, beta) -> np.ndarray:
    root = cmath.sqrt(2.0 * math.pi * cmath.sqrt(z))
    left = np.diag([root, 1.0 / root])
    right = np.diag([cmath.exp(-2.0 * cmath.sqrt(z)), cmath.exp(2.0 * cmath.sqrt(z))])
    return M_NORMALIZER.conj().T @ left @ phi @ right


# ---------------------------------------------------------------------------
# Confluent hypergeometric model solution
# ---------------------------------------------------------------------------

CHG_MAX_BETA = 0.5


def _validate_beta(beta) -> complex:
    b = complex(beta)
    if not specfun._is_imaginary(b) or abs(b) > CHG_MAX_BETA:
        raise ValueError(f"beta must be purely imaginary with |beta| <= {CHG_MAX_BETA}, got {beta!r}")
    return 1j * b.imag


def chg_jump_matrix(k: int, beta) -> np.ndarray:
    """Jump matrix J_k on Gamma_k (k = 1..6)."""
    b = _validate_beta(beta)
    ep = cmath.exp(1j * math.pi * b)
    em = cmath.exp(-1j * math.pi * b)
    table = {
        1: [[0.0, em], [-ep, 0.0]],
        2: [[1.0, 0.0], [ep, 1.0]],
        3: [[1.0, 0.0], [em, 1.0]],
        4: [[0.0, ep], [-em, 0.0]],
        5: [[1.0, 0.0], [em, 1.0]],
        6: [[1.0, 0.0], [ep, 1.0]],
    }
    if k not in table:
        raise ValueError(f"ray index must be 1..6, got {k!r}")
    return np.array(table[k], dtype=complex)


def _inv2(m: np.ndarray) -> np.ndarray:
    d = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / d


def _phi_hat_hg(z: complex, log_z: complex, beta: complex) -> np.ndarray:
    """Whittaker-based core of the CHG solution on an explicit log branch.

    Columns are e^(-z/2) M(beta,1,z), e^(-z/2) M(1+beta,1,z) against the
    U-solutions at the reflected argument -z with log(-z) = log z - i pi.
    """
    exp_m = cmath.exp(-0.5 * z)
    exp_p = cmath.exp(0.5 * z)
    log_w = log_z - 1j * math.pi
    g1m = cmath.exp(specfun.log_gamma(1.0 - beta))
    g1p = cmath.exp(specfun.log_gamma(1.0 + beta))
    # -Gamma(1-beta)/Gamma(beta) = -beta Gamma(1-beta)/Gamma(1+beta), finite at beta = 0
    c12 = -beta * g1m / g1p
    return np.array([
        [g1m * exp_m * specfun.kummer_m(beta, z),
         c12 * exp_p * specfun.kummer_u(1.0 - beta, -z, log_w)],
        [g1p * exp_m * specfun.kummer_m(1.0 + beta, z),
         exp_p * specfun.kummer_u(-beta, -z, log_w)],
    ])


#: jump matrices multiplied, left to right, into each sector's chain; a
#: negative ray index stands for the inverse of that jump
_CHG_CHAINS = {"I": (-2,), "II": (), "III": (-3,), "IV": (-2, -1, -6, 5),
               "V": (-2, -1, -6), "VI": (-2, -1)}


def _chg_chain(sector: str, beta: complex) -> np.ndarray:
    """Right jump-matrix chain turning the core into the sector value."""
    factors = [chg_jump_matrix(k, beta) if k > 0 else _inv2(chg_jump_matrix(-k, beta))
               for k in _CHG_CHAINS[sector]]
    return functools.reduce(np.matmul, factors) if factors else np.eye(2, dtype=complex)


def _phi_hg_at(z_abs: float, theta: float, beta: complex, sector: str) -> np.ndarray:
    z = z_abs * cmath.exp(1j * theta)
    log_z = math.log(z_abs) + 1j * theta
    return _phi_hat_hg(z, log_z, beta) @ _chg_chain(sector, beta)


def _strip_chg(phi: np.ndarray, z: complex, theta: float, beta: complex) -> np.ndarray:
    """Large-z prefactors for pi/2 < arg z < 3 pi/2, the half-plane the CHG fit samples."""
    log_z = math.log(abs(z)) + 1j * theta
    sect = np.diag([cmath.exp(1j * math.pi * beta), cmath.exp(-1j * math.pi * beta)])
    zb = cmath.exp(beta * log_z)
    right = np.diag([cmath.exp(0.5 * z) * zb, cmath.exp(-0.5 * z) / zb])
    return phi @ _inv2(sect) @ right


# ---------------------------------------------------------------------------
# one record per model problem
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ModelProblem:
    """Everything that sets one model Riemann-Hilbert problem apart.

    Samples need min_radius < |z| <= max_radius, with arg z on the branch
    (arg_min, arg_min + 2 pi].  rays maps a ray index to (angle, jump(beta),
    + sector, - sector), and wrap to the - side's angle on the ray where the
    branch is cut.  sectors lists (name, lower angle, upper angle).
    evaluate(z, |z|, arg z, sector, beta) is the value in a sector (Airy and
    Bessel use z itself, CHG rebuilds z from |z| and arg z on its branch),
    and strip(value, z, arg z, beta) removes its large-z prefactors.  fit holds
    the radii, the (lowest, highest) angle, the power of 1/z and the number
    of fitted orders; the radii sit where the special-function evaluations
    keep full accuracy while the factorially divergent tails of the
    expansions are still far from their optimal-truncation floor.
    """

    name: str
    min_radius: float
    max_radius: float
    arg_min: float
    rays: dict
    wrap: dict
    sectors: tuple
    evaluate: Callable
    strip: Callable
    fit: tuple
    reference: Callable
    takes_beta: bool


_FIT_WINDOW_AB = (-TWO_THIRDS_PI + 0.15, TWO_THIRDS_PI - 0.15)

MODELS = {
    "airy": ModelProblem(
        name="airy", min_radius=0.0, max_radius=40.0, arg_min=-math.pi,
        rays=AIRY_RAYS, wrap={2: -math.pi},
        sectors=(("I", 0.0, TWO_THIRDS_PI), ("II", TWO_THIRDS_PI, math.pi),
                 ("III", -math.pi, -TWO_THIRDS_PI), ("IV", -TWO_THIRDS_PI, 0.0)),
        evaluate=lambda z, r, theta, sector, beta: _phi_ai_in_sector(z, sector),
        strip=_strip_airy, fit=((15.0, 22.0, 30.0, 39.0), _FIT_WINDOW_AB, 1.5, 4),
        reference=lambda beta: PHI_AI_1, takes_beta=False),
    "bessel": ModelProblem(
        name="bessel", min_radius=1e-8, max_radius=40.0, arg_min=-math.pi,
        rays=BESSEL_RAYS, wrap={2: -math.pi},
        sectors=(("I", -TWO_THIRDS_PI, TWO_THIRDS_PI), ("II", TWO_THIRDS_PI, math.pi),
                 ("III", -math.pi, -TWO_THIRDS_PI)),
        evaluate=lambda z, r, theta, sector, beta: _phi_be_in_sector(z, sector),
        strip=_strip_bessel, fit=((20.0, 25.0, 31.0, 40.0), _FIT_WINDOW_AB, 0.5, 5),
        reference=lambda beta: PHI_BE_1, takes_beta=False),
    "chg": ModelProblem(
        name="chg", min_radius=1e-6, max_radius=40.0, arg_min=-0.5 * math.pi,
        # Gamma_1..Gamma_6
        rays={k: (angle, functools.partial(chg_jump_matrix, k), plus, minus)
              for k, (angle, plus, minus) in {
                  1: (0.5 * math.pi, "I", "VI"), 2: (0.75 * math.pi, "II", "I"),
                  3: (1.25 * math.pi, "II", "III"), 4: (1.5 * math.pi, "III", "IV"),
                  5: (-0.25 * math.pi, "IV", "V"), 6: (0.25 * math.pi, "VI", "V")}.items()},
        wrap={4: -0.5 * math.pi},
        sectors=(("VI", 0.25 * math.pi, 0.5 * math.pi), ("I", 0.5 * math.pi, 0.75 * math.pi),
                 ("II", 0.75 * math.pi, 1.25 * math.pi), ("III", 1.25 * math.pi, 1.5 * math.pi),
                 ("IV", -0.5 * math.pi, -0.25 * math.pi), ("V", -0.25 * math.pi, 0.25 * math.pi)),
        evaluate=lambda z, r, theta, sector, beta: _phi_hg_at(r, theta, beta, sector),
        strip=_strip_chg,
        fit=((22.0, 28.0, 34.0, 40.0), (0.5 * math.pi + 0.2, 1.5 * math.pi - 0.2), 1.0, 5),
        reference=phi_hg1_reference, takes_beta=True),
}


def _resolve(name: str, beta) -> tuple[ModelProblem, complex | None]:
    """The model's record and its validated beta (None for a model without one)."""
    try:
        problem = MODELS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown model {name!r}") from None
    if not problem.takes_beta:
        if beta is not None:
            raise ValueError(f"the {problem.name} model takes no beta")
        return problem, None
    if beta is None:
        raise ValueError(f"the {problem.name} model requires beta")
    return problem, _validate_beta(beta)


def _locate(problem: ModelProblem, z: complex) -> tuple[float, str]:
    """arg z on the model's branch and the sector holding z, off its rays."""
    theta = cmath.phase(z)
    if theta <= problem.arg_min:
        theta += 2.0 * math.pi
    if _near_any(theta, [ray[0] for ray in problem.rays.values()]):
        raise RayError(f"z lies on a jump ray of the {problem.name} model problem")
    return theta, next(name for name, lo, hi in problem.sectors if lo < theta < hi)


def _sample(name: str, z, beta) -> ParametrixSample:
    """The model solution at z, after the beta, radius and ray checks."""
    problem, b = _resolve(name, beta)
    zc = complex(z)
    r = abs(zc)
    if not problem.min_radius < r <= problem.max_radius:
        raise DomainError(f"the {problem.name} model solution supports "
                          f"{problem.min_radius} < |z| <= {problem.max_radius}")
    theta, sector = _locate(problem, zc)
    return ParametrixSample(zc, sector, problem.evaluate(zc, r, theta, sector, b), problem.name, b)


def phi_ai(z) -> ParametrixSample:
    """Airy model solution away from the four jump rays, |z| <= 40."""
    return _sample("airy", z, None)


def phi_be(z) -> ParametrixSample:
    """Bessel model solution away from its three jump rays, 1e-8 < |z| <= 40."""
    return _sample("bessel", z, None)


def phi_hg(z, beta) -> ParametrixSample:
    """Confluent hypergeometric model solution, 1e-6 < |z| <= 40.

    beta is purely imaginary with |beta| <= 1/2; powers of z live on the
    branch arg z in (-pi/2, 3pi/2].
    """
    return _sample("chg", z, beta)


# ---------------------------------------------------------------------------
# verification surfaces
# ---------------------------------------------------------------------------

def jump_residual(model: str, ray_index: int, t: float, beta=None) -> float:
    """max-norm of Phi_+ - Phi_- J at distance t along the given ray.

    Both one-sided boundary values are evaluated exactly on the ray (the
    sector formulas extend continuously to it), so the residual reflects the
    jump relation itself rather than an off-ray offset.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    problem, b = _resolve(model, beta)
    if ray_index not in problem.rays:
        raise ValueError(f"{problem.name} ray index must be in {sorted(problem.rays)}")
    angle, jump, plus, minus = problem.rays[ray_index]
    minus_angle = problem.wrap.get(ray_index, angle)
    p_plus = problem.evaluate(t * cmath.exp(1j * angle), t, angle, plus, b)
    p_minus = problem.evaluate(t * cmath.exp(1j * minus_angle), t, minus_angle, minus, b)
    return float(np.abs(p_minus @ jump(b) - p_plus).max())


_EXTRACT_FIT_TOL = 1e-4


def extract_asym_coeff(model: str, beta=None) -> np.ndarray:
    """First correction matrix of the large-z expansion by least squares.

    Strips each model's explicit power/exponential prefactors on a fan of
    sample points (kept where the sector formulas are single special-function
    columns, so no exponentially large cancellation occurs), then fits the
    leading inverse-power coefficient along with two to four higher orders.
    """
    problem, b = _resolve(model, beta)
    radii, (lo, hi), power, n_orders = problem.fit
    ray_angles = [ray[0] for ray in problem.rays.values()]
    angles = [a for a in np.linspace(lo, hi, 32) if not _near_any(a, ray_angles, 0.05)]
    zs = [r * cmath.exp(1j * a) for r in radii for a in angles]

    def stripped(z: complex) -> np.ndarray:
        # no radius check: a point on the outermost circle may round to just
        # above max_radius
        theta, sector = _locate(problem, z)
        return problem.strip(problem.evaluate(z, abs(z), theta, sector, b), z, theta, b)

    w = np.array([z ** -power for z in zs])
    design = np.column_stack([w ** k for k in range(1, n_orders + 1)])
    norms = np.linalg.norm(design, axis=0)
    samples = np.array([stripped(z) - np.eye(2) for z in zs]).reshape(len(zs), 4)
    coeffs, *_ = np.linalg.lstsq(design / norms, samples, rcond=None)
    coeffs = coeffs / norms[:, None]
    fitted = design @ coeffs
    residual = float(np.abs(fitted - samples).max())
    if residual > _EXTRACT_FIT_TOL:
        raise specfun.NumericalError(
            f"asymptotic fit residual {residual:.3e} above {_EXTRACT_FIT_TOL:.0e} "
            f"for model {problem.name} (radii {radii})")
    return coeffs[0].reshape(2, 2)


def hg_logderivative_exact(beta) -> complex:
    """Gamma(1-b)Gamma'(1+b) + Gamma'(1-b)Gamma(1+b), via log-gamma/digamma."""
    b = _validate_beta(beta)
    prod = cmath.exp(specfun.log_gamma(1.0 - b) + specfun.log_gamma(1.0 + b))
    return prod * (specfun.digamma(1.0 + b) + specfun.digamma(1.0 - b))


def hg_logderivative_limit(beta) -> complex:
    """Numeric limit of [Phi^{-1} d/dbeta Phi]_{21} as z -> 0 in sector II.

    Central difference in beta, with step 1e-6, at z = -1e-4 (inside sector
    II on the canonical branch).
    """
    b = _validate_beta(beta)
    z_abs, theta, step = 1e-4, math.pi, 1e-6
    plus = _phi_hg_at(z_abs, theta, b + 1j * step, "II")
    minus = _phi_hg_at(z_abs, theta, b - 1j * step, "II")
    center = _phi_hg_at(z_abs, theta, b, "II")
    derivative = (plus - minus) / (2j * step)
    return complex((_inv2(center) @ derivative)[1, 0])
