"""Model Riemann-Hilbert solutions: unimodularity, jumps, asymptotics."""

import cmath
import math

import numpy as np
import pytest

from airy_gap import parametrix as px
from airy_gap import specfun as sf
from airy_gap._constants import EULER_GAMMA

BETAS = (0.1j, 0.3j, 0.5j)


def _sample_points(rng, n, rmin=0.3, rmax=10.0):
    radii = np.exp(rng.uniform(math.log(rmin), math.log(rmax), n))
    angles = rng.uniform(-math.pi + 0.05, math.pi - 0.05, n)
    return radii * np.exp(1j * angles)


# ---------------------------------------------------------------------------
# unimodularity
# ---------------------------------------------------------------------------

def test_airy_unimodular(rng):
    for z in _sample_points(rng, 50):
        try:
            s = px.phi_ai(z)
        except px.RayError:
            continue
        assert s.det_residual < 1e-10


def test_bessel_unimodular(rng):
    for z in _sample_points(rng, 50):
        try:
            s = px.phi_be(z)
        except px.RayError:
            continue
        assert s.det_residual < 1e-10


@pytest.mark.parametrize("beta", BETAS)
def test_chg_unimodular(beta, rng):
    for z in _sample_points(rng, 30, rmax=8.0):
        try:
            s = px.phi_hg(z, beta)
        except px.RayError:
            continue
        assert s.det_residual < 1e-7


# ---------------------------------------------------------------------------
# jump relations
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("ray", sorted(px.AIRY_RAYS))
@pytest.mark.parametrize("t", (1.0, 3.0))
def test_airy_jumps(ray, t):
    assert px.jump_residual("airy", ray, t) < 1e-9


@pytest.mark.parametrize("ray", sorted(px.BESSEL_RAYS))
@pytest.mark.parametrize("t", (1.0, 3.0))
def test_bessel_jumps(ray, t):
    assert px.jump_residual("bessel", ray, t) < 1e-9


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("ray", range(1, 7))
@pytest.mark.parametrize("t", (0.8, 3.0))
def test_chg_jumps(beta, ray, t):
    assert px.jump_residual("chg", ray, t, beta) < 1e-7


def test_jump_residual_validation():
    with pytest.raises(ValueError):
        px.jump_residual("airy", 9, 1.0)
    with pytest.raises(ValueError):
        px.jump_residual("chg", 1, 1.0)  # beta missing
    with pytest.raises(ValueError):
        px.jump_residual("chg", 1, -2.0, 0.1j)
    with pytest.raises(ValueError):
        px.jump_residual("sine", 1, 1.0)
    with pytest.raises(ValueError, match="ray index must be 1..6, got 7"):
        px.chg_jump_matrix(7, 0.1j)


def test_beta_rejected_for_models_without_one():
    with pytest.raises(ValueError, match="airy model takes no beta"):
        px.jump_residual("airy", 1, 1.0, 0.9j)
    with pytest.raises(ValueError, match="bessel model takes no beta"):
        px.extract_asym_coeff("bessel", "junk")


def test_extract_asym_coeff_refuses_a_poor_fit(monkeypatch):
    monkeypatch.setattr(px, "_EXTRACT_FIT_TOL", 0.0)
    with pytest.raises(px.specfun.NumericalError, match="asymptotic fit residual .* for model airy"):
        px.extract_asym_coeff("airy")


def test_ray_ambiguity_raised():
    with pytest.raises(px.RayError):
        px.phi_ai(2.0)  # on the positive real axis
    with pytest.raises(px.RayError):
        px.phi_be(-1.5)
    with pytest.raises(px.RayError):
        px.phi_hg(1.0j, 0.2j)  # on Gamma_1


SAMPLERS = {"airy": px.phi_ai, "bessel": px.phi_be, "chg": lambda z: px.phi_hg(z, 0.2j)}
RAY_ANGLES = {  # from the jump-contour figures
    "airy": (0.0, 2 * math.pi / 3, math.pi, -2 * math.pi / 3),
    "bessel": (2 * math.pi / 3, math.pi, -2 * math.pi / 3),
    "chg": tuple(k * math.pi / 4 for k in (2, 3, 5, 6, -1, 1)),
}


@pytest.mark.parametrize("model,angle", [(m, a) for m, rays in RAY_ANGLES.items() for a in rays])
@pytest.mark.parametrize("side", (1.0, -1.0))
def test_near_ray_points_raise(model, angle, side):
    with pytest.raises(px.RayError):
        SAMPLERS[model](2.0 * cmath.exp(1j * (angle + side * 1e-13)))
    sample = SAMPLERS[model](2.0 * cmath.exp(1j * (angle + side * 1e-9)))
    assert sample.model == model and np.all(np.isfinite(sample.matrix))


def test_domain_limits():
    with pytest.raises(sf.DomainError):
        px.phi_ai(45.0 * cmath.exp(0.3j))
    with pytest.raises(sf.DomainError):
        px.phi_be(1e-9 * cmath.exp(0.3j))
    with pytest.raises(sf.DomainError):
        px.phi_hg(1e-7 * cmath.exp(0.3j), 0.2j)
    with pytest.raises(ValueError):
        px.phi_hg(2.0 * cmath.exp(0.3j), 0.7j)  # |beta| too large


# ---------------------------------------------------------------------------
# asymptotic coefficient matrices
# ---------------------------------------------------------------------------

def test_airy_coefficient():
    fitted = px.extract_asym_coeff("airy")
    assert np.abs(fitted - px.PHI_AI_1).max() < 1e-5


def test_bessel_coefficient():
    fitted = px.extract_asym_coeff("bessel")
    assert np.abs(fitted - px.PHI_BE_1).max() < 1e-5


@pytest.mark.parametrize("beta", (0.1j, 0.3j))
def test_chg_coefficient(beta):
    fitted = px.extract_asym_coeff("chg", beta)
    assert np.abs(fitted - px.phi_hg1_reference(beta)).max() < 1e-4


def test_chg_coefficient_vanishes_with_beta():
    fitted = px.extract_asym_coeff("chg", 0.0)
    assert np.abs(fitted).max() < 1e-6


def test_tau_ratio_consistency():
    b = 0.2j
    tau = px.tau_ratio(b)
    ref = px.phi_hg1_reference(b)
    assert abs(ref[0, 1] - b * b * tau) < 1e-14
    assert abs(ref[1, 0] + b * b * px.tau_ratio(-b)) < 1e-14
    with pytest.raises(sf.PoleError):
        px.tau_ratio(0.0)


# ---------------------------------------------------------------------------
# local behavior at the origin
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", (0.3j, -0.2j))
def test_chg_small_z_first_column(beta):
    s = px.phi_hg(-1.5e-6 + 0.0j, beta)
    g1m = cmath.exp(sf.log_gamma(1.0 - beta))
    g1p = cmath.exp(sf.log_gamma(1.0 + beta))
    assert abs(s.matrix[0, 0] - g1m) < 1e-6
    assert abs(s.matrix[1, 0] - g1p) < 1e-6


def test_chg_small_z_growth_classification():
    # first column in sector II stays bounded, everything else grows like
    # log|z|: the entry ratio across two decades approaches 2
    beta = 0.3j
    scales = (1e-2, 1e-3, 1e-4)
    in_II = [np.abs(px.phi_hg(-s + 0.0j, beta).matrix) for s in scales]
    bounded = [m[:, 0] for m in in_II]
    assert np.abs(bounded[2] / bounded[0] - 1.0).max() < 0.05
    log_col = [m[:, 1] for m in in_II]
    ratio = log_col[2] / log_col[0]
    assert np.all(ratio > 1.5) and np.all(ratio < 2.5)
    dir_I = cmath.exp(0.6j * math.pi)  # direction inside sector I
    in_I = [np.abs(px.phi_hg(dir_I * s, beta).matrix) for s in scales]
    ratio_I = in_I[2] / in_I[0]
    assert np.all(ratio_I > 1.3) and np.all(ratio_I < 2.6)


# ---------------------------------------------------------------------------
# log-derivative limit
# ---------------------------------------------------------------------------

def test_logderivative_closed_form_at_zero():
    assert abs(px.hg_logderivative_exact(0.0) - (-2.0 * EULER_GAMMA)) < 1e-14


@pytest.mark.parametrize("beta", (0.2j, 0.35j))
def test_logderivative_limit_matches_closed_form(beta):
    numeric = px.hg_logderivative_limit(beta)
    exact = px.hg_logderivative_exact(beta)
    assert abs(numeric - exact) < 1e-4


def test_logderivative_conjugation_symmetry():
    b = 0.25j
    plus = px.hg_logderivative_limit(b)
    minus = px.hg_logderivative_limit(-b)
    assert abs(minus - plus.conjugate()) < 1e-4


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_normalizer_is_unitary():
    prod = px.M_NORMALIZER @ px.M_NORMALIZER.conj().T
    assert np.abs(prod - np.eye(2)).max() < 1e-15


def test_pauli_constants():
    assert np.array_equal(px.SIGMA_1, np.array([[0, 1], [1, 0]], dtype=complex))
