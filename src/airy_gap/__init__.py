"""Airy-kernel Fredholm determinants with jump discontinuities.

A numerics library for the generating functions of the Airy point process:
panelized Nystrom determinants, every closed-form large-gap expansion
(one-point tails, multi-point product structure, conditioned variants,
counting-statistics moments), and the Airy / Bessel / confluent
hypergeometric model Riemann-Hilbert solutions with their verification
surfaces.
"""

__version__ = "1.0.0"

from .asymptotics import (
    AsymptoticBreakdown,
    beta_from_s,
    log_E0_asym,
    log_E0_product_form,
    log_E_asym,
    log_E_m1,
    log_E_product_form,
    log_F_m1_s0,
    moment_asym,
    mu,
    s_from_beta,
    sigma2,
    sigma_cov,
    thinned_joint_tail_asym,
    var_interval_asym,
)
from .fredholm import (
    DeterminantReport,
    GapConfig,
    QuadratureScheme,
    airy_kernel,
    build_scheme,
    cov_count,
    cov_halflines,
    log_E,
    log_E0,
    log_det,
    mean_count,
    var_count,
    weight_derivative_identity_gap,
)
from .parametrix import (
    ParametrixSample,
    extract_asym_coeff,
    hg_logderivative_exact,
    hg_logderivative_limit,
    jump_residual,
    phi_ai,
    phi_be,
    phi_hg,
)
from .specfun import (
    DomainError,
    NumericalError,
    PoleError,
    QuadRule,
    SingularityError,
    airy_ai,
    bessel_modified_I0K0,
    digamma,
    gauss_legendre_rule,
    hankel_H0,
    log_barnes_g,
    log_gamma,
    whittaker_pair_mu0,
)

__all__ = [
    "AsymptoticBreakdown", "DeterminantReport", "DomainError", "GapConfig",
    "NumericalError", "ParametrixSample", "PoleError", "QuadRule",
    "QuadratureScheme", "SingularityError", "airy_ai", "airy_kernel",
    "bessel_modified_I0K0", "beta_from_s", "build_scheme", "cov_count",
    "cov_halflines", "digamma", "extract_asym_coeff", "gauss_legendre_rule",
    "hankel_H0", "hg_logderivative_exact", "hg_logderivative_limit",
    "jump_residual", "log_E", "log_E0", "log_E0_asym", "log_E0_product_form",
    "log_E_asym", "log_E_m1", "log_E_product_form", "log_F_m1_s0",
    "log_barnes_g", "log_det", "log_gamma", "mean_count", "moment_asym",
    "mu", "phi_ai", "phi_be", "phi_hg", "s_from_beta",
    "sigma2", "sigma_cov", "thinned_joint_tail_asym", "var_count",
    "var_interval_asym", "weight_derivative_identity_gap",
    "whittaker_pair_mu0",
]
