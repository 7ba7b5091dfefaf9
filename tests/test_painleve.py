"""The Painleve II route for the one-point hard gap F(x; 0)."""

import logging

import numpy as np
import pytest

from airy_gap import fredholm as fr
from airy_gap import painleve as pii
from airy_gap import specfun as sf
from airy_gap.asymptotics import log_F_m1_s0
from airy_gap.fredholm import GapConfig, NumericalError


def four_term_tail(x):
    """log F(x; 0) up to O(|x|^-12): good to 2e-10 at x = -10, 1e-14 at -16."""
    r = -x
    return log_F_m1_s0(x) + 3 / (64 * r ** 3) + 63 / (256 * r ** 6) + 7221 / (1536 * r ** 9)


# ---------------------------------------------------------------------------
# the boundary-value solve
# ---------------------------------------------------------------------------

def test_solution_matches_its_asymptotics_inside_the_interval():
    t, q = pii.hastings_mcleod(pii.RUNGS[-1])
    far_left, near_left, right = pii._interpolate(t, q, np.array([-60.0, -30.0, 6.0]))
    assert abs(far_left - pii._left_value(-60.0)) < 1e-13 * far_left
    assert abs(near_left - pii._left_value(-30.0)) < 1e-13 * near_left
    # q - Ai is of order Ai^3 out here: 2e-11 relative at t = 6
    ai = sf.airy_real(6.0)[0]
    assert abs(right - ai) < 1e-9 * ai


def test_interpolation_returns_node_values_at_the_nodes():
    t, q = pii.hastings_mcleod(pii.RUNGS[0])
    assert np.array_equal(pii._interpolate(t, q, t[[0, 3, 7, -1]]), q[[0, 3, 7, -1]])


def test_newton_failure_raises(monkeypatch):
    monkeypatch.setattr(pii, "NEWTON_MAX_STEPS", 2)
    with pytest.raises(NumericalError, match="did not converge"):
        pii.hastings_mcleod.__wrapped__(40)  # uncached


# ---------------------------------------------------------------------------
# log_det on the Painleve II route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("x", [-16.0, -30.0, -60.0, -99.0])
def test_deep_hard_gap_matches_the_four_term_tail(x):
    report = fr.log_det(GapConfig((x,), (0.0,)))
    assert report.route == "painleve" and report.converged
    assert [n for n, _ in report.resolutions] == list(pii.RUNGS)
    assert abs(report.log_f - four_term_tail(x)) < 1e-13 * abs(report.log_f)


def test_hard_gap_where_the_nystrom_route_refuses():
    # the 80-bit Nystrom path raises at x = -13 (test_fredholm)
    report = fr.log_det(GapConfig((-13.0,), (0.0,)))
    assert report.route == "painleve"
    assert abs(report.log_f - four_term_tail(-13.0)) <= report.est_error + 1e-10


# At x = -6 (min 1 - lambda = 2.9e-5) double assembly noise spreads
# logdet_single over 3.4e-11 across 24-64 nodes per panel and BLAS thread
# counts, so that point is held to the 80-bit assembly of the same scheme.
@pytest.mark.parametrize("x, nystrom", [
    (-6.0, fr._logdet_extended), (-4.0, fr.logdet_single), (-2.0, fr.logdet_single),
    (0.0, fr.logdet_single), (2.0, fr.logdet_single),
], ids=["-6-80bit", "-4", "-2", "0", "2"])
def test_painleve_agrees_with_the_nystrom_determinant(x, nystrom):
    cfg = GapConfig((x,), (0.0,))
    report = fr.log_det(cfg)
    assert report.route == "painleve"
    assert abs(report.log_f - nystrom(cfg, fr.build_scheme(cfg, 48))) < 1e-11


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
    ref = fr._nystrom_log_det(GapConfig((-2.0,), (0.0,))).log_f
    assert fr.log_E0(cfg) == full - ref
