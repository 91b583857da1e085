"""Reference flows, mode exponents, and the existence condition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamelflow import (BoundarySpectrum, DegenerateFluxError, ReferenceFlow,
                       alpha_window, build_grid, circulation_threshold,
                       existence_condition, linear, project_boundary,
                       re_zeta_minus_closed_form, rho_decay, solve_linear,
                       zeta_pair)
from hamelflow.flows import circulation_is_free

finite_phi0 = st.floats(min_value=0.0, max_value=6.0)
finite_mu = st.floats(min_value=-50.0, max_value=50.0)
mode_index = st.integers(min_value=-32, max_value=32).filter(lambda n: n != 0)


def test_flow_validation():
    with pytest.raises(ValueError):
        ReferenceFlow(-0.1, 0.0)
    with pytest.raises(ValueError):
        ReferenceFlow(float("nan"), 0.0)
    flow = ReferenceFlow(2.5, -0.3)
    assert flow.phi0 == 2.5 and flow.mu == -0.3
    # the degenerate band is the upper side of 2 only: below it the mean
    # mode never divides by phi0 - 2
    for phi0, mu in ((2.0 + 1e-7, 0.2), (2.0 + 9.9e-7, 0.0), (0.0, 0.0)):
        with pytest.raises(DegenerateFluxError):
            ReferenceFlow(phi0, mu)
    with pytest.raises(ValueError, match="finite"):
        ReferenceFlow(2.5, float("inf"))
    for phi0, mu in ((2.0 - 1e-7, 0.2), (2.0, 0.2), (2.0 + 1e-6, 0.2),
                     (0.0, 0.1), (0.3, 0.0)):
        assert ReferenceFlow(phi0, mu).phi0 == phi0
    assert [circulation_is_free(p) for p in (1.5, 2.0, 2.0 + 1e-6, 2.5)] == [
        False, False, True, True]
    assert linear.DegenerateFluxError is DegenerateFluxError


def test_zeta_pair_solves_characteristic_quadratic():
    # Independent oracle: both exponents must be roots of
    # z^2 + phi0 z - (i n mu + n^2) = 0, with the plus root on the right.
    for phi0, mu, n in [(2.5, 0.3, 1), (2.5, 0.0, 2), (3.0, 1.0, 3),
                        (0.0, 4.0, 1), (1.0, -2.0, -4), (5.5, 17.0, 12)]:
        zp, zm = zeta_pair(phi0, mu, n)
        rhs = 1j * n * mu + n * n
        for z in (zp, zm):
            assert abs(z * z + phi0 * z - rhs) < 1e-10 * max(1.0, abs(rhs))
        assert zp.real >= -phi0 / 2.0 >= zm.real


@settings(max_examples=80, deadline=None)
@given(finite_phi0, finite_mu, mode_index)
def test_exponent_sum_and_product(phi0, mu, n):
    zp, zm = zeta_pair(phi0, mu, n)
    scale = max(1.0, abs(zp), abs(zm))
    assert abs(zp + zm + phi0) < 1e-12 * scale
    assert abs(zp * zm + (1j * n * mu + n * n)) < 1e-12 * scale * scale


@settings(max_examples=80, deadline=None)
@given(finite_phi0, finite_mu, mode_index)
def test_closed_form_real_part(phi0, mu, n):
    _, zm = zeta_pair(phi0, mu, n)
    closed = re_zeta_minus_closed_form(phi0, mu, n)
    assert abs(zm.real - closed) < 1e-12 * max(1.0, abs(closed))


@settings(max_examples=60, deadline=None)
@given(finite_phi0, finite_mu, mode_index)
def test_opposite_modes_conjugate(phi0, mu, n):
    zp, zm = zeta_pair(phi0, mu, n)
    zp2, zm2 = zeta_pair(phi0, mu, -n)
    assert abs(zp2 - np.conj(zp)) < 1e-12 * max(1.0, abs(zp))
    assert abs(zm2 - np.conj(zm)) < 1e-12 * max(1.0, abs(zm))


def test_branch_continuity_across_real_axis():
    # The square root uses the branch with positive real part, so the
    # exponents must not jump when mu crosses zero.
    for n in (1, 2, 5):
        zp_up, zm_up = zeta_pair(2.5, 1e-12, n)
        zp_dn, zm_dn = zeta_pair(2.5, -1e-12, n)
        assert abs(zp_up - zp_dn) < 1e-10
        assert abs(zm_up - zm_dn) < 1e-10


def test_rho_decay_matches_first_mode():
    for phi0, mu in [(0.0, 7.0), (2.5, 0.2), (1.0, 5.0)]:
        zm = zeta_pair(phi0, mu, 1)[1]
        assert rho_decay(phi0, mu) == pytest.approx(abs(zm.real), rel=1e-14)


@settings(max_examples=80, deadline=None)
@given(finite_phi0, st.floats(min_value=0.0, max_value=50.0))
def test_rho_monotone_in_circulation(phi0, mu):
    assert rho_decay(phi0, mu + 0.5) >= rho_decay(phi0, mu) - 1e-12


def test_existence_threshold_bisection():
    # At zero flux the condition flips at 4 sqrt(3).
    lo, hi = 0.0, 20.0
    assert not existence_condition(0.0, lo)
    assert existence_condition(0.0, hi)
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if existence_condition(0.0, mid):
            hi = mid
        else:
            lo = mid
    assert hi == pytest.approx(4.0 * math.sqrt(3.0), abs=1e-9)
    assert circulation_threshold(0.0) == pytest.approx(4.0 * math.sqrt(3.0),
                                                       rel=1e-14)


def test_threshold_vanishes_above_three_halves():
    assert circulation_threshold(1.5) == 0.0
    assert circulation_threshold(2.0) == 0.0
    assert existence_condition(1.5 + 1e-9, 0.0)
    assert not existence_condition(1.5 - 1e-9, 0.0)


@settings(max_examples=120, deadline=None)
@given(finite_phi0, finite_mu)
def test_existence_equivalent_to_supercritical_decay(phi0, mu):
    rho = rho_decay(phi0, mu)
    if abs(rho - 2.0) < 1e-9:
        return
    assert existence_condition(phi0, mu) == (rho > 2.0)


def test_alpha_window_values():
    alpha, feasible = alpha_window(2.5, 0.2)
    assert feasible
    assert alpha == pytest.approx(0.5 * min(rho_decay(2.5, 0.2) - 2.0, 1.0),
                                  rel=1e-14)
    alpha, feasible = alpha_window(0.0, 1.0)
    assert not feasible
    assert alpha == pytest.approx(1e-3)
    alpha, feasible = alpha_window(0.0, 30.0)
    assert feasible and alpha == pytest.approx(0.5)


def test_flux_circulation_recovers_means():
    # project_boundary infers the flux and circulation from the sample means.
    theta = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
    ur = -2.5 + 0.3 * np.cos(theta)
    ut = 0.7 + 0.1 * np.sin(2 * theta)
    spec = project_boundary(ur, ut, 4, mu=0.7)
    assert spec.phi0 == pytest.approx(2.5, abs=1e-13)
    assert spec.mu0 == pytest.approx(0.7, abs=1e-13)
    with pytest.raises(ValueError):
        project_boundary(np.array([1.0, 2.0]), np.array([1.0, 2.0]), 1, mu=0.0)


def test_resonance_closed_form_flux():
    # With zero circulation, mode n is resonant (zeta_n^- + 2 + n = 0)
    # exactly at phi0 = 4 (1 + n) / (2 + n); solve_linear meets a trace on
    # that mode there and just beside it.
    grid = build_grid(1e3, 16)

    def trace_defect(phi0, n):
        spec = BoundarySpectrum.from_modes(6, phi0, 0.0, 0.0,
                                           vr={n: 0.01}, vtheta={n: 0.005j})
        sol = solve_linear(ReferenceFlow(phi0, 0.0), grid, spec)
        assert np.all(np.isfinite(sol.gamma)) and np.all(np.isfinite(sol.w))
        return max(abs(1j * n * sol.gamma[n, 0] - spec.vr[n]),
                   abs(-sol.dgamma[n, 0] - spec.vtheta[n]))

    for n in range(1, 7):
        phi0 = 4.0 * (1.0 + n) / (2.0 + n)
        assert abs(zeta_pair(phi0, 0.0, n)[1] + 2.0 + n) < 1e-12
        assert trace_defect(phi0, n) < 1e-15
        assert trace_defect(phi0 + 1e-6, n) < 1e-15

