"""Radial grid, weighted quadrature, and boundary projection."""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hamelflow import (BoundarySpectrum, DivergentTailError, FluxMismatchError,
                       RadialGrid, build_grid, integrate_in_all,
                       integrate_out_all, project_boundary,
                       synthesize_boundary)
from hamelflow.grid import _scan_backward, _scan_forward


def test_grid_construction():
    g = build_grid(1e4, 48)
    assert g.r[0] == 1.0
    assert g.r[-1] == pytest.approx(1e4, rel=1e-14)
    assert g.n_nodes == len(g.r)
    steps = np.diff(np.log(g.r))
    assert np.allclose(steps, g.h, rtol=1e-12)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ValueError):
        RadialGrid(r_max=0.5, nodes_per_decade=48)
    with pytest.raises(ValueError):
        RadialGrid(r_max=1e4, nodes_per_decade=4)
    with pytest.raises(ValueError):
        RadialGrid(r_max=1e4, nodes_per_decade=48, tail_exponent_floor=-0.9)


def test_pure_powers_integrate_exactly(grid):
    # The segment model reproduces single powers to machine precision,
    # including the extrapolated tail beyond r_max.
    for q, zeta in [(-3.0, 0.0), (-4.0, 0.0), (-3.5, 1.0 + 0.5j),
                    (-5.0, -1.0), (-4.2, 0.7 - 0.3j)]:
        f = grid.r ** q
        exact_out = -grid.r ** (q + 2.0) / (q + 2.0 - zeta)
        got = integrate_out_all(grid, f, zeta)
        assert np.max(np.abs(got - exact_out) / np.abs(exact_out)) < 1e-13
        exact_in = grid.r ** zeta * (grid.r ** (q + 2.0 - zeta) - 1.0) \
            / (q + 2.0 - zeta)
        got_in = integrate_in_all(grid, f, zeta)
        err_in = np.abs(got_in - exact_in)[1:] / np.abs(exact_in[1:]).max()
        assert err_in.max() < 1e-13


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-6.0, max_value=-3.5),
       st.floats(min_value=-1.0, max_value=1.5),
       st.floats(min_value=-2.0, max_value=2.0))
def test_random_powers_integrate_exactly(q, zr, zi):
    assume(q + 1.0 - zr <= -1.25)
    g = build_grid(1e3, 16)
    zeta = zr + 1j * zi
    got = integrate_out_all(g, g.r ** q, zeta)
    exact = -g.r ** (q + 2.0) / (q + 2.0 - zeta)
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-12


def test_mixture_error_is_second_order():
    def err(npd):
        g = build_grid(1e4, npd)
        f = g.r ** -2.3 + g.r ** -3.7
        exact = g.r ** -0.3 / 0.3 + g.r ** -1.7 / 1.7
        return np.max(np.abs(integrate_out_all(g, f, 0.0) - exact) / exact)

    e32, e64 = err(32), err(64)
    assert e64 < 1e-4
    assert e32 / e64 > 3.5


def test_tail_divergence_is_reported():
    g = build_grid(1e4, 32)
    with pytest.raises(DivergentTailError):
        integrate_out_all(g, g.r ** -0.5, 0.0)
    # A shallow but convergent tail is clamped to the configured floor
    # (conservative truncation) instead of trusting the noisy fit.
    out = integrate_out_all(g, g.r ** -2.05, 0.0)
    clamped = g.r_max ** -1.05 * g.r_max / 0.1
    assert out[-1].real == pytest.approx(clamped, rel=1e-10)


def test_negligible_tails_are_dropped():
    g = build_grid(1e4, 32)
    f = np.exp(-g.r)          # underflows to zero well before r_max
    out = integrate_out_all(g, f, 0.0)
    assert np.all(np.isfinite(out))
    assert out[-1] == 0.0
    assert out[0].real == pytest.approx(np.exp(-1.0) * 2.0, rel=5e-3)


def test_oscillatory_integrands_take_fallback():
    g = build_grid(1e4, 48)
    f = np.sin(np.log(g.r)) * g.r ** -4.0
    # sign changes disable the power model per segment; result stays finite
    # and close to the closed form of r sin(log r) r^-4.
    got = integrate_out_all(g, f, 0.0)
    assert np.all(np.isfinite(got))
    # int_r^inf s^-3 sin(log s) ds = r^-2 (2 sin(log r) + cos(log r)) / 5
    exact = g.r ** -2.0 * (2.0 * np.sin(np.log(g.r))
                           + np.cos(np.log(g.r))) / 5.0
    assert np.max(np.abs(got - exact)) < 5e-3 * np.abs(exact).max()


def batch_rows(g):
    """Rows taking every rule: power model, fallback segments, a tail that
    changes sign (magnitude-only fit), and a negligible tail."""
    x = np.log(g.r)
    flip = g.r ** -4.0
    flip[-5::2] *= -1.0
    rows = np.array([g.r ** -3.5, np.sin(3.0 * x) * g.r ** -4.0, flip,
                     np.exp(-g.r)], dtype=complex)
    zeta = np.array([1.0 + 0.5j, 0.0, 0.7 - 0.3j, 2.0])
    return rows, zeta


def test_row_stacks_match_single_rows():
    g = build_grid(1e4, 48)
    rows, zeta = batch_rows(g)
    for integrate, sign in ((integrate_out_all, 1.0), (integrate_in_all, -1.0)):
        batch = integrate(g, rows, sign * zeta)
        assert batch.shape == rows.shape
        for f, z, got in zip(rows, sign * zeta, batch):
            one = integrate(g, f, z)
            scale = np.abs(one).max()
            assert np.abs(got - one).max() <= 1e-14 * scale
    with pytest.raises(ValueError):
        integrate_out_all(g, rows, zeta[:2])


def test_one_divergent_row_fails_the_stack():
    g = build_grid(1e4, 48)
    rows, zeta = batch_rows(g)
    bad = np.vstack([rows, g.r ** -0.5])
    with pytest.raises(DivergentTailError) as info:
        integrate_out_all(g, bad, np.append(zeta, 0.0))
    # the integrand s f(s) = s^0.5 is the one fitted
    assert info.value.exponent == pytest.approx(0.5, abs=1e-9)
    with pytest.raises(DivergentTailError):
        integrate_out_all(g, bad[-1], 0.0)


def sequential_scan(local, factor):
    out = []
    acc = 0.0
    for value in local:
        acc = factor * acc + value
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("r_max, npd", [(1e4, 64), (1e6, 64), (1e3, 8)])
def test_block_scan_matches_sequential_recurrence(r_max, npd):
    g = build_grid(r_max, npd)
    rng = np.random.default_rng(5)
    zeta = np.array([0.0, 1.0 + 0.3j, 64.0 + 2.0j, -3.5, -1.5 + 0.5j])
    factor = np.exp(-zeta * g.h)          # |factor| < 1, = 1 and > 1
    local = (rng.standard_normal((zeta.size, g.n_nodes))
             + 1j * rng.standard_normal((zeta.size, g.n_nodes)))
    forward = _scan_forward(local, factor)
    backward = _scan_backward(local, factor)
    assert np.all(np.isfinite(forward)) and np.all(np.isfinite(backward))
    for i in range(zeta.size):
        ref = sequential_scan(local[i], factor[i])
        assert np.abs(forward[i] - ref).max() <= 1e-12 * np.abs(ref).max()
        ref = sequential_scan(local[i, ::-1], factor[i])[::-1]
        assert np.abs(backward[i] - ref).max() <= 1e-12 * np.abs(ref).max()


def test_high_modes_stay_finite_on_long_grids():
    # e^{-zeta h j} underflows long before r_max = 1e6 at zeta = 64; the
    # block scan never forms those powers.
    g = build_grid(1e6, 64)
    f = g.r ** -3.0
    zeta = 64.0 + 1.0j
    out = integrate_out_all(g, f, zeta)
    inn = integrate_in_all(g, f, -zeta)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(inn))
    exact = -g.r ** -1.0 / (-1.0 - zeta)
    assert np.abs(out - exact).max() < 1e-12 * np.abs(exact).max()


def test_domain_doubling_leaves_head_unchanged():
    f = lambda r: r ** -4.0
    g1, g2 = build_grid(1e4, 32), build_grid(1e8, 32)
    o1 = integrate_out_all(g1, f(g1.r), 0.0)[0]
    o2 = integrate_out_all(g2, f(g2.r), 0.0)[0]
    assert abs(o1 - o2) < 1e-12 * abs(o1)


def test_projection_round_trip(rng):
    n_max = 6
    vr = (rng.standard_normal(n_max + 1)
          + 1j * rng.standard_normal(n_max + 1)) * 0.01
    vr[0] = 0.0
    vt = (rng.standard_normal(n_max + 1)
          + 1j * rng.standard_normal(n_max + 1)) * 0.01
    vt[0] = 0.05
    spec = BoundarySpectrum(n_max=n_max, vr=vr, vtheta=vt, phi0=2.5,
                            mu0=0.35, mu=0.3)
    ur, ut = synthesize_boundary(spec, 64)
    assert np.max(np.abs(ur.imag)) < 1e-14
    back = project_boundary(ur.real, ut.real, n_max, mu=0.3)
    assert back.phi0 == pytest.approx(2.5, abs=1e-12)
    assert back.mu0 == pytest.approx(0.35, abs=1e-12)
    assert np.allclose(back.vr, vr, atol=1e-12)
    assert np.allclose(back.vtheta[1:], vt[1:], atol=1e-12)
    assert back.vtheta[0] == pytest.approx(0.35 - 0.3, abs=1e-12)


def test_projection_flux_cross_check():
    theta = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    ur = -2.5 + 0.01 * np.cos(theta)
    ut = 0.3 + 0.01 * np.sin(theta)
    spec = project_boundary(ur, ut, 4, mu=0.3, phi0=2.5)
    assert spec.phi0 == 2.5
    with pytest.raises(FluxMismatchError):
        project_boundary(ur, ut, 4, mu=0.3, phi0=2.6)
    with pytest.raises(ValueError):
        project_boundary(ur[:6], ut[:6], 4, mu=0.3)


def test_with_mu_only_moves_mean_trace():
    spec = BoundarySpectrum(n_max=2, vr=np.zeros(3, complex),
                            vtheta=np.array([0.1, 0.01, 0.0], complex),
                            phi0=2.5, mu0=0.3, mu=0.2)
    moved = spec.with_mu(0.25)
    assert moved.mu == 0.25
    assert moved.vtheta[0] == pytest.approx(0.3 - 0.25)
    assert np.array_equal(moved.vr, spec.vr)
    assert np.array_equal(moved.vtheta[1:], spec.vtheta[1:])

