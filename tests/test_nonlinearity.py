"""Truncated convolution of the advection nonlinearity."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hamelflow import (BoundarySpectrum, ReferenceFlow, build_grid,
                       compute_sources, convolution_sources, solve_linear)


def test_single_harmonic_hand_oracle(grid):
    # gamma = 2 cos(theta)/r, w = 2 cos(theta)/r^3 gives the advection term
    # 4 sin(2 theta)/r^6: pure second harmonic with coefficient -2i r^-6,
    # and exact cancellation of the mean.
    n_max = 3
    shape = (n_max + 1, grid.n_nodes)
    gamma = np.zeros(shape, complex)
    dgamma = np.zeros(shape, complex)
    w = np.zeros(shape, complex)
    dw = np.zeros(shape, complex)
    gamma[1] = grid.r ** -1.0
    dgamma[1] = -grid.r ** -2.0
    w[1] = grid.r ** -3.0
    dw[1] = -3.0 * grid.r ** -4.0
    src = convolution_sources(grid, gamma, dgamma, w, dw)
    exact2 = -2j * grid.r ** -6.0
    assert np.abs(src.F[2] - exact2).max() < 1e-13
    assert np.abs(src.F[0]).max() < 1e-15
    assert np.abs(src.F[1]).max() < 1e-15
    assert np.abs(src.F[3]).max() < 1e-15


def test_matches_pseudo_spectral_product(grid, rng):
    # Cross-check against a dealiased FFT evaluation of
    # u_r dw/dr + (u_theta / r) dw/dtheta with u = (d_theta gamma / r,
    # -d_r gamma) built from the same truncated modes.
    n_max = 4
    shape = (n_max + 1, grid.n_nodes)
    gamma = np.zeros(shape, complex)
    dgamma = np.zeros(shape, complex)
    w = np.zeros(shape, complex)
    dw = np.zeros(shape, complex)
    for n in range(n_max + 1):
        amp = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.1
        q = 1.0 + 0.3 * n
        gamma[n] = amp * grid.r ** -q
        dgamma[n] = -q * amp * grid.r ** (-q - 1.0)
        wamp = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.1
        w[n] = wamp * grid.r ** (-q - 2.0)
        dw[n] = -(q + 2.0) * wamp * grid.r ** (-q - 3.0)
    gamma[0] = gamma[0].real
    dgamma[0] = dgamma[0].real
    w[0] = w[0].real
    dw[0] = dw[0].real
    src = convolution_sources(grid, gamma, dgamma, w, dw)

    m = 32                                # >= 2 * (2 n_max) + 1, dealiased
    theta = 2.0 * np.pi * np.arange(m) / m
    modes = np.concatenate([np.arange(0, n_max + 1),
                            np.arange(-n_max, 0)])

    def synth(rows):
        full = np.zeros((m, grid.n_nodes), complex)
        for k, n in enumerate(modes):
            coeff = rows[n] if n >= 0 else np.conj(rows[-n])
            full += np.exp(1j * n * theta)[:, None] * coeff[None, :]
        return full.real

    g_t = synth(gamma)          # gamma(theta, r)
    dg_t = synth(dgamma)
    w_t = synth(w)
    dw_t = synth(dw)
    # d_theta via spectral differentiation on the synthesized samples
    def dtheta(samples):
        coeff = np.fft.fft(samples, axis=0) / m
        k = np.fft.fftfreq(m, d=1.0 / m)
        return np.real(np.fft.ifft(1j * k[:, None] * coeff * m, axis=0))

    ur = dtheta(g_t) / grid.r[None, :]
    ut = -dg_t
    advect = ur * dw_t + ut * dtheta(w_t) / grid.r[None, :]
    coeffs = np.fft.fft(advect, axis=0) / m
    scale = np.abs(src.F).max()
    for n in range(n_max + 1):
        assert np.abs(coeffs[n] - src.F[n]).max() < 1e-12 * scale


def test_real_fields_give_real_mean_source(grid, rng):
    n_max = 3
    shape = (n_max + 1, grid.n_nodes)
    gamma = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    gamma *= 0.01 * grid.r ** -1.5
    dgamma = (rng.standard_normal(shape)
              + 1j * rng.standard_normal(shape)) * 0.01 * grid.r ** -2.5
    w = (rng.standard_normal(shape)
         + 1j * rng.standard_normal(shape)) * 0.01 * grid.r ** -3.5
    dw = (rng.standard_normal(shape)
          + 1j * rng.standard_normal(shape)) * 0.01 * grid.r ** -4.5
    for rows in (gamma, dgamma, w, dw):
        rows[0] = rows[0].real
    src = convolution_sources(grid, gamma, dgamma, w, dw)
    assert np.abs(src.F[0].imag).max() < 1e-16 * max(np.abs(src.F).max(), 1.0)


def test_compute_sources_wraps_solution(grid):
    flow = ReferenceFlow(2.5, 0.2)
    boundary = BoundarySpectrum.from_modes(2, 2.5, 0.3, 0.2, vr={2: 0.01},
                                           vtheta={1: 0.01})
    sol = solve_linear(flow, grid, boundary)
    src = compute_sources(sol)
    direct = convolution_sources(grid, sol.gamma, sol.dgamma, sol.w, sol.dw)
    assert np.array_equal(src.F, direct.F)
    assert src.n_max == 2


def per_n_sources(grid, gamma, dgamma, w, dw):
    """The convolution formed row by row from gathered copies: for each n,
    the terms of every pair (l, n - l) stacked and summed over l."""
    n_max = gamma.shape[0] - 1
    extend = lambda a: np.concatenate([np.conj(a[:0:-1]), a], axis=0)
    g_all, dg_all, w_all, dw_all = map(extend, (gamma, dgamma, w, dw))
    F = np.zeros((n_max + 1, grid.n_nodes), dtype=complex)
    for n in range(n_max + 1):
        ls = np.arange(max(-n_max, n - n_max), min(n_max, n + n_max) + 1)
        li = ls + n_max
        ki = (n - ls) + n_max
        terms = (ls[:, None] * g_all[li] * dw_all[ki]
                 - dg_all[li] * ((n - ls)[:, None] * w_all[ki]))
        F[n] = (1j / grid.r) * terms.sum(axis=0)
    return F


_SMALL_GRID = build_grid(1e2, 8)


@st.composite
def mode_stacks(draw):
    """Four (n_max + 1, nodes) complex stacks with exact zeros, -0.0 parts
    and whole zero or -0.0 rows.  The rows of (gamma, dgamma) above a drawn
    reach, and independently those of (w, dw), are zero or -0.0 blocks, so
    the highest nonzero row of a pair ranges over -1 (all zero)..n_max."""
    n_max = draw(st.integers(0, 8))
    shape = (n_max + 1, _SMALL_GRID.n_nodes)
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    stacks = []
    for i in range(4):
        if i % 2 == 0:
            reach = draw(st.integers(-1, n_max))
        scale = 10.0 ** rng.integers(-30, 3, (n_max + 1, 1))
        a = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
        a[rng.random(shape) < 0.3] = 0.0
        a.real[rng.random(shape) < 0.2] = -0.0
        a.imag[rng.random(shape) < 0.2] = -0.0
        kind = draw(st.sampled_from(["none", "zero", "negzero"]))
        if kind != "none":
            a[draw(st.integers(0, n_max))] = 0.0 if kind == "zero" else -0.0
        a[reach + 1:] = draw(st.sampled_from([0.0, complex(-0.0, -0.0)]))
        stacks.append(a)
    return stacks


@settings(max_examples=150, deadline=None)
@given(mode_stacks())
def test_slice_accumulation_is_bitwise_the_per_n_sum(stacks):
    got = convolution_sources(_SMALL_GRID, *stacks).F
    want = per_n_sources(_SMALL_GRID, *stacks)
    assert got.tobytes() == want.tobytes()
    if not (np.any(stacks[:2]) and np.any(stacks[2:])):
        # no pair of reached modes: +0 everywhere
        assert not np.any(got)
        assert not np.any(np.signbit(got.real) | np.signbit(got.imag))


def test_slice_accumulation_keeps_zero_signs_of_the_per_n_sum():
    # Every term of row 0 is -0.0 or +0: the per-n sum starts from +0, so
    # the row is +0 whatever the signs of the zeros it adds.
    grid = _SMALL_GRID
    shape = (3, grid.n_nodes)
    neg = np.full(shape, complex(-0.0, -0.0))
    one = np.ones(shape, dtype=complex)
    for stacks in ((neg, neg, neg, neg), (neg, one, -one, neg),
                   (one, neg, neg, -one)):
        got = convolution_sources(grid, *stacks).F
        assert got.tobytes() == per_n_sources(grid, *stacks).tobytes()
