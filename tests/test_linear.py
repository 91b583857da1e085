"""Mode kernels, boundary assembly, and trace exactness of solve_linear."""

import math

import numpy as np
import pytest

from hamelflow import (BoundarySpectrum, DegenerateFluxError,
                       DivergentTailError, ReferenceFlow, SourceSpectrum,
                       build_grid, linear as linear_module, solve_linear,
                       zeta_pair)
from hamelflow.grid import integrate_out_all, integrate_out_in
from hamelflow.linear import _gamma_response, _mean_particular, _w_response
from hamelflow.verify import manufactured_solution


def steep_sources(grid, n_max, amp=0.01):
    F = np.zeros((n_max + 1, grid.n_nodes), dtype=complex)
    for n in range(n_max + 1):
        F[n] = (amp + 0.2j * amp * n) * grid.r ** (-5.5 - 0.3 * n)
    return SourceSpectrum(n_max, F)


def stream_response(grid, w, k):
    """The particular stream pair of one mode row of w, k = |n|."""
    out, inn = integrate_out_in(grid, w[None], [k], w[None], [-k])
    return _gamma_response(grid, out, inn, np.array([k]))


def vorticity_response(grid, f, phi0, mu, n):
    """The particular vorticity pair (L_w w = -f) of one mode row f, n >= 1."""
    zp, zm = zeta_pair(phi0, mu, n)
    return _w_response(grid, *integrate_out_in(grid, f, zp, f, zm), zp, zm)


def manufactured_errors(grid, phi0, mu, powers, keys=("w", "dw")):
    """Relative sup errors of ``solve_linear`` on the manufactured problem,
    one per listed mode and profile in ``keys``."""
    boundary, sources, exact = manufactured_solution(grid, phi0, mu, 3,
                                                     powers)
    sol = solve_linear(ReferenceFlow(phi0, mu), grid, boundary, sources)
    return [np.abs(getattr(sol, key)[n] - exact[key][n]).max()
            / np.abs(exact[key][n]).max() for n in powers for key in keys]


def observed_order(coarse, fine):
    """Order of convergence per doubling of the nodes per decade."""
    return np.log2(np.asarray(coarse) / np.asarray(fine))


@pytest.mark.parametrize("n, phi0, mu, a", [
    (1, 2.5, 0.3, 2.5),
    (2, 2.5, 0.0, 3.0),
    (3, 3.0, 1.0, 4.0),
])
def test_vorticity_kernel_matches_closed_form(n, phi0, mu, a):
    # The manufactured solution w_n = r^-a of the whole linear problem: its
    # source and trace make solve_linear's kernel response and homogeneous
    # pair add up to the closed form.
    errs = {npd: manufactured_errors(build_grid(1e4, npd), phi0, mu, {n: a})
            for npd in (32, 48, 64, 96)}
    assert max(errs[96]) < 2e-6                   # 3.7e-7 at worst
    assert observed_order(errs[48], errs[96]).min() >= 3.5
    assert observed_order(errs[32], errs[64]).min() >= 3.5


def test_stream_kernel_inverts_mode_laplacian():
    # For w = r^-4 and n = 2 the two weighted integrals evaluate in closed
    # form: out = r^-2/4, in = r^-2 log r, so the particular stream is
    # r^-2 (1/16 + log(r)/4); its mode Laplacian is -w via the identity
    # Delta_n[log(r) r^-n] = -2 n r^(-n-2).
    def errors(grid):
        w = grid.r ** -4.0 + 0j
        (g,), (dg,) = stream_response(grid, w, 2.0)
        exact_g = grid.r ** -2.0 * (1.0 / 16.0 + np.log(grid.r) / 4.0)
        exact_dg = grid.r ** -3.0 * (1.0 / 8.0 - np.log(grid.r) / 2.0)
        return np.abs(g - exact_g).max(), np.abs(dg - exact_dg).max()

    coarse, fine = errors(build_grid(1e4, 48)), errors(build_grid(1e4, 96))
    assert fine[0] < 1e-8 and fine[1] < 2e-8      # 5.4e-9 and 1.1e-8
    assert observed_order(coarse, fine).min() >= 3.5


def test_zero_mode_kernels_match_closed_forms():
    # The mean mode's vorticity through solve_linear on the manufactured
    # w_0 = r^-3 at phi0 = 2.5 (source F_0 = 1.5 r^-5), and its nested
    # stream chain alone: _mean_particular's g_part is Gamma = r^-1 and its
    # dg_part -r^-2 for the exact w = r^-3 (gamma_0 = -Gamma).
    def errors(grid):
        (err_w,) = manufactured_errors(grid, 2.5, 0.0, {0: 3.0}, keys=("w",))
        w = grid.r ** -3.0 + 0j
        *_, g, dg = _mean_particular(grid, w, 3.0 * w / grid.r)
        return (err_w, np.abs(g - grid.r ** -1.0).max(),
                np.abs(dg + grid.r ** -2.0).max())

    coarse, fine = errors(build_grid(1e4, 48)), errors(build_grid(1e4, 96))
    assert fine[0] < 2e-6                         # 7.8e-7 at 96 nodes/decade
    assert fine[1] < 2e-8 and fine[2] < 1e-8      # 9.9e-9 and 4.8e-9
    assert observed_order(coarse, fine).min() >= 3.5


def test_supercritical_flux_worked_example():
    # phi0 = 2.5, mean swirl mismatch 0.1, no sources: the mean-mode pair is
    # exactly gamma0 = 0.2 r^-0.5, w0 = -0.05 r^-2.5.
    grid = build_grid(1e4, 48)
    boundary = BoundarySpectrum.from_modes(2, 2.5, mu0=0.3, mu=0.2)
    sol = solve_linear(ReferenceFlow(2.5, 0.2), grid, boundary)
    assert np.abs(sol.gamma[0] - 0.2 * grid.r ** -0.5).max() < 1e-12
    assert np.abs(sol.w[0] + 0.05 * grid.r ** -2.5).max() < 1e-12
    assert np.abs(sol.dgamma[0] + 0.1 * grid.r ** -1.5).max() < 1e-12
    # gamma_bar and w_bar are the pair's stream and vorticity at r = 1
    assert abs(sol.gamma_bar[0] - 0.2) < 1e-12
    assert abs(sol.w_bar[0] + 0.05) < 1e-12
    for n in (1, 2):
        assert np.abs(sol.gamma[n]).max() == 0.0


def test_mean_mode_alone_is_the_closed_form_pair():
    # n_max = 0 solves the mean mode by itself: the worked example's pair.
    grid = build_grid(1e4, 48)
    boundary = BoundarySpectrum.from_modes(0, 2.5, mu0=0.3, mu=0.2)
    sol = solve_linear(boundary.flow, grid, boundary)
    assert sol.n_max == 0
    assert np.abs(sol.gamma[0] - 0.2 * grid.r ** -0.5).max() < 1e-12
    assert np.abs(sol.w[0] + 0.05 * grid.r ** -2.5).max() < 1e-12


def test_boundary_traces_exact_generic(grid):
    flow = ReferenceFlow(2.5, 0.2)
    boundary = BoundarySpectrum.from_modes(
        4, 2.5, mu0=0.3, mu=0.2,
        vr={1: 0.02 + 0.01j, 2: 0.01, 3: 0.005 - 0.002j},
        vtheta={1: 0.01, 2: -0.01j, 3: 0.004, 4: 0.002})
    sol = solve_linear(flow, grid, boundary, steep_sources(grid, 4))
    for n in range(1, 5):
        assert abs(1j * n * sol.gamma[n, 0] - boundary.vr[n]) < 1e-8
        assert abs(-sol.dgamma[n, 0] - boundary.vtheta[n]) < 1e-8
    assert abs(-sol.dgamma[0, 0].real - (0.3 - 0.2)) < 1e-8


def test_boundary_traces_exact_resonant(grid):
    # phi0 = 3.2 with zero circulation puts mode 3 exactly on the
    # logarithmic resonance; traces must still be met.
    flow = ReferenceFlow(3.2, 0.0)
    boundary = BoundarySpectrum.from_modes(4, 3.2, mu0=0.1, mu=0.0,
                                           vr={3: 0.01 + 0.004j},
                                           vtheta={3: -0.002j})
    sol = solve_linear(flow, grid, boundary, steep_sources(grid, 4))
    assert abs(zeta_pair(3.2, 0.0, 3)[1] + 2.0 + 3.0) < 1e-12
    assert abs(1j * 3 * sol.gamma[3, 0] - boundary.vr[3]) < 1e-8
    assert abs(-sol.dgamma[3, 0] - boundary.vtheta[3]) < 1e-8


def homogeneous_pair(grid, n, zm, vr, vtheta, g_part_1, dg_part_1):
    """(gamma_bar, w_bar, gamma_hom) of mode n >= 1 from its trace and the
    particular stream pair at r = 1, with phi by a direct expm1."""
    a = -1j * vr / n + g_part_1
    c = n * a + dg_part_1 - vtheta
    delta = zm + 2.0 + n
    log_r = np.log(grid.r)
    phi = np.expm1(delta * log_r) / delta if delta != 0 else log_r
    return a, (2.0 * n - delta) * c, grid.r ** -float(n) * (a + c * phi)


@pytest.mark.parametrize("phi0, mu", [(2.5, 0.2), (3.2, 0.0)])
def test_batched_modes_match_one_mode_kernels(grid, phi0, mu):
    # solve_linear integrates all nonzero modes in one stack; every mode
    # must agree with the kernels applied to its row alone and with the
    # closed-form homogeneous pair (phi0 = 3.2, mu = 0 puts mode 3 on the
    # log resonance, where phi is log r).
    flow = ReferenceFlow(phi0, mu)
    boundary = BoundarySpectrum.from_modes(
        4, phi0, mu0=mu + 0.1, mu=mu, vr={1: 0.02 + 0.01j, 3: 0.01 + 0.004j},
        vtheta={2: -0.01j, 3: -0.002j, 4: 0.002})
    sources = steep_sources(grid, 4)
    sol = solve_linear(flow, grid, boundary, sources)
    close = lambda a, b: np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
    for n in range(1, 5):
        zm = zeta_pair(phi0, mu, n)[1]
        w_part, dw_part = vorticity_response(grid, sources.F[n], phi0, mu, n)
        (g_part,), (dg_part,) = stream_response(grid, w_part, float(n))
        gamma_bar, w_bar, gamma_hom = homogeneous_pair(
            grid, n, zm, boundary.vr[n], boundary.vtheta[n], g_part[0],
            dg_part[0])
        assert close(sol.gamma_bar[n], gamma_bar)
        assert close(sol.w_bar[n], w_bar)
        assert close(sol.w[n], w_bar * grid.r ** zm - w_part)
        assert close(sol.gamma[n], gamma_hom - g_part)


@pytest.mark.parametrize("eps", [0.0, 3e-9, 3e-8, 1e-6, -3e-8, -1e-6])
def test_homogeneous_pair_is_smooth_through_the_log_resonance(eps):
    # Mode 3 at mu = 0 turns log-resonant at phi0 = 3.2 (zeta_3^- + 5 = 0);
    # delta = zeta_3^- + 5 is negative above it and positive below.  The
    # sourceless pair r^-3 (a + c phi), phi = (r^delta - 1)/delta, is
    # checked node by node against phi's series in delta L, L = log r:
    # a switch between a power pair and a log pair lost up to 6e-8 here.
    grid = build_grid(1e4, 64)
    phi0 = 3.2 + eps
    boundary = BoundarySpectrum.from_modes(3, phi0, mu0=0.0, mu=0.0,
                                           vr={3: 3j}, vtheta={3: 1.0})
    sol = solve_linear(boundary.flow, grid, boundary)
    zm = zeta_pair(phi0, 0.0, 3)[1]
    delta = zm + 5.0
    assert abs(delta) < 1e-5
    r, log_r = grid.r, np.log(grid.r)
    phi = log_r * sum((delta * log_r) ** j / math.factorial(j + 1)
                      for j in range(5))
    a, c = 1.0, 2.0       # -i vr/3 and 3 a - vtheta
    w = (6.0 - delta) * c * r ** -5.0 * (1.0 + delta * phi)
    exact = {"gamma": r ** -3.0 * (a + c * phi),
             "dgamma": r ** -4.0 * (c * (1.0 + delta * phi)
                                    - 3.0 * (a + c * phi)),
             "w": w, "dw": zm * w / r}
    for key, want in exact.items():
        got = getattr(sol, key)[3]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), key


def test_linearity_in_boundary_and_sources(grid):
    flow = ReferenceFlow(2.5, 0.2)
    b1 = BoundarySpectrum.from_modes(3, 2.5, mu0=0.26, mu=0.2, vr={1: 0.01},
                                     vtheta={2: 0.02j})
    b2 = BoundarySpectrum.from_modes(3, 2.5, mu0=0.34, mu=0.2,
                                     vr={2: -0.005j},
                                     vtheta={1: 0.01, 3: 0.003})
    s1 = steep_sources(grid, 3, amp=0.01)
    s2 = steep_sources(grid, 3, amp=-0.004)
    both = BoundarySpectrum(n_max=3, vr=b1.vr + b2.vr,
                            vtheta=b1.vtheta + b2.vtheta, phi0=2.5,
                            mu0=0.26 + 0.34 - 0.2, mu=0.2)
    sol1 = solve_linear(flow, grid, b1, s1)
    sol2 = solve_linear(flow, grid, b2, s2)
    sol = solve_linear(flow, grid, both,
                       SourceSpectrum(3, s1.F + s2.F))
    scale = np.abs(sol.gamma).max()
    assert np.abs(sol.gamma - sol1.gamma - sol2.gamma).max() < 1e-12 * scale
    wscale = np.abs(sol.w).max()
    assert np.abs(sol.w - sol1.w - sol2.w).max() < 1e-12 * wscale


def test_solve_linear_is_linear():
    # Two unrelated oscillating complex-power sources: the quadrature is a
    # fixed-weight linear rule, so superposition holds to the tail fit's
    # rounding, not only for proportional sources.
    n_max = 8
    grid = build_grid(1e4, 64)
    flow = ReferenceFlow(2.5, 0.2)
    boundary = BoundarySpectrum.from_modes(n_max, 2.5, mu0=0.2, mu=0.2)
    n = np.arange(n_max + 1)[:, None]
    f1 = (1.0 + 0.5j) * grid.r ** (-6.0 - 0.1 * n + 1.0j)
    f2 = (0.3 - 1.0j) * grid.r ** (-6.5 - 0.2 * n - 0.5j)

    def solve(F):
        return solve_linear(flow, grid, boundary, SourceSpectrum(n_max, F))

    both, one, two = solve(f1 + f2), solve(f1), solve(f2)
    for key in ("gamma", "w"):
        total = getattr(both, key)
        diff = total - getattr(one, key) - getattr(two, key)
        assert np.abs(diff).max() <= 1e-7 * np.abs(total).max()


def test_conjugate_boundary_gives_conjugate_solution(grid):
    # At zero circulation the mode operators are real, so reflecting the
    # boundary data theta -> -theta (vr -> -conj vr through the i n gamma
    # trace, vtheta -> conj vtheta) must conjugate the whole solution.
    # With mu != 0 conjugation swaps n and -n instead.
    flow = ReferenceFlow(2.5, 0.0)
    b = BoundarySpectrum.from_modes(2, 2.5, mu0=0.1, mu=0.0,
                                    vr={1: 0.01 + 0.02j},
                                    vtheta={2: 0.05 - 0.01j})
    refl = BoundarySpectrum(n_max=2, vr=-np.conj(b.vr),
                            vtheta=np.conj(b.vtheta), phi0=2.5, mu0=0.1,
                            mu=0.0)
    sol = solve_linear(flow, grid, b)
    sol_r = solve_linear(flow, grid, refl)
    assert np.abs(sol_r.gamma - np.conj(sol.gamma)).max() < 1e-13


def test_degenerate_flux_band(grid):
    # the spectrum checks its flow when it is built: no solve is reached
    with pytest.raises(DegenerateFluxError, match="degenerate band"):
        BoundarySpectrum.from_modes(1, 2.0 + 1e-7, mu0=0.3, mu=0.2)
    # phi0 = mu = 0 would divide by (zeta_1^- + 2)^2 - 1 = 0
    with pytest.raises(DegenerateFluxError, match="phi0=0 with mu=0"):
        BoundarySpectrum.from_modes(1, 0.0, mu0=0.0, mu=0.0, vr={1: 0.01})
    # exactly 2 is fine: the mean vorticity response is dropped and the
    # stream correction comes from the direct integral form; so is just
    # below 2, where the solve never divides by phi0 - 2
    for phi0 in (2.0, 2.0 - 1e-7):
        boundary = BoundarySpectrum.from_modes(1, phi0, mu0=0.2, mu=0.2)
        sol = solve_linear(ReferenceFlow(phi0, 0.2), grid, boundary)
        assert np.all(np.isfinite(sol.gamma))
        assert sol.flow is boundary.flow


def test_sourceless_mean_mode_is_positive_zero(grid):
    # An absent mean mode (no source, no circulation deficit) comes back
    # +0, not -0, in both regimes, like every other sourceless mode.
    for phi0, mu in ((3.0, 1.0), (3.2, 0.0), (1.5, 0.7)):
        boundary, sources, _ = manufactured_solution(
            grid, phi0, mu, 3, {1: 2.5, 2: 3.0, 3: 4.0})
        sol = solve_linear(boundary.flow, grid, boundary, sources)
        mean = np.concatenate([sol.gamma[0], sol.dgamma[0], sol.w[0],
                               sol.dw[0], sol.w_bar[:1], sol.gamma_bar[:1]])
        assert not np.any(mean)
        assert not np.any(np.signbit(mean.real) | np.signbit(mean.imag))


def test_solver_checks_parameter_consistency(grid):
    boundary = BoundarySpectrum.from_modes(1, 2.5, mu0=0.3, mu=0.25)
    with pytest.raises(ValueError):
        solve_linear(ReferenceFlow(2.5, 0.2), grid, boundary)
    with pytest.raises(ValueError):
        solve_linear(ReferenceFlow(2.4, 0.25), grid, boundary)


@pytest.mark.parametrize("phi0, mu", [(1.5, 0.7), (2.5, 0.2)])
def test_mean_mode_rows_are_bitwise_the_one_row_chain(grid, phi0, mu,
                                                      monkeypatch):
    # solve_linear integrates the mean mode's first two kernels as extra
    # rows of the vorticity and stream out stacks, each family's out and in
    # stacks in one call, then its nested stream quadratures in
    # _mean_particular: four kernel calls.  The mean particular rows must
    # be the bytes of the one-row chain: two out integrals for the
    # vorticity, then the nested stream quadratures.  At phi0 <= 2 there is
    # no pair, and every mean output is that chain's, negated from +0.
    boundary = BoundarySpectrum.from_modes(4, phi0, mu0=mu + 0.1, mu=mu,
                                           vr={1: 0.02},
                                           vtheta={2: -0.01j, 3: 0.004})
    sources = steep_sources(grid, 4)
    sources.F[0] *= 1.0 + 0.3j * np.cos(2.0 * np.log(grid.r))
    calls, seen = [], []
    for name in ("integrate_out_all", "integrate_in_all", "integrate_out_in"):
        real = getattr(linear_module, name)
        monkeypatch.setattr(linear_module, name,
                            lambda *a, _real=real: calls.append(1) or _real(*a))
    monkeypatch.setattr(linear_module, "_mean_particular",
                        lambda *a: seen.append(_mean_particular(*a)) or seen[-1])
    sol = solve_linear(ReferenceFlow(phi0, mu), grid, boundary, sources)
    assert len(calls) == 4 and len(seen) == 1
    inner = integrate_out_all(grid, sources.F[0] / grid.r, -(phi0 + 1.0))
    w = integrate_out_all(grid, inner / grid.r, 0.0)
    want = _mean_particular(grid, w, inner)
    for a, b in zip(seen[0], want):
        assert a.tobytes() == b.tobytes()
    if phi0 <= 2.0:
        got = (sol.gamma[0], sol.dgamma[0], sol.w[0], sol.dw[0], sol.w_bar[0])
        w_part, dw_part, g_part, dg_part = want
        chain = (0.0 - g_part, 0.0 - dg_part, 0.0 - w_part, 0.0 - dw_part, 0j)
        for a, b in zip(got, chain):
            assert (np.asarray(a).tobytes()
                    == np.asarray(b, dtype=complex).tobytes())
    assert (sol.w_bar[0] != 0) == (phi0 > 2.0)


def test_diverging_mean_mode_row_is_named_in_its_stack(grid):
    # F_0 ~ r^-(phi0+1.5) makes the sink-weighted integrand
    # F_0(s) (s/r)^(phi0+1) decay like s^-0.5 beyond r_max; the other
    # sources decay fast.  The error names the mean mode's row under the
    # n_max vorticity rows.
    phi0, n_max = 1.5, 4
    sources = steep_sources(grid, n_max)
    sources.F[0] = 0.01 * grid.r ** -(phi0 + 1.5)
    boundary = BoundarySpectrum.from_modes(n_max, phi0, mu0=1.0, mu=1.0,
                                           vr={1: 0.01})
    with pytest.raises(DivergentTailError) as info:
        solve_linear(ReferenceFlow(phi0, 1.0), grid, boundary, sources)
    exc = info.value
    assert exc.row == n_max
    assert exc.zeta == -(phi0 + 1.0)
    assert exc.exponent == pytest.approx(-0.5, abs=1e-6)
    assert f"kernel row {n_max}, zeta=-2.5+0j" in str(exc)
