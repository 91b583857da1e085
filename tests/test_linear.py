"""Mode kernels, boundary assembly, and trace exactness of solve_linear."""

import numpy as np
import pytest

from hamelflow import (BoundarySpectrum, DegenerateFluxError,
                       DivergentTailError, ReferenceFlow, SourceSpectrum,
                       build_grid, linear as linear_module,
                       solve_gamma_zero, solve_linear, solve_w_particular,
                       solve_w_zero, zeta_pair)
from hamelflow.grid import integrate_out_in
from hamelflow.linear import (_assemble_zero, _gamma_response,
                              _trace_amplitudes)


def mode_boundary(n_max, phi0, mu0, mu, vr=None, vtheta=None):
    vr_arr = np.zeros(n_max + 1, dtype=complex)
    vt_arr = np.zeros(n_max + 1, dtype=complex)
    for n, val in (vr or {}).items():
        vr_arr[n] = val
    for n, val in (vtheta or {}).items():
        vt_arr[n] = val
    vt_arr[0] = mu0 - mu
    return BoundarySpectrum(n_max=n_max, vr=vr_arr, vtheta=vt_arr, phi0=phi0,
                            mu0=mu0, mu=mu)


def steep_sources(grid, n_max, amp=0.01):
    F = np.zeros((n_max + 1, grid.n_nodes), dtype=complex)
    for n in range(n_max + 1):
        F[n] = (amp + 0.2j * amp * n) * grid.r ** (-5.5 - 0.3 * n)
    return SourceSpectrum(n_max, F)


def stream_response(grid, w, k):
    """The particular stream pair of one mode row of w, k = |n|."""
    out, inn = integrate_out_in(grid, w[None], [k], w[None], [-k])
    return _gamma_response(grid, out, inn, np.array([k]))


def observed_order(coarse, fine):
    """Order of convergence per doubling of the nodes per decade."""
    return np.log2(np.asarray(coarse) / np.asarray(fine))


@pytest.mark.parametrize("n, phi0, mu, a", [
    (1, 2.5, 0.3, 2.5),
    (2, 2.5, 0.0, 3.0),
    (3, 3.0, 1.0, 4.0),
])
def test_vorticity_kernel_matches_closed_form(n, phi0, mu, a):
    # The source C r^(-(a+2)) with C = a^2 - a phi0 - (i n mu + n^2) has the
    # exact response -r^(-a) plus a homogeneous multiple of r^(zeta-).
    flow = ReferenceFlow(phi0, mu)
    zp, zm = zeta_pair(phi0, mu, n)
    c = a * a - a * phi0 - (1j * n * mu + n * n)

    def errors(grid):
        f = c * grid.r ** (-(a + 2.0))
        w, dw = solve_w_particular(grid, flow, n, f)
        exact = (-grid.r ** (-a)
                 + (c / (zp - zm)) * grid.r ** zm / (a + zm))
        dexact = (a * grid.r ** (-a - 1.0)
                  + (c / (zp - zm)) * zm * grid.r ** (zm - 1.0) / (a + zm))
        return (np.abs(w - exact).max() / np.abs(exact).max(),
                np.abs(dw - dexact).max() / np.abs(dexact).max())

    coarse, fine = errors(build_grid(1e4, 48)), errors(build_grid(1e4, 96))
    assert max(fine) < 2e-6                       # 1.8e-6 at worst
    assert observed_order(coarse, fine).min() >= 3.5


def test_kernel_error_drops_with_refinement():
    from hamelflow.verify import manufactured_vorticity_error
    errs = {npd: max(manufactured_vorticity_error(build_grid(1e4, npd),
                                                  1, 2.5, 0.3, 2.5),
                     1e-16)
            for npd in (32, 64)}
    assert errs[64] <= max(errs[32] / 3.5, 1e-12)


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
    phi0, b = 2.5, 5.0

    def errors(grid):
        w, dw = solve_w_zero(grid, phi0, grid.r ** (-b) + 0j)
        exact = grid.r ** (2.0 - b) / ((b - 2.0) * (b - phi0 - 2.0))
        g, dg = solve_gamma_zero(grid, grid.r ** (-3.0) + 0j)
        return (np.abs(w - exact).max() / np.abs(exact).max(),
                np.abs(g - grid.r ** (-1.0)).max(),
                np.abs(dg + grid.r ** (-2.0)).max())

    coarse, fine = errors(build_grid(1e4, 48)), errors(build_grid(1e4, 96))
    assert fine[0] < 2e-6                         # 1.6e-6 at 96 nodes/decade
    assert fine[1] < 2e-8 and fine[2] < 1e-8      # 9.9e-9 and 4.8e-9
    assert observed_order(coarse, fine).min() >= 3.5


def test_supercritical_flux_worked_example():
    # phi0 = 2.5, mean swirl mismatch 0.1, no sources: the mean-mode pair is
    # exactly gamma0 = 0.2 r^-0.5, w0 = -0.05 r^-2.5.
    grid = build_grid(1e4, 48)
    boundary = mode_boundary(2, 2.5, mu0=0.3, mu=0.2)
    sol = solve_linear(ReferenceFlow(2.5, 0.2), grid, boundary)
    assert np.abs(sol.gamma[0] - 0.2 * grid.r ** -0.5).max() < 1e-12
    assert np.abs(sol.w[0] + 0.05 * grid.r ** -2.5).max() < 1e-12
    assert np.abs(sol.dgamma[0] + 0.1 * grid.r ** -1.5).max() < 1e-12
    for n in (1, 2):
        assert np.abs(sol.gamma[n]).max() == 0.0


def test_boundary_traces_exact_generic(grid):
    flow = ReferenceFlow(2.5, 0.2)
    boundary = mode_boundary(4, 2.5, mu0=0.3, mu=0.2,
                             vr={1: 0.02 + 0.01j, 2: 0.01, 3: 0.005 - 0.002j},
                             vtheta={1: 0.01, 2: -0.01j, 3: 0.004, 4: 0.002})
    sol = solve_linear(flow, grid, boundary, steep_sources(grid, 4))
    for n in range(1, 5):
        assert abs(1j * n * sol.gamma[n, 0] - boundary.vr[n]) < 1e-8
        assert abs(-sol.dgamma[n, 0] - boundary.vtheta[n]) < 1e-8
    assert abs(-sol.dgamma[0, 0].real - (0.3 - 0.2)) < 1e-8
    assert not sol.resonant.any()


def test_boundary_traces_exact_resonant(grid):
    # phi0 = 3.2 with zero circulation puts mode 3 exactly on the
    # logarithmic resonance; traces must still be met.
    flow = ReferenceFlow(3.2, 0.0)
    boundary = mode_boundary(4, 3.2, mu0=0.1, mu=0.0,
                             vr={3: 0.01 + 0.004j}, vtheta={3: -0.002j})
    sol = solve_linear(flow, grid, boundary, steep_sources(grid, 4))
    assert sol.resonant[3]
    assert abs(1j * 3 * sol.gamma[3, 0] - boundary.vr[3]) < 1e-8
    assert abs(-sol.dgamma[3, 0] - boundary.vtheta[3]) < 1e-8


@pytest.mark.parametrize("phi0, mu", [(2.5, 0.2), (3.2, 0.0)])
def test_batched_modes_match_one_mode_kernels(grid, phi0, mu):
    # solve_linear integrates all nonzero modes in one stack; every mode
    # must agree with the kernels applied to its row alone (phi0 = 3.2,
    # mu = 0 makes mode 3 resonant).
    flow = ReferenceFlow(phi0, mu)
    boundary = mode_boundary(4, phi0, mu0=mu + 0.1, mu=mu,
                             vr={1: 0.02 + 0.01j, 3: 0.01 + 0.004j},
                             vtheta={2: -0.01j, 3: -0.002j, 4: 0.002})
    sources = steep_sources(grid, 4)
    sol = solve_linear(flow, grid, boundary, sources)
    close = lambda a, b: np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
    for n in range(1, 5):
        zm = zeta_pair(phi0, mu, n)[1]
        w_part, dw_part = solve_w_particular(grid, flow, n, sources.F[n])
        g_part, dg_part = stream_response(grid, w_part, float(n))
        (gamma_bar,), (w_bar,), (resonant,) = _trace_amplitudes(
            np.array([n]), np.array([zm]), boundary.vr[n:n + 1],
            boundary.vtheta[n:n + 1], g_part[:, 0], dg_part[:, 0])
        assert sol.resonant[n] == resonant == (phi0 == 3.2 and n == 3)
        assert close(sol.gamma_bar[n], gamma_bar)
        assert close(sol.w_bar[n], w_bar)
        w_hom = w_bar * grid.r ** (zm if not resonant else -n - 2.0)
        assert close(sol.w[n], w_hom - w_part)


def test_linearity_in_boundary_and_sources(grid):
    flow = ReferenceFlow(2.5, 0.2)
    b1 = mode_boundary(3, 2.5, mu0=0.26, mu=0.2, vr={1: 0.01},
                       vtheta={2: 0.02j})
    b2 = mode_boundary(3, 2.5, mu0=0.34, mu=0.2, vr={2: -0.005j},
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
    boundary = mode_boundary(n_max, 2.5, mu0=0.2, mu=0.2)
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
    b = mode_boundary(2, 2.5, mu0=0.1, mu=0.0, vr={1: 0.01 + 0.02j},
                      vtheta={2: 0.05 - 0.01j})
    refl = BoundarySpectrum(n_max=2, vr=-np.conj(b.vr),
                            vtheta=np.conj(b.vtheta), phi0=2.5, mu0=0.1,
                            mu=0.0)
    sol = solve_linear(flow, grid, b)
    sol_r = solve_linear(flow, grid, refl)
    assert np.abs(sol_r.gamma - np.conj(sol.gamma)).max() < 1e-13


def test_degenerate_flux_band(grid):
    boundary = mode_boundary(1, 2.0 + 1e-7, mu0=0.3, mu=0.2)
    with pytest.raises(DegenerateFluxError):
        solve_linear(ReferenceFlow(2.0 + 1e-7, 0.2), grid, boundary)
    # phi0 = mu = 0 would divide by (zeta_1^- + 2)^2 - 1 = 0
    with pytest.raises(DegenerateFluxError, match="phi0=0 with mu=0"):
        solve_linear(ReferenceFlow(0.0, 0.0), grid,
                     mode_boundary(1, 0.0, mu0=0.0, mu=0.0, vr={1: 0.01}))
    # exactly 2 is fine: the mean vorticity response is dropped and the
    # stream correction comes from the direct integral form
    boundary2 = mode_boundary(1, 2.0, mu0=0.2, mu=0.2)
    sol = solve_linear(ReferenceFlow(2.0, 0.2), grid, boundary2)
    assert np.all(np.isfinite(sol.gamma))


def test_solver_checks_parameter_consistency(grid):
    boundary = mode_boundary(1, 2.5, mu0=0.3, mu=0.25)
    with pytest.raises(ValueError):
        solve_linear(ReferenceFlow(2.5, 0.2), grid, boundary)
    with pytest.raises(ValueError):
        solve_linear(ReferenceFlow(2.4, 0.25), grid, boundary)


@pytest.mark.parametrize("phi0, mu", [(1.5, 0.7), (2.5, 0.2)])
def test_mean_mode_rows_are_bitwise_the_one_row_chain(grid, phi0, mu,
                                                      monkeypatch):
    # solve_linear integrates the mean mode's first two kernels as extra
    # rows of the vorticity and stream out stacks, each family's out and in
    # stacks in one call; its mean-mode rows must be the bytes of the
    # one-row solve_w_zero -> solve_gamma_zero chain.
    boundary = mode_boundary(4, phi0, mu0=mu + 0.1, mu=mu, vr={1: 0.02},
                             vtheta={2: -0.01j, 3: 0.004})
    sources = steep_sources(grid, 4)
    sources.F[0] *= 1.0 + 0.3j * np.cos(2.0 * np.log(grid.r))
    calls = []
    for name in ("integrate_out_all", "integrate_in_all", "integrate_out_in"):
        real = getattr(linear_module, name)
        monkeypatch.setattr(linear_module, name,
                            lambda *a, _real=real: calls.append(1) or _real(*a))
    sol = solve_linear(ReferenceFlow(phi0, mu), grid, boundary, sources)
    assert len(calls) == 4
    w, dw = solve_w_zero(grid, phi0, sources.F[0])
    want = _assemble_zero(grid, phi0, boundary.vtheta[0], w, dw)
    got = (sol.gamma[0], sol.dgamma[0], sol.w[0], sol.dw[0], sol.w_bar[0])
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b, dtype=complex).tobytes()
    assert (sol.w_bar[0] != 0) == (phi0 > 2.0)


def test_diverging_mean_mode_row_is_named_in_its_stack(grid):
    # F_0 ~ r^-(phi0+1.5) makes the sink-weighted integrand
    # F_0(s) (s/r)^(phi0+1) decay like s^-0.5 beyond r_max; the other
    # sources decay fast.  The error names the mean mode's row under the
    # n_max vorticity rows.
    phi0, n_max = 1.5, 4
    sources = steep_sources(grid, n_max)
    sources.F[0] = 0.01 * grid.r ** -(phi0 + 1.5)
    boundary = mode_boundary(n_max, phi0, mu0=1.0, mu=1.0, vr={1: 0.01})
    with pytest.raises(DivergentTailError) as info:
        solve_linear(ReferenceFlow(phi0, 1.0), grid, boundary, sources)
    exc = info.value
    assert exc.row == n_max
    assert exc.zeta == -(phi0 + 1.0)
    assert exc.exponent == pytest.approx(-0.5, abs=1e-6)
    assert f"kernel row {n_max}, zeta=-2.5+0j" in str(exc)
