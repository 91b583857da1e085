"""Mode-by-mode solution of the linearized exterior problem.

For each angular mode n the perturbation stream function gamma_n and
vorticity w_n solve the chained pair

    d_rr w_n + ((phi0+1)/r) d_r w_n - ((i n mu + n^2)/r^2) w_n = F_n,
    d_rr gamma_n + (1/r) d_r gamma_n - (n^2/r^2) gamma_n = -w_n,

on (1, inf) with decay at infinity and the boundary trace
i n gamma_n(1) = v*_r,n, -d_r gamma_n(1) = v*_theta,n.  The vorticity
operator is equidimensional with exponents zeta_n^{+-}; its decaying
response to a source is the two-sided kernel

    w_n[F](r) = (1/(zeta+ - zeta-)) [ int_r^inf s F (r/s)^{zeta+} ds
                                      + int_1^r s F (r/s)^{zeta-} ds ],

which satisfies L_w w_n[F] = -F and carries no incoming homogeneous part.
The stream response uses the same kernel structure with exponents +-|n|.
A single homogeneous pair (bar gamma_n r^{-|n|}, bar w_n r^{zeta-}) is then
fixed by the two trace conditions; when zeta_n^- + 2 hits -|n| the stream
response to r^{zeta-} degenerates and the log-resonant pair
r^{-|n|} log r is used instead.

The n = 0 mode has no radial trace freedom left after flux matching: its
single constant is pinned by the circulation deficit mu0 - mu when
phi0 > 2 and must be closed by shooting in mu otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .flows import ReferenceFlow, zeta_pair
# integrate_in_all is not called here; it stays a name of this module
# because bench/layers.py wraps it here by name.
from .grid import (BoundarySpectrum, RadialGrid, integrate_in_all,  # noqa: F401
                   integrate_out_all, integrate_out_in)

__all__ = [
    "DegenerateFluxError",
    "SourceSpectrum",
    "SpectralSolution",
    "solve_w_particular",
    "solve_w_zero",
    "solve_gamma_zero",
    "solve_linear",
]


class DegenerateFluxError(ValueError):
    """No mode solve exists: phi0 is inside the numerically degenerate band
    around 2, or phi0 = mu = 0."""


_PHI_BAND = 1e-6
_RESONANCE_TOL = 1e-8   # |zeta_n^- + 2 + |n|| below this: log-resonant pair


@dataclass(frozen=True)
class SourceSpectrum:
    """Right-hand sides F_n, n = 0..n_max, sampled on the grid rows."""

    n_max: int
    F: np.ndarray  # complex, shape (n_max + 1, n_nodes)

    def __post_init__(self):
        if self.F.shape[0] != self.n_max + 1:
            raise ValueError("row count must be n_max + 1")

    @classmethod
    def zeros(cls, n_max: int, grid: RadialGrid) -> "SourceSpectrum":
        return cls(n_max=n_max, F=np.zeros((n_max + 1, grid.n_nodes), dtype=complex))


@dataclass(frozen=True)
class SpectralSolution:
    """Stacked mode solutions for n = 0..n_max (negative n by conjugation)."""

    flow: ReferenceFlow
    grid: RadialGrid
    boundary: BoundarySpectrum
    gamma: np.ndarray   # (n_max+1, n_nodes)
    dgamma: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    gamma_bar: np.ndarray
    w_bar: np.ndarray
    resonant: np.ndarray = field(repr=False, default=None)

    @property
    def n_max(self) -> int:
        return self.gamma.shape[0] - 1


def _w_response(grid: RadialGrid, out, inn, zeta_plus, zeta_minus):
    """(w, d_r w) with L_w w = -f from the out and in integrals of f at
    zeta_plus and zeta_minus; rows pair with the exponent arrays."""
    zp = np.asarray(zeta_plus)[..., None]
    zm = np.asarray(zeta_minus)[..., None]
    sd = zp - zm
    w = (out + inn) / sd
    dw = (zp * out + zm * inn) / (sd * grid.r)
    return w, dw


def _gamma_response(grid: RadialGrid, out, inn, k):
    """(gamma, d_r gamma) with Delta gamma = -w from the out and in
    integrals of w at k = |n| and -k; rows pair with k."""
    k = np.asarray(k, dtype=float)
    g = (out + inn) / (2.0 * k[..., None])
    dg = (out - inn) / (2.0 * grid.r)
    return g, dg


def solve_w_particular(grid: RadialGrid, flow: ReferenceFlow, n: int, f_n):
    """Decaying response (w, d_r w) of the mode-n vorticity operator to f_n.

    Returns the pair with L_w w = -f_n; the assembled mode uses
    bar w r^{zeta-} minus this response.
    """
    if n == 0:
        raise ValueError("mode 0 uses solve_w_zero")
    zp, zm = zeta_pair(flow.phi0, flow.mu, n)
    return _w_response(grid, *integrate_out_in(grid, f_n, zp, f_n, zm), zp, zm)


def solve_w_zero(grid: RadialGrid, phi0: float, f_0):
    """Decaying mean-mode vorticity response: L_w w = +f_0 at n = 0.

        w(r) = int_r^inf int_s^inf (t/s)^{phi0+1} f_0(t) dt ds,

    accumulated from the tail inward; d_r w(r) = -inner(r).
    """
    inner = integrate_out_all(grid, np.asarray(f_0, dtype=complex) / grid.r,
                              -(phi0 + 1.0))
    w = integrate_out_all(grid, inner / grid.r, 0.0)
    return w, -inner


def solve_gamma_zero(grid: RadialGrid, w):
    """Nested mean-mode stream quadratures for vorticity profile w.

    Returns (Gamma, dGamma) with Gamma(r) = int_r^inf (1/s) int_s^inf
    sigma w(sigma) dsigma ds and dGamma = -(1/r) int_r^inf sigma w dsigma.
    The assembled zero mode is gamma_0 = -(Gamma + homogeneous part): that
    global sign is applied in solve_linear, where the pair must satisfy
    Delta gamma_0 = -w_0 together with the circulation trace.
    """
    big_h = integrate_out_all(grid, w, 0.0)
    big_gamma = integrate_out_all(grid, big_h / (grid.r * grid.r), 0.0)
    return big_gamma, -big_h / grid.r


def _trace_amplitudes(n, zeta_minus, vr, vt, g_part_1, dg_part_1):
    """Homogeneous amplitudes (bar gamma_n, bar w_n, resonant) from the trace.

    Arrays over nonzero modes n.  g_part_1 and dg_part_1 are the values at
    r = 1 of the particular stream response and its derivative (the pair
    that the assembly subtracts).
    """
    n = np.asarray(n)
    k = np.abs(n).astype(float)
    sgn = np.sign(n)
    zm = zeta_minus
    a = -1j * sgn * vr / k + g_part_1
    b = dg_part_1 - vt
    denom = 2.0 + zm + k
    resonant = np.abs(denom) < _RESONANCE_TOL
    big_d = (zm + 2.0) ** 2 - n * n
    with np.errstate(all="ignore"):   # resonant rows take the log pair
        w_bar = np.where(resonant,
                         2.0 * k * (k * g_part_1 - 1j * sgn * vr
                                    + dg_part_1 - vt),
                         -big_d * (k * a + b) / denom)
        gamma_bar = np.where(resonant, a, a + w_bar / big_d)
    return gamma_bar, w_bar, resonant


def _assemble_nonzero(grid: RadialGrid, n, zm, boundary: BoundarySpectrum,
                      w_part, dw_part, g_part, dg_part):
    """Modes 1..n_max at once from their particular responses."""
    k = n.astype(float)
    gamma_bar, w_bar, resonant = _trace_amplitudes(
        n, zm, boundary.vr[1:], boundary.vtheta[1:], g_part[:, 0],
        dg_part[:, 0])

    r = grid.r
    log_r = np.log(r)
    col = lambda a: a[:, None]
    pk = r ** col(-k)
    big_d = col((zm + 2.0) ** 2 - n * n)
    rzm = np.exp(col(zm) * log_r)   # complex r ** zm costs twice as much
    with np.errstate(all="ignore"):   # resonant rows are replaced below
        w_hom = col(w_bar) * rzm
        dw_hom = col(w_bar) * col(zm) * rzm / r
        gamma = (col(gamma_bar) * pk - (col(w_bar) / big_d) * rzm * r * r
                 - g_part)
        dgamma = (-col(k) * col(gamma_bar) * pk / r
                  - (col(w_bar) / big_d) * col(2.0 + zm) * rzm * r - dg_part)
    if np.any(resonant):
        # exact integer pair keeps Delta gamma = -w to rounding
        i = resonant
        kk, wb, gb, pki = col(k[i]), col(w_bar[i]), col(gamma_bar[i]), pk[i]
        w_hom[i] = wb * pki / (r * r)
        dw_hom[i] = -(kk + 2.0) * wb * pki / (r ** 3)
        gamma[i] = gb * pki + (wb / (2.0 * kk)) * log_r * pki - g_part[i]
        dgamma[i] = (-kk * gb * pki / r
                     + (wb / (2.0 * kk)) * pki / r * (1.0 - kk * log_r)
                     - dg_part[i])
    w = w_hom - w_part
    dw = dw_hom - dw_part
    return gamma, dgamma, w, dw, gamma_bar, w_bar, resonant


def _check_degenerate(flow):
    """Reject the fluxes ``solve_linear`` cannot solve at; ``flow`` is a
    ReferenceFlow or a BoundarySpectrum."""
    phi0 = flow.phi0
    if abs(phi0 - 2.0) < _PHI_BAND and phi0 != 2.0:
        raise DegenerateFluxError(
            f"phi0={phi0!r} is inside the degenerate band around 2; the "
            "homogeneous mean mode r^(2-phi0) is numerically indistinct "
            "from the log pair there")
    if phi0 == 0.0 and flow.mu == 0.0:
        # zeta_1^- + 2 = 1: the stream response to r^(zeta_1^-) resonates
        # with the growing r^1 (the Stokes paradox)
        raise DegenerateFluxError(
            "phi0=0 with mu=0 has no decaying mode-1 response "
            "(zeta_1^- = -1, Stokes paradox)")


def _assemble_zero(grid: RadialGrid, phi0: float, circ_deficit: complex,
                   w_part, dw_part):
    """The mean mode from its vorticity response (see ``solve_w_zero``)."""
    r = grid.r
    big_gamma, d_big_gamma = solve_gamma_zero(grid, w_part)
    if phi0 <= 2.0:
        return -big_gamma, -d_big_gamma, w_part, dw_part, 0.0 + 0.0j

    i1 = -d_big_gamma[0]   # int_1^inf s w_part ds, since r[0] == 1
    w_bar = -(phi0 - 2.0) * (circ_deficit + i1)
    w = w_bar * r ** (-phi0) + w_part
    dw = -phi0 * w_bar * r ** (-phi0 - 1.0) + dw_part
    gamma = -(w_bar * r ** (2.0 - phi0) / (phi0 - 2.0) ** 2 + big_gamma)
    dgamma = w_bar * r ** (1.0 - phi0) / (phi0 - 2.0) - d_big_gamma
    return gamma, dgamma, w, dw, w_bar


def solve_linear(flow: ReferenceFlow, grid: RadialGrid,
                 boundary: BoundarySpectrum,
                 sources: SourceSpectrum | None = None) -> SpectralSolution:
    """Solve every mode 0..n_max against the given sources and trace.

    Modes 1..n_max are solved together: each kernel family is one
    ``integrate_out_in`` call on the (modes, nodes) stacks of its out and
    in integrands.  The mean mode's first two integrals (``solve_w_zero``)
    ride as one extra row under the out stacks: F_0/r at zeta = -(phi0+1)
    under the vorticity rows, inner/r at zeta = 0 under the stream rows.
    A solve thus makes four kernel calls, the last two the nested one-row
    stream quadratures of the mean mode (``solve_gamma_zero``).  Modes
    without a source (all of them when ``sources`` is None, and those above
    the reach of the trace's products) cost no quadrature: the integrators
    return their zero rows as exact +0.
    """
    if sources is None:
        sources = SourceSpectrum.zeros(boundary.n_max, grid)
    if sources.n_max != boundary.n_max:
        raise ValueError("source and boundary mode counts differ")
    if sources.F.shape[1] != grid.n_nodes:
        raise ValueError("source sampling does not match the grid")
    if abs(boundary.mu - flow.mu) > 1e-12 * max(1.0, abs(flow.mu)):
        raise ValueError("boundary spectrum was budgeted against a different mu")
    if abs(boundary.phi0 - flow.phi0) > 1e-12 * max(1.0, abs(flow.phi0)):
        raise ValueError("boundary spectrum carries a different phi0")

    n_max = boundary.n_max
    shape = (n_max + 1, grid.n_nodes)
    gamma = np.zeros(shape, dtype=complex)
    dgamma = np.zeros(shape, dtype=complex)
    w = np.zeros(shape, dtype=complex)
    dw = np.zeros(shape, dtype=complex)
    gamma_bar = np.zeros(n_max + 1, dtype=complex)
    w_bar = np.zeros(n_max + 1, dtype=complex)
    resonant = np.zeros(n_max + 1, dtype=bool)

    _check_degenerate(flow)
    phi0 = flow.phi0
    F, r = sources.F, grid.r
    n = np.arange(1, n_max + 1)
    k = n.astype(float)
    zp, zm = zeta_pair(phi0, flow.mu, n)
    out, inn = integrate_out_in(grid, np.vstack([F[1:], F[0] / r]),
                                np.append(zp, -(phi0 + 1.0)), F[1:], zm)
    inner = out[-1]
    w_part, dw_part = _w_response(grid, out[:-1], inn, zp, zm)
    out, inn = integrate_out_in(grid, np.vstack([w_part, inner / r]),
                                np.append(k, 0.0), w_part, -k)
    w0 = out[-1]
    g_part, dg_part = _gamma_response(grid, out[:-1], inn, k)

    gamma[0], dgamma[0], w[0], dw[0], w_bar[0] = _assemble_zero(
        grid, phi0, complex(boundary.vtheta[0]), w0, -inner)

    (gamma[1:], dgamma[1:], w[1:], dw[1:],
     gamma_bar[1:], w_bar[1:], resonant[1:]) = _assemble_nonzero(
        grid, n, zm, boundary, w_part, dw_part, g_part, dg_part)

    return SpectralSolution(flow=flow, grid=grid, boundary=boundary,
                            gamma=gamma, dgamma=dgamma, w=w, dw=dw,
                            gamma_bar=gamma_bar, w_bar=w_bar, resonant=resonant)
