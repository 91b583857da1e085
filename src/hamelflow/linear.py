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
A single homogeneous pair is then fixed by the two trace conditions: the
vorticity bar w_n r^{zeta-} and the stream r^{-|n|} (bar gamma_n + c_n phi),
with phi = (r^delta - 1)/delta and delta = zeta_n^- + 2 + |n|.  One closed
form serves every mode, n = 0 included: at delta = 0, where the stream
response to r^{zeta-} turns logarithmic, phi is log r, and near it nothing
cancels.

The n = 0 mode has no radial trace freedom left after flux matching: when
the circulation is free (``flows.circulation_is_free``) the circulation
deficit mu0 - mu and the decay of its stream pin its pair; otherwise
shooting in mu closes it.  ``solve_linear`` solves every mode, the mean mode included, around the
spectrum's flow; there is no one-mode entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import (DegenerateFluxError, ReferenceFlow, circulation_is_free,
                    zeta_pair)
# integrate_in_all is not called here; it stays a name of this module
# because bench/layers.py wraps it here by name.
from .grid import (BoundarySpectrum, RadialGrid, integrate_in_all,  # noqa: F401
                   integrate_out_all, integrate_out_in)

__all__ = [
    "DegenerateFluxError",
    "SourceSpectrum",
    "SpectralSolution",
    "solve_linear",
]


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Stacked mode solutions for n = 0..n_max (negative n by conjugation)."""

    grid: RadialGrid
    boundary: BoundarySpectrum
    gamma: np.ndarray   # (n_max+1, n_nodes)
    dgamma: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    gamma_bar: np.ndarray
    w_bar: np.ndarray

    @property
    def n_max(self) -> int:
        return self.gamma.shape[0] - 1

    @property
    def flow(self) -> ReferenceFlow:
        return self.boundary.flow


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


def _mean_particular(grid: RadialGrid, w0, inner):
    """The mean mode's particular rows (w_part, dw_part, g_part, dg_part),
    in the signs of the n >= 1 responses (w = -w_part, gamma = -g_part).

    ``w0`` is the decaying response to F_0 (L_w w = +F_0 at n = 0),

        w0(r) = int_r^inf int_s^inf (t/s)^{phi0+1} F_0(t) dt ds,

    and -inner(r) its slope.  Its stream is two nested one-row quadratures,
    Gamma(r) = int_r^inf H(s)/s ds with H(s) = int_s^inf sigma w0(sigma)
    dsigma, and d_r Gamma = -H/r; then gamma_0 = -Gamma solves
    Delta gamma_0 = -w0.  A negation is a subtraction from +0, so a zero
    mean mode comes back +0.
    """
    big_h = integrate_out_all(grid, w0, 0.0)
    big_gamma = integrate_out_all(grid, big_h / (grid.r * grid.r), 0.0)
    return 0.0 - w0, inner, big_gamma, 0.0 - big_h / grid.r


def _assemble(grid: RadialGrid, zm, boundary: BoundarySpectrum,
              w_part, dw_part, g_part, dg_part):
    """Modes 0..n_max at once from their particular responses.

    Mode n's homogeneous pair is w_bar r^zeta- for the vorticity and
    r^-k (a + c phi) for the stream, with k = n, delta = zeta_n^- + 2 + k
    and phi = (r^delta - 1)/delta (log r at delta == 0).  The mode
    Laplacian of r^-k phi is (delta - 2k) r^zeta-, so w_bar = (2k - delta) c
    with no division, and phi(1) = 0, phi'(1) = 1 leave the trace to a and
    c.  The rows come back as SpectralSolution's gamma, dgamma, w, dw,
    gamma_bar (``a`` = gamma_hom(1)) and w_bar.

    The mean mode is the k = 0 row, delta = 2 - phi0: its trace leaves
    c = dg_part(1) - vtheta_0, and its stream a + c phi, which is
    (a - c/delta) + (c/delta) r^delta, must decay.  When the circulation is
    free (``circulation_is_free``: delta < 0) that is a = c/delta, and the
    stream is a R alone; otherwise r^delta does not decay, a = c = 0, and
    shooting in mu closes the mean trace instead.

    The stream is evaluated as a R + (c - delta a) P, with R = r^(zeta- + 2)
    (the r^zeta- table times r^2) and P = r^-k phi = (R - r^-k)/delta.  P is
    taken as s (r^z - 1)/z, s the slower-decaying of R and r^-k and z the
    exponent step to the other (Re z <= 0): no factor of it overflows and
    nothing cancels.  Where R is the slower (Re delta >= 0), the stream's
    tail carries the rounding of the r^zeta- table that w carries, and the
    mean mode's source, a cancelling sum of products of the two, stays as
    smooth in mu as they are.
    """
    k = np.arange(len(zm), dtype=float)
    a = np.zeros(len(k), dtype=complex)
    a[1:] = -1j * boundary.vr[1:] / k[1:] + g_part[1:, 0]
    c = k * a + dg_part[:, 0] - boundary.vtheta
    delta = zm + 2.0 + k
    w_bar = (2.0 * k - delta) * c
    if circulation_is_free(boundary.phi0):
        a[0] = c[0] / delta[0] + 0.0     # +0, not -0, when c is 0
    else:
        c[0] = w_bar[0] = 0.0
    e = c - delta * a
    e[0] = 0.0

    r = grid.r
    col = lambda v: v[:, None]
    rzm = grid.powers(zm)
    big_r = rzm * (r * r)
    slow = delta.real >= 0.0
    p = (np.where(col(slow), big_r, grid.powers(-k))
         * grid.expm1_powers(np.where(slow, -delta, delta)))
    gamma = col(a) * big_r + col(e) * p - g_part
    dgamma = (col(c - k * a) * big_r - col(k * e) * p) / r - dg_part
    w = col(w_bar) * rzm - w_part
    dw = col(w_bar) * col(zm) * rzm / r - dw_part
    return gamma, dgamma, w, dw, a, w_bar


def solve_linear(flow: ReferenceFlow, grid: RadialGrid,
                 boundary: BoundarySpectrum,
                 sources: SourceSpectrum | None = None) -> SpectralSolution:
    """Solve every mode 0..n_max against the given sources and trace.

    The flow solved around is ``boundary.flow``, checked when the spectrum
    was built; ``flow`` must agree with it to 1e-12.  Modes 1..n_max are
    solved together: each kernel family is one ``integrate_out_in`` call on
    the (modes, nodes) stacks of its out and in integrands.  The mean
    mode's first two integrals ride as one extra row under the out stacks:
    F_0/r at zeta = -(phi0+1) under the vorticity rows, inner/r at zeta = 0
    under the stream rows.  A solve thus makes four kernel calls, the last
    two the nested one-row stream quadratures of the mean mode
    (``_mean_particular``), whose rows then join the others' in one
    ``_assemble`` of modes 0..n_max.  This is the one linear solve:
    ``hamelflow.verify``'s manufactured solution checks it against a closed
    form of every mode at once.  Modes without a source (all of them when
    ``sources`` is None, and those above the reach of the trace's products)
    cost no quadrature: the integrators return their zero rows as +0.
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

    phi0 = boundary.phi0
    F, r = sources.F, grid.r
    zp, zm = zeta_pair(phi0, boundary.mu, np.arange(boundary.n_max + 1))
    k = np.arange(1, boundary.n_max + 1, dtype=float)
    out, inn = integrate_out_in(grid, np.vstack([F[1:], F[0] / r]),
                                np.append(zp[1:], -(phi0 + 1.0)), F[1:],
                                zm[1:])
    inner = out[-1]
    w_part, dw_part = _w_response(grid, out[:-1], inn, zp[1:], zm[1:])
    out, inn = integrate_out_in(grid, np.vstack([w_part, inner / r]),
                                np.append(k, 0.0), w_part, -k)
    g_part, dg_part = _gamma_response(grid, out[:-1], inn, k)
    parts = zip(_mean_particular(grid, out[-1], inner),
                (w_part, dw_part, g_part, dg_part))
    return SpectralSolution(grid, boundary, *_assemble(
        grid, zm, boundary, *(np.vstack(pair) for pair in parts)))
