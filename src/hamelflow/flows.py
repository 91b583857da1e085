"""Reference flows and mode exponents for the exterior planar problem.

The background velocity outside the unit disk is the pure sink/swirl field

    u_ref = (-phi0 / r) e_r + (mu / r) e_theta,      phi0 >= 0,

the decaying member of the Hamel family.  Perturbing the stream function by
a single angular harmonic e^{i n theta} turns the linearized vorticity
transport into an Euler (equidimensional) ODE whose characteristic exponents
are

    zeta_n^{+-} = -phi0/2 +- (1/2) sqrt(phi0^2 + 4 (i n mu + n^2)),

with the principal branch of the square root.  Everything downstream (decay
rates, contraction windows, resonance bookkeeping) is a function of these
exponents, so they live here together with the solvability threshold for the
boundary-value problem, a flow's admission and its regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DegenerateFluxError",
    "ReferenceFlow",
    "circulation_is_free",
    "zeta_pair",
    "re_zeta_minus_closed_form",
    "rho_decay",
    "alpha_window",
    "circulation_threshold",
    "existence_condition",
]


class DegenerateFluxError(ValueError):
    """No mode solve exists: phi0 is inside the numerically degenerate band
    just above 2, or phi0 = mu = 0."""


@dataclass(frozen=True)
class ReferenceFlow:
    """Sink strength and circulation of u_ref; constructing one admits it."""

    phi0: float  # radial flux through the unit circle, divided by 2*pi
    mu: float    # circulation carried by the reference swirl

    def __post_init__(self):
        if self.phi0 < 0:
            raise ValueError(f"flux phi0 must be nonnegative, got {self.phi0}")
        if not (np.isfinite(self.phi0) and np.isfinite(self.mu)):
            raise ValueError("flow parameters must be finite")
        if 2.0 < self.phi0 < 2.0 + 1e-6:
            # the mean mode's homogeneous amplitude divides by phi0 - 2
            raise DegenerateFluxError(
                f"phi0={self.phi0!r} is inside the degenerate band 2 < phi0 "
                "< 2 + 1e-6; the homogeneous mean mode r^(2-phi0) is "
                "numerically indistinct from the log pair there")
        if self.phi0 == 0.0 and self.mu == 0.0:
            # zeta_1^- + 2 = 1: the stream response to r^(zeta_1^-) resonates
            # with the growing r^1 (the Stokes paradox)
            raise DegenerateFluxError(
                "phi0=0 with mu=0 has no decaying mode-1 response "
                "(zeta_1^- = -1, Stokes paradox)")


def circulation_is_free(phi0: float) -> bool:
    """phi0 > 2: the mean mode carries r^-phi0, whose amplitude the
    circulation deficit fixes, so every mu near mu0 solves (the branches).
    Otherwise the trace pins mu and the solver shoots for it."""
    return phi0 > 2.0


def zeta_pair(phi0, mu, n):
    """Both exponents for mode(s) n, vectorized over n.

    The square-root argument phi0^2 + 4 n^2 + 4 i n mu has strictly positive
    real part whenever (phi0, n) != (0, 0), so the principal branch is
    continuous in mu and the pair never collides for n != 0.
    """
    n = np.asarray(n)
    disc = phi0 * phi0 + 4.0 * (1j * n * mu + n * n)
    root = np.sqrt(disc.astype(complex))
    zp = -phi0 / 2.0 + root / 2.0
    zm = -phi0 / 2.0 - root / 2.0
    return zp, zm


def re_zeta_minus_closed_form(phi0, mu, n):
    """Real part of zeta_n^- without complex arithmetic.

    For a + ib with a > 0, Re sqrt(a+ib) = sqrt((|a+ib| + a)/2); applied to
    the discriminant this gives

        Re zeta_n^- = -phi0/2 - (1/(2 sqrt 2)) [ (phi0^2 + 4 n^2)
                        + sqrt((phi0^2 + 4 n^2)^2 + 16 n^2 mu^2) ]^{1/2}.

    Used as an independent cross-check of the complex evaluation.
    """
    n = np.asarray(n, dtype=float)
    a = phi0 * phi0 + 4.0 * n * n
    inner = a + np.sqrt(a * a + 16.0 * n * n * mu * mu)
    return -phi0 / 2.0 - np.sqrt(inner) / (2.0 * np.sqrt(2.0))


def rho_decay(phi0: float, mu: float) -> float:
    """Decay rate rho = |Re zeta_1^-| of the slowest homogeneous mode."""
    return float(-re_zeta_minus_closed_form(phi0, mu, 1))


def circulation_threshold(phi0: float) -> float:
    """Least circulation |mu| making the problem solvable at flux phi0.

    Zero for phi0 > 3/2 (any circulation works); (4 - phi0) sqrt(3 - 2 phi0)
    on [0, 3/2], where rho = 2 is crossed exactly at |mu| equal to the
    threshold.
    """
    if phi0 > 1.5:
        return 0.0
    return (4.0 - phi0) * np.sqrt(3.0 - 2.0 * phi0)


def existence_condition(phi0: float, mu: float) -> bool:
    """Whether the fixed-point construction applies: rho(phi0, mu) > 2.

    Equivalent to phi0 > 3/2, or phi0 in [0, 3/2] with
    |mu| > (4 - phi0) sqrt(3 - 2 phi0).  The equality case is excluded:
    there the contraction window is empty.
    """
    if phi0 < 0:
        return False
    if phi0 > 1.5:
        return True
    return abs(mu) > circulation_threshold(phi0)


def alpha_window(phi0: float, mu: float):
    """Weight exponent used by the solver's convergence norm.

    Returns (alpha, feasible) with alpha = min(rho - 2, 1) / 2.  When
    rho <= 2 the window is empty and feasible is False; alpha is then
    clipped to a small positive value so diagnostics can still be formed.
    """
    rho = rho_decay(phi0, mu)
    alpha = 0.5 * min(rho - 2.0, 1.0)
    feasible = alpha > 0.0
    if not feasible:
        alpha = 1e-3
    return alpha, feasible

