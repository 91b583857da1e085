"""Advection sources from the perturbation's own transport term.

The quadratic coupling (d_theta gamma / r) d_r w - (d_r gamma / r) d_theta w
decomposes over angular modes as the convolution

    F_n(r) = (i / r) sum_{k + l = n} ( l gamma_l d_r w_k - k d_r gamma_l w_k ),

with gamma_{-l} = conj(gamma_l) for real fields.  Only rows n = 0..n_max are
formed; F_{-n} = conj(F_n) follows from the same symmetry.  The sum is the
exact mode content of the product of the truncated fields, so a
pseudo-spectral evaluation on a fine angular grid reproduces it to rounding.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialGrid
from .linear import SourceSpectrum, SpectralSolution

__all__ = ["convolution_sources", "compute_sources"]


def convolution_sources(grid: RadialGrid, gamma, dgamma, w, dw) -> SourceSpectrum:
    """Sources from stacked mode arrays (rows n = 0..n_max)."""
    gamma = np.asarray(gamma, dtype=complex)
    n_max = gamma.shape[0] - 1
    if gamma.shape[1] != grid.n_nodes:
        raise ValueError("mode arrays do not match the grid")

    def extend(a):
        """Rows for l = -n_max..n_max via conjugate symmetry."""
        return np.concatenate([np.conj(a[:0:-1]), a], axis=0)

    g_all = extend(gamma)
    dg_all = extend(np.asarray(dgamma, dtype=complex))
    w_all = extend(np.asarray(w, dtype=complex))
    dw_all = extend(np.asarray(dw, dtype=complex))

    # Mode l of gamma meets modes k = n - l of w in the contiguous rows
    # n = 0..min(n_max, l + n_max), so each l adds one slice.  Each row
    # sums its terms from +0 in increasing l, as numpy sums a stack of them
    # (terms that are all -0.0 give +0).
    F = np.zeros((n_max + 1, grid.n_nodes), dtype=complex)
    for l in range(-n_max, n_max + 1):
        hi = min(n_max, l + n_max)
        ks = np.arange(-l, hi - l + 1)
        rows = slice(n_max - l, n_max - l + hi + 1)
        F[:hi + 1] += (l * g_all[l + n_max] * dw_all[rows]
                       - ks[:, None] * dg_all[l + n_max] * w_all[rows])
    np.multiply(1j / grid.r, F, out=F)
    return SourceSpectrum(n_max=n_max, F=F)


def compute_sources(solution: SpectralSolution) -> SourceSpectrum:
    """Advection sources generated by a solved perturbation."""
    return convolution_sources(solution.grid, solution.gamma, solution.dgamma,
                               solution.w, solution.dw)
