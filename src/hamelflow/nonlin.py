"""Advection sources from the perturbation's own transport term.

The quadratic coupling (d_theta gamma / r) d_r w - (d_r gamma / r) d_theta w
decomposes over angular modes as the convolution

    F_n(r) = (i / r) sum_{k + l = n} ( l gamma_l d_r w_k - k d_r gamma_l w_k ),

with gamma_{-l} = conj(gamma_l) for real fields.  Only rows n = 0..n_max are
formed; F_{-n} = conj(F_n) follows from the same symmetry.  The sum is the
exact mode content of the product of the truncated fields, so a
pseudo-spectral evaluation on a fine angular grid reproduces it to rounding.
The sum runs only over the modes the fields reach: the early Picard
iterates of a trace on a few low modes hold exact zeros above them, and
the terms those zeros would add are exact zeros too.
"""

from __future__ import annotations

import numpy as np

from .grid import RadialGrid
from .linear import SourceSpectrum, SpectralSolution

__all__ = ["convolution_sources", "compute_sources"]


def _reach(f, df):
    """Highest row holding a nonzero sample in f or df, -1 if none."""
    live = np.flatnonzero(f.any(axis=1) | df.any(axis=1))
    return int(live[-1]) if live.size else -1


def convolution_sources(grid: RadialGrid, gamma, dgamma, w, dw) -> SourceSpectrum:
    """Sources from stacked mode arrays (rows n = 0..n_max).

    Only the pairs the fields reach are formed: with a the highest nonzero
    row of (gamma, dgamma) and b that of (w, dw), mode l of gamma runs over
    |l| <= a and meets modes |k| <= b of w.  Every skipped term is an exact
    +-0 for finite inputs, so the result has the bits of the full sum.
    """
    gamma = np.asarray(gamma, dtype=complex)
    n_max = gamma.shape[0] - 1
    if gamma.shape[1] != grid.n_nodes:
        raise ValueError("mode arrays do not match the grid")
    dgamma = np.asarray(dgamma, dtype=complex)
    w = np.asarray(w, dtype=complex)
    dw = np.asarray(dw, dtype=complex)
    a, b = _reach(gamma, dgamma), _reach(w, dw)

    def extend(rows, reach):
        """Rows for l = -reach..reach via conjugate symmetry."""
        return np.concatenate([np.conj(rows[reach:0:-1]), rows[:reach + 1]],
                              axis=0)

    # Mode l of gamma meets modes k = n - l, |k| <= b, of w in the
    # contiguous rows n = max(0, l - b)..min(n_max, l + b), so each l adds
    # one slice; l + b >= 0 keeps that range nonempty.  Each row sums its
    # terms from +0 in increasing l, as numpy sums a stack of them.  The
    # running sum is never -0, so the skipped +-0 terms would not change it.
    F = np.zeros((n_max + 1, grid.n_nodes), dtype=complex)
    if a >= 0 and b >= 0:
        g_all, dg_all = extend(gamma, a), extend(dgamma, a)
        w_all, dw_all = extend(w, b), extend(dw, b)
        for l in range(-min(a, b), a + 1):
            lo, hi = max(0, l - b), min(n_max, l + b)
            ks = np.arange(lo - l, hi - l + 1)
            rows = slice(lo - l + b, hi - l + b + 1)
            F[lo:hi + 1] += (l * g_all[l + a] * dw_all[rows]
                             - ks[:, None] * dg_all[l + a] * w_all[rows])
    np.multiply(1j / grid.r, F, out=F)
    return SourceSpectrum(n_max=n_max, F=F)


def compute_sources(solution: SpectralSolution) -> SourceSpectrum:
    """Advection sources generated by a solved perturbation."""
    return convolution_sources(solution.grid, solution.gamma, solution.dgamma,
                               solution.w, solution.dw)
