"""Shared fixtures: grids are immutable, so session scope is safe."""

import numpy as np
import pytest

import hamelflow.solve
from hamelflow import SourceSpectrum, build_grid


@pytest.fixture(scope="session")
def grid():
    """Default working grid for module tests."""
    return build_grid(1e4, 48)


@pytest.fixture(scope="session")
def coarse_grid():
    return build_grid(1e4, 24)


@pytest.fixture()
def rng():
    return np.random.default_rng(2026)


@pytest.fixture()
def divergent_sources(monkeypatch):
    """Every Picard source gets 1e-3 r^-1.5 added to mode 1.  Its vorticity
    out-integrand s F_1(s) (r/s)^zeta_1^+ then decays like s^-(0.5 + Re
    zeta_1^+), slower than 1/s: a tail that truly diverges, in the first
    iteration with sources (row 0 of the vorticity stack)."""
    sources = hamelflow.solve.compute_sources

    def slow(solution):
        src = sources(solution)
        F = src.F.copy()
        F[1] += 1e-3 * solution.grid.r ** -1.5
        return SourceSpectrum(n_max=src.n_max, F=F)

    monkeypatch.setattr(hamelflow.solve, "compute_sources", slow)
