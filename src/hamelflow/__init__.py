"""Spectral construction and verification of steady planar exterior flows.

The solver builds perturbations of a sink/swirl background outside the unit
disk as a fixed point of mode-wise kernel solves against self-generated
advection sources, closes the circulation by shooting when the flux is weak,
sweeps circulation branches when it is strong, and ships desk-scale checks
of the inequalities underlying the uniqueness window.  Those checks live in
``hamelflow.uniq`` and ``hamelflow.verify``, which this namespace does not
import: solving does not load them.
"""

__version__ = "0.1.0"

from .flows import (ReferenceFlow, zeta_pair, re_zeta_minus_closed_form,
                    rho_decay, alpha_window, circulation_threshold,
                    existence_condition)
from .grid import (RadialGrid, build_grid, integrate_out_all, integrate_in_all,
                   integrate_out_in, BoundarySpectrum, project_boundary,
                   synthesize_boundary, DivergentTailError, FluxMismatchError)
from .linear import (SourceSpectrum, SpectralSolution, solve_linear,
                     DegenerateFluxError)
from .nonlin import convolution_sources, compute_sources
from .solve import (SolverConfig, SolveReport, SolverConvergenceError,
                    BranchMember, picard_solve, fixed_point_residual,
                    shoot_mu, branch_sweep, picard_norm)
from .field import (PhysicalField, reconstruct, ns_residual,
                    mode_ode_residuals, derivative_consistency,
                    asymptotic_circulation, DecayProfile, decay_fit,
                    log_derivatives, interior)
