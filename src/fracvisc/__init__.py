"""fracvisc: rate measurement for fractional vanishing-viscosity limits.

The package solves periodic Hamilton-Jacobi equations

    d_t u + eps (-Delta)^s u + H(Du) = f(x, t)      on [0, 2pi)^n, n in {1, 2},

together with the backward nonlocal transport equation dual to the
difference of two such solutions, and provides harnesses that measure the
convergence rate of u_eps to the inviscid solution in L^p norms as eps -> 0.
"""

from fracvisc.torus import (
    TorusGrid,
    Field,
    frac_laplacian,
    spectral_gradient,
    hessian_max_eig,
    second_difference_max,
    lp_norm,
)
from fracvisc.hamiltonians import HamiltonianSpec, make_hamiltonian, LagrangianSpec, legendre_transform
from fracvisc.hj import (ZeroForcing, ConstantForcing, CosWaveForcing, ProblemSpec, ProblemBatch, Trajectory,
                         TrajectoryBatch, viscous_solve, hopf_lax_oracle, monotone_reference, semiconcavity_profile)
from fracvisc.dual import DriftField, DualSolution, DualBatch, build_drift, dual_solve, gronwall_check, duality_residual
from fracvisc.rates import SweepPlan, RateFit, run_sweep, fit_rate, one_sided_check, emit_report

__version__ = "0.1.0"
