"""Solver outputs pinned to recorded numbers.

The values below were recorded before viscous_solve and dual_solve moved
onto the shared rfft backend and integrating-factor RK4 march of
fracvisc.torus.  That rewrite keeps every operation and its operand order,
so it reproduces them bit for bit; the 1e-13 tolerance only leaves room for
FFT rounding on other platforms.  A change that moves one of these numbers
changes the numerics and must say so.
"""

import numpy as np
import pytest

from fracvisc.dual import build_drift, dual_solve, lp_dual_datum
from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import ConstantForcing, CosWaveForcing, ProblemSpec, ZeroForcing, viscous_solve
from fracvisc.torus import Field, TorusGrid

N = 64


def _problem(dim, kind, s, eps, forcing, T, mixed=False):
    grid = TorusGrid(dim, N)
    x = grid.nodes()
    if dim == 1:
        u0 = np.sin(x[0]) + 0.3 * np.cos(2 * x[0]) if mixed else np.cos(x[0])
    else:
        u0 = np.cos(x[0]) + np.cos(x[1])
    return ProblemSpec(grid=grid, s=s, epsilon=eps, hamiltonian=make_hamiltonian(kind, dim),
                       u0=Field(grid, u0), forcing=forcing, T=T)


VISCOUS_CASES = {
    "quadratic-1d": (_problem(1, "quadratic", 0.5, 0.05, ZeroForcing(), 1.0), (0.0, 0.5, 1.0)),
    "log-cosh-const-1d": (
        _problem(1, "log_cosh_regularized", 0.75, 0.1, ConstantForcing(0.3), 0.5, mixed=True),
        (0.0, 0.25, 0.5),
    ),
    "cos-wave-1d": (_problem(1, "quadratic", 0.5, 0.1, CosWaveForcing(0.5, 1.0), 0.5), (0.0, 0.2, 0.5)),
    "quadratic-2d": (_problem(2, "quadratic", 0.5, 0.1, ZeroForcing(), 0.5), (0.0, 0.5)),
}

# name: (n_steps, final snapshot at the _samples nodes, last k, last sup |Du|)
PINNED_VISCOUS = {
    "cos-wave-1d": (
        13,
        [
            1.1761243267258632, 0.675836299671767, -0.2132140212625677, -0.9087695068110384,
            -1.1910028138098705, -0.9852496142201873, -0.33111659312504965, 0.5776897397189105,
        ],
        0.8079029986098761,
        1.1926774211866775,
    ),
    "log-cosh-const-1d": (
        21,
        [
            -0.035487939072268375, 0.8002785205861217, 0.8369606272269848, 0.8002785205861217,
            -0.035487939072267834, -0.7988280245378495, -1.0836507272812188, -0.7988280245378497,
        ],
        0.9506125254125104,
        1.2860269541333067,
    ),
    "quadratic-1d": (
        22,
        [
            0.9211586357117303, 0.28276205561205814, -0.37801069662881953, -0.8113581391606516,
            -0.9603834905810869, -0.8113581391606516, -0.37801069662881975, 0.2827620556120579,
        ],
        0.4899202458127099,
        0.9661346599667461,
    ),
    "quadratic-2d": (
        15,
        [
            1.8883001242295414, 0.7269305061282169, -0.012179652684750963, 0.7269305061282164,
            0.7269305061282167, -0.4344391119731077, -1.1735492707860755, -0.434439111973108,
            -0.012179652684751074, -1.1735492707860755, -1.9126594295990433, -1.173549270786076,
            0.7269305061282165, -0.434439111973108, -1.1735492707860757, -0.43443911197310836,
        ],
        0.6441173320262019,
        1.3436565854121083,
    ),
}

# (n_steps, rho(0) at the _samples nodes)
PINNED_DUAL = (
    24,
    [
        0.0049662318539029915, 0.006928453867217854, 0.015355671346376108, 0.632519922236664,
        1.206760739378954, 0.6325199222366665, 0.015355671346375556, 0.006928453867218021,
    ],
)


def _samples(values):
    """Every 8th node in 1-D, every 16th along each axis in 2-D."""
    return values[(slice(None, None, 8 * values.ndim),) * values.ndim].ravel()


@pytest.mark.parametrize("name", sorted(VISCOUS_CASES))
def test_viscous_solve_matches_pinned_outputs(name):
    problem, times = VISCOUS_CASES[name]
    traj = viscous_solve(problem, snapshot_times=times)
    n_steps, final, k_last, g_last = PINNED_VISCOUS[name]
    assert traj.n_steps == n_steps
    np.testing.assert_allclose(_samples(traj.snapshots[-1].values), final, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose([traj.k_profile[-1], traj.grad_sup_profile[-1]], [k_last, g_last],
                               rtol=1e-13, atol=0.0)


def test_dual_solve_matches_pinned_outputs():
    T = 1.0
    times = tuple(np.linspace(0.0, T, 5))
    traj_eps, traj_eta = (
        viscous_solve(_problem(1, "quadratic", 0.5, eps, ZeroForcing(), T), snapshot_times=times)
        for eps in (0.1, 0.05)
    )
    drift = build_drift(traj_eps, traj_eta)
    w_tau = Field(drift.grid, traj_eps.snapshots[-1].values - traj_eta.snapshots[-1].values)
    dual = dual_solve(drift, 0.05, lp_dual_datum(w_tau, 2.0), T)
    n_steps, rho0 = PINNED_DUAL
    assert dual.n_steps == n_steps
    np.testing.assert_allclose(_samples(dual.snapshot_at(0.0).values), rho0, rtol=1e-13, atol=0.0)
