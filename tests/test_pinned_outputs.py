"""Solver outputs pinned to recorded numbers.

The viscous and dual values were recorded when the shared march of
fracvisc.torus became ETDRK4 (etdrk4_march), at dt_cfl = 0.5, which every
solve here passes; the step counts did not change.  Against an ETDRK4 solve at
dt_cfl = 1/32 the new snapshot samples and k values lie as close as the
integrating-factor RK4 ones they replace or closer, in every case.  The
1e-13 tolerance only leaves room for FFT rounding on other platforms.  A
change that moves one of these numbers changes the numerics and must say so.

The Hopf-Lax oracle pins were recorded before the 1-D minimizer and the
2-D coordinate descent were merged into one path.  Since the oracle polishes
every sign-change bracket of its lattice with Newton, every pin is
reproduced to round-off, within 4.5e-16, not bit for bit.  The 2-D pin is
compared with an absolute tolerance of 1e-13, the 1-D ones with a relative
tolerance of 1e-13.
"""

import numpy as np
import pytest

from fracvisc.dual import build_drift, dual_solve, lp_dual_datum
from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import ConstantForcing, CosWaveForcing, ProblemSpec, ZeroForcing, hopf_lax_oracle, viscous_solve
from fracvisc.torus import Field, TorusGrid

N = 64


def _problem(dim, kind, s, eps, forcing, T, mixed=False, n=N):
    grid = TorusGrid(dim, n)
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
            1.176124151186396, 0.6758362776600864, -0.21321396465682602, -0.9087694742216899,
            -1.1910028093872516, -0.9852495782923407, -0.3311165658204616, 0.5776896720148017,
        ],
        0.8079030329922734,
        1.1926780630956282,
    ),
    "log-cosh-const-1d": (
        21,
        [
            -0.03548280608120818, 0.8002924298597838, 0.8369702202912591, 0.8002924298597838,
            -0.035482806081207637, -0.7988272296747023, -1.0836495132482362, -0.7988272296747025,
        ],
        0.9505053829487988,
        1.2861064840360628,
    ),
    "quadratic-1d": (
        22,
        [
            0.9211715838263204, 0.28273896380869823, -0.37799861874172436, -0.8113583418225867,
            -0.9603849491613947, -0.8113583418225868, -0.3779986187417246, 0.2827389638086979,
        ],
        0.48968608798853475,
        0.9664621645441307,
    ),
    "quadratic-2d": (
        15,
        [
            1.8883000664321892, 0.7269304728811692, -0.012179684009684166, 0.7269304728811687,
            0.7269304728811692, -0.43443912066985096, -1.1735492775607042, -0.4344391206698513,
            -0.012179684009684055, -1.1735492775607042, -1.9126594344515575, -1.1735492775607046,
            0.7269304728811689, -0.4344391206698513, -1.1735492775607046, -0.43443912066985163,
        ],
        0.6441177867492065,
        1.343656803624815,
    ),
}

# (n_steps, rho(0) at the _samples nodes)
PINNED_DUAL = (
    24,
    [
        0.004963603709358, 0.0069343047865284, 0.015371498890003402, 0.6325212668031138,
        1.2067615060549146, 0.6325212668031155, 0.015371498890003263, 0.006934304786528567,
    ],
)


def _samples(values):
    """Every 8th node in 1-D, every 16th along each axis in 2-D."""
    return values[(slice(None, None, 8 * values.ndim),) * values.ndim].ravel()


@pytest.mark.parametrize("name", sorted(VISCOUS_CASES))
def test_viscous_solve_matches_pinned_outputs(name):
    problem, times = VISCOUS_CASES[name]
    traj = viscous_solve(problem, dt_cfl=0.5, snapshot_times=times)
    n_steps, final, k_last, g_last = PINNED_VISCOUS[name]
    assert traj.n_steps == n_steps
    np.testing.assert_allclose(_samples(traj.snapshots[-1].values), final, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose([traj.k_profile[-1], traj.grad_sup_profile[-1]], [k_last, g_last],
                               rtol=1e-13, atol=0.0)


def test_dual_solve_matches_pinned_outputs():
    T = 1.0
    times = tuple(np.linspace(0.0, T, 5))
    traj_eps, traj_eta = (
        viscous_solve(_problem(1, "quadratic", 0.5, eps, ZeroForcing(), T), dt_cfl=0.5, snapshot_times=times)
        for eps in (0.1, 0.05)
    )
    drift = build_drift(traj_eps, traj_eta)
    w_tau = Field(drift.grid, traj_eps.snapshots[-1].values - traj_eta.snapshots[-1].values)
    (dual,) = dual_solve([drift], [0.05], [lp_dual_datum(w_tau, 2.0)], T, dt_cfl=0.5)
    n_steps, rho0 = PINNED_DUAL
    assert dual.n_steps == n_steps
    np.testing.assert_allclose(_samples(dual.snapshots[0].values), rho0, rtol=1e-13, atol=0.0)


# name: (problem, t, values[::8] in 1-D or values[::4, ::4] in 2-D, compared at (rtol, atol))
PINNED_ORACLE = {
    "quadratic-1d": (
        _problem(1, "quadratic", 0.5, 0.0, ZeroForcing(), 2.0), 2.0,
        [
            0.5792021049470532, -0.09282910862077898, -0.5920740012779437, -0.8973899368360972,
            -1.0, -0.8973899368360974, -0.592074001277944, -0.09282910862077942,
        ],
        (1e-13, 0.0),
    ),
    "log-cosh-1d": (
        _problem(1, "log_cosh_regularized", 0.5, 0.0, ZeroForcing(), 1.0, mixed=True), 1.0,
        [
            -0.5517948418161747, 0.28897667429316165, 0.7, 0.2889766742931622,
            -0.5517948418161742, -1.104817444331303, -1.3, -1.1048174443313037,
        ],
        (1e-13, 0.0),
    ),
    "quadratic-2d-n16": (
        _problem(2, "quadratic", 0.5, 0.0, ZeroForcing(), 1.4, n=16), 1.4,
        [
            1.7395388346269858, 0.37557720277815343, -0.13023058268650733, 0.3755772027781531,
            0.37557720277815343, -0.9883844290706786, -1.4941922145353395, -0.9883844290706789,
            -0.1302305826865071, -1.494192214535339, -2.0, -1.4941922145353392,
            0.3755772027781532, -0.9883844290706789, -1.4941922145353392, -0.9883844290706795,
        ],
        (0.0, 1e-13),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_ORACLE))
def test_hopf_lax_oracle_matches_pinned_outputs(name):
    problem, t, values, (rtol, atol) = PINNED_ORACLE[name]
    u = hopf_lax_oracle(problem, (t,))[0].values
    step = 8 if u.ndim == 1 else 4
    np.testing.assert_allclose(u[(slice(None, None, step),) * u.ndim].ravel(), values, rtol=rtol, atol=atol)
