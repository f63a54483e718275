"""Acceptance suite on the 1-D quadratic benchmark.

Benchmark throughout: H(p) = |p|^2 / 2, u0 = cos x, f = 0, horizon T = 2;
the inviscid solution forms its gradient kink at t = 1, so [0, 2] covers a
smooth leg and a shocked leg.  Eleven numbered checks pin the solver stack
end to end: spectral identities, oracle agreement, fitted convergence
slopes in every diffusion regime, the dual (backward transport) estimates,
and bitwise determinism of the sweep reports.  Each check reports through
the `criterion` fixture, which prints one PASS/FAIL line and fails the
test when the check misses its pinned tolerance.

The sweeps reuse module-scoped fixtures; the whole module runs in about
15 seconds on a two-core machine.
"""

import math
import os

import numpy as np
import pytest

from fracvisc.dual import (
    build_drift,
    dual_solve,
    duality_residual,
    gronwall_check,
    lp_dual_datum,
)
from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import (
    ProblemSpec,
    ZeroForcing,
    hopf_lax_oracle,
    viscous_solve,
)
from fracvisc.rates import (
    InitialData,
    SweepPlan,
    emit_report,
    fit_rate,
    one_sided_check,
    run_sweep,
)
from fracvisc.torus import Field, TorusGrid, frac_laplacian, lp_norm

QUAD = make_hamiltonian("quadratic", 1)
ZERO_H = make_hamiltonian("zero", 1)
T_END = 2.0
SNAP_17 = tuple(float(t) for t in np.linspace(0.0, T_END, 17))
P_SET = (1.5, 2.0, 4.0, math.inf)
CORES = len(os.sched_getaffinity(0))  # the criterion 03 and 04 sweeps run pooled; their output is the same


def _plan(s: float, epsilons: tuple[float, ...]) -> SweepPlan:
    return SweepPlan(
        dim=1,
        s_values=(s,),
        epsilons=epsilons,
        p_values=P_SET,
        hamiltonian=QUAD,
        u0=InitialData("cos"),
        forcing=ZeroForcing(),
        T=T_END,
        snapshot_times=SNAP_17,
        reference="hopf_lax",
        fine_factor=4,
        n_points=None,
    )


@pytest.fixture(scope="module")
def sweep_half():
    """Critical-order sweep, eps = 2^-4 .. 2^-10 (seven octaves of data)."""
    return run_sweep(_plan(0.5, tuple(2.0**-k for k in range(4, 11))), threads=CORES)


@pytest.fixture(scope="module")
def sweep_quarter():
    """Supercritical order s = 0.25; a half-octave ladder keeps every rung's
    viscous layer near grid scale while still spanning four octaves."""
    return run_sweep(_plan(0.25, tuple(2.0 ** (-k / 2.0) for k in range(4, 13))), threads=CORES)


@pytest.fixture(scope="module")
def sweep_subcritical():
    """Subcritical order s = 0.75."""
    return run_sweep(_plan(0.75, tuple(2.0**-k for k in range(4, 10))), threads=CORES)


@pytest.fixture(scope="module")
def sweep_local():
    """Classical diffusion s = 1; larger viscosities, before the fitted
    slope saturates at the fast (rate-one) end of this benchmark."""
    return run_sweep(_plan(1.0, tuple(2.0**-k for k in range(2, 8))))


def _benchmark_trajectory(eps, n, ham=QUAD, times=SNAP_17, s=0.5, T=T_END):
    grid = TorusGrid(1, n)
    problem = ProblemSpec(
        grid=grid,
        s=s,
        epsilon=eps,
        hamiltonian=ham,
        u0=Field(grid, np.cos(grid.nodes()[0])),
        forcing=ZeroForcing(),
        T=T,
    )
    return viscous_solve(problem, snapshot_times=times)


@pytest.fixture(scope="module")
def dual_pack():
    """Trajectories and drifts for the pinned viscosity set {0.1, 0.05, 0.025}."""
    trajectories = {eps: _benchmark_trajectory(eps, 1024) for eps in (0.1, 0.05, 0.025)}
    drifts = {
        pair: build_drift(trajectories[pair[0]], trajectories[pair[1]])
        for pair in ((0.1, 0.05), (0.1, 0.025), (0.05, 0.025))
    }
    return trajectories, drifts


# ---------------------------------------------------------------------------
# 1. spectral core identities
# ---------------------------------------------------------------------------


def test_criterion_01_spectral_core(criterion):
    rng = np.random.default_rng(20240817)
    worst = 0.0

    # Parseval: quadrature L^2 norm equals the coefficient-space norm.
    for dim, n in ((1, 128), (2, 32)):
        grid = TorusGrid(dim, n)
        f = Field(grid, rng.standard_normal(grid.shape))
        nodal = lp_norm(f, 2.0) ** 2
        coeff = np.fft.fftn(f.values)
        spectral = (2.0 * math.pi) ** dim * float(np.sum(np.abs(coeff) ** 2)) / grid.n_total**2
        worst = max(worst, abs(nodal - spectral) / nodal)

    # Composition: the half-Laplacian applied twice is the full Laplacian.
    for dim, n in ((1, 128), (2, 32)):
        grid = TorusGrid(dim, n)
        x = grid.nodes()
        f = Field(grid, np.cos(x[0]) + (0.3 * np.sin(2 * x[-1]) if dim == 2 else 0.5 * np.sin(3 * x[0])))
        twice = frac_laplacian(frac_laplacian(f, 0.5), 0.5)
        once = frac_laplacian(f, 1.0)
        worst = max(worst, float(np.max(np.abs(twice.values - once.values))) / float(np.max(np.abs(once.values))))

    # Single-mode decay under pure fractional diffusion: exp(-eps |k|^(2s) t).
    eps, t_end, mode = 0.3, 1.0, 3
    for s in (0.25, 0.5, 0.75, 1.0):
        grid = TorusGrid(1, 128)
        problem = ProblemSpec(
            grid=grid,
            s=s,
            epsilon=eps,
            hamiltonian=ZERO_H,
            u0=Field(grid, np.cos(mode * grid.nodes()[0])),
            forcing=ZeroForcing(),
            T=t_end,
        )
        traj = viscous_solve(problem, snapshot_times=(0.0, t_end))
        expected = math.exp(-eps * float(mode) ** (2 * s) * t_end) * np.cos(mode * grid.nodes()[0])
        worst = max(worst, float(np.max(np.abs(traj.snapshots[-1].values - expected))))
    grid = TorusGrid(2, 64)
    xx, yy = grid.nodes()
    problem = ProblemSpec(
        grid=grid,
        s=0.5,
        epsilon=eps,
        hamiltonian=make_hamiltonian("zero", 2),
        u0=Field(grid, np.cos(xx) * np.cos(yy)),
        forcing=ZeroForcing(),
        T=t_end,
    )
    traj = viscous_solve(problem, snapshot_times=(0.0, t_end))
    expected = math.exp(-eps * 2.0**0.5 * t_end) * np.cos(xx) * np.cos(yy)
    worst = max(worst, float(np.max(np.abs(traj.snapshots[-1].values - expected))))

    criterion(1, "spectral-core", worst <= 1e-8, f"worst deviation {worst:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 2. inviscid oracle agreement
# ---------------------------------------------------------------------------


def _characteristics_cos(x: np.ndarray, t: float) -> np.ndarray:
    """Pre-shock solution of u_t + |u_x|^2/2 = 0, u0 = cos, via y - t sin y = x."""
    y = x.copy()
    for _ in range(60):
        y -= (y - t * np.sin(y) - x) / (1.0 - t * np.cos(y))
    return np.cos(y) + 0.5 * t * np.sin(y) ** 2


def test_criterion_02_oracle_agreement(criterion):
    # Smooth leg: variational oracle against the characteristics solution.
    grid = TorusGrid(1, 512)
    problem = ProblemSpec(
        grid=grid,
        s=0.5,
        epsilon=0.0,
        hamiltonian=QUAD,
        u0=Field(grid, np.cos(grid.nodes()[0])),
        forcing=ZeroForcing(),
        T=T_END,
    )
    x = grid.nodes()[0]
    pre = float(np.max(np.abs(hopf_lax_oracle(problem, (0.5,))[0].values - _characteristics_cos(x, 0.5))))

    # Shocked leg: against a 10^6-sample lattice minimization of the
    # variational principle u(x,t) = min_d [cos(x+d) + d^2/(2t)].
    grid64 = TorusGrid(1, 64)
    problem64 = ProblemSpec(
        grid=grid64,
        s=0.5,
        epsilon=0.0,
        hamiltonian=QUAD,
        u0=Field(grid64, np.cos(grid64.nodes()[0])),
        forcing=ZeroForcing(),
        T=T_END,
    )
    oracle = hopf_lax_oracle(problem64, (2.0,))[0].values
    d = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 1_000_001)
    penalty = d**2 / (2.0 * 2.0)
    brute = np.array([np.min(np.cos(xj + d) + penalty) for xj in grid64.nodes()[0]])
    post = float(np.max(np.abs(oracle - brute)))

    ok = pre <= 1e-8 and post <= 1e-8
    criterion(2, "oracle-agreement", ok, f"pre-shock sup {pre:.2e}, post-shock sup {post:.2e} (tol 1e-8)")


# ---------------------------------------------------------------------------
# 3. critical-order L^p rates
# ---------------------------------------------------------------------------


def test_criterion_03_critical_lp_rates(criterion, sweep_half):
    assert not sweep_half.failures
    slopes = {}
    for p in (1.5, 2.0, 4.0):
        eps, err = sweep_half.errors_for(0.5, p)
        slopes[p] = fit_rate(eps, err).exponent
    spread = max(slopes.values()) - min(slopes.values())
    ok = all(v >= 0.9 for v in slopes.values()) and spread <= 0.1
    detail = ", ".join(f"p={p:g}: {v:.3f}" for p, v in slopes.items())
    criterion(3, "critical-lp-rates", ok, f"{detail}, spread {spread:.3f} (floors 0.9, spread tol 0.1)")


# ---------------------------------------------------------------------------
# 4. sup-norm rates across diffusion orders
# ---------------------------------------------------------------------------


def test_criterion_04_sup_rate_regimes(criterion, sweep_quarter, sweep_half, sweep_subcritical):
    eps, err = sweep_quarter.errors_for(0.25, math.inf)
    slope_quarter = fit_rate(eps, err).exponent
    eps, err = sweep_half.errors_for(0.5, math.inf)
    fit_half = fit_rate(eps, err)
    slope_half = fit_half.accepted_exponent(allow_log=True)
    eps, err = sweep_subcritical.errors_for(0.75, math.inf)
    slope_sub = fit_rate(eps, err).exponent
    ok = slope_quarter >= 0.9 and slope_half >= 0.9 and slope_sub >= 0.57
    criterion(
        4,
        "sup-rate-regimes",
        ok,
        f"s=0.25: {slope_quarter:.3f} (floor 0.9), s=0.5: {slope_half:.3f} "
        f"({fit_half.preferred} model, floor 0.9), s=0.75: {slope_sub:.3f} (floor 0.57)",
    )


# ---------------------------------------------------------------------------
# 5. classical-diffusion contrast
# ---------------------------------------------------------------------------


def test_criterion_05_local_case_contrast(criterion, sweep_local, sweep_half):
    # At s = 1 this benchmark admits a closed-form heat-kernel (log-transform)
    # representation whose L^p error is O(eps) up to logarithms, so fitted
    # slopes land above the generic theory targets (0.75 in L^2, 0.5 in sup).
    # The hard gates are therefore the one-sided floors target - 0.1, plus an
    # explicit contrast gate: the sup slope must deteriorate relative to both
    # the critical-order sup slope and the s = 1 integral-norm slope, which is
    # the behavior this check exists to witness.
    eps, err = sweep_local.errors_for(1.0, 2.0)
    slope_l2 = fit_rate(eps, err).exponent
    eps, err = sweep_local.errors_for(1.0, math.inf)
    slope_sup = fit_rate(eps, err).exponent
    eps, err = sweep_half.errors_for(0.5, math.inf)
    slope_half_sup = fit_rate(eps, err).exponent

    ok = (
        slope_l2 >= 0.65
        and slope_sup >= 0.4
        and slope_sup <= slope_half_sup - 0.1
        and slope_sup <= slope_l2 - 0.1
    )
    criterion(
        5,
        "local-case-contrast",
        ok,
        f"L2 slope {slope_l2:.3f} (target 0.75, floor 0.65), sup slope {slope_sup:.3f} "
        f"(target 0.5, floor 0.4), critical sup slope {slope_half_sup:.3f}; "
        f"sup deteriorates by {slope_half_sup - slope_sup:.3f} vs critical and "
        f"{slope_l2 - slope_sup:.3f} vs L2",
    )


# ---------------------------------------------------------------------------
# 6. dual L^q growth bound
# ---------------------------------------------------------------------------


def test_criterion_06_dual_gronwall(criterion, dual_pack):
    trajectories, drifts = dual_pack
    checks = []
    details = []
    for pair in ((0.1, 0.05), (0.05, 0.025)):
        eps, eta = pair
        drift = drifts[pair]
        te, th = trajectories[eps], trajectories[eta]
        w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
        for q in (2.0, 4.0):
            alpha = lp_dual_datum(w_tau, q, "positive")
            (dual,) = dual_solve([drift], [eta], [alpha], T_END)
            report = gronwall_check(dual, drift, q)
            sup_alpha = float(np.max(alpha.values))
            checks.append(report.max_ratio <= 1.01)
            checks.append(dual.mass_drift <= 1e-12)
            checks.append(dual.min_value >= -1e-6 * sup_alpha)
            details.append(f"({eps:g},{eta:g}) q={q:g}: ratio {report.max_ratio:.4f} "
                           f"({report.max_ratio_before_tau:.4f} before tau)")

    # The growth constant exp((q-1) int ||[div b]^-||) must not move with the
    # smaller viscosity: compare it across every pair drawn from the pinned set.
    const_spread = []
    for q in (2.0, 4.0):
        consts = [
            math.exp((q - 1.0) * float(np.trapezoid(d.div_minus_sup, d.times)))
            for d in drifts.values()
        ]
        const_spread.append((max(consts) - min(consts)) / min(consts))
    checks.append(max(const_spread) <= 0.10)

    ok = all(checks)
    criterion(
        6,
        "dual-gronwall",
        ok,
        "; ".join(details)
        + f"; constant spread q=2: {const_spread[0]:.3f}, q=4: {const_spread[1]:.3f} "
        "(ratio tol 1.01, mass 1e-12, min rho >= -1e-6 sup alpha, spread tol 0.10)",
    )


# ---------------------------------------------------------------------------
# 7. drift divergence lower bound
# ---------------------------------------------------------------------------


def test_criterion_07_divergence_lower_bound(criterion, dual_pack):
    trajectories, drifts = dual_pack
    dim = 1
    worst = -math.inf
    for (eps, _eta), drift in drifts.items():
        excess = float(np.max(drift.div_minus_sup - dim * QUAD.Theta * trajectories[eps].k_bound))
        worst = max(worst, excess)
    criterion(
        7,
        "divergence-lower-bound",
        worst <= 1e-6,
        f"worst excess of sup [div b]^- over n*Theta*k(t): {worst:+.2e} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# 8. viscosity-uniform semiconcavity
# ---------------------------------------------------------------------------


def test_criterion_08_semiconcavity_uniform(criterion, sweep_half):
    worst = -math.inf
    times = np.asarray(sweep_half.plan.snapshot_times)
    for eps in sweep_half.plan.epsilons:
        cell = sweep_half.cells[(0.5, eps)]
        for t in (0.5, 1.0, 2.0):
            i = int(np.argmin(np.abs(times - t)))
            assert abs(times[i] - t) < 1e-12
            worst = max(worst, float(cell.k_profile[i]) - 1.0 / (1.0 + t))
    criterion(
        8,
        "semiconcavity-uniform",
        worst <= 0.05,
        f"max over eps and t in (0.5, 1, 2) of k_eps(t) - 1/(1+t): {worst:+.3f} (tol 0.05)",
    )


# ---------------------------------------------------------------------------
# 9. duality identity
# ---------------------------------------------------------------------------


def _duality_residual_at(snapshot_count: int, ham, n: int, mollify: float = 0.0) -> float:
    times = tuple(float(t) for t in np.linspace(0.0, T_END, snapshot_count))
    te = _benchmark_trajectory(0.1, n, ham=ham, times=times)
    th = _benchmark_trajectory(0.05, n, ham=ham, times=times)
    drift = build_drift(te, th, mollify_scale=mollify)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    alpha = lp_dual_datum(w_tau, 2.0, "positive")
    (dual,) = dual_solve([drift], [0.05], [alpha], T_END)
    return duality_residual(dual, te, th)


def test_criterion_09_duality_identity(criterion):
    # The identity is tested against the exactly sampled drift (no
    # mollification): smoothing the drift is a device for the sign-structure
    # checks above and would put a snapshot-independent bias floor under the
    # residual here.
    r64 = _duality_residual_at(64, QUAD, 1024)
    r256 = _duality_residual_at(256, QUAD, 1024)
    reduction = r64 / r256
    r_linear = _duality_residual_at(256, ZERO_H, 256)
    ok = r64 <= 0.02 and reduction >= 3.0 and r_linear <= 1e-6
    criterion(
        9,
        "duality-identity",
        ok,
        f"residual {r64:.2e} at 64 snapshots (tol 0.02), {r256:.2e} at 256 "
        f"({reduction:.1f}x reduction, floor 3x), zero-Hamiltonian case {r_linear:.2e} (tol 1e-6)",
    )


# ---------------------------------------------------------------------------
# 10. one-sided bound and rate (conditional)
# ---------------------------------------------------------------------------


def test_criterion_10_one_sided_conditional(criterion, sweep_half):
    report = one_sided_check(sweep_half)
    slope = None if report.fit is None else report.fit.exponent
    ok = report.passes()
    if report.uniform:
        detail = (
            f"bound spread {report.spread:.4f} < 0.20, condition active; "
            f"one-sided sup slope {slope:.3f} (floor 0.9)"
        )
    else:
        detail = f"bound spread {report.spread:.4f} >= 0.20, condition vacuous"
    criterion(10, "one-sided-conditional", ok, detail)


# ---------------------------------------------------------------------------
# 11. sweep determinism
# ---------------------------------------------------------------------------


def test_criterion_11_sweep_determinism(criterion, sweep_local, tmp_path):
    rerun = run_sweep(sweep_local.plan)
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    emit_report(sweep_local, str(dir_a))
    emit_report(rerun, str(dir_b))
    bytes_a = (dir_a / "rates.csv").read_bytes()
    bytes_b = (dir_b / "rates.csv").read_bytes()
    ok = bytes_a == bytes_b and len(bytes_a) > 0
    criterion(
        11,
        "sweep-determinism",
        ok,
        f"repeated sweep rates.csv byte-identical: {bytes_a == bytes_b} ({len(bytes_a)} bytes)",
    )
