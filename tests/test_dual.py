"""Tests for the backward dual transport machinery: drift assembly against
closed forms, exact transport/diffusion solutions, conservation, Gronwall
bounds and the duality identity."""

import dataclasses
import math

import numpy as np
import pytest

from fracvisc.dual import (
    DriftField,
    build_drift,
    dual_solve,
    duality_residual,
    gronwall_check,
    lp_dual_datum,
)
from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import ProblemSpec, Trajectory, ZeroForcing, viscous_solve
from fracvisc.torus import Field, TorusGrid, lp_norm

QUAD = make_hamiltonian("quadratic", 1)
ZERO_H = make_hamiltonian("zero", 1)


def fake_trajectory(grid, eps, profiles, times, ham=QUAD, s=0.5):
    """Hand-built Trajectory whose snapshots are given value arrays."""
    pr = ProblemSpec(
        grid=grid,
        s=s,
        epsilon=eps,
        hamiltonian=ham,
        u0=Field(grid, np.asarray(profiles[0], dtype=float)),
        forcing=ZeroForcing(),
        T=float(times[-1]) if times[-1] > 0 else 1.0,
    )
    snaps = tuple(Field(grid, np.asarray(v, dtype=float)) for v in profiles)
    tarr = np.asarray(times, dtype=float)
    return Trajectory(
        problem=pr,
        times=tarr,
        snapshots=snaps,
        n_steps=1,
    )


def solve_pair(eps, eta, n=512, T=1.5, s=0.5, n_times=16, ham=QUAD):
    g = TorusGrid(ham.dim, n)
    x = g.nodes()
    u0 = np.cos(x[0]) if g.dim == 1 else np.cos(x[0]) + 0.5 * np.sin(x[1] + 0.3)
    times = tuple(np.linspace(0.0, T, n_times))

    def run(e):
        pr = ProblemSpec(
            grid=g, s=s, epsilon=e, hamiltonian=ham,
            u0=Field(g, u0), forcing=ZeroForcing(), T=T,
        )
        return viscous_solve(pr, snapshot_times=times)

    return run(eps), run(eta)


# ---------------------------------------------------------------------------
# drift assembly
# ---------------------------------------------------------------------------


def test_drift_closed_form_quadratic():
    # for H = |p|^2/2 the zeta average is exact: b = -(Du_eps + Du_eta)/2
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    ua = np.sin(x)
    ub = np.cos(2.0 * x)
    ta = fake_trajectory(g, 0.2, [ua, ua], (0.0, 1.0))
    tb = fake_trajectory(g, 0.1, [ub, ub], (0.0, 1.0))
    drift = build_drift(ta, tb, mollify_scale=0.0)
    expect_b = -(np.cos(x) - 2.0 * np.sin(2.0 * x)) / 2.0
    expect_div = (np.sin(x) + 4.0 * np.cos(2.0 * x)) / 2.0
    assert np.max(np.abs(drift.values[0, :, 0] - expect_b)) < 1e-12
    assert np.max(np.abs(drift.div_values[0] - expect_div)) < 1e-11
    assert drift.eps == 0.2 and drift.eta == 0.1 and drift.s == 0.5
    assert drift.sup_speed == pytest.approx(float(np.max(np.abs(expect_b))), rel=1e-12)


def test_drift_mollification_damps_single_modes():
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    ua = np.sin(x)            # Du = cos x, mode 1
    ub = np.sin(3.0 * x)      # Du = 3 cos 3x, mode 3
    ta = fake_trajectory(g, 0.2, [ua], (0.0,))
    tb = fake_trajectory(g, 0.1, [ub], (0.0,))
    z0 = 0.3
    drift = build_drift(ta, tb, mollify_scale=z0)
    f1 = math.exp(-0.5 * z0**2)
    f3 = math.exp(-0.5 * (3.0 * z0) ** 2)
    expect = -0.5 * (f1 * np.cos(x) + 3.0 * f3 * np.cos(3.0 * x))
    assert np.max(np.abs(drift.values[0, :, 0] - expect)) < 1e-12
    expect_div = -0.5 * (-f1 * np.sin(x) - 9.0 * f3 * np.sin(3.0 * x))
    assert np.max(np.abs(drift.div_values[0] - expect_div)) < 1e-11


def test_drift_div_minus_sup():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    ta = fake_trajectory(g, 0.2, [np.sin(x)], (0.0,))
    tb = fake_trajectory(g, 0.1, [np.sin(x)], (0.0,))
    drift = build_drift(ta, tb, mollify_scale=0.0)
    # b = -cos x, div b = sin x, negative part sup = 1
    assert drift.div_minus_sup[0] == pytest.approx(1.0, abs=1e-10)


def test_drift_interpolation_is_linear_in_time():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    ta = fake_trajectory(g, 0.2, [np.sin(x), 3.0 * np.sin(x)], (0.0, 1.0))
    tb = fake_trajectory(g, 0.1, [np.sin(x), 3.0 * np.sin(x)], (0.0, 1.0))
    drift = build_drift(ta, tb, mollify_scale=0.0)
    mid = drift.interpolate(0.25)
    expect = 0.75 * drift.values[0] + 0.25 * drift.values[1]
    assert np.max(np.abs(mid - expect)) < 1e-14
    assert np.array_equal(drift.interpolate(-1.0), drift.values[0])
    assert np.array_equal(drift.interpolate(9.0), drift.values[-1])


def test_build_drift_validation():
    g = TorusGrid(1, 64)
    g2 = TorusGrid(1, 128)
    x = g.nodes()[0]
    ta = fake_trajectory(g, 0.2, [np.sin(x)], (0.0,))
    with pytest.raises(ValueError, match="mollify_scale"):
        build_drift(ta, ta, mollify_scale=-0.1)
    tb = fake_trajectory(g2, 0.1, [np.sin(g2.nodes()[0])], (0.0,))
    with pytest.raises(ValueError, match="different grids"):
        build_drift(ta, tb)
    tc = fake_trajectory(g, 0.1, [np.sin(x)], (0.0,), ham=ZERO_H)
    with pytest.raises(ValueError, match="Hamiltonians"):
        build_drift(ta, tc)
    td = fake_trajectory(g, 0.1, [np.sin(x)], (0.0,), s=0.75)
    with pytest.raises(ValueError, match="fractional orders"):
        build_drift(ta, td)
    te = fake_trajectory(g, 0.1, [np.sin(x), np.sin(x)], (0.0, 1.0))
    with pytest.raises(ValueError, match="snapshot times"):
        build_drift(ta, te)


# ---------------------------------------------------------------------------
# dual solver closed forms
# ---------------------------------------------------------------------------


def test_dual_pure_fractional_diffusion():
    # zero drift: the backward equation is a fractional heat flow in
    # reversed time, rho(0) = exp(-eta tau |k|^(2s)) componentwise
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    const = np.zeros(g.shape)
    ta = fake_trajectory(g, 0.2, [const, const], (0.0, 1.0))
    tb = fake_trajectory(g, 0.1, [const, const], (0.0, 1.0))
    drift = build_drift(ta, tb, mollify_scale=0.0)
    assert np.max(np.abs(drift.values)) == 0.0
    eta, tau = 0.35, 1.0
    alpha = Field(g, 1.0 + 0.5 * np.cos(x) + 0.25 * np.sin(2.0 * x))
    dual = dual_solve(drift, eta, alpha, tau)
    rho0 = dual.snapshot_at(0.0).values
    expect = (
        1.0
        + 0.5 * math.exp(-eta * tau) * np.cos(x)
        + 0.25 * math.exp(-eta * tau * 2.0**1.0) * np.sin(2.0 * x)
    )
    assert np.max(np.abs(rho0 - expect)) < 1e-10
    assert dual.mass_drift <= 1e-12


def test_dual_constant_drift_translates():
    # hand-built uniform drift c: rho(t) = alpha(x - c (tau - t))
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    c, tau = 0.8, 1.25
    times = np.linspace(0.0, tau, 6)
    values = np.full((times.size,) + g.shape + (1,), c)
    div = np.zeros((times.size,) + g.shape)
    drift = DriftField(
        grid=g, times=times, values=values, div_values=div,
        eps=0.2, eta=0.0, s=0.5,
    )
    alpha = Field(g, np.exp(np.cos(x)))
    dual = dual_solve(drift, 0.0, alpha, tau, dt_cfl=0.5)  # the bound below is calibrated at this step
    rho0 = dual.snapshot_at(0.0).values
    expect = np.exp(np.cos(x - c * tau))
    assert np.max(np.abs(rho0 - expect)) < 1e-6
    assert dual.mass_drift <= 1e-12


def test_dual_validation_and_snapshots():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    ta = fake_trajectory(g, 0.2, [np.sin(x), np.sin(x)], (0.0, 1.0))
    tb = fake_trajectory(g, 0.1, [np.sin(x), np.sin(x)], (0.0, 1.0))
    drift = build_drift(ta, tb)
    alpha = Field(g, 1.0 + np.cos(x))
    with pytest.raises(ValueError, match="eta"):
        dual_solve(drift, -0.1, alpha, 1.0)
    with pytest.raises(ValueError, match="tau"):
        dual_solve(drift, 0.1, alpha, 2.0)
    with pytest.raises(ValueError, match="dt_cfl"):
        dual_solve(drift, 0.1, alpha, 1.0, dt_cfl=2.6)
    g2 = TorusGrid(1, 128)
    with pytest.raises(ValueError, match="grid"):
        dual_solve(drift, 0.1, Field(g2, np.ones(g2.shape)), 1.0)
    with pytest.raises(ValueError, match="grid"):  # one datum of a batch on another grid
        dual_solve(drift, 0.1, [alpha, Field(g2, np.ones(g2.shape))], 1.0)
    with pytest.raises(ValueError, match="terminal datum"):
        dual_solve(drift, 0.1, [], 1.0)
    with pytest.raises(ValueError, match="one drift and one eta per terminal datum"):
        dual_solve([drift], [0.1, 0.1], [alpha, alpha], 1.0)
    later = dataclasses.replace(drift, times=drift.times + 0.5)
    with pytest.raises(ValueError, match="sample times"):
        dual_solve([drift, later], 0.1, [alpha, alpha], 1.0)
    dual = dual_solve(drift, 0.1, alpha, 1.0)
    assert np.allclose(dual.times, (0.0, 1.0))  # the drift's sample times
    assert dual.snapshot_at(1.0) is dual.snapshots[-1]
    with pytest.raises(KeyError):
        dual.snapshot_at(0.25)
    # terminal snapshot reproduces alpha exactly
    assert np.max(np.abs(dual.snapshots[-1].values - alpha.values)) < 1e-12


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mollify_scale", [0.0, 0.05])
def test_batched_dual_equals_single_solves(dim, mollify_scale):
    n, ham = (128, QUAD) if dim == 1 else (32, make_hamiltonian("quadratic", 2))
    te, th = solve_pair(0.1, 0.05, n=n, T=0.8, n_times=5, ham=ham)
    drift = build_drift(te, th, mollify_scale=mollify_scale)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    data = [lp_dual_datum(w_tau, 2.0, "positive"), lp_dual_datum(w_tau, 3.0, "negative"),
            lp_dual_datum(w_tau, 4.0, "positive")]
    batch = dual_solve(drift, 0.05, data, te.problem.T)
    assert len(batch) == 3
    for alpha, got in zip(data, batch):
        one = dual_solve(drift, 0.05, alpha, te.problem.T)
        assert got.alpha is alpha
        assert np.array_equal(got.times, one.times)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got.snapshots, one.snapshots))
        assert (got.n_steps, got.min_value, got.mass_drift) == (one.n_steps, one.min_value, one.mass_drift)
    assert batch.n_steps == batch[0].n_steps


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("mollify_scale", [0.0, 0.05])
def test_pairs_marched_in_one_call_equal_their_own_solves(dim, mollify_scale, monkeypatch):
    import fracvisc.dual as dual_mod

    g = TorusGrid(dim, 128 if dim == 1 else 32)
    ham = QUAD if dim == 1 else make_hamiltonian("quadratic", 2)
    x = g.nodes()
    times = (0.0, 0.25, 0.5)
    # three pairs whose drift speeds (about amp) set three different steps
    pairs = []
    for amp, eps, eta, qs in ((1.5, 0.2, 0.1, (2.0, 3.0)), (3.0, 0.1, 0.05, (2.0,)), (5.0, 0.05, 0.025, (2.0, 4.0))):
        ua, ub = ([amp * (1.0 + t) * (np.sin(x[0] + c) + (0.5 * np.cos(x[1]) if dim == 2 else 0.0)) for t in times]
                  for c in (0.0, 0.4))
        drift = build_drift(fake_trajectory(g, eps, ua, times, ham=ham), fake_trajectory(g, eta, ub, times, ham=ham),
                            mollify_scale=mollify_scale)
        w_tau = Field(g, ua[-1] - ub[-1])
        pairs.append((drift, eta, [lp_dual_datum(w_tau, q) for q in qs]))

    sizes = []  # the rows of each nonlinear evaluation of the batched march
    march = dual_mod.etdrk4_march

    def recording_march(grid, members, y, nonlinear, **kwargs):
        def recording(y, ids, ts, out):
            sizes.append(len(ids))
            nonlinear(y, ids, ts, out)
        return march(grid, members, y, recording, **kwargs)

    monkeypatch.setattr(dual_mod, "etdrk4_march", recording_march)
    batch = dual_solve([d for d, _, data in pairs for _ in data], [e for _, e, data in pairs for _ in data],
                       [a for _, _, data in pairs for a in data], times[-1])
    monkeypatch.setattr(dual_mod, "etdrk4_march", march)
    # each pair's rows leave the march at their own iteration: three batch sizes
    assert sorted(set(sizes), reverse=True) == [5, 3, 2]
    ones = [dual_solve(drift, eta, data, times[-1]) for drift, eta, data in pairs]
    assert len({one.n_steps for one in ones}) == 3
    assert batch.n_steps == sum(one.n_steps for one in ones)
    singles = [(eta, one) for (_, eta, _), per_pair in zip(pairs, ones) for one in per_pair]
    assert len(batch) == len(singles) == 5
    for got, (eta, one) in zip(batch, singles):
        assert got.alpha is one.alpha and got.eta == eta
        assert np.array_equal(got.times, one.times)
        assert all(np.array_equal(a.values, b.values) for a, b in zip(got.snapshots, one.snapshots))
        assert (got.n_steps, got.min_value, got.mass_drift) == (one.n_steps, one.min_value, one.mass_drift)


# ---------------------------------------------------------------------------
# dual data
# ---------------------------------------------------------------------------


def test_lp_dual_datum_extracts_norm():
    g = TorusGrid(1, 256)
    x = g.nodes()[0]
    hvol = g.spacing
    # the large-p amplitudes are those whose unscaled power |w|^(p-1) under- or overflows
    for amp, p in ((1.0, 1.5), (1.0, 2.0), (1.0, 4.0), (1e-3, 128.0), (1e-2, 200.0), (10.0, 400.0)):
        w = Field(g, amp * np.sin(x))
        alpha = lp_dual_datum(w, p, "positive")
        pairing = float(np.sum(w.values * alpha.values)) * hvol
        wplus = Field(g, np.maximum(w.values, 0.0))
        assert pairing == pytest.approx(lp_norm(wplus, p), rel=1e-12)
        # unit dual norm
        assert lp_norm(alpha, p / (p - 1.0)) == pytest.approx(1.0, rel=1e-12)
    alpha_neg = lp_dual_datum(Field(g, np.sin(x)), 2.0, "negative")
    assert float(np.min(alpha_neg.values)) >= 0.0


def test_lp_dual_datum_validation():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    w = Field(g, np.sin(x))
    with pytest.raises(ValueError, match="p must be finite"):
        lp_dual_datum(w, 1.0)
    with pytest.raises(ValueError, match="p must be finite"):
        lp_dual_datum(w, math.inf)
    with pytest.raises(ValueError, match="part"):
        lp_dual_datum(w, 2.0, "both")
    neg = Field(g, -np.ones(g.shape))
    with pytest.raises(ValueError, match="positive part"):
        lp_dual_datum(neg, 2.0, "positive")


# ---------------------------------------------------------------------------
# duality identity and Gronwall bounds on real solves
# ---------------------------------------------------------------------------


def test_duality_identity_zero_hamiltonian():
    # with H = 0 both solutions are exact fractional heat flows, the drift
    # vanishes identically and the identity closes to time-quadrature order
    te, th = solve_pair(0.2, 0.05, n=256, T=1.0, n_times=33, ham=ZERO_H)
    drift = build_drift(te, th, mollify_scale=0.0)
    assert np.max(np.abs(drift.values)) < 1e-13
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    alpha = lp_dual_datum(w_tau, 2.0, "negative")
    dual = dual_solve(drift, 0.05, alpha, 1.0)
    assert duality_residual(dual, te, th) < 1e-3


def test_duality_identity_quadratic_pre_shock():
    te, th = solve_pair(0.2, 0.1, n=256, T=0.75, n_times=31)
    drift = build_drift(te, th)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    alpha = lp_dual_datum(w_tau, 2.0, "positive")
    dual = dual_solve(drift, 0.1, alpha, 0.75)
    assert duality_residual(dual, te, th) < 5e-3


def test_duality_residual_validation():
    te, th = solve_pair(0.2, 0.1, n=128, T=0.5, n_times=6)
    drift = build_drift(te, th)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    alpha = lp_dual_datum(w_tau, 2.0, "positive")
    dual = dual_solve(drift, 0.1, alpha, 0.5)
    with pytest.raises(ValueError, match="eta"):
        duality_residual(dual, th, te)  # swapped order: eta mismatch
    dual_mid = dataclasses.replace(dual, times=dual.times[1:], snapshots=dual.snapshots[1:])
    with pytest.raises(ValueError, match="t = 0"):
        duality_residual(dual_mid, te, th)


def test_gronwall_bound_post_shock_pair():
    te, th = solve_pair(2.0**-4, 2.0**-5, n=1024, T=2.0)
    drift = build_drift(te, th)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    alpha = lp_dual_datum(w_tau, 2.0, "positive")
    dual = dual_solve(drift, 2.0**-5, alpha, 2.0)
    for q in (2.0, 4.0):
        rep = gronwall_check(dual, drift, q)
        assert rep.ok(), f"q={q}: max ratio {rep.max_ratio}"
        assert rep.max_ratio <= 1.005
        assert rep.growth_factor < 3.0
        assert rep.norms_q.shape == rep.bounds_q.shape == dual.times.shape
        # terminal entry compares alpha against itself
        assert rep.ratios[-1] == pytest.approx(1.0, rel=1e-9)
    assert duality_residual(dual, te, th) < 0.02
    assert dual.min_value > -1e-10
    with pytest.raises(ValueError, match="q must exceed 1"):
        gronwall_check(dual, drift, 1.0)


def test_gronwall_ratio_before_tau_is_set_by_the_solution():
    # rho(tau) = alpha makes the ratio 1 at tau, so max_ratio reads that point;
    # over t < tau the ratio stays below it (0.9944 at q = 2, 0.9842 at q = 4)
    te, th = solve_pair(0.1, 0.05, n=256, T=2.0)
    drift = build_drift(te, th)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    for q in (2.0, 4.0):
        dual = dual_solve(drift, 0.05, lp_dual_datum(w_tau, q, "positive"), 2.0)
        rep = gronwall_check(dual, drift, q)
        assert rep.max_ratio == pytest.approx(1.0, rel=1e-9) and rep.ok()
        assert rep.max_ratio_before_tau == float(np.max(rep.ratios[rep.times < 2.0]))
        assert rep.max_ratio_before_tau < 0.999


@pytest.mark.parametrize("q", [256.0, 1024.0])
def test_gronwall_ratios_do_not_depend_on_the_datum_scale(q):
    # the bound is homogeneous in alpha; at large q the q-th powers of the norms
    # under- or overflow unless the ratio is formed in norm units
    te, th = solve_pair(0.1, 0.05, n=64, T=0.5, n_times=3)
    drift = build_drift(te, th)
    alpha = lp_dual_datum(Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values), q)
    reps = [gronwall_check(dual_solve(drift, 0.05, Field(alpha.grid, c * alpha.values), 0.5), drift, q)
            for c in (1.0, 1e-3)]
    np.testing.assert_allclose(reps[1].ratios, reps[0].ratios, rtol=1e-12)
    assert reps[1].growth_factor == pytest.approx(reps[0].growth_factor, rel=1e-12)


def test_gronwall_constant_trend_in_q():
    # the norm-scale growth constant exp(((q-1)/q) int ||[div b]^-||) rises
    # monotonically with q and never exceeds its algebraic q -> infinity
    # envelope exp(int ||[div b]^-||); we record the trend without asserting
    # a limit, and the bound itself must hold at every q
    te, th = solve_pair(0.1, 0.05, n=512, T=2.0)
    drift = build_drift(te, th)
    w_tau = Field(te.problem.grid, te.snapshots[-1].values - th.snapshots[-1].values)
    integral = float(np.trapezoid(drift.div_minus_sup, drift.times))
    envelope = math.exp(integral)
    constants = []
    for q in (2.0, 4.0, 8.0, 16.0):
        alpha = lp_dual_datum(w_tau, q, "positive")
        dual = dual_solve(drift, 0.05, alpha, 2.0)
        rep = gronwall_check(dual, drift, q)
        assert rep.ok(), f"q={q}: max ratio {rep.max_ratio}"
        constants.append(math.exp((q - 1.0) / q * integral))
    print("gronwall norm-scale constants for q=2,4,8,16:", [f"{c:.4f}" for c in constants], f"envelope {envelope:.4f}")
    assert all(b > a for a, b in zip(constants, constants[1:]))
    assert constants[-1] <= envelope + 1e-12


def test_mollified_divergence_bound_stays_physical():
    # raw sampling at a formed front produces huge spurious negative
    # divergence; Gaussian mollification restores the semiconcavity-driven
    # bound sup [div b]^- <= max eig(D^2 H) * k(t)
    te, th = solve_pair(2.0**-5, 2.0**-6, n=2048, T=2.0)
    raw = build_drift(te, th, mollify_scale=0.0)
    moll = build_drift(te, th)  # default scale
    kb = 1.0 / (1.0 + raw.times)  # Riccati bound for u0 = cos
    assert float(np.max(raw.div_minus_sup - kb)) > 10.0
    assert float(np.max(moll.div_minus_sup - kb)) < 0.05