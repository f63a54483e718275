"""Tests for the forward solvers: exact linear cases, order of accuracy,
oracle cross-checks, guards, and semiconcavity diagnostics."""

import math

import numpy as np
import pytest

from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import (
    BlowUpError,
    ConstantForcing,
    CosWaveForcing,
    ProblemBatch,
    ProblemSpec,
    TailGuardError,
    Trajectory,
    TrajectoryBatch,
    ZeroForcing,
    hopf_lax_oracle,
    monotone_reference,
    semiconcavity_profile,
    viscous_solve,
)
from fracvisc.torus import Field, TorusGrid, lp_norm

QUAD = make_hamiltonian("quadratic", 1)
ZERO_H = make_hamiltonian("zero", 1)


def cos_field(grid: TorusGrid) -> Field:
    axes = grid.nodes()  # full coordinate meshes, one per axis
    vals = np.cos(axes[0]) if grid.dim == 1 else np.cos(axes[0]) + np.cos(axes[1])
    return Field(grid, vals)


def problem(grid, s, eps, ham=QUAD, u0=None, forcing=ZeroForcing(), T=2.0):
    return ProblemSpec(
        grid=grid,
        s=s,
        epsilon=eps,
        hamiltonian=ham,
        u0=cos_field(grid) if u0 is None else u0,
        forcing=forcing,
        T=T,
    )


# ---------------------------------------------------------------------------
# forcing providers and problem validation
# ---------------------------------------------------------------------------


def test_forcing_providers():
    g = TorusGrid(1, 32)
    zf = ZeroForcing()
    assert zf.is_zero and np.all(zf.value(g, 1.3) == 0.0) and zf.semiconcavity(0.7) == 0.0
    cf = ConstantForcing(2.5)
    assert not getattr(cf, "is_zero", False)
    assert np.all(cf.value(g, 0.1) == 2.5) and cf.semiconcavity(3.0) == 0.0
    wf = CosWaveForcing(amp=0.3, omega=2.0)
    x = g.nodes()[0]
    # bitwise the direct formula on freshly built nodes, at every call
    for t in (0.5, 0.0, 0.5, 1.7):
        assert np.array_equal(wf.value(g, t), 0.3 * np.cos(x - 2.0 * t))
    assert wf.semiconcavity(0.5) == pytest.approx(0.3)
    g2 = TorusGrid(2, 16)
    v2 = wf.value(g2, 0.0)
    assert v2.shape == g2.shape
    assert np.array_equal(wf.value(g2, 0.3), 0.3 * np.cos(g2.nodes()[0] - 2.0 * 0.3))
    # the wave varies along the first axis only
    assert np.allclose(v2, v2[:, :1]) and not np.allclose(v2, v2[:1, :])


def test_problem_validation():
    g = TorusGrid(1, 32)
    with pytest.raises(ValueError, match="s must lie"):
        problem(g, 1.5, 0.1)
    with pytest.raises(ValueError, match="epsilon"):
        problem(g, 0.5, -0.1)
    with pytest.raises(ValueError, match="T must be"):
        problem(g, 0.5, 0.1, T=0.0)
    with pytest.raises(ValueError, match="dimension"):
        ProblemSpec(
            grid=g,
            s=0.5,
            epsilon=0.1,
            hamiltonian=make_hamiltonian("quadratic", 2),
            u0=cos_field(g),
            forcing=ZeroForcing(),
            T=1.0,
        )
    g2 = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="different grid"):
        ProblemSpec(
            grid=g,
            s=0.5,
            epsilon=0.1,
            hamiltonian=QUAD,
            u0=cos_field(g2),
            forcing=ZeroForcing(),
            T=1.0,
        )
    with pytest.raises(ValueError, match="forcing"):
        ProblemSpec(
            grid=g,
            s=0.5,
            epsilon=0.1,
            hamiltonian=QUAD,
            u0=cos_field(g),
            forcing=object(),
            T=1.0,
        )


def test_viscous_solve_rejects_inviscid_and_bad_cfl():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="epsilon > 0"):
        viscous_solve(problem(g, 0.5, 0.0))
    with pytest.raises(ValueError, match="dt_cfl"):
        viscous_solve(problem(g, 0.5, 0.1), dt_cfl=0.7)


# ---------------------------------------------------------------------------
# exact linear solutions (the integrating factor must be exact)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("s", [0.3, 0.5, 0.75, 1.0])
def test_fractional_heat_decay_single_mode(s):
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    u0 = Field(g, np.cos(3.0 * x))
    pr = problem(g, s, 0.2, ham=ZERO_H, u0=u0, T=1.0)
    traj = viscous_solve(pr, snapshot_times=(0.0, 0.4, 1.0))
    for t, snap in zip(traj.times, traj.snapshots):
        expect = math.exp(-0.2 * 9.0**s * t) * np.cos(3.0 * x)
        assert np.max(np.abs(snap.values - expect)) < 1e-10


def test_fractional_heat_decay_2d():
    g = TorusGrid(2, 64)
    ax, ay = g.nodes()
    u0 = Field(g, np.cos(ax) * np.cos(ay))
    pr = ProblemSpec(
        grid=g,
        s=0.5,
        epsilon=0.3,
        hamiltonian=make_hamiltonian("zero", 2),
        u0=u0,
        forcing=ZeroForcing(),
        T=0.8,
    )
    traj = viscous_solve(pr, snapshot_times=(0.8,))
    # cos x cos y lives on the four modes (+-1, +-1), all with |k|^2 = 2
    expect = math.exp(-0.3 * 2.0**0.5 * 0.8) * u0.values
    assert np.max(np.abs(traj.snapshots[-1].values - expect)) < 1e-10


def test_constant_forcing_linear_growth():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    u0 = Field(g, np.cos(x))
    pr = problem(g, 0.5, 0.4, ham=ZERO_H, u0=u0, forcing=ConstantForcing(0.7), T=1.5)
    traj = viscous_solve(pr, snapshot_times=(1.5,))
    expect = math.exp(-0.4 * 1.5) * np.cos(x) + 0.7 * 1.5
    assert np.max(np.abs(traj.snapshots[-1].values - expect)) < 1e-10


def test_rk4_order_of_accuracy():
    # nonlinear smooth pre-shock run; Richardson ratio between successive
    # dt halvings should approach 2^4
    g = TorusGrid(1, 128)
    pr = problem(g, 0.75, 0.25, T=0.4)
    sols = [
        viscous_solve(pr, dt_cfl=c, snapshot_times=(0.4,)).snapshots[-1].values
        for c in (0.4, 0.2, 0.1)
    ]
    e1 = np.max(np.abs(sols[0] - sols[1]))
    e2 = np.max(np.abs(sols[1] - sols[2]))
    order = math.log2(e1 / e2)
    assert 3.7 < order < 4.3


# ---------------------------------------------------------------------------
# Hopf-Lax oracle
# ---------------------------------------------------------------------------


def characteristics_cos(x: np.ndarray, t: float) -> np.ndarray:
    """Pre-shock solution for u0 = cos, H = |p|^2/2 via characteristics.

    Solves x = y - t sin y by Newton (valid for t < 1), then
    u = cos y + t sin^2 y / 2.
    """
    y = x.copy()
    for _ in range(60):
        f = y - t * np.sin(y) - x
        df = 1.0 - t * np.cos(y)
        step = f / df
        y -= step
        if np.max(np.abs(step)) < 1e-14:
            break
    return np.cos(y) + 0.5 * t * np.sin(y) ** 2


def test_hopf_lax_matches_characteristics_pre_shock():
    g = TorusGrid(1, 256)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 0.0, T=2.0)
    for t in (0.25, 0.5, 0.9):
        hl = hopf_lax_oracle(pr, t)
        assert np.max(np.abs(hl.values - characteristics_cos(x, t))) < 1e-8


def test_hopf_lax_matches_brute_force_post_shock():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 0.0, T=2.0)
    t = 2.0
    hl = hopf_lax_oracle(pr, t)
    d = np.linspace(-2.0 * math.pi - t, 2.0 * math.pi + t, 200001)
    vals = np.cos(x[:, None] - d[None, :]) + (d[None, :] ** 2) / (2.0 * t)
    brute = np.min(vals, axis=1)
    assert np.max(np.abs(hl.values - brute)) < 1e-7


def test_hopf_lax_zero_time_and_zero_hamiltonian():
    g = TorusGrid(1, 64)
    pr = problem(g, 0.5, 0.0)
    assert np.allclose(hopf_lax_oracle(pr, 0.0).values, pr.u0.values, atol=1e-12)
    prz = problem(g, 0.5, 0.0, ham=ZERO_H)
    assert np.allclose(hopf_lax_oracle(prz, 1.7).values, pr.u0.values, atol=1e-12)


def test_hopf_lax_rejects_forcing():
    g = TorusGrid(1, 64)
    pr = problem(g, 0.5, 0.0, forcing=ConstantForcing(1.0))
    with pytest.raises(ValueError, match="forcing"):
        hopf_lax_oracle(pr, 1.0)


def test_oracle_2d_tensor_structure():
    # separable initial data + separable H: 2d Hopf-Lax value equals the sum
    # of 1d values
    g2 = TorusGrid(2, 64)
    ax, ay = g2.nodes()
    u0 = Field(g2, np.cos(ax) + np.cos(ay))
    pr2 = ProblemSpec(
        grid=g2,
        s=0.5,
        epsilon=0.0,
        hamiltonian=make_hamiltonian("quadratic", 2),
        u0=u0,
        forcing=ZeroForcing(),
        T=2.0,
    )
    g1 = TorusGrid(1, 64)
    pr1 = problem(g1, 0.5, 0.0)
    t = 1.4
    two_d = hopf_lax_oracle(pr2, t)
    one_d = hopf_lax_oracle(pr1, t)
    expect = one_d.values[:, None] + one_d.values[None, :]
    assert np.max(np.abs(two_d.values - expect)) < 1e-7


# ---------------------------------------------------------------------------
# monotone reference scheme
# ---------------------------------------------------------------------------


def test_monotone_exact_on_zero_hamiltonian_with_forcing():
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    u0 = Field(g, np.cos(x))
    pr = problem(g, 0.5, 0.0, ham=ZERO_H, u0=u0, forcing=ConstantForcing(0.3), T=1.0)
    traj = monotone_reference(pr, snapshot_times=(1.0,))
    expect = np.cos(x) + 0.3
    assert np.max(np.abs(traj.snapshots[-1].values - expect)) < 1e-7


def test_monotone_matches_oracle_post_shock():
    g = TorusGrid(1, 256)
    pr = problem(g, 0.5, 0.0, T=2.0)
    traj = monotone_reference(pr, fine_factor=8, snapshot_times=(2.0,))
    hl = hopf_lax_oracle(pr, 2.0)
    assert np.max(np.abs(traj.snapshots[-1].values - hl.values)) < 0.01


def test_monotone_rejects_bad_fine_factor():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="fine_factor"):
        monotone_reference(problem(g, 0.5, 0.0), fine_factor=3)


# ---------------------------------------------------------------------------
# viscous solver versus the inviscid limit
# ---------------------------------------------------------------------------


def test_viscous_gap_to_oracle_scales_with_epsilon():
    g = TorusGrid(1, 2048)
    pr_inv = problem(g, 0.5, 0.0, T=2.0)
    hl = hopf_lax_oracle(pr_inv, 2.0)
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        traj = viscous_solve(problem(g, 0.5, eps, T=2.0), snapshot_times=(2.0,))
        gaps.append(float(np.max(np.abs(traj.snapshots[-1].values - hl.values))))
    assert gaps[0] < 0.5 and gaps[2] < gaps[0]
    # roughly linear in eps (critical case allows a log factor)
    assert gaps[2] < 0.45 * gaps[0]


def test_maximum_principle_no_spurious_trough():
    # the solution must stay above min u0 (comparison with the constant -1);
    # this run is exactly the regime where sharp-cutoff schemes fail
    g = TorusGrid(1, 2048)
    eps = 2.0**-6
    traj = viscous_solve(problem(g, 0.5, eps, T=2.0), snapshot_times=(1.5, 2.0))
    for snap in traj.snapshots:
        assert float(np.min(snap.values)) > -1.0 - 1e-6


def test_gradient_sup_bounded_uniformly_in_viscosity():
    # sup |Du_eps| stays bounded uniformly as the viscosity shrinks (no
    # constant is pinned; we verify boundedness empirically from the recorded
    # profiles).  Before the kink forms the spectral measurement is exact and
    # the sup never exceeds its initial value; afterwards the nodal derivative
    # rings at the under-resolved front, so only a loose eps-independent
    # ceiling is meaningful there.
    for k, n in ((3, 1024), (5, 1024), (7, 4096)):
        g = TorusGrid(1, n)
        traj = viscous_solve(
            problem(g, 0.5, 2.0**-k, T=2.0), snapshot_times=tuple(np.linspace(0.0, 2.0, 9))
        )
        pre = float(np.max(traj.grad_sup_profile[traj.times <= 1.0]))
        assert pre <= 1.0 + 1e-9
        assert float(np.max(traj.grad_sup_profile)) <= 1.5


def test_mean_evolution_identity():
    # d/dt mean(u) = mean(f) - mean(H(Du)); checked by trapezoid over a
    # densely snapshotted viscous run
    g = TorusGrid(1, 512)
    pr = problem(g, 0.5, 0.05, T=1.5)
    times = tuple(np.linspace(0.0, 1.5, 31))
    traj = viscous_solve(pr, snapshot_times=times)
    from fracvisc.torus import spectral_gradient

    means_h = []
    for snap in traj.snapshots:
        (gx,) = spectral_gradient(snap)
        means_h.append(float(np.mean(0.5 * gx.values**2)))
    drop = float(np.mean(traj.snapshots[-1].values) - np.mean(traj.snapshots[0].values))
    predicted = -float(np.trapezoid(means_h, traj.times))
    assert abs(drop - predicted) < 0.02 * abs(drop)


# ---------------------------------------------------------------------------
# guards and bookkeeping
# ---------------------------------------------------------------------------


def test_blowup_guard_triggers():
    # 1e7 crosses the sup guard; at 1e306 the iterate overflows within a few
    # steps and sup|Du| turns NaN before any landing
    g = TorusGrid(1, 64)
    for ham, push in ((ZERO_H, 1e7), (QUAD, 1e306)):
        pr = problem(g, 0.5, 0.1, ham=ham, forcing=ConstantForcing(push), T=1.0)
        with pytest.raises(BlowUpError):
            viscous_solve(pr, snapshot_times=tuple(np.linspace(0.0, 1.0, 16)))


def test_batch_with_a_non_finite_speed_fails_per_member():
    g = TorusGrid(1, 64)
    members = [problem(g, 0.5, eps, forcing=ConstantForcing(1e306), T=1.0) for eps in (0.1, 0.05)]
    batch = viscous_solve(ProblemBatch(members), snapshot_times=tuple(np.linspace(0.0, 1.0, 16)))
    assert len(batch) == 2 and all(isinstance(got, BlowUpError) for got in batch)


def test_tail_guard_triggers_on_rough_data():
    g = TorusGrid(1, 128)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(128)
    pr = problem(g, 0.5, 0.1, u0=Field(g, vals), T=0.5)
    with pytest.raises(TailGuardError):
        viscous_solve(pr, snapshot_times=(0.0, 0.5))


def test_snapshot_landing_and_lookup():
    g = TorusGrid(1, 128)
    times = (0.0, 0.3141, 0.5, 1.0)
    traj = viscous_solve(problem(g, 0.5, 0.2, T=1.0), snapshot_times=times)
    assert np.allclose(traj.times, times, atol=0.0)
    assert traj.n_steps > 0
    snap = traj.snapshot_at(0.3141)
    assert snap is traj.snapshots[1]
    with pytest.raises(KeyError):
        traj.snapshot_at(0.77)


def test_default_snapshots_are_sixteen_uniform():
    g = TorusGrid(1, 128)
    traj = viscous_solve(problem(g, 0.5, 0.2, T=1.0))
    assert traj.times.size == 16
    assert np.allclose(traj.times, np.linspace(0.0, 1.0, 16))


# ---------------------------------------------------------------------------
# batched solves
# ---------------------------------------------------------------------------


def assert_same_trajectory(a: Trajectory, b: Trajectory) -> None:
    assert a.n_steps == b.n_steps
    assert np.array_equal(a.times, b.times)
    assert len(a.snapshots) == len(b.snapshots)
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a.snapshots, b.snapshots))
    assert np.array_equal(a.k_profile, b.k_profile)
    assert np.array_equal(a.grad_sup_profile, b.grad_sup_profile)


def _batch_1d():
    g = TorusGrid(1, 128)
    lc = make_hamiltonian("log_cosh_regularized", 1)
    wave = CosWaveForcing(0.5, 1.0)  # forcing evaluated at each member's own stage times
    return [problem(g, s, eps, ham=lc, forcing=wave, T=1.0) for s, eps in ((0.25, 0.05), (0.5, 0.01), (0.75, 0.2))]


def _batch_2d():
    g = TorusGrid(2, 64)
    q2 = make_hamiltonian("quadratic", 2)
    return [problem(g, s, eps, ham=q2, u0=amp * cos_field(g), T=0.5)
            for s, eps, amp in ((0.5, 0.05, 1.0), (1.0, 0.1, 2.0), (0.75, 0.02, 3.0))]


def _batch_large():
    g = TorusGrid(1, 16384)
    return [problem(g, 0.5, eps, u0=amp * cos_field(g), T=0.01) for eps, amp in ((0.01, 1.0), (0.005, 3.0))]


@pytest.mark.parametrize("members", [_batch_1d, _batch_2d, _batch_large],
                         ids=["1d-logcosh-coswave-mixed-s", "2d", "1d-16384"])
def test_batch_members_equal_solo_solves(members):
    members = members()
    times = np.linspace(0.0, members[0].T, 6)
    batch = viscous_solve(ProblemBatch(members), snapshot_times=times)
    solos = [viscous_solve(p, snapshot_times=times) for p in members]
    assert isinstance(batch, TrajectoryBatch) and len(batch) == len(members)
    assert len({tr.n_steps for tr in solos}) == len(solos)  # the members step differently
    for solo, got in zip(solos, batch):
        assert isinstance(got, Trajectory)
        assert_same_trajectory(solo, got)
    assert batch.n_steps == sum(tr.n_steps for tr in solos)


def test_batch_member_tripping_a_guard_leaves_the_others_unchanged():
    g = TorusGrid(1, 64)
    push = ConstantForcing(1.0)
    rough = Field(g, np.random.default_rng(7).standard_normal(64))
    lifted = Field(g, cos_field(g).values + (1e6 - 1.5))  # crosses the 1e6 guard mid-run
    members = [
        problem(g, 0.5, 0.1, forcing=push, T=1.0),
        problem(g, 0.5, 0.05, u0=lifted, forcing=push, T=1.0),
        problem(g, 0.75, 0.05, u0=2.0 * cos_field(g), forcing=push, T=1.0),
        problem(g, 0.5, 0.1, u0=rough, forcing=push, T=1.0),
    ]
    times = np.linspace(0.0, 1.0, 6)
    batch = viscous_solve(ProblemBatch(members), snapshot_times=times)
    assert isinstance(batch[1], BlowUpError) and 0.0 < batch[1].t < 1.0
    assert isinstance(batch[3], TailGuardError)
    for p, got in zip(members, batch):
        try:
            solo = viscous_solve(p, snapshot_times=times)
        except (BlowUpError, TailGuardError) as exc:
            assert type(got) is type(exc) and str(got) == str(exc)
        else:
            assert_same_trajectory(solo, got)
    assert batch.n_steps == batch[0].n_steps + batch[2].n_steps


def test_problem_batch_validation():
    g = TorusGrid(1, 32)
    base = problem(g, 0.5, 0.1, T=1.0)
    assert ProblemBatch([base, problem(g, 0.25, 0.2, u0=2.0 * cos_field(g), T=1.0)]).grid == g
    others = [
        problem(TorusGrid(1, 64), 0.5, 0.1, T=1.0),
        problem(g, 0.5, 0.1, ham=ZERO_H, T=1.0),
        problem(g, 0.5, 0.1, forcing=ConstantForcing(1.0), T=1.0),
        problem(g, 0.5, 0.1, T=2.0),
    ]
    for other in others:
        with pytest.raises(ValueError):
            ProblemBatch([base, other])
    with pytest.raises(ValueError):
        ProblemBatch([])
    with pytest.raises(ValueError):
        viscous_solve(ProblemBatch([base, problem(g, 0.5, 0.0, T=1.0)]))


# ---------------------------------------------------------------------------
# semiconcavity diagnostics
# ---------------------------------------------------------------------------


def test_semiconcavity_profile_riccati_closed_form():
    g = TorusGrid(1, 1024)
    traj = viscous_solve(problem(g, 0.5, 0.05, T=2.0), snapshot_times=tuple(np.linspace(0.0, 2.0, 9)))
    check = semiconcavity_profile(traj)
    assert np.allclose(check.bound, 1.0 / (1.0 + check.times), atol=1e-12)
    assert check.within(0.05)
    # pre-shock the bound is saturated at the valley; the fixed-scale probe
    # reads it from below with an O(scale^2) bias
    i = int(np.argmin(np.abs(check.times - 0.5)))
    assert 0.0 < 1.0 / 1.5 - check.measured[i] < 0.02


def test_semiconcavity_uniform_in_epsilon():
    g = TorusGrid(1, 2048)
    for eps in (0.05, 0.0125, 2.0**-8):
        traj = viscous_solve(problem(g, 0.5, eps, T=2.0), snapshot_times=(0.5, 1.0, 1.5, 2.0))
        check = semiconcavity_profile(traj)
        assert check.within(0.05), f"eps={eps}: {check.measured} vs {check.bound}"


def test_riccati_bound_with_time_dependent_forcing():
    # constant-coefficient closed form: k' = -k^2 + c has equilibrium sqrt(c)
    g = TorusGrid(1, 128)
    f = CosWaveForcing(amp=0.25, omega=0.0)  # c_f(t) = 0.25 for all t
    traj = viscous_solve(problem(g, 0.5, 0.2, forcing=f, T=6.0), snapshot_times=(0.0, 6.0))
    check = semiconcavity_profile(traj)
    # k(0) = 1, equilibrium sqrt(0.25) = 0.5; by t = 6 the bound is close
    assert abs(check.bound[-1] - 0.5) < 0.01
