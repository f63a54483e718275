"""Tests for the forward solvers: exact linear cases, order of accuracy,
oracle cross-checks, guards, and semiconcavity diagnostics."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracvisc import hj
from fracvisc.config import parse_config
from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import (
    DT_CFL_MAX,
    BlowUpError,
    ConstantForcing,
    CosWaveForcing,
    ProblemBatch,
    ProblemSpec,
    TailGuardError,
    Trajectory,
    TrajectoryBatch,
    ZeroForcing,
    _riccati_bound,
    hopf_lax_oracle,
    monotone_reference,
    viscous_solve,
)
from fracvisc.torus import Field, TorusGrid

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
    assert zf.is_zero and np.all(zf.value(g, 1.3) == 0.0) and zf.semiconcavity == 0.0
    cf = ConstantForcing(2.5)
    assert not getattr(cf, "is_zero", False)
    assert np.all(cf.value(g, 0.1) == 2.5) and cf.semiconcavity == 0.0
    wf = CosWaveForcing(amp=0.3, omega=2.0)
    x = g.nodes()[0]
    # bitwise the direct formula on freshly built nodes, at every call
    for t in (0.5, 0.0, 0.5, 1.7):
        assert np.array_equal(wf.value(g, t), 0.3 * np.cos(x - 2.0 * t))
    assert wf.semiconcavity == 0.3 and CosWaveForcing(amp=-0.3, omega=2.0).semiconcavity == 0.3
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

    class MethodForcing(ZeroForcing):  # semiconcavity as a method of t is not a constant
        def semiconcavity(self, t):
            return 0.0

    class NegativeForcing(ZeroForcing):  # D^2 f of a periodic f has an eigenvalue >= 0 somewhere
        semiconcavity = -1.0

    for bad in (object(), MethodForcing(), NegativeForcing()):
        with pytest.raises(ValueError, match="forcing"):
            ProblemSpec(
                grid=g,
                s=0.5,
                epsilon=0.1,
                hamiltonian=QUAD,
                u0=cos_field(g),
                forcing=bad,
                T=1.0,
            )


def test_viscous_solve_rejects_inviscid_and_bad_cfl():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="epsilon > 0"):
        viscous_solve(problem(g, 0.5, 0.0), snapshot_times=(1.0,))
    with pytest.raises(ValueError, match="dt_cfl"):
        viscous_solve(problem(g, 0.5, 0.1), snapshot_times=(1.0,), dt_cfl=2.6)


# ---------------------------------------------------------------------------
# exact linear solutions (the march takes the linear part exactly)
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
    for steps in ((0.4, 0.2, 0.1), (1.0, 0.5, 0.25)):
        sols = [
            viscous_solve(pr, dt_cfl=c, snapshot_times=(0.4,)).snapshots[-1].values
            for c in steps
        ]
        e1 = np.max(np.abs(sols[0] - sols[1]))
        e2 = np.max(np.abs(sols[1] - sols[2]))
        order = math.log2(e1 / e2)
        assert 3.7 < order < 4.3, (steps, order)


def test_time_error_at_the_default_step_is_below_one_permille_of_the_viscous_error():
    # post-shock sweep cells at the experiment's step against a solve at
    # dt_cfl = 0.125 (README calibration table); the error is the cell's own
    # sup error against the oracle, both maxima over the 16 snapshots.  The
    # damping band feeds on the front in both cells, so a march that is only
    # first order there (an integrating-factor RK4) fails this bound.
    times = tuple(np.linspace(0.0, 2.0, 16))
    for s, eps, n in ((0.5, 2.0**-6, 2048), (0.25, 2.0**-4, 4096)):
        pr = problem(TorusGrid(1, n), s, eps)
        traj = viscous_solve(pr, times)
        fine = viscous_solve(pr, times, dt_cfl=0.125)
        assert len(traj.snapshots) == len(fine.snapshots) == 16
        delta = max(np.max(np.abs(a.values - b.values)) for a, b in zip(traj.snapshots, fine.snapshots))
        error = max(np.max(np.abs(u.values - ref.values))
                    for u, ref in zip(traj.snapshots, hopf_lax_oracle(pr, traj.times)))
        assert delta <= 1e-3 * error, (s, eps, n, delta, error)
    # the largest step the validators accept, which the default is, trips no
    # guard in 1-D (the cells above) nor in 2-D, whose corner modes
    # |k| = sqrt(2) n / 3 lie deep in the damping band
    assert inspect.signature(viscous_solve).parameters["dt_cfl"].default == DT_CFL_MAX
    g2 = TorusGrid(2, 64)
    traj2 = viscous_solve(problem(g2, 0.5, 2.0**-6, ham=make_hamiltonian("quadratic", 2)), times)
    assert isinstance(traj2, Trajectory) and len(traj2.snapshots) == 16


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
        hl = hopf_lax_oracle(pr, (t,))[0]
        assert np.max(np.abs(hl.values - characteristics_cos(x, t))) < 1e-8


def test_hopf_lax_matches_brute_force_post_shock():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 0.0, T=2.0)
    t = 2.0
    hl = hopf_lax_oracle(pr, (t,))[0]
    d = np.linspace(-2.0 * math.pi - t, 2.0 * math.pi + t, 200001)
    vals = np.cos(x[:, None] - d[None, :]) + (d[None, :] ** 2) / (2.0 * t)
    brute = np.min(vals, axis=1)
    assert np.max(np.abs(hl.values - brute)) < 1e-7


@pytest.mark.parametrize("phi", [0.0, 4.1])  # cos x, and the phase-shifted datum cos(x - phi) of the benchmark
def test_hopf_lax_matches_dense_brute_force(phi):
    # u0 = cos(x - phi) = a cos x + b sin x under H = p^2 / 2, on n = 1024: at
    # every 8th node the minimum over 200,001 offsets d of u0(x - d) + d^2 / (2t),
    # with u0(x - d) = A(x) cos d + B(x) sin d
    g = TorusGrid(1, 1024)
    x = g.nodes()[0]
    a, b = math.cos(phi), math.sin(phi)
    pr = problem(g, 0.5, 0.0, u0=Field(g, a * np.cos(x) + b * np.sin(x)))
    xs = x[::8]
    rows = np.stack([a * np.cos(xs) + b * np.sin(xs), a * np.sin(xs) - b * np.cos(xs)], axis=-1)
    times = (0.5, 1.0, 2.0)
    for t, hl in zip(times, hopf_lax_oracle(pr, times)):
        d = np.linspace(-2.0 * math.pi - t, 2.0 * math.pi + t, 200001)
        basis, lag = np.stack([np.cos(d), np.sin(d)]), d**2 / (2.0 * t)
        brute = np.concatenate([np.min(rows[i:i + 16] @ basis + lag, axis=1) for i in range(0, len(xs), 16)])
        assert np.max(np.abs(hl.values[::8] - brute)) <= 1e-8, (phi, t)


@pytest.mark.parametrize("kind", ["quadratic", "log_cosh_regularized"])
def test_hopf_lax_sequence_call_equals_the_per_time_calls(kind):
    g = TorusGrid(1, 256)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 0.0, ham=make_hamiltonian(kind, 1), u0=Field(g, np.cos(x) + 0.3 * np.sin(x)))
    times = [0.0, 0.4, 1.3, 2.0]
    fields = hopf_lax_oracle(pr, times)
    assert isinstance(fields, tuple) and len(fields) == len(times)
    for t, f in zip(times, fields):
        (one,) = hopf_lax_oracle(pr, (t,))
        assert np.max(np.abs(f.values - one.values)) <= 1e-14, t
    assert np.array_equal(fields[0].values, hopf_lax_oracle(pr, (0.0,))[0].values)
    with pytest.raises(ValueError, match="sequence"):  # one call form: a sequence of times
        hopf_lax_oracle(pr, 1.3)


def test_hopf_lax_sequence_call_stays_within_one_time_of_memory():
    # the scan's chunk bounds every time's evaluation: the sequence form
    # peaks no higher than its costliest per-time call plus the fields it returns
    g2 = TorusGrid(2, 32)
    pr = problem(g2, 0.5, 0.0, ham=make_hamiltonian("quadratic", 2))
    times = [0.25, 0.5, 1.0, 1.5, 2.0]

    def peak(ts):
        tracemalloc.start()
        try:
            out = hopf_lax_oracle(pr, ts)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()

    single = max(peak((t,))[0] for t in times)
    seq, fields = peak(times)
    assert seq <= single + sum(f.values.nbytes for f in fields), (seq, single)


def test_hopf_lax_zero_time_and_zero_hamiltonian():
    g = TorusGrid(1, 64)
    pr = problem(g, 0.5, 0.0)
    assert np.allclose(hopf_lax_oracle(pr, (0.0,))[0].values, pr.u0.values, atol=1e-12)
    prz = problem(g, 0.5, 0.0, ham=ZERO_H)
    assert np.allclose(hopf_lax_oracle(prz, (1.7,))[0].values, pr.u0.values, atol=1e-12)


def test_hopf_lax_rejects_forcing():
    g = TorusGrid(1, 64)
    pr = problem(g, 0.5, 0.0, forcing=ConstantForcing(1.0))
    with pytest.raises(ValueError, match="forcing"):
        hopf_lax_oracle(pr, (1.0,))


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
    two_d = hopf_lax_oracle(pr2, (t,))[0]
    one_d = hopf_lax_oracle(pr1, (t,))[0]
    expect = one_d.values[:, None] + one_d.values[None, :]
    assert np.max(np.abs(two_d.values - expect)) < 1e-7


AXIS_DATA = {  # 2-D data as one function per axis, f_0(x) + f_1(y)
    "cos x + 0.5 sin 2y": (np.cos, lambda z: 0.5 * np.sin(2.0 * z)),
    "cos x": (np.cos, np.zeros_like),
    "bump(x)": (lambda z: np.exp(4.0 * (np.cos(z) - 1.0)), np.zeros_like),
}


@pytest.mark.parametrize("kind,params,datum", [
    ("anisotropic_quadratic", (1.0, 2.5), "cos x + 0.5 sin 2y"),
    ("log_cosh_regularized", (0.1,), "cos x + 0.5 sin 2y"),
    ("quadratic", (), "cos x"),
    ("quadratic", (), "bump(x)"),
])
def test_oracle_2d_is_the_sum_of_its_axes_1d_solutions(kind, params, datum):
    # H = H_0(p_x) + H_1(p_y): each axis is a 1-D problem under its own
    # component, m_j for the anisotropic kind; an axis without modes adds 0
    g2, g1 = TorusGrid(2, 64), TorusGrid(1, 64)
    x, y = g2.nodes()
    f0, f1 = AXIS_DATA[datum]
    times = [0.0, 0.7, 1.4, 2.0]
    two_d = hopf_lax_oracle(problem(g2, 0.5, 0.0, ham=make_hamiltonian(kind, 2, params), u0=Field(g2, f0(x) + f1(y))),
                            times)
    x1 = g1.nodes()[0]
    axes = [hopf_lax_oracle(problem(g1, 0.5, 0.0, u0=Field(g1, f(x1)),
                                    ham=make_hamiltonian(kind, 1, params[a : a + 1] if len(params) == 2 else params)),
                            times) for a, f in enumerate((f0, f1))]
    for t, u2, u0, u1 in zip(times, two_d, *axes):
        assert np.max(np.abs(u2.values - (u0.values[:, None] + u1.values[None, :]))) <= 1e-13, t


def test_oracle_2d_call_memory_is_its_axes_and_its_fields():
    # 16 times at n = 64: the 2-D minimization is two 1-D ones, so the call's
    # traced peak is the 16 returned fields (0.5 MB) and 1-D temporaries
    g2 = TorusGrid(2, 64)
    pr = problem(g2, 0.5, 0.0, ham=make_hamiltonian("quadratic", 2))
    tracemalloc.start()
    try:
        hopf_lax_oracle(pr, np.linspace(0.0, 2.0, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


@pytest.mark.parametrize("which", ["diagonal", "corner"])
def test_oracle_needs_separable_data_only_when_it_minimizes(which):
    # cos(x + y), or separable data plus the corner mode (n/2, n/2): (-1)^(i + j)
    # at the nodes, which mode_table reads as cos(n/2 (x + y))
    g2 = TorusGrid(2, 32)
    x, y = g2.nodes()
    i, j = np.indices(g2.shape)
    vals = np.cos(x + y) if which == "diagonal" else np.cos(x) + np.cos(y) + 0.1 * (-1.0) ** (i + j)
    pr = problem(g2, 0.5, 0.0, ham=make_hamiltonian("quadratic", 2), u0=Field(g2, vals))
    with pytest.raises(ValueError, match="separable"):
        hopf_lax_oracle(pr, [0.0, 1.0])
    # no minimization runs at t = 0 or under H = 0: u0 comes back for any datum
    assert np.allclose(hopf_lax_oracle(pr, (0.0,))[0].values, vals, atol=1e-12)
    prz = problem(g2, 0.5, 0.0, ham=make_hamiltonian("zero", 2), u0=Field(g2, vals))
    for f in hopf_lax_oracle(prz, [0.0, 1.7]):
        assert np.allclose(f.values, vals, atol=1e-12)


def test_oracle_finds_the_global_minimum_on_two_mode_data():
    # u0 = cos x + 0.5 sin 2x, H = p^2 / 2, n = 1024: every node against the
    # minimum over 200,001 offsets d of u0(x - d) + d^2 / (2t), with u0(x - d)
    # the rows [cos x, sin x, 0.5 sin 2x, -0.5 cos 2x] times [cos d, sin d, cos 2d, sin 2d]
    g = TorusGrid(1, 1024)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 0.0, u0=Field(g, np.cos(x) + 0.5 * np.sin(2.0 * x)))
    rows = np.stack([np.cos(x), np.sin(x), 0.5 * np.sin(2.0 * x), -0.5 * np.cos(2.0 * x)], axis=-1)
    times = (0.5, 2.0)
    for t, hl in zip(times, hopf_lax_oracle(pr, times)):
        d = np.linspace(-2.0 * math.pi - t, 2.0 * math.pi + t, 200001)
        basis, lag = np.stack([np.cos(d), np.sin(d), np.cos(2.0 * d), np.sin(2.0 * d)]), d**2 / (2.0 * t)
        brute = np.concatenate([np.min(rows[i:i + 16] @ basis + lag, axis=1) for i in range(0, len(x), 16)])
        assert np.max(np.abs(hl.values - brute)) <= 1e-8, t


def quadratic_brute_force(modes, n: int, step: int, t: float, err: float = 1e-9) -> np.ndarray:
    """min_d [ u0(x - d) + d^2 / (2t) ] at every step-th node of the n-point grid, u0 = sum_k a cos kx + b sin kx
    over modes (k, a, b), by sampling d on the grid of spacing h = 2 pi / N, N = n 2^j.

    Every x - d is then a point of that grid, so u0 is read from one period of samples.  A minimizer solves
    d = t u0'(x - d), so |d| <= t lip with lip = sum_k k |c_k| >= sup |u0'| covers them all.  The sampled minimum
    exceeds the true one by at most sup f'' h^2 / 8 <= (curv + 1/t) h^2 / 8, curv = sum_k k^2 |c_k| >= sup |u0''|,
    and N is the least that brings this below err.
    """
    k, a, b = (np.array(c, dtype=np.float64) for c in zip(*modes))
    amp = np.hypot(a, b)
    lip, curv = float(np.sum(k * amp)), float(np.sum(k * k * amp))
    N = n
    while (curv + 1.0 / t) * (2.0 * math.pi / N) ** 2 / 8.0 > err:
        N *= 2
    h = 2.0 * math.pi / N
    y = h * np.arange(N)
    u = np.cos(np.outer(y, k)) @ a + np.sin(np.outer(y, k)) @ b
    reach = math.ceil(t * lip / h)
    wrapped = u[(np.arange(N + 2 * reach + 1) - reach) % N]  # wrapped[s + reach - l] = u0(x_s - h l)
    lag = (h * np.arange(-reach, reach + 1)) ** 2 / (2.0 * t)  # even in l, so the window needs no reversal
    return np.array([np.min(wrapped[s : s + 2 * reach + 1] + lag) for s in range(0, N, step * (N // n))])


MODE = st.tuples(st.integers(1, 4), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=8, deadline=None)
@given(modes=st.lists(MODE, min_size=1, max_size=4, unique_by=lambda m: m[0]))
@example(modes=[(1, 0.0, 1.0), (2, 0.0, 1.0)])  # sin x + sin 2x: at t = 1 some best lattice values lie in a wrong basin
def test_oracle_matches_a_dense_brute_force_on_random_multi_mode_data(modes):
    # 1 to 4 modes with coefficients in [-1, 1], H = p^2 / 2, n = 256: at every 8th
    # node within 1e-8 of the brute force, whose own sampling error is at most 1e-9
    g = TorusGrid(1, 256)
    x = g.nodes()[0]
    u0 = sum(a * np.cos(k * x) + b * np.sin(k * x) for k, a, b in modes)
    times = (0.5, 1.0, 2.0)
    for t, hl in zip(times, hopf_lax_oracle(problem(g, 0.5, 0.0, u0=Field(g, u0)), times)):
        assert np.max(np.abs(hl.values[::8] - quadratic_brute_force(modes, 256, 8, t))) <= 1e-8, t


def test_oracle_memory_is_bounded_on_many_mode_data():
    # u0 = bump, 21 modes, n = 1024, t = 2: the scan's chunk is bounded by its
    # table entries times the mode count, so the call's traced peak stays small
    g = TorusGrid(1, 1024)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 0.0, u0=Field(g, np.exp(4.0 * (np.cos(x) - 1.0))))
    tracemalloc.start()
    try:
        hopf_lax_oracle(pr, (2.0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6, peak


# ---------------------------------------------------------------------------
# monotone reference scheme
# ---------------------------------------------------------------------------


def test_monotone_exact_on_zero_hamiltonian_with_forcing():
    g = TorusGrid(1, 128)
    x = g.nodes()[0]
    u0 = Field(g, np.cos(x))
    pr = problem(g, 0.5, 0.0, ham=ZERO_H, u0=u0, forcing=ConstantForcing(0.3), T=1.0)
    traj = monotone_reference(pr, 4, snapshot_times=(1.0,))
    expect = np.cos(x) + 0.3
    assert np.max(np.abs(traj.snapshots[-1].values - expect)) < 1e-7


def test_monotone_matches_oracle_post_shock():
    g = TorusGrid(1, 256)
    pr = problem(g, 0.5, 0.0, T=2.0)
    traj = monotone_reference(pr, fine_factor=8, snapshot_times=(2.0,))
    hl = hopf_lax_oracle(pr, (2.0,))[0]
    assert np.max(np.abs(traj.snapshots[-1].values - hl.values)) < 0.01


def test_monotone_rejects_bad_fine_factor():
    g = TorusGrid(1, 64)
    with pytest.raises(ValueError, match="fine_factor"):
        monotone_reference(problem(g, 0.5, 0.0), fine_factor=3, snapshot_times=(1.0,))


# ---------------------------------------------------------------------------
# viscous solver versus the inviscid limit
# ---------------------------------------------------------------------------


def test_viscous_gap_to_oracle_scales_with_epsilon():
    g = TorusGrid(1, 2048)
    pr_inv = problem(g, 0.5, 0.0, T=2.0)
    hl = hopf_lax_oracle(pr_inv, (2.0,))[0]
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


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8), lip=st.floats(0.05, 1.0),
       s=st.floats(0.25, 1.0), log2_eps=st.floats(-4.0, -1.0), T=st.floats(0.25, 2.0))
def test_comparison_with_constants_on_random_band_limited_data(coeffs, lip, s, log2_eps, T):
    # constants solve the unforced problem (H(0) = 0), so min u0 <= u(t) <= max u0;
    # modes 1..4 scaled to Lipschitz constant <= lip keep the front resolved at
    # n = 64, where the bound holds to round-off (tolerance calibration in CHANGES.md)
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    modes = list(zip((1, 2, 3, 4), coeffs[::2], coeffs[1::2]))
    weight = max(sum(k * (abs(a) + abs(b)) for k, a, b in modes), 1e-3)
    u0 = Field(g, lip / weight * sum(a * np.cos(k * x) + b * np.sin(k * x) for k, a, b in modes))
    traj = viscous_solve(problem(g, s, 2.0**log2_eps, u0=u0, T=T), np.linspace(0.0, T, 16))
    lo, hi = float(np.min(u0.values)), float(np.max(u0.values))
    for snap in traj.snapshots:
        assert lo - 1e-12 <= float(np.min(snap.values)) and float(np.max(snap.values)) <= hi + 1e-12


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


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)), min_size=1, max_size=4),
       s=st.floats(0.1, 1.0), eps=st.floats(0.02, 0.5), c=st.floats(-1.0, 1.0), T=st.floats(0.1, 1.0))
def test_mean_evolution_identity_on_random_band_limited_data(coeffs, s, eps, c, T):
    # the k = 0 mode feels neither the fractional Laplacian nor the dealiasing,
    # so mean u(T) - mean u0 = int_0^T (c - mean H(Du)) dt; the integral is
    # taken by trapezoid over 65 snapshots, whose error sets the tolerance
    # (calibrated over 2,000 seeded draws and the corners, see CHANGES.md)
    g = TorusGrid(1, 64)
    x = g.axis_coords
    u0 = Field(g, sum(a * np.cos(k * x) + b * np.sin(k * x) for k, (a, b) in enumerate(coeffs, start=1)))
    pr = problem(g, s, eps, u0=u0, forcing=ConstantForcing(c), T=T)
    traj = viscous_solve(pr, snapshot_times=tuple(np.linspace(0.0, T, 65)))
    sp = g.spectral
    mean_h = [float(np.mean(0.5 * sp.gradient(sp.fwd(f.values))[0] ** 2)) for f in traj.snapshots]
    integral = float(np.trapezoid(mean_h, traj.times))
    drop = float(np.mean(traj.snapshots[-1].values) - np.mean(u0.values))
    assert abs(drop - (c * T - integral)) <= 5e-3 * integral + 1e-12


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


def test_trajectory_derives_its_profiles_from_the_snapshots():
    # cos x: the second difference at probe scale z reads 2 (1 - cos z) / z^2
    # and the sup of |sin x| over the nodes is 1
    g = TorusGrid(1, 256)
    snaps = (cos_field(g),) * 3
    traj = Trajectory(problem(g, 0.5, 0.1, T=1.0), np.array([0.0, 0.5, 1.0]), snaps, n_steps=0)
    z = round(0.1 / g.spacing) * g.spacing
    assert np.allclose(traj.k_profile, 2.0 * (1.0 - math.cos(z)) / z**2, rtol=1e-12)
    assert np.all(np.abs(traj.k_profile - 1.0) < 1e-3)
    assert np.allclose(traj.grad_sup_profile, 1.0, rtol=1e-12)


def test_default_snapshots_are_sixteen_uniform():
    # the default is the config's alone: the solvers take their snapshot times from the caller
    g = TorusGrid(1, 128)
    times = parse_config("T = 1.0").plan.snapshot_times
    assert np.array_equal(times, np.linspace(0.0, 1.0, 16))
    with pytest.raises(TypeError, match="snapshot_times"):
        viscous_solve(problem(g, 0.5, 0.2, T=1.0))
    with pytest.raises(ValueError, match="non-empty"):
        viscous_solve(problem(g, 0.5, 0.2, T=1.0), ())
    assert np.array_equal(viscous_solve(problem(g, 0.5, 0.2, T=1.0), times).times, times)


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
    return [problem(g, s, eps, ham=q2, u0=Field(g, amp * cos_field(g).values), T=0.5)
            for s, eps, amp in ((0.5, 0.05, 1.0), (1.0, 0.1, 2.0), (0.75, 0.02, 3.0))]


def _batch_large():
    g = TorusGrid(1, 16384)
    return [problem(g, 0.5, eps, u0=Field(g, amp * cos_field(g).values), T=0.01) for eps, amp in ((0.01, 1.0), (0.005, 3.0))]


@pytest.mark.parametrize("members", [_batch_1d, _batch_2d, _batch_large],
                         ids=["1d-logcosh-coswave-mixed-s", "2d", "1d-16384"])
def test_batch_members_equal_solo_solves(members):
    members = members()
    times = np.linspace(0.0, members[0].T, 6)
    # at dt_cfl = 0.5 the members step differently; at the cap some share a step count
    batch = viscous_solve(ProblemBatch(members), dt_cfl=0.5, snapshot_times=times)
    solos = [viscous_solve(p, dt_cfl=0.5, snapshot_times=times) for p in members]
    assert isinstance(batch, TrajectoryBatch) and len(batch) == len(members)
    assert len({tr.n_steps for tr in solos}) == len(solos)  # the members step differently
    for solo, got in zip(solos, batch):
        assert isinstance(got, Trajectory)
        assert_same_trajectory(solo, got)
    assert batch.n_steps == sum(tr.n_steps for tr in solos)


MEMBER = st.tuples(st.floats(0.25, 1.0), st.floats(-5.0, -1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@settings(max_examples=60, deadline=None)
@given(members=st.lists(MEMBER, min_size=2, max_size=3), dim=st.sampled_from([1, 2]),
       kind=st.sampled_from(["quadratic", "log_cosh_regularized"]), wave=st.booleans(), T=st.floats(0.05, 0.5))
def test_random_batch_equals_its_solo_solves(members, dim, kind, wave, T):
    # members (s, log2 eps, a, b) with u0 = a cos x1 + b sin 2 x_dim share grid, H, forcing and T
    g = TorusGrid(dim, 64)
    x = g.nodes()
    ham = make_hamiltonian(kind, dim)
    forcing = CosWaveForcing(0.5, 1.0) if wave else ZeroForcing()
    problems = [problem(g, s, 2.0**log2_eps, ham=ham, u0=Field(g, a * np.cos(x[0]) + b * np.sin(2.0 * x[-1])),
                        forcing=forcing, T=T) for s, log2_eps, a, b in members]
    times = np.linspace(0.0, T, 4)
    batch = viscous_solve(ProblemBatch(problems), snapshot_times=times)
    for p, got in zip(problems, batch):
        assert isinstance(got, Trajectory)
        assert_same_trajectory(viscous_solve(p, snapshot_times=times), got)


def test_batch_member_tripping_a_guard_leaves_the_others_unchanged():
    g = TorusGrid(1, 64)
    push = ConstantForcing(1.0)
    rough = Field(g, np.random.default_rng(7).standard_normal(64))
    lifted = Field(g, cos_field(g).values + (1e6 - 1.5))  # crosses the 1e6 guard mid-run
    members = [
        problem(g, 0.5, 0.1, forcing=push, T=1.0),
        problem(g, 0.5, 0.05, u0=lifted, forcing=push, T=1.0),
        problem(g, 0.75, 0.05, u0=Field(g, 2.0 * cos_field(g).values), forcing=push, T=1.0),
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


# ---------------------------------------------------------------------------
# coarse-to-fine march
# ---------------------------------------------------------------------------


def test_batch_promoting_at_different_times_equals_solo_solves():
    g = TorusGrid(1, 8192)
    members = [problem(g, 0.5, eps, T=1.0) for eps in (2.0**-4, 2.0**-8)]
    times = np.linspace(0.0, 1.0, 6)
    batch = viscous_solve(ProblemBatch(members), snapshot_times=times)
    solos = [viscous_solve(p, snapshot_times=times) for p in members]
    for solo, got in zip(solos, batch):
        assert_same_trajectory(solo, got)
        assert got.grid_schedule == solo.grid_schedule
        assert [n for n, _, _ in got.grid_schedule] == [1024, 2048, 4096, 8192]
        assert got.n_steps == sum(steps for _, _, steps in got.grid_schedule)
        assert all(snap.grid == g for snap in got.snapshots)
    entries = [[t for _, t, _ in tr.grid_schedule[1:]] for tr in batch]
    assert all(a != b for a, b in zip(*entries))  # the members promote at different times


def test_datum_outside_the_coarse_band_starts_on_its_final_grid(monkeypatch):
    # a k = 300 mode lies past 0.3 k_c of n = 1024 (k_c = 341), so the solve marches on n = 2048 alone
    g = TorusGrid(1, 2048)
    x = g.nodes()[0]
    pr = problem(g, 0.5, 2.0**-6, u0=Field(g, np.cos(x) + 1e-3 * np.cos(300 * x)), T=0.05)
    traj = viscous_solve(pr, snapshot_times=(0.0, 0.05))
    assert traj.grid_schedule == ((2048, 0.0, traj.n_steps),)
    monkeypatch.setattr(hj, "GRID_MIN", 2048)
    assert_same_trajectory(traj, viscous_solve(pr, snapshot_times=(0.0, 0.05)))


@pytest.mark.parametrize("s, eps", [(0.25, 2.0**-4), (0.5, 2.0**-6), (1.0, 2.0**-5)])
def test_coarse_to_fine_stays_within_its_bound_of_the_final_grid_solve(monkeypatch, s, eps):
    # README calibration: the coarse-to-fine solve stays within 1e-7 of the solve on its final grid alone
    pr = problem(TorusGrid(1, 2048), s, eps)
    times = np.linspace(0.0, 2.0, 16)
    traj = viscous_solve(pr, times)
    assert [n for n, _, _ in traj.grid_schedule] == [1024, 2048]
    monkeypatch.setattr(hj, "GRID_MIN", 2048)
    alone = viscous_solve(pr, times)
    assert alone.grid_schedule == ((2048, 0.0, alone.n_steps),) and traj.n_steps < alone.n_steps
    assert max(np.max(np.abs(a.values - b.values)) for a, b in zip(traj.snapshots, alone.snapshots)) <= 1e-7


@pytest.mark.parametrize("u0, push", [("rough", 0.0), ("cos", 1e7)], ids=["tail", "blow-up"])
def test_guards_fire_as_on_the_final_grid_alone(monkeypatch, u0, push):
    g = TorusGrid(1, 2048)
    vals = np.random.default_rng(7).standard_normal(2048) if u0 == "rough" else cos_field(g).values
    pr = problem(g, 0.5, 2.0**-6, ham=ZERO_H, u0=Field(g, vals), forcing=ConstantForcing(push), T=0.5)
    errors = []
    for floor in (hj.GRID_MIN, 2048):
        monkeypatch.setattr(hj, "GRID_MIN", floor)
        with pytest.raises((TailGuardError, BlowUpError)) as exc:
            viscous_solve(pr, snapshot_times=np.linspace(0.0, 0.5, 16))
        errors.append((type(exc.value), str(exc.value)))
    assert errors[0] == errors[1]


def test_problem_batch_validation():
    g = TorusGrid(1, 32)
    base = problem(g, 0.5, 0.1, T=1.0)
    assert ProblemBatch([base, problem(g, 0.25, 0.2, u0=Field(g, 2.0 * cos_field(g).values), T=1.0)]).grid == g
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
        viscous_solve(ProblemBatch([base, problem(g, 0.5, 0.0, T=1.0)]), (1.0,))


# ---------------------------------------------------------------------------
# semiconcavity diagnostics
# ---------------------------------------------------------------------------


def test_semiconcavity_profile_riccati_closed_form():
    g = TorusGrid(1, 1024)
    traj = viscous_solve(problem(g, 0.5, 0.05, T=2.0), snapshot_times=tuple(np.linspace(0.0, 2.0, 9)))
    assert np.allclose(traj.k_bound, 1.0 / (1.0 + traj.times), atol=1e-12)
    assert np.all(traj.k_profile <= traj.k_bound + 0.05)
    # pre-shock the bound is saturated at the valley; the fixed-scale probe
    # reads it from below with an O(scale^2) bias
    i = int(np.argmin(np.abs(traj.times - 0.5)))
    assert 0.0 < 1.0 / 1.5 - traj.k_profile[i] < 0.02


def test_semiconcavity_uniform_in_epsilon():
    g = TorusGrid(1, 2048)
    for eps in (0.05, 0.0125, 2.0**-8):
        traj = viscous_solve(problem(g, 0.5, eps, T=2.0), snapshot_times=(0.5, 1.0, 1.5, 2.0))
        assert np.all(traj.k_profile <= traj.k_bound + 0.05), f"eps={eps}: {traj.k_profile} vs {traj.k_bound}"


def test_riccati_bound_with_constant_forcing():
    # constant-coefficient closed form: k' = -k^2 + c has equilibrium sqrt(c)
    g = TorusGrid(1, 128)
    f = CosWaveForcing(amp=0.25, omega=0.0)  # c_f(t) = 0.25 for all t
    traj = viscous_solve(problem(g, 0.5, 0.2, forcing=f, T=6.0), snapshot_times=(0.0, 6.0))
    # k(0) = 1, equilibrium sqrt(0.25) = 0.5; by t = 6 the bound is close
    assert abs(traj.k_bound[-1] - 0.5) < 0.01


def _riccati_rk4(times, k0, theta, c):
    """Reference: RK4 on k' = -theta k^2 + c, k(0) = k0, with substeps of at most 1e-3."""
    out = np.empty_like(times)
    k = k0
    t = 0.0
    for i, target in enumerate(times):
        nsub = max(1, int(math.ceil((target - t) / 1e-3)))
        dt = (target - t) / nsub
        for _ in range(nsub):
            a1 = -theta * k * k + c
            a2 = -theta * (k + 0.5 * dt * a1) ** 2 + c
            a3 = -theta * (k + 0.5 * dt * a2) ** 2 + c
            a4 = -theta * (k + dt * a3) ** 2 + c
            k += dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
        t = target
        out[i] = k
    return out


@pytest.mark.parametrize("theta, k0, c, tol", [(1.0, 1.0, 0.25, 1e-12), (0.5, 2.0, 0.3, 1e-12),
                                               (0.0, 1.0, 0.4, 1e-11)])
def test_riccati_closed_form_matches_rk4(theta, k0, c, tol):
    times = np.linspace(0.0, 6.0, 13)
    np.testing.assert_allclose(_riccati_bound(times, k0, theta, c), _riccati_rk4(times, k0, theta, c),
                               rtol=0.0, atol=tol)


@settings(max_examples=200, deadline=None)
@given(theta=st.floats(0.0, 2.0), k0=st.floats(0.0, 3.0), c=st.floats(0.0, 1.0))
def test_riccati_closed_form_solves_the_ode(theta, k0, c):
    assert _riccati_bound(np.zeros(1), k0, theta, c)[0] == k0
    h = 1e-5
    t = np.linspace(0.01, 4.0, 40)
    k = _riccati_bound(t, k0, theta, c)
    dk = (_riccati_bound(t + h, k0, theta, c) - _riccati_bound(t - h, k0, theta, c)) / (2.0 * h)
    assert np.max(np.abs(dk + theta * k * k - c)) < 1e-6
