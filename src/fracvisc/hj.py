"""Viscous and inviscid solvers for periodic Hamilton-Jacobi equations.

The initial value problem treated here is

    d_t u + eps (-Delta)^s u + H(Du) = f(x, t),    u(., 0) = u0,

on the torus [0, 2pi)^dim.  Three solution paths are provided:

* viscous_solve       pseudospectral integrating-factor RK4 for eps > 0
* hopf_lax_oracle     variational formula for eps = 0 (convex H, f == 0)
* monotone_reference  Lax-Friedrichs finite differences on a refined grid

The stiff linear part is integrated exactly through the Fourier-side factor
exp(-eps |k|^(2s) dt); the Hamiltonian nonlinearity is evaluated nodally on
2/3-dealiased gradients and transformed back with the same dealiasing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from fracvisc.hamiltonians import HamiltonianSpec, LagrangianSpec, legendre_batch
from fracvisc.torus import (TWO_PI, Field, TorusGrid, eval_modes, ifrk4_march, mode_table, refine,
                            second_difference_max, subsample)

__all__ = [
    "ZeroForcing",
    "ConstantForcing",
    "CosWaveForcing",
    "clean_snapshot_times",
    "ProblemSpec",
    "ProblemBatch",
    "Trajectory",
    "TrajectoryBatch",
    "BlowUpError",
    "TailGuardError",
    "viscous_solve",
    "hopf_lax_oracle",
    "monotone_reference",
    "SemiconcavityCheck",
    "semiconcavity_profile",
]

CURVATURE_SCALE = 0.1  # probe scale of the per-snapshot semiconcavity measurement


class BlowUpError(RuntimeError):
    """Raised when the iterate exceeds the amplitude guard or goes non-finite."""

    def __init__(self, t: float, what: str):
        super().__init__(f"solution blow-up at t={t:.6g}: {what}")
        self.t = t


class TailGuardError(RuntimeError):
    """Raised when too much spectral energy sits beyond the 2/3 cutoff."""

    def __init__(self, t: float, fraction: float):
        super().__init__(
            f"spectral tail energy fraction {fraction:.3e} exceeds 1e-6 at t={t:.6g}; "
            "the run is under-resolved"
        )
        self.t = t
        self.fraction = fraction


# ---------------------------------------------------------------------------
# forcing providers
# ---------------------------------------------------------------------------


class ZeroForcing:
    """f == 0."""

    is_zero = True

    def value(self, grid: TorusGrid, t: float) -> np.ndarray:
        return np.zeros(grid.shape)

    def semiconcavity(self, t: float) -> float:
        return 0.0

    def __eq__(self, other):  # forcing equality keeps ProblemSpec comparable
        return isinstance(other, ZeroForcing)


class ConstantForcing:
    """f == c, constant in space and time."""

    is_zero = False

    def __init__(self, c: float):
        self.c = float(c)

    def value(self, grid: TorusGrid, t: float) -> np.ndarray:
        return np.full(grid.shape, self.c)

    def semiconcavity(self, t: float) -> float:
        return 0.0

    def __eq__(self, other):
        return isinstance(other, ConstantForcing) and self.c == other.c


class CosWaveForcing:
    """f(x, t) = amp * cos(x_1 - omega t), a travelling forcing wave."""

    is_zero = False

    def __init__(self, amp: float, omega: float):
        self.amp = float(amp)
        self.omega = float(omega)

    def value(self, grid: TorusGrid, t: float) -> np.ndarray:
        return self.amp * np.cos(grid.x1 - self.omega * t)

    def semiconcavity(self, t: float) -> float:
        # largest eigenvalue of D^2 f is amp (attained where the cosine is -1)
        return abs(self.amp)

    def __eq__(self, other):
        return (
            isinstance(other, CosWaveForcing)
            and self.amp == other.amp
            and self.omega == other.omega
        )


# ---------------------------------------------------------------------------
# problem and trajectory containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """One Cauchy problem: grid, diffusion (s, eps), Hamiltonian, data."""

    grid: TorusGrid
    s: float
    epsilon: float
    hamiltonian: HamiltonianSpec
    u0: Field
    forcing: object
    T: float

    def __post_init__(self) -> None:
        if not 0.0 < self.s <= 1.0:
            raise ValueError(f"s must lie in (0, 1], got {self.s}")
        if self.epsilon < 0.0:
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.hamiltonian.dim != self.grid.dim:
            raise ValueError("Hamiltonian dimension does not match grid dimension")
        if self.u0.grid != self.grid:
            raise ValueError("u0 lives on a different grid")
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise ValueError(f"T must be positive and finite, got {self.T}")
        for attr in ("value", "semiconcavity"):
            if not callable(getattr(self.forcing, attr, None)):
                raise ValueError("forcing must provide value(grid, t) and semiconcavity(t)")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one solve plus per-snapshot diagnostics.

    k_profile[i] is the measured semiconcavity constant of the snapshot:
    the largest centred second difference quotient at the fixed probe
    scale CURVATURE_SCALE = 0.1 (see torus.second_difference_max).  Probing
    at a fixed physical scale keeps the measurement finite and
    grid-independent when fronts sharpen below the grid, which genuinely
    happens for s <= 1/2 where the dissipation cannot spread a front into a
    resolvable layer.
    grad_sup_profile[i] is the nodal sup of |Du| of the dealiased snapshot.
    """

    problem: ProblemSpec
    times: np.ndarray
    snapshots: tuple[Field, ...]
    k_profile: np.ndarray
    grad_sup_profile: np.ndarray
    n_steps: int
    method: str

    def snapshot_at(self, t: float) -> Field:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, self.problem.T):
            raise KeyError(f"no snapshot stored at t={t}")
        return self.snapshots[i]


class ProblemBatch(tuple):
    """ProblemSpecs that viscous_solve marches together: they share grid, Hamiltonian, forcing and T."""

    def __new__(cls, problems=()):
        batch = super().__new__(cls, problems)
        if not batch or not all(isinstance(p, ProblemSpec) for p in batch):
            raise ValueError("a ProblemBatch holds one or more ProblemSpecs")
        for attr in ("grid", "hamiltonian", "forcing", "T"):
            if any(getattr(p, attr) != getattr(batch[0], attr) for p in batch):
                raise ValueError(f"the problems of a batch must share their {attr}")
        return batch

    @property
    def grid(self) -> TorusGrid:
        return self[0].grid


class TrajectoryBatch(tuple):
    """viscous_solve's result for a ProblemBatch: per member a Trajectory or its guard error."""

    @property
    def n_steps(self) -> int:  # the steps of the members that finished
        return sum(tr.n_steps for tr in self if isinstance(tr, Trajectory))


def _quantize_speed(speed: float) -> float:
    """Round speeds up onto a geometric ladder so dt changes rarely; inf for a speed off the ladder."""
    if speed <= 1.0:
        return 1.0
    try:
        return 1.05 ** math.ceil(math.log(speed) / math.log(1.05))
    except (ValueError, OverflowError):  # a NaN or infinite speed, or a rung past the float range
        return math.inf


def clean_snapshot_times(snapshot_times, T: float) -> np.ndarray:
    """Sorted distinct snapshot times in [0, T] (16 even ones for None), the last clamped to T."""
    if snapshot_times is None:
        times = np.linspace(0.0, T, 16)
    else:
        times = np.asarray(sorted(set(float(t) for t in snapshot_times)))
    if times.size == 0:
        raise ValueError("snapshot_times must be non-empty")
    if times[0] < 0.0 or times[-1] > T * (1.0 + 1e-12):
        raise ValueError(f"snapshot times must lie in [0, {T}]")
    times[-1] = min(times[-1], T)
    return times


# ---------------------------------------------------------------------------
# viscous pseudospectral solver
# ---------------------------------------------------------------------------


def viscous_solve(
    problem: ProblemSpec | ProblemBatch,
    dt_cfl: float = 0.5,
    snapshot_times=None,
) -> Trajectory | TrajectoryBatch:
    """Integrate the viscous problem with integrating-factor RK4.

    The time step adapts as dt = dt_cfl * h / max(1, sup |D_p H(Du)|); the
    speed is rounded up onto a geometric ladder so the (costly) integrating
    factors are recomputed only when the speed estimate actually moves.
    Snapshot times are landed on exactly.  Raises BlowUpError when the
    iterate exceeds 1e6 in sup norm or becomes non-finite, TailGuardError
    when more than 1e-6 of the spectral energy sits beyond the 2/3 cutoff.

    A ProblemBatch is marched in one lockstep batch (torus.ifrk4_march), so
    each FFT and Hamiltonian evaluation serves every member still marching.
    The TrajectoryBatch returned holds, per member, the Trajectory or the
    guard error that viscous_solve gives for that member alone, bitwise.

    The integrating factor includes the smooth near-cutoff damping
    RealSpectral.damping.  It is essential for weak high-frequency
    dissipation (s <= 1/2 with small epsilon): the sharp 2/3 truncation
    otherwise excites a grid-scale wave packet at stagnation points once a
    front forms, and the packet rectifies through the Hamiltonian into an
    O(1) error that grid refinement cannot remove.
    """
    single = isinstance(problem, ProblemSpec)
    batch = ProblemBatch((problem,) if single else problem)
    if any(p.epsilon <= 0.0 for p in batch):
        raise ValueError(
            "viscous_solve requires epsilon > 0; use hopf_lax_oracle or "
            "monotone_reference for the inviscid problem"
        )
    if not 0.0 < dt_cfl <= 0.6:
        raise ValueError(f"dt_cfl must lie in (0, 0.6], got {dt_cfl}")
    grid = batch.grid
    ham = batch[0].hamiltonian
    forcing = batch[0].forcing
    times = clean_snapshot_times(snapshot_times, batch[0].T)
    sp = grid.spectral
    h = grid.spacing

    f_static = None
    if getattr(forcing, "is_zero", False):
        f_static = 0.0
    elif isinstance(forcing, ConstantForcing):
        f_static = forcing.c

    # the nonlinear term's buffers, one row per member; du[:, :m] is the
    # dealiased gradient Du of the first m rows
    du = np.empty((grid.dim, len(batch)) + grid.shape)
    dh = np.empty((len(batch),) + sp.k2.shape, dtype=np.complex128)
    nl = np.empty((len(batch),) + grid.shape)

    def grad_squared(g: np.ndarray, out: np.ndarray) -> np.ndarray:
        """|Du|^2 of the gradient components g into out."""
        np.multiply(g[0], g[0], out=out)
        for gj in g[1:]:
            np.add(out, gj * gj, out=out)
        return out

    # by m: the buffers of the first m rows, Du also with the component axis
    # last as H.value takes it
    rows = [(du[:, :m], np.moveaxis(du[:, :m], 0, -1), dh[:m], nl[:m]) for m in range(len(batch) + 1)]

    def nonlinear(uh: np.ndarray, ts: list[float], out: np.ndarray) -> None:
        """Dealiased transform of f - H(Du) into out; Du stays in du."""
        g, p, w, v = rows[len(uh)]
        sp.gradient(uh, out=g, work=w)
        ham.value(p, out=v)
        np.negative(v, out=v)
        if f_static is None:
            for vr, t in zip(v, ts):
                np.add(vr, forcing.value(grid, t), out=vr)
        elif f_static != 0.0:
            np.add(v, f_static, out=v)
        sp.fwd(v, out=out)
        sp.truncate(out)

    def dt_rule(m: int) -> list[float]:
        sq = grad_squared(rows[m][0], rows[m][3]).reshape(m, -1).max(axis=1)
        return [dt_cfl * h / _quantize_speed(ham.grad_sup(math.sqrt(float(q)))) for q in sq]

    snaps, k_prof, g_prof = ([[] for _ in batch] for _ in range(3))  # per member
    failed: dict[int, RuntimeError] = {}

    def land(i: int, uh: np.ndarray, t: float) -> bool:
        vals = sp.inv(uh)
        sup = float(np.max(np.abs(vals)))
        if not np.isfinite(sup) or sup > 1e6:
            failed[i] = BlowUpError(t, f"sup|u| = {sup:.3e}")
            return False
        frac = sp.tail_fraction(uh)
        if frac > 1e-6:
            failed[i] = TailGuardError(t, frac)
            return False
        snap = Field(grid, vals)
        snaps[i].append(snap)
        k_prof[i].append(second_difference_max(snap, CURVATURE_SCALE))
        sp.gradient(uh, out=du[:, 0], work=dh[0])
        g_prof[i].append(math.sqrt(float(grad_squared(du[:, 0], nl[0]).max())))
        return True

    def nonfinite(i: int, t: float) -> None:
        failed[i] = BlowUpError(t, "non-finite spectral coefficients")

    steps = ifrk4_march(
        grid, [(p.epsilon, p.s) for p in batch], sp.fwd(np.stack([p.u0.values for p in batch])), nonlinear,
        dt_rule=dt_rule, landings=times, t_ref=max(batch[0].T, 1.0), land=land, nonfinite=nonfinite,
    )
    out = TrajectoryBatch(
        failed[i] if i in failed else Trajectory(p, times, tuple(snaps[i]), np.asarray(k_prof[i]),
                                                  np.asarray(g_prof[i]), steps[i], "viscous_ifrk4")
        for i, p in enumerate(batch)
    )
    if single and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Hopf-Lax oracle (eps = 0, f = 0, convex H)
# ---------------------------------------------------------------------------


def _golden_refine(obj, lo: np.ndarray, hi: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized golden-section minimization of obj over [lo, hi] per entry.

    Returns (argmin, value).  Each iteration costs one batched objective
    evaluation; the interval shrinks by the golden ratio, so reaching
    tol = 1e-10 from unit-size brackets takes about 50 iterations.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = np.asarray(lo, dtype=np.float64).copy()
    b = np.asarray(hi, dtype=np.float64).copy()
    span = b - a
    c = b - invphi * span
    d = a + invphi * span
    fc, fd = obj(c), obj(d)
    while np.max(b - a) > tol:
        take_left = fc < fd
        fc_old = fc
        b = np.where(take_left, d, b)
        a = np.where(take_left, a, c)
        span = b - a
        c_cand = b - invphi * span
        d_cand = a + invphi * span
        new_c = np.where(take_left, c_cand, d)
        new_d = np.where(take_left, c, d_cand)
        pt = np.where(take_left, c_cand, d_cand)
        fv = obj(pt)
        fc = np.where(take_left, fv, fd)
        fd = np.where(take_left, fc_old, fv)
        c, d = new_c, new_d
    best = np.where(fc < fd, c, d)
    return best, np.minimum(fc, fd)


def _offset_scan(problem: ProblemSpec, t: float) -> tuple[LagrangianSpec, float, np.ndarray]:
    """Lagrangian, scan spacing and candidate offsets of the oracle at time t.

    The spacing is a quarter of the finest oscillation of u0; the scan radius
    t * sup |D_p H(Du0)| + 2pi covers every candidate minimizer plus one period.
    """
    from fracvisc.torus import spectral_gradient

    sp = problem.u0.grid.spectral
    amp = np.abs(sp.fwd(problem.u0.values))
    sig = amp > 1e-12 * np.max(amp)
    kmax = max([1.0] + [float(np.max(np.abs(km), where=sig, initial=0.0)) for km in sp.k])
    g2 = sum(g.values**2 for g in spectral_gradient(problem.u0))
    radius = t * problem.hamiltonian.grad_sup(float(np.sqrt(np.max(g2)))) + TWO_PI
    delta = math.pi / (4.0 * kmax)
    m = int(math.ceil(2.0 * radius / delta)) + 1
    return LagrangianSpec(problem.hamiltonian, tol=1e-12), delta, np.linspace(-radius, radius, m)


def _minimize_1d(problem: ProblemSpec, t: float, xs: np.ndarray, kvecs: np.ndarray,
                 cvals: np.ndarray) -> np.ndarray:
    """Values min_d [u0(x - d) + t L(d / t)] at the points xs (1-D)."""
    lag, delta, offsets = _offset_scan(problem, t)
    lvals = t * legendre_batch(lag, (offsets / t)[:, np.newaxis])

    # coarse scan in manageable chunks of evaluation points
    best_d = np.empty(xs.size)
    chunk = max(1, int(2e6) // offsets.size)
    for i0 in range(0, xs.size, chunk):
        x = xs[i0 : i0 + chunk]
        vals = eval_modes(kvecs, cvals, (x[:, None] - offsets[None, :])[..., np.newaxis])
        vals = vals + lvals[None, :]
        best_d[i0 : i0 + chunk] = offsets[np.argmin(vals, axis=1)]

    def objective(d: np.ndarray) -> np.ndarray:
        u0v = eval_modes(kvecs, cvals, (xs - d)[..., np.newaxis])
        return u0v + t * legendre_batch(lag, (d / t)[..., np.newaxis])

    return _golden_refine(objective, best_d - delta, best_d + delta, 1e-10)[1]


def hopf_lax_oracle(problem: ProblemSpec, t: float) -> Field:
    """Inviscid solution u(x, t) = min_y [ u0(y) + t L((x - y)/t) ] on the problem grid.

    Evaluated by a coarse scan over candidate offsets followed by
    golden-section refinement of the minimizing offset to 1e-10.  The scan
    radius t * sup|D_p H| + 2pi covers every candidate minimizer plus one
    full period.  Requires f == 0; for the zero Hamiltonian the solution is
    u0 itself.
    """
    if not getattr(problem.forcing, "is_zero", False):
        raise ValueError("hopf_lax_oracle requires zero forcing")
    grid = problem.grid
    if t < 0.0:
        raise ValueError("t must be >= 0")
    pts = np.stack(grid.nodes(), axis=-1)
    kvecs, cvals = mode_table(problem.u0, 1e-14)
    if t == 0.0 or problem.hamiltonian.is_zero:
        return Field(grid, eval_modes(kvecs, cvals, pts))

    flat_pts = pts.reshape(-1, grid.dim)
    npts = flat_pts.shape[0]
    if grid.dim == 1:
        return Field(grid, _minimize_1d(problem, t, flat_pts[:, 0], kvecs, cvals).reshape(grid.shape))

    # dim == 2: coarse scan over an offset lattice, then coordinate descent
    lag, delta, offsets = _offset_scan(problem, t)
    d1, d2 = np.meshgrid(offsets, offsets, indexing="ij")
    dlat = np.stack([d1.reshape(-1), d2.reshape(-1)], axis=-1)
    lvals = t * legendre_batch(lag, dlat / t)
    best = np.empty((npts, 2))
    chunk = max(1, int(4e6) // dlat.shape[0])
    for i0 in range(0, npts, chunk):
        xs = flat_pts[i0 : i0 + chunk]
        vals = eval_modes(kvecs, cvals, xs[:, None, :] - dlat[None, :, :]) + lvals[None, :]
        best[i0 : i0 + chunk] = dlat[np.argmin(vals, axis=1)]

    cur = best

    def axis_objective(axis: int, other: np.ndarray):
        def obj(d: np.ndarray) -> np.ndarray:
            dd = np.empty((d.size, 2))
            dd[:, axis] = d
            dd[:, 1 - axis] = other
            return eval_modes(kvecs, cvals, flat_pts - dd) + t * legendre_batch(lag, dd / t)

        return obj

    width = delta
    vals = None
    for _ in range(60):
        moved = 0.0
        for axis in (0, 1):
            obj = axis_objective(axis, cur[:, 1 - axis])
            d0 = cur[:, axis].copy()
            dstar, vals = _golden_refine(obj, d0 - width, d0 + width, 1e-11)
            moved = max(moved, float(np.max(np.abs(dstar - d0))))
            cur[:, axis] = dstar
        width = max(2.0 * moved, 1e-9)
        if moved < 1e-10:
            break
    return Field(grid, vals.reshape(grid.shape))


# ---------------------------------------------------------------------------
# monotone (Lax-Friedrichs) reference scheme
# ---------------------------------------------------------------------------


def monotone_reference(
    problem: ProblemSpec,
    fine_factor: int = 4,
    snapshot_times=None,
) -> Trajectory:
    """First-order Lax-Friedrichs reference solve on a refined grid.

    The initial datum is lifted by trigonometric interpolation onto a grid
    fine_factor times finer per axis, stepped with the monotone
    Lax-Friedrichs scheme at CFL number 0.4, and restricted back onto the
    problem grid by subsampling.  Supports forcing and is the designated
    inviscid reference when f != 0.  The artificial viscosity tracks
    sup |D_p H| of the current iterate, so the scheme stays monotone.
    """
    if not isinstance(fine_factor, int) or fine_factor < 4 or (fine_factor & (fine_factor - 1)):
        raise ValueError(f"fine_factor must be a power-of-two integer >= 4, got {fine_factor}")
    grid = problem.grid
    ham = problem.hamiltonian
    forcing = problem.forcing
    times = clean_snapshot_times(snapshot_times, problem.T)

    fine = refine(problem.u0, fine_factor)
    fgrid = fine.grid
    h = fgrid.spacing
    dim = grid.dim
    u = fine.values.copy()

    def central_gradient(u: np.ndarray) -> np.ndarray:
        comps = [
            (np.roll(u, -1, axis=ax) - np.roll(u, 1, axis=ax)) / (2.0 * h)
            for ax in range(dim)
        ]
        return comps[0][..., np.newaxis] if dim == 1 else np.stack(comps, axis=-1)

    snaps: list[Field] = []
    k_prof: list[float] = []
    g_prof: list[float] = []
    n_steps = 0
    t = 0.0
    tref = max(problem.T, 1.0)

    def record(u: np.ndarray, t: float) -> None:
        coarse = subsample(Field(fgrid, u), fine_factor)
        from fracvisc.torus import spectral_gradient as _sg

        snaps.append(coarse)
        k_prof.append(second_difference_max(coarse, CURVATURE_SCALE))
        g = _sg(coarse)
        g2 = sum(gi.values**2 for gi in g)
        g_prof.append(float(np.sqrt(np.max(g2))))

    for target in times:
        while t < target - 1e-13 * tref:
            p = central_gradient(u)
            if dim == 1:
                gsup = float(np.sqrt(np.max(p[..., 0] ** 2)))
            else:
                gsup = float(np.sqrt(np.max(p[..., 0] ** 2 + p[..., 1] ** 2)))
            c_visc = max(ham.grad_sup(gsup), 1e-12)
            dt = 0.4 * h / (dim * max(c_visc, 1.0))
            if t + dt >= target - 1e-13 * tref:
                dt = target - t
            rhs = -ham.value(p)
            if not getattr(forcing, "is_zero", False):
                rhs = rhs + forcing.value(fgrid, t)
            diff = np.zeros_like(u)
            for ax in range(dim):
                diff += np.roll(u, -1, axis=ax) - 2.0 * u + np.roll(u, 1, axis=ax)
            u = u + dt * rhs + (c_visc * dt / (2.0 * h)) * diff
            t += dt
            n_steps += 1
            if n_steps % 256 == 0 and not np.all(np.isfinite(u)):
                raise BlowUpError(t, "non-finite Lax-Friedrichs iterate")
        t = target
        sup = float(np.max(np.abs(u)))
        if not np.isfinite(sup) or sup > 1e6:
            raise BlowUpError(t, f"sup|u| = {sup:.3e}")
        record(u, t)

    return Trajectory(
        problem=problem,
        times=times,
        snapshots=tuple(snaps),
        k_profile=np.asarray(k_prof),
        grad_sup_profile=np.asarray(g_prof),
        n_steps=n_steps,
        method="lax_friedrichs",
    )


# ---------------------------------------------------------------------------
# semiconcavity diagnostics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SemiconcavityCheck:
    """Measured semiconcavity constants against the Riccati comparison bound.

    The bound k(t) solves k' = -theta k^2 + c_f(t), k(0) = k0, where k0
    bounds the largest eigenvalue of D^2 u0, theta is the convexity lower
    bound of H and c_f(t) the largest eigenvalue of D^2 f(., t).  For f == 0
    this is k0 / (1 + theta k0 t).
    """

    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray

    def within(self, slack: float) -> bool:
        return bool(np.all(self.measured <= self.bound + slack))


def _riccati_bound(times: np.ndarray, k0: float, theta: float, forcing) -> np.ndarray:
    if getattr(forcing, "is_zero", False) or isinstance(forcing, ConstantForcing):
        if theta == 0.0:
            return np.full_like(times, k0)
        denom = 1.0 + theta * k0 * times
        if np.any(denom <= 0.0):
            raise ValueError("Riccati bound blows up inside the requested window")
        return k0 / denom
    # integrate k' = -theta k^2 + c_f(t) with RK4 on a fine internal grid
    out = np.empty_like(times)
    k = k0
    t = 0.0
    for i, target in enumerate(times):
        nsub = max(1, int(math.ceil((target - t) / 1e-3)))
        dt = (target - t) / nsub if nsub else 0.0
        for _ in range(nsub):
            def rhs(tt, kk):
                return -theta * kk * kk + forcing.semiconcavity(tt)

            a1 = rhs(t, k)
            a2 = rhs(t + 0.5 * dt, k + 0.5 * dt * a1)
            a3 = rhs(t + 0.5 * dt, k + 0.5 * dt * a2)
            a4 = rhs(t + dt, k + dt * a3)
            k += dt / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
            t += dt
        t = target
        out[i] = k
    return out


def semiconcavity_profile(traj: Trajectory) -> SemiconcavityCheck:
    """Compare the measured k(t) profile of a trajectory to the Riccati bound."""
    problem = traj.problem
    from fracvisc.torus import hessian_max_eig as _hme

    k0 = _hme(problem.u0)
    bound = _riccati_bound(traj.times, k0, problem.hamiltonian.theta, problem.forcing)
    return SemiconcavityCheck(times=traj.times.copy(), measured=traj.k_profile.copy(), bound=bound)
