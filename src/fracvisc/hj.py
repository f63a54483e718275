"""Viscous and inviscid solvers for periodic Hamilton-Jacobi equations.

The initial value problem treated here is

    d_t u + eps (-Delta)^s u + H(Du) = f(x, t),    u(., 0) = u0,

on the torus [0, 2pi)^dim.  Three solution paths are provided:

* viscous_solve       pseudospectral ETDRK4 for eps > 0, marched coarse to fine
* hopf_lax_oracle     variational formula for eps = 0 (convex H, f == 0)
* monotone_reference  Lax-Friedrichs finite differences on a refined grid

The stiff linear part, eps |k|^(2s) plus a near-cutoff damping, is taken
exactly by ETDRK4 (torus.etdrk4_march); the Hamiltonian nonlinearity is evaluated
nodally on 2/3-dealiased gradients and transformed back with the same dealiasing.
A problem's grid is its solve's final grid: above GRID_MIN points per axis the
march starts coarser and doubles the grid as the spectrum reaches its damping band.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from fracvisc.hamiltonians import HamiltonianSpec, legendre_batch, legendre_momentum
from fracvisc.torus import (TWO_PI, Field, TorusGrid, eval_modes, etdrk4_march, hessian_max_eig, mode_table, prolong,
                            refine, second_difference_max, subsample)

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
]

CURVATURE_SCALE = 0.1  # probe scale of the per-snapshot semiconcavity measurement
# The cap the damping band allows: with dt <= dt_cfl 2pi/n and k_c = n/3, the damping 3000 k_c r^16 of a
# mode at r = |k|/k_c times dt is at most 2000 pi dt_cfl r^16, below 1 up to r* = (2000 pi dt_cfl)^(-1/16) at
# any n; RK4's imaginary-axis bound 2 sqrt(2) on that mode's phase per step (2 pi / 3) r* dt_cfl gives the cap.
# ETDRK4's own amplification factor on advection at speed 1 over the kept modes stays <= 1 up to dt_cfl
# 2.78 in 1-D and 2.79-2.82 in 2-D (tests/test_torus.py), so the cap sits at 0.875-0.889 of that edge.
DT_CFL_MAX = (3 * math.sqrt(2) / math.pi * (2000 * math.pi) ** (1 / 16)) ** (16 / 15)
GRID_MIN = 1024  # points per axis: viscous_solve's coarsest grid, and the floor of the sweep's grid rule
# viscous_solve doubles a member's grid once more than this share of its spectral energy sits in the
# grid's damping band |k| >= 0.3 k_c, where RealSpectral.damping starts to act (calibrated in the README)
PROMOTE_TOL = 1e-24


class BlowUpError(RuntimeError):
    """Raised when the iterate exceeds the amplitude guard or goes non-finite."""

    def __init__(self, t: float, what: str):
        super().__init__(f"solution blow-up at t={t:.6g}: {what}")
        self.t = t


class TailGuardError(RuntimeError):
    """Raised when too much spectral energy sits beyond the 2/3 cutoff.

    The march truncates and damps that band, so only the datum's own tail
    trips this guard; an under-resolved front passes it (no resolution check).
    """

    def __init__(self, t: float, fraction: float):
        super().__init__(
            f"spectral tail energy fraction {fraction:.3e} exceeds 1e-6 at t={t:.6g}; "
            "the data carry energy beyond the 2/3 cutoff of this grid"
        )
        self.t = t
        self.fraction = fraction


# ---------------------------------------------------------------------------
# forcing providers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroForcing:
    """f == 0; semiconcavity, the largest eigenvalue of D^2 f, is 0."""

    is_zero = True
    semiconcavity = 0.0

    def value(self, grid: TorusGrid, t: float) -> np.ndarray:
        return np.zeros(grid.shape)


@dataclass(frozen=True)
class ConstantForcing:
    """f == c, constant in space and time; semiconcavity is 0."""

    c: float
    is_zero = False
    semiconcavity = 0.0

    def value(self, grid: TorusGrid, t: float) -> np.ndarray:
        return np.full(grid.shape, self.c, dtype=np.float64)


@dataclass(frozen=True)
class CosWaveForcing:
    """f(x, t) = amp * cos(x_1 - omega t), a travelling forcing wave.

    semiconcavity = |amp| at every t: the largest eigenvalue of D^2 f,
    attained where the cosine is -1.
    """

    amp: float
    omega: float
    is_zero = False

    @property
    def semiconcavity(self) -> float:
        return abs(self.amp)

    def value(self, grid: TorusGrid, t: float) -> np.ndarray:
        return self.amp * np.cos(grid.x1 - self.omega * t)


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
        c_f = getattr(self.forcing, "semiconcavity", None)
        if not (callable(getattr(self.forcing, "value", None)) and isinstance(c_f, numbers.Real) and c_f >= 0.0):
            raise ValueError("forcing must provide value(grid, t) and a real semiconcavity constant >= 0")


@dataclass(frozen=True)
class Trajectory:
    """Snapshots of one solve; the per-snapshot diagnostics are derived from them on first use.

    k_profile[i] is the measured semiconcavity constant of the snapshot:
    the largest centred second difference quotient at the fixed probe
    scale CURVATURE_SCALE = 0.1 (see torus.second_difference_max).  Probing
    at a fixed physical scale keeps the measurement finite and
    grid-independent when fronts sharpen below the grid, which genuinely
    happens for s <= 1/2 where the dissipation cannot spread a front into a
    resolvable layer.
    k_bound[i] is the Riccati comparison bound on k_profile[i]: k(t) solves
    k' = -theta k^2 + c_f, k(0) = k0, where k0 is the largest eigenvalue of
    D^2 u0, theta the convexity lower bound of H and c_f the forcing's
    semiconcavity constant.  For c_f = 0 it is k0 / (1 + theta k0 t).
    grad_sup_profile[i] is the nodal sup of |Du| of the dealiased snapshot.
    grid_schedule lists the grids viscous_solve marched on, one
    (n_points, entry time, steps) per grid; n_steps is their total.
    """

    problem: ProblemSpec
    times: np.ndarray
    snapshots: tuple[Field, ...]
    n_steps: int
    grid_schedule: tuple[tuple[int, float, int], ...] = ()

    @cached_property
    def k_profile(self) -> np.ndarray:
        return np.array([second_difference_max(f, CURVATURE_SCALE) for f in self.snapshots])

    @cached_property
    def k_bound(self) -> np.ndarray:
        problem = self.problem
        k0 = hessian_max_eig(problem.u0)
        return _riccati_bound(self.times, k0, problem.hamiltonian.theta, problem.forcing.semiconcavity)

    @cached_property
    def grad_sup_profile(self) -> np.ndarray:
        sp = self.problem.grid.spectral
        return np.array([math.sqrt(float(np.max(sum(g * g for g in sp.gradient(sp.fwd(f.values))))))
                         for f in self.snapshots])


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
    """Sorted distinct snapshot times in [0, T]; times up to T (1 + 1e-12) are clamped to T before the repeats go."""
    times = np.asarray([float(t) for t in snapshot_times])
    if times.size == 0:
        raise ValueError("snapshot_times must be non-empty")
    if not 0.0 <= times.min() <= times.max() <= T * (1.0 + 1e-12):  # false for a NaN time too
        raise ValueError(f"snapshot times must lie in [0, {T}]")
    return np.asarray(sorted(set(np.minimum(times, T).tolist())))  # np.unique would import numpy.ma


# ---------------------------------------------------------------------------
# viscous pseudospectral solver
# ---------------------------------------------------------------------------


def _band_check(sp, n: int):
    """Whether contiguous coefficients on sp's grid hold more than PROMOTE_TOL of their Parseval energy
    at |k| >= 0.3 k_c, k_c = n // 3: the damping band of the grid with n points per axis."""
    edge = 0.3 * (n // 3)
    w = np.repeat((sp.parseval_w * ((sp.k2 >= edge * edge) - PROMOTE_TOL)).ravel(), 2)  # per float of the view
    return lambda coeff: float(np.dot(coeff.reshape(-1).view(np.float64) ** 2, w)) > 0.0


def viscous_solve(
    problem: ProblemSpec | ProblemBatch,
    snapshot_times: Sequence[float],
    dt_cfl: float = DT_CFL_MAX,
) -> Trajectory | TrajectoryBatch:
    """Integrate the viscous problem with ETDRK4 (torus.etdrk4_march), coarse to fine.

    The time step adapts as dt = dt_cfl * h / max(1, sup |D_p H(Du)|), h
    the spacing of the grid marched on; the speed is rounded up onto a
    geometric ladder so dt, and with it the step's ETDRK4 weights, changes
    only when the speed estimate moves.  Snapshot times are landed on
    exactly.  Raises BlowUpError when the iterate exceeds 1e6 in sup norm or
    becomes non-finite, TailGuardError when more than 1e-6 of the datum's
    spectral energy on problem.grid sits beyond its 2/3 cutoff (see
    TailGuardError).

    Above GRID_MIN points per axis a member marches on GRID_MIN, 2 GRID_MIN,
    ... up to problem.grid, its final grid.  It starts on the coarsest whose
    damping band |k| >= 0.3 k_c holds at most PROMOTE_TOL of its datum's
    energy, and doubles its grid (torus.prolong) before the first step that
    finds more there.  Snapshots are prolongated to problem.grid, and
    Trajectory.grid_schedule records the grids.

    A ProblemBatch is marched in one lockstep batch per grid, so
    each FFT and Hamiltonian evaluation serves every member marching there.
    The TrajectoryBatch returned holds, per member, the Trajectory or the
    guard error that viscous_solve gives for that member alone, bitwise.

    The exactly integrated linear part includes the smooth near-cutoff
    damping RealSpectral.damping.  It is essential for weak high-frequency
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
    if not 0.0 < dt_cfl <= DT_CFL_MAX:
        raise ValueError(f"dt_cfl must lie in (0, DT_CFL_MAX = {DT_CFL_MAX:.6g}], got {dt_cfl}")
    final = batch.grid
    ham = batch[0].hamiltonian
    forcing = batch[0].forcing
    times = clean_snapshot_times(snapshot_times, batch[0].T)
    fsp = final.spectral
    sizes = [final.n_points]  # the grids a member may march on, coarsest first
    while sizes[0] > GRID_MIN:
        sizes.insert(0, sizes[0] // 2)

    # per grid, the members that march on it: (member, start time, rfft coefficients on that grid)
    entries = [[] for _ in sizes]
    for i, p in enumerate(batch):
        y0 = fsp.fwd(p.u0.values)
        j = next((j for j, n in enumerate(sizes[:-1]) if not _band_check(fsp, n)(y0)), len(sizes) - 1)
        coarse = subsample(p.u0, final.n_points // sizes[j])
        entries[j].append((i, 0.0, coarse.grid.spectral.fwd(coarse.values)))
    snaps = [[] for _ in batch]  # per member
    schedule = [[] for _ in batch]
    failed: dict[int, RuntimeError] = {}

    def march(grid: TorusGrid, here: list, promoted: list | None) -> None:
        """March the members here on grid; those that outgrow it join promoted on the next grid."""
        sp = grid.spectral
        h = grid.spacing
        ids_here = [i for i, _, _ in here]
        over = None if promoted is None else _band_check(sp, grid.n_points)

        # the nonlinear term's buffers, one row per member; du[:, :m] is the
        # dealiased gradient Du of the first m rows
        du = np.empty((grid.dim, len(here)) + grid.shape)
        dh = np.empty((len(here),) + sp.k2.shape, dtype=np.complex128)
        nl = np.empty((len(here),) + grid.shape)

        # by m: per component its multiplier i k_j and row block of du, Du with the component
        # axis last as H.value takes it, and the buffers of the first m rows
        rows = [(list(zip(sp.ik, du[:, :m])), np.moveaxis(du[:, :m], 0, -1), dh[:m], nl[:m])
                for m in range(len(here) + 1)]
        forced = not getattr(forcing, "is_zero", False)

        def nonlinear(uh: np.ndarray, ids: list[int], ts: list[float], out: np.ndarray) -> None:
            """Dealiased transform of H(Du) - f into out, Du left in du: RealSpectral.gradient, fwd, truncate inline."""
            comps, p, w, v = rows[len(uh)]
            for ik, g in comps:
                np.fft.irfftn(np.multiply(ik, uh, out=w), s=sp.shape, axes=sp.axes, out=g)
            ham.value(p, out=v)
            if forced:
                for vr, t in zip(v, ts):
                    np.subtract(vr, forcing.value(grid, t), out=vr)
            np.fft.rfftn(v, s=sp.shape, axes=sp.axes, out=out)
            for sl in sp.tail:
                out[sl] = 0.0

        def dt_rule(ids: list[int]) -> list[float]:
            comps, _, _, v = rows[len(ids)]
            np.multiply(comps[0][1], comps[0][1], out=v)  # |Du|^2
            for _, gj in comps[1:]:
                np.add(v, gj * gj, out=v)
            sq = np.maximum.reduce(v.reshape(len(ids), -1), axis=1).tolist()
            return [dt_cfl * h / _quantize_speed(ham.grad_sup(math.sqrt(q))) for q in sq]

        def land(r: int, uh: np.ndarray, t: float) -> bool:
            i = ids_here[r]
            if grid != final:
                uh = prolong(uh, grid, final.n_points // grid.n_points)
            vals = fsp.inv(uh)
            sup = float(np.max(np.abs(vals)))
            if not np.isfinite(sup) or sup > 1e6:
                failed[i] = BlowUpError(t, f"sup|u| = {sup:.3e}")
                return False
            frac = fsp.tail_fraction(uh)
            if frac > 1e-6:
                failed[i] = TailGuardError(t, frac)
                return False
            snaps[i].append(Field(final, vals))
            return True

        def leave(r: int, uh: np.ndarray, t: float) -> bool:
            if not over(uh):
                return False
            promoted.append((ids_here[r], t, prolong(uh, grid, 2)))
            return True

        def nonfinite(r: int, t: float) -> None:
            failed[ids_here[r]] = BlowUpError(t, "non-finite spectral coefficients")

        steps = etdrk4_march(
            grid, [(batch[i].epsilon, batch[i].s) for i in ids_here], np.stack([c for _, _, c in here]), nonlinear,
            dt_rule=dt_rule, landings=times, t_ref=max(batch[0].T, 1.0), t0=[t for _, t, _ in here],
            land=land, nonfinite=nonfinite, leave=None if promoted is None else leave,
        )
        for (i, t, _), n_steps in zip(here, steps):
            schedule[i].append((grid.n_points, float(t), n_steps))

    for j, n in enumerate(sizes):  # each grid, with its buffers, goes before the next grid's come
        if entries[j]:
            grid = final if n == final.n_points else TorusGrid(final.dim, n)
            march(grid, entries[j], entries[j + 1] if j + 1 < len(sizes) else None)
    out = TrajectoryBatch(
        failed[i] if i in failed else Trajectory(p, times, tuple(snaps[i]), sum(st for _, _, st in schedule[i]),
                                                 tuple(schedule[i]))
        for i, p in enumerate(batch)
    )
    if single and isinstance(out[0], Exception):
        raise out[0]
    return out[0] if single else out


# ---------------------------------------------------------------------------
# Hopf-Lax oracle (eps = 0, f = 0, convex H)
# ---------------------------------------------------------------------------


@np.errstate(divide="ignore", invalid="ignore")  # an entry with f'' <= 0 bisects instead of its Newton step
def _newton_polish(derivs, d: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Minimize per entry inside a bracket [lo, hi] across which f' goes from < 0 to >= 0; derivs(sub, x) gives
    f, f', f'' of the entries at positions sub.  Newton steps on f' = 0 that leave the narrowing bracket, or meet
    f'' <= 0, bisect it; an entry stops at f' = 0 or a Newton step of at most 1e-12.  Returns f at the last d."""
    val, sub = np.empty_like(d), np.arange(len(d))
    for _ in range(100):
        if not len(sub):
            break
        f, fp, fpp = derivs(sub, d)
        val[sub] = f
        lo, hi = np.where(fp < 0.0, d, lo), np.where(fp > 0.0, d, hi)
        step = d - fp / fpp
        go = (fp != 0.0) & ~((fpp > 0.0) & (np.abs(step - d) <= 1e-12))
        step = np.where((fpp > 0.0) & (lo < step) & (step < hi), step, 0.5 * (lo + hi))
        sub, d, lo, hi = sub[go], step[go], lo[go], hi[go]
    return val


def _hopf_lax_1d(kvecs, cvals, x, ham: HamiltonianSpec, ts, kmax: float, gsup: float) -> np.ndarray:
    """min_d [ u0(x - d) + t L(d / t) ] per (t, x) in 1-D, shape (len(ts), len(x)): u0 the mode table (kvecs (m, 1),
    cvals) with sup |u0'| = gsup and no significant mode past kmax >= 1, x the nodes (n, 1), every t > 0."""
    delta = math.pi / (4.0 * kmax)
    # the sorted lattice delta j; each time reads the 2 reach + 1 points within its radius
    reach = np.ceil((ts * ham.grad_sup(gsup) + TWO_PI) / delta).astype(int)
    top = int(reach.max())
    lattice = delta * np.arange(-top, top + 1)
    # per time: its lattice window, L and L' there, and the sampling bound sup f'' delta^2 / 8 with L'' <= 1 / theta
    wins = [slice(top - r, top + r + 1) for r in reach]
    qs = [lattice[w, None] / tk for w, tk in zip(wins, ts)]
    lags = [(legendre_batch(ham, q), legendre_momentum(ham, q)[:, 0]) for q in qs]
    bound = (np.sum(np.abs(cvals) * kvecs[:, 0] ** 2) + 1.0 / (ham.theta * ts)) * delta**2 / 8.0
    w = cvals[:, None] * np.stack([np.ones(len(kvecs)), 1j * kvecs[:, 0], -kvecs[:, 0] ** 2], axis=-1)

    # every lattice interval across which f' = L'(d / t) - u0'(x - d) goes from < 0 to >= 0 and whose lower end
    # value lies within the bound of the best lattice value: its (t, x) entry, time-major, left end and regula falsi
    # start.  f dips below the lower end value of an interval by at most b, so the minimum's interval is among them.
    found = []
    chunk = max(1, 2**19 // (len(lattice) * len(kvecs)))  # eval_modes holds (table entries, modes) temporaries
    for i0 in range(0, len(x), chunk):
        table = eval_modes(kvecs, w[:, :2], x[i0 : i0 + chunk, None, :] - lattice[None, :, None])
        for k, (tk, win, (lk, pk), b) in enumerate(zip(ts, wins, lags, bound)):
            f, fp = table[:, win, 0] + tk * lk, pk - table[:, win, 1]
            near = np.minimum(f[:, :-1], f[:, 1:]) <= np.min(f, axis=1, keepdims=True) + b
            i, j = np.nonzero((fp[:, :-1] < 0.0) & (fp[:, 1:] >= 0.0) & near)
            lo, a, c = lattice[win][j], fp[i, j], fp[i, j + 1]
            found.append((k * len(x) + i0 + i, lo, lo - delta * a / (c - a)))
    rows, lo, start = (np.concatenate(v) for v in zip(*found))
    if np.any(np.bincount(rows, minlength=len(ts) * len(x)) == 0):
        raise RuntimeError("Hopf-Lax oracle: a (t, x) entry has no sign-change bracket on its lattice")
    xs, tt = x[rows % len(x), 0], ts[rows // len(x)]

    def derivs(sub: np.ndarray, d: np.ndarray):  # the objective and its first two derivatives in d
        u, du, ddu = eval_modes(kvecs, w, (xs[sub] - d)[:, None]).T
        tr, q = tt[sub], d / tt[sub]
        p = legendre_momentum(ham, q[:, None])
        return u + tr * (p[:, 0] * q - ham.value(p)), p[:, 0] - du, ddu + 1.0 / (tr * ham.hess_diag(p)[:, 0])

    vals = np.full(len(ts) * len(x), np.inf)
    for b in range(0, len(rows), 4096):  # blocks of 4096 brackets keep the polish's temporaries near 1 MB
        blk = np.arange(b, min(b + 4096, len(rows)))
        np.minimum.at(vals, rows[blk], _newton_polish(lambda sub, d: derivs(blk[sub], d), start[blk], lo[blk],
                                                      lo[blk] + delta))
    return vals.reshape(len(ts), len(x))


def hopf_lax_oracle(problem: ProblemSpec, times: Sequence[float]) -> tuple[Field, ...]:
    """Inviscid solution u(x, t) = min_y [ u0(y) + t L((x - y)/t) ] on the problem grid, one Field per time.

    One minimization over every (t, x) serves every time.  Every Hamiltonian is a sum of one-axis terms, so for u0 a
    sum of one-axis functions the minimum is a sum of 1-D minima: u0's modes are split by axis, the constant one to
    axis 0, and each part is minimized under its axis's one-component Hamiltonian (HamiltonianSpec.axis).  In 1-D one
    table of u0(x - d) and u0'(x - d) over the sorted lattice of offsets d = delta j, delta = pi / (4 k_max), serves
    every time within its radius t sup|H'(u0')| + 2pi (every candidate minimizer plus one period).  Every lattice
    interval across which the derivative of f(d) = u0(x - d) + t L(d / t) goes from < 0 to >= 0, and whose lower end
    value lies within the sampling bound (sup|u0''| + 1/(theta t)) delta^2 / 8 of the best lattice value, is
    polished by safeguarded Newton (_newton_polish, to 1e-12 in d), and each (t, x) takes its least polished value,
    so no basin that may hold the minimum goes unrefined; an entry without such a bracket raises RuntimeError.
    Requires f == 0 and no mode of u0 off the axes (ValueError); at t = 0 and for H = 0 the solution is u0, for any
    datum.
    """
    from fracvisc.torus import spectral_gradient  # looked up per call: perfbench/tracer.py patches it on torus

    if not getattr(problem.forcing, "is_zero", False):
        raise ValueError("hopf_lax_oracle requires zero forcing")
    grid, ham = problem.grid, problem.hamiltonian
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1 or np.any(times < 0.0):
        raise ValueError("times must be a sequence of times >= 0")
    kvecs, cvals = mode_table(problem.u0, 1e-14)
    out = [eval_modes(kvecs, cvals, np.stack(grid.nodes(), axis=-1))] * len(times)
    live = np.flatnonzero(times > 0.0) if not ham.is_zero else []
    if len(live):
        if np.any(np.count_nonzero(kvecs, axis=1) > 1):
            raise ValueError("hopf_lax_oracle needs separable data: u0 must be a sum of one-axis functions")
        amp = np.abs(grid.spectral.fwd(problem.u0.values))
        sig, axis_of = amp > 1e-12 * np.max(amp), np.argmax(kvecs != 0.0, axis=1)
        total = np.zeros((len(live),) + grid.shape)
        for a, g in enumerate(spectral_gradient(problem.u0)):  # an axis without modes adds 0, as H(0) = L(0) = 0
            if np.any(axis_of == a):
                kmax = max(1.0, float(np.max(np.abs(grid.spectral.k[a]), where=sig, initial=0.0)))
                part = _hopf_lax_1d(kvecs[axis_of == a][:, [a]], cvals[axis_of == a], grid.axis_coords[:, None],
                                    ham.axis(a), times[live], kmax, float(np.sqrt(np.max(g.values**2))))
                total += part.reshape((len(live),) + tuple(grid.n_points if j == a else 1 for j in range(grid.dim)))
        for i, v in zip(live, total):
            out[i] = v
    return tuple(Field(grid, v) for v in out)


# ---------------------------------------------------------------------------
# monotone (Lax-Friedrichs) reference scheme
# ---------------------------------------------------------------------------


def monotone_reference(problem: ProblemSpec, fine_factor: int, snapshot_times: Sequence[float]) -> Trajectory:
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
        return np.stack(comps, axis=-1)

    snaps: list[Field] = []
    n_steps = 0
    t = 0.0
    tref = max(problem.T, 1.0)

    for target in times:
        while t < target - 1e-13 * tref:
            p = central_gradient(u)
            gsup = float(np.sqrt(np.max(np.sum(p**2, axis=-1))))
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
        snaps.append(subsample(Field(fgrid, u), fine_factor))

    return Trajectory(problem=problem, times=times, snapshots=tuple(snaps), n_steps=n_steps)


# ---------------------------------------------------------------------------
# the Riccati comparison bound of Trajectory.k_bound
# ---------------------------------------------------------------------------


def _riccati_bound(times: np.ndarray, k0: float, theta: float, c: float) -> np.ndarray:
    """Closed-form k(t) for k' = -theta k^2 + c, k(0) = k0, with theta, c >= 0.

    With z = sqrt(c theta) t and phi = tanh(z) / z (1 at z = 0) it is
    (k0 + c t phi) / (1 + theta k0 t phi): bitwise k0 / (1 + theta k0 t) for
    c = 0 and k0 + c t for theta = 0, otherwise r (k0 + r tanh(theta r t)) /
    (r + k0 tanh(theta r t)) with r = sqrt(c / theta), without its overflow
    as theta -> 0.
    """
    z = math.sqrt(c * theta) * times
    phi = np.ones_like(z)
    np.divide(np.tanh(z), z, out=phi, where=z > 0.0)
    denom = 1.0 + theta * k0 * times * phi
    if np.any(denom <= 0.0):
        raise ValueError("Riccati bound blows up inside the requested window")
    return (k0 + c * times * phi) / denom
