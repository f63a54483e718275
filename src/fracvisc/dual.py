"""Backward nonlocal transport equations dual to differences of solutions.

Given two viscous solutions u_eps, u_eta of the same Hamilton-Jacobi
problem, their difference w = u_eps - u_eta satisfies a linear transport
equation whose formal adjoint, posed backward from a terminal datum
rho(tau) = alpha >= 0, reads (in the forward time variable t)

    -d_t rho + eta (-Delta)^s rho + div(b rho) = 0,
    b(x, t) = -int_0^1 D_p H( zeta Du_eps + (1 - zeta) Du_eta ) dzeta.

Pairing rho against w yields the exact identity

    int w(tau) rho(tau) dx
        = int w(0) rho(0) dx
          + (eps - eta) int_0^tau int [ -(-Delta)^s u_eps ] rho dx dt,

which this module verifies numerically (duality_residual), together with
the L^q Gronwall bound driven by the negative part of div b
(gronwall_check).  The dual diffusion order s is inherited from the two
forward trajectories, which must share it.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import zip_longest

import numpy as np

from fracvisc.hj import DT_CFL_MAX, Trajectory
from fracvisc.torus import Field, TorusGrid, frac_laplacian, etdrk4_march, lp_norm

__all__ = [
    "DriftField",
    "DualSolution",
    "DualBatch",
    "build_drift",
    "dual_solve",
    "GronwallReport",
    "gronwall_check",
    "duality_residual",
    "lp_dual_datum",
    "GRONWALL_RATIO_MAX",
    "DUALITY_RESIDUAL_MAX",
]

GRONWALL_RATIO_MAX = 1.01  # a Gronwall ratio passes up to 1% quadrature slack
DUALITY_RESIDUAL_MAX = 0.02  # the largest duality-identity residual a dual-check accepts

@dataclass(frozen=True)
class DriftField:
    """Sampled drift b(x, t) with spectral divergence diagnostics.

    values has shape (n_times, *grid.shape, dim); div_values has shape
    (n_times, *grid.shape).  div_minus_sup[i] = sup_x max(0, -div b(x, t_i))
    is the Gronwall rate at time t_i.  s is the fractional order shared by
    the generating trajectories (the dual diffusion order).
    """

    grid: TorusGrid
    times: np.ndarray
    values: np.ndarray
    div_values: np.ndarray
    s: float

    @property
    def sup_speed(self) -> float:
        return float(np.sqrt(np.max(np.sum(self.values**2, axis=-1))))

    @property
    def div_minus_sup(self) -> np.ndarray:
        return np.maximum(0.0, -self.div_values).max(axis=tuple(range(1, self.div_values.ndim)))

    def interpolate(self, t: float, out: np.ndarray | None = None, work: np.ndarray | None = None) -> np.ndarray:
        """Drift values at time t, linear interpolation between samples.

        The result is written to out; out and work are shaped like one
        sample and allocated when not given.
        """
        out = np.empty(self.values.shape[1:]) if out is None else out
        times = self.times
        if t <= times[0] or t >= times[-1]:
            np.copyto(out, self.values[0 if t <= times[0] else -1])
            return out
        i = int(np.searchsorted(times, t) - 1)
        lam = (t - times[i]) / (times[i + 1] - times[i])
        work = np.empty_like(out) if work is None else work
        np.multiply(1.0 - lam, self.values[i], out=out)
        return np.add(out, np.multiply(lam, self.values[i + 1], out=work), out=out)


def build_drift(
    traj_eps: Trajectory,
    traj_eta: Trajectory,
    mollify_scale: float = 0.05,
) -> DriftField:
    """Assemble b = -int_0^1 D_p H(zeta Du_eps + (1-zeta) Du_eta) dzeta.

    The zeta integral uses 8-point Gauss-Legendre quadrature, which is
    exact without cosh terms (the integrand is then linear in zeta) and
    spectrally accurate otherwise.
    Gradients are spectral and 2/3-dealiased, matching the solver; the
    divergence is the dealiased spectral divergence of the sampled drift.

    mollify_scale > 0 convolves each drift component with a Gaussian of
    that physical width (spectral factor exp(-(|k| scale)^2 / 2)) before
    sampling, and the divergence is taken of the mollified field.  This is
    the right setting once the underlying solutions carry fronts near the
    grid scale: the raw gradient then oscillates at the front and its raw
    divergence acquires O(1/h) artefacts of both signs, which would make
    every divergence-based bound vacuous.  The dual problem is posed and
    solved with the mollified drift, so bounds and transport stay mutually
    consistent; the mollification cost enters only the duality identity,
    whose residual is measured rather than assumed.  The 0.05 default sits
    on a wide plateau (0.02 to 0.1 give identical bound integrals on the
    quadratic benchmark) and keeps the measured identity residual below
    a few parts in ten thousand; pass 0.0 to sample the drift exactly.
    """
    if mollify_scale < 0.0:
        raise ValueError(f"mollify_scale must be >= 0, got {mollify_scale}")
    pa, pb = traj_eps.problem, traj_eta.problem
    if pa.grid != pb.grid:
        raise ValueError("trajectories live on different grids")
    if pa.hamiltonian != pb.hamiltonian:
        raise ValueError("trajectories use different Hamiltonians")
    if pa.s != pb.s:
        raise ValueError("trajectories use different fractional orders")
    if pa.forcing != pb.forcing:
        raise ValueError("trajectories use different forcings")
    if not np.array_equal(traj_eps.times, traj_eta.times):
        raise ValueError("trajectories must share snapshot times")
    grid = pa.grid
    ham = pa.hamiltonian
    sp = grid.spectral
    nodes, weights = np.polynomial.legendre.leggauss(8)
    zetas = 0.5 * (nodes + 1.0)
    wts = 0.5 * weights

    moll = None
    if mollify_scale > 0.0:
        moll = np.exp(-0.5 * sp.k2 * mollify_scale * mollify_scale)

    n_t = traj_eps.times.size
    values = np.empty((n_t,) + grid.shape + (grid.dim,))
    div_values = np.empty((n_t,) + grid.shape)
    for i in range(n_t):
        ga, gb = (np.moveaxis(sp.gradient(sp.fwd(tr.snapshots[i].values)), 0, -1)
                  for tr in (traj_eps, traj_eta))
        b = np.zeros(grid.shape + (grid.dim,))
        for z, w in zip(zetas, wts):
            b -= w * ham.grad(z * ga + (1.0 - z) * gb)
        div = np.zeros(grid.shape)
        for ax in range(grid.dim):
            bh = sp.fwd(b[..., ax])
            sp.truncate(bh)
            if moll is not None:
                bh *= moll
                values[i, ..., ax] = sp.inv(bh)
            else:
                values[i, ..., ax] = b[..., ax]
            div += sp.inv(sp.ik[ax] * bh)
        div_values[i] = div
    return DriftField(
        grid=grid,
        times=traj_eps.times.copy(),
        values=values,
        div_values=div_values,
        s=pa.s,
    )


@dataclass(frozen=True)
class DualSolution:
    """Backward transport solution rho(t), rho(tau) = alpha.

    times are the drift's own sample times up to tau, then tau unless it is
    a sample: snapshots[i] is rho(times[i]), and snapshots[-1] is rho(tau).
    """

    grid: TorusGrid
    eta: float
    s: float
    times: np.ndarray
    snapshots: tuple[Field, ...]
    alpha: Field
    min_value: float
    mass_drift: float
    n_steps: int


class DualBatch(tuple):
    """The DualSolutions of one dual_solve call, in datum order."""

    n_steps: int  # each distinct (drift, eta) group's steps once: the sum of one solve per group


def dual_solve(
    drifts: Sequence[DriftField],
    etas: Sequence[float],
    data: Sequence[Field],
    tau: float,
    dt_cfl: float = DT_CFL_MAX,
) -> DualBatch:
    """Integrate the backward dual equation with ETDRK4 (torus.etdrk4_march).

    In the reversed time sigma = tau - t the equation becomes

        d_sigma rho + eta (-Delta)^s rho + div( b(., tau - sigma) rho ) = 0,

    with the fractional order s taken from the drift (drift.s, shared by
    the forward trajectories), marched from rho(sigma = 0) = alpha.  The drift is linearly interpolated
    in time between its samples; products b rho are formed nodally from
    dealiased factors and the flux divergence is dealiased again.  Mass is
    conserved exactly at the spectral origin; small negative undershoots of
    rho are kept (not clipped) and reported through min_value.  The exact
    linear part includes the same smooth near-cutoff damping as the forward
    solver (see viscous_solve); it does not touch the k = 0 mode, so mass
    conservation is unaffected.  Snapshots land on the drift's sample times
    in [0, tau], and on tau, and carry those times exactly; a tau within
    1e-12 (relative) of a sample is that sample.

    Row i of the DualBatch returned solves drifts[i] with diffusion etas[i]
    from the terminal datum data[i]; the drifts live on one grid and share
    their sample times.  All rows march in one torus.etdrk4_march call: each
    (drift, eta) group keeps its own step, interpolates its drift once per
    stage time and forms its flux once per contiguous block of its rows,
    and each row's numbers are bitwise those of its group's own solve.
    """
    drifts, etas, alphas = tuple(drifts), tuple(etas), tuple(data)
    if not alphas:
        raise ValueError("dual_solve needs at least one terminal datum")
    if not len(drifts) == len(etas) == len(alphas):
        raise ValueError("dual_solve needs one drift and one eta per terminal datum")
    if not min(etas) >= 0.0:
        raise ValueError(f"eta must be >= 0, got {min(etas)}")
    if not 0.0 < dt_cfl <= DT_CFL_MAX:
        raise ValueError(f"dt_cfl must lie in (0, DT_CFL_MAX = {DT_CFL_MAX:.6g}], got {dt_cfl}")
    grid, dtimes = drifts[0].grid, drifts[0].times
    if any(d.grid != grid or not np.array_equal(d.times, dtimes) for d in drifts):
        raise ValueError("the drifts must share one grid and their sample times")
    if any(a.grid != grid for a in alphas):
        raise ValueError("alpha lives on a different grid than the drift")
    if not (0.0 < tau <= dtimes[-1] * (1.0 + 1e-12)):
        raise ValueError(f"tau must lie in (0, {dtimes[-1]}], got {tau}")
    tsnap = dtimes[dtimes <= tau * (1.0 + 1e-12)]
    tsnap = np.append(tsnap, tau) if tsnap[-1] < tau * (1.0 - 1e-12) else tsnap
    tau = float(tsnap[-1])
    sigmas = tau - tsnap[::-1]  # reversed-time landing points, ascending: landing k is tsnap[-1 - k]

    sp = grid.spectral
    # datum i belongs to the (drift, eta) group named by its first datum
    # group[i]; per group: its step, and its drift at its last stage time
    keys = [(id(d), e) for d, e in zip(drifts, etas)]
    group = [keys.index(k) for k in keys]
    dt0 = {g: dt_cfl * grid.spacing / max(1.0, drifts[g].sup_speed) for g in group}
    b = {g: np.empty(grid.shape + (grid.dim,)) for g in dt0}
    b_sigma = dict.fromkeys(dt0)

    def lost(sigma: float) -> RuntimeError:
        return RuntimeError(f"dual solve lost finiteness at sigma={sigma:.6g}")

    def nonfinite(i: int, sigma: float) -> None:
        raise lost(sigma)

    # the nonlinear term's buffers: the dealiased rho of every row in both
    # spaces, each flux component of every row; a group's rows share their
    # time and stay contiguous, since rows keep their order as others leave
    rh_d = np.empty((len(alphas),) + sp.k2.shape, dtype=np.complex128)
    rho = np.empty((len(alphas),) + grid.shape)
    b_work = np.empty(grid.shape + (grid.dim,))
    flux = np.empty((grid.dim,) + rho.shape)
    fh = np.empty_like(rh_d)

    def nonlinear(rh: np.ndarray, ids: list[int], ts: list[float], nh: np.ndarray) -> None:
        """div(b rho) of the dealiased rho into nh, dealiased because ik is."""
        m = len(ids)
        np.copyto(rh_d[:m], rh)
        sp.truncate(rh_d[:m])
        sp.inv(rh_d[:m], out=rho[:m])
        starts = [r for r in range(m) if not r or group[ids[r]] != group[ids[r - 1]]]
        for r0, r1 in zip(starts, starts[1:] + [m]):  # a block of one group's rows
            g = group[ids[r0]]
            if ts[r0] != b_sigma[g]:
                drifts[g].interpolate(tau - ts[r0], out=b[g], work=b_work)
                b_sigma[g] = ts[r0]
            for ax in range(grid.dim):
                np.multiply(b[g][..., ax], rho[r0:r1], out=flux[ax, r0:r1])
        for ax, ik in enumerate(sp.ik):
            dst = fh[:m] if ax else nh
            np.multiply(ik, sp.fwd(flux[ax, :m], out=dst), out=dst)
            if ax:
                np.add(nh, dst, out=nh)

    landed = [[] for _ in alphas]  # per row, its snapshots in landing order: tsnap descending

    def land(i: int, rh: np.ndarray, sigma: float) -> bool:
        vals = sp.inv(rh)
        if not np.all(np.isfinite(vals)):
            raise lost(sigma)
        landed[i].append(Field(grid, vals))
        return True

    rh = sp.fwd(np.stack([a.values for a in alphas]))
    masses0 = [float(r.flat[0].real) / grid.n_total for r in rh]
    steps = etdrk4_march(
        grid, [(e, d.s) for d, e in zip(drifts, etas)], rh, nonlinear, landings=sigmas, t_ref=max(tau, 1.0),
        dt_rule=lambda ids: [dt0[group[i]] for i in ids], land=land, nonfinite=nonfinite,
    )

    solutions = []
    for i, (a, mass0) in enumerate(zip(alphas, masses0)):
        snapshots = tuple(reversed(landed[i]))
        min_value = min(float(np.min(a.values)), *(float(np.min(f.values)) for f in snapshots))
        mass_end = float(sp.fwd(snapshots[0].values).flat[0].real) / grid.n_total
        mass_drift = abs(mass_end - mass0) / max(abs(mass0), 1e-300)
        if mass_drift > 1e-12:
            raise RuntimeError(f"dual solve lost mass: relative drift {mass_drift:.3e}")
        solutions.append(DualSolution(
            grid=grid, eta=etas[i], s=drifts[i].s, times=tsnap, snapshots=snapshots, alpha=a,
            min_value=min_value, mass_drift=mass_drift, n_steps=steps[i],
        ))
    batch = DualBatch(solutions)
    batch.n_steps = sum(steps[g] for g in dt0)
    return batch


@dataclass(frozen=True)
class GronwallReport:
    """Measured L^q growth of the dual solution against the Gronwall bound.

    For each stored time t the bound reads

        ||rho(t)||_q^q <= exp( (q-1) int_t^tau ||[div b]^-||_inf dr ) ||alpha||_q^q.

    norms_q[i] = ||rho(t_i)||_q and bounds_q[i] = exp( (q-1)/q int ) ||alpha||_q
    hold both sides in norm units, so neither under- nor overflows at large
    q; ratio[i] = (norms_q[i] / bounds_q[i])^q is the measured side over the
    bound.  The estimate holds when max_ratio <= 1 (up to quadrature slack);
    it is 1 at tau, where rho = alpha, so the solution sets
    max_ratio_before_tau, the largest ratio over t < tau (NaN without such
    a time).  growth_factor = sup_t ||rho(t)||_q / ||alpha||_q is the
    constant whose eta-independence the theory asserts.
    """

    q: float
    times: np.ndarray
    norms_q: np.ndarray
    bounds_q: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    max_ratio_before_tau: float
    growth_factor: float

    def ok(self) -> bool:
        return bool(self.max_ratio <= GRONWALL_RATIO_MAX)


def gronwall_check(dual: DualSolution, drift: DriftField, q: float) -> GronwallReport:
    """Evaluate the L^q Gronwall inequality along a dual trajectory.

    The rate integral from t_i to tau is the trapezoid over the dual's own
    times from t_i on: the drift's samples, then tau.
    """
    if q <= 1.0:
        raise ValueError(f"q must exceed 1, got {q}")
    times = dual.times
    rate = np.interp(times, drift.times, drift.div_minus_sup)
    alpha_q = lp_norm(dual.alpha, q)
    norms = np.array([lp_norm(f, q) for f in dual.snapshots])
    bounds = np.array([math.exp((q - 1.0) / q * float(np.trapezoid(rate[i:], times[i:]))) * alpha_q
                       for i in range(times.size)])
    ratios = (norms / np.maximum(bounds, 1e-300)) ** q
    before = ratios[:-1]  # the last time is tau
    return GronwallReport(
        q=q,
        times=times.copy(),
        norms_q=norms,
        bounds_q=bounds,
        ratios=ratios,
        max_ratio=float(np.max(ratios)),
        max_ratio_before_tau=float(np.max(before)) if before.size else math.nan,
        growth_factor=float(np.max(norms) / max(alpha_q, 1e-300)),
    )


def duality_residual(dual: DualSolution, traj_eps: Trajectory, traj_eta: Trajectory) -> float:
    """Relative defect of the duality identity along stored snapshots.

    Evaluates | I_tau - I_0 - (eps - eta) J | / (|I_tau| + 1e-14) where
    I_t = int w(t) rho(t) dx with w = u_eps - u_eta, and J is the trapezoid
    (in time) of int [-(-Delta)^s u_eps] rho dx over the dual snapshot
    times.  The dual's times must start at t = 0 and be, exactly, the
    first times of each trajectory (so tau must be one of their times); the
    i-th dual snapshot pairs with the i-th snapshot of each trajectory, and
    a ValueError names the first dual time a trajectory lacks there.
    """
    pa, pb = traj_eps.problem, traj_eta.problem
    if pa.grid != dual.grid or pb.grid != dual.grid:
        raise ValueError("trajectories and dual solution live on different grids")
    if dual.eta != pb.epsilon:
        raise ValueError("dual diffusion eta does not match the second trajectory")
    if pa.s != pb.s or pa.s != dual.s:
        raise ValueError("fractional orders of trajectories and dual solution differ")
    if dual.times[0] != 0.0:
        raise ValueError("dual snapshots must include t = 0")
    n = dual.times.size
    for tr in (traj_eps, traj_eta):
        lacked = [t for t, u in zip_longest(dual.times, tr.times[:n]) if t != u]
        if lacked:
            raise ValueError(f"a trajectory lacks the dual time t={float(lacked[0])!r} at its position; "
                             "its times must begin with the dual's")
    grid = dual.grid
    hvol = grid.spacing**grid.dim
    eps_diff = pa.epsilon - pb.epsilon
    ues, uhs, rhos = traj_eps.snapshots, traj_eta.snapshots, dual.snapshots

    integrand = [float(np.sum(-frac_laplacian(ue, dual.s).values * rho.values)) * hvol
                 for ue, rho in zip(ues, rhos)]
    i_tau, i_zero = (float(np.sum((ues[i].values - uhs[i].values) * rhos[i].values)) * hvol for i in (n - 1, 0))
    j = float(np.trapezoid(integrand, dual.times))
    return abs(i_tau - i_zero - eps_diff * j) / (abs(i_tau) + 1e-14)


def lp_dual_datum(w_tau: Field, p: float, part: str = "positive") -> Field:
    """Terminal dual datum extracting the L^p norm of one sign part of w.

    alpha = (w^+/-)^(p-1) normalized in L^{p'}, so that
    int w(tau) alpha dx = ||w^+/-(tau)||_p.  Raises if the requested sign
    part vanishes identically.
    """
    if p <= 1.0 or math.isinf(p):
        raise ValueError(f"p must be finite and exceed 1, got {p}")
    if part == "positive":
        core = np.maximum(w_tau.values, 0.0)
    elif part == "negative":
        core = np.maximum(-w_tau.values, 0.0)
    else:
        raise ValueError("part must be 'positive' or 'negative'")
    m = float(np.max(core))
    if m <= 0.0:
        raise ValueError(f"the {part} part of w(tau) vanishes; no datum to build")
    alpha = (core / m) ** (p - 1.0)  # scaled by the sup, so the power neither under- nor overflows
    p_conj = p / (p - 1.0)
    alpha_field = Field(w_tau.grid, alpha)
    return Field(w_tau.grid, alpha / lp_norm(alpha_field, p_conj))
