"""Convergence-rate measurement harness.

A sweep solves one Hamilton-Jacobi family over a ladder of viscosities eps
and several fractional orders s, compares each viscous solution against an
inviscid reference (Hopf-Lax for f == 0, monotone finite differences
otherwise), and fits the decay of the L^p errors

    err(s, p, eps) = max over snapshot times of || u_eps(t) - u(t) ||_p

against the models  err = C eps^a  (power)  and  err = C eps |log eps|
(power_log, exponent pinned at one).  Expected exponents, where the theory
pins them down, are:

    s < 1/2          1            (all p, including sup)
    s = 1/2          1            (all p; sup admits the power_log model)
    1/2 < s < 1      1/(2s)       (sup norm)
    s = 1            1/2 + 1/(2p) (finite p),  1/2  (sup)
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from fracvisc.hamiltonians import HamiltonianSpec
from fracvisc.hj import (
    GRID_MIN,
    BlowUpError,
    ProblemBatch,
    ProblemSpec,
    TailGuardError,
    clean_snapshot_times,
    hopf_lax_oracle,
    monotone_reference,
    viscous_solve,
)
from fracvisc.torus import Field, TorusGrid, frac_laplacian, lp_norm, subsample

__all__ = [
    "InitialData",
    "GRID_FACTOR",
    "GRID_MIN",
    "GRID_MAX",
    "PlanError",
    "SweepPlan",
    "check_ladder",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "RateFit",
    "fit_rate",
    "target_exponent",
    "ONE_SIDED_SPREAD_MAX",
    "ONE_SIDED_SLOPE_MIN",
    "FIT_SLACK",
    "one_sided_check",
    "emit_report",
    "fit_entry",
    "format_float",
    "write_json",
]


def format_float(x: float) -> str:
    """Canonical 17-significant-digit scientific notation for data files."""
    return f"{float(x):.16e}"


class PlanError(ValueError):
    """An experiment SweepPlan rejects; field names the plan field at fault."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# initial data presets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InitialData:
    """Grid-independent description of u0, realizable on any resolution.

    kinds:
      cos      cos(x1)                              (dim 1 or 2)
      cos2d    cos(x) + cos(y)                      (dim 2)
      bump     exp(4 (cos(x1) - 1)), a smooth periodic bump
      coeffs   sum_k a_k cos(k x) + b_k sin(k x),   params = (a1, b1, a2, b2, ...)
    """

    kind: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("cos", "cos2d", "bump", "coeffs"):
            raise ValueError(f"unknown initial data {self.kind!r}; use cos, cos2d, bump or coeffs:...")
        if self.kind == "coeffs" and (not self.params or len(self.params) % 2):
            raise ValueError("coeffs initial data needs an even, non-empty parameter list")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))

    def check_dim(self, dim: int) -> None:
        """Raise PlanError on u0 unless this datum can be realized in dim dimensions."""
        if self.kind == "cos2d" and dim != 2:
            raise PlanError("u0", "cos2d requires dim == 2")
        if self.kind == "coeffs" and dim != 1:
            raise PlanError("u0", "coeffs initial data is one-dimensional")

    def build(self, grid: TorusGrid) -> Field:
        self.check_dim(grid.dim)
        x = grid.nodes()
        if self.kind == "cos":
            return Field(grid, np.cos(x[0]))
        if self.kind == "cos2d":
            return Field(grid, np.cos(x[0]) + np.cos(x[1]))
        if self.kind == "bump":
            return Field(grid, np.exp(4.0 * (np.cos(x[0]) - 1.0)))
        vals = np.zeros(grid.shape)
        for i in range(0, len(self.params), 2):
            k = i // 2 + 1
            vals += self.params[i] * np.cos(k * x[0]) + self.params[i + 1] * np.sin(k * x[0])
        return Field(grid, vals)


# ---------------------------------------------------------------------------
# sweep planning
# ---------------------------------------------------------------------------


# The grid rule: the smallest power of two with at least GRID_FACTOR cells
# across one viscous layer width eps^(1/(2s)), clamped to [GRID_MIN, GRID_MAX].
# It gives the cell's final grid: viscous_solve marches from GRID_MIN up to it.
# Calibrated on the quadratic benchmark: the finite-p errors are already
# converged at factor 3 (doubling or octupling the grid moves them by < 1e-4
# relative), the 1024 floor keeps the fixed-scale curvature probe free of
# under-resolution ripples at large s, and past the cap the extra cells only
# sharpen sub-grid front structure that no L^p error with finite p feels.
# The sup norm at s = 1/2 is not grid-converged: doubling the grid moves it
# by about 1% (eps = 2^-8, n 8192 -> 16384: 5.5835e-3 -> 5.5228e-3), which
# the resolution certificate of ROADMAP item 1 is to measure.
GRID_FACTOR, GRID_MAX = 3.0, 16384


def check_ladder(epsilons) -> None:
    """Raise PlanError on epsilons unless the viscosities form a ladder a rate can be fitted on."""
    if len(epsilons) < 5:
        raise PlanError("epsilons", f"need at least 5 viscosities, got {len(epsilons)}")
    if max(epsilons) >= 1.0:  # the eps |log eps| model vanishes at eps = 1
        raise PlanError("epsilons", f"viscosities must lie below 1, got {max(epsilons):g}")
    if max(epsilons) / min(epsilons) < 16.0 * (1.0 - 1e-12):
        raise PlanError("epsilons", "viscosities must span at least four octaves")


@dataclass(frozen=True)
class SweepPlan:
    """Full description of one experiment: the problem family, its orders, viscosities and norms.

    Every field is given: the default experiment is parse_config's, of an
    empty config.  Construction checks every field and raises PlanError naming
    the first one at fault; check_sweep adds the checks that only a sweep needs.
    """

    dim: int
    s_values: tuple[float, ...]
    epsilons: tuple[float, ...]
    p_values: tuple[float, ...]
    hamiltonian: HamiltonianSpec
    u0: InitialData
    forcing: object
    T: float
    snapshot_times: tuple[float, ...]
    reference: str
    fine_factor: int
    n_points: int | None

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise PlanError("dim", f"dim must be 1 or 2, got {self.dim}")
        if self.n_points is not None and (self.n_points < 8 or self.n_points & (self.n_points - 1)):
            raise PlanError("n_points", f"explicit n_points must be a power of two >= 8, got {self.n_points}")
        for name, what, rule, ok in (("s_values", "s values", "must lie in (0, 1]", lambda v: 0.0 < v <= 1.0),
                                     ("epsilons", "viscosities", "must be positive", lambda v: v > 0.0),
                                     ("p_values", "p values", "must satisfy p >= 1", lambda v: v >= 1.0)):
            vals = tuple(float(v) for v in getattr(self, name))
            if not vals or not all(map(ok, vals)):
                raise PlanError(name, f"{what} {rule}")
            if len({f"{v:g}" for v in vals}) < len(vals):  # report.json keys its cells and fits by these %g labels
                raise PlanError(name, f"{what} must not repeat, nor print alike under %g, got {vals}")
            object.__setattr__(self, name, tuple(sorted(vals, reverse=name == "epsilons")))
        self.u0.check_dim(self.dim)
        if not 0.0 < self.T < math.inf:
            raise PlanError("T", f"T must be positive and finite, got {self.T}")
        if self.reference not in ("hopf_lax", "monotone"):
            raise PlanError("reference", f"reference must be 'hopf_lax' or 'monotone', got {self.reference!r}")
        ff = self.fine_factor
        if not isinstance(ff, int) or ff < 4 or ff & (ff - 1):
            raise PlanError("fine_factor", f"monotone fine factor must be a power of two >= 4, got {ff}")
        try:
            tsnap = clean_snapshot_times(self.snapshot_times, self.T)
        except ValueError as exc:
            raise PlanError("snapshot_times", str(exc)) from None
        object.__setattr__(self, "snapshot_times", tuple(tsnap.tolist()))

    def check_sweep(self) -> None:
        """Raise PlanError unless a sweep can run this plan: a ladder check_ladder takes, and
        zero forcing for the hopf_lax reference, whose oracle needs it."""
        check_ladder(self.epsilons)
        if self.reference == "hopf_lax" and not getattr(self.forcing, "is_zero", False):
            raise PlanError("forcing", "the hopf_lax reference requires zero forcing")

    def problem(self, s: float, eps: float, grid: TorusGrid) -> ProblemSpec:
        """The Cauchy problem of one cell (eps = 0 for the reference) on grid."""
        return ProblemSpec(grid=grid, s=s, epsilon=eps, hamiltonian=self.hamiltonian,
                           u0=self.u0.build(grid), forcing=self.forcing, T=self.T)

    def n_for(self, s: float, eps: float) -> int:
        """The cell's grid: n_points when set, else the grid rule's size."""
        if self.n_points is not None:
            return self.n_points
        try:  # the viscous layer width; it may underflow to a subnormal or 0
            layer = eps ** (1.0 / (2.0 * s))
        except OverflowError:  # a layer wider than any float is wider than any grid's need: the floor
            layer = math.inf
        need = min(GRID_FACTOR * 2.0 * math.pi / layer, GRID_MAX) if layer > 0.0 else GRID_MAX
        return max(1 << math.ceil(math.log2(max(1.0, need))), GRID_MIN)


@dataclass(frozen=True)
class CellResult:
    """Diagnostics for one (s, eps) solve within a sweep.

    errors maps each p to max_t ||u_eps(t) - u(t)||_p; k_profile runs over plan.snapshot_times;
    grid_schedule is the solve's Trajectory.grid_schedule.
    """

    s: float
    epsilon: float
    n_points: int
    n_steps: int
    grid_schedule: tuple
    errors: dict
    k_profile: np.ndarray
    one_sided_error: float | None
    one_sided_bound: float | None


@dataclass(frozen=True)
class SweepResult:
    plan: SweepPlan
    cells: dict
    failures: tuple[tuple[float, float, str], ...]
    eval_n: dict

    def errors_for(self, s: float, p: float) -> tuple[np.ndarray, np.ndarray]:
        """(epsilons, errors) of the finished cells of one (s, p) slice, largest eps first."""
        cells = [self.cells.get((s, eps)) for eps in self.plan.epsilons]
        cells = [cell for cell in cells if cell is not None and p in cell.errors]
        return np.array([cell.epsilon for cell in cells]), np.array([cell.errors[p] for cell in cells])


def _cell_worker(args: tuple) -> tuple[float, float, object]:
    """Measure the errors of one sweep cell from its solve (a Trajectory or the solver's guard error)."""
    (plan, s, eps, n_cell, eval_n, ref_values, traj) = args
    if isinstance(traj, (BlowUpError, TailGuardError)):
        return (s, eps, f"{type(traj).__name__}: {traj}")

    factor = n_cell // eval_n
    errors: dict[float, float] = {p: 0.0 for p in plan.p_values}
    one_sided_error = 0.0
    one_sided_bound = 0.0
    eval_grid = TorusGrid(plan.dim, eval_n)
    record_os = s == 0.5
    for i, t in enumerate(traj.times):
        coarse = subsample(traj.snapshots[i], factor) if factor > 1 else traj.snapshots[i]
        w = coarse.values - ref_values[i]
        wf = Field(eval_grid, w)
        for p in plan.p_values:
            errors[p] = max(errors[p], lp_norm(wf, p))
        if record_os:
            one_sided_error = max(one_sided_error, float(np.max(np.maximum(w, 0.0))))
        if record_os and t > 0.0:  # at t = 0 the bound is the datum's, the same for every eps
            one_sided_bound = max(one_sided_bound, float(np.max(-frac_laplacian(traj.snapshots[i], 0.5).values)))
    cell = CellResult(
        s=s,
        epsilon=eps,
        n_points=n_cell,
        n_steps=traj.n_steps,
        grid_schedule=traj.grid_schedule,
        errors=errors,
        k_profile=traj.k_profile,
        one_sided_error=one_sided_error if record_os else None,
        one_sided_bound=one_sided_bound if record_os else None,
    )
    return (s, eps, cell)


def _grid_worker(args: tuple) -> list[tuple[float, float, object]]:
    """Solve cells of one grid in one batch, then evaluate each (picklable worker)."""
    (plan, n_cell, cells, eval_ns, refs) = args
    grid = TorusGrid(plan.dim, n_cell)
    batch = ProblemBatch(plan.problem(s, eps, grid) for s, eps in cells)
    trajs = viscous_solve(batch, snapshot_times=plan.snapshot_times)
    return [_cell_worker((plan, s, eps, n_cell, eval_ns[s], refs[eval_ns[s]], traj))
            for (s, eps), traj in zip(cells, trajs)]


def _reference_values(plan: SweepPlan, eval_n: int) -> list[np.ndarray]:
    """Inviscid reference snapshots on the evaluation grid; they do not depend on s."""
    problem = plan.problem(plan.s_values[0], 0.0, TorusGrid(plan.dim, eval_n))
    if plan.reference == "hopf_lax":
        return [f.values for f in hopf_lax_oracle(problem, plan.snapshot_times)]
    traj = monotone_reference(problem, plan.fine_factor, snapshot_times=plan.snapshot_times)
    return [f.values for f in traj.snapshots]


def run_sweep(plan: SweepPlan, threads: int = 1) -> SweepResult:
    """Execute every (s, eps) cell of the plan and collect its errors.

    The cells of one grid are solved in one batch (see viscous_solve), then
    evaluated one by one against the reference of their evaluation grid.
    Cells that trip a solver guard are recorded as failures and the sweep
    continues.  With threads > 1 the batches are solved in a process pool,
    the cells of a grid dealt into up to threads batches so that they still
    run side by side; results are assembled in sorted order so the output
    is identical to the sequential path.  A plan that fails
    plan.check_sweep raises PlanError before any solve.
    """
    plan.check_sweep()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")

    order = [(s, eps) for s in plan.s_values for eps in plan.epsilons]
    eval_ns = {s: min(plan.n_for(s, eps) for eps in plan.epsilons) for s in plan.s_values}
    grids: dict[int, list[tuple[float, float]]] = {}
    for s, eps in order:
        grids.setdefault(plan.n_for(s, eps), []).append((s, eps))
    refs = {n: _reference_values(plan, n) for n in dict.fromkeys(eval_ns.values())}
    jobs = [(plan, n, part, eval_ns, {eval_ns[s]: refs[eval_ns[s]] for s, _ in part})
            for n, cells in grids.items() for part in (cells[j::threads] for j in range(min(threads, len(cells))))]

    if threads == 1:
        per_grid = [_grid_worker(j) for j in jobs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing: only a pooled sweep pays

        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:  # fork starts all max_workers at once
            per_grid = list(pool.map(_grid_worker, jobs))
    outcomes = {(s, eps): out for results in per_grid for s, eps, out in results}

    cells: dict[tuple[float, float], CellResult] = {}
    failures: list[tuple[float, float, str]] = []
    for key in order:
        if isinstance(outcomes[key], str):
            failures.append((*key, outcomes[key]))
        else:
            cells[key] = outcomes[key]
    return SweepResult(plan=plan, cells=cells, failures=tuple(failures), eval_n=eval_ns)


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateFit:
    """Least-squares fits of err(eps) against both rate models.

    exponent/prefactor/residual_power describe err ~ prefactor * eps^exponent;
    residual_power_log describes err ~ prefactor_log * eps |log eps| (the
    exponent of that model is pinned at one).  preferred is 'power',
    'power_log', or 'tie'; the models are considered distinguishable only
    when the RMS log-residuals differ by at least twenty percent.
    """

    exponent: float
    prefactor: float
    residual_power: float
    prefactor_log: float
    residual_power_log: float
    preferred: str
    n_used: int

    def accepted_exponent(self, allow_log: bool = False) -> float:
        """Exponent for acceptance checks; the log model counts as one."""
        if allow_log and self.preferred in ("power_log", "tie"):
            return max(self.exponent, 1.0) if self.preferred == "tie" else 1.0
        return self.exponent


def fit_rate(epsilons, errors) -> RateFit:
    """Fit the two rate models through the (eps, err) pairs with 0 < eps < 1 and err > 0."""
    eps = np.asarray(epsilons, dtype=np.float64)
    err = np.asarray(errors, dtype=np.float64)
    ok = np.isfinite(eps) & np.isfinite(err) & (eps > 0) & (eps < 1) & (err > 0)
    eps, err = eps[ok], err[ok]
    if eps.size < 3:
        raise ValueError(f"need at least 3 positive samples to fit a rate, got {eps.size}")
    x = np.log(eps)
    y = np.log(err)
    a, c = np.polyfit(x, y, 1)
    res_pow = float(np.sqrt(np.mean((y - (a * x + c)) ** 2)))
    z = np.log(eps * np.abs(np.log(eps)))
    c_log = float(np.mean(y - z))
    res_log = float(np.sqrt(np.mean((y - (z + c_log)) ** 2)))
    if res_log < 0.8 * res_pow:
        preferred = "power_log"
    elif res_pow < 0.8 * res_log:
        preferred = "power"
    else:
        preferred = "tie"
    return RateFit(
        exponent=float(a),
        prefactor=float(math.exp(c)),
        residual_power=res_pow,
        prefactor_log=float(math.exp(c_log)),
        residual_power_log=res_log,
        preferred=preferred,
        n_used=int(eps.size),
    )


FIT_SLACK = 0.1  # a fit passes when its accepted exponent reaches target - FIT_SLACK


def target_exponent(s: float, p: float) -> float | None:
    """Theoretical decay exponent of err(s, p, eps), None when not pinned."""
    if s < 0.5 or s == 0.5:
        return 1.0
    if s == 1.0:
        return 0.5 if math.isinf(p) else 0.5 + 0.5 / p
    return 1.0 / (2.0 * s) if math.isinf(p) else None


# ---------------------------------------------------------------------------
# one-sided (semi-superharmonicity) check
# ---------------------------------------------------------------------------


ONE_SIDED_SPREAD_MAX = 0.2  # relative spread below which the one-sided bound counts as eps-uniform
ONE_SIDED_SLOPE_MIN = 0.9  # the one-sided slope a uniform bound requires


def one_sided_check(result: SweepResult) -> dict | None:
    """report.json's one_sided entry: eps-uniformity of sup[-(-Delta)^(1/2) u_eps] and the one-sided rate.

    When the bound sup_{t>0} sup_x of -(-Delta)^(1/2) u_eps stays eps-uniform
    (relative spread below ONE_SIDED_SPREAD_MAX), the one-sided sup error
    max_t sup (u_eps - u)^+ is expected to decay linearly in eps: the check
    passes unless the bound is uniform and the slope of that error (None
    when some error vanishes) falls below ONE_SIDED_SLOPE_MIN.  The bound
    leaves out t = 0, where the datum alone sets it.  None when fewer than
    3 s = 1/2 cells finished.
    """
    eps = [e for e in result.plan.epsilons if (0.5, e) in result.cells]
    if len(eps) < 3:
        return None
    bounds = np.array([result.cells[(0.5, e)].one_sided_bound for e in eps])
    errors = np.array([result.cells[(0.5, e)].one_sided_error for e in eps])
    spread = float((np.max(bounds) - np.min(bounds)) / max(float(np.max(np.abs(bounds))), 1e-300))
    uniform = spread < ONE_SIDED_SPREAD_MAX
    slope = fit_rate(eps, errors).exponent if np.all(errors > 0) else None
    return {
        "epsilons": eps,
        "bounds": bounds.tolist(),
        "spread": spread,
        "uniform": uniform,
        "errors": errors.tolist(),
        "slope": slope,
        "passed": not uniform or (slope is not None and slope >= ONE_SIDED_SLOPE_MIN),
    }


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def write_json(path: str, payload: dict) -> None:
    """Write payload as JSON with sorted keys, indent 2 and a final newline; NaN or inf raises ValueError."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _p_label(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def fit_entry(s: float, p: float, eps: np.ndarray, err: np.ndarray) -> tuple[str, dict]:
    """report.json key and entry of one (s, p) slice: both rate fits, target and verdict."""
    key = f"s={s:g},p={_p_label(p)}"
    if np.any(err <= 0) or np.count_nonzero((eps > 0) & (eps < 1) & np.isfinite(err)) < 3:  # fit_rate's samples
        return key, {"status": "insufficient data", "n_points": int(eps.size)}
    fit = fit_rate(eps, err)
    target = target_exponent(s, p)
    entry = {
        "model": fit.preferred,
        "exponent": fit.exponent,
        "prefactor": fit.prefactor,
        "residual_power": fit.residual_power,
        "prefactor_log": fit.prefactor_log,
        "residual_power_log": fit.residual_power_log,
        "n_points": fit.n_used,
        "target": target,
    }
    if target is not None:
        allow_log = s == 0.5 and math.isinf(p)
        entry["passed"] = bool(fit.accepted_exponent(allow_log) >= target - FIT_SLACK)
    return key, entry


def emit_report(
    result: SweepResult,
    out_dir: str,
    config_echo: dict | None = None,
    one_sided: dict | None = None,
) -> dict:
    """Write rates.csv, report.json and plots.gp into out_dir.

    rates.csv is a pure function of the sweep result (fixed row order and
    17-significant-digit floats), so repeated identical sweeps produce
    byte-identical files.  one_sided is one_sided_check's entry, stored as
    given.  Returns the report dictionary.
    """
    os.makedirs(out_dir, exist_ok=True)
    plan = result.plan
    lines = ["s,p,epsilon,error,norm,ref_kind"]
    fits = {}
    series = []
    for s in plan.s_values:
        for p in plan.p_values:
            eps, err = result.errors_for(s, p)
            label, norm = _p_label(p), "sup" if math.isinf(p) else "Lp"
            lines += [",".join([format_float(s), label, format_float(e), format_float(x), norm, plan.reference])
                      for e, x in zip(eps, err)]
            key, entry = fit_entry(s, p, eps, err)
            fits[key] = entry
            cond = f"(stringcolumn(2) eq '{label}' && abs($1 - {s:.17g}) < 1e-12)"
            series.append(f"  'rates.csv' using ({cond} ? $3 : NaN):4 with linespoints title 's={s:g} p={label}'")
    with open(os.path.join(out_dir, "rates.csv"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    report = {
        "fits": fits,
        "failures": [
            {"s": s, "epsilon": eps, "reason": reason} for s, eps, reason in result.failures
        ],
        "eval_n": {f"{s:g}": int(n) for s, n in result.eval_n.items()},
        "cells": {
            f"s={s:g},eps={eps:g}": {
                "n_points": cell.n_points,
                "n_steps": cell.n_steps,
                "grid_schedule": cell.grid_schedule,
            }
            for (s, eps), cell in sorted(result.cells.items())
        },
    }
    if one_sided is not None:
        report["one_sided"] = one_sided
    if config_echo is not None:
        report["config"] = config_echo
    write_json(os.path.join(out_dir, "report.json"), report)

    gp = [
        "# gnuplot script: log-log error decay per (s, p) slice",
        "set logscale xy",
        "set xlabel 'epsilon'",
        "set ylabel 'error'",
        "set datafile separator ','",
        "set key outside",
        "plot \\",
        ", \\\n".join(series),
    ]
    with open(os.path.join(out_dir, "plots.gp"), "w") as fh:
        fh.write("\n".join(gp) + "\n")
    return report
