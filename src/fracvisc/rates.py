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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from fracvisc.hamiltonians import HamiltonianSpec
from fracvisc.hj import (
    BlowUpError,
    ProblemBatch,
    ProblemSpec,
    TailGuardError,
    ZeroForcing,
    clean_snapshot_times,
    hopf_lax_oracle,
    monotone_reference,
    viscous_solve,
)
from fracvisc.torus import Field, TorusGrid, frac_laplacian, lp_norm, subsample

__all__ = [
    "InitialData",
    "ResolutionRule",
    "SweepPlan",
    "check_ladder",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "env_threads",
    "RateFit",
    "fit_rate",
    "target_exponent",
    "OneSidedReport",
    "one_sided_check",
    "one_sided_entry",
    "emit_report",
    "fit_entry",
    "format_float",
    "write_json",
]


def format_float(x: float) -> str:
    """Canonical 17-significant-digit scientific notation for data files."""
    return f"{float(x):.16e}"


def _pow2ceil(n: float) -> int:
    return 1 << max(0, math.ceil(math.log2(max(1.0, n))))


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
            raise ValueError(f"unknown initial data kind {self.kind!r}")
        if self.kind == "coeffs" and (not self.params or len(self.params) % 2):
            raise ValueError("coeffs initial data needs an even, non-empty parameter list")
        object.__setattr__(self, "params", tuple(float(v) for v in self.params))

    def check_dim(self, dim: int) -> None:
        """Raise ValueError unless this datum can be realized in dim dimensions."""
        if self.kind == "cos2d" and dim != 2:
            raise ValueError("cos2d requires dim == 2")
        if self.kind == "coeffs" and dim != 1:
            raise ValueError("coeffs initial data is one-dimensional")

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


@dataclass(frozen=True)
class ResolutionRule:
    """Pick n_points so the viscous layer width eps^(1/(2s)) is resolved.

    The grid is chosen as the smallest power of two with at least `factor`
    cells across one layer width, clamped to [n_min, n_max].  The defaults
    are calibrated on the quadratic benchmark: solution-level errors are
    already converged at factor 3 (doubling or octupling the grid moves
    them by < 1e-4 relative), the 1024 floor keeps the fixed-scale
    curvature probe free of under-resolution ripples at large s, and past
    the cap the extra cells only sharpen sub-grid front structure that no
    solution-level quantity feels.
    """

    factor: float = 3.0
    n_min: int = 1024
    n_max: int = 16384

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError("factor must be positive")
        for name in ("n_min", "n_max"):
            v = getattr(self, name)
            if v < 8 or (v & (v - 1)):
                raise ValueError(f"{name} must be a power of two >= 8, got {v}")
        if self.n_min > self.n_max:
            raise ValueError("n_min must not exceed n_max")

    def n_for(self, s: float, eps: float) -> int:
        width = eps ** (1.0 / (2.0 * s))
        need = self.factor * 2.0 * math.pi / width
        return int(min(max(_pow2ceil(need), self.n_min), self.n_max))


def check_ladder(epsilons) -> None:
    """Raise ValueError unless the viscosities form a ladder a rate can be fitted on."""
    if len(epsilons) < 5:
        raise ValueError(f"need at least 5 viscosities, got {len(epsilons)}")
    if max(epsilons) / min(epsilons) < 16.0 * (1.0 - 1e-12):
        raise ValueError("viscosities must span at least four octaves")


@dataclass(frozen=True)
class SweepPlan:
    """Full description of one experiment: the problem family, its orders, viscosities and norms.

    The checks that only a sweep needs are run_sweep's: the ladder
    (check_ladder) and zero forcing for the hopf_lax reference.
    """

    dim: int
    s_values: tuple[float, ...]
    epsilons: tuple[float, ...]
    p_values: tuple[float, ...]
    hamiltonian: HamiltonianSpec
    u0: InitialData
    forcing: object = field(default_factory=ZeroForcing)
    T: float = 2.0
    snapshot_times: tuple[float, ...] = ()
    reference: str = "hopf_lax"
    fine_factor: int = 4
    dt_cfl: float = 0.5
    resolution: ResolutionRule = field(default_factory=ResolutionRule)
    n_points: int | None = None

    def __post_init__(self) -> None:
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        eps = tuple(float(e) for e in self.epsilons)
        if not eps or min(eps) <= 0:
            raise ValueError("viscosities must be positive")
        object.__setattr__(self, "epsilons", tuple(sorted(eps, reverse=True)))
        svals = tuple(float(s) for s in self.s_values)
        if not svals or any(not 0.0 < s <= 1.0 for s in svals):
            raise ValueError("s values must lie in (0, 1]")
        object.__setattr__(self, "s_values", tuple(sorted(svals)))
        ps = tuple(float(p) for p in self.p_values)
        if not ps or any((p < 1.0) for p in ps):
            raise ValueError("p values must satisfy p >= 1")
        object.__setattr__(self, "p_values", tuple(sorted(ps)))
        for name, vals in (("viscosities", eps), ("s values", svals), ("p values", ps)):
            if len(set(vals)) < len(vals):
                raise ValueError(f"{name} must not repeat, got {vals}")
        if self.reference not in ("hopf_lax", "monotone"):
            raise ValueError(f"reference must be 'hopf_lax' or 'monotone', got {self.reference!r}")
        tsnap = clean_snapshot_times(self.snapshot_times or None, self.T)
        object.__setattr__(self, "snapshot_times", tuple(tsnap.tolist()))
        if self.n_points is not None and (self.n_points < 8 or self.n_points & (self.n_points - 1)):
            raise ValueError("explicit n_points must be a power of two >= 8")

    def problem(self, s: float, eps: float, grid: TorusGrid) -> ProblemSpec:
        """The Cauchy problem of one cell (eps = 0 for the reference) on grid."""
        return ProblemSpec(grid=grid, s=s, epsilon=eps, hamiltonian=self.hamiltonian,
                           u0=self.u0.build(grid), forcing=self.forcing, T=self.T)

    def n_for(self, s: float, eps: float) -> int:
        if self.n_points is not None:
            return self.n_points
        return self.resolution.n_for(s, eps)


@dataclass(frozen=True)
class CellResult:
    """Diagnostics for one (s, eps) solve within a sweep; errors maps each p to max_t ||u_eps(t) - u(t)||_p."""

    s: float
    epsilon: float
    n_points: int
    n_steps: int
    errors: dict
    times: np.ndarray
    k_profile: np.ndarray
    grad_sup_profile: np.ndarray
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


def env_threads() -> int:
    """Sweep workers from FRACVISC_THREADS (default 1); ValueError naming the variable otherwise."""
    raw = os.environ.get("FRACVISC_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ValueError(f"FRACVISC_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


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
            one_sided_bound = max(
                one_sided_bound,
                float(np.max(-frac_laplacian(traj.snapshots[i], 0.5).values)),
            )
    cell = CellResult(
        s=s,
        epsilon=eps,
        n_points=n_cell,
        n_steps=traj.n_steps,
        errors=errors,
        times=traj.times.copy(),
        k_profile=traj.k_profile.copy(),
        grad_sup_profile=traj.grad_sup_profile.copy(),
        one_sided_error=one_sided_error if record_os else None,
        one_sided_bound=one_sided_bound if record_os else None,
    )
    return (s, eps, cell)


def _grid_worker(args: tuple) -> list[tuple[float, float, object]]:
    """Solve cells of one grid in one batch, then evaluate each (picklable worker)."""
    (plan, n_cell, cells, eval_ns, refs) = args
    grid = TorusGrid(plan.dim, n_cell)
    batch = ProblemBatch(plan.problem(s, eps, grid) for s, eps in cells)
    trajs = viscous_solve(batch, dt_cfl=plan.dt_cfl, snapshot_times=plan.snapshot_times)
    return [_cell_worker((plan, s, eps, n_cell, eval_ns[s], refs[eval_ns[s]], traj))
            for (s, eps), traj in zip(cells, trajs)]


def _reference_values(plan: SweepPlan, eval_n: int) -> list[np.ndarray]:
    """Inviscid reference snapshots on the evaluation grid; they do not depend on s."""
    problem = plan.problem(plan.s_values[0], 0.0, TorusGrid(plan.dim, eval_n))
    if plan.reference == "hopf_lax":
        return [hopf_lax_oracle(problem, t).values for t in plan.snapshot_times]
    traj = monotone_reference(problem, plan.fine_factor, snapshot_times=plan.snapshot_times)
    return [f.values for f in traj.snapshots]


def run_sweep(plan: SweepPlan, threads: int | None = None) -> SweepResult:
    """Execute every (s, eps) cell of the plan and collect its errors.

    The cells of one grid are solved in one batch (see viscous_solve), then
    evaluated one by one against the reference of their evaluation grid.
    Cells that trip a solver guard are recorded as failures and the sweep
    continues.  With FRACVISC_THREADS > 1 (or threads > 1) the batches are
    solved in a process pool, the cells of a grid dealt into up to threads
    batches so that they still run side by side; results are assembled in
    sorted order so the output is identical to the sequential path.  A plan
    whose ladder fails check_ladder, or a hopf_lax plan with a forcing (the
    oracle's own check), raises ValueError before any solve.
    """
    check_ladder(plan.epsilons)
    if threads is None:
        threads = env_threads()
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
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
    """Fit the two rate models through (eps, err) pairs with err > 0."""
    eps = np.asarray(epsilons, dtype=np.float64)
    err = np.asarray(errors, dtype=np.float64)
    ok = np.isfinite(eps) & np.isfinite(err) & (eps > 0) & (err > 0)
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


@dataclass(frozen=True)
class OneSidedReport:
    """eps-uniformity of sup[-(-Delta)^(1/2) u_eps] and one-sided rates.

    When the bound sup_t sup_x of -(-Delta)^(1/2) u_eps stays eps-uniform
    (relative spread below 20%), the one-sided sup error
    max_t sup (u_eps - u)^+ is expected to decay linearly in eps.
    """

    epsilons: np.ndarray
    bounds: np.ndarray
    spread: float
    uniform: bool
    errors: np.ndarray
    fit: RateFit | None

    def passes(self) -> bool:
        """True unless the bound is eps-uniform and the one-sided slope falls below 0.9."""
        if not self.uniform:
            return True
        return self.fit is not None and self.fit.exponent >= 0.9


def one_sided_check(result: SweepResult) -> OneSidedReport:
    """Assemble the one-sided diagnostics that a sweep records at s = 1/2."""
    eps_list, bounds, errors = [], [], []
    for eps in result.plan.epsilons:
        cell = result.cells.get((0.5, eps))
        if cell is None or cell.one_sided_bound is None:
            continue
        eps_list.append(eps)
        bounds.append(cell.one_sided_bound)
        errors.append(cell.one_sided_error)
    if len(eps_list) < 3:
        raise ValueError(
            "one_sided_check needs at least 3 cells with recorded one-sided data; "
            "run the sweep with s = 0.5"
        )
    eps_arr = np.asarray(eps_list)
    b_arr = np.asarray(bounds)
    e_arr = np.asarray(errors)
    bmax = float(np.max(np.abs(b_arr)))
    spread = float((np.max(b_arr) - np.min(b_arr)) / max(bmax, 1e-300))
    uniform = spread < 0.20
    fit = None
    if np.all(e_arr > 0):
        fit = fit_rate(eps_arr, e_arr)
    return OneSidedReport(
        epsilons=eps_arr,
        bounds=b_arr,
        spread=spread,
        uniform=uniform,
        errors=e_arr,
        fit=fit,
    )


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def write_json(path: str, payload: dict) -> None:
    """Write payload as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def one_sided_entry(report: OneSidedReport) -> dict:
    """The JSON entry of a one-sided report, as report.json and one_sided.json hold it."""
    return {
        "epsilons": [float(e) for e in report.epsilons],
        "bounds": [float(b) for b in report.bounds],
        "spread": report.spread,
        "uniform": report.uniform,
        "errors": [float(e) for e in report.errors],
        "slope": None if report.fit is None else report.fit.exponent,
    }


def _p_label(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def fit_entry(s: float, p: float, eps: np.ndarray, err: np.ndarray) -> tuple[str, dict]:
    """report.json key and entry of one (s, p) slice: both rate fits, target and verdict."""
    key = f"s={s:g},p={_p_label(p)}"
    if eps.size < 3 or np.any(err <= 0):
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
        entry["passed"] = bool(fit.accepted_exponent(allow_log) >= target - 0.1)
    return key, entry


def emit_report(
    result: SweepResult,
    out_dir: str,
    config_echo: dict | None = None,
    one_sided: OneSidedReport | None = None,
) -> dict:
    """Write rates.csv, report.json and plots.gp into out_dir.

    rates.csv is a pure function of the sweep result (fixed row order and
    17-significant-digit floats), so repeated identical sweeps produce
    byte-identical files.  Returns the report dictionary.
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
            cond = f"(stringcolumn(2) eq '{label}' && abs($1 - {s:g}) < 1e-12)"
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
            }
            for (s, eps), cell in sorted(result.cells.items())
        },
    }
    if one_sided is not None:
        report["one_sided"] = one_sided_entry(one_sided)
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
