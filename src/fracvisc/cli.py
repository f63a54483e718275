"""Command line driver.

    fracvisc <subcommand> --config <path> [--output <dir>]

Subcommands: solve, sweep, dual-check.
Diagnostics go to stderr; data products (CSV/JSON/gnuplot) go to files in
the output directory.  Exit codes: 0 success, 1 a numerical check failed,
2 configuration or usage error.  FRACVISC_THREADS controls sweep
parallelism (default 1).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from functools import lru_cache

import numpy as np

from fracvisc.config import ConfigError, ExperimentConfig, parse_config_file
from fracvisc.dual import (DUALITY_RESIDUAL_MAX, GRONWALL_RATIO_MAX, DualSolution, build_drift, dual_solve,
                           duality_residual, gronwall_check, lp_dual_datum)
from fracvisc.hj import ProblemBatch, Trajectory, viscous_solve
from fracvisc.hj import hopf_lax_oracle, monotone_reference  # unused: perfbench/tracer.py patches them on this module
from fracvisc.rates import emit_report, one_sided_check, run_sweep, write_json
from fracvisc.torus import Field, TorusGrid


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _config_echo(cfg: ExperimentConfig, output_dir: str) -> dict:
    echo = {k: v for k, v in cfg.raw}
    echo["output_dir"] = output_dir
    return echo


@lru_cache(maxsize=2)  # a command writes its snapshots grid by grid
def _csv_template(grid: TorusGrid) -> str:
    """A snapshot CSV of grid with one %.16e slot per node in C order; %.16e renders as format_float does."""
    header = ",".join("ij"[:grid.dim]) + ",value\n"
    return header + "".join([",".join(map(str, ix)) + ",%.16e\n" for ix in np.ndindex(grid.shape)])


def _snapshot_csv(field: Field, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(_csv_template(field.grid) % tuple(field.values.ravel().tolist()))


def _export_trajectory(traj: Trajectory | DualSolution, out_dir: str, prefix: str, tag: str) -> list[str]:
    names = []
    for t, snap in zip(traj.times, traj.snapshots):
        name = f"{prefix}_{tag}_t{t:g}.csv"
        _snapshot_csv(snap, os.path.join(out_dir, name))
        names.append(name)
    return names


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(cfg: ExperimentConfig, out_dir: str) -> int:
    plan = cfg.plan
    s, eps = plan.s_values[0], plan.epsilons[0]  # the smallest order, the largest viscosity
    n = plan.n_for(s, eps)
    _log(f"solve: s={s:g} eps={eps:g} n={n} T={plan.T:g}")
    traj = viscous_solve(plan.problem(s, eps, TorusGrid(plan.dim, n)), snapshot_times=plan.snapshot_times)
    os.makedirs(out_dir, exist_ok=True)
    names = _export_trajectory(traj, out_dir, "u", f"s{s:g}_eps{eps:g}")
    summary = {
        "s": s,
        "epsilon": eps,
        "n_points": n,
        "n_steps": traj.n_steps,
        "grid_schedule": traj.grid_schedule,
        "times": [float(t) for t in traj.times],
        "sup_norms": [float(np.max(np.abs(f.values))) for f in traj.snapshots],
        "k_profile": [float(k) for k in traj.k_profile],
        "grad_sup": [float(g) for g in traj.grad_sup_profile],
        "snapshots": names,
        "config": _config_echo(cfg, out_dir),
    }
    write_json(os.path.join(out_dir, "solve.json"), summary)
    _log(f"solve: wrote {len(names)} snapshots and solve.json to {out_dir}")
    return 0


def env_threads() -> int:
    """Sweep workers from FRACVISC_THREADS (default 1); a value that is not a positive integer is a ConfigError."""
    raw = os.environ.get("FRACVISC_THREADS", "1")
    if not raw.strip().isdecimal() or int(raw) < 1:
        raise ConfigError(f"FRACVISC_THREADS must be a positive integer, got {raw!r}")
    return int(raw)


def _cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    plan = cfg.sweep_plan()
    _log(
        f"sweep: s={list(plan.s_values)} eps ladder of {len(plan.epsilons)} "
        f"entries, reference={plan.reference}"
    )
    result = run_sweep(plan, threads=env_threads())
    for s, eps, reason in result.failures:
        _log(f"sweep: cell (s={s:g}, eps={eps:g}) failed: {reason}")
    one_sided = None
    if 0.5 in plan.s_values:
        try:
            one_sided = one_sided_check(result)
        except ValueError:
            _log("sweep: one-sided check skipped: fewer than 3 s=0.5 cells finished")
        else:
            slope = None if one_sided.fit is None else f"{one_sided.fit.exponent:.3f}"
            bound = "uniform" if one_sided.uniform else ">= 0.2, rate check not applicable"
            verdict = "passed" if one_sided.passes() else "FAILED (uniform bound but slope < 0.9)"
            _log(f"sweep: one-sided bound spread {one_sided.spread:.3f} ({bound}), slope {slope}: {verdict}")
    emit_report(result, out_dir, config_echo=_config_echo(cfg, out_dir), one_sided=one_sided)
    _log(f"sweep: wrote rates.csv, report.json, plots.gp to {out_dir}")
    if not result.cells:
        _log("sweep: every cell failed")
        return 1
    return 0


def _cmd_dual_check(cfg: ExperimentConfig, out_dir: str) -> int:
    plan = cfg.plan
    if len(plan.epsilons) < 2:
        raise cfg.error("dual-check needs at least two entries in epsilon_list", "epsilon_list")
    qs = [p for p in plan.p_values if not math.isinf(p) and p > 1.0]  # ascending: rho is exported for qs[0]
    if not qs:
        raise cfg.error("dual-check needs at least one finite p > 1 in p_list", "p_list")
    s = plan.s_values[0]
    pairs = [(eps, eta, TorusGrid(plan.dim, max(plan.n_for(s, eps), plan.n_for(s, eta))))
             for eps, eta in zip(plan.epsilons[:-1], plan.epsilons[1:])]
    os.makedirs(out_dir, exist_ok=True)
    checks = []
    worst_ratio = worst_before = 0.0
    worst_residual = 0.0
    for grid in dict.fromkeys(g for _, _, g in pairs):  # pairs sharing a grid are adjacent
        grid_pairs = [(eps, eta) for eps, eta, g in pairs if g == grid]
        epss = list(dict.fromkeys(e for pair in grid_pairs for e in pair))
        trajs = None  # the previous grid's trajectories are no longer needed
        trajs = dict(zip(epss, viscous_solve(ProblemBatch(plan.problem(s, e, grid) for e in epss),
                                             snapshot_times=plan.snapshot_times)))
        data = []  # (eps, eta, drift, q, terminal datum) for every q whose datum exists, in check order
        for eps, eta in grid_pairs:
            _log(f"dual-check: pair eps={eps:g} eta={eta:g} on n={grid.n_points}")
            for e in (eps, eta):
                if isinstance(trajs[e], Exception):
                    raise trajs[e]
            w_tau = Field(grid, trajs[eps].snapshots[-1].values - trajs[eta].snapshots[-1].values)
            part = "positive" if np.max(w_tau.values) > 0.0 else "negative" if np.min(w_tau.values) < 0.0 else None
            if part is None:
                for q in qs:
                    _log(f"dual-check: pair eps={eps:g} eta={eta:g}, q={q:g}: no datum, w(T) vanishes")
                continue
            drift = build_drift(trajs[eps], trajs[eta])
            data += [(eps, eta, drift, q, lp_dual_datum(w_tau, q, part)) for q in qs]
        if not data:
            continue
        _, etas, drifts, _, alphas = zip(*data)
        duals = dual_solve(drifts, etas, alphas, plan.T)  # every datum of the grid at once
        for (eps, eta, drift, q, _), dual in zip(data, duals):
            rep = gronwall_check(dual, drift, q)
            residual = duality_residual(dual, trajs[eps], trajs[eta])
            worst_ratio = max(worst_ratio, rep.max_ratio)
            worst_before = max(worst_before, rep.max_ratio_before_tau)
            worst_residual = max(worst_residual, residual)
            checks.append(
                {
                    "eps": eps,
                    "eta": eta,
                    "q": q,
                    "n_points": grid.n_points,
                    "max_ratio": rep.max_ratio,
                    "max_ratio_before_tau": rep.max_ratio_before_tau,
                    "growth_factor": rep.growth_factor,
                    "gronwall_ok": rep.ok(),
                    "duality_residual": residual,
                    "min_rho": dual.min_value,
                    "mass_drift": dual.mass_drift,
                }
            )
            if q == qs[0]:
                _export_trajectory_dual(dual, out_dir, eps, eta)
    write_json(os.path.join(out_dir, "dual_report.json"), {"checks": checks, "config": _config_echo(cfg, out_dir)})
    _log(
        f"dual-check: {len(checks)} checks, worst Gronwall ratio {worst_ratio:.4f} "
        f"({worst_before:.4f} before tau), "
        f"worst duality residual {worst_residual:.3e}"
    )
    if not checks:  # every pair's w(T) vanished, so no datum was built and nothing was checked
        _log("dual-check: FAILED, no check ran: w(T) vanishes on every pair")
        return 1
    if worst_ratio > GRONWALL_RATIO_MAX or worst_residual > DUALITY_RESIDUAL_MAX:
        _log(f"dual-check: FAILED thresholds (ratio <= {GRONWALL_RATIO_MAX:g}, residual <= {DUALITY_RESIDUAL_MAX:g})")
        return 1
    return 0


def _export_trajectory_dual(dual: DualSolution, out_dir: str, eps: float, eta: float) -> None:
    _export_trajectory(dual, out_dir, "rho", f"eps{eps:g}_eta{eta:g}")


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


# name: handler; every handler takes (cfg, out_dir)
COMMANDS = {
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "dual-check": _cmd_dual_check,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracvisc",
        description="Vanishing-viscosity rate experiments for periodic Hamilton-Jacobi equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--output", default=None, help="output directory (overrides config)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg = parse_config_file(args.config)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except OSError as exc:
        _log(f"cannot read config: {exc}")
        return 2

    try:
        return COMMANDS[args.command](cfg, args.output or cfg.output_dir)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except Exception as exc:  # solver guards, IO failures: a failed run, not a usage error
        _log(f"error: {type(exc).__name__}: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
