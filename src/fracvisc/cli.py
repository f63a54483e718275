"""Command line driver.

    fracvisc <subcommand> --config <path> [--output <dir>]

Subcommands: solve, sweep, dual-check, one-sided, report, selftest.
Diagnostics go to stderr; data products (CSV/JSON/gnuplot) go to files in
the output directory.  Exit codes: 0 success, 1 a numerical check failed,
2 configuration or usage error.  FRACVISC_THREADS controls sweep
parallelism (default 1).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from fracvisc.config import ConfigError, ExperimentConfig, parse_config_file, parse_config
from fracvisc.dual import DualSolution, build_drift, dual_solve, duality_residual, gronwall_check, lp_dual_datum
from fracvisc.hamiltonians import LagrangianSpec, legendre_transform, make_hamiltonian
from fracvisc.hj import (ProblemBatch, ProblemSpec, Trajectory, ZeroForcing, hopf_lax_oracle, monotone_reference,
                         viscous_solve)
from fracvisc.rates import (
    ResolutionRule,
    SweepPlan,
    fit_entry,
    format_float,
    one_sided_check,
    one_sided_entry,
    emit_report,
    env_threads,
    run_sweep,
    write_json,
)
from fracvisc.torus import Field, TorusGrid, frac_laplacian, lp_norm

_RULE = ResolutionRule()


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_plan(cfg: ExperimentConfig) -> SweepPlan:
    return SweepPlan(
        dim=cfg.dim,
        s_values=cfg.s_list,
        epsilons=cfg.epsilon_list,
        p_values=cfg.p_list,
        hamiltonian=cfg.hamiltonian(),
        u0=cfg.u0,
        forcing=cfg.forcing(),
        T=cfg.T,
        snapshot_times=cfg.snapshot_times(),
        reference=cfg.reference,
        fine_factor=cfg.fine_factor,
        dt_cfl=cfg.dt_cfl,
        n_points=cfg.n_points,
    )


def _config_echo(cfg: ExperimentConfig, output_dir: str) -> dict:
    echo = {k: v for k, v in cfg.raw}
    echo["output_dir"] = output_dir
    return echo


def _snapshot_csv(field: Field, path: str) -> None:
    vals = field.values
    with open(path, "w") as fh:
        if field.grid.dim == 1:
            fh.write("i,value\n")
            for i, v in enumerate(vals):
                fh.write(f"{i},{format_float(v)}\n")
        else:
            fh.write("i,j,value\n")
            for i in range(vals.shape[0]):
                for j in range(vals.shape[1]):
                    fh.write(f"{i},{j},{format_float(vals[i, j])}\n")


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
    s = cfg.s_list[0]
    eps = cfg.epsilon_list[0]
    n = cfg.n_points or _RULE.n_for(s, eps)
    problem = cfg.problem(s, eps, TorusGrid(cfg.dim, n))
    _log(f"solve: s={s:g} eps={eps:g} n={n} T={cfg.T:g}")
    traj = viscous_solve(problem, dt_cfl=cfg.dt_cfl, snapshot_times=cfg.snapshot_times())
    os.makedirs(out_dir, exist_ok=True)
    names = _export_trajectory(traj, out_dir, "u", f"s{s:g}_eps{eps:g}")
    summary = {
        "s": s,
        "epsilon": eps,
        "n_points": n,
        "n_steps": traj.n_steps,
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


def _threads() -> int:
    """Sweep workers from FRACVISC_THREADS (default 1); a bad value is a configuration error."""
    try:
        return env_threads()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _cmd_sweep(cfg: ExperimentConfig, out_dir: str) -> int:
    plan = _build_plan(cfg)
    _log(
        f"sweep: s={list(plan.s_values)} eps ladder of {len(plan.epsilons)} "
        f"entries, reference={plan.reference}"
    )
    result = run_sweep(plan, threads=_threads())
    for s, eps, reason in result.failures:
        _log(f"sweep: cell (s={s:g}, eps={eps:g}) failed: {reason}")
    one_sided = None
    if 0.5 in plan.s_values:
        try:
            one_sided = one_sided_check(result)
        except ValueError:
            one_sided = None
    emit_report(result, out_dir, config_echo=_config_echo(cfg, out_dir), one_sided=one_sided)
    _log(f"sweep: wrote rates.csv, report.json, plots.gp to {out_dir}")
    if not result.cells:
        _log("sweep: every cell failed")
        return 1
    return 0


def _cmd_dual_check(cfg: ExperimentConfig, out_dir: str) -> int:
    if len(cfg.epsilon_list) < 2:
        raise ConfigError("dual-check needs at least two entries in epsilon_list")
    qs = [p for p in cfg.p_list if not math.isinf(p) and p > 1.0]
    if not qs:
        raise ConfigError("dual-check needs at least one finite p > 1 in p_list")
    s = cfg.s_list[0]
    times = cfg.snapshot_times()
    eps_sorted = sorted(cfg.epsilon_list, reverse=True)
    pairs = [(eps, eta, TorusGrid(cfg.dim, cfg.n_points or max(_RULE.n_for(s, eps), _RULE.n_for(s, eta))))
             for eps, eta in zip(eps_sorted[:-1], eps_sorted[1:])]
    os.makedirs(out_dir, exist_ok=True)
    checks = []
    worst_ratio = 0.0
    worst_residual = 0.0
    solved, trajs = None, {}  # the grid of the last batched solve and its trajectories by viscosity
    for eps, eta, grid in pairs:
        _log(f"dual-check: pair eps={eps:g} eta={eta:g} on n={grid.n_points}")
        if grid != solved:  # every distinct viscosity of the grid's pairs (they are adjacent) in one solve
            epss = list(dict.fromkeys(e for a, b, g in pairs if g == grid for e in (a, b)))
            trajs = None  # the previous grid's trajectories are no longer needed
            solved, trajs = grid, dict(zip(epss, viscous_solve(
                ProblemBatch(cfg.problem(s, e, grid) for e in epss), dt_cfl=cfg.dt_cfl, snapshot_times=times)))
        traj_eps, traj_eta = trajs[eps], trajs[eta]
        for traj in (traj_eps, traj_eta):
            if isinstance(traj, Exception):
                raise traj
        drift = build_drift(traj_eps, traj_eta, mollify_scale=cfg.mollify_scale)
        w_tau = Field(grid, traj_eps.snapshots[-1].values - traj_eta.snapshots[-1].values)
        data = []  # (q, terminal datum) for every q whose datum exists
        for q in qs:
            for part in ("positive", "negative"):
                try:
                    data.append((q, lp_dual_datum(w_tau, q, part)))
                    break
                except ValueError:
                    pass
        if not data:
            continue
        duals = dual_solve(drift, eta, [alpha for _, alpha in data], cfg.T, dt_cfl=cfg.dt_cfl)
        for (q, _), dual in zip(data, duals):
            rep = gronwall_check(dual, drift, q)
            residual = duality_residual(dual, traj_eps, traj_eta)
            worst_ratio = max(worst_ratio, rep.max_ratio)
            worst_residual = max(worst_residual, residual)
            checks.append(
                {
                    "eps": eps,
                    "eta": eta,
                    "q": q,
                    "n_points": grid.n_points,
                    "max_ratio": rep.max_ratio,
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
        f"dual-check: {len(checks)} checks, worst Gronwall ratio {worst_ratio:.4f}, "
        f"worst duality residual {worst_residual:.3e}"
    )
    if worst_ratio > 1.01 or worst_residual > 0.02:
        _log("dual-check: FAILED thresholds (ratio <= 1.01, residual <= 0.02)")
        return 1
    return 0


def _export_trajectory_dual(dual: DualSolution, out_dir: str, eps: float, eta: float) -> None:
    _export_trajectory(dual, out_dir, "rho", f"eps{eps:g}_eta{eta:g}")


def _cmd_one_sided(cfg: ExperimentConfig, out_dir: str) -> int:
    if 0.5 not in cfg.s_list:
        raise ConfigError("one-sided requires s_list to contain 0.5")
    result = run_sweep(dataclasses.replace(_build_plan(cfg), s_values=(0.5,)), threads=_threads())
    report = one_sided_check(result)
    os.makedirs(out_dir, exist_ok=True)
    payload = {**one_sided_entry(report), "config": _config_echo(cfg, out_dir)}
    write_json(os.path.join(out_dir, "one_sided.json"), payload)
    if report.uniform:
        slope = None if report.fit is None else report.fit.exponent
        _log(f"one-sided: bound spread {report.spread:.3f} (uniform), slope {slope}")
        if not report.passes():
            _log("one-sided: FAILED (uniform bound but slope < 0.9)")
            return 1
    else:
        _log(f"one-sided: bound spread {report.spread:.3f} >= 0.2; rate check not applicable")
    return 0


def _cmd_report(out_dir: str) -> int:
    path = os.path.join(out_dir, "rates.csv")
    if not os.path.exists(path):
        raise ConfigError(f"no rates.csv found in {out_dir!r}; run sweep first")
    slices: dict[tuple[float, float], list[tuple[float, float]]] = {}
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "s,p,epsilon,error,norm,ref_kind":
            raise ConfigError(f"{path} does not look like a rates table")
        for lineno, line in enumerate(fh, start=2):
            try:  # a wrong field count or a non-numeric field raises ValueError
                s, p, eps, err, _norm, _ref_kind = line.strip().split(",")
                s, p, eps, err = float(s), float(p), float(eps), float(err)
            except ValueError as exc:
                raise ConfigError(f"{path}: malformed rates row: {exc}", line=lineno) from None
            slices.setdefault((s, p), []).append((eps, err))
    fits = dict(fit_entry(s, p, *np.array(pts).T) for (s, p), pts in sorted(slices.items()))
    write_json(os.path.join(out_dir, "report.json"), {"fits": fits, "source": "rates.csv"})
    _log(f"report: refit {len(fits)} slices from {path}")
    return 0


def _cmd_selftest(cfg: ExperimentConfig) -> int:
    rng = np.random.default_rng(cfg.seed)
    failures = 0

    def check(name: str, value: float, tol: float) -> None:
        nonlocal failures
        ok = value <= tol
        _log(f"selftest: {'PASS' if ok else 'FAIL'} {name} ({value:.3e} <= {tol:.0e})")
        if not ok:
            failures += 1

    grid = TorusGrid(1, 256)
    sp = grid.spectral
    f = Field(grid, rng.standard_normal(grid.shape))
    coeff = sp.fwd(f.values)
    check("spectral roundtrip", float(np.max(np.abs(sp.inv(coeff) - f.values))), 1e-13)
    quad = lp_norm(f, 2.0)
    spectral = math.sqrt(2 * math.pi * float(np.sum(sp.parseval_w * np.abs(coeff) ** 2))) / grid.n_total
    check("parseval", abs(quad - spectral) / quad, 1e-12)

    sp.truncate(coeff)
    fd = Field(grid, sp.inv(coeff))
    twice = frac_laplacian(frac_laplacian(fd, 0.5), 0.5)
    once = frac_laplacian(fd, 1.0)
    scale = max(float(np.max(np.abs(once.values))), 1e-30)
    check("half-laplacian composition", float(np.max(np.abs(twice.values - once.values))) / scale, 1e-10)

    const = Field(grid, np.full(grid.shape, -3.0))
    check("constant L2 norm", abs(lp_norm(const, 2.0) - 3.0 * math.sqrt(2 * math.pi)), 1e-12)

    ham = make_hamiltonian("quadratic", 1)
    lag = LagrangianSpec(ham)
    check("quadratic Legendre", abs(legendre_transform(lag, 1.2) - 0.5 * 1.2**2), 1e-10)

    zero_h = make_hamiltonian("zero", 1)
    x = grid.nodes()[0]
    u0 = Field(grid, np.cos(x))
    heat = ProblemSpec(grid=grid, s=1.0, epsilon=1.0, hamiltonian=zero_h,
                       u0=u0, forcing=ZeroForcing(), T=0.5)
    traj = viscous_solve(heat, snapshot_times=(0.0, 0.5))
    exact = math.exp(-0.5) * np.cos(x)
    check("fractional heat decay", float(np.max(np.abs(traj.snapshots[-1].values - exact))), 1e-10)

    quad = ProblemSpec(grid=grid, s=0.5, epsilon=0.05, hamiltonian=ham,
                       u0=u0, forcing=ZeroForcing(), T=0.5)
    oracle = hopf_lax_oracle(quad, 0.5)
    visc = viscous_solve(quad, snapshot_times=(0.0, 0.5))
    gap = float(np.max(np.abs(oracle.values - visc.snapshots[-1].values)))
    check("viscous vs Hopf-Lax (eps=0.05)", gap, 0.2)

    lf = monotone_reference(quad, 4, snapshot_times=(0.0, 0.5))
    gap_lf = float(np.max(np.abs(oracle.values - lf.snapshots[-1].values)))
    check("Lax-Friedrichs vs Hopf-Lax", gap_lf, 0.1)

    _log(f"selftest: {'OK' if failures == 0 else f'{failures} failure(s)'}")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fracvisc",
        description="Vanishing-viscosity rate experiments for periodic Hamilton-Jacobi equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_cfg in (
        ("solve", True),
        ("sweep", True),
        ("dual-check", True),
        ("one-sided", True),
        ("report", False),
        ("selftest", False),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=needs_cfg, default=None)
        p.add_argument("--output", default=None, help="output directory (overrides config)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.config is not None:
            cfg = parse_config_file(args.config)
        else:
            cfg = parse_config("", path="<defaults>")
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except OSError as exc:
        _log(f"cannot read config: {exc}")
        return 2

    out_dir = args.output or cfg.output_dir
    try:
        if args.command == "solve":
            return _cmd_solve(cfg, out_dir)
        if args.command == "sweep":
            return _cmd_sweep(cfg, out_dir)
        if args.command == "dual-check":
            return _cmd_dual_check(cfg, out_dir)
        if args.command == "one-sided":
            return _cmd_one_sided(cfg, out_dir)
        if args.command == "report":
            return _cmd_report(out_dir)
        if args.command == "selftest":
            return _cmd_selftest(cfg)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except Exception as exc:  # solver guards, IO failures: a failed run, not a usage error
        _log(f"error: {type(exc).__name__}: {exc}")
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
