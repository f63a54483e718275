"""Tests for the sweep/fit harness: initial-data presets, grid rule,
plan validation, rate fitting, sweep execution on closed-form problems and
deterministic report emission."""

import concurrent.futures
import json
import math
import os
import re

import numpy as np
import pytest

from fracvisc.hamiltonians import make_hamiltonian
from fracvisc import rates
from fracvisc.hj import BlowUpError, ConstantForcing, ZeroForcing, viscous_solve
from fracvisc.rates import (
    GRID_MAX,
    GRID_MIN,
    InitialData,
    OneSidedReport,
    PlanError,
    RateFit,
    SweepPlan,
    check_ladder,
    emit_report,
    fit_entry,
    fit_rate,
    format_float,
    one_sided_check,
    run_sweep,
    target_exponent,
    write_json,
)
from fracvisc.torus import TorusGrid

ZERO_H1 = make_hamiltonian("zero", 1)
ZERO_H2 = make_hamiltonian("zero", 2)


def zero_h_plan(**kw):
    args = dict(
        dim=1,
        s_values=(0.5,),
        epsilons=tuple(0.3 * 2.0**-k for k in range(5)),
        p_values=(2.0, math.inf),
        hamiltonian=ZERO_H1,
        u0=InitialData("cos"),
        forcing=ZeroForcing(),
        T=1.0,
        snapshot_times=tuple(np.linspace(0.0, 1.0, 16)),
        reference="hopf_lax",
        fine_factor=4,
        n_points=256,
    )
    args.update(kw)
    return SweepPlan(**args)


def cell_errors(result):
    """Every finished cell's measured errors, keyed by (s, eps)."""
    return {key: cell.errors for key, cell in result.cells.items()}


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def test_initial_data_kinds():
    g = TorusGrid(1, 64)
    x = g.nodes()[0]
    assert np.allclose(InitialData("cos").build(g).values, np.cos(x))
    bump = InitialData("bump").build(g)
    assert float(np.min(bump.values)) > 0.0 and float(np.max(bump.values)) == pytest.approx(1.0)
    co = InitialData("coeffs", (0.5, 0.0, 0.0, 0.25)).build(g)
    assert np.allclose(co.values, 0.5 * np.cos(x) + 0.25 * np.sin(2.0 * x))
    g2 = TorusGrid(2, 32)
    xs = g2.nodes()
    assert np.allclose(InitialData("cos2d").build(g2).values, np.cos(xs[0]) + np.cos(xs[1]))


def test_initial_data_validation():
    with pytest.raises(ValueError, match="unknown initial data"):
        InitialData("gauss")
    with pytest.raises(ValueError, match="even"):
        InitialData("coeffs", (1.0,))
    assert [type(v) for v in InitialData("coeffs", (1, 0)).params] == [float, float]
    with pytest.raises(ValueError, match="dim == 2"):
        InitialData("cos2d").build(TorusGrid(1, 32))
    with pytest.raises(ValueError, match="one-dimensional"):
        InitialData("coeffs", (1.0, 0.0)).build(TorusGrid(2, 32))


# ---------------------------------------------------------------------------
# grid rule
# ---------------------------------------------------------------------------


def test_resolution_rule_layer_widths():
    plan = zero_h_plan(n_points=None)
    # s = 1/2: layer width eps, need = 3 * 2pi / eps
    assert plan.n_for(0.5, 2.0**-6) == 2048
    assert plan.n_for(0.5, 2.0**-8) == 8192
    # large eps clamps at the floor, small eps at the cap
    assert plan.n_for(0.5, 0.25) == 1024
    assert plan.n_for(0.25, 2.0**-5) == 16384
    # supercritical orders need far fewer points
    assert plan.n_for(1.0, 2.0**-6) == 1024
    # eps^(1/(2s)) underflows to 0 (1e-7^50) or to a subnormal (4e-7^50): the cap
    assert [plan.n_for(0.01, eps) for eps in (1e-7, 4e-7, 1.6e-6)] == [GRID_MAX] * 3
    # eps^(1/(2s)) overflows (1e7^50): a layer wider than any grid's need, so the floor
    assert [plan.n_for(0.01, eps) for eps in (1e7, 5e6)] == [GRID_MIN] * 2


# ---------------------------------------------------------------------------
# sweep plan validation
# ---------------------------------------------------------------------------


def test_sweep_plan_validation(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("run_sweep solved a plan it should have rejected")

    # a short ladder or a forced hopf_lax plan is a valid plan; run_sweep rejects it before any solve
    monkeypatch.setattr(rates, "viscous_solve", no_solve)
    with pytest.raises(ValueError, match="at least 5"):
        run_sweep(zero_h_plan(epsilons=(0.4, 0.2, 0.1, 0.05)))
    with pytest.raises(ValueError, match="four octaves"):
        run_sweep(zero_h_plan(epsilons=(0.4, 0.3, 0.2, 0.15, 0.1)))
    with pytest.raises(ValueError, match="zero forcing"):
        run_sweep(zero_h_plan(forcing=ConstantForcing(1.0)))
    with pytest.raises(ValueError, match="positive"):
        zero_h_plan(epsilons=(0.4, 0.2, 0.1, 0.05, -0.025))
    with pytest.raises(ValueError, match="viscosities must not repeat"):
        zero_h_plan(epsilons=(0.1, 0.1, 0.1, 0.1, 0.00625))
    with pytest.raises(ValueError, match="s values must not repeat"):
        zero_h_plan(s_values=(0.5, 0.5))
    with pytest.raises(ValueError, match="p values must not repeat"):
        zero_h_plan(p_values=(2.0, 2.0))
    with pytest.raises(ValueError, match="viscosities must not repeat, nor print alike"):  # both read "0.1"
        zero_h_plan(epsilons=(0.1, 0.1000001, 0.05, 0.025, 0.0125, 0.00625))
    with pytest.raises(ValueError, match="s values"):
        zero_h_plan(s_values=(1.5,))
    with pytest.raises(ValueError, match="p values"):
        zero_h_plan(p_values=(0.5,))
    with pytest.raises(ValueError, match="reference"):
        zero_h_plan(reference="exact")
    with pytest.raises(ValueError, match="power of two"):
        zero_h_plan(n_points=100)
    with pytest.raises(ValueError, match="snapshot times"):
        zero_h_plan(snapshot_times=(0.0, 2.0))
    with pytest.raises(PlanError, match="non-empty") as exc:  # no default set: the default experiment is config's
        zero_h_plan(snapshot_times=())
    assert exc.value.field == "snapshot_times"
    # the rules a config used to make alone; each names the plan field at fault
    for bad, name, rule in ((dict(T=0.0), "T", "T must be positive"), (dict(T=math.inf), "T", "T must be positive"),
                            (dict(reference="monotone", fine_factor=3), "fine_factor", "fine factor")):
        with pytest.raises(PlanError, match=rule) as exc:
            zero_h_plan(**bad)
        assert exc.value.field == name
    plan = zero_h_plan()
    assert plan.epsilons[0] == max(plan.epsilons)
    assert zero_h_plan(snapshot_times=(1.0, 0.25, 0.0, 0.25)).snapshot_times == (0.0, 0.25, 1.0)  # sorted, distinct
    assert plan.n_for(0.5, 0.1) == 256  # explicit n_points wins over the rule


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------


def test_fit_rate_recovers_power_law():
    eps = 2.0 ** -np.arange(2, 10)
    fit = fit_rate(eps, 3.0 * eps**0.75)
    assert fit.exponent == pytest.approx(0.75, abs=1e-12)
    assert fit.prefactor == pytest.approx(3.0, rel=1e-10)
    assert fit.residual_power < 1e-12
    assert fit.preferred == "power"
    assert fit.n_used == 8


def test_fit_rate_recognizes_log_correction():
    eps = 2.0 ** -np.arange(2, 10)
    fit = fit_rate(eps, 0.7 * eps * np.abs(np.log(eps)))
    assert fit.preferred == "power_log"
    assert fit.residual_power_log < 1e-12
    # the pure power fit absorbs the log into an exponent below one
    assert 0.7 < fit.exponent < 1.0
    assert fit.accepted_exponent(allow_log=True) == 1.0
    assert fit.accepted_exponent(allow_log=False) == fit.exponent


def test_fit_rate_filters_and_validates():
    eps = np.array([0.5, 0.25, 0.125, 0.0625])
    errs = np.array([0.5, 0.25, np.nan, 0.0625])
    fit = fit_rate(eps, errs)
    assert fit.n_used == 3 and fit.exponent == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least 3"):
        fit_rate([0.5, 0.25], [0.1, 0.05])


def test_fit_rate_leaves_out_viscosities_from_one_up(tmp_path):
    # at eps = 1 the eps |log eps| model is 0: its fit would read inf and NaN,
    # and a "tie" at s = 1/2, p = inf passes whatever the slope
    eps = np.array([2.0, 1.0, 0.5, 0.25, 0.125, 0.0625])
    fit = fit_rate(eps, 0.3 * eps**2)
    assert fit == fit_rate(eps[2:], 0.3 * eps[2:] ** 2)
    assert fit.n_used == 4 and math.isfinite(fit.prefactor_log) and math.isfinite(fit.residual_power_log)
    assert fit.preferred == "power" and fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit_entry(0.5, 2.0, eps[:4], 0.3 * eps[:4] ** 2)[1] == {"status": "insufficient data", "n_points": 4}
    with pytest.raises(ValueError, match="below 1"):
        check_ladder(tuple(eps[1:]))
    with pytest.raises(ValueError, match="JSON compliant"):
        write_json(str(tmp_path / "r.json"), {"residual_power_log": math.nan})


def test_accepted_exponent_tie_logic():
    fit = RateFit(
        exponent=0.93, prefactor=1.0, residual_power=0.01,
        prefactor_log=1.0, residual_power_log=0.011, preferred="tie", n_used=5,
    )
    assert fit.accepted_exponent(allow_log=True) == 1.0
    assert fit.accepted_exponent() == 0.93


def test_target_exponent_table():
    assert target_exponent(0.3, 2.0) == 1.0
    assert target_exponent(0.3, math.inf) == 1.0
    assert target_exponent(0.5, 4.0) == 1.0
    assert target_exponent(0.5, math.inf) == 1.0
    assert target_exponent(0.75, math.inf) == pytest.approx(1.0 / 1.5)
    assert target_exponent(0.75, 2.0) is None
    assert target_exponent(1.0, math.inf) == 0.5
    assert target_exponent(1.0, 2.0) == 0.75
    assert target_exponent(1.0, 4.0) == 0.625


# ---------------------------------------------------------------------------
# sweep execution on the zero-Hamiltonian family (exact heat flows)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def zero_h_sweep():
    return run_sweep(zero_h_plan())


def test_sweep_rates_linear_in_eps(zero_h_sweep):
    # u_eps - u = (exp(-eps t |k|^(2s)) - 1) u0 decays linearly in eps
    for p in (2.0, math.inf):
        eps, err = zero_h_sweep.errors_for(0.5, p)
        assert eps.size == 5 and np.all(np.diff(eps) < 0)
        fit = fit_rate(eps, err)
        assert 0.88 < fit.exponent < 1.02, f"p={p}: slope {fit.exponent}"
    assert zero_h_sweep.failures == ()
    assert zero_h_sweep.eval_n[0.5] == 256


def test_sweep_cell_diagnostics(zero_h_sweep):
    cell = zero_h_sweep.cells[(0.5, 0.3)]
    assert cell.n_points == 256 and cell.n_steps > 0
    assert cell.k_profile.shape == (len(zero_h_sweep.plan.snapshot_times),)
    # heat flow of cos: curvature probe stays near 1, gradient near 1
    assert 0.9 < cell.k_profile[0] <= 1.0
    assert cell.one_sided_error is not None and cell.one_sided_error > 0.0
    # -(-Delta)^(1/2) u_eps = -exp(-eps t) cos x, largest over t > 0 at the first snapshot t = 1/15
    assert cell.one_sided_bound == pytest.approx(math.exp(-0.3 / 15.0), rel=1e-10)


def test_sweep_determinism(zero_h_sweep):
    again = run_sweep(zero_h_plan())
    assert cell_errors(again) == cell_errors(zero_h_sweep)


def test_sweep_parallel_matches_sequential(zero_h_sweep):
    pooled = run_sweep(zero_h_plan(), threads=2)
    assert cell_errors(pooled) == cell_errors(zero_h_sweep)


def test_sweep_pool_deals_the_cells_of_a_grid_across_workers(monkeypatch, zero_h_sweep):
    # the five cells share one grid; two workers form two batches, and a thousand
    # form five one-cell batches and start only five workers
    batches, workers = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            jobs = list(jobs)
            batches.append([[eps for _, eps in job[2]] for job in jobs])
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)  # run_sweep imports it there
    eps = zero_h_plan().epsilons
    for threads in (2, 1000):
        pooled = run_sweep(zero_h_plan(), threads=threads)
        assert cell_errors(pooled) == cell_errors(zero_h_sweep)
    assert batches == [[list(eps[0::2]), list(eps[1::2])], [[e] for e in eps]]
    assert workers == [2, 5]


def test_sweep_across_grids_matches_pool_and_solo_solves(monkeypatch):
    # cells on three grids (64, 128, 256), the 256 one shared by both orders;
    # only the parent process reads the grid rule, so the pool sees the same grids
    monkeypatch.setattr(rates, "GRID_MIN", 64)
    monkeypatch.setattr(rates, "GRID_MAX", 256)
    plan = zero_h_plan(
        s_values=(0.25, 0.5),
        hamiltonian=make_hamiltonian("quadratic", 1),
        T=0.5,
        snapshot_times=(0.0, 0.25, 0.5),
        n_points=None,
    )
    seq = run_sweep(plan, threads=1)
    pooled = run_sweep(plan, threads=2)
    assert sorted({c.n_points for c in seq.cells.values()}) == [64, 128, 256]
    assert cell_errors(seq) == cell_errors(pooled) and seq.failures == pooled.failures == ()
    assert seq.eval_n == pooled.eval_n == {0.25: 256, 0.5: 64}
    assert seq.cells.keys() == pooled.cells.keys()
    for key, cell in seq.cells.items():
        solo = viscous_solve(plan.problem(*key, TorusGrid(1, cell.n_points)), snapshot_times=plan.snapshot_times)
        for other in (pooled.cells[key], solo):
            assert cell.n_steps == other.n_steps
            assert np.array_equal(cell.k_profile, other.k_profile)


def test_sweep_computes_one_reference_per_evaluation_grid(monkeypatch):
    calls = []
    reference = rates._reference_values

    def counting(plan, eval_n):
        calls.append(eval_n)
        return reference(plan, eval_n)

    monkeypatch.setattr(rates, "_reference_values", counting)
    both = run_sweep(zero_h_plan(s_values=(0.25, 0.5)))
    assert calls == [256]
    apart = [run_sweep(zero_h_plan(s_values=(s,))) for s in (0.25, 0.5)]
    assert cell_errors(both) == {**cell_errors(apart[0]), **cell_errors(apart[1])}


def test_one_sided_check_on_heat_flows(zero_h_sweep):
    report = one_sided_check(zero_h_sweep)
    # sup_{t>0} sup_x [-(-Delta)^(1/2) u_eps] = exp(-eps / 15), from the first snapshot t = 1/15
    bounds = np.exp(-report.epsilons / 15.0)
    np.testing.assert_allclose(report.bounds, bounds, rtol=1e-10)
    assert report.uniform and report.spread == pytest.approx(1.0 - bounds.min() / bounds.max(), rel=1e-8)
    assert report.fit is not None and report.passes()
    assert report.epsilons.size == 5


def test_one_sided_bound_leaves_out_the_datum():
    # zero H, one snapshot after t = 0: the bounds exp(-eps) run from 0.45 to 0.95
    # while every t = 0 value is the datum's, 1, so only the t > 0 part can spread
    plan = zero_h_plan(epsilons=tuple(0.8 * 2.0**-k for k in range(5)), T=1.0, snapshot_times=(0.0, 1.0),
                       n_points=64)
    report = one_sided_check(run_sweep(plan))
    np.testing.assert_allclose(report.bounds, np.exp(-report.epsilons), rtol=1e-10)
    assert report.spread > 0.2 and not report.uniform and report.passes()


def test_sweep_2d_path():
    plan = SweepPlan(
        dim=2,
        s_values=(0.5,),
        epsilons=tuple(0.3 * 2.0**-k for k in range(5)),
        p_values=(2.0,),
        hamiltonian=ZERO_H2,
        u0=InitialData("cos2d"),
        forcing=ZeroForcing(),
        T=0.5,
        snapshot_times=(0.0, 0.25, 0.5),
        reference="hopf_lax",
        fine_factor=4,
        n_points=32,
    )
    result = run_sweep(plan)
    eps, err = result.errors_for(0.5, 2.0)
    fit = fit_rate(eps, err)
    assert 0.85 < fit.exponent < 1.05


def test_sweep_records_guard_failures():
    # an initial datum above the blow-up guard kills every viscous cell at
    # the first snapshot; the reference does not care and the sweep reports
    # the failures instead of raising
    plan = zero_h_plan(u0=InitialData("coeffs", (2.0e6, 0.0)))
    result = run_sweep(plan)
    assert len(result.failures) == 5
    assert all("BlowUpError" in reason for _, _, reason in result.failures)
    assert cell_errors(result) == {}


def test_sweep_drops_exactly_the_failed_cell(monkeypatch, zero_h_sweep, tmp_path):
    # the middle viscosity of the batch blows up; its neighbours still finish
    plan = zero_h_plan()
    lost = plan.epsilons[2]

    def one_blows_up(batch, **kw):
        return [BlowUpError(0.5, "forced") if problem.epsilon == lost else traj
                for problem, traj in zip(batch, viscous_solve(batch, **kw))]

    monkeypatch.setattr(rates, "viscous_solve", one_blows_up)
    result = run_sweep(plan)
    kept = tuple(e for e in plan.epsilons if e != lost)
    assert [(s, eps) for s, eps, _ in result.failures] == [(0.5, lost)]
    assert cell_errors(result) == {key: err for key, err in cell_errors(zero_h_sweep).items() if key[1] != lost}
    for p in plan.p_values:
        eps, err = result.errors_for(0.5, p)
        assert tuple(eps) == kept
        assert list(err) == [zero_h_sweep.cells[(0.5, e)].errors[p] for e in kept]
    emit_report(result, str(tmp_path))
    with open(tmp_path / "rates.csv") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    assert [(float(r[2]), r[1]) for r in rows] == [(e, p) for p in ("2", "inf") for e in kept]
    assert result.errors_for(0.5, 4.0)[0].size == result.errors_for(0.25, 2.0)[0].size == 0


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_emit_report_files_and_determinism(zero_h_sweep, tmp_path):
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    rep1 = emit_report(zero_h_sweep, d1, config_echo={"note": "x"},
                       one_sided=one_sided_check(zero_h_sweep))
    emit_report(zero_h_sweep, d2, config_echo={"note": "x"},
                one_sided=one_sided_check(zero_h_sweep))
    for name in ("rates.csv", "report.json", "plots.gp"):
        with open(os.path.join(d1, name), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, name), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, f"{name} not byte-identical across identical emissions"

    with open(os.path.join(d1, "rates.csv")) as fh:
        header = fh.readline().strip()
        assert header == "s,p,epsilon,error,norm,ref_kind"
        rows = [line.strip().split(",") for line in fh if line.strip()]
    assert len(rows) == 10  # 5 epsilons x 2 p-values
    assert {r[4] for r in rows} == {"Lp", "sup"}

    with open(os.path.join(d1, "report.json")) as fh:
        rep_loaded = json.load(fh)
    assert rep_loaded["fits"] == json.loads(json.dumps(rep1["fits"]))
    key = "s=0.5,p=2"
    assert key in rep_loaded["fits"]
    entry = rep_loaded["fits"][key]
    assert entry["target"] == 1.0 and "passed" in entry
    assert rep_loaded["config"] == {"note": "x"}
    assert rep_loaded["one_sided"]["uniform"] is True
    assert rep_loaded["eval_n"] == {"0.5": 256}


def test_plots_gp_conditions_select_their_slices_rows(tmp_path):
    # each series' condition, read as gnuplot reads rates.csv, selects exactly the rows of its (s, p) slice;
    # s = 0.333333333 written with %g (0.333333) would select none
    plan = zero_h_plan(s_values=(0.25, 0.333333333, 0.5), n_points=64, snapshot_times=(0.0, 0.5, 1.0))
    emit_report(run_sweep(plan), str(tmp_path))
    rows = [line.split(",") for line in (tmp_path / "rates.csv").read_text().splitlines()[1:]]
    conds = re.findall(r"\(stringcolumn\(2\) eq '([^']*)' && abs\(\$1 - ([^)]*)\) < 1e-12\)",
                       (tmp_path / "plots.gp").read_text())
    slices = [(s, p) for s in plan.s_values for p in plan.p_values]
    assert len(conds) == len(slices) == 6
    for (label, s_text), (s, p) in zip(conds, slices):
        picked = [r for r in rows if r[1] == label and abs(float(r[0]) - float(s_text)) < 1e-12]
        mine = [r for r in rows if r[0] == format_float(s) and r[1] == ("inf" if math.isinf(p) else f"{p:g}")]
        assert picked == mine and len(mine) == 5, (s, p)


@pytest.mark.parametrize("spread, slope, passed", [
    (0.05, 0.5, False),  # uniform bound, slope below 0.9
    (0.05, None, False),  # uniform bound, no fit
    (0.5, 0.5, True),  # the bound spreads, so the rate check does not apply
], ids=["uniform-slow", "uniform-no-fit", "not-uniform"])
def test_emit_report_one_sided_pass_flag(zero_h_sweep, tmp_path, spread, slope, passed):
    fit = None if slope is None else RateFit(exponent=slope, prefactor=1.0, residual_power=0.01, prefactor_log=1.0,
                                             residual_power_log=0.1, preferred="power", n_used=5)
    eps = np.array(zero_h_sweep.plan.epsilons)
    one_sided = OneSidedReport(epsilons=eps, bounds=np.ones_like(eps), spread=spread, uniform=spread < 0.2,
                               errors=np.sqrt(eps), fit=fit)
    emit_report(zero_h_sweep, str(tmp_path), one_sided=one_sided)
    entry = json.loads((tmp_path / "report.json").read_text())["one_sided"]
    assert entry["passed"] is passed
    assert entry["slope"] == slope and entry["spread"] == spread


def test_format_float_canonical():
    assert format_float(1.0) == "1.0000000000000000e+00"
    assert float(format_float(math.pi)) == math.pi