"""End-to-end tests of the command line driver and config parsing: exit
codes, emitted files, determinism of reruns, and error reporting."""

import json
import math
import os
import pathlib
import subprocess
import sys
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracvisc
from fracvisc.cli import COMMANDS, _snapshot_csv, env_threads, main
from fracvisc.config import ConfigError, parse_config
from fracvisc.hamiltonians import make_hamiltonian
from fracvisc.hj import viscous_solve
from fracvisc.rates import format_float
from fracvisc.torus import Field, TorusGrid

BASE = """
dim = 1
n_points = 256
s_list = 0.5
epsilon_list = 0.3,0.15,0.075,0.0375,0.01875
hamiltonian = zero
u0 = cos
T = 1.0
p_list = 2,inf
snapshot_count = 6
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def read_all_bytes(d):
    out = {}
    for name in sorted(os.listdir(d)):
        with open(os.path.join(d, name), "rb") as fh:
            out[name] = fh.read()
    return out


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_parse_config_defaults_and_overrides():
    cfg = parse_config("s_list = 0.25, 0.5\nT = 1.5\n")
    plan = cfg.plan
    assert plan.s_values == (0.25, 0.5)
    assert plan.T == 1.5
    assert plan.dim == 1 and plan.n_points is None
    assert plan.hamiltonian == make_hamiltonian("quadratic", 1)
    assert len(plan.snapshot_times) == 16 and plan.snapshot_times[-1] == 1.5
    # geometric ladder default: 7 entries, ratio 1/2
    assert len(plan.epsilons) == 7
    assert plan.epsilons[1] == pytest.approx(plan.epsilons[0] / 2.0)
    assert cfg.lines["T"] == 2 and cfg.lines["dim"] is None


def test_parse_config_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError) as err:
        parse_config("T = 1.0\nviscosity = 0.5\n", path="bad.cfg")
    msg = str(err.value)
    assert "viscosity" in msg and "line 2" in msg


def test_parse_config_value_errors():
    with pytest.raises(ConfigError, match="dim"):
        parse_config("dim = 3\n")
    with pytest.raises(ConfigError, match="n_points"):
        parse_config("n_points = 100\n")
    with pytest.raises(ConfigError, match="s values"):
        parse_config("s_list = 0.0\n")
    with pytest.raises(ConfigError, match="positive"):
        parse_config("epsilon_list = 0.5,-0.1\n")
    with pytest.raises(ConfigError, match="geometric"):
        parse_config("epsilon_list = geometric:0.5,2.0,5\n")
    with pytest.raises(ConfigError, match="T"):
        parse_config("T = 0\n")
    with pytest.raises(ConfigError, match="forcing"):
        parse_config("forcing = ramp:1\n")
    with pytest.raises(ConfigError, match="initial data"):
        parse_config("u0 = spike\n")
    with pytest.raises(ConfigError, match="reference"):
        parse_config("reference = characteristics\n")
    with pytest.raises(ConfigError, match="reference"):
        parse_config("reference = monotonex\n")
    with pytest.raises(ConfigError, match="positive"):  # 0.5 * 0.1**400 underflows to 0
        parse_config("epsilon_list = geometric:0.5,0.1,400\n")
    with pytest.raises(ConfigError, match="repeat"):  # subnormal rungs round onto each other
        parse_config("epsilon_list = geometric:1e-322,0.99,5\n")
    with pytest.raises(ConfigError, match="repeat"):
        parse_config("p_list = 2,inf,inf\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("just words\n")


@pytest.mark.parametrize("value", ["const:abc", "cos_wave:1,x", "const:nan", "cos_wave:inf,1"])
def test_bad_forcing_value_names_key_and_line(tmp_path, value):
    with pytest.raises(ConfigError) as exc:
        parse_config(f"T = 1.0\nforcing = {value}\n")
    assert exc.value.key == "forcing" and exc.value.line == 2
    assert main(["solve", "--config", write_cfg(tmp_path, f"forcing = {value}\n")]) == 2


def test_parse_config_comments_and_echo_roundtrip():
    text = "# experiment\nT = 1.25  # short horizon\n\noutput_dir = runs/a\n"
    cfg = parse_config(text)
    assert cfg.plan.T == 1.25 and cfg.output_dir == "runs/a"
    again = parse_config(cfg.to_lines())
    assert again == cfg


def test_parse_config_monotone_reference_with_factor():
    cfg = parse_config("reference = monotone:8\nforcing = const:0.5\n")
    assert cfg.plan.reference == "monotone" and cfg.plan.fine_factor == 8
    with pytest.raises(ConfigError, match="fine factor"):
        parse_config("reference = monotone:3\n")


# Valid examples for every key; none asks for a ladder or snapshot count that
# would take long to build.
VALID = {
    "dim": ["1", "2"],
    "n_points": ["auto", "8", "256"],
    "s_list": ["0.5", "0.25, 0.5", "1"],
    "epsilon_list": ["geometric:0.0625,0.5,7", "0.3,0.15,0.075,0.0375,0.01875", "0.25"],
    "hamiltonian": ["quadratic", "zero", "anisotropic_quadratic:1", "anisotropic_quadratic:1,2",
                    "log_cosh_regularized", "log_cosh_regularized:0.2"],
    "u0": ["cos", "cos2d", "bump", "coeffs:1,0", "coeffs:0.5,0,0,0.25"],
    "forcing": ["zero", "const:0.5", "cos_wave:0.5,1.0"],
    "T": ["2.0", "0.5"],
    "p_list": ["1.5,2,4,inf", "2", "inf"],
    "snapshot_count": ["2", "16"],
    "reference": ["hopf_lax", "monotone", "monotone:8"],
    "output_dir": ["out", "runs/a b"],
}
# Short text from the characters the values are made of; at most 4 characters
# for snapshot_count, so it asks for at most 9999 snapshots.
VALUE_CHARS = "0123456789.,:-+e infabcos_#= "
ENTRY = st.sampled_from(sorted(VALID)).flatmap(lambda key: st.tuples(st.just(key), st.one_of(
    st.sampled_from(VALID[key]), st.text(VALUE_CHARS, max_size=4 if key == "snapshot_count" else 6))))


def test_property_examples_cover_every_key():
    assert set(VALID) == {key for key, _ in parse_config("").raw}


@settings(max_examples=400, deadline=None)
@given(st.lists(ENTRY, max_size=8))
def test_parse_config_is_total_and_round_trips(entries):
    # parse_config either returns a config that round-trips through to_lines()
    # or raises ConfigError naming a key and a line of the text that sets it
    text = "".join(f"{key} = {value}\n" for key, value in entries)
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert exc.line is not None and entries[exc.line - 1][0] == exc.key, str(exc)
        return
    assert parse_config(cfg.to_lines()) == cfg


# ---------------------------------------------------------------------------
# cli commands
# ---------------------------------------------------------------------------


def test_cli_usage_errors(tmp_path):
    for command in COMMANDS:  # every subcommand requires --config
        assert main([command, "--output", str(tmp_path / command)]) == 2
        assert not (tmp_path / command).exists()
    assert main(["mystery"]) == 2
    assert main(["solve", "--config", str(tmp_path / "absent.cfg")]) == 2
    bad = write_cfg(tmp_path, "bogus_key = 1\n")
    assert main(["sweep", "--config", bad]) == 2


def test_cli_solve_writes_snapshots_deterministically(tmp_path):
    cfg = write_cfg(tmp_path, BASE + "epsilon_list = 0.25\nsnapshot_count = 3\nT = 0.5\n")
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["solve", "--config", cfg, "--output", out1]) == 0
    assert main(["solve", "--config", cfg, "--output", out2]) == 0
    files1, files2 = read_all_bytes(out1), read_all_bytes(out2)
    assert set(files1) == {
        "solve.json",
        "u_s0.5_eps0.25_t0.csv",
        "u_s0.5_eps0.25_t0.25.csv",
        "u_s0.5_eps0.25_t0.5.csv",
    }
    for name in files1:
        if name == "solve.json":
            continue  # echoes the output dir, which differs
        assert files1[name] == files2[name], f"{name} differs between reruns"
    meta = json.loads(files1["solve.json"])
    assert meta["n_points"] == 256 and len(meta["times"]) == 3
    assert meta["config"]["hamiltonian"] == "zero"
    # a library call at its default step solves what the command solves
    plan = parse_config(pathlib.Path(cfg).read_text()).plan
    traj = viscous_solve(plan.problem(0.5, 0.25, TorusGrid(1, 256)), snapshot_times=plan.snapshot_times)
    assert meta["n_steps"] == traj.n_steps
    assert meta["grid_schedule"] == [list(entry) for entry in traj.grid_schedule]


@pytest.mark.parametrize("dim", [1, 2])
def test_snapshot_csv_renders_each_value_as_format_float(tmp_path, dim):
    vals = np.array([-0.0, 5e-324, 1e300, -1e300, 1.0 / 3.0, -2.5e-7, 0.0, math.pi])
    field = Field(TorusGrid(dim, 8), vals if dim == 1 else np.array([np.roll(vals, i) for i in range(8)]))
    path = tmp_path / "snap.csv"
    _snapshot_csv(field, str(path))
    if dim == 1:
        lines = ["i,value"] + [f"{i},{format_float(v)}" for i, v in enumerate(field.values)]
    else:
        lines = ["i,j,value"] + [f"{i},{j},{format_float(field.values[i, j])}" for i in range(8) for j in range(8)]
    assert path.read_bytes() == "".join(line + "\n" for line in lines).encode()


def test_importing_the_cli_loads_no_process_pool():
    # a pooled sweep imports the pool when it starts; every other command skips its cost
    src = str(pathlib.Path(fracvisc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, fracvisc.cli; "
            "print(*[m for m in ('concurrent.futures.process', 'multiprocessing') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == ""


def test_cli_sweep_and_report(tmp_path):
    cfg = write_cfg(tmp_path, BASE)
    out = str(tmp_path / "sweep")
    assert main(["sweep", "--config", cfg, "--output", out]) == 0
    names = set(os.listdir(out))
    assert {"rates.csv", "report.json", "plots.gp"} <= names

    with open(os.path.join(out, "report.json")) as fh:
        rep = json.load(fh)
    fit = rep["fits"]["s=0.5,p=2"]
    assert fit["passed"] is True and 0.85 < fit["exponent"] < 1.05

    # identical rerun into a second directory: data files byte-identical
    out2 = str(tmp_path / "sweep2")
    assert main(["sweep", "--config", cfg, "--output", out2]) == 0
    for name in ("rates.csv", "plots.gp"):
        with open(os.path.join(out, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b = fh.read()
        assert a == b


def test_cli_one_sided(tmp_path, capsys):
    # an s = 0.5 sweep records the one-sided bound check in report.json
    cfg = write_cfg(tmp_path, BASE)
    out = tmp_path / "os"
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
    assert "sweep: one-sided bound spread" in capsys.readouterr().err
    one_sided = json.loads((out / "report.json").read_text())["one_sided"]
    assert one_sided["uniform"] is True and one_sided["passed"] is True
    assert one_sided["slope"] is not None and one_sided["slope"] > 0.85
    assert len(one_sided["epsilons"]) == 5


def test_cli_two_mode_sweep_fits_every_norm(tmp_path):
    # u0 = cos x + 0.5 sin 2x has two competing basins of the Hopf-Lax minimum;
    # an oracle that settles in the wrong one puts an error floor under the fine rungs
    cfg = write_cfg(tmp_path, "u0 = coeffs:1,0,0,0.5\nepsilon_list = geometric:0.0625,0.5,5\n")
    out = tmp_path / "two"
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
    fits = json.loads((out / "report.json").read_text())["fits"]
    assert fits and all(fit["passed"] is True for fit in fits.values()), fits
    assert fits["s=0.5,p=inf"]["exponent"] >= 0.98


def test_cli_forced_sweep_against_the_monotone_reference(tmp_path):
    # the benchmark's forced layer-pass sweep: a forcing rules out the oracle,
    # so every error is measured against the Lax-Friedrichs reference
    cfg = write_cfg(tmp_path, "n_points = 64\nT = 0.5\nsnapshot_count = 3\nepsilon_list = geometric:0.0625,0.5,5\n"
                              "s_list = 0.75\nforcing = cos_wave:0.5,1.0\nreference = monotone:4\n")
    out = tmp_path / "mono"
    assert main(["sweep", "--config", cfg, "--output", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["failures"] == []
    assert "one_sided" not in rep  # s = 0.75 records no one-sided data
    header, *rows = (out / "rates.csv").read_text().splitlines()
    col = header.split(",").index("ref_kind")
    kinds = [row.split(",")[col] for row in rows]
    assert len(kinds) == 5 * 4 and set(kinds) == {"monotone"}


def test_cli_sweep_skips_the_one_sided_check_without_cells(tmp_path, capsys):
    # a datum above the blow-up guard kills every cell, so no s = 0.5 cell is left to check
    cfg = write_cfg(tmp_path, BASE + "u0 = coeffs:2e6,0\n")
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "s")]) == 1
    err = capsys.readouterr().err
    assert "sweep: one-sided check skipped" in err and "sweep: every cell failed" in err
    assert "one_sided" not in json.loads((tmp_path / "s" / "report.json").read_text())


def test_cli_sweep_logs_each_failed_or_unfitted_slice(tmp_path, capsys):
    # CI's bump sweep is under-resolved at n = 256: p = 2, 4 and inf fit below their targets, one stderr line each;
    # the exit status stays 0
    cfg = write_cfg(tmp_path, "u0 = bump\nn_points = 256\nsnapshot_count = 5\nepsilon_list = geometric:0.0625,0.5,5\n")
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "bump")]) == 0
    fits = json.loads((tmp_path / "bump" / "report.json").read_text())["fits"]
    failed = [key for key, fit in fits.items() if fit.get("passed") is False]
    assert failed == ["s=0.5,p=2", "s=0.5,p=4", "s=0.5,p=inf"]
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("sweep: fit ")]
    assert lines == [f"sweep: fit {key} FAILED: exponent {fits[key]['exponent']:.3f} < target - 0.1 = 0.900"
                     for key in failed]
    # every cell blown up: each slice is an insufficient-data line, and the exit status stays 1
    cfg = write_cfg(tmp_path, BASE + "u0 = coeffs:2e6,0\n", name="lost.cfg")
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "lost")]) == 1
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("sweep: fit ")]
    assert lines == [f"sweep: fit s=0.5,p={p}: insufficient data (0 cells)" for p in ("2", "inf")]


def test_report_config_echo_parses_to_the_same_plan(tmp_path):
    # report.json's config echo, written back as key = value lines, re-runs the reported experiment
    text = ("n_points = 64\nT = 0.5\nsnapshot_count = 3\nepsilon_list = geometric:0.0625,0.5,5\n"
            "s_list = 0.75, 0.333333333\np_list = 2,inf\nhamiltonian = log_cosh_regularized:0.2\n"
            "u0 = coeffs:0.6,0.8\nforcing = cos_wave:0.5,1.0\nreference = monotone:8\n")
    out = tmp_path / "first"
    assert main(["sweep", "--config", write_cfg(tmp_path, text), "--output", str(out)]) == 0
    echo = json.loads((out / "report.json").read_text())["config"]
    again = parse_config("".join(f"{key} = {value}\n" for key, value in echo.items()))
    assert again.plan == parse_config(text).plan and again.output_dir == str(out)


@pytest.mark.parametrize("command", ["one-sided", "report", "selftest"])
def test_cli_retired_commands_exit_2(tmp_path, command):
    cfg = write_cfg(tmp_path, BASE)
    assert main([command, "--config", cfg, "--output", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_cli_rejects_bad_thread_count(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("FRACVISC_THREADS", value)
    cfg = write_cfg(tmp_path, BASE)
    assert main(["sweep", "--config", cfg, "--output", str(tmp_path / "s")]) == 2
    assert "FRACVISC_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
def test_sweep_threads_from_environment(monkeypatch, value):
    # only the CLI reads FRACVISC_THREADS; a bad value is a ConfigError, which main turns into exit 2
    monkeypatch.setenv("FRACVISC_THREADS", value)
    with pytest.raises(ConfigError, match="FRACVISC_THREADS"):
        env_threads()
    monkeypatch.setenv("FRACVISC_THREADS", "3")
    assert env_threads() == 3
    monkeypatch.delenv("FRACVISC_THREADS")
    assert env_threads() == 1


def test_cli_dual_check(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """
dim = 1
n_points = 512
s_list = 0.5
epsilon_list = 0.25,0.125
hamiltonian = quadratic
u0 = cos
T = 1.5
p_list = 2
snapshot_count = 16
""",
    )
    out = str(tmp_path / "dual")
    assert main(["dual-check", "--config", cfg, "--output", out]) == 0
    with open(os.path.join(out, "dual_report.json")) as fh:
        rep = json.load(fh)
    assert len(rep["checks"]) == 1
    chk = rep["checks"][0]
    assert chk["eps"] == 0.25 and chk["eta"] == 0.125 and chk["q"] == 2.0
    assert chk["gronwall_ok"] is True
    assert chk["max_ratio"] <= 1.01
    assert chk["duality_residual"] <= 0.02
    assert chk["mass_drift"] <= 1e-12
    rho_files = [n for n in os.listdir(out) if n.startswith("rho_")]
    assert len(rho_files) == 16


def test_cli_dual_check_runs_every_check_at_large_q(tmp_path):
    # at q = 256 the datum's power of |w| ~ 1e-2 and the bound's q-th powers under- or overflow
    # unless each is scaled first; every (pair, q) still gets its check
    cfg = write_cfg(tmp_path, "n_points = 64\nT = 0.5\nsnapshot_count = 3\n"
                              "epsilon_list = 0.1,0.05,0.025\np_list = 2,256\n")
    out = tmp_path / "d"
    assert main(["dual-check", "--config", cfg, "--output", str(out)]) == 0
    checks = json.loads((out / "dual_report.json").read_text())["checks"]
    assert [(c["eta"], c["q"]) for c in checks] == [(0.05, 2.0), (0.05, 256.0), (0.025, 2.0), (0.025, 256.0)]


def test_cli_dual_check_reports_the_ratio_before_tau(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE.replace("n_points = 256", "n_points = 64")
                    + "epsilon_list = 0.2,0.1\nhamiltonian = quadratic\np_list = 2,4\nT = 2.0\n")
    out = str(tmp_path / "d")
    assert main(["dual-check", "--config", cfg, "--output", out]) == 0
    with open(os.path.join(out, "dual_report.json")) as fh:
        checks = json.load(fh)["checks"]
    assert [c["q"] for c in checks] == [2.0, 4.0]
    for chk in checks:  # the ratio is 1 at tau by construction; before tau the solution sets it
        assert chk["max_ratio_before_tau"] < 0.999 < chk["max_ratio"] <= 1.01
    worst, before = max(c["max_ratio"] for c in checks), max(c["max_ratio_before_tau"] for c in checks)
    assert f"worst Gronwall ratio {worst:.4f} ({before:.4f} before tau)," in capsys.readouterr().err


def test_cli_dual_check_solves_each_viscosity_once(tmp_path, monkeypatch):
    import fracvisc.cli as cli

    solved, batches = [], []
    solve, dual = cli.viscous_solve, cli.dual_solve

    def counting_solve(problem, **kwargs):
        solved.append([p.epsilon for p in problem])
        return solve(problem, **kwargs)

    def counting_dual(drift, eta, alpha, *args, **kwargs):
        batches.append((list(eta), len({id(d) for d in drift}), len(alpha)))
        return dual(drift, eta, alpha, *args, **kwargs)

    monkeypatch.setattr(cli, "viscous_solve", counting_solve)
    monkeypatch.setattr(cli, "dual_solve", counting_dual)
    cfg = write_cfg(tmp_path, BASE.replace("n_points = 256", "n_points = 64")
                    + "epsilon_list = 0.2,0.1,0.05\nhamiltonian = quadratic\np_list = 2,3,inf\nT = 0.5\n")
    out = str(tmp_path / "d")
    assert main(["dual-check", "--config", cfg, "--output", out]) == 0
    # one batched solve on the shared grid holds each viscosity once
    assert solved == [[0.2, 0.1, 0.05]]
    # and the data of every pair and finite q, each with its pair's drift and eta, march in one call
    assert batches == [([0.1, 0.1, 0.05, 0.05], 2, 4)]
    with open(os.path.join(out, "dual_report.json")) as fh:
        rep = json.load(fh)
    assert [(c["eta"], c["q"]) for c in rep["checks"]] == [(0.1, 2.0), (0.1, 3.0), (0.05, 2.0), (0.05, 3.0)]


def test_cli_dual_check_solves_each_grid_when_its_first_pair_comes_up(tmp_path, monkeypatch):
    import fracvisc.cli as cli

    events, solved = [], []
    solve, dual = cli.viscous_solve, cli.dual_solve

    def gone():
        return [all(r() is None for r in refs) for refs in solved]

    def counting_solve(problem, **kwargs):
        # the trajectories of a grid no later pair uses are gone before the next grid's solve
        events.append(("solve", problem.grid.n_points, [p.epsilon for p in problem], gone()))
        batch = solve(problem, **kwargs)
        solved.append([weakref.ref(tr) for tr in batch])
        return batch

    def counting_dual(drift, eta, alpha, *args, **kwargs):
        events.append(("dual", list(eta), gone()))
        return dual(drift, eta, alpha, *args, **kwargs)

    monkeypatch.setattr(cli, "viscous_solve", counting_solve)
    monkeypatch.setattr(cli, "dual_solve", counting_dual)
    # automatic n: the pair (0.05, 0.025) lies on n=1024, the pair (0.025, 0.0125) on n=2048
    cfg = write_cfg(tmp_path, BASE.replace("n_points = 256\n", "")
                    + "epsilon_list = 0.05,0.025,0.0125\nhamiltonian = quadratic\np_list = 2\nT = 0.1\n")
    assert main(["dual-check", "--config", cfg, "--output", str(tmp_path / "d")]) == 0
    # one dual_solve call per grid
    assert events == [
        ("solve", 1024, [0.05, 0.025], []),
        ("dual", [0.025], [False]),
        ("solve", 2048, [0.025, 0.0125], [True]),
        ("dual", [0.0125], [True, False]),
    ]


def test_cli_dual_check_without_any_check_fails(tmp_path, capsys):
    # eps^(1/(2s)) overflows, so the pair's grid is the floor, and both viscosities
    # damp u to its mean at once: w(T) vanishes and no pair has a datum to march
    cfg = write_cfg(tmp_path, BASE.replace("n_points = 256\n", "") + "s_list = 0.01\nepsilon_list = 1e7,5e6\nT = 0.1\n")
    assert main(["dual-check", "--config", cfg, "--output", str(tmp_path / "d")]) == 1
    assert "dual-check: FAILED, no check ran" in capsys.readouterr().err


def test_cli_dual_check_needs_pair_and_finite_p(tmp_path, capsys):
    cfg = write_cfg(tmp_path, BASE + "epsilon_list = 0.25\nhamiltonian = quadratic\n")
    assert main(["dual-check", "--config", cfg, "--output", str(tmp_path / "x")]) == 2
    assert "key 'epsilon_list', line 11" in capsys.readouterr().err
    cfg2 = write_cfg(tmp_path, BASE + "p_list = inf\nhamiltonian = quadratic\n", name="e2.cfg")
    assert main(["dual-check", "--config", cfg2, "--output", str(tmp_path / "y")]) == 2
    assert "key 'p_list', line 11" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra,key", [
    ("sweep", "epsilon_list = 0.1,0.05,0.025", "epsilon_list"),  # too few rungs
    ("sweep", "epsilon_list = 0.1,0.09,0.08,0.07,0.06", "epsilon_list"),  # under four octaves
    ("sweep", "epsilon_list = 1,0.5,0.25,0.125,0.0625", "epsilon_list"),  # eps |log eps| vanishes at 1
    ("sweep", "forcing = const:1", "forcing"),  # the hopf_lax reference needs zero forcing
    ("solve", "u0 = cos2d", "u0"),
    ("solve", "dim = 2\nu0 = coeffs:1,0", "u0"),
    ("sweep", "p_list = 2,2\nepsilon_list = 0.1,0.1,0.1,0.1,0.00625", "epsilon_list"),  # repeated entries
    ("sweep", "p_list = 2,2", "p_list"),
    ("sweep", "s_list = 0.5,0.5", "s_list"),
    # values that print alike under %g would share one report.json key, one cell overwriting the other
    ("sweep", "epsilon_list = 0.1,0.1000001,0.05,0.025,0.0125,0.00625", "epsilon_list"),
    ("sweep", "p_list = 2,2.0000001", "p_list"),
    ("sweep", "s_list = 0.5,0.5000001", "s_list"),
    ("dual-check", "epsilon_list = 0.1,0.1", "epsilon_list"),
    # rules SweepPlan makes, reported on the config key of the field at fault
    ("solve", "T = 0", "T"),
    ("solve", "n_points = 100", "n_points"),
    ("solve", "s_list = 1.5", "s_list"),
    ("solve", "p_list = 0.5", "p_list"),
    ("solve", "reference = monotone:3", "reference"),  # the plan's fine_factor
    # retired keys: no key sets the step (the cap) or the mollifier (0.05), and no run draws random numbers
    *[(command, setting, setting.split()[0]) for command in ("sweep", "solve", "dual-check")
      for setting in ("dt_cfl = 1.0", "mollify_scale = 0.05", "seed = 3")],
])
def test_cli_bad_experiment_exits_2_naming_key_and_line(tmp_path, capsys, command, extra, key):
    text = BASE + extra + "\n"  # the key is set on the last line
    assert main([command, "--config", write_cfg(tmp_path, text), "--output", str(tmp_path / "o")]) == 2
    assert f"key {key!r}, line {len(text.splitlines())}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
