"""The benchmark tracer (perfbench/tracer.py) still fits the CLI.

The tracer patches the names the CLI calls (cli.dual_solve,
cli.viscous_solve, ...) and reads n_steps from their results.  This test
loads it and the benchmark's layer pass by path, unedited, and runs the
three layer-pass commands at n = 64 under it.  The sweeps solve their
cells in batches, so the test also checks that the tracer still counts
one rates.cell_eval per cell and every viscous step of the sweeps' cells.
"""

import importlib.util
import json
import os
import sys

from fracvisc import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_layer_pass_runs_under_the_tracer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)  # run.py imports checks and tracer by name
    tracer = _load("tracer", monkeypatch)
    run = _load("run", monkeypatch)
    tr = tracer.Tracer()
    tracer.install(tr)
    try:
        codes, after_sweeps = [], None
        for j, (command, values) in enumerate(run.LAYER_PASS):
            if command != "sweep" and after_sweeps is None:
                after_sweeps = dict(tr.counters)
            cfg = str(tmp_path / f"pass{j}.cfg")
            run.write_config(cfg, values)
            codes.append(cli.main([command, "--config", cfg, "--output", str(tmp_path / f"out{j}")]))
    finally:
        tr.uninstall()
    assert codes == [0] * len(run.LAYER_PASS)
    assert [command for command, _ in run.LAYER_PASS] == ["sweep", "sweep", "dual-check"]
    cell_steps = 0
    for j in range(2):
        with open(tmp_path / f"out{j}" / "report.json") as fh:
            cell_steps += sum(cell["n_steps"] for cell in json.load(fh)["cells"].values())
    assert after_sweeps["rates.cells"] == 10
    assert after_sweeps["hj.viscous_steps"] == cell_steps > 0
    assert tr.counters["dual.dual_steps"] > 0
    assert tr.counters["hj.viscous_steps"] > cell_steps
