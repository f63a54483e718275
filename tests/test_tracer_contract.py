"""The benchmark tracer (perfbench/tracer.py) still fits the CLI.

The tracer patches the names the CLI calls (cli.dual_solve,
cli.viscous_solve, ...) and reads n_steps from their results.  This test
loads it and the benchmark's layer pass by path, unedited, and runs the
three layer-pass commands at n = 64 under it.
"""

import importlib.util
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
        codes = []
        for j, (command, values) in enumerate(run.LAYER_PASS):
            cfg = str(tmp_path / f"pass{j}.cfg")
            run.write_config(cfg, values)
            codes.append(cli.main([command, "--config", cfg, "--output", str(tmp_path / f"out{j}")]))
    finally:
        tr.uninstall()
    assert codes == [0] * len(run.LAYER_PASS)
    assert tr.counters["dual.dual_steps"] > 0
    assert tr.counters["hj.viscous_steps"] > 0
