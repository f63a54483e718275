"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q

The coverage test runs every workload once traced, about a minute on
two cores.
"""

import filecmp
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))

import run  # noqa: E402
import tracer  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_uninstall_restores_every_patched_function():
    tr = tracer.Tracer()
    tracer.install(tr)
    patched = list(tr._patched)
    assert len(patched) > 30
    assert all(_current(owner, attr) is not original for owner, attr, original in patched)
    tr.uninstall()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, f"{owner!r}.{attr} still wrapped"


def test_traced_rates_csv_is_byte_identical(tmp_path):
    command, values = run.LAYER_PASS[0]
    cfg = tmp_path / "tiny.cfg"
    run.write_config(str(cfg), values)
    runner = run.Runner(str(tmp_path))
    for mode in ("run", "trace"):
        argv = [command, "--config", str(cfg), "--output", str(tmp_path / mode)]
        proc = runner.spawn({"mode": mode, "argv": argv, "layer_pass": []})
        assert proc["code"] == 0
    assert filecmp.cmp(tmp_path / "run" / "rates.csv", tmp_path / "trace" / "rates.csv", shallow=False)


# The share each workload was built to isolate (traced command time).
ISOLATION = {
    "sweep-critical": ("hj.viscous_solve",),
    "dual-check": ("dual.dual_solve",),
}
FLOOR = {"sweep-critical": 0.9, "dual-check": 0.4}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_traced_run_covers_and_isolates(name, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    summary, record = run.run_workload(run.WORKLOADS[name], 0, 1, True)
    assert summary["correct"], [op for op in record["ops"] if not op["ok"]]
    assert summary["metrics"]["trace.coverage"]["value"] >= 0.95
    assert record["shares"][" + ".join(ISOLATION[name])] >= FLOOR[name]
