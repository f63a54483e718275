"""fracvisc benchmark: two CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each operation is one ``fracvisc`` CLI command in a fresh interpreter
(perfbench/child.py), run in a closed loop: the next operation starts when
the previous one has exited.  Operations start while the run, set-up
probes included, is expected to end within ``--seconds``, so a run makes at
least one.  The children run with FRACVISC_THREADS unset and the BLAS
thread variables at 1: one process, one thread, so a run measures the
program rather than the scheduler of a shared host.  Before the
operations, SETUP_PROBES extra processes run the same command up to its
first solver entry and exit there; they give setup_s.

With --trace 0 the run reports the end-to-end metrics (medians over the
operations): wall_norm_s and cpu_norm_s (wall and CPU time scaled by a probe
timed on the child's core; see Runner), peak_rss_mb and setup_s.  The
unscaled wall_s and cpu_s go on the summary line and into the record.  With
--trace 1 it runs one untraced and one traced operation and reports the
per-layer metrics of the traced one (see tracer.py).  The traced process also runs a
fixed layer pass (three CLI commands at n = 64) after the workload's
command, so every layer reports a non-zero time on every workload; on a
workload that does not reach a layer, its figures are the pass's fixed
cost.  Coverage, tracing overhead and the per-solver shares cover the
workload's command alone.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Each run also writes a record
(environment, every sample, every checked op and the numeric outputs with
their drift from perfbench/baseline.json) under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402

OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline.json")
SETUP_PROBES = 5
RUN_BUDGET_S = 165.0  # every process of a run is killed past this point
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_PERIOD_S = 0.05  # the probe takes about 1% of the child's core
PROBE_REF_S = 400e-6  # probe time that the *_norm_s metrics scale to; it sets their unit only
_PROBE_X = np.cos(np.linspace(0.0, 2.0 * np.pi, 1024, endpoint=False))


def probe_s() -> float:
    """Time of a fixed numpy FFT kernel, about 0.4 ms: the core's speed right now."""
    t0 = time.perf_counter()
    for _ in range(8):
        np.fft.irfft(np.fft.rfft(_PROBE_X))
    return time.perf_counter() - t0
LADDER = "geometric:0.0625,0.5,5"  # 2^-4 .. 2^-8, the shortest ladder SweepPlan accepts


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    expected_ops: int
    why: str = ""
    epsilons: list = field(default_factory=lambda: [0.0625 * 0.5**i for i in range(5)])


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-critical", "sweep", {"epsilon_list": LADDER}, 10,
            why="default sweep at s=1/2: viscous IFRK4 solves (FFT, H.value) dominate, "
                "n from 1024 to 8192",
        ),
        Workload(
            "dual-check", "dual-check",
            {"epsilon_list": "0.1,0.05,0.025,0.0125", "n_points": "2048", "p_list": "2,4",
             "snapshot_count": "17"},
            6, epsilons=[0.1, 0.05, 0.025, 0.0125],
            why="the only workload reaching dual: build_drift, dual_solve, Gronwall and "
                "duality checks, and the rho CSV export",
        ),
    )
}

# Tiny commands run after the workload inside the traced process (see above).
LAYER_PASS = (
    ("sweep", {"n_points": "64", "T": "0.5", "snapshot_count": "3", "epsilon_list": LADDER}),
    ("sweep", {"n_points": "64", "T": "0.5", "snapshot_count": "3", "epsilon_list": LADDER,
               "s_list": "0.75", "forcing": "cos_wave:0.5,1.0", "reference": "monotone:4"}),
    ("dual-check", {"n_points": "64", "T": "0.5", "snapshot_count": "3",
                    "epsilon_list": "0.1,0.05,0.025", "p_list": "2"}),
)

E2E_UNITS = {"wall_norm_s": "s", "cpu_norm_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last.endswith("_us") or last == "us_per_call":
        return "us"
    if last.endswith("_s"):
        return "s"
    if last.startswith("bytes"):
        return "bytes"
    return "ratio" if last == "coverage" else "count"


def bytes_under(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def seeded_u0(seed: int) -> str:
    """u0 for the 1-D workloads: cos x for seed 0, else cos(x - phi)."""
    if seed == 0:
        return "cos"
    phi = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return f"coeffs:{math.cos(phi)!r},{math.sin(phi)!r}"


def write_config(path: str, values: dict) -> None:
    with open(path, "w") as fh:
        fh.writelines(f"{k} = {v}\n" for k, v in values.items())


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------


class Runner:
    """Starts child processes, times them and kills any past the run budget.

    Each child runs on one core, pinned, and while it runs the parent times
    probe_s() on the same core every PROBE_PERIOD_S.  The host's cores switch
    between fast and slow spells (about 1.5x apart, seconds to minutes long)
    that move a child's wall and CPU time alike; the probe sees the same
    spells, so time divided by the mean probe time tracks the program.
    """

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.count = 0
        self.core = min(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if k != "FRACVISC_THREADS"}
        self.env.update(dict.fromkeys(BLAS_THREADS, "1"))

    def spawn(self, plan: dict) -> dict:
        """Run child.py on plan; return stamps, wall, CPU, peak RSS, mean probe and exit code."""
        self.count += 1
        tag = f"{self.count:02d}-{plan['mode']}"
        plan_path = os.path.join(self.run_dir, f"{tag}.plan.json")
        result_path = os.path.join(self.run_dir, f"{tag}.result.json")
        with open(plan_path, "w") as fh:
            json.dump(plan, fh)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), plan_path, result_path]
        affinity = os.sched_getaffinity(0)
        probes = []
        os.sched_setaffinity(0, {self.core})  # the child inherits it
        try:
            with open(os.path.join(self.run_dir, f"{tag}.log"), "w") as log:
                t0 = time.monotonic()
                proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env, stdout=log, stderr=log)
                killer = threading.Timer(max(1.0, self.deadline - t0), proc.kill)
                killer.start()
                try:
                    exited = os.pidfd_open(proc.pid)
                    try:
                        while not select.select([exited], [], [], PROBE_PERIOD_S)[0]:
                            probes.append(probe_s())
                    finally:
                        os.close(exited)
                    t1 = time.monotonic()
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    killer.cancel()
        finally:
            os.sched_setaffinity(0, affinity)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out = {"t_spawn": t0, "wall_s": t1 - t0, "cpu_s": usage.ru_utime + usage.ru_stime,
               "peak_rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode,
               "probe_s": statistics.mean(probes) if probes else None}
        try:
            with open(result_path) as fh:
                out["stamps"] = json.load(fh)
        except (OSError, ValueError):
            out["stamps"] = {}
        return out


def environment(child_env: dict) -> dict:
    """The host, the versions and the children's thread settings of a run."""
    import numpy

    def git(*args):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        try:
            done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=20)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: child_env.get(k) for k in BLAS_THREADS},
        "FRACVISC_THREADS": child_env.get("FRACVISC_THREADS"),
        "git_sha": sha,
        "git_dirty": None if sha is None else bool(status),
    }


# ---------------------------------------------------------------------------
# one workload run
# ---------------------------------------------------------------------------


def load_baseline() -> dict:
    try:
        with open(BASELINE) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def baseline_results(baseline: dict, wl: Workload, seed: int) -> dict | None:
    entry = baseline.get("results", {}).get(wl.name)
    if entry is None or entry.get("seed") != seed:
        return None
    return entry["results"]


def run_workload(wl: Workload, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    run_dir = os.path.join(OUT, f"{wl.name}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    config = dict(wl.config, u0=seeded_u0(seed))
    cfg_path = os.path.join(run_dir, "workload.cfg")
    write_config(cfg_path, config)
    baseline = load_baseline()
    base_res = baseline_results(baseline, wl, seed)
    runner = Runner(run_dir)

    def argv(out_name: str, command: str = wl.command, cfg: str = cfg_path) -> list:
        return [command, "--config", cfg, "--output", os.path.join(run_dir, out_name)]

    ops: list[tuple[str, bool]] = []
    samples: dict[str, list[float]] = {k: [] for k in (*E2E_UNITS, "wall_s", "cpu_s", "probe_s")}
    results = []

    def operation(i: int, mode: str, **extra) -> dict:
        proc = runner.spawn(dict(extra, mode=mode, argv=argv(f"op{i}")))
        got, res = checks.gate(wl, os.path.join(run_dir, f"op{i}"), proc["code"])
        ops.extend(got)
        results.append(res)
        return proc

    record = {"workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
              "trace": int(trace), "config": config, "environment": environment(runner.env)}
    if not trace:
        t0 = time.monotonic()
        for i in range(SETUP_PROBES + 1):  # the first probe only fills the bytecode cache
            proc = runner.spawn({"mode": "setup", "argv": argv(f"probe{i}")})
            ops.append((f"setup probe {i}", proc["code"] == 0 and "setup_end" in proc["stamps"]))
            if i and "setup_end" in proc["stamps"]:
                samples["setup_s"].append(proc["stamps"]["setup_end"] - proc["t_spawn"])
        i = 0
        while i == 0 or (time.monotonic() - t0) * (i + 1) / i <= seconds:
            proc = operation(i, "run")
            i += 1
            for k in ("wall_s", "cpu_s", "peak_rss_mb", "probe_s"):
                samples[k].append(proc[k])
            for k in ("wall", "cpu"):
                samples[f"{k}_norm_s"].append(proc[f"{k}_s"] * PROBE_REF_S / proc["probe_s"])
            if "setup_end" in proc["stamps"]:
                samples["setup_s"].append(proc["stamps"]["setup_end"] - proc["t_spawn"])
        metrics = {k: {"value": statistics.median(samples[k]), "unit": unit}
                   for k, unit in E2E_UNITS.items() if samples[k]}
        record["samples"] = samples
    else:
        plain = operation(0, "run")
        pass_argv = []
        for j, (command, values) in enumerate(LAYER_PASS):
            path = os.path.join(run_dir, f"layer_pass{j}.cfg")
            write_config(path, values)
            pass_argv.append(argv(f"layer_pass{j}", command, path))
        traced = operation(1, "trace", layer_pass=pass_argv)
        st = traced["stamps"]
        ops.extend((f"layer pass {j}", c == 0) for j, c in enumerate(st.get("layer_pass_codes", [None] * 3)))
        metrics = {}
        if "calls" in st and "end" in plain["stamps"]:
            wall = st["end"] - traced["t_spawn"]
            values = tracer.layer_metrics(st)
            values["trace.overhead_s"] = wall - (plain["stamps"]["end"] - plain["t_spawn"])
            values["trace.coverage"] = tracer.self_time(st, st["command_roots"]) / wall
            values["cli.bytes_written"] = sum(
                bytes_under(os.path.join(run_dir, d)) for d in ["op1"] + [f"layer_pass{j}" for j in range(3)]
            )
            metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
            record["traced_wall_s"] = wall
            record["per_size"] = tracer.per_size(st)
            record["shares"] = {
                " + ".join(names): tracer.command_busy(st, names) / wall
                for names in (("hj.viscous_solve",), ("dual.dual_solve",))
            }
            with open(os.path.join(run_dir, "trace.json"), "w") as fh:
                json.dump(st, fh)
    failed = sum(1 for _, ok in ops if not ok)
    record.update(
        ops=[{"op": name, "ok": ok} for name, ok in ops],
        results=results,
        drift_vs_baseline=[checks.max_drift(r, base_res) for r in results],
        metrics=metrics,
    )
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    summary = {"correct": failed == 0 and bool(metrics), "attempted": len(ops), "failed": failed,
               "metrics": metrics}
    return summary, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fracvisc", "cli.py")):
        print(f"perfbench: no fracvisc sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        wl = WORKLOADS[name]
        summary, record = run_workload(wl, args.seed, args.seconds, bool(args.trace))
        shown = "  ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in summary["metrics"].items()
                          if args.trace == 0 or k.startswith(("trace.", "hj.viscous_solve.busy")))
        if not args.trace:
            shown += "".join(f"  {k}={statistics.median(record['samples'][k]):.6g} s"
                             for k in ("wall_s", "cpu_s"))
        print(f"{name} seed={args.seed}: {shown}  ops_attempted={summary['attempted']} "
              f"ops_failed={summary['failed']}  record: "
              f"{os.path.relpath(os.path.join(OUT, f'{name}-seed{args.seed}-trace{args.trace}'), ROOT)}")
        if len(names) == 1:
            combined = summary
        else:
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
