"""Call tracing for the benchmark's traced run.

The tracer wraps public functions of the fracvisc modules from outside, as
their callers reference them (``fracvisc.rates.viscous_solve``,
``HamiltonianSpec.value``, ``numpy.fft.rfftn``, ...).  Coarse calls become
spans (name, start, end, parent span).  Hot calls (FFTs, Hamiltonian and
forcing evaluations, torus helpers) are aggregated per parent span into
call counts and times, which keeps about 1e5 calls per run bounded in
memory.  A call's self time is its duration minus the time of the wrapped
calls it made.  Everything stays in memory until ``dump``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

# CLOCK_MONOTONIC on Linux, so span stamps compare with the parent process
_clock = time.monotonic


class _Frame:
    __slots__ = ("name", "group", "start", "child", "span_id")

    def __init__(self, name: str, group: str, start: float, span_id: int):
        self.name = name
        self.group = group
        self.start = start
        self.child = 0.0
        self.span_id = span_id


class Tracer:
    """Span recorder; install() patches the targets, uninstall() restores them."""

    def __init__(self):
        self._stack = [_Frame("root", "root", _clock(), 0)]
        self._group_depth: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object]] = []
        self.spans: list[dict] = []
        self.hot: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.group_busy: dict[str, float] = defaultdict(float)
        self.group_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hot: bool = False, observe=None):
        """Return fn wrapped so that every call is recorded under name."""
        group = name.split(".", 1)[0]
        stack = self._stack
        depth = self._group_depth

        def traced(*args, **kwargs):
            parent = stack[-1]
            if hot:
                span_id = parent.span_id
            else:
                span_id = len(self.spans) + 1
                self.spans.append(None)  # reserve the id; filled on exit
            frame = _Frame(name, group, 0.0, span_id)
            stack.append(frame)
            depth[group] += 1
            frame.start = start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                depth[group] -= 1
                stack.pop()
                self._close(frame, parent, dur, hot)
            if observe is not None:
                observe(self, args, result, dur)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame, parent: _Frame, dur: float, hot: bool) -> None:
        parent.child += dur
        self_t = dur - frame.child
        st = self.calls[frame.name]
        st[0] += 1
        st[1] += dur
        st[2] += self_t
        self.group_self[frame.group] += self_t
        if self._group_depth[frame.group] == 0:
            self.group_busy[frame.group] += dur
        if hot:
            agg = self.hot[(frame.span_id, frame.name)]
            agg[0] += 1
            agg[1] += dur
            agg[2] += self_t
        else:
            self.spans[frame.span_id - 1] = {
                "id": frame.span_id,
                "parent": parent.span_id,
                "name": frame.name,
                "start": frame.start,
                "end": frame.start + dur,
                "self": self_t,
            }

    def add_span(self, name: str, start: float, end: float) -> None:
        """Record a leaf span measured by the caller (e.g. module import)."""
        self.spans.append(
            {"id": len(self.spans) + 1, "parent": 0, "name": name,
             "start": start, "end": end, "self": end - start}
        )
        group = name.split(".", 1)[0]
        st = self.calls[name]
        st[0] += 1
        st[1] += end - start
        st[2] += end - start
        self.group_self[group] += end - start
        self.group_busy[group] += end - start

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, hot: bool = False, observe=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, hot=hot, observe=observe))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        payload = {
            "spans": [s for s in self.spans if s is not None],
            "hot": [
                {"span": span_id, "name": name, "calls": v[0], "time": v[1], "self": v[2]}
                for (span_id, name), v in sorted(self.hot.items())
            ],
            "calls": {k: {"calls": v[0], "busy": v[1], "self": v[2]} for k, v in sorted(self.calls.items())},
            "group_busy": dict(sorted(self.group_busy.items())),
            "group_self": dict(sorted(self.group_self.items())),
            "counters": dict(sorted(self.counters.items())),
        }
        payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)


# ---------------------------------------------------------------------------
# the traced targets
# ---------------------------------------------------------------------------


def _count_fft(tracer: Tracer, args, result, dur: float) -> None:
    a = args[0]
    ctr = tracer.counters
    ctr["fft.bytes_computed"] += a.nbytes + result.nbytes
    real = a if a.dtype.kind == "f" else result
    size = "x".join(map(str, real.shape))
    ctr[f"fft.calls.n{size}"] += 1
    ctr[f"fft.time.n{size}"] += dur


def _count_steps(key: str):
    def observe(tracer: Tracer, args, result, dur: float) -> None:
        ctr = tracer.counters
        ctr[key] += result.n_steps
        if key == "hj.viscous_steps":
            n = args[0].grid.n_total
            ctr["hj.grid_point_steps"] += result.n_steps * n
            ctr[f"hj.viscous_steps.n{n}"] += result.n_steps
            ctr[f"hj.viscous_time.n{n}"] += dur

    return observe


def _count_cell(tracer: Tracer, args, result, dur: float) -> None:
    tracer.counters["rates.cells"] += 1
    if isinstance(result[2], str):
        tracer.counters["rates.cells_failed"] += 1


def install(tracer: Tracer) -> None:
    """Patch every traced target of the fracvisc package and numpy.fft."""
    import numpy.fft

    from fracvisc import cli, dual, hj, rates, torus
    from fracvisc.hamiltonians import HamiltonianSpec

    for fn in ("rfftn", "irfftn", "fftn", "ifftn"):
        tracer.patch(numpy.fft, fn, f"fft.{fn}", hot=True, observe=_count_fft)

    tracer.patch(HamiltonianSpec, "value", "hamiltonians.value", hot=True)
    tracer.patch(HamiltonianSpec, "grad", "hamiltonians.grad", hot=True)
    tracer.patch(hj, "legendre_batch", "hamiltonians.legendre_batch", hot=True)

    for cls in (hj.ZeroForcing, hj.ConstantForcing, hj.CosWaveForcing):
        tracer.patch(cls, "value", "hj.forcing", hot=True)
    viscous_steps = _count_steps("hj.viscous_steps")

    for mod in (cli, rates):
        tracer.patch(mod, "viscous_solve", "hj.viscous_solve", observe=viscous_steps)
        tracer.patch(mod, "hopf_lax_oracle", "hj.hopf_lax_oracle")
        tracer.patch(mod, "monotone_reference", "hj.monotone_reference",
                     observe=_count_steps("hj.monotone_steps"))

    tracer.patch(cli, "build_drift", "dual.build_drift")
    tracer.patch(cli, "dual_solve", "dual.dual_solve", observe=_count_steps("dual.dual_steps"))
    tracer.patch(cli, "gronwall_check", "dual.gronwall_check")
    tracer.patch(cli, "duality_residual", "dual.duality_residual")
    tracer.patch(cli, "lp_dual_datum", "dual.lp_dual_datum")

    for mod, names in (
        (hj, ("second_difference_max", "subsample", "refine")),
        (rates, ("frac_laplacian", "lp_norm", "subsample")),
        (dual, ("frac_laplacian", "lp_norm")),
        (torus, ("spectral_gradient",)),  # imported lazily inside monotone_reference
    ):
        for fn in names:
            tracer.patch(mod, fn, f"torus.{fn}", hot=True)

    tracer.patch(cli, "run_sweep", "rates.run_sweep")
    tracer.patch(rates, "_reference_values", "rates.reference")
    tracer.patch(rates, "_cell_worker", "rates.cell_eval", observe=_count_cell)
    tracer.patch(rates, "fit_rate", "rates.fit_rate")
    tracer.patch(cli, "emit_report", "rates.emit_report")
    tracer.patch(cli, "one_sided_check", "rates.one_sided_check")

    tracer.patch(cli, "parse_config_file", "config.parse")
    tracer.patch(cli, "_export_trajectory_dual", "cli.export")
    tracer.patch(cli, "_export_trajectory", "cli.export")
    tracer.patch(cli, "main", "cli.main")


# ---------------------------------------------------------------------------
# per-layer metrics from a trace file
# ---------------------------------------------------------------------------

LAYERS = ("fft", "hj", "hamiltonians", "dual", "torus", "rates", "config", "cli")


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metric values (plain numbers) from a dumped trace."""
    calls = trace["calls"]
    ctr = trace["counters"]

    def c(name: str, field: str) -> float:
        return calls.get(name, {}).get(field, 0)

    def per(num: float, den: float, scale: float) -> float:
        return scale * num / den if den else 0.0

    fft_calls = sum(c(f"fft.{f}", "calls") for f in ("rfftn", "irfftn", "fftn", "ifftn"))
    m = {
        "fft.calls": fft_calls,
        "fft.busy_s": trace["group_busy"].get("fft", 0.0),
        "fft.us_per_call": per(trace["group_busy"].get("fft", 0.0), fft_calls, 1e6),
        "fft.bytes_computed": ctr.get("fft.bytes_computed", 0),
        "hj.viscous_solve.busy_s": c("hj.viscous_solve", "busy"),
        "hj.viscous_solve.self_s": c("hj.viscous_solve", "self"),
        "hj.viscous_steps": ctr.get("hj.viscous_steps", 0),
        "hj.step_us": per(c("hj.viscous_solve", "busy"), ctr.get("hj.viscous_steps", 0), 1e6),
        "hj.grid_point_steps": ctr.get("hj.grid_point_steps", 0),
        "hj.forcing.calls": c("hj.forcing", "calls"),
        "hj.forcing.busy_s": c("hj.forcing", "busy"),
        "hj.hopf_lax_oracle.calls": c("hj.hopf_lax_oracle", "calls"),
        "hj.hopf_lax_oracle.busy_s": c("hj.hopf_lax_oracle", "busy"),
        "hj.hopf_lax_oracle.self_s": c("hj.hopf_lax_oracle", "self"),
        "hj.monotone_reference.busy_s": c("hj.monotone_reference", "busy"),
        "hj.monotone_reference.self_s": c("hj.monotone_reference", "self"),
        "hj.monotone_steps": ctr.get("hj.monotone_steps", 0),
        "hamiltonians.value.calls": c("hamiltonians.value", "calls"),
        "hamiltonians.value.busy_s": c("hamiltonians.value", "busy"),
        "hamiltonians.legendre_batch.calls": c("hamiltonians.legendre_batch", "calls"),
        "hamiltonians.legendre_batch.busy_s": c("hamiltonians.legendre_batch", "busy"),
        "hamiltonians.grad.busy_s": c("hamiltonians.grad", "busy"),
        "dual.build_drift.busy_s": c("dual.build_drift", "busy"),
        "dual.dual_solve.busy_s": c("dual.dual_solve", "busy"),
        "dual.dual_solve.self_s": c("dual.dual_solve", "self"),
        "dual.dual_steps": ctr.get("dual.dual_steps", 0),
        "dual.dual_step_us": per(c("dual.dual_solve", "busy"), ctr.get("dual.dual_steps", 0), 1e6),
        "dual.gronwall_check.busy_s": c("dual.gronwall_check", "busy"),
        "dual.duality_residual.busy_s": c("dual.duality_residual", "busy"),
        "torus.busy_s": trace["group_busy"].get("torus", 0.0),
        "rates.cells": ctr.get("rates.cells", 0),
        "rates.cells_failed": ctr.get("rates.cells_failed", 0),
        "rates.cell_eval.busy_s": c("rates.cell_eval", "busy"),
        "rates.fit_rate.busy_s": c("rates.fit_rate", "busy"),
        "rates.emit_report.busy_s": c("rates.emit_report", "busy"),
        "rates.run_sweep.self_s": c("rates.run_sweep", "self"),
        "config.parse_s": c("config.parse", "busy"),
        "cli.export.busy_s": c("cli.export", "busy"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = trace["group_self"].get(layer, 0.0)
    return m


def per_size(trace: dict) -> dict[str, float]:
    """Microseconds per FFT call and per viscous step, by grid size."""
    ctr = trace["counters"]
    out = {}
    for key, calls in ctr.items():
        if key.startswith("fft.calls.n"):
            size = key[len("fft.calls."):]
            out[f"fft.us_per_call.{size}"] = 1e6 * ctr[f"fft.time.{size}"] / calls
        elif key.startswith("hj.viscous_steps.n") and calls:
            size = key[len("hj.viscous_steps."):]
            out[f"hj.step_us.{size}"] = 1e6 * ctr[f"hj.viscous_time.{size}"] / calls
    return dict(sorted(out.items()))


def _subtree(trace: dict, roots) -> set[int]:
    children = defaultdict(list)
    for s in trace["spans"]:
        children[s["parent"]].append(s["id"])
    ids, todo = set(), list(roots)
    while todo:
        i = todo.pop()
        ids.add(i)
        todo.extend(children[i])
    return ids


def self_time(trace: dict, roots) -> float:
    """Sum of the self times of every span and hot call below roots."""
    ids = _subtree(trace, roots)
    return (sum(s["self"] for s in trace["spans"] if s["id"] in ids)
            + sum(h["self"] for h in trace["hot"] if h["span"] in ids))


def command_busy(trace: dict, names) -> float:
    """Time the workload's command spent inside any of names, nesting counted once."""
    ids = _subtree(trace, trace["command_roots"])
    covered: set[int] = set()
    total = 0.0
    for s in sorted(trace["spans"], key=lambda s: s["id"]):  # parents precede children
        if s["id"] not in ids:
            continue
        if s["parent"] in covered:
            covered.add(s["id"])
        elif s["name"] in names:
            covered.add(s["id"])
            total += s["end"] - s["start"]
    total += sum(h["time"] for h in trace["hot"]
                 if h["name"] in names and h["span"] in ids and h["span"] not in covered)
    return total
