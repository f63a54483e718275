"""Correctness gates and numeric results of one benchmark operation.

Every operation of a workload is split into checked ops.  An op fails on a
non-zero exit, a solver guard trip (a failed sweep cell) or a missed check;
when the outputs cannot be read, every expected op of the operation fails.
The numeric outputs are returned beside the verdicts so that a record
holds what a timed run produced.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np


def _read_rates(path: str) -> dict[str, float]:
    """rates.csv as {"s,p,epsilon": error}, keyed by the file's own strings."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if lines[0] != "s,p,epsilon,error,norm,ref_kind":
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        s, p, eps, err, _, _ = line.split(",")
        out[f"{s},{p},{eps}"] = float(err)
    return out


def _fit_slope(rates: dict[str, float], s: str, p: str) -> float:
    """Least-squares log-log slope of one (s, p) slice, computed independently."""
    pts = [(float(k.split(",")[2]), v) for k, v in rates.items() if k.split(",")[:2] == [s, p]]
    eps, err = np.array(pts).T
    return float(np.polyfit(np.log(eps), np.log(err), 1)[0])


def _sweep_results(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.json")) as fh:
        report = json.load(fh)
    rates = _read_rates(os.path.join(out_dir, "rates.csv"))
    fits = {k: v for k, v in report["fits"].items() if "exponent" in v}
    one_sided = report.get("one_sided")
    return {
        "rates": rates,
        "exponents": {k: v["exponent"] for k, v in fits.items()},
        "passed": {k: v["passed"] for k, v in fits.items() if "passed" in v},
        "models": {k: v["model"] for k, v in fits.items()},
        "n_steps": {k: v["n_steps"] for k, v in report["cells"].items()},
        "failures": report["failures"],
        "one_sided": None if one_sided is None else {
            "uniform": one_sided["uniform"], "slope": one_sided["slope"],
            "spread": one_sided["spread"],
        },
    }


def _dual_results(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "dual_report.json")) as fh:
        report = json.load(fh)
    keys = ("eps", "eta", "q", "n_points", "max_ratio", "growth_factor",
            "duality_residual", "mass_drift", "min_rho", "gronwall_ok")
    return {"checks": [{k: c[k] for k in keys} for c in report["checks"]]}


def _cell_ops(res: dict, s: str, epsilons: list[float]) -> list[tuple[str, bool]]:
    ops = []
    for eps in epsilons:
        key = f"s={float(s):g},eps={eps:g}"
        errs = [v for k, v in res["rates"].items()
                if k.startswith(s + ",") and float(k.split(",")[2]) == eps]
        ok = key in res["n_steps"] and bool(errs) and all(math.isfinite(e) and e > 0 for e in errs)
        ops.append((f"cell {key}", ok))
    return ops


def _fit_op(res: dict, fit_key: str, s: str, p: str) -> tuple[str, bool]:
    """The report's own pass flag, and its exponent matches an independent fit."""
    passed = res["passed"].get(fit_key) is True
    slope = _fit_slope(res["rates"], s, p)
    same = abs(slope - res["exponents"][fit_key]) <= 1e-9 * max(1.0, abs(slope))
    return (f"fit {fit_key}", passed and same)


def gate(workload, out_dir: str, code: int) -> tuple[list, dict | None]:
    """Checked ops [(name, ok)] and numeric results of one operation."""
    try:
        res = _dual_results(out_dir) if workload.command == "dual-check" else _sweep_results(out_dir)
    except (OSError, ValueError, KeyError) as exc:
        return [(f"read outputs: {type(exc).__name__}", False)] * workload.expected_ops, None
    s = workload.config.get("s_list", "0.5")
    s_csv = f"{float(s):.16e}"
    ops: list[tuple[str, bool]] = [("exit code", False)] if code != 0 else []
    if workload.name == "sweep-critical":
        ops += _cell_ops(res, s_csv, workload.epsilons)
        for p in ("1.5", "2", "4", "inf"):
            ops.append(_fit_op(res, f"s={float(s):g},p={p}", s_csv, p))
        os_ = res["one_sided"]
        ok = os_ is not None and (not os_["uniform"] or (os_["slope"] or 0.0) >= 0.9)
        ops.append(("one-sided slope", ok))
    else:
        checks = res["checks"]
        for c in checks:
            ok = (c["max_ratio"] <= 1.01 and c["duality_residual"] <= 0.02
                  and c["mass_drift"] <= 1e-12 and c["gronwall_ok"])
            ops.append((f"dual eps={c['eps']:g} q={c['q']:g}", ok))
        ops += [("dual check missing", False)] * max(0, workload.expected_ops - len(checks))
    return ops, res


def _numbers(res: dict, prefix: str = "") -> dict[str, float]:
    """Flatten the numeric leaves of a results dictionary."""
    out: dict[str, float] = {}
    items = res.items() if isinstance(res, dict) else enumerate(res)
    for k, v in items:
        key = f"{prefix}{k}"
        if isinstance(v, bool) or v is None or isinstance(v, str):
            continue
        if isinstance(v, (int, float)):
            out[key] = float(v)
        else:
            out.update(_numbers(v, key + "/"))
    return out


def max_drift(res: dict | None, baseline: dict | None) -> float | None:
    """Largest relative difference of any number shared with the baseline."""
    if res is None or baseline is None:
        return None
    a, b = _numbers(res), _numbers(baseline)
    shared = [k for k in a if k in b]
    if not shared:
        return None
    return max(abs(a[k] - b[k]) / max(abs(b[k]), 1e-300) for k in shared)
