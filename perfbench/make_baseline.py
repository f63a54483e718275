"""Rebuild perfbench/baseline.json from the run records under perfbench/out/.

    python3 perfbench/make_baseline.py

For every workload it takes the numeric results of the seed-0 untraced run
(the reference for every drift figure),
the median and quartiles of each end-to-end metric over the untraced runs
of all seeds, and the median of each per-layer metric over the traced runs.
"""

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import BASELINE, OUT, WORKLOADS  # noqa: E402


def main() -> int:
    records = []
    for path in sorted(glob.glob(os.path.join(OUT, "*", "record.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    baseline = {"results": {}, "end_to_end": {}, "per_layer": {}}
    for name, wl in WORKLOADS.items():
        mine = [r for r in records if r["workload"] == name]
        ref = [r for r in mine if r["seed"] == 0 and not r["trace"] and r["results"][0] is not None]
        if not ref:
            print(f"make_baseline: no seed-0 untraced record for {name}", file=sys.stderr)
            return 1
        baseline["results"][name] = {"seed": 0, "results": ref[0]["results"][0]}
        baseline.setdefault("environment", ref[0]["environment"])
        for key, trace in (("end_to_end", 0), ("per_layer", 1)):
            runs = [r for r in mine if r["trace"] == trace and r["metrics"]]
            table = {}
            for metric in runs[0]["metrics"] if runs else []:
                vals = [r["metrics"][metric]["value"] for r in runs]
                entry = {"median": statistics.median(vals), "unit": runs[0]["metrics"][metric]["unit"],
                         "runs": len(vals), "seeds": sorted(r["seed"] for r in runs)}
                if len(vals) >= 2:
                    q1, _, q3 = statistics.quantiles(vals, n=4)
                    entry.update(q1=q1, q3=q3, spread=(q3 - q1) / entry["median"] if entry["median"] else None)
                table[metric] = entry
            baseline[key][name] = table
    with open(BASELINE, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"make_baseline: wrote {os.path.relpath(BASELINE)} from {len(records)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main())
