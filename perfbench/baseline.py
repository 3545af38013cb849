"""Record a baseline: two sets of benchmark runs, their medians, spreads and agreement.

Run from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json this runs ``perfbench/run.py`` untraced,
first with seeds 1..RUNS on every workload, then again with seeds
RUNS+1..2*RUNS, and once traced with seed TRACE_SEED. Per set and metric it
writes the value of every run, the median, the quartiles and the spread
(the distance between the quartiles as a share of the median, by
``statistics.quantiles(values, n=4)``); ``*`` marks a spread above a third
of the metric's bound. Per metric it also writes the change of the second
set's median against the first, as a share of the first; ``!`` marks a
change larger than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from time import perf_counter

from run import quartiles

RUNS = 10
SETS = (list(range(1, RUNS + 1)), list(range(RUNS + 1, 2 * RUNS + 1)))
TRACE_SEED = 1
SAMPLES = re.compile(r"^(\S+) (\S+) \S+ \S+ \(median of (\d+)")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["samples"] = {m.group(2): int(m.group(3))
                         for m in map(SAMPLES.match, lines[:-1]) if m}
    result["run_s"] = perf_counter() - t0
    return result


def summary(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "runs": values}


def run_set(workload: str, seeds: list[int], seconds: int, bounds: dict, units: dict) -> dict:
    runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    out = {"seeds": seeds, "error_rate": failed / attempted,
           "run_s": summary([r["run_s"] for r in runs]), "end_to_end": {}}
    print(f"{workload:16} seeds {seeds[0]}..{seeds[-1]} error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} instances)")
    for name, bound in bounds.items():
        s = summary([r["metrics"][name]["value"] for r in runs])
        s.update(unit=units[name], bound=bound,
                 samples_per_run=[r["samples"].get(name) for r in runs])
        out["end_to_end"][name] = s
        flag = "*" if s["spread"] > bound / 3 else " "
        print(f"{workload:16} {name:14} median {s['median']:.6g} {units[name]:4} "
              f"spread {s['spread']:.3f}{flag} (bound {bound})", flush=True)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", help="write the baseline JSON here")
    args = ap.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    names = [w["name"] for w in bench["workloads"]]

    out = {"python": platform.python_version(), "machine": platform.machine(),
           "cpus": os.cpu_count(), "run_seconds": seconds, "runs_per_set": RUNS,
           "trace_seed": TRACE_SEED,
           "workloads": {w["name"]: {"why": w["why"], "sets": []} for w in bench["workloads"]}}
    for seeds in SETS:
        for wl in names:
            out["workloads"][wl]["sets"].append(run_set(wl, seeds, seconds, bounds, units))
    for wl in names:
        entry = out["workloads"][wl]
        first, second = (s["end_to_end"] for s in entry["sets"])
        entry["set_change"] = {}
        for name, bound in bounds.items():
            change = second[name]["median"] / first[name]["median"] - 1
            entry["set_change"][name] = {"change": change, "bound": bound,
                                         "within": abs(change) <= bound}
            flag = " " if abs(change) <= bound else "!"
            print(f"{wl:16} {name:14} second set's median {change:+.3f}{flag} "
                  f"against the first (bound {bound})")
        traced = run_once(wl, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {
            name: {"value": m["value"], "unit": m["unit"],
                   "traced_passes": traced["samples"].get(name)}
            for name, m in traced["metrics"].items()}
        print(f"{wl:16} trace.overhead_s {traced['metrics']['trace.overhead_s']['value']:.6g} s "
              f"over {traced['samples'].get('trace.overhead_s')} pass pairs", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
