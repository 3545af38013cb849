"""Benchmark of the mengerian package: exact verdicts, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (each pass is a fresh interpreter, as for a CLI user, so lazy
caches start cold and peak RSS belongs to that pass alone):

* ``survey-n6``: ``survey.cross_check(6)``, 139 classes on n = 4..6 with
  packing on every instance; dominated by the packing walk over minors.
* ``survey-n7``: ``survey.cross_check(7, n_min=7)``, 853 classes, no
  packing; dominated by enumeration and the TU scan.
* ``decide-fixtures``: ``cli.main(["decide", "--packing", ...])`` on C8,
  C10, C12, K6, P9 and the six-vertex pendant tree, each report re-checked
  with ``classify.verify_report_dict``; the only workload that reaches the
  power-equality step and certificate re-validation.

The surveys are exhaustive and ignore ``--seed``. ``decide-fixtures`` runs
each fixture twice, as published and with its vertex labels permuted by the
seed (seed 0 keeps the published labelling); verdicts do not depend on the
labelling, the order of the TU scan and of the packing walk does.

``--trace 0`` prints the end-to-end metrics: medians over the passes of
``wall_s`` (first call into the package to verified result), ``cpu_s``
(user + system CPU of the pass) and ``peak_rss_mib``, and ``setup_s``
(median over several fresh interpreters of start-up to ``import
mengerian.cli`` plus input building). ``--trace 1`` alternates untraced and
traced passes, at least ``TRACED_PAIRS`` pairs where they fit in
``TRACED_BUDGET_S``, and prints the per-layer metrics of ``spans.py`` and
the tracing overhead (median over pairs of traced minus untraced wall time). Every pass checks each verdict against the values pinned
in ``worker.py`` and that repeated passes, traced or not, emit identical
report bytes; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
from time import perf_counter

from spans import LAYER_METRICS, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("survey-n6", "survey-n7", "decide-fixtures")
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
SETUP_PROBES = 15
# A traced run makes at least this many untraced/traced pass pairs, beyond
# --seconds if need be, as long as they end within TRACED_BUDGET_S.
TRACED_PAIRS = 3
TRACED_BUDGET_S = 100.0
# The whole run must end within this many seconds, whatever --seconds says.
HARD_LIMIT_S = 170.0

_SURVEY_LAYERS = (
    "survey.enumerate_connected.busy_s",
    "linalg.is_totally_unimodular.busy_s",
    "linalg.is_totally_unimodular.subdets",
    "linalg.is_ideal.busy_s",
    "clutters.tau_nu.busy_s",
    "graphs.build_path_hypergraph.busy_s",
    "classify.classify_mengerian.busy_s",
    "classify.decide_mengerian_exact.busy_s",
)
# Per-layer metrics that must be nonzero on a traced pass: a zero means a
# wrapper was bypassed (for instance by a name bound with ``from .x import y``).
COVERAGE = {
    "survey-n6": _SURVEY_LAYERS + (
        "clutters.has_packing.busy_s",
        "clutters.has_packing.konig_calls",
    ),
    "survey-n7": _SURVEY_LAYERS,
    "decide-fixtures": (
        "linalg.is_totally_unimodular.busy_s",
        "linalg.is_totally_unimodular.subdets",
        "linalg.is_ideal.busy_s",
        "clutters.has_packing.busy_s",
        "clutters.has_packing.konig_calls",
        "clutters.tau_nu.busy_s",
        "ideals.is_normally_torsion_free.busy_s",
        "ideals.symbolic_power.busy_s",
        "ideals.member_of_power.calls",
        "graphs.build_path_hypergraph.busy_s",
        "classify.classify_mengerian.busy_s",
        "classify.decide_mengerian_exact.busy_s",
        "classify.verify_report_dict.busy_s",
        "cli.main.self_s",
    ),
}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Starts worker processes for one workload and seed, one at a time."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root, self.workload, self.seed = root, workload, seed
        self.started = perf_counter()

    def run(self, mode: str, spans: str | None = None) -> tuple[float, dict | None]:
        """(seconds from spawn to the worker's ready line, its result or None)."""
        cmd = [sys.executable, "-I", WORKER, "--root", self.root,
               "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=self.root)
        try:
            if not select.select([proc.stdout], [], [], self._left())[0]:
                raise WorkerError(f"{mode} worker gave no ready line in time")
            ready = proc.stdout.readline()
            setup = perf_counter() - t0
            if ready.strip() != b"ready":
                raise WorkerError(f"{mode} worker failed during set-up")
            out, _ = proc.communicate(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker exceeded the time limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}")
        if mode == "setup":
            return setup, None
        return setup, json.loads(out.decode().strip().splitlines()[-1])

    def _left(self) -> float:
        left = HARD_LIMIT_S - (perf_counter() - self.started)
        if left <= 0:
            raise WorkerError("run exceeded the time limit")
        return left


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mengerian", "cli.py")):
        print(f"perfbench: no src/mengerian package under {root}", file=sys.stderr)
        return 2
    runner = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            results, metrics = traced_run(runner, args.seconds)
        else:
            results, metrics = untraced_run(runner, args.seconds)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    errors = [e for r in results for e in r["errors"]]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    first = results[0]["digest"]
    for i, r in enumerate(results):
        if r["digest"] != first:
            errors.append(f"pass {i} ({r['mode']}) report bytes differ from pass 0")
            failed += 1
    if args.trace:
        for i, r in enumerate(results):
            if r["mode"] != "traced":
                continue
            missing = [m for m in COVERAGE[args.workload] if not r["layers"][m]]
            if missing:
                errors.append(f"pass {i}: no spans or counts recorded for {missing}")
                failed += 1

    for e in errors:
        print(f"perfbench: FAILED {args.workload}: {e}", file=sys.stderr)
    print(f"{args.workload} error_rate {failed / attempted:.6g} ({failed} of {attempted} instances)")
    for name, (value, unit, detail) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}{detail}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def passes_within(seconds: float, at_least: int = 1, budget: float = 0.0):
    """Yield once per pass: at least once, then while another pass of the
    median length so far still ends within ``seconds`` or, until there have
    been ``at_least`` passes, within ``budget``."""
    start = perf_counter()
    lengths = []
    while True:
        t0 = perf_counter()
        yield
        lengths.append(perf_counter() - t0)
        end = perf_counter() - start + statistics.median(lengths)
        if end > seconds and (len(lengths) >= at_least or end > budget):
            return


def untraced_run(runner: Runner, seconds: float):
    setups = [runner.run("setup")[0] for _ in range(SETUP_PROBES)]
    results = []
    for _ in passes_within(seconds):
        results.append({**runner.run("pass")[1], "mode": "pass"})
    samples = {"setup_s": setups}
    for key in ("wall_s", "cpu_s", "peak_rss_mib"):
        samples[key] = [r[key] for r in results]
    metrics = {}
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles(samples[name])
        metrics[name] = (med, unit, f" (median of {len(samples[name])}; q1 {q1:.6g}, q3 {q3:.6g})")
    return results, metrics


def traced_run(runner: Runner, seconds: float):
    out_dir = os.path.join(runner.root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    results = []
    for i, _ in enumerate(passes_within(seconds, TRACED_PAIRS, TRACED_BUDGET_S)):
        results.append({**runner.run("pass")[1], "mode": "pass"})
        path = os.path.join(out_dir, f"spans-{runner.workload}-seed{runner.seed}-{i}.json")
        traced = runner.run("traced", spans=path)[1]
        with open(path, encoding="utf-8") as fh:
            traced["layers"] = layer_metrics(json.load(fh))
        results.append({**traced, "mode": "traced"})
    plain = [r for r in results if r["mode"] == "pass"]
    traced = [r for r in results if r["mode"] == "traced"]
    # Each traced pass against the untraced pass just before it, so that a
    # drift of machine speed over the run cancels out of the overhead.
    q1, overhead, q3 = quartiles([t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced)])
    metrics = {}
    for name, unit in LAYER_METRICS:
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit, f" (median of {len(traced)} traced-minus-untraced"
                                             f" pass pairs; q1 {q1:.6g}, q3 {q3:.6g})")
        else:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = (value, unit, f" (median of {len(traced)} traced passes)")
    return results, metrics


if __name__ == "__main__":
    sys.exit(main())
