"""One pass of one workload in a fresh interpreter.

Usage: python -I perfbench/worker.py --root DIR --workload NAME --seed N
           --mode {setup,pass,traced} [--spans FILE]

The worker imports ``mengerian`` from ``DIR/src`` only, builds the workload
inputs, prints ``ready`` and, unless ``--mode setup``, runs the workload
once. Its last stdout line is a JSON object: wall and CPU seconds of the
pass, peak RSS, the instances attempted and failed, the failure messages
and a digest of the report bytes. In traced mode the package's module
attributes are wrapped first and the spans are written to ``--spans``
after the pass.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
from time import perf_counter

FIXTURES = (
    # name, family descriptor or edge list, pinned (trace, mengerian, packing)
    ("C8", ("cycle", [8]), ("POWER_EQUALITY", True, True)),
    ("C10", ("cycle", [10]), ("NON_IDEAL", False, False)),
    ("C12", ("cycle", [12]), ("NON_IDEAL", False, False)),
    ("K6", ("complete", [6]), ("NON_IDEAL", False, False)),
    ("P9", ("path", [9]), ("TU_SHORTCUT", True, True)),
    ("tree6", "1 2\n2 3\n3 4\n4 5\n3 6", ("NON_IDEAL", False, False)),
)

# survey workload -> (cross_check arguments, pinned counters)
SURVEYS = {
    "survey-n6": ({"n_max": 6}, {
        "total": 139, "mengerian": 16, "non_ideal": 123, "tu": 16, "empty": 3,
        "mengerian_per_n": {"4": 6, "5": 4, "6": 6},
    }),
    "survey-n7": ({"n_max": 7, "n_min": 7}, {
        "total": 853, "mengerian": 8, "non_ideal": 845, "tu": 8, "empty": 1,
    }),
}


def import_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from mengerian import classify, cli, clutters, graphs, ideals, linalg, survey
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"mengerian was imported from {cli.__file__}, not from {src}")
    return {"classify": classify, "cli": cli, "clutters": clutters, "graphs": graphs,
            "ideals": ideals, "linalg": linalg, "survey": survey}


def fixture_inputs(graphs, seed: int) -> list[tuple[str, str, tuple]]:
    """Edge lists of the fixtures, each twice: as published, then with its
    vertices permuted by the seed (seed 0 keeps the published labelling).

    Labelling moves the TU scan's and the packing walk's early exits, so a
    pass of one labelling per fixture would vary by a sixth from seed to
    seed; the fixed published copy halves that.
    """
    out = []
    for name, source, pinned in FIXTURES:
        if isinstance(source, str):
            g = graphs.parse_edge_list(source)
        else:
            g = graphs.make_family(*source)
        perm = list(range(g.n))
        out.append((f"{name}/published", graphs.to_edge_list(g), pinned))
        if seed:
            random.Random(f"{seed}/{name}").shuffle(perm)
        out.append((f"{name}/seed{seed}", graphs.to_edge_list(graphs.relabel(g, perm)), pinned))
    return out


def run_fixtures(mods: dict, inputs: list) -> tuple[list[str], bytes]:
    """cli.main decide --packing on each fixture, then re-validate the report."""
    cli, classify = mods["cli"], mods["classify"]
    errors = []
    reports = []
    for name, edges, (trace, mengerian, packing) in inputs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["decide", "--packing", "--edges", edges])
        out = buf.getvalue()
        reports.append(out.encode())
        if code != 0:
            errors.append(f"{name}: decide exited {code}")
            continue
        d = json.loads(out)
        got = (d["trace"], d["mengerian"], d["checks"]["packing"])
        if got != (trace, mengerian, packing):
            errors.append(f"{name}: (trace, mengerian, packing) {got} != {(trace, mengerian, packing)}")
        checks = classify.verify_report_dict(d)
        bad = [c for c in checks if not c[1]]
        if bad or (not mengerian and not checks):
            errors.append(f"{name}: certificate checks {checks}")
    return errors, b"".join(reports)


def run_survey(mods: dict, kwargs: dict, pinned: dict) -> tuple[list[str], bytes, int]:
    rep = mods["survey"].cross_check(**kwargs)
    counters = rep.counters
    errors = [f"counter {k}: {counters.get(k)} != {v}" for k, v in pinned.items()
              if counters.get(k) != v]
    bad_instances = set()
    for kind in ("mismatches", "dichotomy_exceptions", "conjecture_violations", "incomplete"):
        for item in getattr(rep, kind):
            errors.append(f"{kind}: {item}")
            bad_instances.add((item["n"], item["index"]))
    failed = len(bad_instances) or (1 if errors else 0)
    return errors, json.dumps(rep.to_json_dict(), sort_keys=True).encode(), failed


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=("decide-fixtures", *SURVEYS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    mods = import_package(args.root)
    if args.workload == "decide-fixtures":
        inputs = fixture_inputs(mods["graphs"], args.seed)
        attempted = len(inputs)
    else:
        kwargs, pinned = SURVEYS[args.workload]
        attempted = pinned["total"]
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.mode == "traced":
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer
        tracer = Tracer()
        tracer.install(mods)

    cpu0 = cpu_seconds()
    t0 = perf_counter()
    try:
        if args.workload == "decide-fixtures":
            errors, report_bytes = run_fixtures(mods, inputs)
            failed = len({e.split(":", 1)[0] for e in errors})
        else:
            errors, report_bytes, failed = run_survey(mods, kwargs, pinned)
    except Exception as exc:  # a crash fails every instance of the pass
        errors, report_bytes, failed = [f"{type(exc).__name__}: {exc}"], b"", attempted
    wall = perf_counter() - t0
    cpu = cpu_seconds() - cpu0

    if tracer is not None:
        tracer.restore()
        tracer.dump(args.spans)
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "digest": hashlib.sha256(report_bytes).hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
