"""The benchmark's span contract: every attribute it wraps must exist and
must see the calls that the traced workloads make.

``perfbench/spans.py`` times the package by replacing module attributes
from outside. A renamed or deleted function, or a call that bypasses a
wrapper, would otherwise show up only in a traced bench run's coverage
gate, so these tests load the bench files by path (the bench is not a
package) and check them against the modules. The bench's worker also
runs here in a subprocess, under ``python -I`` as the bench starts it, so
its pinned verdicts and counters and its coverage gate fail a test.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")


def load_bench(filename):
    spec = importlib.util.spec_from_file_location(f"perfbench_{filename[:-3]}",
                                                  os.path.join(BENCH_DIR, filename))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_LAYERS = load_bench("spans.py").SPAN_LAYERS

# wrapped as counters rather than spans
COUNTED = (("linalg", "bareiss_det"), ("ideals", "member_of_power"))


@pytest.mark.parametrize("module, attr",
                         [(mod, attr) for mod, attr, _ in SPAN_LAYERS] + list(COUNTED))
def test_wrapped_attribute_is_a_function(module, attr):
    target = getattr(importlib.import_module(f"mengerian.{module}"), attr, None)
    assert inspect.isfunction(target), f"mengerian.{module}.{attr}"


def fixtures_pass(worker, mods):
    errors, _ = worker.run_fixtures(mods, worker.fixture_inputs(mods["graphs"], 0))
    assert errors == []


def survey_pass(worker, mods):
    mods["survey"].cross_check(5)


# gated workload -> a smaller pass that reaches the same layers
COVERAGE_PASSES = {"decide-fixtures": fixtures_pass, "survey-n6": survey_pass}


@pytest.mark.parametrize("workload", list(COVERAGE_PASSES))
def test_traced_pass_covers_gated_metrics(workload, tmp_path, monkeypatch):
    # every metric the bench's coverage gate requires must read nonzero
    spans = load_bench("spans.py")
    monkeypatch.setitem(sys.modules, "spans", spans)  # run.py imports it by name
    worker, run = load_bench("worker.py"), load_bench("run.py")
    mods = {name: importlib.import_module(f"mengerian.{name}")
            for name in ("classify", "cli", "clutters", "graphs", "ideals", "linalg", "survey")}
    tracer = spans.Tracer()
    tracer.install(mods)
    try:
        COVERAGE_PASSES[workload](worker, mods)
    finally:
        tracer.restore()
    path = tmp_path / "spans.json"
    tracer.dump(str(path))
    metrics = spans.layer_metrics(json.loads(path.read_text()))
    assert [name for name in run.COVERAGE[workload] if not metrics[name]] == []
    if workload == "decide-fixtures":
        # the packing walk Konig-checks each minor it visits once; C12 and
        # the pendant tree are walked on the face of their fractional
        # vertex, whose first check fails, so their two copies make 4
        assert metrics["clutters.has_packing.distinct_ratio"] == 1.0
        assert metrics["clutters.has_packing.konig_calls"] <= 10


@pytest.mark.parametrize("mode", ["pass", "traced"])
@pytest.mark.parametrize("workload", ["survey-n6", "survey-n7", "decide-fixtures"])
def test_worker_runs_as_the_bench_starts_it(workload, mode, tmp_path, monkeypatch):
    # the worker imports the package from src alone, checks every pinned
    # verdict and counter, and in traced mode records each gated metric
    spans_path = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, "-I", os.path.join(BENCH_DIR, "worker.py"), "--root", ROOT,
         "--workload", workload, "--seed", "1", "--mode", mode, "--spans", str(spans_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    result = json.loads(lines[-1])
    assert (result["failed"], result["errors"]) == (0, [])
    if mode == "traced":
        spans = load_bench("spans.py")
        monkeypatch.setitem(sys.modules, "spans", spans)  # run.py imports it by name
        run = load_bench("run.py")
        metrics = spans.layer_metrics(json.loads(spans_path.read_text()))
        assert [name for name in run.COVERAGE[workload] if not metrics[name]] == []
