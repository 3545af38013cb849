"""The benchmark's span contract: every attribute it wraps must exist and
must see the calls that the traced workloads make.

``perfbench/spans.py`` times the package by replacing module attributes
from outside. A renamed or deleted function, or a call that bypasses a
wrapper, would otherwise show up only in a traced bench run's coverage
gate, so these tests load the bench files by path (the bench is not a
package) and check them against the modules.
"""

import importlib
import importlib.util
import inspect
import json
import os
import sys

import pytest

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


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
