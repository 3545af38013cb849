"""The benchmark's span contract: every attribute it wraps must exist.

``perfbench/spans.py`` times the package by replacing module attributes
from outside. A renamed or deleted function would otherwise show up only
in a traced bench run's coverage gate, so this test loads the span table
by path (the bench is not a package) and checks it against the modules.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

SPANS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "perfbench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPAN_LAYERS = load_spans().SPAN_LAYERS

# wrapped as counters rather than spans
COUNTED = (("linalg", "bareiss_det"), ("ideals", "member_of_power"))


@pytest.mark.parametrize("module, attr",
                         [(mod, attr) for mod, attr, _ in SPAN_LAYERS] + list(COUNTED))
def test_wrapped_attribute_is_a_function(module, attr):
    target = getattr(importlib.import_module(f"mengerian.{module}"), attr, None)
    assert inspect.isfunction(target), f"mengerian.{module}.{attr}"
