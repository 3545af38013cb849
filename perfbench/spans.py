"""Span recording around the package's public module attributes.

The package reaches every inner layer through a module attribute or a
module global (``classify`` calls ``linalg.is_totally_unimodular``,
``clutters.has_packing`` calls its own global ``has_konig``, and so on), so
a wrapper installed on the module sees every call without any change to
the package. Spans are kept in memory while the workload runs and written
out once, after it has finished.

A span is ``[layer, start, end, parent, tag]``: ``layer`` indexes
``Tracer.layers``, ``parent`` is the index of the span that was open when
this one started (-1 at the top), and ``tag`` is an outcome label or None.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter
from time import perf_counter

# Layers the benchmark wraps: (module name, attribute, layer name).
# clutters.tau and clutters.nu report together as one layer.
SPAN_LAYERS = (
    ("survey", "enumerate_connected", "survey.enumerate_connected"),
    ("linalg", "is_totally_unimodular", "linalg.is_totally_unimodular"),
    ("linalg", "is_ideal", "linalg.is_ideal"),
    ("clutters", "has_packing", "clutters.has_packing"),
    ("clutters", "has_konig", "clutters.has_konig"),
    ("clutters", "tau", "clutters.tau_nu"),
    ("clutters", "nu", "clutters.tau_nu"),
    ("ideals", "is_normally_torsion_free", "ideals.is_normally_torsion_free"),
    ("ideals", "symbolic_power", "ideals.symbolic_power"),
    ("graphs", "build_path_hypergraph", "graphs.build_path_hypergraph"),
    ("classify", "classify_mengerian", "classify.classify_mengerian"),
    ("classify", "decide_mengerian_exact", "classify.decide_mengerian_exact"),
    ("classify", "verify_report_dict", "classify.verify_report_dict"),
    ("cli", "main", "cli.main"),
)

# Per-layer metrics, in report order, with their units.
LAYER_METRICS = (
    ("survey.enumerate_connected.busy_s", "s"),
    ("survey.enumerate_connected.classes", "count"),
    ("linalg.is_totally_unimodular.busy_s", "s"),
    ("linalg.is_totally_unimodular.calls", "count"),
    ("linalg.is_totally_unimodular.refuted", "count"),
    ("linalg.is_totally_unimodular.subdets", "count"),
    ("linalg.is_ideal.busy_s", "s"),
    ("linalg.is_ideal.calls", "count"),
    ("linalg.is_ideal.refuted", "count"),
    ("linalg.is_ideal.ideal_busy_s", "s"),
    ("linalg.is_ideal.refute_busy_s", "s"),
    ("clutters.has_packing.busy_s", "s"),
    ("clutters.has_packing.self_s", "s"),
    ("clutters.has_packing.konig_calls", "count"),
    ("clutters.has_packing.distinct_minors", "count"),
    ("clutters.has_packing.distinct_ratio", "ratio"),
    ("clutters.tau_nu.busy_s", "s"),
    ("clutters.tau_nu.calls", "count"),
    ("ideals.is_normally_torsion_free.busy_s", "s"),
    ("ideals.is_normally_torsion_free.k_checked", "count"),
    ("ideals.symbolic_power.busy_s", "s"),
    ("ideals.symbolic_power.gens", "count"),
    ("ideals.member_of_power.calls", "count"),
    ("graphs.build_path_hypergraph.busy_s", "s"),
    ("graphs.build_path_hypergraph.hyperedges", "count"),
    ("classify.classify_mengerian.busy_s", "s"),
    ("classify.decide_mengerian_exact.busy_s", "s"),
    ("classify.decide_mengerian_exact.self_s", "s"),
    ("classify.decide_mengerian_exact.calls", "count"),
    ("classify.decide_mengerian_exact.p50_ms", "ms"),
    ("classify.decide_mengerian_exact.p90_ms", "ms"),
    ("classify.verify_report_dict.busy_s", "s"),
    ("classify.verify_report_dict.checks", "count"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Wraps module attributes in place; ``restore`` puts the originals back."""

    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._saved: list[tuple] = []
        # has_packing span index -> distinct edge sets its Konig checks saw
        self._minor_sets: dict[int, set] = {}

    def install(self, modules: dict) -> None:
        for mod, attr, layer in SPAN_LAYERS:
            self._wrap_span(modules[mod], attr, layer)
        self._wrap_count(modules["linalg"], "bareiss_det",
                         "linalg.is_totally_unimodular.subdets",
                         inside="linalg.is_totally_unimodular")
        self._wrap_count(modules["ideals"], "member_of_power", "ideals.member_of_power.calls")

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap_span(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        lid = self._layer_id(layer)
        spans, open_ = self.spans, self._open

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [lid, 0.0, 0.0, open_[-1] if open_ else -1, None]
            spans.append(span)
            open_.append(idx)
            span[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                open_.pop()
            self._observe(layer, idx, args, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, functools.update_wrapper(wrapper, original))

    def _wrap_count(self, module, attr: str, counter: str, inside: str | None = None) -> None:
        original = getattr(module, attr)
        spans, open_, counts = self.spans, self._open, self.counts
        inside_id = None if inside is None else self._layer_id(inside)

        def wrapper(*args, **kwargs):
            if inside_id is None or (open_ and spans[open_[-1]][0] == inside_id):
                counts[counter] += 1
            return original(*args, **kwargs)

        self._saved.append((module, attr, original))
        setattr(module, attr, functools.update_wrapper(wrapper, original))

    def _observe(self, layer: str, idx: int, args: tuple, result) -> None:
        """Record the outcome counts that only the call's result shows."""
        span = self.spans[idx]
        if layer == "linalg.is_totally_unimodular" and not result.totally_unimodular:
            span[4] = "refuted"
        elif layer == "linalg.is_ideal":
            span[4] = "ideal" if result.ideal else "refuted"
        elif layer == "clutters.has_konig":
            parent = span[3]
            if parent >= 0 and self.layers[self.spans[parent][0]] == "clutters.has_packing":
                self._minor_sets.setdefault(parent, set()).add(args[0].edges)
        elif layer == "ideals.is_normally_torsion_free":
            self.counts["ideals.is_normally_torsion_free.k_checked"] += len(result.checked_k)
        elif layer == "ideals.symbolic_power":
            self.counts["ideals.symbolic_power.gens"] += len(result.gens)
        elif layer == "graphs.build_path_hypergraph":
            self.counts["graphs.build_path_hypergraph.hyperedges"] += result.m
        elif layer == "survey.enumerate_connected":
            self.counts["survey.enumerate_connected.classes"] += len(result)
        elif layer == "classify.verify_report_dict":
            self.counts["classify.verify_report_dict.checks"] += len(result)

    def dump(self, path: str) -> None:
        """Write every span and count; called once, after the workload ends."""
        counts = dict(self.counts)
        counts["clutters.has_packing.distinct_minors"] = sum(
            len(s) for s in self._minor_sets.values())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layers": self.layers, "spans": self.spans, "counts": counts}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass; idle layers read 0."""
    layers, spans, counts = dump["layers"], dump["spans"], dump["counts"]
    selfs = self_times(spans)
    by_layer: dict[str, list[int]] = {name: [] for name in layers}
    for idx, span in enumerate(spans):
        by_layer[layers[span[0]]].append(idx)

    def durations(layer, tag=None):
        return [spans[i][2] - spans[i][1] for i in by_layer.get(layer, ())
                if tag is None or spans[i][4] == tag]

    def busy(layer, tag=None):
        return sum(durations(layer, tag))

    def calls(layer, tag=None):
        return len(durations(layer, tag))

    def self_s(layer):
        return sum(selfs[i] for i in by_layer.get(layer, ()))

    latencies_ms = [d * 1e3 for d in durations("classify.decide_mengerian_exact")]
    konig_calls = sum(1 for i in by_layer.get("clutters.has_konig", ())
                      if spans[i][3] >= 0
                      and layers[spans[spans[i][3]][0]] == "clutters.has_packing")
    distinct = counts.get("clutters.has_packing.distinct_minors", 0)
    m = {
        "survey.enumerate_connected.busy_s": busy("survey.enumerate_connected"),
        "linalg.is_totally_unimodular.busy_s": busy("linalg.is_totally_unimodular"),
        "linalg.is_totally_unimodular.calls": calls("linalg.is_totally_unimodular"),
        "linalg.is_totally_unimodular.refuted": calls("linalg.is_totally_unimodular", "refuted"),
        "linalg.is_ideal.busy_s": busy("linalg.is_ideal"),
        "linalg.is_ideal.calls": calls("linalg.is_ideal"),
        "linalg.is_ideal.refuted": calls("linalg.is_ideal", "refuted"),
        "linalg.is_ideal.ideal_busy_s": busy("linalg.is_ideal", "ideal"),
        "linalg.is_ideal.refute_busy_s": busy("linalg.is_ideal", "refuted"),
        "clutters.has_packing.busy_s": busy("clutters.has_packing"),
        "clutters.has_packing.self_s": self_s("clutters.has_packing"),
        "clutters.has_packing.konig_calls": konig_calls,
        "clutters.has_packing.distinct_ratio": distinct / konig_calls if konig_calls else 0.0,
        "clutters.tau_nu.busy_s": busy("clutters.tau_nu"),
        "clutters.tau_nu.calls": calls("clutters.tau_nu"),
        "ideals.is_normally_torsion_free.busy_s": busy("ideals.is_normally_torsion_free"),
        "ideals.symbolic_power.busy_s": busy("ideals.symbolic_power"),
        "graphs.build_path_hypergraph.busy_s": busy("graphs.build_path_hypergraph"),
        "classify.classify_mengerian.busy_s": busy("classify.classify_mengerian"),
        "classify.decide_mengerian_exact.busy_s": busy("classify.decide_mengerian_exact"),
        "classify.decide_mengerian_exact.self_s": self_s("classify.decide_mengerian_exact"),
        "classify.decide_mengerian_exact.calls": len(latencies_ms),
        "classify.decide_mengerian_exact.p50_ms": percentile(latencies_ms, 50),
        "classify.decide_mengerian_exact.p90_ms": percentile(latencies_ms, 90),
        "classify.verify_report_dict.busy_s": busy("classify.verify_report_dict"),
        "cli.main.self_s": self_s("cli.main"),
    }
    for name, _ in LAYER_METRICS:
        m.setdefault(name, counts.get(name, 0))
    return m


def percentile(values: list[float], p: int) -> float:
    """The p-th percentile (statistics.quantiles, exclusive method); 0 if empty."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[p - 1]
