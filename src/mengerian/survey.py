"""Exhaustive small-graph enumeration and batch verification.

Connected graphs on up to 8 vertices are enumerated one per isomorphism
class, each as the least adjacency bitmask of its orbit under vertex
permutations, by orderly generation: a search that deletes edges from K_n
and keeps only least masks, so no orbit is ever scanned. The survey runs
the exact pipeline on every class, compares it against the closed-form
classifier, audits the TU-or-non-ideal dichotomy, and checks packing,
which every instance reports, against the Mengerian verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from . import classify, clutters, graphs
from .classify import Caps, CapExceeded, DecisionReport
from .graphs import Graph

ENUMERATION_CAP = 8
CSV_COLUMNS = ("n", "index", "graph6", "clause", "trace", "mengerian", "tu", "ideal",
               "konig", "packing")


def _check_n(n: int) -> None:
    if not 1 <= n <= ENUMERATION_CAP:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_CAP}")


def enumerate_connected(n: int) -> list[Graph]:
    """All connected graphs on n vertices (1 <= n <= 8), one per isomorphism class.

    Each class is represented by its least adjacency bitmask, bit i standing
    for combinations(range(n), 2)[i]. Classes appear in increasing order of
    that mask.

    Orderly generation by edge deletion (Read 1978, Faradzev 1978): setting
    the lowest zero bit of a least mask gives a least mask, so every least
    mask but K_n's has a unique least parent, and a connected one has a
    connected parent. The search starts from K_n and clears each bit of a
    parent's run of trailing ones, keeping the children that are connected
    and least in their orbit.
    """
    _check_n(n)
    pairs = list(combinations(range(n), 2))
    full = (1 << len(pairs)) - 1
    adj_full = [((1 << n) - 1) ^ (1 << v) for v in range(n)]
    found = []
    stack = [(full, adj_full)]
    while stack:
        mask, adj = stack.pop()
        found.append(mask)
        run = ((mask + 1) & ~mask).bit_length() - 1
        for b in range(run):
            u, v = pairs[b]
            child = adj[:]
            child[u] ^= 1 << v
            child[v] ^= 1 << u
            cmask = mask ^ (1 << b)
            if graphs.masks_connected(child) and _is_least(cmask, child):
                stack.append((cmask, child))
    return [graphs.graph(n, (pairs[b] for b in clutters._bits(mask)))
            for mask in sorted(found)]


def _is_least(mask: int, adj: list[int]) -> bool:
    """Is mask the least adjacency bitmask of its graph's isomorphism class?

    A backtrack over relabellings that fills positions n-1 down to 0. Placing
    a vertex at position a fixes the bits of pairs (a, a+1) .. (a, n-1), the
    next block of the mask from the top, as its adjacency to the vertices
    already placed. A branch whose block exceeds the mask's is dropped; one
    below it proves a smaller mask in the orbit.

    Twins are explored once per level. Every explored candidate's block is
    the mask's, so a candidate v with that block and the same unplaced
    neighbours as an explored u (open neighbourhoods if the two are apart,
    closed if adjacent) has u's neighbours apart from u and v. Swapping u
    and v is then an automorphism that fixes every placed vertex, so v's
    branch would give u's verdict. This keeps stars and complete graphs
    polynomial.
    """
    n = len(adj)

    def place(a: int, free: int, rows: list[int]) -> bool:
        # rows[v] has bit p set when v is adjacent to the vertex at position p;
        # bit a*(n-1) - a*(a-1)/2 of the mask is the pair (a, a+1)
        want = (mask >> (a * (n - 1) - a * (a - 1) // 2)) & ((1 << (n - 1 - a)) - 1)
        # open and closed unplaced neighbourhoods of the candidates explored
        # here; N(u) never equals N[v], since it would hold v, so u ~ v, and
        # then u itself
        explored = set()
        f = free
        while f:
            low = f & -f
            f ^= low
            v = low.bit_length() - 1
            got = rows[v] >> (a + 1)
            if got < want:
                return False
            if got == want and a:
                nbrs = adj[v] & free
                if nbrs in explored or nbrs | low in explored:
                    continue
                explored.add(nbrs)
                explored.add(nbrs | low)
                nxt = rows[:]
                bit = 1 << a
                while nbrs:
                    w = nbrs & -nbrs
                    nbrs ^= w
                    nxt[w.bit_length() - 1] |= bit
                if not place(a - 1, free ^ low, nxt):
                    return False
        return True

    return place(n - 1, (1 << n) - 1, [0] * n)


@dataclass
class SurveyRow:
    n: int
    index: int
    report: Optional[DecisionReport]
    incomplete: Optional[str] = None


def _instance(row: SurveyRow) -> dict:
    """The one per-instance record that the JSON instances and the CSV rows print."""
    rec = {"n": row.n, "index": row.index, "graph6": None, "trace": "INCOMPLETE",
           "mengerian": None, "clause": None, "tu": None, "ideal": None,
           "packing": None, "konig": None, "incomplete": row.incomplete}
    rep = row.report
    if rep is not None:
        rec.update(graph6=graphs.to_graph6(rep.graph), trace=rep.trace,
                   mengerian=rep.mengerian,
                   clause=rep.classifier.clause if rep.classifier else None,
                   tu=rep.tu.totally_unimodular,
                   ideal=None if rep.ideal is None else rep.ideal.ideal,
                   packing=rep.packing, konig=rep.tau == rep.nu)
    return rec


@dataclass
class SurveyReport:
    """Aggregate outcome of a survey run; see cross_check."""

    t: int
    n_min: int
    n_max: int
    rows: list[SurveyRow] = field(default_factory=list)
    mismatches: list[dict] = field(default_factory=list)
    conjecture_violations: list[dict] = field(default_factory=list)
    dichotomy_exceptions: list[dict] = field(default_factory=list)
    incomplete: list[dict] = field(default_factory=list)

    @property
    def counters(self) -> dict:
        done = [r.report for r in self.rows if r.report is not None]
        per_n: dict[int, int] = {}
        for rep in done:
            if rep.mengerian:
                per_n[rep.graph.n] = per_n.get(rep.graph.n, 0) + 1
        return {
            "total": len(self.rows),
            "decided": len(done),
            "mengerian": sum(1 for r in done if r.mengerian),
            "non_ideal": sum(1 for r in done if r.trace == classify.TRACE_NON_IDEAL),
            "tu": sum(1 for r in done if r.tu.totally_unimodular),
            "power_equality": sum(1 for r in done if r.trace == classify.TRACE_POWER),
            "empty": sum(1 for r in done if r.trace == classify.TRACE_EMPTY),
            "mengerian_per_n": {str(n): per_n.get(n, 0) for n in range(self.n_min, self.n_max + 1)},
        }

    def to_json_dict(self) -> dict:
        return {
            "schema": 1,
            "t": self.t,
            "n_min": self.n_min,
            "n_max": self.n_max,
            "counters": self.counters,
            "mismatches": self.mismatches,
            "conjecture_violations": self.conjecture_violations,
            "dichotomy_exceptions": self.dichotomy_exceptions,
            "incomplete": self.incomplete,
            "instances": [_instance(row) for row in self.rows],
        }

    def to_csv(self) -> str:
        """The instance records as CSV_COLUMNS, with None written as an empty field."""
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            rec = _instance(row)
            lines.append(",".join("" if rec[k] is None else str(rec[k]) for k in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def cross_check(
    n_max: int,
    t: int = 3,
    n_min: int = 4,
    caps: Optional[Caps] = None,
) -> SurveyReport:
    """Survey all connected classes with n_min <= n <= n_max.

    At t = 3 every instance is also classified by the closed form and any
    disagreement lands in mismatches (expected empty). Instances that are
    neither totally unimodular nor non-ideal are dichotomy exceptions;
    every instance reports packing, and packing-versus-Mengerian
    disagreements are conjecture findings, never assertion failures.
    Instances over a resource cap are INCOMPLETE and never counted as
    verified. n_min or n_max outside 1..ENUMERATION_CAP, or n_min > n_max,
    raises ValueError before any instance is decided.
    """
    _check_n(n_min)
    _check_n(n_max)
    if n_min > n_max:
        raise ValueError(f"empty survey range: min-n {n_min} > max-n {n_max}")
    caps = caps or Caps()
    report = SurveyReport(t=t, n_min=n_min, n_max=n_max)
    for n in range(n_min, n_max + 1):
        for idx, g in enumerate(enumerate_connected(n)):
            key = {"n": n, "index": idx, "graph6": graphs.to_graph6(g)}
            try:
                rep = classify.decide_mengerian_exact(g, t, caps=caps)
            except CapExceeded as exc:
                report.rows.append(SurveyRow(n, idx, None, incomplete=str(exc)))
                report.incomplete.append({**key, "reason": str(exc)})
                continue
            row = SurveyRow(n, idx, rep)
            report.rows.append(row)
            if rep.classifier is not None and rep.classifier.mengerian != rep.mengerian:
                report.mismatches.append({
                    **key,
                    "classifier": rep.classifier.clause,
                    "pipeline": rep.trace,
                    "classifier_mengerian": rep.classifier.mengerian,
                    "pipeline_mengerian": rep.mengerian,
                })
            if not rep.tu.totally_unimodular and rep.trace != classify.TRACE_NON_IDEAL:
                report.dichotomy_exceptions.append({
                    **key, "trace": rep.trace, "mengerian": rep.mengerian,
                })
            if rep.packing != rep.mengerian:
                report.conjecture_violations.append({
                    **key, "packing": rep.packing, "mengerian": rep.mengerian,
                })
    return report
