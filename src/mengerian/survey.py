"""Exhaustive small-graph enumeration and batch verification.

Connected graphs on up to 8 vertices are enumerated one per isomorphism
class, each as the least adjacency bitmask of its orbit under vertex
permutations, by orderly generation: a search that deletes edges from K_n
and keeps only least masks, so no orbit is ever scanned. The canonicity
test judges each choice of first vertex v before it searches it: rows
read v's adjacency first, so v's non-neighbours X must come next, and the
least rows of G[X] bound the branch. Most branches are decided by that
comparison alone. The enumeration takes about 0.1 s at n = 7 and 1.5 s
at n = 8 (three runs each in a fresh interpreter, 2-vCPU host, Python
3.11).

The survey runs the exact pipeline on every class and keeps one record
per instance, the one its JSON and CSV print. Its counters and its
findings are views of those records: disagreements with the closed-form
classifier, exceptions to the TU-or-non-ideal dichotomy, packing
verdicts that differ from the Mengerian one, and instances over a cap.
"""

from __future__ import annotations

import functools
from itertools import combinations
from typing import Optional, Sequence

from . import classify, clutters, graphs
from .classify import Caps, CapExceeded
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
    try:
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
    finally:
        _least_code.cache_clear()
    return [Graph(n, (pairs[b] for b in clutters._bits(mask)))
            for mask in sorted(found)]


def _is_least(mask: int, adj: list[int]) -> bool:
    """Is mask the least adjacency bitmask of its graph's isomorphism class?

    A relabelling fills positions n-1 down to 0. The vertex at position
    n-1-i brings row i of the mask: the i bits of the pairs (n-1-i, n-i) ..
    (n-1-i, n-1), its adjacency to the vertices placed before it, the
    first placed as the most significant bit. Rows 1, 2, ... fill the mask
    from its top bit down, so the mask is least when no relabelling gives
    lexicographically smaller rows.

    Each root branch, a vertex v placed first, is judged before it is
    searched. A row's most significant bit is its adjacency to v, so the
    branch's least rows 1..|X| place v's non-neighbours X, each row a 0
    followed by the least rows of G[X] (``_least_code``), and its row
    |X|+1 starts with 1. Let k be the mask's number of leading rows that
    start with 0. Against the mask's first min(|X|, k) rows, a branch
    whose rows are smaller, or equal with |X| > k, proves a smaller mask;
    one whose rows are larger, or equal with |X| < k, is skipped; only an
    equal one with |X| = k is searched (``_search``). Twins are judged once
    at the root as at every level.
    """
    n = len(adj)
    if n == 1:
        return True
    top = n * (n - 1) // 2
    k = n - 1 - adj[-1].bit_length()
    full = (1 << n) - 1
    rows = [mask >> (top - i * (i + 1) // 2) & ((1 << i) - 1) for i in range(n)]
    explored = set()
    for v in range(n):
        low = 1 << v
        nbrs = adj[v]
        if nbrs in explored or nbrs | low in explored:
            continue
        explored.add(nbrs)
        explored.add(nbrs | low)
        x_set = full ^ nbrs ^ low
        x = x_set.bit_count()
        j = min(x, k)
        got = want = 0
        if j:
            sub = tuple([a & x_set if x_set >> w & 1 else 0 for w, a in enumerate(adj)])
            # rows 1..j are the top j(j+1)/2 bits of either code
            bits = j * (j + 1) // 2
            got = _least_code(x_set, sub) >> (x * (x + 1) // 2 - bits)
            want = mask >> (top - bits)
        # on equal rows, more rows that start with 0 make the smaller mask
        branch = (got, k - x)
        if branch != (want, 0):
            if branch < (want, 0):
                return False
            continue
        cells = [(p, c) for p, c in ((0, x_set), (1, nbrs)) if c]
        if not _search(adj, cells, full ^ low, 1, rows, False):
            return False
    return True


@functools.lru_cache(maxsize=1 << 16)
def _least_code(free: int, sub: tuple[int, ...]) -> int:
    """The least rows of the graph on the vertex set free, as one integer.

    ``sub[w]`` is vertex w's neighbours in free, 0 off it. Row i+1, of
    width i+1, is the graph's row i under a 0 bit, as the rows of a root's
    non-neighbours read below the root, so rows 1..j are the code's top
    j(j+1)/2 bits. The search is ``_search`` as a minimiser. Memoised:
    ``enumerate_connected`` looks up about 127k roots at n = 8 on 2858
    distinct induced graphs, and clears the memo when it ends.
    """
    rows = [0]
    _search(sub, [(0, free)], free, 0, rows, True)
    code = 0
    for i, r in enumerate(rows, 1):
        code = code << i | r
    return code


def _search(adj: Sequence[int], cells: list[tuple[int, int]], free: int, i: int,
            rows: list[int], minimise: bool) -> bool:
    """Extend a labelling whose rows 0..i equal rows[:i+1]; False on a smaller one.

    ``cells`` partitions the unplaced vertices, ``free``, by their pattern:
    their adjacency to the placed vertices, read as their next row would
    read it. The cells are in increasing pattern order, so the first
    cell's pattern is row i and only its members can come next. Placing u
    splits every cell into u's non-neighbours and neighbours, which
    appends a 0 or a 1 to its pattern, so the child's next row is its
    first cell's pattern, judged before the child is entered. A child
    whose row exceeds rows[i+1] is skipped. A smaller one refutes the mask,
    or, in a minimiser (``minimise``), becomes the new least prefix: rows
    is cut there and extended, and ends as the graph's least rows.

    Twins are placed once per level. Every candidate has the cell's
    pattern, so a candidate v with the same unplaced neighbours as an
    explored u (open neighbourhoods if the two are apart, closed if
    adjacent) has u's neighbours apart from u and v. Swapping u and v is
    then an automorphism that fixes every placed vertex, so v's branch
    would give u's rows. This keeps stars and complete graphs polynomial.
    """
    first = cells[0][1]
    # open and closed unplaced neighbourhoods of the candidates explored
    # here; N(u) never equals N[v], since it would hold v, so u ~ v, and
    # then u itself
    explored = set()
    f = first
    while f:
        low = f & -f
        f ^= low
        nbrs = adj[low.bit_length() - 1] & free
        if first != low:
            if nbrs in explored or nbrs | low in explored:
                continue
            explored.add(nbrs)
            explored.add(nbrs | low)
        child = []
        for pc, c in cells:
            c &= ~low
            if c & ~nbrs:
                child.append((2 * pc, c & ~nbrs))
            if c & nbrs:
                child.append((2 * pc + 1, c & nbrs))
        if not child:
            continue  # the last vertex: every row matched
        q = child[0][0]
        if i + 1 < len(rows):
            if q > rows[i + 1]:
                continue
            if q < rows[i + 1]:
                if not minimise:
                    return False
                del rows[i + 1:]
                rows.append(q)
        else:
            rows.append(q)
        if not _search(adj, child, free ^ low, i + 1, rows, minimise):
            return False
    return True


def _key(rec: dict) -> dict:
    return {"n": rec["n"], "index": rec["index"], "graph6": rec["graph6"]}


class SurveyReport:
    """Aggregate outcome of a survey run; see cross_check.

    ``instances`` holds one record per instance, with the keys that the
    JSON instances print, and is the report's only state: the counters
    and the four finding lists are views of it, in instance order, so a
    report over the records of several runs, in order, is that of one run.
    """

    def __init__(self, t: int, n_min: int, n_max: int):
        self.t, self.n_min, self.n_max = t, n_min, n_max
        self.instances: list[dict] = []

    def _decided(self) -> list[dict]:
        return [r for r in self.instances if r["incomplete"] is None]

    @property
    def counters(self) -> dict:
        done = self._decided()
        per_n: dict[int, int] = {}
        for r in done:
            if r["mengerian"]:
                per_n[r["n"]] = per_n.get(r["n"], 0) + 1
        return {
            "total": len(self.instances),
            "decided": len(done),
            "mengerian": sum(1 for r in done if r["mengerian"]),
            "non_ideal": sum(1 for r in done if r["trace"] == classify.TRACE_NON_IDEAL),
            "tu": sum(1 for r in done if r["tu"]),
            "power_equality": sum(1 for r in done if r["trace"] == classify.TRACE_POWER),
            "empty": sum(1 for r in done if r["trace"] == classify.TRACE_EMPTY),
            "mengerian_per_n": {str(n): per_n.get(n, 0) for n in range(self.n_min, self.n_max + 1)},
        }

    @property
    def mismatches(self) -> list[dict]:
        """Classified instances whose clause's verdict differs from the pipeline's.

        Every clause but NOT_MENGERIAN is a positive verdict
        (``classify_mengerian``), so the classifier says the opposite of
        the pipeline on each.
        """
        return [{**_key(r), "classifier": r["clause"], "pipeline": r["trace"],
                 "classifier_mengerian": not r["mengerian"], "pipeline_mengerian": r["mengerian"]}
                for r in self._decided() if r["clause"] is not None
                and (r["clause"] != classify.CLAUSE_NOT_MENGERIAN) != r["mengerian"]]

    @property
    def dichotomy_exceptions(self) -> list[dict]:
        """Decided instances that are neither totally unimodular nor non-ideal."""
        return [{**_key(r), "trace": r["trace"], "mengerian": r["mengerian"]}
                for r in self._decided()
                if not r["tu"] and r["trace"] != classify.TRACE_NON_IDEAL]

    @property
    def conjecture_violations(self) -> list[dict]:
        """Decided instances whose packing verdict differs from the Mengerian one."""
        return [{**_key(r), "packing": r["packing"], "mengerian": r["mengerian"]}
                for r in self._decided() if r["packing"] != r["mengerian"]]

    @property
    def incomplete(self) -> list[dict]:
        """Instances over a resource cap, each with the cap's message."""
        return [{**_key(r), "reason": r["incomplete"]}
                for r in self.instances if r["incomplete"] is not None]

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
            "instances": self.instances,
        }

    def to_csv(self) -> str:
        """The instance records as CSV_COLUMNS, with None written as an empty field."""
        lines = [",".join(CSV_COLUMNS)]
        for rec in self.instances:
            lines.append(",".join("" if rec[k] is None else str(rec[k]) for k in CSV_COLUMNS))
        return "\n".join(lines) + "\n"


def cross_check(
    n_max: int,
    t: int = 3,
    n_min: int = 4,
    caps: Optional[Caps] = None,
) -> SurveyReport:
    """Survey all connected classes with n_min <= n <= n_max.

    Each class is decided once and becomes one record in the report's
    ``instances``; no DecisionReport is kept. At t = 3 the record also
    holds the closed form's clause, and a clause whose verdict differs
    from the pipeline's is a mismatch (expected empty). Instances that
    are neither totally unimodular nor non-ideal are dichotomy
    exceptions; every instance reports packing, and packing-versus-
    Mengerian disagreements are conjecture findings, never assertion
    failures. Instances over a resource cap are INCOMPLETE and never
    counted as verified. n_min or n_max outside 1..ENUMERATION_CAP, or
    n_min > n_max, raises ValueError before any instance is decided.
    """
    _check_n(n_min)
    _check_n(n_max)
    if n_min > n_max:
        raise ValueError(f"empty survey range: min-n {n_min} > max-n {n_max}")
    caps = caps or Caps()
    report = SurveyReport(t=t, n_min=n_min, n_max=n_max)
    for n in range(n_min, n_max + 1):
        for idx, g in enumerate(enumerate_connected(n)):
            rec = {"n": n, "index": idx, "graph6": graphs.to_graph6(g), "trace": "INCOMPLETE",
                   "mengerian": None, "clause": None, "tu": None, "ideal": None,
                   "packing": None, "konig": None, "incomplete": None}
            try:
                rep = classify.decide_mengerian_exact(g, t, caps=caps)
            except CapExceeded as exc:
                rec["incomplete"] = str(exc)
            else:
                rec.update(trace=rep.trace, mengerian=rep.mengerian,
                           clause=rep.classifier.clause if rep.classifier else None,
                           tu=rep.tu.totally_unimodular,
                           ideal=None if rep.ideal is None else rep.ideal.ideal,
                           packing=rep.packing, konig=rep.tau == rep.nu)
            report.instances.append(rec)
    return report
