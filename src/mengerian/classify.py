"""Graph-class predicates and the exact Mengerian decision pipeline.

The classifier implements the closed-form characterization (four vertices,
the 8-cycle, paths with double stars, stars with a leaf edge); the exact
pipeline decides the same question from first principles via idealness,
total unimodularity, and power equality, and reports which route was
decisive together with machine-checkable certificates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import clutters, graphs, ideals, linalg
from .clutters import Clutter
from .graphs import Graph

CLAUSE_FOUR_VERTICES = "FOUR_VERTICES"
CLAUSE_C8 = "C8"
CLAUSE_PATH_WITH_DOUBLE_STARS = "PATH_WITH_DOUBLE_STARS"
CLAUSE_STAR_PLUS_EDGE = "STAR_PLUS_EDGE"
CLAUSE_NOT_MENGERIAN = "NOT_MENGERIAN"

TRACE_EMPTY = "EMPTY"
TRACE_TU = "TU_SHORTCUT"
TRACE_NON_IDEAL = "NON_IDEAL"
TRACE_POWER = "POWER_EQUALITY"


@dataclass(frozen=True)
class ClassVerdict:
    mengerian: bool
    clause: str


def is_path_with_double_stars(g: Graph) -> bool:
    """Tree with at most two vertices adjacent to leaves (paths and stars count)."""
    if g.m != g.n - 1:
        return False
    adj = graphs.adjacency(g)
    leaf_neighbors = {a for a in adj if a.bit_count() == 1}
    return graphs.masks_connected(adj) and len(leaf_neighbors) <= 2


def is_star_plus_edge(g: Graph) -> bool:
    """A star with one extra edge joining two leaves; K3 qualifies.

    A vertex of degree n - 1 spends n - 1 edges on reaching every other
    vertex, so the graph is connected, and m = n leaves exactly one more
    edge, which joins two leaves.
    """
    return g.m == g.n and any(a.bit_count() == g.n - 1 for a in graphs.adjacency(g))


def classify_mengerian(g: Graph) -> ClassVerdict:
    """Closed-form verdict for connected graphs at path length 3.

    Connected graphs on at most four vertices have at most one hyperedge,
    so they fall under the four-vertex clause. A connected graph on eight
    vertices that are all of degree two is the 8-cycle. Clause order is
    fixed; overlaps resolve to the earliest clause.
    """
    if not graphs.is_connected(g):
        raise ValueError("the classifier is defined for connected graphs")
    if g.n <= 4:
        return ClassVerdict(True, CLAUSE_FOUR_VERTICES)
    if g.n == 8 and all(g.degree(v) == 2 for v in range(8)):
        return ClassVerdict(True, CLAUSE_C8)
    if is_path_with_double_stars(g):
        return ClassVerdict(True, CLAUSE_PATH_WITH_DOUBLE_STARS)
    if is_star_plus_edge(g):
        return ClassVerdict(True, CLAUSE_STAR_PLUS_EDGE)
    return ClassVerdict(False, CLAUSE_NOT_MENGERIAN)


# ---------------------------------------------------------------------------
# exact pipeline

@dataclass(frozen=True)
class Caps:
    """Resource bounds; exceeding one aborts the instance, never approximates."""

    max_vertices: int = 12
    max_edges: int = 64
    max_power_k: int = 8


class CapExceeded(RuntimeError):
    pass


def check_caps(caps: Caps, n: int, m: int = 0) -> None:
    """Refuse an instance with more vertices or hyperedges than its cap."""
    if n > caps.max_vertices:
        raise CapExceeded(f"n={n} exceeds the vertex cap {caps.max_vertices}")
    if m > caps.max_edges:
        raise CapExceeded(f"m={m} exceeds the edge cap {caps.max_edges}")


def capped_hypergraph(g: Graph, t: int, caps: Caps) -> Clutter:
    """H_t(g) under the caps; the vertex cap is applied before the build."""
    check_caps(caps, g.n)
    c = graphs.build_path_hypergraph(g, t)
    check_caps(caps, c.n, c.m)
    return c


@dataclass
class DecisionReport:
    """Full pipeline verdict with method trace and certificates."""

    graph: Graph
    t: int
    hypergraph: Clutter
    trace: str
    mengerian: bool
    tu: linalg.TUResult
    tau: int
    nu: int
    packing: bool
    ideal: Optional[linalg.IdealityResult] = None
    ntf: Optional[ideals.NtfResult] = None
    classifier: Optional[ClassVerdict] = None

    @property
    def agreement(self) -> Optional[bool]:
        if self.classifier is None:
            return None
        return self.classifier.mengerian == self.mengerian

    def to_json_dict(self, certificates: bool = True) -> dict:
        return {
            **report_header(self.graph, self.t, self.hypergraph),
            "trace": self.trace,
            "mengerian": self.mengerian,
            "checks": {
                "tu": tu_json(self.tu, certificates),
                "ideal": ideal_json(self.ideal, certificates),
                "konig": konig_json(self.tau, self.nu),
                "packing": self.packing,
                "ntf": ntf_json(self.ntf, certificates),
            },
            "classifier": None if self.classifier is None else {
                "mengerian": self.classifier.mengerian,
                "clause": self.classifier.clause,
                "note": "",
            },
            "agreement": self.agreement,
        }


def report_header(g: Graph, t: int, c: Clutter) -> dict:
    """The keys every decide and check report opens with: the graph, t and c = H_t."""
    return {
        "schema": 1,
        "graph": {"n": g.n, "edges": [[u + 1, v + 1] for u, v in sorted(g.edges)]},
        "t": t,
        "hypergraph": clutters.to_json_dict(c),
    }


def konig_json(tau: int, nu: int) -> dict:
    return {"value": tau == nu, "tau": tau, "nu": nu}


def tu_json(res: linalg.TUResult, certificates: bool) -> dict:
    d: dict = {"value": res.totally_unimodular}
    if certificates and res.witness is not None:
        d["witness"] = {
            "rows": [i + 1 for i in res.witness.rows],
            "cols": [j + 1 for j in res.witness.cols],
            "det": str(res.witness.det),
        }
    return d


def ideal_json(res: Optional[linalg.IdealityResult], certificates: bool) -> Optional[dict]:
    if res is None:
        return None
    d: dict = {"value": res.ideal}
    if certificates and res.certificate is not None:
        d["fractional_vertex"] = {
            "coords": [str(c) for c in res.certificate.coords],
            "tight_rows": [i + 1 for i in res.certificate.tight_rows],
        }
    return d


def ntf_json(res: Optional[ideals.NtfResult], certificates: bool) -> Optional[dict]:
    if res is None:
        return None
    d: dict = {
        "value": res.normally_torsion_free,
        "mu": res.mu,
        "bound": res.bound,
        "checked_k": list(res.checked_k),
    }
    if certificates and res.violation is not None:
        d["violation"] = {
            "k": res.checked_k[-1],
            "monomial": ideals.format_monomial(res.violation),
            "exponents": list(res.violation),
        }
    return d


def decide_mengerian_exact(g: Graph, t: int = 3, caps: Caps = Caps()) -> DecisionReport:
    """Exact Mengerian decision with a method trace.

    Routes, in order. Idealness comes first, and ``linalg.is_ideal`` also
    settles total unimodularity: a fractional vertex of the covering
    polyhedron decides negatively (NON_IDEAL) and refutes TU through the
    witness read off it. An ideal clutter is settled by the TU verdict of
    the same call: an empty hypergraph is vacuously Mengerian (EMPTY), a
    totally unimodular incidence matrix decides positively (TU_SHORTCUT,
    reported with ``ideal`` unset), and the rest, ideal and not TU, are
    settled by power equality up to ceil(mu/2), which is always conclusive
    (POWER_EQUALITY).

    Packing is always reported: tau != nu refutes it, backed by the Konig
    values; a Mengerian clutter packs (Konig on every minor is the min-max
    equation for weights in {0, 1, infinity}); the rest take the walk
    ``clutters.has_packing``. A clutter with the packing property is ideal
    (Lehman 1990; Cornuéjols, Guenin & Margot 2000, *The packing
    property*), so a non-ideal clutter is walked only on the face C/Z of
    its fractional vertex, Z the vertex's zero set. The vertex stays a
    fractional vertex of Q(C/Z), so some minor of C/Z, which is a minor
    of C, fails Konig; the vertex backs the refutation. A face walk that
    finds none raises ArithmeticError rather than report a non-ideal
    clutter as packing. An ideal clutter that is not Mengerian (none
    through n=8) is walked whole, and that refutation carries no
    certificate. ``check packing`` and ``check ntf`` print this report,
    so they answer under the same caps, the power cap included.
    """
    c = capped_hypergraph(g, t, caps)

    classifier = None
    if t == 3 and graphs.is_connected(g):
        classifier = classify_mengerian(g)

    tau, nu = clutters.tau(c), clutters.nu(c)

    ideality = linalg.is_ideal(c)
    ntf = None
    if not ideality.ideal:
        trace, mengerian = TRACE_NON_IDEAL, False
    elif c.is_empty:
        trace, mengerian = TRACE_EMPTY, True
        ntf = ideals.is_normally_torsion_free(c)
    elif ideality.tu.totally_unimodular:
        trace, mengerian = TRACE_TU, True
    else:
        bound = ideals.power_bound(c.m)
        if bound > caps.max_power_k:
            raise CapExceeded(f"power-equality bound {bound} exceeds the cap {caps.max_power_k}")
        ntf = ideals.is_normally_torsion_free(c)
        trace, mengerian = TRACE_POWER, ntf.normally_torsion_free
    packing = tau == nu and (mengerian or _walk_packing(c, ideality.certificate))
    return DecisionReport(g, t, c, trace, mengerian, ideality.tu, tau, nu, packing,
                          ideal=None if trace == TRACE_TU else ideality,
                          ntf=ntf, classifier=classifier)


def _walk_packing(c: Clutter, vertex: Optional[linalg.PolyhedronVertex]) -> bool:
    """The packing walk on c, or on the face C/Z of c's fractional vertex.

    C/Z contracts the vertex's zero set Z in one pass, and is never the
    unit clutter, since the vertex is feasible.
    """
    if vertex is None:
        return clutters.has_packing(c)
    zeros = sum(1 << j for j, x in enumerate(vertex.coords) if not x)
    face = clutters._minimal_masks(e & ~zeros for e in c.masks)
    if clutters.has_packing(Clutter.from_masks(c.n, face)):
        raise ArithmeticError("the face of a fractional vertex packs, against Lehman's theorem")
    return False


# ---------------------------------------------------------------------------
# certificate re-validation

def report_hypergraph(d: dict) -> Clutter:
    """The hypergraph a report carries; ValueError when it has none."""
    try:
        return clutters.from_json_dict(d["hypergraph"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"report has no well-formed hypergraph ({type(exc).__name__}: {exc})") from None


def _report_graph(d: dict) -> tuple[Graph, int]:
    """The graph and the path length t that a report names."""
    try:
        n, t = d["graph"]["n"], d["t"]
        pairs = [(u - 1, v - 1) for u, v in d["graph"]["edges"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(
            f"report has a malformed graph ({type(exc).__name__}: {exc})") from None
    if not all(type(x) is int for x in (n, t, *(x for p in pairs for x in p))):
        raise ValueError("report has a malformed graph (n, t and vertices must be integers)")
    return graphs.graph(n, pairs), t


def _section(d: dict, key: str) -> dict:
    """The object under key, or {} when it is absent or null."""
    v = d.get(key)
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise ValueError(f"report field {key!r} is not an object")
    return v


def _checks(d: dict) -> dict:
    """The results, which every report nests under "checks".

    A top-level section, as check reports had before they named their
    graph, is refused rather than skipped with its certificates.
    """
    for key in ("tu", "ideal", "konig", "packing", "ntf"):
        if key in d:
            where = "beside" if "checks" in d else "outside"
            raise ValueError(f"report has a top-level {key!r} section {where} 'checks'")
    return _section(d, "checks")


def _rational(s, what: str) -> Fraction:
    """An exact rational; an exponent form and a non-finite float are malformed.

    Fraction("1e100000000") would expand the exponent digit by digit, and
    an error quotes only the start of a long value.
    """
    if not (isinstance(s, str) and "e" in s.lower()):
        try:
            return Fraction(s)
        except (TypeError, ValueError, ZeroDivisionError, OverflowError):
            pass
    text = repr(s)
    raise ValueError(f"report has a malformed {what}: "
                     f"{text if len(text) <= 40 else text[:40] + '...'}")


def _list(d: dict, key: str) -> list:
    v = d.get(key)
    if not isinstance(v, list):
        raise ValueError(f"report field {key!r} is not a list")
    return v


def _indices(values, top: int) -> Optional[list[int]]:
    """0-based indices from distinct 1-based integers in 1..top, else None."""
    if not isinstance(values, list) or not all(
            type(v) is int and 1 <= v <= top for v in values):
        return None
    return [v - 1 for v in values] if len(set(values)) == len(values) else None


def _exponents(values, n: int) -> Optional[ideals.Monomial]:
    """An exponent vector of n nonnegative integers, else None."""
    if isinstance(values, list) and len(values) == n and all(
            type(e) is int and e >= 0 for e in values):
        return tuple(values)
    return None


def _is_int(claimed, value: int) -> bool:
    """A claimed number equals value and is an int, not a bool or a float."""
    return type(claimed) is int and claimed == value


def _refuting(name: str, ok: bool, msg: str, **verdicts) -> tuple[str, bool, str]:
    """A certificate check; it fails, too, unless each verdict it refutes is false."""
    claimed = [k for k, v in verdicts.items() if v is not False]
    if claimed:
        return name, False, f"{msg}; the report does not set {' and '.join(claimed)} false"
    return name, ok, msg


def verify_report_dict(d: dict, caps: Caps = Caps()) -> list[tuple[str, bool, str]]:
    """Independently re-validate a report and every certificate in it.

    Returns (check name, ok, message) triples; an empty list means the
    report carried nothing verifiable (positive verdicts have no compact
    witness). A report that names its graph must carry H_t of that graph,
    and a certificate is valid only when the report sets every verdict it
    refutes to false; Konig values with tau != nu refute the packing and
    Mengerian verdicts a report gives, and a fractional vertex refutes its
    packing verdict, since a clutter that packs is ideal. Certificates are
    read only under "checks". A check report's "holds" must be its own
    verdict: "value" of its property's section, the packing bool, or
    "mengerian" for ntf; a mismatch adds one failed "holds" check, and a
    report that gives "holds" without such a "property" is malformed.

    The hypergraph's n and edge count as listed are capped before the
    clutter is built, since the build's antichain check is quadratic in
    the edges; a malformed value is left to the build, which names it. A
    power violation's k is capped before its membership search.
    CapExceeded is raised past a cap. Malformed input raises ValueError,
    as does a report of the retired bounded min-max probe.
    """
    h = d.get("hypergraph") if isinstance(d, dict) else None
    n, edges = (h.get("n"), h.get("edges")) if isinstance(h, dict) else (None, None)
    check_caps(caps, n if type(n) is int else 0, len(edges) if isinstance(edges, list) else 0)
    c = report_hypergraph(d)
    if "mfmc_probe" in d:
        raise ValueError("report key 'mfmc_probe' is retired; check ntf gives the exact verdict")
    out: list[tuple[str, bool, str]] = []
    if "graph" in d:
        g, t = _report_graph(d)
        same = g.n == c.n and graphs.build_path_hypergraph(g, t).edges == c.edges
        out.append(("hypergraph", same,
                    f"{'equals' if same else 'differs from'} H_{t} of the report's graph"))
    mengerian = d.get("mengerian", False)

    checks = _checks(d)
    tu = _section(checks, "tu")
    w = _section(tu, "witness")
    if w:
        rows, cols = _indices(w.get("rows"), c.m), _indices(w.get("cols"), c.n)
        if rows and cols and len(rows) == len(cols):
            A = clutters.incidence_matrix(c)
            det = linalg.bareiss_det([[A[i][j] for j in cols] for i in rows])
            claimed = w.get("det")
            _rational(claimed, "witness det")  # a non-number is malformed
            # a number is valid only as the integer's decimal string, as tu_json writes it
            ok, msg = claimed == str(det) and det not in (-1, 0, 1), f"subdeterminant {det}"
        else:
            ok, msg = False, (f"rows and cols must be equally many distinct indices "
                              f"in 1..{c.m} and 1..{c.n}")
        out.append(_refuting("tu_witness", ok, msg, tu=tu.get("value")))

    ideal = _section(checks, "ideal")
    vertex = _section(ideal, "fractional_vertex")
    if vertex:
        coords = [_rational(x, "vertex coordinate") for x in _list(vertex, "coords")]
        chk = linalg.verify_vertex(c, coords)
        tight = _indices(vertex.get("tight_rows"), c.m + c.n)
        same_tight = tight is not None and sorted(tight) == list(chk.tight_rows)
        msg = f"feasible={chk.feasible} tight_rank={chk.tight_rank}/{c.n}"
        # a clutter that packs is ideal, so the vertex refutes the report's packing too
        packing = checks.get("packing")
        refuted = {"packing": packing} if isinstance(packing, bool) else {}
        out.append(_refuting("fractional_vertex",
                             chk.is_vertex and not chk.is_integral and same_tight,
                             msg if same_tight else msg + ", tight_rows differ",
                             ideal=ideal.get("value"), mengerian=mengerian, **refuted))

    konig = _section(checks, "konig")
    if "tau" in konig:
        t_, n_ = clutters.tau(c), clutters.nu(c)
        ok = (_is_int(konig["tau"], t_) and _is_int(konig.get("nu"), n_)
              and konig.get("value") is (t_ == n_))
        # tau > nu refutes packing and the Mengerian property at the clutter itself
        verdicts = {"packing": checks.get("packing"), "mengerian": d.get("mengerian")}
        refuted = {} if t_ == n_ else {k: v for k, v in verdicts.items() if v is not None}
        out.append(_refuting("konig_values", ok, f"tau={t_} nu={n_}", **refuted))

    ntf = _section(checks, "ntf")
    v = _section(ntf, "violation")
    if v:
        k, mono = v.get("k"), _exponents(v.get("exponents"), c.n)
        if type(k) is int and k > caps.max_power_k:
            raise CapExceeded(f"power violation k={k} exceeds the cap {caps.max_power_k}")
        if type(k) is int and k >= 1 and mono is not None:
            in_symbolic = ideals.cover_degree(mono, clutters.minimal_covers(c)) >= k
            in_power = ideals.member_of_power(mono, c, k)
            ok, msg = in_symbolic and not in_power, f"symbolic={in_symbolic} ordinary={in_power}"
        else:
            ok, msg = False, f"k must be a positive integer and exponents {c.n} nonnegative integers"
        out.append(_refuting("power_violation", ok, msg,
                             ntf=ntf.get("value"), mengerian=mengerian))

    if "holds" in d:
        prop = d.get("property")
        if prop == "ntf":
            where, verdict = "mengerian", d.get("mengerian")
        elif prop == "packing":
            where, verdict = "checks.packing", checks.get("packing")
        elif prop in ("tu", "ideal", "konig"):
            where, verdict = f"checks.{prop}.value", _section(checks, prop).get("value")
        else:
            raise ValueError(f"report property {_quote(prop)} is not one of "
                             f"tu, ideal, konig, packing, ntf")
        holds = d["holds"]
        if not (type(holds) is bool and holds is verdict):
            out.append(("holds", False,
                        f"holds is {_quote(holds)}, but {where} is {_quote(verdict)}"))

    return out


def _quote(value) -> str:
    """A report value as JSON writes it, cut to 40 characters."""
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:40] + "..."
