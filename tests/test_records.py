"""Records, graphs and clutters: their semantics, and what importing them costs.

Result records are typing.NamedTuple classes, and Graph and Clutter are
slotted immutable classes, so no import of the package loads
``dataclasses`` and the modules it pulls in. The reprs pinned here are
those the records printed as dataclasses.
"""

import os
import pickle
import subprocess
import sys

import pytest

from mengerian import classify, graphs, ideals, linalg
from mengerian.classify import Caps, decide_mengerian_exact
from mengerian.cli import _caps, build_parser, main
from mengerian.clutters import Clutter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

HELP = """\
usage: mengerian [-h] [--t T] [--max-vertices MAX_VERTICES]
                 [--max-edges MAX_EDGES] [--max-power MAX_POWER]
                 {hypergraph,check,decide,classify,survey,verify-certificate}
                 ...

Exact Konig/packing/ideal/TU/Mengerian checks for path hypergraphs.

positional arguments:
  {hypergraph,check,decide,classify,survey,verify-certificate}
    hypergraph          emit the t-path hypergraph
    check               one property check, in the decide report's shape
                        (packing, ntf: the decide report itself)
    decide              full exact pipeline with report
    classify            closed-form clause for a connected graph (t = 3 only)
    survey              exhaustive cross-check over small graphs
    verify-certificate  re-validate certificates in a report

options:
  -h, --help            show this help message and exit
  --t T                 path length (default 3)
  --max-vertices MAX_VERTICES
                        vertex cap
  --max-edges MAX_EDGES
                        hyperedge cap
  --max-power MAX_POWER
                        power-equality exponent cap
"""


def c5():
    return graphs.build_path_hypergraph(graphs.make_family("cycle", [5]))


@pytest.mark.parametrize("module", ["mengerian.cli", "mengerian"])
def test_import_loads_no_dataclasses(module):
    # -I ignores PYTHONPATH and site-packages, so src is put on sys.path by hand
    code = (f"import sys; sys.path.insert(0, {SRC!r}); import {module}; "
            f"print(sorted(set({HEAVY!r}) & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-I", "-c", code],
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr, run.stdout) == (0, "", "[]\n")


def test_parser_defaults_are_the_caps_defaults():
    args = build_parser().parse_args(["decide", "--family", "cycle:5"])
    assert (args.max_vertices, args.max_edges, args.max_power) == tuple(Caps())
    assert _caps(args) == Caps()


def test_help_bytes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP, "")


def test_record_reprs():
    assert repr(Caps()) == "Caps(max_vertices=12, max_edges=64, max_power_k=8)"
    assert repr(linalg.is_ideal(c5())) == (
        "IdealityResult(ideal=False, certificate=PolyhedronVertex(coords=(Fraction(1, 2), "
        "Fraction(1, 2), Fraction(1, 2), Fraction(0, 1), Fraction(0, 1)), "
        "tight_rows=(2, 3, 4, 8, 9)), tu=TUResult(totally_unimodular=False, "
        "witness=TUWitness(rows=(2, 3, 4), cols=(0, 1, 2), det=-2)))")
    assert repr(decide_mengerian_exact(graphs.make_family("path", [9])).classifier) == (
        "ClassVerdict(mengerian=True, clause='PATH_WITH_DOUBLE_STARS')")
    assert repr(graphs.Graph(3, [(1, 0), (0, 2)])) == "Graph(n=3, edges=frozenset({(0, 1), (0, 2)}))"
    assert repr(Clutter(4, [(2, 1), (3, 0)])) == "Clutter(n=4, edges=((0, 3), (1, 2)))"


def test_clutter_from_masks_equals_constructor():
    c = c5()
    built = Clutter.from_masks(c.n, reversed(c.masks))
    assert built == Clutter(c.n, c.edges) and hash(built) == hash(Clutter(c.n, c.edges))
    assert built.masks == c.masks


def test_fields_cannot_be_assigned():
    rep = decide_mengerian_exact(graphs.make_family("cycle", [5]))
    ntf = decide_mengerian_exact(graphs.make_family("cycle", [8])).ntf
    values = [rep, rep.graph, rep.hypergraph, rep.tu, rep.tu.witness, rep.ideal,
              rep.ideal.certificate, rep.classifier, ntf, Caps(),
              ideals.symbolic_power(c5(), 2), linalg.verify_vertex(c5(), [1] * 5)]
    assert len({type(v) for v in values}) == len(values)
    for v in values:
        names = getattr(v, "_fields", ()) or v.__slots__
        assert names
        for name in names:
            with pytest.raises(AttributeError):
                setattr(v, name, getattr(v, name))
        with pytest.raises(AttributeError):
            v.extra = 1
    with pytest.raises(AttributeError):
        del rep.graph.n


def test_decision_report_pickles():
    for g in (graphs.make_family("cycle", [5]), graphs.make_family("cycle", [8])):
        rep = decide_mengerian_exact(g)
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep and back.agreement == rep.agreement
        assert back.hypergraph.masks == rep.hypergraph.masks
        assert back.to_json_dict() == rep.to_json_dict()


def test_records_replace_and_unpack_as_tuples():
    v = classify.classify_mengerian(graphs.make_family("cycle", [8]))
    mengerian, clause = v
    assert v._replace(mengerian=False) == (False, clause) and mengerian
