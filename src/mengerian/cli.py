"""Command-line interface.

Commands: hypergraph, check, decide, classify, survey, verify-certificate.
This module parses, calls and prints. ``classify`` builds every check,
decide and classify report, holds the table of the properties that check
answers, and re-validates reports for verify-certificate; ``survey``
writes the survey. Identical invocations produce byte-identical output.
The caps --max-vertices, --max-edges and --max-power take nonnegative
integers and default to ``Caps``. The parser is built once per process,
on first use. Exit status: 0 completed, 2 property refuted under --assert
(or an invalid certificate, or a usage error), 1 error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from typing import Optional

from . import classify, clutters, graphs, survey
from .classify import Caps


def _add_input_args(p: argparse.ArgumentParser) -> None:
    src = p.add_argument_group("input (exactly one)")
    src.add_argument("--family", metavar="NAME:PARAMS",
                     help="family descriptor, e.g. cycle:8, path:6, spider:2,1,1")
    src.add_argument("--file", metavar="PATH", help="edge-list file (1-based 'u v' lines)")
    src.add_argument("--edges", metavar="TEXT", help="inline edge list, e.g. '1 2\\n2 3'")
    src.add_argument("--graph6", metavar="G6", help="one graph6-encoded graph")


def _load_graph(args) -> graphs.Graph:
    sources = [s for s in ("family", "file", "edges", "graph6") if getattr(args, s, None) is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --family/--file/--edges/--graph6 is required")
    if args.family is not None:
        name, _, rest = args.family.partition(":")
        if not rest:
            raise ValueError("family descriptor must look like name:params, e.g. cycle:8")
        try:
            params = [int(tok) for tok in rest.split(",")]
        except ValueError:
            raise ValueError(f"{name} parameters must be integers, got {rest!r}") from None
        # the vertex cap is applied before the family member is built
        classify.check_caps(_caps(args), graphs.family_order(name, params))
        return graphs.make_family(name, params)
    if args.file is not None:
        with open(args.file, "r", encoding="utf-8") as fh:
            g = graphs.parse_edge_list(fh.read())
    elif args.edges is not None:
        g = graphs.parse_edge_list(args.edges.replace("\\n", "\n"))
    else:
        g = graphs.parse_graph6(args.graph6)
    classify.check_caps(_caps(args), g.n)
    return g


def _caps(args) -> Caps:
    return Caps(max_vertices=args.max_vertices, max_edges=args.max_edges, max_power_k=args.max_power)


def _cap(text: str) -> int:
    """A cap value: a nonnegative integer, else an argparse usage error."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap must be nonnegative, got {value}")
    return value


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mengerian",
        description="Exact Konig/packing/ideal/TU/Mengerian checks for path hypergraphs.",
    )
    caps = Caps()
    p.add_argument("--t", type=int, default=3, help="path length (default 3)")
    p.add_argument("--max-vertices", type=_cap, default=caps.max_vertices, help="vertex cap")
    p.add_argument("--max-edges", type=_cap, default=caps.max_edges, help="hyperedge cap")
    p.add_argument("--max-power", type=_cap, default=caps.max_power_k,
                   help="power-equality exponent cap")
    sub = p.add_subparsers(dest="command", required=True)

    ph = sub.add_parser("hypergraph", help="emit the t-path hypergraph")
    _add_input_args(ph)
    ph.add_argument("--format", choices=("text", "json", "dot"), default="text",
                    help="dot draws the input graph G, not H_t, so --t does not change it")

    pc = sub.add_parser("check", help="one property check, in the decide report's shape "
                                      "(packing, ntf: the decide report itself)")
    pc.add_argument("property", choices=tuple(classify.VERDICTS))
    _add_input_args(pc)
    pc.add_argument("--assert", dest="assert_mode", action="store_true",
                    help="exit 2 when the property is refuted")
    pc.add_argument("--format", choices=("text", "json", "dot"), default="json",
                    help="dot renders the graph; for a refuted ideal check the "
                         "vertices carry the fractional certificate values")

    pd = sub.add_parser("decide", help="full exact pipeline with report")
    _add_input_args(pd)
    pd.add_argument("--packing", action="store_true", help="ignored: every report gives packing")

    pk = sub.add_parser("classify", help="closed-form clause for a connected graph (t = 3 only)")
    _add_input_args(pk)
    pk.add_argument("--format", choices=("text", "json"), default="text")

    ps = sub.add_parser("survey", help="exhaustive cross-check over small graphs")
    ps.add_argument("--max-n", type=int, default=6, help="largest vertex count surveyed")
    ps.add_argument("--min-n", type=int, default=4)
    ps.add_argument("--csv", action="store_true", help="CSV summary instead of JSON")

    pv = sub.add_parser("verify-certificate", help="re-validate certificates in a report")
    pv.add_argument("report", nargs="?", default="-",
                    help="DecisionReport JSON file (default: stdin)")
    return p


def _cmd_hypergraph(args) -> int:
    g = _load_graph(args)
    c = classify.capped_hypergraph(g, args.t, _caps(args))
    if args.format == "dot":
        sys.stdout.write(graphs.to_dot(g))
    elif args.format == "json":
        _emit_json({"schema": 1, "t": args.t,
                    "hypergraph": clutters.to_json_dict(c),
                    "incidence": clutters.incidence_matrix(c)})
    else:
        sys.stdout.write(clutters.to_text(c))
    return 0


def _cmd_check(args) -> int:
    g = _load_graph(args)
    payload = classify.check_report(g, args.t, _caps(args), args.property)
    prop, holds = payload["property"], payload["holds"]
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "dot":
        vertex = payload["checks"]["ideal"].get("fractional_vertex") if prop == "ideal" else None
        sys.stdout.write(graphs.to_dot(g, values=vertex and vertex["coords"]))
    else:
        print(f"{prop}: {'holds' if holds else 'refuted'}")
    return 2 if (args.assert_mode and not holds) else 0


def _cmd_decide(args) -> int:
    g = _load_graph(args)
    rep = classify.decide_mengerian_exact(g, args.t, caps=_caps(args))
    _emit_json(rep.to_json_dict())
    return 0


def _cmd_classify(args) -> int:
    if args.t != 3:
        raise ValueError(f"classify is the closed form for t = 3 only, got --t {args.t}")
    g = _load_graph(args)  # applies the vertex cap
    verdict = classify.classify_mengerian(g)
    if args.format == "json":
        _emit_json({"schema": 1, **classify.classifier_json(verdict)})
    else:
        print(f"{verdict.clause}: mengerian={verdict.mengerian}")
    return 0


def _cmd_survey(args) -> int:
    rep = survey.cross_check(args.max_n, t=args.t, n_min=args.min_n, caps=_caps(args))
    if args.csv:
        sys.stdout.write(rep.to_csv())
    else:
        _emit_json(rep.to_json_dict())
    return 0


def _cmd_verify(args) -> int:
    try:
        if args.report == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.report, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        source = "on stdin" if args.report == "-" else args.report
        raise ValueError(f"report {source} is not valid JSON: {exc}") from None
    results = classify.verify_report_dict(data, _caps(args))
    for name, ok, msg in results:
        print(f"{name}: {'valid' if ok else 'INVALID'} ({msg})")
    if not results:
        print("no certificates found in report")
    return 0 if all(ok for _, ok, _ in results) else 2


def _show_warning(message, *_args, **_kwargs) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "hypergraph": _cmd_hypergraph,
        "check": _cmd_check,
        "decide": _cmd_decide,
        "classify": _cmd_classify,
        "survey": _cmd_survey,
        "verify-certificate": _cmd_verify,
    }[args.command]
    with warnings.catch_warnings():
        # a library warning, such as a duplicate edge, is one stderr line
        warnings.simplefilter("always", UserWarning)
        warnings.showwarning = _show_warning
        try:
            return handler(args)
        except classify.CapExceeded as exc:
            print(f"resource cap exceeded: {exc}", file=sys.stderr)
            return 1
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
