import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from itertools import accumulate, combinations

import pytest

from mengerian import classify, clutters, graphs, ideals, survey
from mengerian.cli import build_parser, main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def c5_ntf_report():
    # a power violation of H_3(C5), as the NTF decision itself returns it;
    # check ntf answers C5 on the NON_IDEAL route, which carries none
    c = graphs.build_path_hypergraph(graphs.make_family("cycle", [5]))
    ntf = classify.ntf_json(ideals.is_normally_torsion_free(c))
    return json.dumps({"schema": 1, "hypergraph": clutters.to_json_dict(c),
                       "checks": {"ntf": ntf}})


def run_cli(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def test_decide_cycle8():
    code, out, _ = run_cli(["decide", "--family", "cycle:8"])
    assert code == 0
    d = json.loads(out)
    assert d["trace"] == "POWER_EQUALITY" and d["mengerian"] is True
    assert d["schema"] == 1


def test_check_ideal_assert_refuted():
    code, out, _ = run_cli(["check", "ideal", "--family", "cycle:5", "--assert"])
    assert code == 2
    d = json.loads(out)
    assert d["holds"] is False
    coords = d["checks"]["ideal"]["fractional_vertex"]["coords"]
    assert all("/" in c or c in ("0", "1") for c in coords)


def test_check_without_assert_returns_zero():
    code, out, _ = run_cli(["check", "ideal", "--family", "cycle:5"])
    assert code == 0


def test_check_konig_text():
    code, out, _ = run_cli(["check", "konig", "--family", "cycle:8", "--format", "text"])
    assert code == 0 and "holds" in out


def test_check_konig_long_path():
    # 2499 edges: neither tau nor nu may recurse once per edge or per chosen vertex
    code, out, err = run_cli(["--t", "1", "--max-vertices", "3000", "--max-edges", "3000",
                              "check", "konig", "--family", "path:2500"])
    assert (code, err) == (0, "")
    assert json.loads(out)["checks"]["konig"] == {"value": True, "tau": 1250, "nu": 1250}


def test_check_mfmc_probe(capsys):
    # the bounded probe, both its --cmax options, the survey's packing
    # cutoff (every row reports packing) and decide --no-certificates
    # (every negative verdict carries its certificate) are gone: argparse
    # usage errors
    for argv in (["check", "mfmc-probe", "--family", "cycle:5"],
                 ["check", "ntf", "--family", "cycle:5", "--cmax", "1"],
                 ["verify-certificate", "--cmax", "1", "-"],
                 ["survey", "--packing-max-n", "3"],
                 ["decide", "--no-certificates", "--family", "cycle:5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: mengerian")


def test_decide_packing_flag_is_a_no_op():
    assert run_cli(["decide", "--packing", "--family", "cycle:12"]) == \
        run_cli(["decide", "--family", "cycle:12"])


def test_classify_text():
    code, out, _ = run_cli(["classify", "--family", "star_plus_edge:4"])
    assert code == 0 and "STAR_PLUS_EDGE" in out


def test_check_ideal_dot_figure():
    # refuted ideal check rendered as a DOT figure with vertex values
    code, out, _ = run_cli(["check", "ideal",
                            "--edges", "1 2\\n2 3\\n3 4\\n4 5\\n3 6",
                            "--format", "dot"])
    assert code == 0
    assert out.startswith("graph G {")
    assert 'label="x2 = 1/2"' in out and 'label="x6 = 1/2"' in out
    assert 'label="x1 = 0"' in out


def test_hypergraph_text_and_dot():
    code, out, _ = run_cli(["hypergraph", "--family", "cycle:5"])
    assert code == 0 and out.splitlines()[0] == "5 5"
    code, dot, _ = run_cli(["hypergraph", "--family", "cycle:5", "--format", "dot"])
    assert code == 0 and dot.startswith("graph G {")


def test_hypergraph_respects_size_caps():
    # K25 is refused before any path is enumerated
    code, out, err = run_cli(["hypergraph", "--family", "complete:25"])
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: n=25 exceeds the vertex cap 12\n"
    code, out, err = run_cli(["--max-edges", "4", "hypergraph", "--family", "cycle:5"])
    assert code == 1 and err == "resource cap exceeded: m=5 exceeds the edge cap 4\n"


def test_survey_small():
    code, out, _ = run_cli(["survey", "--max-n", "4"])
    assert code == 0
    d = json.loads(out)
    assert d["counters"]["total"] == 6 and d["mismatches"] == []


def test_survey_csv():
    code, out, _ = run_cli(["survey", "--max-n", "4", "--csv"])
    assert code == 0
    assert out.splitlines()[0].startswith("n,index,graph6")


def test_survey_refuses_n_over_cap_before_work(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an instance was decided")

    monkeypatch.setattr(classify, "decide_mengerian_exact", refuse)
    code, out, err = run_cli(["survey", "--max-n", "9"])
    assert code == 1 and out == ""
    assert err == "error: enumeration supports 1 <= n <= 8\n"


@pytest.mark.parametrize("argv,n_min,n_max", [
    (["survey", "--min-n", "5", "--max-n", "4"], 5, 4),
    (["survey", "--max-n", "3"], 4, 3),  # the default --min-n is 4
])
def test_survey_refuses_reversed_range(argv, n_min, n_max):
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert err == f"error: empty survey range: min-n {n_min} > max-n {n_max}\n"


def test_verify_certificate_round_trip(tmp_path):
    code, out, _ = run_cli(["decide", "--edges", "1 2\\n2 3\\n3 4\\n4 5\\n3 6"])
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out2, _ = run_cli(["verify-certificate", str(path)])
    assert code == 0
    assert "fractional_vertex: valid" in out2


def test_verify_certificate_accepts_check_output():
    code, out, _ = run_cli(["check", "ntf", "--family", "cycle:5"])
    assert code == 0
    code2, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=out)
    assert code2 == 0 and "fractional_vertex: valid" in out2 and "konig_values: valid" in out2
    code3, out3, _ = run_cli(["check", "konig", "--family", "cycle:8"])
    code4, out4, _ = run_cli(["verify-certificate", "-"], stdin_text=out3)
    assert code4 == 0 and "konig_values: valid" in out4
    # a check konig or check ideal report gives neither mengerian nor
    # packing, so C5's tau != nu and fractional vertex refute nothing there
    for prop, line in (("konig", "konig_values: valid (tau=2 nu=1)"),
                       ("ideal", "fractional_vertex: valid (feasible=True tight_rank=5/5)")):
        _, report, _ = run_cli(["check", prop, "--family", "cycle:5"])
        code5, out5, _ = run_cli(["verify-certificate", "-"], stdin_text=report)
        assert code5 == 0 and line in out5.splitlines()


def test_verify_certificate_packing_refutations_carry_certificates():
    # check packing prints the decision, and a clutter that packs is ideal,
    # so each refutation carries decide's fractional vertex: every
    # non-packing H_3 with n <= 7 is non-ideal. The reports are verified
    # in-process, by the function verify-certificate calls.
    refuted = 0
    for n in range(4, 8):
        for g in survey.enumerate_connected(n):
            _, report, _ = run_cli(["check", "packing", "--graph6", graphs.to_graph6(g)])
            d = json.loads(report)
            if d["holds"]:
                continue
            refuted += 1
            results = {name: ok for name, ok, _ in classify.verify_report_dict(d)}
            assert all(results.values()) and results["fractional_vertex"]
            d["checks"]["packing"] = d["holds"] = True
            results = {name: ok for name, ok, _ in classify.verify_report_dict(d)}
            assert results["fractional_vertex"] is False
    assert refuted == 968


def test_verify_certificate_stdin_tampered():
    code, out, _ = run_cli(["decide", "--family", "cycle:6"])
    d = json.loads(out)
    d["checks"]["ideal"]["fractional_vertex"]["coords"][0] = "2/3"
    code2, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code2 == 2
    assert "INVALID" in out2


@pytest.mark.parametrize("verdict", ["packing", "mengerian"])
def test_verify_certificate_konig_refutes_a_true_verdict(verdict):
    # a null verdict is given and not false, so it is refuted as true is
    code, out, _ = run_cli(["decide", "--packing", "--family", "cycle:5"])
    for value in (True, None):
        d = json.loads(out)
        (d["checks"] if verdict == "packing" else d)[verdict] = value
        code2, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
        assert code2 == 2
        assert (f"konig_values: INVALID (tau=2 nu=1; the report does not set {verdict} false)"
                in out2.splitlines())


def test_verify_certificate_fractional_vertex_refutes_packing():
    # a clutter that packs is ideal (Lehman; Cornuéjols, Guenin & Margot),
    # so C12's fractional vertex refutes a packing verdict that tau == nu
    # leaves standing, whether it is true, null or not a boolean at all
    _, out, _ = run_cli(["decide", "--family", "cycle:12"])
    assert json.loads(out)["checks"]["konig"]["value"] is True
    assert json.loads(out)["checks"]["packing"] is False
    for packing in (True, "yes", None, 1):
        d = json.loads(out)
        d["checks"]["packing"] = packing
        code, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
        assert code == 2, packing
        assert ("fractional_vertex: INVALID (feasible=True tight_rank=12/12; "
                "the report does not set packing false)") in out2.splitlines()
        assert "konig_values: valid (tau=3 nu=3)" in out2.splitlines()


@pytest.mark.parametrize("report", [
    {"schema": 1},
    {"schema": 1, "hypergraph": 5},
    {"schema": 1, "hypergraph": {"n": 3}},
    {"schema": 1, "hypergraph": {"n": 3, "edges": [["a"]]}},
    # floats and bools equal to an int are not vertices, as in the report's graph
    {"schema": 1, "hypergraph": {"n": 4, "edges": [[1.0, 2.0, 3.0, 4.0]]}},
    {"schema": 1, "hypergraph": {"n": 4, "edges": [[1.5, 2, 3, 4]]}},
    {"schema": 1, "hypergraph": {"n": 4.0, "edges": [[1, 2, 3, 4]]}},
    {"schema": 1, "hypergraph": {"n": True, "edges": [[1]]}},
    {"schema": 1, "hypergraph": {"n": 4, "edges": [[True, 2, 3, 4]]}},
])
def test_verify_certificate_without_hypergraph(report):
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(report))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "hypergraph" in lines[0]


@pytest.mark.parametrize("report, msg", [
    ({"hypergraph": {"n": 3, "edges": [[0, 1]]}},
     "hypergraph edge [0, 1] has a vertex outside 1..3"),
    ({"hypergraph": {"n": 3, "edges": [[2, 4]]}},
     "hypergraph edge [2, 4] has a vertex outside 1..3"),
    ({"graph": {"n": 3, "edges": [[0, 1]]}, "t": 3, "hypergraph": {"n": 3, "edges": [[1, 2, 3]]}},
     "edge (0, 1) out of range 1..3"),
    ({"graph": {"n": 3, "edges": [[2, 2]]}, "t": 3, "hypergraph": {"n": 3, "edges": [[1, 2, 3]]}},
     "loop at vertex 2"),
    ({"graph": {"n": 3, "edges": [[6, 2]]}, "t": 3, "hypergraph": {"n": 3, "edges": [[1, 2, 3]]}},
     "edge (2, 6) out of range 1..3"),
])
def test_verify_certificate_names_labels_as_written(report, msg):
    # the range is checked before labels are shifted to 0-based vertices
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(report))
    assert (code, out, err) == (1, "", f"error: {msg}\n")


def test_verify_certificate_not_json(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, out, err = run_cli(["verify-certificate", str(empty)])
    assert (code, out) == (1, "")
    assert err == (f"error: report {empty} is not valid JSON: "
                   "Expecting value: line 1 column 1 (char 0)\n")
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff{}")
    code, out, err = run_cli(["verify-certificate", str(binary)])
    assert (code, out) == (1, "")
    assert err == (f"error: report {binary} is not valid JSON: 'utf-8' codec can't decode "
                   "byte 0xff in position 0: invalid start byte\n")
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text='{"schema": 1,\n')
    assert (code, out) == (1, "")
    assert err == ("error: report on stdin is not valid JSON: "
                   "Expecting property name enclosed in double quotes: line 2 column 1 (char 14)\n")
    # nesting past the decoder's recursion limit is one error line, not a
    # traceback; 3000 levels may decode on a Python with a higher limit,
    # and then the report names no hypergraph, but 10^5 pass every limit
    for depth in (3000, 100_000):
        deep = '{"a":' * depth + "1" + "}" * depth
        code, out, err = run_cli(["verify-certificate"], stdin_text=deep + "\n")
        assert (code, out) == (1, "") and err.startswith("error: report ")
        assert err.count("\n") == 1
    assert err.startswith("error: report on stdin is not valid JSON: "
                          "maximum recursion depth exceeded while decoding a JSON object")


def test_verify_certificate_hypergraph_output_has_no_certificates():
    # hypergraph --format json carries H_t but names no graph and no checks
    _, report, _ = run_cli(["hypergraph", "--format", "json", "--family", "cycle:8"])
    assert run_cli(["verify-certificate"], stdin_text=report) == (
        0, "no certificates found in report\n", "")


def test_input_source_required():
    # no input source, or two of them, is one error line like every other bad input
    for argv in (["check", "konig"], ["decide", "--family", "cycle:5", "--graph6", "Dhc"]):
        assert run_cli(argv) == (
            1, "", "error: exactly one of --family/--file/--edges/--graph6 is required\n")


def test_file_source_matches_edges(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("1 2\n2 3\n3 4\n4 5\n3 6\n", encoding="utf-8")
    from_file = run_cli(["check", "konig", "--file", str(path)])
    assert from_file[0] == 0
    assert from_file == run_cli(["check", "konig", "--edges", "1 2\\n2 3\\n3 4\\n4 5\\n3 6"])


def test_duplicate_edge_is_one_warning_line():
    code, out, err = run_cli(["check", "konig", "--edges", "1 2\\n1 2\\n2 3\\n3 4"])
    assert code == 0 and json.loads(out)["holds"] is True
    assert err == "warning: line 2: duplicate edge 1 2 ignored\n"


BAD_FAMILIES = [
    ("cycle:2", "cycle needs k >= 3"),
    ("cycle:5,6", "cycle takes 1 parameter, got 2"),
    ("double_star:1", "double_star takes 2 parameters, got 1"),
    ("cycle:abc", "cycle parameters must be integers, got 'abc'"),
    ("cycle", "family descriptor must look like name:params, e.g. cycle:8"),
]


@pytest.mark.parametrize("family,message", BAD_FAMILIES, ids=[f for f, _ in BAD_FAMILIES])
def test_bad_family_is_error(family, message):
    code, out, err = run_cli(["decide", "--family", family])
    assert (code, out, err) == (1, "", f"error: {message}\n")


EMPTY_SOURCES = [
    ("--edges", "empty edge list and no header"),
    ("--graph6", "empty graph6 string"),
    ("--family", "family descriptor must look like name:params, e.g. cycle:8"),
]


@pytest.mark.parametrize("flag,message", EMPTY_SOURCES, ids=[f for f, _ in EMPTY_SOURCES])
def test_empty_source_reaches_its_parser(flag, message):
    # a source given with an empty value is still the one source given
    code, out, err = run_cli(["check", "konig", flag, ""])
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_parse_error_exit_code():
    # each bad edge list ends in one error line
    for edges, message in [
        ("1 1", "loop"),
        ("1 2\\nn 3", "header must come first"),
        ("n x", "malformed header"),
        ("n 0", "malformed header"),
        ("0 1", "labels are 1-based positive integers"),
    ]:
        code, out, err = run_cli(["decide", "--edges", edges])
        assert (code, out) == (1, "") and err.startswith("error: ") and err.count("\n") == 1
        assert message in err, edges


def test_deterministic_output():
    _, out1, _ = run_cli(["decide", "--family", "cycle:8"])
    _, out2, _ = run_cli(["decide", "--family", "cycle:8"])
    assert out1 == out2


def test_cap_exceeded_exit():
    code, _, err = run_cli(["--max-vertices", "5", "decide", "--family", "cycle:8"])
    assert code == 1 and "cap" in err


def test_global_max_n_is_gone(capsys):
    # the vertex cap is --max-vertices; --max-n is the survey's own upper
    # bound, so given before the subcommand it must not pass silently
    with pytest.raises(SystemExit) as exc:
        main(["--max-n", "5", "survey"])
    assert exc.value.code == 2 and capsys.readouterr().err.startswith("usage: mengerian")


@pytest.mark.parametrize("cap", ["--max-vertices", "--max-edges", "--max-power"])
def test_negative_cap_is_a_usage_error(cap, capsys):
    # a negative cap is a bad option, not an input over its cap
    with pytest.raises(SystemExit) as exc:
        main([cap, "-1", "decide", "--family", "path:3"])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("usage: mengerian")
    assert err.endswith(f"error: argument {cap}: a cap must be nonnegative, got -1\n")


@pytest.mark.parametrize("cap", ["--max-vertices", "--max-edges", "--max-power"])
def test_cap_must_be_an_integer(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cap, "1.5", "decide", "--family", "path:3"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {cap}: invalid int value: '1.5'\n")


def test_zero_caps_are_allowed():
    # path:3 has no 3-path, so m = 0 and a zero edge cap admits it
    code, out, err = run_cli(["--max-edges", "0", "--max-power", "0",
                              "decide", "--family", "path:3"])
    assert (code, err) == (0, "") and json.loads(out)["trace"] == "EMPTY"
    code, _, err = run_cli(["--max-vertices", "0", "decide", "--family", "path:3"])
    assert code == 1 and err == "resource cap exceeded: n=3 exceeds the vertex cap 0\n"


def test_family_cap_applies_before_the_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the family member was built")

    monkeypatch.setattr(graphs, "make_family", refuse)
    code, out, err = run_cli(["decide", "--family", "complete:1500"])
    assert (code, out) == (1, "")
    assert err == "resource cap exceeded: n=1500 exceeds the vertex cap 12\n"


@pytest.mark.parametrize("t", ["1", "2", "4"])
def test_classify_refuses_other_path_lengths(t):
    # the closed form is the paper's classification of H_3; at t = 2 it
    # would call C6 non-Mengerian, where decide proves it Mengerian
    code, out, err = run_cli(["--t", t, "classify", "--family", "cycle:6"])
    assert (code, out) == (1, "")
    assert err == f"error: classify is the closed form for t = 3 only, got --t {t}\n"
    code, out, _ = run_cli(["--t", "3", "classify", "--family", "cycle:6"])
    assert (code, out) == (0, "NOT_MENGERIAN: mengerian=False\n")


def test_classify_respects_vertex_cap():
    code, out, err = run_cli(["classify", "--family", "path:40"])
    assert (code, out) == (1, "")
    assert err == "resource cap exceeded: n=40 exceeds the vertex cap 12\n"
    code, out, err = run_cli(["--max-vertices", "40", "classify", "--family", "path:40"])
    assert (code, out, err) == (0, "PATH_WITH_DOUBLE_STARS: mengerian=True\n", "")


def test_check_ntf_respects_power_cap():
    # H_3(C_8) has mu = 8, so power equality would run up to k = 4
    code, out, err = run_cli(["--max-power", "2", "check", "ntf", "--family", "cycle:8"])
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: power-equality bound 4 exceeds the cap 2\n"
    code, out, _ = run_cli(["--max-power", "4", "check", "ntf", "--family", "cycle:8"])
    assert code == 0 and json.loads(out)["checks"]["ntf"]["checked_k"] == [2, 3, 4]


def test_check_ntf_path11():
    # a TU clutter: the decision answers by the TU route, without power equality
    code, out, _ = run_cli(["check", "ntf", "--family", "path:11"])
    d = json.loads(out)
    assert code == 0 and d["trace"] == "TU_SHORTCUT" and d["holds"] is True


def test_check_ntf_cycle12_refuted_and_verified():
    code, out, _ = run_cli(["check", "ntf", "--family", "cycle:12"])
    d = json.loads(out)
    assert code == 0 and d["trace"] == "NON_IDEAL" and d["holds"] is False
    code, out, _ = run_cli(["verify-certificate", "-"], stdin_text=out)
    assert code == 0 and "fractional_vertex: valid" in out


@pytest.mark.parametrize("family", ["cycle:12", "path:12", "complete:7"])
def test_check_ntf_answers_and_verifies(family):
    # the old power search took seconds on the first two and refused K7 at
    # its power bound 18 > 8
    code, out, err = run_cli(["check", "ntf", "--family", family])
    assert (code, err) == (0, "")
    assert run_cli(["verify-certificate", "-"], stdin_text=out)[0] == 0


@pytest.mark.parametrize("family", ["cycle:5", "cycle:8", "path:7", "star:3"])
def test_check_ntf_prints_the_decision(family, monkeypatch):
    _, decided, _ = run_cli(["decide", "--family", family])
    expected = json.loads(decided)
    expected.update(property="ntf", holds=expected["mengerian"])
    builds = []
    build = graphs.build_path_hypergraph
    monkeypatch.setattr(graphs, "build_path_hypergraph",
                        lambda *a: builds.append(a) or build(*a))
    code, out, _ = run_cli(["check", "ntf", "--family", family])
    assert code == 0 and out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    assert len(builds) == 1
    verdict = "holds" if expected["mengerian"] else "refuted"
    assert run_cli(["check", "ntf", "--format", "text", "--family", family]) == (
        0, f"ntf: {verdict}\n", "")


def test_hypergraph_of_a_hamiltonian_path_answers():
    # one hyperedge; the path search walks vertex sets, not K12's 12!/2 paths
    code, out, err = run_cli(["--t", "11", "hypergraph", "--family", "complete:12"])
    assert (code, out, err) == (0, "12 1\n1 2 3 4 5 6 7 8 9 10 11 12\n", "")


def test_decide_c8_plus_disjoint_p4():
    edges = [(i, i % 8 + 1) for i in range(1, 9)] + [(9, 10), (10, 11), (11, 12)]
    code, out, _ = run_cli(["decide", "--edges", "\n".join(f"{a} {b}" for a, b in edges)])
    d = json.loads(out)
    assert code == 0 and d["trace"] == "POWER_EQUALITY" and d["mengerian"] is True
    assert d["checks"]["ntf"]["checked_k"] == [2, 3, 4, 5]


@pytest.mark.parametrize("prop", ["tu", "ideal", "konig", "packing", "ntf"])
def test_check_respects_size_caps(prop):
    for caps in (["--max-vertices", "3"], ["--max-edges", "4"]):
        code, out, err = run_cli(caps + ["check", prop, "--family", "cycle:5"])
        assert code == 1 and out == ""
        assert err.startswith("resource cap exceeded: ") and len(err.splitlines()) == 1


def test_verify_certificate_respects_size_caps():
    _, report, _ = run_cli(["decide", "--family", "cycle:5"])
    for caps, msg in ((["--max-vertices", "4"], "n=5 exceeds the vertex cap 4"),
                      (["--max-edges", "4"], "m=5 exceeds the edge cap 4")):
        code, out, err = run_cli(caps + ["verify-certificate", "-"], stdin_text=report)
        assert code == 1 and out == ""
        assert err == f"resource cap exceeded: {msg}\n"


def test_verify_certificate_caps_the_listed_sizes_before_the_build(monkeypatch):
    # the clutter's antichain check is quadratic in the edges, so the n and
    # the edge count as listed are refused before it is built
    def refuse(*args, **kwargs):
        raise AssertionError("the report's clutter was built")

    monkeypatch.setattr(clutters, "from_json_dict", refuse)
    sizes = [1 + i % 3 for i in range(6000)]
    edges = [list(range(s + 1, s + k + 1)) for s, k in zip(accumulate(sizes, initial=0), sizes)]
    for n, edges, msg in ((12000, edges, "n=12000 exceeds the vertex cap 12"),
                          (12, [list(e) for e in combinations(range(1, 13), 2)][:65],
                           "m=65 exceeds the edge cap 64")):
        report = json.dumps({"schema": 1, "hypergraph": {"n": n, "edges": edges}})
        code, out, err = run_cli(["verify-certificate", "-"], stdin_text=report)
        assert (code, out) == (1, "")
        assert err == f"resource cap exceeded: {msg}\n"


def test_verify_certificate_respects_power_cap():
    report = c5_ntf_report()
    d = json.loads(report)
    d["checks"]["ntf"]["violation"].update(k=2000, exponents=[2000] * 5)
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: power violation k=2000 exceeds the cap 8\n"
    d["checks"]["ntf"]["violation"].update(k=3, exponents=[1, 1, 1, 1, 1])
    code, out, err = run_cli(["--max-power", "2", "verify-certificate", "-"],
                             stdin_text=json.dumps(d))
    assert code == 1 and err == "resource cap exceeded: power violation k=3 exceeds the cap 2\n"


def test_verify_certificate_deep_power_violation():
    # k = 2000 factors: the membership search must not recurse once per factor
    report = c5_ntf_report()
    d = json.loads(report)
    d["checks"]["ntf"]["violation"].update(k=2000, exponents=[2000] * 5)
    code, out, err = run_cli(["--max-power", "5000", "verify-certificate", "-"],
                             stdin_text=json.dumps(d))
    assert code == 2 and err == ""
    assert out == "power_violation: INVALID (symbolic=True ordinary=True)\n"


@pytest.mark.parametrize("checks", [None, {}])
def test_verify_certificate_refuses_flat_sections_beside_checks(checks):
    # read as nested, the report's flat certificates would all be skipped
    _, report, _ = run_cli(["check", "konig", "--family", "cycle:5"])
    d = json.loads(report)
    d["checks"]["konig"].update(tau=1, value=True)
    code, out, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2 and "konig_values: INVALID" in out
    d["konig"] = d.pop("checks")["konig"]
    d["checks"] = checks
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert (code, out) == (1, "")
    assert err == "error: report has a top-level 'konig' section beside 'checks'\n"


def test_verify_certificate_refuses_a_flat_report():
    # a check report in the flat shape of earlier versions, with no graph
    _, report, _ = run_cli(["check", "konig", "--family", "cycle:5"])
    d = json.loads(report)
    d = {"schema": 1, "t": 3, "hypergraph": d["hypergraph"], "konig": d["checks"]["konig"]}
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert (code, out) == (1, "")
    assert err == "error: report has a top-level 'konig' section outside 'checks'\n"


def check_inputs(name):
    """Input arguments: one family, the benchmark's six fixtures, or every class with n <= 6."""
    if name == "fixtures":
        return [["--family", f] for f in ("cycle:8", "cycle:10", "cycle:12", "complete:6",
                                          "path:9")] + [["--edges", "1 2\n2 3\n3 4\n4 5\n3 6"]]
    if name == "n<=6":
        return [["--graph6", graphs.to_graph6(g)]
                for n in range(1, 7) for g in survey.enumerate_connected(n)]
    return [["--family", name]]


@pytest.mark.parametrize("prop", ["tu", "ideal", "konig", "packing", "ntf"])
@pytest.mark.parametrize("family", ["cycle:5", "path:7", "fixtures", "n<=6"])
def test_check_report_names_its_graph(prop, family):
    # every check prints what decide computes: its section of the decide
    # report, or for packing and ntf the decide report itself
    for source in check_inputs(family):
        code, out, _ = run_cli(["check", prop, *source])
        d = json.loads(out)
        decided = json.loads(run_cli(["decide", *source])[1])
        if prop in ("packing", "ntf"):
            expected = decided
            verdict = decided["checks"]["packing"] if prop == "packing" else decided["mengerian"]
        else:
            section = d["checks"][prop]
            expected = {k: v for k, v in decided.items()
                        if k in ("schema", "graph", "t", "hypergraph")}
            expected["checks"] = {prop: section}
            verdict = section["value"]
            if decided["checks"][prop] is None:  # decide leaves ideal unset on its TU route
                assert (prop, decided["trace"]) == ("ideal", "TU_SHORTCUT")
            else:
                assert section == decided["checks"][prop]
        assert code == 0 and d == {**expected, "property": prop, "holds": verdict}
        assert d["holds"] is classify.report_verdict(d, prop)
        code, verified, _ = run_cli(["verify-certificate", "-"], stdin_text=out)
        assert code == 0
        assert verified.splitlines()[0] == "hypergraph: valid (equals H_3 of the report's graph)"


def test_check_packing_shares_the_power_cap():
    # check packing answers by decide, so an ideal non-TU clutter whose
    # power bound exceeds the cap is refused, not walked
    code, out, err = run_cli(["--max-power", "2", "check", "packing", "--family", "cycle:8"])
    assert (code, out, err) == (
        1, "", "resource cap exceeded: power-equality bound 4 exceeds the cap 2\n")
    code, out, _ = run_cli(["check", "packing", "--family", "cycle:8"])
    assert code == 0 and json.loads(out)["holds"] is True


def test_verify_certificate_reads_holds():
    # holds is the section's own verdict; C5 refutes idealness
    _, report, _ = run_cli(["check", "ideal", "--family", "cycle:5"])
    _, valid, _ = run_cli(["verify-certificate", "-"], stdin_text=report)
    d = json.loads(report)
    d["holds"] = True
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert (code, err) == (2, "")
    assert out == valid + "holds: INVALID (holds is true, but checks.ideal.value is false)\n"


@pytest.mark.parametrize("prop, where", [
    ("tu", "checks.tu.value"), ("konig", "checks.konig.value"),
    ("packing", "checks.packing"), ("ntf", "mengerian"),
])
def test_verify_certificate_reads_holds_of_every_property(prop, where):
    _, report, _ = run_cli(["check", prop, "--family", "cycle:5"])
    assert run_cli(["verify-certificate", "-"], stdin_text=report)[0] == 0
    for holds, shown in ((True, "true"), (None, "null"), (0, "0")):
        d = json.loads(report)
        d["holds"] = holds
        code, out, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
        assert code == 2
        assert out.splitlines()[-1] == f"holds: INVALID (holds is {shown}, but {where} is false)"


def test_verify_certificate_refuses_holds_without_property():
    _, report, _ = run_cli(["check", "konig", "--family", "cycle:5"])
    d = json.loads(report)
    d["property"] = "menger"
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert (code, out) == (1, "")
    assert err == ('error: report property "menger" is not one of '
                   'tu, ideal, konig, packing, ntf\n')
    d["property"] = ["konig"]  # not a name, and not hashable either
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert (code, out) == (1, "")
    assert err == ('error: report property ["konig"] is not one of '
                   'tu, ideal, konig, packing, ntf\n')


def test_check_choices_are_the_verdict_table(capsys):
    # the parser offers the properties of classify's one table, in its order
    assert tuple(classify.VERDICTS) == ("tu", "ideal", "konig", "packing", "ntf")
    with pytest.raises(SystemExit):
        main(["check", "--help"])
    assert "{tu,ideal,konig,packing,ntf}" in capsys.readouterr().out


def test_verify_certificate_checks_a_check_report_against_its_graph():
    # H_3(P8) and its Konig values are consistent, but not with C8, the graph named
    _, report, _ = run_cli(["check", "konig", "--family", "cycle:8"])
    d = json.loads(report)
    p8 = graphs.build_path_hypergraph(graphs.make_family("path", [8]))
    d["hypergraph"] = clutters.to_json_dict(p8)
    d["checks"]["konig"] = classify.konig_json(clutters.tau(p8), clutters.nu(p8))
    code, out, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2
    assert out.splitlines() == ["hypergraph: INVALID (differs from H_3 of the report's graph)",
                                "konig_values: valid (tau=2 nu=2)"]


def test_far_path_lengths_answer_at_once():
    # the path search stops at its first empty level, for the CLI and for a
    # crafted report whose t the verifier rebuilds H_t with
    start = time.perf_counter()
    assert run_cli(["--t", "100000000", "hypergraph", "--family", "path:3"]) == (0, "3 0\n", "")
    report = {"schema": 1, "graph": {"n": 3, "edges": [[1, 2], [2, 3]]}, "t": 10 ** 12,
              "hypergraph": {"n": 3, "edges": []}}
    assert run_cli(["verify-certificate", "-"], stdin_text=json.dumps(report)) == (
        0, "hypergraph: valid (equals H_1000000000000 of the report's graph)\n", "")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("edit, shown", [
    # Fraction would expand the exponent digit by digit
    (lambda d: d["checks"]["tu"]["witness"].update(det="1e100000000"),
     "witness det: '1e100000000'"),
    (lambda d: d["checks"]["ideal"]["fractional_vertex"]["coords"].__setitem__(0, "1E100000000"),
     "vertex coordinate: '1E100000000'"),
    # json reads the number 1e400 as an infinite float
    (lambda d: d["checks"]["ideal"]["fractional_vertex"]["coords"].__setitem__(0, "1e400 "),
     "vertex coordinate: inf"),
    (lambda d: d["checks"]["tu"]["witness"].update(det=float("inf")), "witness det: inf"),
    (lambda d: d["checks"]["tu"]["witness"].update(det=float("nan")), "witness det: nan"),
    (lambda d: d["checks"]["tu"]["witness"].update(det="7" * 2_000_000),
     "witness det: '" + "7" * 39 + "..."),
])
def test_verify_certificate_bounds_its_rationals(edit, shown):
    d = c5_report()
    edit(d)
    start = time.perf_counter()
    text = json.dumps(d).replace('"1e400 "', "1e400")
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=text)
    assert (code, out, err) == (1, "", f"error: report has a malformed {shown}\n")
    assert time.perf_counter() - start < 1


def test_verify_certificate_refuses_retired_probe_report():
    # a report of the retired check mfmc-probe ends in one error line, not "no certificates"
    _, report, _ = run_cli(["check", "ntf", "--family", "cycle:5"])
    d = json.loads(report)
    d["mfmc_probe"] = {"refuted": True, "cmax": 1, "cost": [1] * 5,
                       "cover_min": 2, "packing_max": 1}
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert (code, out) == (1, "")
    assert err == ("error: report key 'mfmc_probe' is retired; "
                   "check ntf gives the exact verdict\n")


def test_verify_power_violation_exponent_validation():
    # booleans, negatives, floats, short and non-list exponents are malformed certificates
    report = c5_ntf_report()
    for exponents in ([True] * 5, [1, -1, 1, 1, 1], [1.0] * 5, [1, 1, 1], "11111"):
        d = json.loads(report)
        d["checks"]["ntf"]["violation"]["exponents"] = exponents
        code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
        assert code == 2 and err == ""
        assert out == ("power_violation: INVALID (k must be a positive integer "
                       "and exponents 5 nonnegative integers)\n")


def c5_report():
    _, out, _ = run_cli(["decide", "--family", "cycle:5"])
    return json.loads(out)


def test_verify_certificate_rejects_swapped_graph():
    d = c5_report()
    d["graph"] = {"n": 5, "edges": [[1, 2], [2, 3], [3, 4], [4, 5]]}
    d["mengerian"] = True
    code, out, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2
    assert "hypergraph: INVALID" in out and "fractional_vertex: INVALID" in out


@pytest.mark.parametrize("edit", [
    lambda d: d["checks"]["ideal"]["fractional_vertex"].update(tight_rows=[99]),
    lambda d: d["checks"]["tu"]["witness"].update(cols=[1, 9]),
    lambda d: d["checks"]["tu"]["witness"].update(rows=[0, 1, 2]),
])
def test_verify_certificate_tampered_indices(edit):
    d = c5_report()
    edit(d)
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2 and err == ""
    assert len([ln for ln in out.splitlines() if "INVALID" in ln]) == 1


@pytest.mark.parametrize("edit", [
    lambda d: d.update(graph={"n": 5, "edges": [[1, "b"]]}),
    lambda d: d.update(t="3"),
    lambda d: d["hypergraph"].update(unit=True),
    lambda d: d["checks"]["tu"]["witness"].update(det="two"),
])
def test_verify_certificate_malformed_report(edit):
    d = c5_report()
    edit(d)
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 1 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_python_m_mengerian_pipes_decide_into_verify():
    # `python -m mengerian` runs the CLI from a checkout, with src on PYTHONPATH
    src = os.path.join(ROOT, "src")
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "mengerian"]
    decide = subprocess.run(cmd + ["decide", "--family", "cycle:5"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert decide.returncode == 0 and decide.stderr == ""
    assert json.loads(decide.stdout)["trace"] == "NON_IDEAL"
    verify = subprocess.run(cmd + ["verify-certificate"], input=decide.stdout, env=env,
                            capture_output=True, text=True, timeout=60)
    assert verify.returncode == 0 and verify.stderr == ""
    assert "tu_witness: valid" in verify.stdout
    assert "fractional_vertex: valid" in verify.stdout


def test_reused_parser_answers_as_a_fresh_process():
    # main reuses one parser per process; options, --assert and a usage
    # error must leave nothing behind for the default invocations after them
    assert build_parser() is build_parser()
    argvs = [
        ["--t", "2", "decide", "--family", "cycle:7"],
        ["--max-power", "2", "check", "packing", "--family", "cycle:8"],
        ["check", "ideal", "--family", "cycle:5", "--assert"],
        ["check", "nope", "--family", "cycle:5"],
        ["decide", "--family", "cycle:7"],
        ["check", "packing", "--family", "cycle:8"],
        ["check", "ideal", "--family", "cycle:5"],
        ["hypergraph", "--family", "cycle:7"],
    ]
    in_process = []
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # the usage error
                code = exc.code
        in_process.append((code, out.getvalue()))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    fresh = [subprocess.run([sys.executable, "-m", "mengerian"] + argv, env=env,
                            capture_output=True, text=True, timeout=60) for argv in argvs]
    assert in_process == [(p.returncode, p.stdout) for p in fresh]
    assert [code for code, _ in in_process] == [0, 1, 2, 2, 0, 0, 0, 0]


def test_readme_commands_parse():
    # every `mengerian ...` command in README's command-line block is one the parser takes
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        for part in line.split("&&"):
            words = shlex.split(part, comments=True)
            if ">" in words:
                words = words[:words.index(">")]
            if words[:1] == ["mengerian"]:
                commands.append(words[1:])
    assert commands
    for argv in commands:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: mengerian {shlex.join(argv)}")
