import io
import json
import os
import shlex
import subprocess
import sys
from itertools import accumulate, combinations

import pytest

from mengerian import classify, clutters, graphs
from mengerian.cli import build_parser, main

from test_survey import extended

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    coords = d["ideal"]["fractional_vertex"]["coords"]
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
    assert json.loads(out)["konig"] == {"value": True, "tau": 1250, "nu": 1250}


def test_check_mfmc_probe(capsys):
    # the bounded probe, both its --cmax options and the survey's packing
    # cutoff (every row reports packing) are gone: argparse usage errors
    for argv in (["check", "mfmc-probe", "--family", "cycle:5"],
                 ["check", "ntf", "--family", "cycle:5", "--cmax", "1"],
                 ["verify-certificate", "--cmax", "1", "-"],
                 ["survey", "--packing-max-n", "3"]):
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


def test_decide_no_certificates():
    code, out, _ = run_cli(["decide", "--family", "cycle:5", "--no-certificates"])
    assert code == 0
    d = json.loads(out)
    assert d["checks"]["ideal"]["value"] is False
    assert "fractional_vertex" not in d["checks"]["ideal"]


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
    assert code2 == 0 and "power_violation: valid" in out2
    code3, out3, _ = run_cli(["check", "konig", "--family", "cycle:8"])
    code4, out4, _ = run_cli(["verify-certificate", "-"], stdin_text=out3)
    assert code4 == 0 and "konig_values: valid" in out4


def test_verify_certificate_packing_report_has_no_certificates():
    # a check packing report carries a verdict only
    _, report, _ = run_cli(["check", "packing", "--family", "cycle:5"])
    assert run_cli(["verify-certificate", "-"], stdin_text=report) == (
        0, "no certificates found in report\n", "")


def test_verify_certificate_stdin_tampered():
    code, out, _ = run_cli(["decide", "--family", "cycle:6"])
    d = json.loads(out)
    d["checks"]["ideal"]["fractional_vertex"]["coords"][0] = "2/3"
    code2, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code2 == 2
    assert "INVALID" in out2


@pytest.mark.parametrize("verdict", ["packing", "mengerian"])
def test_verify_certificate_konig_refutes_a_true_verdict(verdict):
    code, out, _ = run_cli(["decide", "--packing", "--family", "cycle:5"])
    d = json.loads(out)
    (d["checks"] if verdict == "packing" else d)[verdict] = True
    code2, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code2 == 2
    assert f"konig_values: INVALID (tau=2 nu=1; the report does not set {verdict} false)" in out2


def test_verify_certificate_fractional_vertex_refutes_packing():
    # a clutter that packs is ideal (Lehman; Cornuéjols, Guenin & Margot),
    # so C12's fractional vertex refutes a packing verdict that tau == nu
    # leaves standing
    _, out, _ = run_cli(["decide", "--family", "cycle:12"])
    d = json.loads(out)
    assert d["checks"]["konig"]["value"] is True and d["checks"]["packing"] is False
    d["checks"]["packing"] = True
    code, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2
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
    code, _, err = run_cli(["decide", "--edges", "1 1"])
    assert code == 1 and "loop" in err


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
    assert code == 0 and json.loads(out)["ntf"]["checked_k"] == [2, 3, 4]


def test_check_ntf_path11():
    # a TU clutter checked the long way, up to its power bound
    code, out, _ = run_cli(["check", "ntf", "--family", "path:11"])
    ntf = json.loads(out)["ntf"]
    assert code == 0 and ntf["value"] is True and ntf["checked_k"] == [2, 3, 4]


@extended
def test_check_ntf_cycle12_refuted_and_verified():
    code, out, _ = run_cli(["check", "ntf", "--family", "cycle:12"])
    violation = json.loads(out)["ntf"]["violation"]
    assert code == 0 and violation["k"] == 4
    assert violation["exponents"] == [1, 1, 1, 1, 2, 1, 2, 1, 1, 2, 1, 2]
    code, out, _ = run_cli(["verify-certificate", "-"], stdin_text=out)
    assert code == 0 and "power_violation: valid" in out


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
    _, report, _ = run_cli(["check", "ntf", "--family", "cycle:5"])
    d = json.loads(report)
    d["ntf"]["violation"].update(k=2000, exponents=[2000] * 5)
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: power violation k=2000 exceeds the cap 8\n"
    d["ntf"]["violation"].update(k=3, exponents=[1, 1, 1, 1, 1])
    code, out, err = run_cli(["--max-power", "2", "verify-certificate", "-"],
                             stdin_text=json.dumps(d))
    assert code == 1 and err == "resource cap exceeded: power violation k=3 exceeds the cap 2\n"


def test_verify_certificate_deep_power_violation():
    # k = 2000 factors: the membership search must not recurse once per factor
    _, report, _ = run_cli(["check", "ntf", "--family", "cycle:5"])
    d = json.loads(report)
    d["ntf"]["violation"].update(k=2000, exponents=[2000] * 5)
    code, out, err = run_cli(["--max-power", "5000", "verify-certificate", "-"],
                             stdin_text=json.dumps(d))
    assert code == 2 and err == ""
    assert out == "power_violation: INVALID (symbolic=True ordinary=True)\n"


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
    _, report, _ = run_cli(["check", "ntf", "--family", "cycle:5"])
    for exponents in ([True] * 5, [1, -1, 1, 1, 1], [1.0] * 5, [1, 1, 1], "11111"):
        d = json.loads(report)
        d["ntf"]["violation"]["exponents"] = exponents
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
