import io
import json
import os
import subprocess
import sys
import time

import pytest

from mengerian import classify
from mengerian.cli import main
from mengerian.clutters import Clutter


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


def test_check_mfmc_probe():
    code, out, _ = run_cli(["check", "mfmc-probe", "--family", "cycle:5",
                            "--cmax", "1", "--assert"])
    assert code == 2
    d = json.loads(out)
    assert d["mfmc_probe"]["refuted"] is True
    assert d["mfmc_probe"]["cost"] == [1, 1, 1, 1, 1]


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


def test_verify_certificate_stdin_tampered():
    code, out, _ = run_cli(["decide", "--family", "cycle:6"])
    d = json.loads(out)
    d["checks"]["ideal"]["fractional_vertex"]["coords"][0] = "2/3"
    code2, out2, _ = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code2 == 2
    assert "INVALID" in out2


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


def test_input_source_required():
    with pytest.raises(SystemExit):
        run_cli(["decide"])


def test_bad_family_is_error():
    code, _, err = run_cli(["decide", "--family", "cycle:2"])
    assert code == 1 and "error" in err


def test_parse_error_exit_code():
    code, _, err = run_cli(["decide", "--edges", "1 1"])
    assert code == 1 and "loop" in err


def test_deterministic_output():
    _, out1, _ = run_cli(["decide", "--family", "cycle:8"])
    _, out2, _ = run_cli(["decide", "--family", "cycle:8"])
    assert out1 == out2


def test_cap_exceeded_exit():
    code, _, err = run_cli(["--max-n", "5", "decide", "--family", "cycle:8"])
    assert code == 1 and "cap" in err


def test_check_ntf_respects_power_cap():
    # H_3(C_8) has mu = 8, so power equality would run up to k = 4
    code, out, err = run_cli(["--max-power", "2", "check", "ntf", "--family", "cycle:8"])
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: power-equality bound 4 exceeds the cap 2\n"
    code, out, _ = run_cli(["--max-power", "4", "check", "ntf", "--family", "cycle:8"])
    assert code == 0 and json.loads(out)["ntf"]["checked_k"] == [2, 3, 4]


@pytest.mark.parametrize("prop", ["tu", "ideal", "konig", "packing", "ntf", "mfmc-probe"])
def test_check_respects_size_caps(prop):
    for caps in (["--max-n", "3"], ["--max-edges", "4"]):
        code, out, err = run_cli(caps + ["check", prop, "--family", "cycle:5"])
        assert code == 1 and out == ""
        assert err.startswith("resource cap exceeded: ") and len(err.splitlines()) == 1


def test_verify_certificate_respects_size_caps():
    _, report, _ = run_cli(["decide", "--family", "cycle:5"])
    for caps, msg in ((["--max-n", "4"], "n=5 exceeds the vertex cap 4"),
                      (["--max-edges", "4"], "m=5 exceeds the edge cap 4")):
        code, out, err = run_cli(caps + ["verify-certificate", "-"], stdin_text=report)
        assert code == 1 and out == ""
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


def test_verify_certificate_respects_cost_bound():
    _, report, _ = run_cli(["check", "mfmc-probe", "--family", "cycle:5", "--cmax", "1"])
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=report)
    assert code == 0 and err == ""
    assert out.startswith("mfmc_gap: valid")
    d = json.loads(report)
    d["mfmc_probe"]["cost"] = [1000000] * 5
    start = time.perf_counter()
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: mfmc cost entry 1000000 exceeds the cost bound 2\n"
    code, out, err = run_cli(["verify-certificate", "--cmax", "0", "-"], stdin_text=report)
    assert code == 1 and out == ""
    assert err == "resource cap exceeded: mfmc cost entry 1 exceeds the cost bound 0\n"


def test_verify_certificate_deep_power_violation():
    # k = 2000 factors: the membership search must not recurse once per factor
    _, report, _ = run_cli(["check", "ntf", "--family", "cycle:5"])
    d = json.loads(report)
    d["ntf"]["violation"].update(k=2000, exponents=[2000] * 5)
    code, out, err = run_cli(["--max-power", "5000", "verify-certificate", "-"],
                             stdin_text=json.dumps(d))
    assert code == 2 and err == ""
    assert out == "power_violation: INVALID (symbolic=True ordinary=True)\n"


def c5_probe_report():
    _, out, _ = run_cli(["check", "mfmc-probe", "--family", "cycle:5", "--cmax", "1"])
    return json.loads(out)


def test_verify_mfmc_gap_needs_refuted_verdict():
    d = c5_probe_report()
    d["holds"] = True
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2 and err == ""
    assert out == ("mfmc_gap: INVALID (cover_min=2 packing_max=1; "
                   "the report does not set holds false)\n")


def test_verify_mfmc_cost_validation():
    # booleans, negatives, floats, short and non-list costs are malformed certificates
    for cost in ([True] * 5, [1, -1, 1, 1, 1], [1.0] * 5, [1, 1, 1], "11111"):
        d = c5_probe_report()
        d["mfmc_probe"]["cost"] = cost
        code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
        assert code == 2 and err == ""
        assert out == "mfmc_gap: INVALID (cost must be 5 nonnegative integers)\n"


def test_verify_mfmc_gap_number_types():
    # 2.0 == 2 and True == 1 in Python; the claimed numbers must be ints
    d = c5_probe_report()
    d["mfmc_probe"].update(cover_min=2.0, packing_max=True)
    code, out, err = run_cli(["verify-certificate", "-"], stdin_text=json.dumps(d))
    assert code == 2 and err == ""
    assert out == "mfmc_gap: INVALID (cover_min=2 packing_max=1)\n"


def test_check_mfmc_probe_respects_scan_cap():
    start = time.perf_counter()
    code, out, err = run_cli(["check", "mfmc-probe", "--family", "cycle:8", "--cmax", "20"])
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err == ("resource cap exceeded: mfmc scan of 21^8 cost vectors exceeds "
                   "the cap 3^12 = 531441\n")
    # the defaults' largest scan, --cmax 2 at n = 12, stays allowed
    classify.check_mfmc_cap(Clutter(12, ()), 2)
    with pytest.raises(classify.CapExceeded):
        classify.check_mfmc_cap(Clutter(13, ()), 2)


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
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
