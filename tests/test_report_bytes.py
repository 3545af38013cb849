"""Report bytes pinned by digest.

Each invocation runs through cli.main in-process, and the sha256 of its
exit code, stdout and stderr must equal the digest recorded here. The n = 7
survey is pinned as the sha256 of its sorted-key JSON. A change that alters
these bytes on purpose updates the digest and says so.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from mengerian.cli import main
from mengerian.survey import cross_check

TREE6 = "1 2\n2 3\n3 4\n4 5\n3 6"

PINNED = [
    (["decide", "--packing", "--family", "cycle:8"],
     "1d4fda20e9378d26fff87544b295003471bda91f1aef4fee53ae0c88f45d3359"),
    (["decide", "--packing", "--family", "cycle:10"],
     "9c15849e60bf54cffb7b5ba7423f7644a9ca8d35b5ad9f2feef6c9df122fe50e"),
    (["decide", "--packing", "--family", "cycle:12"],
     "75260b6b3080549620e93e1c9615b8bce81ea0b415cae84b635c3030396fd1f9"),
    (["decide", "--packing", "--family", "complete:6"],
     "4ea79bbbe24747c65c6eb1f10863fa421df8d32f02093c39a2d10c6d927f8ac1"),
    (["decide", "--packing", "--family", "path:9"],
     "4bee6ccb6c954020923997f6be7da9ccc48f6b1a44085aaaa2709b88e10e6349"),
    (["decide", "--packing", "--edges", TREE6],
     "9b473a8e1fda4a2f22a1b13a6006d4412327d187ee52f1a76025580a4cec5bec"),
    # a check report names its graph and nests its one section under "checks"
    (["check", "konig", "--family", "cycle:5"],
     "f802d371e1c747d0b4069e97291d974245e9f880369799ebab946eb9d1485931"),
    (["check", "konig", "--family", "cycle:8"],
     "5ab7ef1ce47b3121cdf5eccb4207eaf19bb3230d8f7aa6b18606c2d10bbcd91d"),
    # check ntf prints the decide report, with "property" and "holds"
    (["check", "ntf", "--family", "cycle:5"],
     "e4af2675d197b07594415fe5889ee5ea00721e65af09cb1fb552cd7e697a107b"),
    (["check", "ntf", "--family", "cycle:8"],
     "e162f456f62787a06245d7134b5e7b44663517125876545b72df0dbe8b951715"),
    (["survey", "--max-n", "5"],
     "dc4b10fd579a3ba0d2ba0fe6daef8c2563a36c2363fcfb2aa0549f768c0a903e"),
    (["survey", "--max-n", "5", "--csv"],
     "d2765aebeecc3a81fe32b851f72b3ae1d81bc84b1a044350aa1dc436dcf88933"),
    # stdout sha256 79ba5452..., the n <= 6 survey bytes that ROADMAP.md quotes
    (["survey", "--max-n", "6"],
     "46b3158c7325e67d99bed0d6b29571b56ba8af488a4fd1736c26804f4e8ff8d5"),
    # surveys with non-empty finding lists: one dichotomy exception, H_2(C6),
    # and 118 INCOMPLETE instances under a three-edge cap
    (["--t", "2", "survey", "--max-n", "6"],
     "34ab66c8780d5a8c9d210cb2dcc0c61d8c2fa7e9a3fa50523cee965907076ea7"),
    (["--t", "2", "survey", "--max-n", "6", "--csv"],
     "96f122ae9fece7563fc1870df6e7d3f0916a0cf8ddb7ccfaaf2a887db2b2f53a"),
    (["--max-edges", "3", "survey", "--max-n", "6"],
     "f869c238bbc797a4e34384cfc1ad2d5baa6ee8a703e7873ce68817c0ed692fae"),
    (["--max-edges", "3", "survey", "--max-n", "6", "--csv"],
     "f32cb8f3880981afe05eacc3c3b3aa8dd758e19f722386a72edab8b84f0e2b89"),
    (["--t", "2", "hypergraph", "--format", "json", "--family", "cycle:8"],
     "8425cf1fef0b9379f00debf327c68b399f8027f0d01477ef5495979fb9dd7db2"),
    (["--t", "3", "hypergraph", "--format", "json", "--family", "cycle:8"],
     "daf1eb100957ac28f00488f5d0b2203280393b7ed89b0df95a0c1a67e6add300"),
    (["--t", "4", "hypergraph", "--format", "json", "--family", "cycle:8"],
     "22712cbd8dbc9acab8b9a319e3528d66cee56f6593a162d57ace3fb7ffd8c604"),
    (["--t", "2", "hypergraph", "--format", "json", "--family", "complete:6"],
     "f76af2d37a6cb16f0661a53cd77e5b200ea26fe2f446de8c77dfee995950eb92"),
    (["--t", "3", "hypergraph", "--format", "json", "--family", "complete:6"],
     "d84f7b7dfd96f82b441fb817a1a0e227d9b80513660f80d1366e886ef9915218"),
    (["--t", "4", "hypergraph", "--format", "json", "--family", "complete:6"],
     "de444148ded45688a563925e8f88a97232f402cadf47c1fc465ef05d39c1bb54"),
    # the pre-pass vertices of these three carry their tight_rows
    (["check", "ideal", "--family", "cycle:5"],
     "f63b098579d3a298cd05b70eaa3f2db53417037836965a6da184b004e887d07b"),
    (["check", "ideal", "--family", "cycle:7"],
     "cdc5891e9aaace6b36a51cc0688cb49c41f0d2cbc43f7ac029eff5004ef1073a"),
    (["check", "ideal", "--family", "complete:5"],
     "849a7eb3460018d3810d2699b16d80686641e837c741dca487240d53142b99a4"),
    # check packing prints the decide report: refuted on C12 (NON_IDEAL, with
    # its fractional vertex), holds on P12 (TU_SHORTCUT)
    (["check", "packing", "--family", "cycle:12"],
     "73a345f3ac2d99d9ec970a937b54f8f3e4f146196ee7feddfda64c4b370dbc4f"),
    (["check", "packing", "--family", "path:12"],
     "df6e2117b1621de7914a733a2fbde4d09fc3540f03759e34d084bf27ed75dca6"),
    # total unimodularity: holds on P7, refuted on C5 by the witness that
    # decide reads off its fractional vertex
    (["check", "tu", "--family", "path:7"],
     "2a7b3c1bcee7b673a8dd5ee1834da3f3d7bf6714a25a5b393c77384d1c1e2764"),
    (["check", "tu", "--family", "cycle:5"],
     "a11a9f52e07f125efe9bd71213026c428650b4c3141f444810cd757e18f6761b"),
    (["classify", "--format", "json", "--family", "cycle:8"],
     "14ef1897785e45a0f94a75ca817055ec55627c803c4e684c5a384df905b2e89c"),
]


def test_survey_n7_bytes():
    # every class with n = 7, the survey-n7 benchmark workload, beside the
    # n <= 6 survey pinned above
    d = cross_check(7, n_min=7).to_json_dict()
    assert hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest() == (
        "565fea8ff558c65748f95be9173856d8f7bc913b29c09f7e3f87effa9d8be0ea")


def run_digest(argv, stdin_text=None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    record = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest(), out.getvalue()


@pytest.mark.parametrize("argv,digest", PINNED, ids=[" ".join(a) for a, _ in PINNED])
def test_report_bytes(argv, digest):
    assert run_digest(argv)[0] == digest


def test_verify_certificate_bytes():
    _, report = run_digest(["decide", "--family", "cycle:5"])
    assert run_digest(["verify-certificate"], stdin_text=report)[0] == (
        "5cf776ee5f660651121ebfeccd979d12724c6733d6e256bd6c29ba10944797e5")


def test_verify_certificate_tu_witness():
    _, report = run_digest(["check", "tu", "--family", "cycle:5"])
    digest, out = run_digest(["verify-certificate"], stdin_text=report)
    assert out == ("hypergraph: valid (equals H_3 of the report's graph)\n"
                   "tu_witness: valid (subdeterminant -2)\n")
    assert digest == "7ec83cecadfa035b122588c3a7dcbeda5ae900fec77199a34752bf2f203a6850"
