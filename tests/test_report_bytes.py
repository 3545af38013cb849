"""Report bytes pinned by digest.

Each invocation runs through cli.main in-process, and the sha256 of its
exit code, stdout and stderr must equal the digest recorded here. A change
that alters these bytes on purpose updates the digest and says so.
"""

import contextlib
import hashlib
import io
import json
import sys

import pytest

from mengerian.cli import main

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
    (["check", "konig", "--family", "cycle:5"],
     "04edfd5db8de5d16f41e3b44580e5e07c0662737598e488006e96c81ec4f9c25"),
    (["check", "konig", "--family", "cycle:8"],
     "5f6354e9281d1232b5fef15a4b39c1f6ace9cf96975e1dbfd5b45a6dde520256"),
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
     "d011ddddd72eba5668ac691213c03e5b119a60dcc4655e66adefbba5d9a42ea6"),
    (["check", "ideal", "--family", "cycle:7"],
     "1afa7ca5b7bbd994e834e39edad2ffe0a6fa65c2ac683f72c96cde61ef2d9326"),
    (["check", "ideal", "--family", "complete:5"],
     "d011ddddd72eba5668ac691213c03e5b119a60dcc4655e66adefbba5d9a42ea6"),
    # the packing walk: refuted on C12, holds on P12
    (["check", "packing", "--family", "cycle:12"],
     "f46a65d64ccb1f114ba7332e4a20046271da81b273a6080bfb7852e98a8d3119"),
    (["check", "packing", "--family", "path:12"],
     "f044b3c3dedf13a4fc440f0afe384bd3c0abbf2b3074fd314796c5ca3d9acf64"),
    # total unimodularity: holds on P7, refuted on C5 by a subdeterminant witness
    (["check", "tu", "--family", "path:7"],
     "a5076d1bd0a8abee473caaa0b54fb288776442ea039c8f0ac70de18d321fb9f6"),
    (["check", "tu", "--family", "cycle:5"],
     "0689fd2756c92c1b2a48d6338da3ef9fff4e0fd3d88b437ca96c1eb3bb0446ae"),
    (["classify", "--format", "json", "--family", "cycle:8"],
     "14ef1897785e45a0f94a75ca817055ec55627c803c4e684c5a384df905b2e89c"),
]


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
    assert out == "tu_witness: valid (subdeterminant -2)\n"
    assert digest == "faea9319504105293f27ebaca699cc17e47c389bb81a7608ab322d2ed32f9590"
