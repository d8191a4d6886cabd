"""Pinned `decompose` documents and `product` edge lists: exit code and
stdout SHA-256 for every strategy on the fixed instance files of the
benchmark.

A change to any construction, to the document format or to the CLI wiring
that alters a single output byte fails here.  cartesian-square and
cartesian-power --power 2 share their digests on purpose: the two strategies
print the same document.
"""

import hashlib
from pathlib import Path

import pytest

from gooddecomp.cli import run_command

INSTANCES = Path(__file__).resolve().parents[1] / "perfbench" / "instances"

SQUARE_HUB5 = "9fac670806cc5ba7fbba5282f728fb0b1744b288155b1d32fec1dc65021c89ab"
SQUARE_HUB6 = "cb6a1ed094305a6fc32c0ba9452e9acc30bc2b5a3f1ca3615bc0aea9114397c1"
SQUARE_C3K = "00e8ee81c5de094ed44ada755240055b48c0efa570ff64df8bdf309f69ef2110"
ORACLE_COMP = "4cd00b026e7fc3cd281c3e61b1e20a3a0a5bd2265340690c36edd93576af0918"
NONE = "fcf33dfbe13c2354bf0e1b063f9fb422747a46cee00b7420bceff2b81457b345"
EMPTY = hashlib.sha256(b"").hexdigest()  # usage errors write to stderr only
ABORTED = hashlib.sha256(b"aborted\n").hexdigest()

GOLDEN = [
    # auto: exception check, then the oracle
    (["c3_k2_k2_k3.txt"], 1,
     "9f67ae080b86e9f39e84b45b7127a5deba0740c82ea142a59416c985247fc46f"),
    (["comp_host.txt"], 0, ORACLE_COMP),
    (["hub5.txt"], 1, NONE),
    (["c3_k2_k2_k3.txt", "--strategy", "oracle"], 1, NONE),
    (["comp_host.txt", "--strategy", "oracle"], 0, ORACLE_COMP),
    (["comp_host.txt", "--strategy", "composition", "--spec", "comp.spec"], 0,
     "c8199741928d23a51b3738dcb6350800a55fbc85f2f3530a5d9e64b319e6e85d"),
    (["hub5.txt", "--strategy", "cartesian-square"], 0, SQUARE_HUB5),
    (["hub6.txt", "--strategy", "cartesian-square"], 0, SQUARE_HUB6),
    (["hub8.txt", "--strategy", "cartesian-square"], 0,
     "6c68903ddf363e18ceeafc50bd89c718fdae4a79a6978a7ecf1a2909fb121945"),
    (["c3_k2_k2_k3.txt", "--strategy", "cartesian-square"], 0, SQUARE_C3K),
    (["comp_inner0.txt", "--strategy", "cartesian-square"], 1,  # not strong
     "4f65ea44ffd998ee20b59e938ca23c2e11f43706870055811a7f242c3827c8f0"),
    (["comp_inner0.txt", "--strategy", "cartesian-power"], 1,  # not strong
     "4f65ea44ffd998ee20b59e938ca23c2e11f43706870055811a7f242c3827c8f0"),
    (["hub5.txt", "--strategy", "cartesian-square", "--power", "3"], 2, EMPTY),
    (["hub5.txt", "--strategy", "cartesian-power"], 0, SQUARE_HUB5),
    (["hub5.txt", "--strategy", "cartesian-power", "--power", "2"], 0, SQUARE_HUB5),
    (["hub6.txt", "--strategy", "cartesian-power", "--power", "2"], 0, SQUARE_HUB6),
    (["c3_k2_k2_k3.txt", "--strategy", "cartesian-power", "--power", "2"], 0, SQUARE_C3K),
    (["hub5.txt", "--strategy", "cartesian-power", "--power", "3"], 0,
     "64c5e3c37847dcda78d35622bf1aa73b03fbc4628b737f72bc71bf98de02e172"),
    (["comp_outer.txt", "--strategy", "cartesian-power", "--power", "3"], 0,
     "e9e2e40ffa8dcb8cabb899f8754c9875055dbd1eacbe0dd02e8d6f59bc5112c0"),
    (["hub8.txt", "--strategy", "strong-product", "--factor", "hub6.txt"], 0,
     "e331ec48b00915449d83b243345b56b5fcc355a7e1e73aa1490e6285af242d58"),
    (["hub5.txt", "--strategy", "strong-product", "--factor", "hub6.txt"], 0,
     "6d2f8506f70d316c06a5e29ac2d130b7d950adc52c6f30695e62253937681191"),
    (["hub6.txt", "--strategy", "lex", "--factor", "hub5.txt"], 0,
     "b85c1753198ce2c89f347178291b6f22fd4d23f882b3a9727ca25542667c3f85"),
    (["hub5.txt", "--strategy", "lex", "--factor", "comp_inner2.txt"], 0,
     "67049e5164d07132c7f7874eb492b088a8293281a69cb1a1bd276bcf4169bed2"),
    # --budget bounds the oracle and is a usage error for every other strategy
    (["comp_host.txt", "--budget", "1"], 1, ABORTED),
    (["comp_host.txt", "--strategy", "oracle", "--budget", "1"], 1, ABORTED),
    (["comp_host.txt", "--strategy", "oracle", "--budget", "0"], 0, ORACLE_COMP),
    (["comp_host.txt", "--strategy", "composition", "--spec", "comp.spec", "--budget", "5"], 2,
     EMPTY),
    (["hub5.txt", "--strategy", "cartesian-square", "--budget", "5"], 2, EMPTY),
    (["hub5.txt", "--strategy", "cartesian-power", "--budget", "5"], 2, EMPTY),
    (["hub8.txt", "--strategy", "strong-product", "--factor", "hub6.txt", "--budget", "5"], 2,
     EMPTY),
    (["hub6.txt", "--strategy", "lex", "--factor", "hub5.txt", "--budget", "5"], 2, EMPTY),
    # --spec and --factor are usage errors for every strategy that ignores them
    (["comp_host.txt", "--spec", "comp.spec"], 2, EMPTY),
    (["hub5.txt", "--strategy", "cartesian-square", "--spec", "comp.spec"], 2, EMPTY),
    (["hub5.txt", "--strategy", "oracle", "--factor", "hub6.txt"], 2, EMPTY),
    (["hub5.txt", "--strategy", "cartesian-power", "--factor", "hub6.txt"], 2, EMPTY),
    (["comp_host.txt", "--strategy", "composition", "--spec", "comp.spec", "--factor", "hub6.txt"],
     2, EMPTY),
]

PRODUCT_GOLDEN = [
    (["--op", "cartesian", "hub5.txt", "hub6.txt"], 0,
     "92314921405fc776fba646caa84f7200ef383ea7055e1841fd7f01ca1ef5a90f"),
    (["--op", "cartesian", "hub5.txt", "--power", "2"], 0,
     "4202b19c0ee82c7b38832bd2e9d4d6f024f1d26a615961e7a34ee004e5c7570f"),
    # --power takes one factor; a second one is a usage error, not dropped
    (["--op", "cartesian", "hub5.txt", "hub6.txt", "--power", "2"], 2, EMPTY),
]


def _paths(args):
    return [str(INSTANCES / a) if a.endswith((".txt", ".spec")) else a for a in args]


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_decompose_golden(args, code, digest, capsys):
    assert run_command(["decompose"] + _paths(args)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "args,code,digest", PRODUCT_GOLDEN, ids=[" ".join(g[0]) for g in PRODUCT_GOLDEN]
)
def test_product_golden(args, code, digest, capsys):
    assert run_command(["product"] + _paths(args)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_oracle_golden(capsys):
    assert run_command(["oracle", str(INSTANCES / "comp_host.txt")]) == 0
    outcome, nodes, doc = capsys.readouterr().out.split("\n", 2)
    assert (outcome, nodes) == ("outcome: found", "nodes: 66")
    assert hashlib.sha256(doc.encode()).hexdigest() == ORACLE_COMP


def test_reused_parser_carries_no_budget(capsys):
    # run_command parses every call with one parser: a --budget refused or
    # given in one call must not reach the next
    host = str(INSTANCES / "comp_host.txt")
    assert run_command(["oracle", host, "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --budget must be >= 0")
    assert run_command(["oracle", host, "--budget", "1"]) == 0
    assert capsys.readouterr().out == "outcome: aborted\nnodes: 2\n"
    assert run_command(["oracle", host]) == 0
    outcome, nodes, doc = capsys.readouterr().out.split("\n", 2)
    assert (outcome, nodes) == ("outcome: found", "nodes: 66")
    assert hashlib.sha256(doc.encode()).hexdigest() == ORACLE_COMP


def test_reused_parser_carries_no_factor(capsys):
    args = ["hub8.txt", "--strategy", "strong-product", "--factor", "hub6.txt"]
    assert run_command(["decompose"] + _paths(args[:3])) == 2
    assert capsys.readouterr().err == "decompose: --strategy strong-product needs --factor\n"
    assert run_command(["decompose"] + _paths(args)) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (args, 0, digest) in GOLDEN


#: two bidirected triangles joined by one digon: every degree is at least 2,
#: but either arc of the digon is a bridge
TWO_TRIANGLES = "6 14\n" + "".join(
    f"{u} {v}\n{v} {u}\n" for u, v in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
)


@pytest.mark.parametrize(
    "args,expected",
    [
        (["c3_k2_k2_k3.txt"], "outcome: none\nnodes: 170\nreason: exhausted\n"),
        (["hub5.txt"], "outcome: none\nnodes: 0\nreason: degree\n"),
        ([TWO_TRIANGLES], "outcome: none\nnodes: 0\nreason: arc-connectivity\n"),
        (["comp_host.txt", "--budget", "1"], "outcome: aborted\nnodes: 2\n"),
    ],
    ids=["exhausted", "degree", "arc-connectivity", "aborted"],
)
def test_oracle_reports_why_none(args, expected, capsys, tmp_path):
    """`oracle` prints a third line, the reason, for `none` only."""
    if args[0] == TWO_TRIANGLES:
        (tmp_path / "g.txt").write_text(TWO_TRIANGLES)
        args = [str(tmp_path / "g.txt")]
    assert run_command(["oracle"] + _paths(args)) == 0
    assert capsys.readouterr().out == expected
