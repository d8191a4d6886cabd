"""Pinned `decompose` documents: exit code and stdout SHA-256 for every
strategy on the fixed instance files of the benchmark.

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
]


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN])
def test_decompose_golden(args, code, digest, capsys):
    argv = ["decompose"] + [str(INSTANCES / a) if a.endswith((".txt", ".spec")) else a for a in args]
    assert run_command(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
