import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gooddecomp
from gooddecomp import (
    Decomposition,
    complete,
    cycle,
    decompose_cn_square,
    decompose_lexicographic,
    empty,
    oracle_good_decomposition,
    parse_decomposition,
    parse_edge_list,
    path,
    render_decomposition,
    render_edge_list,
    s4,
    verify_decomposition,
)
from gooddecomp import builders, cli
from gooddecomp.cli import run_command
from gooddecomp.decomp import ConstructionError
from gooddecomp.io import ParseError

from conftest import random_strong_digraph, rotational_tournament, shuffled_torus

ROOT = Path(__file__).resolve().parents[1]

#: sorted(gooddecomp.__all__): adding or removing a public name means editing
#: this list on purpose
PUBLIC_API = [
    "BACKEND", "Built", "CharacterizationResult", "CompositionSpec", "ConstructionError",
    "CoordinateMap", "CycleCover", "CycleCoverInfeasible", "Decomposition", "Digraph", "Ear",
    "EarDecomposition", "OracleReport", "ParseError", "Refusal", "VerifyResult", "arc_connectivity",
    "builders", "cartesian_power", "cartesian_product", "characterize_semicomplete_composition",
    "complete", "compose", "cover_cut", "cycle", "cycle_cover", "decomp",
    "decompose_cartesian_power", "decompose_cartesian_square", "decompose_cn_boxtimes_cm",
    "decompose_cn_square",
    "decompose_comp_hamiltonian", "decompose_composition", "decompose_lexicographic",
    "decompose_strong_product", "digraph", "ear_decomposition", "empty", "enumerate_semicomplete",
    "exception_digraph",
    "find_isomorphism", "flows", "hamiltonian_cycle_bruteforce",
    "io", "is_k_arc_strong", "is_semicomplete", "is_strong",
    "lexicographic_product", "match_exception", "oracle", "oracle_good_decomposition",
    "parse_decomposition", "parse_edge_list", "path", "render_decomposition",
    "render_edge_list", "s4", "strong_product", "structure", "trotter_erdos_hamiltonian",
    "validate_ear_decomposition", "verify", "verify_decomposition",
]


#: edge lists split into fields or lines only by a separator that is not an
#: ASCII space or "\n", with the line of their error
SEPARATOR_CASES = [
    ("2 1\u20280 1\n", 1),
    ("2 1\n0\xa01\n", 2),
    ("2 1\x0c0 1\n", 1),
    ("3 2\n# note\u2028more\n0 1\n1 1\n", 4),  # the loop, not a third arc line
]
SEPARATOR_IDS = ["line-separator-header", "no-break-space-arc", "form-feed-header",
                 "line-separator-comment"]
#: ASCII characters that str.split() takes as whitespace, besides space, tab
#: and newline; inside a header or an arc line each is a parse error
CONTROL_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\r"]
CONTROL_IDS = ["vt", "ff", "fs", "gs", "rs", "us", "cr"]


class TestEdgeList:
    def test_parse_c3(self):
        assert parse_edge_list("3 3\n0 1\n1 2\n2 0\n") == cycle(3)

    def test_parse_digon(self):
        assert parse_edge_list("2 2\n0 1\n1 0") == cycle(2)

    def test_duplicate_arc_line_number(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_edge_list("3 3\n0 1\n0 1\n1 2")

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 1\n1 1")

    def test_out_of_range_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_edge_list("2 1\n0 5")

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_edge_list("three arcs\n0 1")
        with pytest.raises(ParseError, match="^line 1: malformed header '2 1 7'"):
            parse_edge_list("2 1 7\n0 1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty document"),
        ("# no header\n\n", "line 1: empty document"),
        ("2 2\n0 1\n", "line 1: header announces 2 arcs but 1 arc lines follow"),
        ("2 1\n0 1 1\n", "line 2: expected 'u v', got '0 1 1'"),
    ], ids=["empty", "comment-only", "arc-count", "three-fields"])
    def test_malformed_document(self, text, message):
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == message

    @pytest.mark.parametrize("token", ["1_0", "+1", "-0", "\u0661", "\uff11"],
                             ids=["underscore", "plus", "minus", "arabic-indic", "fullwidth"])
    def test_ascii_decimals_only(self, token):
        # int() takes all of these; a count or a vertex is ASCII digits only
        for text, line in ((f"{token} 1\n0 1\n", 1), (f"2 1\n0 {token}\n", 2),
                           (f"11 {token}\n", 1), (f"2 1\n{token} 0\n", 2)):
            with pytest.raises(ParseError) as err:
                parse_edge_list(text)
            assert err.value.line == line, text

    def test_comments_ignored(self):
        text = "# a triangle\n3 3\n0 1\n# middle\n1 2\n2 0\n"
        assert parse_edge_list(text) == cycle(3)

    def test_ascii_line_ends(self):
        # lines break at "\n", a trailing "\r" dropped; a comment may hold
        # any character, a line separator too
        assert parse_edge_list("3 3\r\n0 1\r\n1 2\r\n2 0\r\n") == cycle(3)
        assert parse_edge_list("# \u2202 \u2028 \xa0\n3 3\n0 1\n1 2\n2 0\n") == cycle(3)

    @pytest.mark.parametrize("text, line", SEPARATOR_CASES, ids=SEPARATOR_IDS)
    def test_ascii_separators_only(self, text, line):
        # str.splitlines() breaks at U+2028 and a form feed, str.split()
        # splits at a no-break space; neither separates anything here
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert err.value.line == line

    @pytest.mark.parametrize("ch", CONTROL_SEPARATORS, ids=CONTROL_IDS)
    def test_control_character_separates_nothing(self, ch):
        # fields split at runs of spaces and tabs only
        for text, line in ((f"2{ch}1\n0 1\n", 1), (f"2 1\n0{ch}1\n", 2)):
            with pytest.raises(ParseError) as err:
                parse_edge_list(text)
            assert err.value.line == line, text
        assert parse_edge_list("2\t 2\n0 \t1\n1\t0\n") == cycle(2)

    def test_round_trip(self, rng):
        for _ in range(25):
            d = random_strong_digraph(rng, 6)
            assert parse_edge_list(render_edge_list(d)) == d


class TestDecompositionDocument:
    def test_round_trip(self):
        dec = decompose_cn_square(3)
        again = parse_decomposition(render_decomposition(dec))
        assert (again.host, again.a1, again.a2) == (dec.host, dec.a1, dec.a2)

    def test_overlap_rejected(self):
        text = "HOST\n2 2\n0 1\n1 0\nA1\n0 1\nA2\n0 1\n"
        with pytest.raises(ParseError, match="share"):
            parse_decomposition(text)

    def test_shared_arc_reported_at_its_line(self):
        # the second listing of an arc is reported, at its own line
        text = "HOST\n2 2\n0 1\n1 0\nA1\n0 1\nA2\n0 1\n"
        with pytest.raises(ParseError) as err:
            parse_decomposition(text)
        assert (str(err.value), err.value.line) == ("line 8: A2 shares arc '0 1' with A1", 8)
        text = "HOST\n3 3\n0 1\n1 2\n2 0\nA1\n0 1\nA2\n1 2\n# third\nA3\n2 0\n1  2\n"
        with pytest.raises(ParseError, match=r"^line 13: A3 shares arc '1  2' with A2$"):
            parse_decomposition(text)

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661"],
                             ids=["underscore", "plus", "arabic-indic"])
    def test_ascii_decimals_only(self, token):
        # in the HOST header, a HOST arc line and a part's arc line
        good = ["HOST", "2 2", "0 1", "1 0", "A1", "0 1", "A2", "1 0"]
        for at, bad in ((1, f"2 {token}"), (2, f"0 {token}"), (7, f"{token} 0")):
            with pytest.raises(ParseError) as err:
                parse_decomposition("\n".join(good[:at] + [bad] + good[at + 1:]) + "\n")
            assert err.value.line == at + 1, bad

    @pytest.mark.parametrize("text, line", SEPARATOR_CASES, ids=SEPARATOR_IDS)
    def test_ascii_separators_only(self, text, line):
        # the same edge lists as HOST, one line down
        with pytest.raises(ParseError) as err:
            parse_decomposition("HOST\n" + text + "A1\nA2\n")
        assert err.value.line == line + 1

    @pytest.mark.parametrize("ch", CONTROL_SEPARATORS, ids=CONTROL_IDS)
    def test_control_character_separates_nothing(self, ch):
        # in the HOST header, a HOST arc line and a part's arc line
        good = ["HOST", "2 2", "0 1", "1 0", "A1", "0 1", "A2", "1 0"]
        for at, bad in ((1, f"2{ch}2"), (2, f"0{ch}1"), (7, f"1{ch}0")):
            with pytest.raises(ParseError) as err:
                parse_decomposition("\n".join(good[:at] + [bad] + good[at + 1:]) + "\n")
            assert err.value.line == at + 1, bad

    def test_no_break_space_in_part_arc_line(self):
        with pytest.raises(ParseError) as err:
            parse_decomposition("HOST\n2 2\n0 1\n1 0\nA1\n0\xa01\nA2\n1 0\n")
        assert err.value.line == 6

    def test_side_arc_outside_host_rejected(self):
        text = "HOST\n3 2\n0 1\n1 2\nA1\n2 0\nA2\n"
        with pytest.raises(ParseError, match="not in HOST"):
            parse_decomposition(text)

    def test_repeated_part_arc_rejected(self, capsys, tmp_path):
        # a repeated arc line is an error in a part section, as in HOST
        lines = render_decomposition(decompose_cn_square(3)).splitlines()
        at = lines.index("A1") + 1
        lines.insert(at + 1, lines[at])
        doc = tmp_path / "repeated.decomp"
        doc.write_text("\n".join(lines) + "\n")
        assert run_command(["verify", str(doc)]) == 2
        assert capsys.readouterr().err == f"error: line {at + 2}: duplicate arc '{lines[at]}'\n"

    def test_missing_middle_section_rejected(self):
        text = "HOST\n2 2\n0 1\n1 0\nA1\n0 1\nA3\n1 0\n"
        with pytest.raises(ParseError, match="missing section A2"):
            parse_decomposition(text)
        # a repeated section, and an arc line before any section
        with pytest.raises(ParseError, match="^line 7: duplicate section A1$"):
            parse_decomposition("HOST\n2 2\n0 1\n1 0\nA1\n0 1\nA1\n1 0\nA2\n")
        with pytest.raises(ParseError, match="^line 1: content before any section: '0 1'$"):
            parse_decomposition("0 1\nHOST\n2 1\n0 1\nA1\nA2\n")

    def test_three_part_round_trip(self, tmp_path, capsys):
        halves = [frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(0, 2), (2, 1), (1, 0)})]
        dec = decompose_lexicographic(cycle(3), complete(3), halves)
        text = render_decomposition(dec)
        assert text.splitlines().count("A3") == 1
        again = parse_decomposition(text)
        assert (again.host, again.parts) == (dec.host, dec.parts)
        doc = tmp_path / "lex3.decomp"
        doc.write_text(text)
        assert run_command(["verify", str(doc)]) == 0
        assert capsys.readouterr().out == "valid\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "s4.el").write_text(render_edge_list(s4()))
    (tmp_path / "c3.el").write_text(render_edge_list(cycle(3)))
    (tmp_path / "k2bar.el").write_text(render_edge_list(empty(2)))
    (tmp_path / "k4.el").write_text(render_edge_list(complete(4)))
    (tmp_path / "c2.el").write_text(render_edge_list(cycle(2)))
    (tmp_path / "k1.el").write_text(render_edge_list(empty(1)))
    (tmp_path / "spec.txt").write_text("c3.el\nk2bar.el\nk2bar.el\nk2bar.el\n")
    (tmp_path / "outer-only.txt").write_text("c3.el\n")
    return tmp_path


class TestCli:
    def test_check(self, workdir, capsys):
        assert run_command(["check", str(workdir / "s4.el")]) == 0
        out = capsys.readouterr().out
        assert "strong: yes" in out and "arc-connectivity: 2" in out
        assert run_command(["check", str(workdir / "k1.el")]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "arc-connectivity: n/a"

    def test_check_huge_arcless_order(self, tmp_path, capsys, monkeypatch):
        """An arcless digraph of order 10^9 is not strong, not semicomplete and
        0-arc-strong, all read from its order and arc count: building its rows
        would take about 16 GB, so here it raises."""
        def no_rows(n, arcs):
            raise AssertionError(f"rows built for order {n}")

        monkeypatch.setattr(gooddecomp.digraph, "_rows", no_rows)
        (tmp_path / "huge.el").write_text("1000000000 0\n")
        assert run_command(["check", str(tmp_path / "huge.el")]) == 0
        captured = capsys.readouterr()
        assert captured.out == (
            "order: 1000000000\narcs: 0\nstrong: no\nsemicomplete: no\narc-connectivity: 0\n"
        )
        assert captured.err == ""

    def test_decompose_s4_refused(self, workdir, capsys):
        assert run_command(["decompose", str(workdir / "s4.el")]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "exception:S4"

    @pytest.mark.parametrize("file", ["c3.el", "k1.el"])
    @pytest.mark.parametrize("argv", [
        ["product", "--op", "cartesian", "{}", "--power", "1000000000"],
        ["decompose", "{}", "--strategy", "cartesian-power", "--power", "1000000000"],
    ], ids=["product", "decompose"])
    def test_power_order_bound(self, workdir, capsys, file, argv):
        assert run_command([a.format(workdir / file) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: power 1000000000 exceeds the order bound")

    @pytest.mark.parametrize("strategy", ["strong-product", "lex"])
    @pytest.mark.parametrize("file,factor", [("p3.el", "c3.el"), ("c3.el", "k1.el")],
                             ids=["path-file", "order-1-factor"])
    def test_product_strategies_refuse_non_strong(self, workdir, capsys, strategy, file, factor):
        (workdir / "p3.el").write_text(render_edge_list(path(3)))
        argv = ["decompose", str(workdir / file), "--strategy", strategy,
                "--factor", str(workdir / factor)]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "not-covered\ndigraph is not strong of order >= 2\n"
        assert captured.err == ""

    def test_decompose_shuffled_c12_square(self, tmp_path, capsys):
        """auto with no --budget settles the vertex-shuffled C12□C12 (seed 3):
        its sorted tree runs past the 1,024-node cap, and the kernel in MCS
        order finds the sides after 1,358 more nodes."""
        d = shuffled_torus(12, 12, 3)
        (tmp_path / "c12sq.el").write_text(render_edge_list(d))
        assert run_command(["decompose", str(tmp_path / "c12sq.el")]) == 0
        dec = parse_decomposition(capsys.readouterr().out)
        assert dec.host == d and verify_decomposition(dec).ok
        rep = oracle_good_decomposition(d)
        assert (rep.outcome, rep.nodes_explored, rep.order) == ("found", 2382, "mcs")

    def test_ham_cartesian(self, capsys):
        assert run_command(["ham-cartesian", "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "non-hamiltonian"

    @pytest.mark.parametrize("exc", [ConstructionError("bad side"), RecursionError("too deep"),
                                     MemoryError()])
    def test_internal_errors_without_traceback(self, monkeypatch, capsys, exc):
        def broken(p, q):
            raise exc

        monkeypatch.setattr(cli, "trotter_erdos_hamiltonian", broken)
        assert run_command(["ham-cartesian", "2", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_failed_check_writes_no_stdout(self, workdir, monkeypatch, capsys):
        # a check that fails partway leaves no half document on stdout
        def broken(d):
            raise MemoryError()

        monkeypatch.setattr(cli, "is_strong", broken)
        assert run_command(["check", str(workdir / "s4.el")]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: out of memory\n"

    def test_library_usage_error_is_not_a_refusal(self, workdir, monkeypatch, capsys):
        # only a Refusal is printed as one; any other ValueError is an error
        def broken(g, k):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "decompose_cartesian_power", broken)
        argv = ["decompose", str(workdir / "c3.el"), "--strategy", "cartesian-power"]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: boom\n"

    def test_decompose_composition_builds_one_composition(self, monkeypatch, capsys):
        # the "spec composes to FILE" check and the lift share one build
        builds = []

        def counted(arcs, cmap, real=builders._built):
            builds.append(cmap)
            return real(arcs, cmap)

        monkeypatch.setattr(builders, "_built", counted)
        instances = ROOT / "perfbench" / "instances"
        argv = ["decompose", str(instances / "comp_host.txt"), "--strategy", "composition",
                "--spec", str(instances / "comp.spec")]
        assert run_command(argv) == 0
        assert capsys.readouterr().out.startswith("HOST\n")
        assert len(builds) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_run_command_builds_one_parser(self, monkeypatch, capsys):
        built = []

        def counting():
            built.append(real())
            return built[-1]

        real = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting)
        assert run_command(["ham-cartesian", "2", "3"]) == 0
        assert run_command(["ham-cartesian", "2", "2"]) == 0
        assert capsys.readouterr().out == "non-hamiltonian\nhamiltonian\n"
        assert len(built) == 1

    def test_import_builds_no_parser(self):
        # the import is what the benchmark's set-up time measures
        code = (
            "import argparse\n"
            "made = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *a, **k):\n"
            "    made.append(1)\n"
            "    init(self, *a, **k)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import gooddecomp.cli\n"
            "print(len(made), gooddecomp.cli._parser)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0 and proc.stdout == "0 None\n"

    def test_module_entry_point(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "gooddecomp.cli", "ham-cartesian", "2", "3"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == "non-hamiltonian\n"

    def test_benchmark_self_check(self):
        # the benchmark reads oracle.BACKEND, oracle._impl and pinned CLI digests
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-check"],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_compose_then_oracle_none(self, workdir, capsys, tmp_path):
        args = ["compose"] + [str(workdir / f) for f in ("c3.el", "k2bar.el", "k2bar.el", "k2bar.el")]
        assert run_command(args) == 0
        q = tmp_path / "q.el"
        q.write_text(capsys.readouterr().out)
        outs = []
        for _ in range(2):
            assert run_command(["oracle", str(q)]) == 0
            outs.append(capsys.readouterr().out)
        assert "outcome: none" in outs[0]  # exception
        assert "elapsed" not in outs[0] and outs[0] == outs[1]

    def test_decompose_composition_exception(self, workdir, capsys, tmp_path):
        args = ["compose"] + [str(workdir / f) for f in ("c3.el", "k2bar.el", "k2bar.el", "k2bar.el")]
        run_command(args)
        q = tmp_path / "q.el"
        q.write_text(capsys.readouterr().out)
        code = run_command(
            ["decompose", str(q), "--strategy", "composition", "--spec", str(workdir / "spec.txt")]
        )
        assert code == 1
        assert capsys.readouterr().out.splitlines()[0] == "exception:C3_K2_K2_K2"

    @pytest.mark.parametrize(
        "outer,inners,code,first",
        [
            (cycle(4), [empty(2)] * 4, 0, "HOST"),  # not semicomplete: Hamiltonian outer, even t
            (cycle(3), [empty(1), empty(2), empty(2)], 1, "not-covered"),  # a trivial block
            (s4(), [empty(1)] * 4, 1, "exception:S4"),  # the composition is S_4 itself
        ],
        ids=["covered", "not-covered", "exception"],
    )
    def test_decompose_composition_fallback(self, capsys, tmp_path, outer, inners, code, first):
        names = [f"b{i}.el" for i in range(len(inners) + 1)]
        for name, d in zip(names, [outer] + inners):
            (tmp_path / name).write_text(render_edge_list(d))
        (tmp_path / "spec.txt").write_text("\n".join(names) + "\n")
        assert run_command(["compose"] + [str(tmp_path / name) for name in names]) == 0
        q = tmp_path / "q.el"
        q.write_text(capsys.readouterr().out)
        spec = str(tmp_path / "spec.txt")
        assert run_command(["decompose", str(q), "--strategy", "composition", "--spec", spec]) == code
        out = capsys.readouterr().out
        assert out.splitlines()[0] == first
        if code == 1:
            assert out == f"{first}\n"
        else:
            doc = tmp_path / "q.decomp"
            doc.write_text(out)
            assert run_command(["verify", str(doc)]) == 0

    def test_decompose_verify_pipeline(self, workdir, capsys, tmp_path):
        assert run_command(["decompose", str(workdir / "k4.el"), "--strategy", "oracle"]) == 0
        doc = tmp_path / "k4.decomp"
        doc.write_text(capsys.readouterr().out)
        assert run_command(["verify", str(doc)]) == 0

    def test_verify_names_invalid_document(self, capsys, tmp_path):
        a1 = frozenset({(0, 1), (1, 0)})  # misses vertex 2
        dec = Decomposition(complete(3), (a1, complete(3).arcs - a1))
        doc = tmp_path / "bad.decomp"
        doc.write_text(render_decomposition(dec))
        assert run_command(["verify", str(doc)]) == 1
        assert capsys.readouterr().out == "invalid\nA1 not strong: no path 0->2\n"

    def test_cartesian_square_strategy(self, workdir, capsys, tmp_path):
        assert run_command(
            ["decompose", str(workdir / "c3.el"), "--strategy", "cartesian-square"]
        ) == 0
        doc = tmp_path / "sq.decomp"
        doc.write_text(capsys.readouterr().out)
        assert run_command(["verify", str(doc)]) == 0

    def test_infeasible_refusal(self, capsys, tmp_path):
        from gooddecomp import Digraph

        bad = Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
        f = tmp_path / "bad.el"
        f.write_text(render_edge_list(bad))
        outs = []
        for strategy in ("cartesian-power", "cartesian-square"):
            assert run_command(["decompose", str(f), "--strategy", strategy]) == 1
            outs.append(capsys.readouterr().out)
        assert outs[0] == "infeasible:no-cycle-cover\ncut: [('in', 0), ('out', 2), ('out', 3)]\n"
        assert outs[1] == outs[0]

    def test_disconnected_cover_union_refused(self, capsys, tmp_path):
        # the found cycle cover splits into two parts sharing no vertex
        f = tmp_path / "split.el"
        f.write_text("4 6\n0 1\n1 0\n1 3\n2 1\n2 3\n3 2\n")
        for strategy in ("cartesian-power", "cartesian-square"):
            assert run_command(["decompose", str(f), "--strategy", strategy]) == 1
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out == (
                "not-covered\ncover union disconnected; construction not defined\n"
            )

    def test_spec_names_may_be_non_ascii(self, capsys, tmp_path):
        names = ["\u00e4u\u00dfere.el"] + ["\u03ba \u00a0.el"] * 4
        (tmp_path / names[0]).write_text(render_edge_list(cycle(4)))
        (tmp_path / names[1]).write_text(render_edge_list(empty(2)))
        (tmp_path / "spec.txt").write_text("\n".join(names) + "\n", encoding="utf-8")
        assert run_command(["compose"] + [str(tmp_path / name) for name in names]) == 0
        q = tmp_path / "q.el"
        q.write_text(capsys.readouterr().out)
        spec = str(tmp_path / "spec.txt")
        assert run_command(["decompose", str(q), "--strategy", "composition", "--spec", spec]) == 0
        assert capsys.readouterr().out.startswith("HOST\n")

    @pytest.mark.parametrize("text", ["2 2\u20280 1\n1 0\n", "2 2\n0\xa01\n1 0\n"],
                             ids=["line-separator-header", "no-break-space-arc"])
    def test_check_non_ascii_separator_is_error(self, capsys, tmp_path, text):
        f = tmp_path / "bad.el"
        f.write_text(text, encoding="utf-8")
        assert run_command(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line ") and captured.err.count("\n") == 1

    def test_decompose_composition_outer_above_isomorphism_bound(self, capsys, tmp_path):
        names = ["outer.el"] + ["k2bar.el"] * 13
        (tmp_path / "outer.el").write_text(render_edge_list(rotational_tournament(13)))
        (tmp_path / "k2bar.el").write_text(render_edge_list(empty(2)))
        (tmp_path / "spec.txt").write_text("\n".join(names) + "\n")
        assert run_command(["compose"] + [str(tmp_path / name) for name in names]) == 0
        q = tmp_path / "q.el"
        q.write_text(capsys.readouterr().out)
        spec = str(tmp_path / "spec.txt")
        assert run_command(["decompose", str(q), "--strategy", "composition", "--spec", spec]) == 0
        doc = tmp_path / "q.decomp"
        doc.write_text(capsys.readouterr().out)
        assert run_command(["verify", str(doc)]) == 0

    @pytest.mark.parametrize("power", ["0", "1", "-3"])
    def test_cartesian_power_below_two_is_usage_error(self, workdir, capsys, power):
        args = ["decompose", str(workdir / "c3.el"), "--strategy", "cartesian-power"]
        assert run_command(args + ["--power", power]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: needs k >= 2\n"

    def test_strong_product_strategy(self, workdir, capsys, tmp_path):
        code = run_command(
            [
                "decompose",
                str(workdir / "c3.el"),
                "--strategy",
                "strong-product",
                "--factor",
                str(workdir / "c2.el"),
            ]
        )
        assert code == 0
        doc = tmp_path / "sp.decomp"
        doc.write_text(capsys.readouterr().out)
        assert run_command(["verify", str(doc)]) == 0

    def test_product_command(self, workdir, capsys):
        assert run_command(["product", "--op", "lex", str(workdir / "c3.el"), str(workdir / "c2.el")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "6 18"
        cube = ["product", "--op", "cartesian", str(workdir / "c3.el"), "--power", "3"]
        assert run_command(cube) == 0
        assert capsys.readouterr().out.splitlines()[0] == "27 81"

    @pytest.mark.parametrize("op", ["strong", "lex"])
    def test_product_power_needs_cartesian(self, workdir, capsys, op):
        assert run_command(["product", "--op", op, str(workdir / "c3.el"), "--power", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("product: --power")

    def test_product_power_takes_one_factor(self, workdir, capsys):
        argv = ["product", "--op", "cartesian", str(workdir / "c3.el"), str(workdir / "c2.el")]
        assert run_command(argv + ["--power", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "product: --power takes one factor A, not B\n"

    @pytest.mark.parametrize(
        "strategy,flag,message",
        [
            ("auto", "--spec", "--spec applies to --strategy composition only"),
            ("lex", "--spec", "--spec applies to --strategy composition only"),
            ("oracle", "--factor", "--factor applies to --strategy strong-product and lex only"),
            ("composition", "--factor",
             "--factor applies to --strategy strong-product and lex only"),
        ],
    )
    def test_ignored_flag_is_usage_error(self, workdir, capsys, strategy, flag, message):
        argv = ["decompose", str(workdir / "c3.el"), "--strategy", strategy, flag, "x"]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"decompose: {message}\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["decompose", "c3.el", "--strategy", "composition"],
             "decompose: --strategy composition needs --spec"),
            (["decompose", "k4.el", "--strategy", "composition", "--spec", "spec.txt"],
             "decompose: spec does not compose to FILE"),
            (["product", "--op", "lex", "c3.el"], "product: need a second factor B (or --power k)"),
            (["decompose", "c3.el", "--strategy", "composition", "--spec", "outer-only.txt"],
             "error: line 1: spec file needs an outer file and at least one inner file"),
        ],
        ids=["composition-without-spec", "spec-composes-elsewhere", "product-without-b",
             "spec-without-inner"],
    )
    def test_missing_or_mismatched_input_is_usage_error(self, workdir, capsys, argv, message):
        argv = [str(workdir / a) if a.endswith((".el", ".txt")) else a for a in argv]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"{message}\n"

    def test_usage_errors(self, workdir, capsys):
        assert run_command(["bogus"]) == 2
        capsys.readouterr()
        assert run_command(["decompose", str(workdir / "c3.el"), "--strategy", "lex"]) == 2

    def test_budget_needs_oracle_strategy(self, workdir, capsys):
        args = ["decompose", str(workdir / "c3.el"), "--strategy", "cartesian-square"]
        assert run_command(args + ["--budget", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("decompose: --budget")

    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", "k4.el", "--strategy", "oracle", "--budget", "-3"],
            ["decompose", "s4.el", "--budget", "-1"],
            ["oracle", "k4.el", "--budget", "-3"],
            ["oracle", "missing.el", "--budget", "-1"],
        ],
        ids=["decompose-oracle", "decompose-auto-before-refusal", "oracle",
             "oracle-before-file"],
    )
    def test_negative_budget_is_usage_error(self, workdir, capsys, argv):
        # the library reads budget <= 0 as unlimited; the CLI must not
        argv = [str(workdir / a) if a.endswith(".el") else a for a in argv]
        assert run_command(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --budget must be >= 0, got {argv[-1]}\n"

    @pytest.mark.parametrize("argv,first_line", [
        (["decompose", "k4.el", "--strategy", "oracle", "--budget", "0"], "HOST"),
        (["oracle", "k4.el", "--budget", "0"], "outcome: found"),
    ])
    def test_zero_budget_is_unlimited(self, workdir, capsys, argv, first_line):
        assert run_command([str(workdir / a) if a.endswith(".el") else a for a in argv]) == 0
        assert capsys.readouterr().out.splitlines()[0] == first_line

    def test_determinism(self, workdir, capsys):
        run_command(["decompose", str(workdir / "k4.el"), "--strategy", "oracle"])
        first = capsys.readouterr().out
        run_command(["decompose", str(workdir / "k4.el"), "--strategy", "oracle"])
        assert capsys.readouterr().out == first


def test_public_api_snapshot():
    assert sorted(gooddecomp.__all__) == PUBLIC_API


def test_library_has_no_assert_statements():
    # python -O strips asserts; every internal check must raise instead
    found = []
    for source in sorted(Path(gooddecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        found += [f"{source.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_top_level_imports():
    # every top-level import of a library or test module is read there as a
    # name; __init__.py re-exports its imports, and __future__ names a flag
    library = [p for p in Path(gooddecomp.__file__).parent.glob("*.py") if p.name != "__init__.py"]
    found = []
    for source in sorted(library) + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                found += [f"{source.name}:{name}" for name in names if name not in read]
    assert found == []


def test_library_has_no_function_level_imports():
    # an import inside a function hides a module cycle from the import graph
    found = []
    for source in sorted(Path(gooddecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{source.name}:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def _lowest_bit_step(node) -> bool:
    """node is x & -x, or -x & x, for one expression x."""
    if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd)):
        return False
    return any(isinstance(neg, ast.UnaryOp) and isinstance(neg.op, ast.USub)
               and ast.dump(neg.operand) == ast.dump(x)
               for x, neg in ((node.left, node.right), (node.right, node.left)))


def test_lowest_bit_step_only_where_order_matters():
    # a bitmask loop pops the highest set bit, v = x.bit_length() - 1 then
    # x ^= 1 << v, which allocates no negation and no mask; the lowest-bit
    # step x & -x stays only where a result depends on ascending order: the
    # parent map of _bfs, the smallest unreachable vertex, the smallest
    # frontier arc of an ear and the lexicographically first Hamiltonian
    # cycle.  A step in a nested function counts for its top-level one
    found = set()
    for source in sorted(Path(gooddecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for top in tree.body:
            if any(_lowest_bit_step(node) for node in ast.walk(top)):
                found.add(f"{source.name}:{getattr(top, 'name', top.lineno)}")
    assert found == {"digraph.py:_bfs", "digraph.py:_unreachable_pair",
                     "structure.py:ear_decomposition",
                     "structure.py:hamiltonian_cycle_bruteforce"}


def test_library_imports_no_dataclasses():
    # result records are NamedTuples or __slots__ classes: building
    # dataclasses, and importing dataclasses with inspect, cost about a third
    # of a fresh `import gooddecomp.cli`
    found = []
    for source in sorted(Path(gooddecomp.__file__).parent.glob("*.py")):
        tree = ast.parse(source.read_text(), filename=str(source))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            if "dataclasses" in names:
                found.append(f"{source.name}:{node.lineno}")
    assert found == []
    # -S keeps site-packages hooks out, so only the library's own imports
    # count; the CLI reads files with open() and os.path, so pathlib, with
    # urllib.parse, ipaddress and fnmatch, stays out too
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import gooddecomp.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr


def test_readme_python_blocks_run():
    # every python block of README.md runs as documented
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.S | re.M)
    assert blocks
    for k, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md python block {k}", "exec"), {})
