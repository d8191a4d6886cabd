import os
import subprocess
import sys
from pathlib import Path

import pytest

from gooddecomp import (
    Decomposition,
    complete,
    cycle,
    decompose_cn_square,
    decompose_lexicographic,
    empty,
    export_dot,
    parse_decomposition,
    parse_edge_list,
    render_decomposition,
    render_edge_list,
    s4,
)
from gooddecomp import cli
from gooddecomp.cli import run_command
from gooddecomp.decomp import ConstructionError
from gooddecomp.io import ParseError

from conftest import random_strong_digraph

ROOT = Path(__file__).resolve().parents[1]


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

    def test_comments_ignored(self):
        text = "# a triangle\n3 3\n0 1\n# middle\n1 2\n2 0\n"
        assert parse_edge_list(text) == cycle(3)

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

    def test_side_arc_outside_host_rejected(self):
        text = "HOST\n3 2\n0 1\n1 2\nA1\n2 0\nA2\n"
        with pytest.raises(ParseError, match="not in HOST"):
            parse_decomposition(text)

    def test_missing_middle_section_rejected(self):
        text = "HOST\n2 2\n0 1\n1 0\nA1\n0 1\nA3\n1 0\n"
        with pytest.raises(ParseError, match="missing section A2"):
            parse_decomposition(text)

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


class TestDot:
    def test_plain(self):
        dot = export_dot(cycle(3))
        assert dot.count("->") == 3

    def test_colored_decomposition(self):
        dec = decompose_cn_square(2)
        dot = export_dot(dec.host, dec)
        assert dot.count("color=red") == 4 and dot.count("color=blue") == 4

    def test_unused_arcs_gray(self):
        d = complete(3)
        dec = Decomposition(
            d, (frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(0, 2), (2, 1)}))
        )
        assert export_dot(d, dec).count("color=gray") == 1

    def test_every_part_colored(self):
        halves = [frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(0, 2), (2, 1), (1, 0)})]
        dec = decompose_lexicographic(cycle(3), complete(3), halves)
        dot = export_dot(dec.host, dec)
        assert "color=gray" not in dot
        colors = ("red", "blue", "darkgreen")
        assert [dot.count(f"color={c}]") for c in colors] == [len(p) for p in dec.parts]

    def test_host_mismatch(self):
        with pytest.raises(ValueError):
            export_dot(cycle(3), decompose_cn_square(2))


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "s4.el").write_text(render_edge_list(s4()))
    (tmp_path / "c3.el").write_text(render_edge_list(cycle(3)))
    (tmp_path / "k2bar.el").write_text(render_edge_list(empty(2)))
    (tmp_path / "k4.el").write_text(render_edge_list(complete(4)))
    (tmp_path / "c2.el").write_text(render_edge_list(cycle(2)))
    (tmp_path / "spec.txt").write_text("c3.el\nk2bar.el\nk2bar.el\nk2bar.el\n")
    return tmp_path


class TestCli:
    def test_check(self, workdir, capsys):
        assert run_command(["check", str(workdir / "s4.el")]) == 0
        out = capsys.readouterr().out
        assert "strong: yes" in out and "arc-connectivity: 2" in out

    def test_decompose_s4_refused(self, workdir, capsys):
        assert run_command(["decompose", str(workdir / "s4.el")]) == 1
        assert capsys.readouterr().out.splitlines()[0] == "exception:S4"

    def test_ham_cartesian(self, capsys):
        assert run_command(["ham-cartesian", "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "non-hamiltonian"

    @pytest.mark.parametrize("exc", [ConstructionError("bad side"), RecursionError("too deep")])
    def test_internal_errors_without_traceback(self, monkeypatch, capsys, exc):
        def broken(p, q):
            raise exc

        monkeypatch.setattr(cli, "trotter_erdos_hamiltonian", broken)
        assert run_command(["ham-cartesian", "2", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

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
        "outer,inners,code",
        [
            (cycle(4), [empty(2)] * 4, 0),  # not semicomplete: Hamiltonian outer, even t
            (cycle(3), [empty(1), empty(2), empty(2)], 1),  # a trivial block: no route
        ],
        ids=["covered", "not-covered"],
    )
    def test_decompose_composition_fallback(self, capsys, tmp_path, outer, inners, code):
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
        if code == 1:
            assert out == "not-covered\n"
        else:
            doc = tmp_path / "q.decomp"
            doc.write_text(out)
            assert run_command(["verify", str(doc)]) == 0

    def test_decompose_verify_pipeline(self, workdir, capsys, tmp_path):
        assert run_command(["decompose", str(workdir / "k4.el"), "--strategy", "oracle"]) == 0
        doc = tmp_path / "k4.decomp"
        doc.write_text(capsys.readouterr().out)
        assert run_command(["verify", str(doc)]) == 0

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
        assert outs[0].startswith("infeasible:no-cycle-cover") and outs[1] == outs[0]

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

    def test_usage_errors(self, workdir, capsys):
        assert run_command(["bogus"]) == 2
        capsys.readouterr()
        assert run_command(["decompose", str(workdir / "c3.el"), "--strategy", "lex"]) == 2

    def test_determinism(self, workdir, capsys):
        run_command(["decompose", str(workdir / "k4.el"), "--strategy", "oracle"])
        first = capsys.readouterr().out
        run_command(["decompose", str(workdir / "k4.el"), "--strategy", "oracle"])
        assert capsys.readouterr().out == first
