"""Command-line driver.

Exit codes: 0 success, 1 reasoned refusal (first output line is a
machine-readable reason such as "exception:S4", "not-covered" or
"infeasible:no-cycle-cover"), 2 usage error or failure, reported on stderr
as one "error: ..." line without a traceback.  Refusals are decided by the
library, which raises decomp.Refusal, auto's exception check included; this
module prints them, and passes an oracle or verify verdict on as one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .builders import CompositionSpec, cartesian_power, cartesian_product, compose, \
    lexicographic_product, strong_product
from .decomp import (
    ConstructionError,
    Decomposition,
    Refusal,
    decompose_cartesian_power,
    decompose_composition,
    decompose_lexicographic,
    decompose_strong_product,
    trotter_erdos_hamiltonian,
    verify_decomposition,
    _refuse_exception,
)
from .digraph import Digraph, arc_connectivity, is_semicomplete, is_strong
from .io import ParseError, _content_lines, parse_decomposition, parse_edge_list, \
    render_decomposition, render_edge_list
from .oracle import oracle_good_decomposition

OK, REFUSED, USAGE = 0, 1, 2


def _read(path: str) -> str:
    with open(path) as f:
        return f.read()


def _load_digraph(path: str) -> Digraph:
    return parse_edge_list(_read(path))


def _load_spec(path: str) -> CompositionSpec:
    """Spec file: first content line names the outer edge-list file, the
    following lines name the inner files in block order; paths are relative
    to the spec file."""
    base = os.path.dirname(path)
    names = [line for _, line in _content_lines(_read(path))]
    if len(names) < 2:
        raise ParseError("spec file needs an outer file and at least one inner file", 1)
    outer = _load_digraph(os.path.join(base, names[0]))
    return CompositionSpec(outer, (_load_digraph(os.path.join(base, nm)) for nm in names[1:]))


def _cmd_check(args) -> int:
    d = _load_digraph(args.file)
    # every line is computed before any is written, so a failure writes none
    lines = [
        f"order: {d.n}",
        f"arcs: {d.m}",
        f"strong: {'yes' if is_strong(d) else 'no'}",
        f"semicomplete: {'yes' if is_semicomplete(d) else 'no'}",
        f"arc-connectivity: {arc_connectivity(d) if d.n >= 2 else 'n/a'}",
    ]
    print("\n".join(lines))
    return OK


def _cmd_product(args) -> int:
    g = _load_digraph(args.a)
    if args.power is not None:
        if args.op != "cartesian":
            print("product: --power applies to the cartesian product only", file=sys.stderr)
            return USAGE
        if args.b is not None:
            print("product: --power takes one factor A, not B", file=sys.stderr)
            return USAGE
        built = cartesian_power(g, args.power)
    else:
        if args.b is None:
            print("product: need a second factor B (or --power k)", file=sys.stderr)
            return USAGE
        h = _load_digraph(args.b)
        op = {
            "cartesian": cartesian_product,
            "strong": strong_product,
            "lex": lexicographic_product,
        }[args.op]
        built = op(g, h)
    sys.stdout.write(render_edge_list(built.digraph))
    return OK


def _cmd_compose(args) -> int:
    spec = CompositionSpec(_load_digraph(args.outer), map(_load_digraph, args.inners))
    sys.stdout.write(render_edge_list(compose(spec).digraph))
    return OK


def _emit(dec: Decomposition) -> int:
    sys.stdout.write(render_decomposition(dec))
    return OK


#: decompose flags and the strategies that read them; any other strategy
#: refuses the flag as a usage error rather than ignore it
_DECOMPOSE_FLAGS = {
    "power": ("cartesian-power",),
    "budget": ("auto", "oracle"),
    "spec": ("composition",),
    "factor": ("strong-product", "lex"),
}


def _budget(value: Optional[int]) -> int:
    """The oracle node budget of --budget, 0 (unlimited) when absent.  The
    library reads any budget <= 0 as unlimited, so a negative one is refused
    here rather than silently lift the limit."""
    if value is not None and value < 0:
        raise ValueError(f"--budget must be >= 0, got {value}")
    return value or 0


def _cmd_decompose(args) -> int:
    strategy = args.strategy
    for flag, readers in _DECOMPOSE_FLAGS.items():
        if getattr(args, flag) is not None and strategy not in readers:
            print(
                f"decompose: --{flag} applies to --strategy {' and '.join(readers)} only",
                file=sys.stderr,
            )
            return USAGE
    budget = _budget(args.budget)
    d = _load_digraph(args.file)
    if strategy == "composition":
        if args.spec is None:
            print("decompose: --strategy composition needs --spec", file=sys.stderr)
            return USAGE
        spec = _load_spec(args.spec)
        if compose(spec).digraph != d:
            print("decompose: spec does not compose to FILE", file=sys.stderr)
            return USAGE
        return _emit(decompose_composition(spec))
    if strategy in ("cartesian-square", "cartesian-power"):
        return _emit(decompose_cartesian_power(d, 2 if args.power is None else args.power))
    if strategy in ("strong-product", "lex"):
        if args.factor is None:
            print(f"decompose: --strategy {strategy} needs --factor", file=sys.stderr)
            return USAGE
        h = _load_digraph(args.factor)
        if strategy == "strong-product":
            return _emit(decompose_strong_product(d, h))
        return _emit(decompose_lexicographic(d, h))
    if strategy == "auto":
        _refuse_exception(d)
    report = oracle_good_decomposition(d, budget=budget)
    if report.outcome == "found":
        return _emit(report.decomposition)
    raise Refusal(report.outcome)


def _cmd_verify(args) -> int:
    dec = parse_decomposition(_read(args.file))
    res = verify_decomposition(dec)
    if res.ok:
        print("valid")
        return OK
    raise Refusal("invalid", res.reason or "")


def _cmd_oracle(args) -> int:
    budget = _budget(args.budget)
    d = _load_digraph(args.file)
    report = oracle_good_decomposition(d, budget=budget)
    print(f"outcome: {report.outcome}")
    print(f"nodes: {report.nodes_explored}")
    if report.reason is not None:
        print(f"reason: {report.reason}")
    print(f"elapsed: {report.elapsed:.3f}s", file=sys.stderr)
    if report.decomposition is not None:
        sys.stdout.write(render_decomposition(report.decomposition))
    return OK


def _cmd_ham_cartesian(args) -> int:
    verdict = trotter_erdos_hamiltonian(args.p, args.q)
    print("hamiltonian" if verdict else "non-hamiltonian")
    return OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gooddecomp",
        description="Construct and verify pairs of arc-disjoint strong spanning subdigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="print basic predicates of an edge-list file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("product", help="write a product digraph as an edge list")
    p.add_argument("--op", choices=("cartesian", "strong", "lex"), required=True)
    p.add_argument("a")
    p.add_argument("b", nargs="?")
    p.add_argument("--power", type=int)
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("compose", help="write a composition as an edge list")
    p.add_argument("outer")
    p.add_argument("inners", nargs="+")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("decompose", help="write a decomposition document or refuse")
    p.add_argument("file")
    p.add_argument(
        "--strategy",
        choices=(
            "auto",
            "composition",
            "cartesian-square",
            "cartesian-power",
            "strong-product",
            "lex",
            "oracle",
        ),
        default="auto",
    )
    p.add_argument("--spec", help="composition spec file (outer + inner files)")
    p.add_argument("--factor", help="second factor for product strategies")
    p.add_argument("--power", type=int, help="exponent for cartesian-power")
    p.add_argument("--budget", type=int, help="oracle node budget (auto and oracle only)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("verify", help="validate a decomposition document")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="run the exact search and report")
    p.add_argument("file")
    p.add_argument("--budget", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("ham-cartesian", help="Hamiltonicity verdict for C_p x C_q")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.set_defaults(func=_cmd_ham_cartesian)
    return parser


_parser: Optional[argparse.ArgumentParser] = None


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    """Exit code of one command.  The parser is built on the first call and reused, so
    _cmd_* functions are bound once; the names they call are looked up at call time."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code else OK
    try:
        return args.func(args)
    except Refusal as ref:
        print(ref.reason)
        if ref.detail:
            print(ref.detail)
        return REFUSED
    except (ValueError, OSError, ConstructionError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MemoryError:  # its message is empty
        print("error: out of memory", file=sys.stderr)
        return USAGE


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
