"""Edge-list and decomposition file formats plus DOT export.

Edge list: a header line "n m" followed by m lines "u v", every number
ASCII decimal digits; '#' starts a comment line; blank lines are ignored.
Lines break at "\n" only, and header and arc lines are printable ASCII,
their fields separated by runs of spaces and tabs.
Decomposition documents carry a section HOST (an edge list) and sections
A1, ..., Ak (arc lines, k >= 2).  No section may repeat an arc line, and no
two parts may list the same arc.
"""

from __future__ import annotations

import re
from typing import Optional

from .decomp import Decomposition
from .digraph import Arc, Digraph


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    # lines break at "\n" only and lose ASCII whitespace only; a comment may
    # hold any character
    lines = ((i, raw.strip(" \t\r\v\f")) for i, raw in enumerate(text.split("\n"), start=1))
    return [(i, line) for i, line in lines if line and not line.startswith("#")]


def _decimal(token: str) -> int:
    """The value of token if it is ASCII decimal digits only, else
    ValueError: int() alone also takes a sign, underscores and non-ASCII
    digits."""
    if token.isascii() and token.isdigit():
        return int(token)
    raise ValueError(token)


def _ascii_fields(line: str, lineno: int) -> list[str]:
    """line split at runs of ASCII spaces and tabs; ParseError unless its
    other characters are printable ASCII, since str.split() also splits at
    \v, \f, \r and \x1c-\x1f."""
    if not line.isascii():
        raise ParseError(f"non-ASCII character in {line!r}", lineno)
    if not line.isprintable() and not line.replace("\t", " ").isprintable():
        raise ParseError(f"control character in {line!r}", lineno)
    return line.split()


def _parse_arc_line(line: str, lineno: int, n: int) -> Arc:
    parts = _ascii_fields(line, lineno)
    if len(parts) != 2:
        raise ParseError(f"expected 'u v', got {line!r}", lineno)
    try:
        u, v = _decimal(parts[0]), _decimal(parts[1])
    except ValueError:
        raise ParseError(f"non-integer vertex in {line!r}", lineno) from None
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"vertex out of range in {line!r}", lineno)
    if u == v:
        raise ParseError(f"loop not allowed: {line!r}", lineno)
    return (u, v)


def _parse_edge_lines(lines: list[tuple[int, str]]) -> Digraph:
    if not lines:
        raise ParseError("empty document", 1)
    lineno, header = lines[0]
    parts = _ascii_fields(header, lineno)
    try:
        n, m = _decimal(parts[0]), _decimal(parts[1])
        if len(parts) != 2:
            raise ValueError
    except (ValueError, IndexError):
        raise ParseError(f"malformed header {header!r}, expected 'n m'", lineno) from None
    if len(lines) - 1 != m:
        raise ParseError(
            f"header announces {m} arcs but {len(lines) - 1} arc lines follow", lineno
        )
    arcs: set[Arc] = set()
    for lineno, line in lines[1:]:
        a = _parse_arc_line(line, lineno, n)
        if a in arcs:
            raise ParseError(f"duplicate arc {line!r}", lineno)
        arcs.add(a)
    return Digraph(n, arcs)


def parse_edge_list(text: str) -> Digraph:
    return _parse_edge_lines(_content_lines(text))


def render_edge_list(d: Digraph) -> str:
    lines = [f"{d.n} {d.m}"]
    lines += [f"{u} {v}" for u, v in d.sorted_arcs()]
    return "\n".join(lines) + "\n"


SECTION_NAME = re.compile(r"HOST|A[1-9][0-9]*")


def parse_decomposition(text: str) -> Decomposition:
    sections: dict[str, list[tuple[int, str]]] = {}
    current: Optional[str] = None
    for lineno, line in _content_lines(text):
        if SECTION_NAME.fullmatch(line):
            if line in sections:
                raise ParseError(f"duplicate section {line}", lineno)
            current = line
            sections[current] = []
        elif current is None:
            raise ParseError(f"content before any section: {line!r}", lineno)
        else:
            sections[current].append((lineno, line))
    k = max(2, len(sections) - 1)
    names = [f"A{i}" for i in range(1, k + 1)]
    for name in ["HOST"] + names:
        if name not in sections:
            raise ParseError(f"missing section {name}", 1)
    host = _parse_edge_lines(sections["HOST"])
    owner: dict[Arc, str] = {}  # the part that listed each arc first
    parts = []
    for name in names:
        arcs = set()
        for lineno, line in sections[name]:
            a = _parse_arc_line(line, lineno, host.n)
            if a not in host.arcs:
                raise ParseError(f"{name} arc {line!r} not in HOST", lineno)
            if a in owner:
                raise ParseError(f"duplicate arc {line!r}" if owner[a] == name
                                 else f"{name} shares arc {line!r} with {owner[a]}", lineno)
            owner[a] = name
            arcs.add(a)
        parts.append(arcs)
    return Decomposition(host, parts)


def render_decomposition(dec: Decomposition) -> str:
    lines = ["HOST", render_edge_list(dec.host).rstrip("\n")]
    for k, side in enumerate(dec.parts, start=1):
        lines.append(f"A{k}")
        lines += [f"{u} {v}" for u, v in sorted(side)]
    return "\n".join(lines) + "\n"


# DOT colours of the parts A1, A2, ...; a part past the last reuses them
# from the start, and arcs in no part are gray
_PART_COLORS = ("red", "blue", "darkgreen", "orange", "purple", "brown", "cyan", "magenta")


def export_dot(d: Digraph, highlight: Optional[Decomposition] = None) -> str:
    """DOT text, each vertex named by its id on a line of its own; with a
    decomposition, A1 arcs are red, A2 blue, A3 darkgreen, further parts
    orange, purple, brown, cyan and magenta (then repeating), unused arcs gray."""
    if highlight is not None and highlight.host != d:
        raise ValueError("highlight decomposition host does not match digraph")
    lines = ["digraph {"] + [f"  {v};" for v in range(d.n)]
    for u, v in d.sorted_arcs():
        if highlight is None:
            lines.append(f"  {u} -> {v};")
            continue
        color = next(
            (_PART_COLORS[k % len(_PART_COLORS)]
             for k, part in enumerate(highlight.parts) if (u, v) in part),
            "gray",
        )
        lines.append(f"  {u} -> {v} [color={color}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
