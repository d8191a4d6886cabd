"""Independent checks of library outputs, written without the library.

They share no code with ``gooddecomp.decomp.verify`` or the library's
isomorphism and parsing routines, so a defect there cannot hide itself.
"""

from __future__ import annotations

import itertools


def _reaches_all(n: int, adj: dict) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for w in adj.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def arcs_strong(n: int, arcs) -> bool:
    """(range(n), arcs) is strong: vertex 0 reaches every vertex and every
    vertex reaches 0.  Orders 0 and 1 are strong."""
    if n <= 1:
        return True
    fwd: dict = {}
    rev: dict = {}
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            return False
        fwd.setdefault(u, []).append(v)
        rev.setdefault(v, []).append(u)
    return _reaches_all(n, fwd) and _reaches_all(n, rev)


def isomorphic(n1: int, arcs1, n2: int, arcs2) -> bool:
    """Brute force over all vertex bijections; for orders up to about 7."""
    arcs1, arcs2 = set(arcs1), set(arcs2)
    if n1 != n2 or len(arcs1) != len(arcs2):
        return False
    return any(
        {(p[u], p[v]) for u, v in arcs1} == arcs2 for p in itertools.permutations(range(n1))
    )


def parse_decomposition_doc(text: str):
    """(order, host arcs, A1, A2) of a HOST/A1/A2 decomposition document."""
    sections: dict = {}
    current = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("HOST", "A1", "A2"):
            current = sections.setdefault(line, [])
        elif current is None:
            raise ValueError(f"content before any section: {line!r}")
        else:
            current.append(tuple(int(x) for x in line.split()))
    (n, m), *host = sections["HOST"]
    if len(host) != m:
        raise ValueError("HOST header disagrees with its arc lines")
    return n, set(host), set(sections["A1"]), set(sections["A2"])
