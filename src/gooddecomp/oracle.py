"""Exact exponential search for good decompositions on small digraphs.

The general decision problem is NP-complete, so this module is the ground
truth at desk scale: exception certification and cross-validation of every
constructive decomposer.  The search loop itself lives in the kernel
module gooddecomp._kernel_py.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .decomp import Decomposition, verify
from .digraph import Digraph, is_isomorphic_small, is_k_arc_strong

from . import _kernel_py as _impl

#: the kernel implementation, recorded with benchmark runs
BACKEND = "python"

#: arcs up to this count are guaranteed to be exhausted quickly at desk scale;
#: larger inputs are allowed and may end in an "aborted" outcome when budgeted
EXHAUSTIVE_ARC_BOUND = 26

ENUMERATION_ORDER_BOUND = 6


@dataclass(frozen=True)
class OracleReport:
    outcome: str  # "found" | "none" | "aborted"
    decomposition: Optional[Decomposition]
    nodes_explored: int
    elapsed: float
    reason: Optional[str] = None  # for "none": "degree" | "arc-connectivity" | "exhausted"


def oracle_good_decomposition(d: Digraph, budget: int = 0) -> OracleReport:
    """Backtracking search over arc assignments to (A1, A2, unused).

    budget limits explored nodes (<= 0 means unlimited).  A found outcome is
    always verified before being reported; "none" means the pruned search
    space was exhausted.
    """
    start = time.perf_counter()
    if d.n <= 1:
        dec = Decomposition(d, (frozenset(), frozenset()))
        return OracleReport("found", dec, 0, time.perf_counter() - start)
    # every digraph with a good decomposition is 2-arc-strong
    if any(min(d.in_degree(v), d.out_degree(v)) < 2 for v in range(d.n)):
        return OracleReport("none", None, 0, time.perf_counter() - start, "degree")
    if not is_k_arc_strong(d, 2):
        return OracleReport("none", None, 0, time.perf_counter() - start, "arc-connectivity")
    arcs = d.sorted_arcs()
    status, i1, i2, nodes = _impl.search(d.n, arcs, budget)
    elapsed = time.perf_counter() - start
    if status == _impl.FOUND:
        a1 = frozenset(arcs[i] for i in i1)
        a2 = frozenset(arcs[i] for i in i2)
        dec = Decomposition(d, (a1, a2))
        check = verify(d, a1, a2)
        assert check.ok, f"kernel returned invalid decomposition: {check.reason}"
        return OracleReport("found", dec, nodes, elapsed)
    if status == _impl.ABORTED:
        return OracleReport("aborted", None, nodes, elapsed)
    return OracleReport("none", None, nodes, elapsed, "exhausted")


# ---------------------------------------------------------------------------
# enumeration of semicomplete digraphs up to isomorphism

def _iso_key(d: Digraph) -> tuple:
    digons = sum(1 for u, v in d.arcs if u < v and (v, u) in d.arcs)
    degs = tuple(sorted((d.out_degree(v), d.in_degree(v)) for v in range(d.n)))
    return (d.n, d.m, digons, degs)


def enumerate_semicomplete(n: int, min_arc_strong: int = 0) -> Iterator[Digraph]:
    """All semicomplete digraphs of order n with arc-connectivity at least
    min_arc_strong, one representative per isomorphism class."""
    if n > ENUMERATION_ORDER_BOUND:
        raise ValueError(f"enumeration bound {ENUMERATION_ORDER_BOUND} exceeded")
    if n < 1:
        return
    if n == 1:
        if min_arc_strong == 0:
            yield Digraph(1, [])
        return
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    seen: dict[tuple, list[Digraph]] = {}
    # per unordered pair: forward arc only, backward only, or digon
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        outdeg = [0] * n
        indeg = [0] * n
        arcs = []
        for (u, v), s in zip(pairs, states):
            if s != 1:
                arcs.append((u, v))
                outdeg[u] += 1
                indeg[v] += 1
            if s != 0:
                arcs.append((v, u))
                outdeg[v] += 1
                indeg[u] += 1
        if min_arc_strong > 0 and any(
            min(indeg[v], outdeg[v]) < min_arc_strong for v in range(n)
        ):
            continue
        d = Digraph(n, arcs)
        if min_arc_strong > 0 and not is_k_arc_strong(d, min_arc_strong):
            continue
        key = _iso_key(d)
        bucket = seen.setdefault(key, [])
        if any(is_isomorphic_small(d, rep) for rep in bucket):
            continue
        bucket.append(d)
        yield d
