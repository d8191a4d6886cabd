"""Exact exponential search for good decompositions on small digraphs.

The general decision problem is NP-complete, so this module is the ground
truth at desk scale: exception certification and cross-validation of every
constructive decomposer.  The search loop itself lives in the kernel
module gooddecomp._kernel_py.

Before any search the oracle refuses a digraph that is not 2-arc-strong,
which every digraph with a good decomposition is.  Both prechecks run on
the digraph's cached bitmask rows: the degree bound reads the rows' bit
counts, and arc-connectivity is digraph._two_arc_strong, a strong-bridge
test on the kernel's own path search.
"""

from __future__ import annotations

import itertools
import operator
import time
from array import array
from dataclasses import dataclass
from typing import Iterator, Optional

from .decomp import ConstructionError, Decomposition, verify
from .digraph import Digraph, _two_arc_strong, is_k_arc_strong

from . import _kernel_py as _impl

#: the kernel implementation, recorded with benchmark runs
BACKEND = "python"

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
    always verified before being reported, and ConstructionError is raised
    if the kernel's sides fail verification; "none" means the pruned search
    space was exhausted.
    """
    start = time.perf_counter()
    if d.n <= 1:
        dec = Decomposition(d, (frozenset(), frozenset()))
        return OracleReport("found", dec, 0, time.perf_counter() - start)
    # every digraph with a good decomposition is 2-arc-strong
    out, inn = d.rows
    if any(min(o.bit_count(), i.bit_count()) < 2 for o, i in zip(out, inn)):
        return OracleReport("none", None, 0, time.perf_counter() - start, "degree")
    if not _two_arc_strong(d.n, out, inn):
        return OracleReport("none", None, 0, time.perf_counter() - start, "arc-connectivity")
    arcs = d.sorted_arcs()
    status, i1, i2, nodes = _impl.search(d.n, arcs, budget)
    elapsed = time.perf_counter() - start
    if status == _impl.FOUND:
        a1 = frozenset(arcs[i] for i in i1)
        a2 = frozenset(arcs[i] for i in i2)
        check = verify(d, a1, a2)
        if not check.ok:
            raise ConstructionError(f"kernel returned invalid decomposition: {check.reason}")
        return OracleReport("found", Decomposition(d, (a1, a2)), nodes, elapsed)
    if status == _impl.ABORTED:
        return OracleReport("aborted", None, nodes, elapsed)
    return OracleReport("none", None, nodes, elapsed, "exhausted")


# ---------------------------------------------------------------------------
# enumeration of semicomplete digraphs up to isomorphism
#
# A labelled semicomplete digraph of order n is a base-3 code over the pairs
# u < v (0: u->v, 1: v->u, 2: digon), the first pair most significant, so
# codes ascend in lexicographic order of the pair states.  The enumerator
# visits the smallest unmarked code, marks the codes of all n! relabellings,
# and only then filters.  Both filters are invariant under isomorphism, so
# each class is represented by its first labelled member.

#: base-3 digits per orbit lookup table (3**5 = 243 rows of n! images)
_CHUNK = 5


def _orbit_tables(n: int, pairs: list) -> list[list[array]]:
    """tables[c][x][i]: the contribution of the digits 5c..5c+4 (counted from
    the least significant), read as x, to the code of the i-th relabelling."""
    P = len(pairs)
    weight = [[0] * n for _ in range(n)]  # place value of the pair {u, v}
    for i, (u, v) in enumerate(pairs):
        weight[u][v] = weight[v][u] = 3 ** (P - 1 - i)
    perms = list(itertools.permutations(range(n)))
    columns = []  # per digit, least significant first: one column per state
    for u, v in reversed(pairs):
        columns.append((
            [weight[p[u]][p[v]] if p[u] > p[v] else 0 for p in perms],
            [weight[p[u]][p[v]] if p[u] < p[v] else 0 for p in perms],
            [2 * weight[p[u]][p[v]] for p in perms],
        ))
    tables = []
    for lo in range(0, P, _CHUNK):
        rows = [array("q", bytes(8 * len(perms)))]
        for cols in columns[lo:lo + _CHUNK]:
            rows = [array("q", map(operator.add, row, col)) for col in cols for row in rows]
        tables.append(rows)
    return tables


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
    tables = _orbit_tables(n, pairs)
    seen = bytearray(3 ** len(pairs))
    code = 0
    while code >= 0:
        images = None
        rest = code
        for rows in tables:
            rest, x = divmod(rest, 3 ** _CHUNK)
            images = rows[x] if images is None else map(operator.add, images, rows[x])
        for image in images:
            seen[image] = 1
        states = [0] * len(pairs)
        rest = code
        for i in reversed(range(len(pairs))):
            rest, states[i] = divmod(rest, 3)
        code = seen.find(0, code + 1)
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
        yield d
