"""Exact exponential search for good decompositions on small digraphs.

The general decision problem is NP-complete, so this module is the ground
truth at desk scale: exception certification and cross-validation of every
constructive decomposer.  The search loop itself lives in the kernel
module gooddecomp._kernel_py.

Before any search the oracle refuses a digraph that is not 2-arc-strong,
which every digraph with a good decomposition is.  Both prechecks run on
the digraph's cached bitmask rows: the degree bound reads the rows' bit
counts, and arc-connectivity is digraph._two_arc_strong, a strong-bridge
test that walks out of vertex 0 in layers and runs the kernel's own path
search only on the few tree arcs whose end has a single neighbour in its
own layer or an earlier one.

The search is the kernel's one entry, gooddecomp._kernel_py.search, which
runs its single-order loop _search_order in two arc orders: sorted arcs up
to 1,024 nodes, below which every census, criterion-3 and CLI golden tree
ends, then the maximum-cardinality-search order with the budget that
remains.  The report's order names the step that settled the search.
The oracle passes the digraph's order, sorted arcs and cached rows, which
the prechecks have shown strong, and the kernel returns the two sides as
arc sets, which the oracle wraps in a Decomposition and verifies through
verify_decomposition, so the report's decomposition keeps its verdict.
"""

from __future__ import annotations

import itertools
import operator
import sys
import time
from array import array
from typing import Callable, Iterator, NamedTuple, Optional

from .decomp import ConstructionError, Decomposition, verify_decomposition
from .digraph import Digraph, _two_arc_strong, is_k_arc_strong

from . import _kernel_py as _impl

#: the kernel implementation, recorded with benchmark runs
BACKEND = "python"

ENUMERATION_ORDER_BOUND = 6


class OracleReport(NamedTuple):
    outcome: str  # "found" | "none" | "aborted"
    decomposition: Optional[Decomposition]
    nodes_explored: int
    elapsed: float
    reason: Optional[str] = None  # for "none": "degree" | "arc-connectivity" | "exhausted"
    order: Optional[str] = None  # the kernel step that settled it: "sorted" | "mcs"


def oracle_good_decomposition(d: Digraph, budget: int = 0) -> OracleReport:
    """Backtracking search over arc assignments to (A1, A2).

    budget limits explored nodes (<= 0 means unlimited).  A found outcome is
    always verified before being reported, with the verdict kept on its
    decomposition, and ConstructionError is raised if the kernel's sides
    fail verification; "none" means the pruned search space was exhausted.
    """
    start = time.perf_counter()
    if d.n <= 1:
        dec = Decomposition(d, (frozenset(), frozenset()))
        return OracleReport("found", dec, 0, time.perf_counter() - start)
    # every digraph with a good decomposition is 2-arc-strong
    out, inn = d.rows
    if min(map(int.bit_count, out)) < 2 or min(map(int.bit_count, inn)) < 2:
        return OracleReport("none", None, 0, time.perf_counter() - start, "degree")
    if not _two_arc_strong(d.n, out, inn):
        return OracleReport("none", None, 0, time.perf_counter() - start, "arc-connectivity")
    # the prechecks showed d strong, so the kernel takes its rows as they are
    status, a1, a2, order, nodes = _impl.search(d.n, d.sorted_arcs(), d.rows, budget)
    elapsed = time.perf_counter() - start
    if status == _impl.FOUND:
        dec = Decomposition(d, (a1, a2))
        check = verify_decomposition(dec)
        if not check.ok:
            raise ConstructionError(f"kernel returned invalid decomposition: {check.reason}")
        return OracleReport("found", dec, nodes, elapsed, order=order)
    if status == _impl.ABORTED:
        return OracleReport("aborted", None, nodes, elapsed, order=order)
    return OracleReport("none", None, nodes, elapsed, "exhausted", order=order)


# ---------------------------------------------------------------------------
# enumeration of semicomplete digraphs up to isomorphism
#
# A labelled semicomplete digraph of order n is a base-3 code over the pairs
# u < v (0: u->v, 1: v->u, 2: digon), the first pair most significant, so
# codes ascend in lexicographic order of the pair states.  The enumerator
# visits the smallest unmarked code, marks the codes of all n! relabellings,
# and only then filters.  Both filters are invariant under isomorphism, so
# each class is represented by its first labelled member.
#
# The n! images of a code are one sum of packed ints, with one fixed-width
# field per relabelling.  A field sum is an image code, at most 3**P - 1,
# which every field holds, so no carry crosses a field.


def _orbit(n: int, pairs: list) -> Callable[[list], array]:
    """images(states): the codes of the n! relabellings (in itertools order) of
    the code with these pair states, in the narrowest array type that fits."""
    P = len(pairs)
    # C orders these types by width, so the first that fits is the narrowest
    tc = next((tc for tc in "BHILQ" if 8 * array(tc).itemsize >= (3 ** P - 1).bit_length()), None)
    if tc is None:
        raise ValueError(f"no array type holds the codes of order {n}")
    weight = [[0] * n for _ in range(n)]  # place value of the pair {u, v}
    for i, (u, v) in enumerate(pairs):
        weight[u][v] = weight[v][u] = 3 ** (P - 1 - i)
    perms = list(itertools.permutations(range(n)))
    columns = []  # [i][s]: what pair i in state s adds to each image, packed
    for u, v in pairs:
        # a relabelling that reverses the pair gives its place value to state
        # 0 (u->v), any other to state 1 (v->u); a digon gives it twice
        c0, c1 = (int.from_bytes(array(tc, [
            weight[p[u]][p[v]] if (p[u] > p[v]) == down else 0 for p in perms
        ]).tobytes(), sys.byteorder) for down in (True, False))
        columns.append((c0, c1, 2 * (c0 + c1)))
    width = len(perms) * array(tc).itemsize

    def images(states):
        return array(tc, sum(map(operator.getitem, columns, states)).to_bytes(width, sys.byteorder))
    return images


def enumerate_semicomplete(n: int, min_arc_strong: int = 0) -> Iterator[Digraph]:
    """All semicomplete digraphs of order n with arc-connectivity at least
    min_arc_strong, one representative per isomorphism class."""
    if n > ENUMERATION_ORDER_BOUND:
        raise ValueError(f"enumeration bound {ENUMERATION_ORDER_BOUND} exceeded")
    if n < 1:
        return
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    images = _orbit(n, pairs)
    seen = bytearray(3 ** len(pairs))
    code = 0
    while code >= 0:
        states = [0] * len(pairs)
        rest = code
        for i in reversed(range(len(pairs))):
            rest, states[i] = divmod(rest, 3)
        for image in images(states):
            seen[image] = 1
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
