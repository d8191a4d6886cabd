"""Loop-free simple digraphs and the basic predicates everything else builds on.

Vertices are dense integers 0..n-1.  Arcs are ordered pairs stored in a
frozenset; opposite arcs (u,v) and (v,u) may coexist, parallel arcs cannot.
All iteration orders exposed to callers are sorted so downstream algorithms
are deterministic.
"""

from __future__ import annotations

from functools import cached_property
from typing import Container, Iterable, Optional, Sequence

Arc = tuple[int, int]

ISO_ORDER_BOUND = 12
#: most vertices a Cartesian power may have
POWER_ORDER_BOUND = 20_000


class Digraph:
    """Immutable digraph on vertices 0..n-1."""

    __slots__ = ("n", "arcs", "labels", "__dict__")

    def __init__(self, n: int, arcs: Iterable[Arc], labels: Optional[Sequence[str]] = None):
        if n < 0:
            raise ValueError("order must be nonnegative")
        arcset = frozenset((int(u), int(v)) for u, v in arcs)
        for u, v in arcset:
            if u == v:
                raise ValueError(f"loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for order {n}")
        self.n = n
        self.arcs = arcset
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError("labels length must equal order")
        self.labels = labels

    @property
    def m(self) -> int:
        return len(self.arcs)

    def sorted_arcs(self) -> list[Arc]:
        return sorted(self.arcs)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Bitmask out-rows and in-rows (see _rows), built once per digraph:
        bit v of rows[0][u], and bit u of rows[1][v], is set iff u->v is an
        arc."""
        out, inn = _rows(self.n, self.arcs)
        return tuple(out), tuple(inn)

    def out_degree(self, v: int) -> int:
        return self.rows[0][v].bit_count()

    def in_degree(self, v: int) -> int:
        return self.rows[1][v].bit_count()

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph) and self.n == other.n and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        labels = "" if self.labels is None else f", labels={list(self.labels)!r}"
        return f"Digraph({self.n}, {self.sorted_arcs()}{labels})"


# ---------------------------------------------------------------------------
# named digraphs

def cycle(n: int) -> Digraph:
    """Directed cycle C_n (the digon for n=2)."""
    if n < 2:
        raise ValueError("cycle needs order >= 2")
    return Digraph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Digraph:
    """Directed path P_n on n vertices."""
    if n < 1:
        raise ValueError("path needs order >= 1")
    return Digraph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Digraph:
    """Complete digraph: every ordered pair is an arc."""
    return Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def empty(n: int) -> Digraph:
    """Arcless digraph on n vertices."""
    return Digraph(n, [])


def s4() -> Digraph:
    """Complete digraph on 4 vertices minus the 4-cycle 0->2->1->3->0.

    Remaining arcs: the digons {0,1} and {2,3} plus 0->3, 1->2, 3->1, 2->0.
    The unique 2-arc-strong semicomplete digraph without two arc-disjoint
    strong spanning subdigraphs.
    """
    return Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (0, 3), (1, 2), (3, 1), (2, 0)])


# ---------------------------------------------------------------------------
# predicates

def _bfs(rows, start: int, stop: Container[int] = ()) -> dict[int, int]:
    """Parent map of the vertices reached from start along rows, in discovery
    order, with start mapped to itself.

    Returns as soon as it discovers a vertex of stop, which is then the last
    key.  Each row's new vertices are taken in ascending order, so the map is
    deterministic and its tree paths are shortest paths.
    """
    prev = {start: start}
    seen = 1 << start
    queue = [start]
    for v in queue:
        new = rows[v] & ~seen
        seen |= new
        while new:
            low = new & -new
            w = low.bit_length() - 1
            prev[w] = v
            if w in stop:
                return prev
            queue.append(w)
            new ^= low
    return prev


def _tree_path(prev: dict[int, int], v: int) -> list[int]:
    """The path from the start of a _bfs parent map to v."""
    path = [v]
    while prev[path[-1]] != path[-1]:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def _closure(rows, v: int) -> int:
    """Bitmask of v and every vertex that v reaches along rows, where rows[u]
    is the bitmask of u's neighbours."""
    reach = frontier = 1 << v
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~reach
        reach |= frontier
    return reach


def _reaches(out, inn, t: int, h: int) -> bool:
    """True iff t reaches h != t along out-rows; inn holds the same arcs as
    in-rows.  Grows both ends at once and stops when they meet."""
    fwd = ffront = 1 << t
    bwd = bfront = 1 << h
    while True:
        nxt = 0
        if ffront.bit_count() <= bfront.bit_count():
            while ffront:
                low = ffront & -ffront
                nxt |= out[low.bit_length() - 1]
                ffront ^= low
            if nxt & bwd:
                return True
            ffront = nxt & ~fwd
            if not ffront:
                return False
            fwd |= ffront
        else:
            while bfront:
                low = bfront & -bfront
                nxt |= inn[low.bit_length() - 1]
                bfront ^= low
            if nxt & fwd:
                return True
            bfront = nxt & ~bwd
            if not bfront:
                return False
            bwd |= bfront


def _rows(n: int, arcs: Iterable[Arc]) -> tuple[list[int], list[int]]:
    """Bitmask out-rows and in-rows of (V, arcs) on n vertices."""
    out, inn = [0] * n, [0] * n
    for t, h in arcs:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    return out, inn


def _two_arc_strong(n: int, out, inn) -> bool:
    """True iff the digraph with out-rows out and in-rows inn on n >= 2
    vertices is 2-arc-strong.  The rows are copied, not changed.

    It is strong iff the search trees of vertex 0 along out and along inn
    both span.  Deleting an arc outside both trees leaves both whole, so only
    a tree arc t->h can be a bridge, and it is one iff t no longer reaches h
    without it.
    """
    out, inn = list(out), list(inn)
    tree = []
    for rows in (out, inn):
        prev = _bfs(rows, 0)
        if len(prev) != n:
            return False
        tree += [(v, w) if rows is out else (w, v) for w, v in prev.items() if w]
    for t, h in tree:
        out[t] ^= 1 << h
        inn[h] ^= 1 << t
        ok = _reaches(out, inn, t, h)
        out[t] |= 1 << h
        inn[h] |= 1 << t
        if not ok:
            return False
    return True


def _unreachable_pair(n: int, out, inn) -> Optional[Arc]:
    """The first pair (0, v), or else (v, 0), with no path along the out-rows
    out (in-rows inn) on n vertices, v the smallest such vertex; None if the
    digraph is strong.  Orders 0 and 1 are strong by convention."""
    if n <= 1:
        return None
    for rows in (out, inn):
        missed = ((1 << n) - 1) ^ _closure(rows, 0)
        if missed:
            v = (missed & -missed).bit_length() - 1
            return (0, v) if rows is out else (v, 0)
    return None


def is_strong(d: Digraph) -> bool:
    """Every ordered vertex pair is joined by a directed path; orders 0 and 1
    are strong by convention."""
    return _unreachable_pair(d.n, *d.rows) is None


def is_semicomplete(d: Digraph) -> bool:
    """At least one arc between every pair of distinct vertices."""
    return all(
        (u, v) in d.arcs or (v, u) in d.arcs
        for u in range(d.n)
        for v in range(u + 1, d.n)
    )


def _arc_disjoint_paths(d: Digraph, s: int, t: int, cap: int) -> int:
    """min(cap, max number of arc-disjoint s->t paths), by BFS augmentation.

    The flow lives in residual rows: free[u] holds the heads of u's arcs that
    carry no flow, and back[u] the tails of u's in-arcs that do.
    """
    free, back = list(d.rows[0]), [0] * d.n
    flow = 0
    while flow < cap:
        prev = _bfs([f | b for f, b in zip(free, back)], s, stop=(t,))
        if t not in prev:  # the flow is maximum
            return flow
        v = t
        while v != s:
            u = prev[v]
            if back[u] >> v & 1:  # reached backwards: cancel the flow on v->u
                back[u] ^= 1 << v
                free[v] |= 1 << u
            else:
                free[u] ^= 1 << v
                back[v] |= 1 << u
            v = u
        flow += 1
    return flow


def is_k_arc_strong(d: Digraph, k: int) -> bool:
    """d stays strong after deleting any k-1 arcs.

    Up to k = 2 this runs on bitmask rows: strongness is is_strong, and
    2-arc-strongness is _two_arc_strong.  For k >= 3, by Schnorr's lemma, k
    arc-disjoint paths from each vertex to the next in one cyclic order
    suffice: every cut separates some consecutive pair.
    """
    if d.n < 2:
        raise ValueError("undefined for trivial digraph")
    if k <= 1:
        return k <= 0 or is_strong(d)
    if k == 2:
        return _two_arc_strong(d.n, *d.rows)
    return all(_arc_disjoint_paths(d, v, (v + 1) % d.n, k) == k for v in range(d.n))


def arc_connectivity(d: Digraph) -> int:
    """Largest k such that d stays strong after deleting any k-1 arcs.

    The minimum of the flows from each vertex to the next in one cyclic order
    (see is_k_arc_strong), each capped at the minimum so far, which starts at
    the minimum in- or out-degree.
    """
    if d.n < 2:
        raise ValueError("undefined for trivial digraph")
    best = min(min(o.bit_count(), i.bit_count()) for o, i in zip(*d.rows))
    for v in range(d.n):
        if best == 0:
            break
        best = _arc_disjoint_paths(d, v, (v + 1) % d.n, best)
    return best


# ---------------------------------------------------------------------------
# small-graph isomorphism

def _degree_signature(d: Digraph) -> list[tuple[int, int]]:
    return sorted((d.out_degree(v), d.in_degree(v)) for v in range(d.n))


def find_isomorphism(a: Digraph, b: Digraph) -> Optional[dict[int, int]]:
    """Arc-preserving bijection a -> b, or None.  Orders must be <= 12."""
    if a.n > ISO_ORDER_BOUND or b.n > ISO_ORDER_BOUND:
        raise ValueError("isomorphism bound exceeded")
    if a.n != b.n or a.m != b.m:
        return None
    if _degree_signature(a) != _degree_signature(b):
        return None

    n = a.n
    deg_a = [(a.out_degree(v), a.in_degree(v)) for v in range(n)]
    deg_b = [(b.out_degree(v), b.in_degree(v)) for v in range(n)]
    mapping: list[Optional[int]] = [None] * n
    used = [False] * n

    def extend(v: int) -> bool:
        if v == n:
            return True
        for w in range(n):
            if used[w] or deg_a[v] != deg_b[w]:
                continue
            ok = True
            for u in range(v):
                mu = mapping[u]
                if ((u, v) in a.arcs) != ((mu, w) in b.arcs):
                    ok = False
                    break
                if ((v, u) in a.arcs) != ((w, mu) in b.arcs):
                    ok = False
                    break
            if ok:
                mapping[v] = w
                used[w] = True
                if extend(v + 1):
                    return True
                mapping[v] = None
                used[w] = False
        return False

    if extend(0):
        return {v: mapping[v] for v in range(n)}  # type: ignore[misc]
    return None


def is_isomorphic_small(a: Digraph, b: Digraph) -> bool:
    return find_isomorphism(a, b) is not None


def relabel(d: Digraph, perm: Sequence[int]) -> Digraph:
    """Apply vertex permutation: new vertex perm[v] plays the role of v."""
    if sorted(perm) != list(range(d.n)):
        raise ValueError("not a permutation")
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])
