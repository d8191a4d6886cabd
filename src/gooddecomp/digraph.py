"""Loop-free simple digraphs and the basic predicates everything else builds on.

Vertices are dense integers 0..n-1.  Arcs are ordered pairs stored in a
frozenset; opposite arcs (u,v) and (v,u) may coexist, parallel arcs cannot.
All iteration orders exposed to callers are sorted so downstream algorithms
are deterministic.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Container, Iterable, Optional, Sequence

Arc = tuple[int, int]

ISO_ORDER_BOUND = 12


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
    def out_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.arcs):
            adj[u].append(v)
        return tuple(tuple(a) for a in adj)

    @cached_property
    def in_neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.arcs):
            adj[v].append(u)
        return tuple(tuple(a) for a in adj)

    def out_degree(self, v: int) -> int:
        return len(self.out_neighbors[v])

    def in_degree(self, v: int) -> int:
        return len(self.in_neighbors[v])

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Digraph) and self.n == other.n and self.arcs == other.arcs
        )

    def __hash__(self) -> int:
        return hash((self.n, self.arcs))

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, m={self.m})"


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

def _bfs(
    d: Digraph, start: int, reverse: bool = False, stop: Container[int] = ()
) -> dict[int, int]:
    """Parent map of the vertices reached from start (against the arcs if
    reverse), in discovery order, with start mapped to itself.

    Returns as soon as it discovers a vertex of stop, which is then the last
    key.  Neighbours are scanned in sorted order, so the map is deterministic
    and its tree paths are shortest paths.
    """
    adj = d.in_neighbors if reverse else d.out_neighbors
    prev = {start: start}
    queue = [start]
    for v in queue:
        for w in adj[v]:
            if w not in prev:
                prev[w] = v
                if w in stop:
                    return prev
                queue.append(w)
    return prev


def _tree_path(prev: dict[int, int], v: int) -> list[int]:
    """The path from the start of a _bfs parent map to v."""
    path = [v]
    while prev[path[-1]] != path[-1]:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def is_strong(d: Digraph) -> bool:
    """Every ordered vertex pair is joined by a directed path.

    Orders 0 and 1 are strong by convention.
    """
    if d.n <= 1:
        return True
    return len(_bfs(d, 0)) == d.n and len(_bfs(d, 0, reverse=True)) == d.n


def is_semicomplete(d: Digraph) -> bool:
    """At least one arc between every pair of distinct vertices."""
    return all(
        (u, v) in d.arcs or (v, u) in d.arcs
        for u in range(d.n)
        for v in range(u + 1, d.n)
    )


def _arc_disjoint_paths(d: Digraph, s: int, t: int, cap: int) -> int:
    """min(cap, max number of arc-disjoint s->t paths), by BFS augmentation.

    The flow is the set of arcs it uses; the residual digraph has u->w for
    every free arc (u,w) and w->u for every used arc (u,w).
    """
    out_adj, in_adj = d.out_neighbors, d.in_neighbors
    used: set[Arc] = set()
    flow = 0
    while flow < cap:
        prev: dict[int, Optional[Arc]] = {s: None}  # residual arc that reached each vertex
        queue = [s]
        for u in queue:
            for w in out_adj[u]:
                if w not in prev and (u, w) not in used:
                    prev[w] = (u, w)
                    queue.append(w)
            for w in in_adj[u]:
                if w not in prev and (w, u) in used:
                    prev[w] = (w, u)
                    queue.append(w)
            if t in prev:
                break
        else:  # t is unreachable: the flow is maximum
            return flow
        v = t
        while v != s:
            arc = prev[v]
            if arc in used:  # reached backwards: cancel the flow on it
                used.remove(arc)
                v = arc[1]
            else:
                used.add(arc)
                v = arc[0]
        flow += 1
    return flow


def is_k_arc_strong(d: Digraph, k: int) -> bool:
    """d stays strong after deleting any k-1 arcs.

    By Schnorr's lemma, k arc-disjoint paths from each vertex to the next in
    one cyclic order suffice: every cut separates some consecutive pair.
    """
    if d.n < 2:
        raise ValueError("undefined for trivial digraph")
    return k <= 0 or all(_arc_disjoint_paths(d, v, (v + 1) % d.n, k) == k for v in range(d.n))


def arc_connectivity(d: Digraph) -> int:
    """Largest k such that d stays strong after deleting any k-1 arcs.

    The minimum of the flows from each vertex to the next in one cyclic order
    (see is_k_arc_strong), each capped at the minimum so far, which starts at
    the minimum in- or out-degree.
    """
    if d.n < 2:
        raise ValueError("undefined for trivial digraph")
    best = min(min(len(o), len(i)) for o, i in zip(d.out_neighbors, d.in_neighbors))
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


def all_digraphs_on_arcs(n: int, max_arcs: int) -> Iterable[Digraph]:
    """All labeled digraphs of order n with at most max_arcs arcs (test helper)."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for k in range(max_arcs + 1):
        for combo in itertools.combinations(pairs, k):
            yield Digraph(n, combo)
