"""Loop-free simple digraphs and the basic predicates everything else builds on.

Vertices are dense integers 0..n-1.  Arcs are ordered pairs stored in a
frozenset; opposite arcs (u,v) and (v,u) may coexist, parallel arcs cannot.
All iteration orders exposed to callers are sorted so downstream algorithms
are deterministic.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property
from typing import Container, Iterable, Optional

Arc = tuple[int, int]

ISO_ORDER_BOUND = 12
#: most vertices a Cartesian power may have
POWER_ORDER_BOUND = 20_000


def _read_only(self, name, *value):
    raise AttributeError(f"cannot assign to field {name!r}")


class _Value:
    """Read-only value named by the subclass's _fields: an instance equals
    one of its own class with equal fields, hashes, shows as
    Name(field=value, ...) and pickles as its fields.  Slots left out of
    _fields are derived or cached, and take no part in any of these."""

    __slots__ = ()
    _fields: tuple[str, ...]
    __setattr__ = __delattr__ = _read_only

    def __init_subclass__(cls):
        get = operator.attrgetter(*cls._fields)
        # the field values as a tuple, also for a single field
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda v: (get(v),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values(self)


class Digraph(_Value):
    """Immutable digraph on vertices 0..n-1, n an int.  Arcs are (int, int)
    pairs, kept as given; an order or endpoint of any other type, bool
    included, is a ValueError.  Fields cannot be assigned, so rows and the
    memos keyed by a digraph's value stay true to it."""

    __slots__ = ("n", "arcs", "__dict__")
    _fields = ("n", "arcs")

    def __init__(self, n: int, arcs: Iterable[Arc]):
        if type(n) is not int:
            raise ValueError(f"order {n!r} is not an int")
        if n < 0:
            raise ValueError("order must be nonnegative")
        # built by insertion, not copied: a copied set keeps the source's
        # table size, which can be twice what insertion needs
        arcset = frozenset(iter(arcs))
        for u, v in arcset:
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"arc ({u!r},{v!r}) has an endpoint that is not an int")
            if u == v:
                raise ValueError(f"loop ({u},{v}) not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc ({u},{v}) out of range for order {n}")
        _set_n(self, n)
        _set_arcs(self, arcset)

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

    def __repr__(self) -> str:
        return f"Digraph({self.n}, {self.sorted_arcs()})"


# __init__ writes the fields through their slots' own setters, since
# assignment raises; they cost about half what object.__setattr__ does
_set_n, _set_arcs = Digraph.n.__set__, Digraph.arcs.__set__


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
    is the bitmask of u's neighbours.  A layer of one vertex reads its row
    directly, so a long path of such layers skips the bit loop."""
    full = (1 << len(rows)) - 1
    unseen = full ^ (1 << v)
    frontier = 1 << v
    while frontier:
        if frontier.bit_count() > 1:
            nxt = 0
            while frontier:
                w = frontier.bit_length() - 1
                nxt |= rows[w]
                frontier ^= 1 << w
        else:
            nxt = rows[frontier.bit_length() - 1]
        frontier = nxt & unseen
        unseen ^= frontier
    return full ^ unseen


def _reaches(out, inn, a: int, a_front: int, b: int, b_front: int) -> bool:
    """True iff a vertex of a reaches one of b along the out-rows out, where
    a and b are disjoint vertex sets; inn holds the same arcs as in-rows.
    a_front is a's last layer: every out-neighbour of a vertex of a outside
    a_front lies in a; likewise b_front along inn.  So a test whether t
    reaches h passes t's closure and h's in-closure as deep as it has read
    them already, and the search reads only the rows of frontier vertices.
    Grows both ends at once, always the smaller frontier, and stops when
    they meet or either frontier runs dry."""
    # a is the end with the smaller frontier; swap name by name (a tuple swap ran 15% slower)
    a_rows, b_rows = out, inn
    while a_front and b_front:
        if a_front.bit_count() > b_front.bit_count():
            a_rows, b_rows = b_rows, a_rows
            a, b = b, a
            a_front, b_front = b_front, a_front
        nxt = 0
        while a_front:
            w = a_front.bit_length() - 1
            nxt |= a_rows[w]
            a_front ^= 1 << w
        if nxt & b:
            return True
        a_front = nxt & ~a
        a |= a_front
    return False


def _rows(n: int, arcs: Iterable[Arc]) -> tuple[list[int], list[int]]:
    """Bitmask out-rows and in-rows of (V, arcs) on n vertices."""
    out, inn = [0] * n, [0] * n
    for t, h in arcs:
        out[t] |= 1 << h
        inn[h] |= 1 << t
    return out, inn


def _two_arc_strong(n: int, out, inn) -> bool:
    """True iff the digraph with out-rows out and in-rows inn on n >= 2
    vertices is 2-arc-strong.  The rows are not changed.

    It is strong iff the layers of vertex 0 along out and along inn both
    span.  A bridge p->w of a strong digraph leaves w unreachable from 0, or
    0 unreachable from p, which is the first case along inn with p and w
    swapped.  In the first case every path from 0 to w ends in p->w, so p is
    the only in-neighbour of w in w's own layer or an earlier one: any other
    such u has a shortest path from 0 that avoids w, and u->w avoids p->w.
    So an arc into w is a candidate only if its tail is the one vertex of
    inn[w] & seen when w's layer is expanded, and a candidate is a bridge
    iff its tail no longer reaches its head without it.  The tail lies in
    the layer just before the head's, its one in-neighbour there, so no
    other out-neighbour of the tail is an in-neighbour of the head: that
    vertex would lie in the head's layer or an earlier one.  So the tail
    with its other out-neighbours and the head with its other in-neighbours
    are disjoint start sets of _reaches, which reads the rows of the tail
    and the head only as these first frontiers, the candidate masked out:
    no row is copied or written.
    """
    cands = []
    for fwd, back in ((out, inn), (inn, out)):
        seen = frontier = 1
        while frontier:
            nxt = 0
            while frontier:
                w = frontier.bit_length() - 1
                nxt |= fwd[w]
                p = back[w] & seen
                if p.bit_count() == 1:
                    p = p.bit_length() - 1
                    cands.append((p, w) if fwd is out else (w, p))
                frontier ^= 1 << w
            frontier = nxt & ~seen
            seen |= frontier
        if seen != (1 << n) - 1:
            return False
    for t, h in dict.fromkeys(cands):
        rest_out, rest_in = out[t] ^ 1 << h, inn[h] ^ 1 << t
        if not _reaches(out, inn, rest_out | 1 << t, rest_out, rest_in | 1 << h, rest_in):
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
    are strong by convention.  Above order 1 every vertex needs an out-arc,
    so fewer arcs than vertices answer no without building rows."""
    if d.n >= 2 and d.m < d.n:
        return False
    return _unreachable_pair(d.n, *d.rows) is None


def is_semicomplete(d: Digraph) -> bool:
    """At least one arc between every pair of distinct vertices, so at least
    n(n-1)/2 arcs: fewer answer no without building rows."""
    if d.m < d.n * (d.n - 1) // 2:
        return False
    full = (1 << d.n) - 1
    return all(o | i | 1 << u == full for u, (o, i) in enumerate(zip(*d.rows)))


def _max_flow(
    cap: list[dict[int, int]], rows: list[int], s: int, t: int, limit: float = math.inf
) -> int:
    """min(limit, value of a maximum s->t flow), by shortest augmenting paths.

    cap[u][v] is the capacity of u->v, and rows[u] the bitmask of the heads v
    with cap[u][v] > 0.  Both become the residual network in place, so when
    the flow is maximum the source side of a minimum cut is _closure(rows, s).
    Each augmenting path is the _bfs tree path to t.
    """
    flow = 0
    while flow < limit:
        prev = _bfs(rows, s, stop=(t,))
        if t not in prev:  # the flow is maximum
            break
        path = _tree_path(prev, t)
        arcs = list(zip(path, path[1:]))
        aug = min(min(cap[u][v] for u, v in arcs), limit - flow)
        for u, v in arcs:
            cap[u][v] -= aug
            if not cap[u][v]:
                rows[u] ^= 1 << v
            cap[v][u] = cap[v].get(u, 0) + aug
            rows[v] |= 1 << u
        flow += aug
    return flow


def _arc_strength(d: Digraph, cap: float) -> int:
    """min(cap, λ(d)) for n >= 2, where λ(d) is the largest k such that d
    stays strong after deleting any k-1 arcs.

    λ is at most the minimum in- or out-degree.  Up to 2 it is read on the
    rows: _two_arc_strong, and below 2 the closures of _unreachable_pair.
    Above 2, by Schnorr's lemma, λ is the fewest arc-disjoint paths from a
    vertex to the next in one cyclic order, since every cut separates some
    consecutive pair: one _max_flow on unit capacities per vertex, each
    capped at the minimum so far.  Fewer arcs than vertices leave a vertex
    without an out-arc, so λ is 0 and no rows are built.
    """
    if d.n < 2:
        raise ValueError("undefined for trivial digraph")
    if d.m < d.n:
        return min(cap, 0)
    out, inn = d.rows
    best = min(cap, min(map(int.bit_count, out)), min(map(int.bit_count, inn)))
    if best < 2 or not _two_arc_strong(d.n, out, inn):
        return best if best < 1 else int(_unreachable_pair(d.n, out, inn) is None)
    for v in range(d.n):
        if best == 2:
            break
        unit: list[dict[int, int]] = [{} for _ in range(d.n)]
        for t, h in d.arcs:
            unit[t][h] = 1
        best = _max_flow(unit, list(out), v, (v + 1) % d.n, best)
    return best


def is_k_arc_strong(d: Digraph, k: int) -> bool:
    """d stays strong after deleting any k-1 arcs (see _arc_strength)."""
    return _arc_strength(d, k) >= k


def arc_connectivity(d: Digraph) -> int:
    """Largest k such that d stays strong after deleting any k-1 arcs (see
    _arc_strength)."""
    return _arc_strength(d, math.inf)


# ---------------------------------------------------------------------------
# small-graph isomorphism

def find_isomorphism(a: Digraph, b: Digraph) -> Optional[dict[int, int]]:
    """Arc-preserving bijection a -> b, or None.  Orders must be <= 12.  The
    backtracking maps v = 0, 1, ... in turn, each to the smallest image w
    that extends the map, so the witness is the first such map."""
    if a.n > ISO_ORDER_BOUND or b.n > ISO_ORDER_BOUND:
        raise ValueError("isomorphism bound exceeded")
    if a.n != b.n or a.m != b.m:
        return None
    n = a.n
    (out_a, in_a), (out_b, in_b) = a.rows, b.rows
    deg_a = [(out_a[v].bit_count(), in_a[v].bit_count()) for v in range(n)]
    deg_b = [(out_b[w].bit_count(), in_b[w].bit_count()) for w in range(n)]
    if sorted(deg_a) != sorted(deg_b):
        return None
    image = [0] * n

    def extend(v: int, used: int) -> bool:
        if v == n:
            return True
        # the images of v's in- and out-neighbours among 0..v-1, as bits
        into = sum(1 << image[u] for u in range(v) if in_a[v] >> u & 1)
        outof = sum(1 << image[u] for u in range(v) if out_a[v] >> u & 1)
        for w in range(n):
            if (not used >> w & 1 and deg_b[w] == deg_a[v]
                    and in_b[w] & used == into and out_b[w] & used == outof):
                image[v] = w
                if extend(v + 1, used | 1 << w):
                    return True
        return False

    return dict(enumerate(image)) if extend(0, 0) else None
