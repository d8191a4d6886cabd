"""Builders for digraph compositions and Cartesian/strong/lexicographic products.

Every builder returns the constructed digraph together with a CoordinateMap so
callers can address vertices by (block, inner) or (left, right) coordinates.
The digraph names its vertices only by id; CoordinateMap.coord is the one way
back to coordinates.  Vertex numbering is fixed: composition vertex (i, j) gets
id sum(n_p, p<i) + j; a product of G and H is |V(G)| blocks of |V(H)|
vertices, so vertex (x, x') gets id x * |V(H)| + x'.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Iterable, Iterator, NamedTuple

from .digraph import POWER_ORDER_BOUND, Arc, Digraph, _Value

Coord = tuple[int, int]


class CoordinateMap(_Value):
    """Blockwise numbering: block i has sizes[i] vertices, and its vertex j
    gets id offsets[i] + j.  Coordinates and ids out of range raise KeyError."""

    __slots__ = ("sizes", "offsets")
    _fields = ("sizes",)

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(sizes)
        if min(sizes, default=0) < 0:
            raise ValueError("block sizes must be nonnegative")
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "offsets", tuple(itertools.accumulate(sizes, initial=0)))

    def vid(self, i: int, j: int) -> int:
        if not (0 <= i < len(self.sizes) and 0 <= j < self.sizes[i]):
            raise KeyError((i, j))
        return self.offsets[i] + j

    def coord(self, vid: int) -> Coord:
        if not 0 <= vid < self.offsets[-1]:
            raise KeyError(vid)
        i = bisect.bisect_right(self.offsets, vid) - 1
        return (i, vid - self.offsets[i])


class Built(NamedTuple):
    digraph: Digraph
    coords: CoordinateMap


class CompositionSpec(_Value):
    """Outer digraph T plus one inner digraph per outer vertex."""

    __slots__ = ("outer", "inners", "sizes", "_composition")
    _fields = ("outer", "inners")

    def __init__(self, outer: Digraph, inners: Iterable[Digraph]):
        inners = tuple(inners)
        if len(inners) != outer.n:
            raise ValueError("need exactly one inner digraph per outer vertex")
        sizes = tuple(h.n for h in inners)
        if min(sizes, default=1) < 1:
            raise ValueError("inner digraphs must have order >= 1")
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inners", inners)
        object.__setattr__(self, "sizes", sizes)
        # compose(self), built on its first call and kept while the spec
        # lives, as Digraph.rows is
        object.__setattr__(self, "_composition", None)

    @property
    def t(self) -> int:
        return self.outer.n


def _built(arcs: frozenset[Arc], cmap: CoordinateMap) -> Built:
    """The digraph on cmap's vertices; cmap alone names vertex (i, j)."""
    return Built(Digraph(cmap.offsets[-1], arcs), cmap)


def compose(spec: CompositionSpec) -> Built:
    """Composition T[H_1,...,H_t]: inner arcs plus full block-to-block joins.
    Every call on one spec returns the same Built."""
    if spec._composition is None:
        cmap = CoordinateMap(spec.sizes)
        off, sizes = cmap.offsets, cmap.sizes
        arcs = frozenset(itertools.chain(
            ((off[i] + u, off[i] + v) for i, h in enumerate(spec.inners) for u, v in h.arcs),
            ((off[i] + j, off[p] + q) for i, p in spec.outer.arcs
             for j in range(sizes[i]) for q in range(sizes[p])),
        ))
        object.__setattr__(spec, "_composition", _built(arcs, cmap))
    return spec._composition


def _cartesian_arcs(g_arcs, xs, h_arcs, zs, k: int) -> Iterator[Arc]:
    """Cartesian moves with vertex (x, z) numbered x * k + z: each g-arc x->y
    at every z in zs, and each h-arc z->w inside every layer x in xs.  The
    moves are yielded, for the caller to collect once."""
    return itertools.chain(
        ((x * k + z, y * k + z) for x, y in g_arcs for z in zs),
        ((x * k + z, x * k + w) for x in xs for z, w in h_arcs),
    )


def _strong_arcs(g: Digraph, h: Digraph) -> frozenset[Arc]:
    k = h.n
    return frozenset(itertools.chain(
        _cartesian_arcs(g.arcs, range(g.n), h.arcs, range(k), k),
        ((x * k + z, y * k + w) for x, y in g.arcs for z, w in h.arcs),
    ))


def cartesian_product(g: Digraph, h: Digraph) -> Built:
    """G box H: move along a G-arc holding the H-coordinate, or vice versa."""
    arcs = frozenset(_cartesian_arcs(g.arcs, range(g.n), h.arcs, range(h.n), h.n))
    return _built(arcs, CoordinateMap((h.n,) * g.n))


def strong_product(g: Digraph, h: Digraph) -> Built:
    """Cartesian arcs plus simultaneous moves along a G-arc and an H-arc."""
    return _built(_strong_arcs(g, h), CoordinateMap((h.n,) * g.n))


def lexicographic_product(g: Digraph, h: Digraph) -> Built:
    """The composition G[H, ..., H]: all arcs between blocks joined in G,
    plus H-arcs within each block."""
    if h.n == 0:  # CompositionSpec refuses order-0 inners
        return _built(frozenset(), CoordinateMap((0,) * g.n))
    return compose(CompositionSpec(g, (h,) * g.n))


def _check_power_order(n: int, k: int) -> None:
    """Raise ValueError, before anything is built, if the k-th Cartesian power
    of an order-n digraph exceeds POWER_ORDER_BOUND vertices.  Orders below 2
    count as 2, and 2 ** k exceeds the bound once k reaches its bit length,
    so the power is formed only for smaller k."""
    if k >= POWER_ORDER_BOUND.bit_length() or max(n, 2) ** k > POWER_ORDER_BOUND:
        raise ValueError(f"power {k} exceeds the order bound {POWER_ORDER_BOUND}")


def cartesian_power(g: Digraph, k: int) -> Built:
    """Iterated Cartesian product, left-associated; k=1 returns g itself.

    Vertex (x, z) of G^j box G is x * n + z; the arc sets fold from G to
    G^k, and only the last becomes a Digraph."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    _check_power_order(g.n, k)
    if k == 1:
        return Built(g, CoordinateMap((1,) * g.n))
    n, arcs = g.n, g.arcs
    for j in range(1, k):
        arcs = frozenset(_cartesian_arcs(arcs, range(n**j), g.arcs, range(n), n))
    return _built(arcs, CoordinateMap((n,) * n ** (k - 1)))
