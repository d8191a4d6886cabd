"""Builders for digraph compositions and Cartesian/strong/lexicographic products.

Every builder returns the constructed digraph together with a CoordinateMap so
callers can address vertices by (block, inner) or (left, right) coordinates.
Vertex numbering is fixed: composition vertex (i, j) gets id sum(n_p, p<i) + j;
product vertex (x, x') gets id x * |V(H)| + x'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .digraph import Arc, Digraph

Coord = tuple[int, int]


@dataclass(frozen=True)
class CoordinateMap:
    """Bijection between coordinate pairs and dense vertex ids."""

    forward: dict[Coord, int]
    inverse: dict[int, Coord] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.inverse is None:
            object.__setattr__(
                self, "inverse", {vid: c for c, vid in self.forward.items()}
            )
        if len(self.inverse) != len(self.forward):
            raise ValueError("coordinate map is not a bijection")

    def vid(self, i: int, j: int) -> int:
        return self.forward[(i, j)]

    def coord(self, vid: int) -> Coord:
        return self.inverse[vid]


class Built(NamedTuple):
    digraph: Digraph
    coords: CoordinateMap


@dataclass(frozen=True)
class CompositionSpec:
    """Outer digraph T plus one inner digraph per outer vertex."""

    outer: Digraph
    inners: tuple[Digraph, ...]

    def __post_init__(self):
        if len(self.inners) != self.outer.n:
            raise ValueError("need exactly one inner digraph per outer vertex")
        if any(h.n < 1 for h in self.inners):
            raise ValueError("inner digraphs must have order >= 1")

    @property
    def t(self) -> int:
        return self.outer.n

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(h.n for h in self.inners)


def composition_coords(sizes: tuple[int, ...]) -> CoordinateMap:
    forward: dict[Coord, int] = {}
    base = 0
    for i, ni in enumerate(sizes):
        for j in range(ni):
            forward[(i, j)] = base + j
        base += ni
    return CoordinateMap(forward)


def compose(spec: CompositionSpec) -> Built:
    """Composition T[H_1,...,H_t]: inner arcs plus full block-to-block joins."""
    sizes = spec.sizes
    cmap = composition_coords(sizes)
    arcs: set[Arc] = set()
    for i, h in enumerate(spec.inners):
        for u, v in h.arcs:
            arcs.add((cmap.vid(i, u), cmap.vid(i, v)))
    for i, p in spec.outer.arcs:
        for j in range(sizes[i]):
            for q in range(sizes[p]):
                arcs.add((cmap.vid(i, j), cmap.vid(p, q)))
    n = sum(sizes)
    labels = [f"u{i+1},{j+1}" for i, ni in enumerate(sizes) for j in range(ni)]
    return Built(Digraph(n, arcs, labels), cmap)


def product_coords(ng: int, nh: int) -> CoordinateMap:
    return CoordinateMap({(x, y): x * nh + y for x in range(ng) for y in range(nh)})


def _product_labels(g: Digraph, h: Digraph) -> list[str]:
    return [f"u{x+1},{y+1}" for x in range(g.n) for y in range(h.n)]


def cartesian_product(g: Digraph, h: Digraph) -> Built:
    """G box H: move along a G-arc holding the H-coordinate, or vice versa."""
    cmap = product_coords(g.n, h.n)
    arcs: set[Arc] = set()
    for x, y in g.arcs:
        for z in range(h.n):
            arcs.add((cmap.vid(x, z), cmap.vid(y, z)))
    for x in range(g.n):
        for z, w in h.arcs:
            arcs.add((cmap.vid(x, z), cmap.vid(x, w)))
    return Built(Digraph(g.n * h.n, arcs, _product_labels(g, h)), cmap)


def strong_product(g: Digraph, h: Digraph) -> Built:
    """Cartesian arcs plus simultaneous moves along a G-arc and an H-arc."""
    base, cmap = cartesian_product(g, h)
    arcs = set(base.arcs)
    for x, y in g.arcs:
        for z, w in h.arcs:
            arcs.add((cmap.vid(x, z), cmap.vid(y, w)))
    return Built(Digraph(base.n, arcs, base.labels), cmap)


def lexicographic_product(g: Digraph, h: Digraph) -> Built:
    """The composition G[H, ..., H]: all arcs between blocks joined in G,
    plus H-arcs within each block."""
    if h.n == 0:  # CompositionSpec refuses order-0 inners
        return Built(Digraph(0, (), []), product_coords(g.n, 0))
    return compose(CompositionSpec(g, (h,) * g.n))


def cartesian_power(g: Digraph, k: int) -> Built:
    """Iterated Cartesian product, left-associated; k=1 returns g itself."""
    if k < 1:
        raise ValueError("power needs k >= 1")
    cur = g
    cmap = CoordinateMap({(v, 0): v for v in range(g.n)})
    for _ in range(k - 1):
        cur, cmap = cartesian_product(cur, g)
    return Built(cur, cmap)
