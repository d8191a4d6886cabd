"""Ear decompositions and Hamiltonian-cycle routines.

Cycles are vertex tuples (v0,...,vk-1) standing for the closed walk
v0 -> v1 -> ... -> vk-1 -> v0.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .digraph import Arc, Digraph, _bfs, _tree_path, is_strong

Cycle = tuple[int, ...]

HAMILTON_BRUTE_BOUND = 36


class ConstructionError(RuntimeError):
    """A constructive proof produced an invalid result (internal bug)."""


def cycle_arcs(cyc: Cycle) -> list[Arc]:
    return [(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))]


def is_cycle_of(d: Digraph, cyc: Cycle) -> bool:
    return (
        len(cyc) >= 2
        and len(set(cyc)) == len(cyc)
        and all(a in d.arcs for a in cycle_arcs(cyc))
    )


class Ear(NamedTuple):
    """Open ear: vertices v0..vk with arcs v0->v1..->vk, endpoints attached.

    Closed ear: same arcs plus vk->v0; only v0 is attached (or none for the
    start cycle).
    """

    vertices: tuple[int, ...]
    closed: bool

    def arcs(self) -> list[Arc]:
        if self.closed:
            return cycle_arcs(self.vertices)
        return list(zip(self.vertices, self.vertices[1:]))


class EarDecomposition(NamedTuple):
    ears: tuple[Ear, ...]


def validate_ear_decomposition(d: Digraph, dec: EarDecomposition) -> None:
    """Raise ValueError unless dec satisfies the three ear properties on d."""
    if not dec.ears or not dec.ears[0].closed:
        raise ValueError("first ear must be a cycle")
    seen_arcs: set[Arc] = set()
    seen_vertices: set[int] = set()
    for k, ear in enumerate(dec.ears):
        arcs = ear.arcs()
        for a in arcs:
            if a not in d.arcs:
                raise ValueError(f"ear {k} uses non-arc {a}")
            if a in seen_arcs:
                raise ValueError(f"ear {k} repeats arc {a}")
        if k == 0:
            if len(set(ear.vertices)) != len(ear.vertices):
                raise ValueError("start cycle repeats a vertex")
        elif ear.closed:
            shared = [v for v in ear.vertices if v in seen_vertices]
            if len(set(ear.vertices)) != len(ear.vertices) or shared != [ear.vertices[0]]:
                raise ValueError(f"cycle ear {k} must share exactly its anchor vertex")
        else:
            vs = ear.vertices
            if len(vs) < 2 or vs[0] == vs[-1]:
                raise ValueError(f"path ear {k} needs distinct endpoints")
            if vs[0] not in seen_vertices or vs[-1] not in seen_vertices:
                raise ValueError(f"path ear {k} endpoints must be attached")
            interior = vs[1:-1]
            if len(set(vs[:-1])) != len(vs) - 1 or any(v in seen_vertices for v in interior):
                raise ValueError(f"path ear {k} interior must be new")
        seen_arcs.update(arcs)
        seen_vertices.update(ear.vertices)
    if seen_arcs != d.arcs:
        raise ValueError("ears do not exhaust the arc set")
    if seen_vertices != set(range(d.n)):
        raise ValueError("ears do not cover all vertices")


def _some_cycle(d: Digraph) -> Cycle:
    """Deterministic cycle: smallest arc plus a shortest return path."""
    u, v = min(d.arcs)
    prev = _bfs(d.rows[0], v, stop={u})
    if u not in prev:
        raise ValueError("requires strong digraph")
    return (u,) + tuple(_tree_path(prev, u)[:-1])


def ear_decomposition(d: Digraph) -> EarDecomposition:
    """Ear decomposition of a strong digraph, starting from _some_cycle(d)."""
    if d.n < 2 or not is_strong(d):
        raise ValueError("requires strong digraph of order >= 2")
    p0 = _some_cycle(d)
    ears = [Ear(p0, closed=True)]
    covered = set(cycle_arcs(p0))
    vertices = set(p0)
    out = d.rows[0]
    # the covered vertices as a bitmask, and those that may still have an arc
    # leaving the covered set: one that has none never gets one again
    inside = live = sum(1 << v for v in p0)
    while len(vertices) < d.n:
        # the smallest frontier arc u->v: u covered, v not
        while True:
            if not live:
                raise ConstructionError("strong digraph must leave the covered part")
            low = live & -live
            u = low.bit_length() - 1
            leaving = out[u] & ~inside
            if leaving:
                break
            live ^= low
        v = (leaving & -leaving).bit_length() - 1
        # shortest path from v back to the current vertex set over new vertices
        prev = _bfs(out, v, stop=vertices)
        hit = next(reversed(prev))
        if hit not in vertices:
            raise ConstructionError("strong digraph must reach the covered part")
        chain = [u] + _tree_path(prev, hit)  # u, v, ..., hit
        ear = Ear(tuple(chain[:-1]), closed=True) if hit == u else Ear(tuple(chain), closed=False)
        ears.append(ear)
        covered.update(ear.arcs())
        for w in chain[1:-1]:  # the ear's new vertices
            vertices.add(w)
            inside |= 1 << w
            live |= 1 << w
    # every uncovered arc joins two covered vertices: single-arc path ears
    ears += [Ear(a, closed=False) for a in d.sorted_arcs() if a not in covered]
    dec = EarDecomposition(tuple(ears))
    validate_ear_decomposition(d, dec)
    return dec


# ---------------------------------------------------------------------------
# Hamiltonian cycles

def _hamiltonian_cycle_semicomplete(d: Digraph) -> Cycle:
    """Hamiltonian cycle of d, which the caller has shown strong and
    semicomplete of order >= 2, by cycle extension.

    Maintains a cycle and grows it: outside vertices are inserted between
    consecutive cycle vertices when possible; otherwise the outside splits
    into a dominated set and a dominating set and an arc between them extends
    the cycle.  Order 2 yields the digon.
    """
    out, inn = d.rows
    cyc = list(_some_cycle(d))
    while len(cyc) < d.n:
        k, on = len(cyc), sum(1 << v for v in cyc)  # on: the cycle's vertices
        new = [v for v in range(d.n) if not on >> v & 1]
        spot = next(((i, v) for v in new for i in range(k)
                     if out[cyc[i]] >> v & 1 and out[v] >> cyc[(i + 1) % k] & 1), None)
        if spot is not None:
            cyc.insert(spot[0] + 1, spot[1])
            continue
        # no insertable vertex: each outside vertex x is fully dominated by
        # the cycle (inn[x] holds all of on) or fully dominates it;
        # strongness forces an arc x->y from the first kind to the second
        bridge = next(((x, y) for x in new if inn[x] & on == on for y in new
                       if out[x] >> y & 1 and inn[y] & on != on), None)
        if bridge is None:
            raise ConstructionError("strong semicomplete digraph must bridge out->in")
        cyc[1:1] = bridge  # c0 -> x -> y -> c1: all arcs exist by domination
    if not is_cycle_of(d, tuple(cyc)):
        raise ConstructionError("cycle extension did not close a Hamiltonian cycle")
    return tuple(cyc)


def hamiltonian_cycle_bruteforce(d: Digraph) -> Optional[Cycle]:
    """The Hamiltonian cycle with the smallest vertex sequence from 0, or None.

    Depth-first from 0, successors ascending.  Whether a walk closes depends
    only on its (unvisited mask, end) pair; failed pairs are remembered, so
    at most 2^(n-1)*n states are searched.
    """
    if d.n > HAMILTON_BRUTE_BOUND:
        raise ValueError(f"order above brute-force bound {HAMILTON_BRUTE_BOUND}")
    if d.n < 2:
        return None
    out, walk = d.rows[0], [0]
    failed: set[tuple[int, int]] = set()

    def extend(free: int, end: int) -> bool:
        if not free:
            return bool(out[end] & 1)
        if (free, end) in failed:
            return False
        nxt = out[end] & free
        while nxt:
            low = nxt & -nxt
            walk.append(low.bit_length() - 1)
            if extend(free ^ low, walk[-1]):
                return True
            walk.pop()
            nxt ^= low
        failed.add((free, end))
        return False

    return tuple(walk) if extend(((1 << d.n) - 1) ^ 1, 0) else None
