"""Arc-disjoint cycle covers from one max-flow.

A digraph has a collection of arc-disjoint cycles covering all its vertices
iff its cover network has a feasible circulation. The network splits every
vertex v into in_v -> out_v with bounds [1, min(d-, d+)] and turns every arc
u -> v into out_u -> in_v with bounds [0, 1]. The lower bound 1 of in_v -> out_v
is shipped from a super source S to out_v and from in_v to a super sink T, so
the circulation exists iff a max S-T flow saturates every arc leaving S.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .digraph import Digraph, _closure, _max_flow, is_strong
from .structure import cycle_arcs


def _cover_flow(d: Digraph) -> tuple[list[dict[int, int]], list[int]]:
    """Max flow on the cover network of a strong digraph, with in_v = 2v,
    out_v = 2v + 1, S = 2n and T = 2n + 1. Returns the residual capacities
    and the residual rows of _max_flow."""
    if d.n < 2 or not is_strong(d):
        raise ValueError("requires strong digraph of order >= 2")
    s, t = 2 * d.n, 2 * d.n + 1
    cap: list[dict[int, int]] = [dict() for _ in range(2 * d.n + 2)]
    rows = [0] * (2 * d.n + 2)
    for v in range(d.n):
        cap[2 * v][t] = cap[s][2 * v + 1] = 1
        rows[2 * v] |= 1 << t
        rows[s] |= 1 << 2 * v + 1
        spare = min(d.in_degree(v), d.out_degree(v)) - 1
        if spare:
            cap[2 * v][2 * v + 1] = spare
            rows[2 * v] |= 1 << 2 * v + 1
    for u, v in d.arcs:
        cap[2 * u + 1][2 * v] = 1
        rows[2 * u + 1] |= 1 << 2 * v
    _max_flow(cap, rows, s, t)
    return cap, rows


def cover_cut(d: Digraph) -> frozenset:
    """Hoffman certificate of the cover network of a strong digraph: the
    ("in" | "out", v) nodes on the source side of its minimum cut, which S
    still reaches in the residual network. When d has no cycle cover, the
    lower bounds on arcs entering this set exceed the upper bounds on arcs
    leaving it; when d has one, the set is empty."""
    _, rows = _cover_flow(d)
    reach = _closure(rows, 2 * d.n)
    return frozenset(
        ("out" if x % 2 else "in", x // 2) for x in range(2 * d.n) if reach >> x & 1
    )


# ---------------------------------------------------------------------------
# cycle covers

@dataclass(frozen=True)
class CycleCover:
    """Pairwise arc-disjoint cycles whose vertex union is the whole vertex set."""

    cycles: tuple[tuple[int, ...], ...]

    def arcs_of(self, k: int) -> list[tuple[int, int]]:
        return cycle_arcs(self.cycles[k])


def cycle_cover(d: Digraph) -> Optional[CycleCover]:
    """Arc-disjoint cycles covering all vertices, via circulation, or None."""
    cap, _ = _cover_flow(d)
    if any(cap[2 * d.n].values()):  # some vertex misses its lower bound
        return None
    # support of the flow on original arcs: the arcs whose unit was used
    support: dict[int, list[int]] = {v: [] for v in range(d.n)}
    for u, v in d.arcs:
        if cap[2 * u + 1][2 * v] == 0:
            support[u].append(v)
    for v in support:
        support[v].sort(reverse=True)  # pop() yields smallest first
    cycles = []
    # the support is balanced, so only a one-vertex walk can run dry
    for start in range(d.n):
        walk, pos = [start], {start: 0}
        while support[walk[-1]]:
            w = support[walk[-1]].pop()
            if w in pos:
                # emit the cycle and cut the walk back to where it closed
                cycles.append(tuple(walk[pos[w]:]))
                for v in walk[pos[w] + 1:]:
                    del pos[v]
                del walk[pos[w] + 1:]
            else:
                pos[w] = len(walk)
                walk.append(w)
    return CycleCover(tuple(cycles))
