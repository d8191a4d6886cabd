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

from .digraph import Digraph, is_strong
from .structure import cycle_arcs


def _max_flow(cap: list[dict[int, int]], s: int, t: int) -> set[int]:
    """BFS-augmenting max flow on an adjacency-dict capacity matrix (mutated
    into the residual capacities). Returns the nodes s still reaches in the
    residual: the source side of a minimum cut."""
    while True:
        prev: dict[int, int] = {s: s}
        queue = [s]
        while queue and t not in prev:
            nxt = []
            for u in queue:
                for v in sorted(cap[u]):
                    if v not in prev and cap[u][v] > 0:
                        prev[v] = u
                        nxt.append(v)
            queue = nxt
        if t not in prev:
            return set(prev)
        # bottleneck along the path
        path = []
        v = t
        while v != s:
            path.append((prev[v], v))
            v = prev[v]
        aug = min(cap[u][v] for u, v in path)
        for u, v in path:
            cap[u][v] -= aug
            cap[v].setdefault(u, 0)
            cap[v][u] += aug


def _cover_flow(d: Digraph) -> tuple[list[dict[int, int]], set[int]]:
    """Max flow on the cover network of a strong digraph, with in_v = 2v,
    out_v = 2v + 1, S = 2n and T = 2n + 1. Returns the residual capacities
    and the source side of the minimum cut."""
    if d.n < 2 or not is_strong(d):
        raise ValueError("requires strong digraph of order >= 2")
    s, t = 2 * d.n, 2 * d.n + 1
    cap: list[dict[int, int]] = [dict() for _ in range(2 * d.n + 2)]
    for v in range(d.n):
        cap[2 * v][2 * v + 1] = min(d.in_degree(v), d.out_degree(v)) - 1
        cap[2 * v][t] = 1
        cap[s][2 * v + 1] = 1
    for u, v in d.arcs:
        cap[2 * u + 1][2 * v] = 1
    return cap, _max_flow(cap, s, t)


def cover_cut(d: Digraph) -> frozenset:
    """Hoffman certificate of the cover network of a strong digraph: the
    ("in" | "out", v) nodes on the source side of its minimum cut. When d
    has no cycle cover, the lower bounds on arcs entering this set exceed
    the upper bounds on arcs leaving it; when d has one, the set is empty."""
    _, reach = _cover_flow(d)
    return frozenset(("out" if x % 2 else "in", x // 2) for x in reach if x < 2 * d.n)


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
    remaining = sum(len(outs) for outs in support.values())
    while remaining:
        start = min(v for v, outs in support.items() if outs)
        walk = [start]
        pos = {start: 0}
        while True:
            v = walk[-1]
            w = support[v].pop()
            remaining -= 1
            if w in pos:
                cycles.append(tuple(walk[pos[w]:]))
                # arcs before the loop are pushed back for later extraction
                for a, b in zip(walk[: pos[w]], walk[1: pos[w] + 1]):
                    support[a].append(b)
                    support[a].sort(reverse=True)
                    remaining += 1
                break
            walk.append(w)
            pos[w] = len(walk) - 1
    return CycleCover(tuple(cycles))
