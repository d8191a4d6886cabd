"""Feasible circulations with lower bounds and arc-disjoint cycle covers.

A digraph has a collection of arc-disjoint cycles covering all its vertices
iff the network that gives every vertex bounds [1, min(d-, d+)] (realized by
vertex splitting) and every arc bounds [0, 1] has a feasible circulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from .digraph import Digraph, _bfs, is_strong
from .structure import cycle_arcs

Node = Hashable


@dataclass(frozen=True)
class BoundedArc:
    tail: Node
    head: Node
    lower: int
    upper: int

    def __post_init__(self):
        if not (0 <= self.lower <= self.upper):
            raise ValueError(f"need 0 <= lower <= upper on arc {self.tail}->{self.head}")


@dataclass(frozen=True)
class FlowNetwork:
    """Circulation network: parallel arcs allowed, bounds per arc."""

    nodes: tuple[Node, ...]
    arcs: tuple[BoundedArc, ...]

    def __post_init__(self):
        nodeset = set(self.nodes)
        for a in self.arcs:
            if a.tail not in nodeset or a.head not in nodeset:
                raise ValueError(f"arc {a} uses unknown node")


def _max_flow(cap: list[dict[int, int]], s: int, t: int) -> int:
    """BFS-augmenting max flow on an adjacency-dict capacity matrix (mutated
    into the residual capacities)."""
    total = 0
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
            return total
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
        total += aug


def _lower_bound_reduction(net: FlowNetwork) -> tuple[list[dict[int, int]], list[tuple[int, int]], int]:
    """Standard lower-bound reduction to a max-flow problem.

    Node i is net.nodes[i]; every arc keeps capacity upper - lower, and the
    lower bounds are shipped from a super source n to a super sink n + 1.
    Returns the capacities, each arc's (tail, head) ids and the total the
    source must ship: the circulation is feasible iff the max flow reaches it.
    """
    index = {node: i for i, node in enumerate(net.nodes)}
    n = len(net.nodes)
    cap: list[dict[int, int]] = [dict() for _ in range(n + 2)]
    excess = [0] * n
    arc_pairs = []
    for a in net.arcs:
        u, v = index[a.tail], index[a.head]
        cap[u][v] = cap[u].get(v, 0) + a.upper - a.lower
        excess[v] += a.lower
        excess[u] -= a.lower
        arc_pairs.append((u, v))
    for v in range(n):
        if excess[v] > 0:
            cap[n][v] = excess[v]
        elif excess[v] < 0:
            cap[v][n + 1] = -excess[v]
    return cap, arc_pairs, sum(e for e in excess if e > 0)


def feasible_circulation(net: FlowNetwork) -> Optional[dict[int, int]]:
    """Integral circulation meeting all bounds, or None if infeasible.

    Returns flow values indexed by position in net.arcs.
    """
    cap, arc_pairs, need = _lower_bound_reduction(net)
    # parallel arcs between the same node pair share a capacity entry, so
    # record the initial capacities
    initial = {(u, v): cap[u][v] for u, v in set(arc_pairs)}
    n = len(net.nodes)
    if _max_flow(cap, n, n + 1) < need:
        return None
    # flow on the reduced arc (u,v) = initial - residual, split greedily over
    # the parallel originals within their individual spans
    used = {(u, v): initial[(u, v)] - cap[u][v] for u, v in initial}
    flows = {}
    for i, a in enumerate(net.arcs):
        u, v = arc_pairs[i]
        span = min(a.upper - a.lower, used[(u, v)])
        used[(u, v)] -= span
        flows[i] = a.lower + span
    return flows


def infeasibility_cut(net: FlowNetwork) -> frozenset:
    """Source-side node set of the saturating min cut (for infeasible nets)."""
    cap, _, _ = _lower_bound_reduction(net)
    n = len(net.nodes)
    _max_flow(cap, n, n + 1)
    # a loop arc never changes reachability, and a Digraph has none
    residual = Digraph(
        n + 2, [(u, v) for u in range(n + 2) for v, c in cap[u].items() if c > 0 and u != v]
    )
    return frozenset(net.nodes[v] for v in _bfs(residual, n) if v < n)


# ---------------------------------------------------------------------------
# cycle covers

@dataclass(frozen=True)
class CycleCover:
    """Pairwise arc-disjoint cycles whose vertex union is the whole vertex set."""

    cycles: tuple[tuple[int, ...], ...]

    def arcs_of(self, k: int) -> list[tuple[int, int]]:
        return cycle_arcs(self.cycles[k])


def cover_network(d: Digraph) -> FlowNetwork:
    """Vertex-split circulation network whose feasibility equals cover existence."""
    nodes: list[Node] = []
    for v in range(d.n):
        nodes.append(("in", v))
        nodes.append(("out", v))
    arcs = []
    for v in range(d.n):
        upper = min(d.in_degree(v), d.out_degree(v))
        arcs.append(BoundedArc(("in", v), ("out", v), 1, upper))
    for u, v in d.sorted_arcs():
        arcs.append(BoundedArc(("out", u), ("in", v), 0, 1))
    return FlowNetwork(tuple(nodes), tuple(arcs))


def cycle_cover(d: Digraph) -> Optional[CycleCover]:
    """Arc-disjoint cycles covering all vertices, via circulation, or None."""
    if d.n < 2 or not is_strong(d):
        raise ValueError("requires strong digraph of order >= 2")
    net = cover_network(d)
    flows = feasible_circulation(net)
    if flows is None:
        return None
    # support of the flow on original arcs (all 0/1)
    support: dict[int, list[int]] = {v: [] for v in range(d.n)}
    offset = d.n  # vertex-internal arcs come first in cover_network
    for i, a in enumerate(net.arcs[offset:]):
        if flows[offset + i] > 0:
            (_, u), (_, v) = a.tail, a.head
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
