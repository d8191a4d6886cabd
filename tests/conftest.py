"""Shared independent oracles and random-instance generators for the tests.

Everything here deliberately avoids the library's own algorithms: strongness
by boolean matrix closure, connectivity by brute-force arc deletion, covers by
exhaustive cycle-subset search, decompositions by subset/complement scanning.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest

from gooddecomp import Digraph, cartesian_product, cycle, decomp, is_strong


def strong_by_closure(d: Digraph) -> bool:
    """Independent strongness check: boolean transitive closure."""
    n = d.n
    if n <= 1:
        return True
    reach = [[u == v for v in range(n)] for u in range(n)]
    for u, v in d.arcs:
        reach[u][v] = True
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


def reachable(arcs, start: int) -> set:
    """Independent reachability: the vertices that start reaches, itself
    included, by breadth-first search over adjacency lists of arcs."""
    succ: dict = {}
    for u, v in arcs:
        succ.setdefault(u, []).append(v)
    seen = {start}
    queue = [start]
    for u in queue:
        for v in succ.get(u, ()):
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def arc_connectivity_bruteforce(d: Digraph) -> int:
    """Smallest arc set whose removal destroys strongness (only for tiny m)."""
    if not strong_by_closure(d):
        return 0
    arcs = sorted(d.arcs)
    for k in range(1, len(arcs) + 1):
        for combo in itertools.combinations(arcs, k):
            if not strong_by_closure(Digraph(d.n, d.arcs - set(combo))):
                return k
    return len(arcs)


def min_st_cut_bruteforce(d: Digraph, s: int, t: int) -> int:
    """Fewest arcs whose removal leaves no s->t path, s != t (only for tiny
    m): by Menger, the most arc-disjoint s->t paths."""

    def reaches(arcs: frozenset) -> bool:
        seen, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for a, b in arcs:
                if a == u and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return t in seen

    arcs = sorted(d.arcs)
    for k in range(len(arcs)):
        for combo in itertools.combinations(arcs, k):
            if not reaches(d.arcs - set(combo)):
                return k
    return len(arcs)


def simple_cycles(d: Digraph) -> list[tuple[int, ...]]:
    """All simple directed cycles, each rotated to start at its minimum vertex."""
    out = set()
    succ = [sorted(w for u, w in d.arcs if u == v) for v in range(d.n)]

    def walk(path: list[int], seen: set[int]):
        v = path[-1]
        for w in succ[v]:
            if w == path[0]:
                k = path.index(min(path))
                out.add(tuple(path[k:] + path[:k]))
            elif w not in seen and w > path[0]:
                walk(path + [w], seen | {w})

    for start in range(d.n):
        walk([start], {start})
    return sorted(out)


def hamiltonian_cycle_by_permutations(d: Digraph):
    """The Hamiltonian cycle (0, ...) that comes first in lexicographic
    order, by trying every ordering of 1..n-1; None if there is none."""
    for rest in itertools.permutations(range(1, d.n)):
        seq = (0,) + rest
        if all((a, b) in d.arcs for a, b in zip(seq, seq[1:] + seq[:1])):
            return seq
    return None


def has_cycle_cover_bruteforce(d: Digraph) -> bool:
    """Exhaustive search for arc-disjoint cycles covering all vertices."""
    cycles = simple_cycles(d)
    arcsets = [frozenset(zip(c, c[1:] + c[:1])) for c in cycles]
    vsets = [frozenset(c) for c in cycles]
    full = frozenset(range(d.n))

    def rec(i: int, used_arcs: frozenset, covered: frozenset) -> bool:
        if covered == full:
            return True
        if i == len(cycles):
            return False
        if rec(i + 1, used_arcs, covered):
            return True
        if not (arcsets[i] & used_arcs):
            return rec(i + 1, used_arcs | arcsets[i], covered | vsets[i])
        return False

    return rec(0, frozenset(), frozenset())


def violates_hoffman(d: Digraph, cut: frozenset) -> bool:
    """Hoffman's certificate on the cover network of d: the lower bounds on
    arcs entering the node set exceed the upper bounds on arcs leaving it, so
    no circulation, and so no cycle cover, exists.  The network is rebuilt
    here from its definition: in_v -> out_v with bounds [1, min(d-, d+)] for
    every vertex, out_u -> in_v with bounds [0, 1] for every arc."""
    indeg, outdeg = [0] * d.n, [0] * d.n
    for u, v in d.arcs:
        outdeg[u] += 1
        indeg[v] += 1
    arcs = [(("in", v), ("out", v), 1, min(indeg[v], outdeg[v])) for v in range(d.n)]
    arcs += [(("out", u), ("in", v), 0, 1) for u, v in d.arcs]
    entering = sum(lower for t, h, lower, _ in arcs if t not in cut and h in cut)
    leaving = sum(upper for t, h, _, upper in arcs if t in cut and h not in cut)
    return entering > leaving


def good_decomposition_exists_bruteforce(d: Digraph) -> bool:
    """Reference decision: some arc subset and its complement are both strong
    spanning.  (A_2 exists inside the complement iff the whole complement is
    strong.)  Only for small arc counts."""
    if d.n <= 1:
        return True
    arcs = sorted(d.arcs)
    for k in range(len(arcs) + 1):
        for combo in itertools.combinations(arcs, k):
            a1 = set(combo)
            if strong_by_closure(Digraph(d.n, a1)) and strong_by_closure(
                Digraph(d.n, d.arcs - a1)
            ):
                return True
    return False


class _Aborted(Exception):
    pass


def _conflict_reference(n: int, arcs: list, i: int, side: set) -> set:
    """The conflict of a failed test at level i, from the arcs side still
    has after losing arcs[i] = (t, h): if t has no other out-arc there, the
    levels of t's other out-arcs; else, if h has no other in-arc there, the
    levels of h's other in-arcs; else the levels of the arcs that leave t's
    closure in side, arcs[i] excepted."""
    t, h = arcs[i]
    if not any(a == t for a, _ in side):
        return {k for k, (a, _) in enumerate(arcs) if a == t and k != i}
    if not any(b == h for _, b in side):
        return {k for k, (_, b) in enumerate(arcs) if b == h and k != i}
    closure, stack = {t}, [t]
    while stack:
        u = stack.pop()
        for a, b in side:
            if a == u and b not in closure:
                closure.add(b)
                stack.append(b)
    return {k for k, (a, b) in enumerate(arcs) if a in closure and b not in closure and k != i}


def kernel_search_reference(n: int, arcs: list, budget: int, aborts=None, backjump=True) -> tuple:
    """Plain reference for the oracle's search kernel: the same tree (choices
    side 1, then side 2; side 2 only once side 1 holds an earlier arc) and
    the same node count (the root, then every attempted choice; more than
    budget > 0 nodes aborts), but a full strongness check of both sides at
    every node.  Returns (status, a1, a2, nodes) with the kernel's status
    codes 0 found, 1 none, 2 aborted.  On an abort, aborts (a list, if
    given) receives the choice being tried: "1" or "2".

    With backjump, a level whose choices are all refuted returns its
    conflict, the union of its failed tests' conflicts (_conflict_reference)
    and of its subtrees' conflicts less the level itself, and each level
    above that is not in it returns it at once, untried; an empty conflict
    refutes the root.  Without, the search is chronological."""
    limit = budget if budget > 0 else math.inf
    avail = [set(arcs), set(arcs)]  # arcs still available to side 1, side 2
    assign = []
    nodes = 1

    def strong(side: set) -> bool:
        return strong_by_closure(Digraph(n, side))

    def extend(i: int):
        """True if a solution extends assign, else the conflict of level i."""
        nonlocal nodes
        if i == len(arcs):
            return True
        conflict = set()
        for choice in (1, 2) if 1 in assign else (1,):
            nodes += 1
            if nodes > limit:
                raise _Aborted(str(choice))
            other = avail[2 - choice]  # the side that does not get arc i
            other.discard(arcs[i])
            assign.append(choice)
            if strong(avail[0]) and strong(avail[1]):
                below = extend(i + 1)
                if below is True:
                    return True
                if backjump and i not in below:
                    assign.pop()
                    other.add(arcs[i])
                    return below
                conflict |= below - {i}
            elif backjump:
                conflict |= _conflict_reference(n, arcs, i, other)
            assign.pop()
            other.add(arcs[i])
        return conflict

    if not strong(avail[0]):
        return 1, [], [], nodes
    try:
        found = extend(0)
    except _Aborted as where:
        if aborts is not None:
            aborts.append(where.args[0])
        return 2, [], [], nodes
    if found is not True:
        return 1, [], [], nodes
    return (
        0,
        [k for k, c in enumerate(assign) if c == 1],
        [k for k, c in enumerate(assign) if c == 2],
        nodes,
    )


def all_digraphs_on_arcs(n: int, max_arcs: int):
    """All labelled digraphs of order n with at most max_arcs arcs."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for k in range(max_arcs + 1):
        for combo in itertools.combinations(pairs, k):
            yield Digraph(n, combo)


def canonical_form(d: Digraph) -> tuple:
    """Isomorphism invariant by brute force: the least sorted arc list over
    all n! relabellings."""
    return min(
        tuple(sorted((p[u], p[v]) for u, v in d.arcs))
        for p in itertools.permutations(range(d.n))
    )


def semicomplete_class_count(n: int) -> int:
    """Burnside's lemma over S_n.  A permutation with cycle lengths l_i fixes
    3^e labelled semicomplete digraphs, with e = sum floor((l_i - 1) / 2) +
    sum_{i<j} gcd(l_i, l_j): each pair orbit is free (three states) unless a
    permutation power reverses the pair, which leaves the digon only."""
    total = 0
    for p in itertools.permutations(range(n)):
        lengths, todo = [], set(range(n))
        while todo:
            v = start = todo.pop()
            length = 1
            while p[v] != start:
                v = p[v]
                todo.discard(v)
                length += 1
            lengths.append(length)
        e = sum((l - 1) // 2 for l in lengths)
        e += sum(math.gcd(a, b) for a, b in itertools.combinations(lengths, 2))
        total += 3 ** e
    return total // math.factorial(n)


def random_strong_digraph(rng: random.Random, max_order: int, density: float = 0.5) -> Digraph:
    while True:
        n = rng.randint(2, max_order)
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < density
        ]
        d = Digraph(n, arcs)
        if is_strong(d):
            return d


def rotational_tournament(n: int) -> Digraph:
    """The tournament on Z_n (n odd) with arcs i -> i+1 .. i+(n-1)/2."""
    return Digraph(n, [(i, (i + k) % n) for i in range(n) for k in range(1, n // 2 + 1)])


def relabel(d: Digraph, perm) -> Digraph:
    """d with each vertex v renamed perm[v]; perm is a permutation of
    range(d.n)."""
    return Digraph(d.n, [(perm[u], perm[v]) for u, v in d.arcs])


def shuffled_torus(p: int, q: int, seed: int) -> Digraph:
    """Cp□Cq with its vertices relabelled by random.Random(seed).sample: pq
    vertices, 2pq arcs, and a sorted arc order that splits each vertex's
    in-arcs far apart."""
    d = cartesian_product(cycle(p), cycle(q)).digraph
    return relabel(d, random.Random(seed).sample(range(d.n), d.n))


def random_sparse_strong_digraph(rng: random.Random, n: int, max_arcs: int) -> Digraph:
    """Strong digraph built by ear growth: a cycle through some vertices, then
    path ears absorbing the rest, then optional chords, capped at max_arcs."""
    verts = list(range(n))
    rng.shuffle(verts)
    k = rng.randint(2, n)
    cyc = verts[:k]
    arcs = set(zip(cyc, cyc[1:] + cyc[:1]))
    attached = list(cyc)
    rest = verts[k:]
    while rest:
        take = rng.randint(1, len(rest))
        interior, rest = rest[:take], rest[take:]
        chain = [rng.choice(attached)] + interior + [rng.choice(attached)]
        arcs.update(zip(chain, chain[1:]))
        attached.extend(interior)
    while len(arcs) < max_arcs and rng.random() < 0.5:
        u, v = rng.sample(range(n), 2)
        arcs.add((u, v))
    if len(arcs) > max_arcs:
        return random_sparse_strong_digraph(rng, n, max_arcs)
    d = Digraph(n, arcs)
    assert is_strong(d)
    return d


@pytest.fixture(autouse=True)
def cold_outer_memos():
    """Every test starts with empty composition-route memos, so a test that
    counts the route's calls sees them whatever ran before it."""
    for memo in (decomp._outer_facts, decomp._outer_cycle, decomp._part_a_skeleton):
        memo.cache_clear()


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xD1A6)
