"""Search kernel of the exact good-decomposition oracle.

Backtracks over arc assignments to side 1 or side 2.  No arc is left
unused: adding an arc keeps a digraph strong, so a solution that leaves an
arc unused stays one with that arc on side 1.  For each side it maintains
bitmask out-rows and in-rows of "arcs still available to that side"
(assigned to it or unassigned); a branch is pruned as soon as either
availability digraph stops being strong, which also is the leaf test.
Assigning to side 2 is forbidden until side 1 holds an arc (swap symmetry),
so arc 0 goes to side 1 only.

Every node of the tree is strong on both sides, and deleting arc t->h from a
strong digraph leaves it strong iff t still reaches h.  That test is
digraph._reaches, the path search the oracle's 2-arc-strong precheck also
runs: it meets in the middle, growing a closure of t along the out-rows and
a closure of h along the in-rows from the layers its caller has read,
always expanding the smaller frontier, and stops when the two meet or
either frontier runs dry.  The root needs no test: the caller has shown
the digraph strong, and the search copies its cached rows.

At level i the side that loses arc t->h is tested in four steps, each exact
because the parent node is strong.  The test fails at once if t has no
other out-arc or h no other in-arc on that side, read before the side's
rows are written, so a side that fails this degree guard changes nothing.
It passes if an out-neighbour of t other than h is also an in-neighbour of
h, a path t->w->h, or else if an out-neighbour of an out-neighbour of t
is one, a path of three arcs.  Else _reaches decides, resumed from what
the level has read: t's closure to distance 2, with the out-neighbours of
t's out-neighbours as its frontier, and h with its in-neighbours, so no
row is read twice.

The backtracking is an explicit loop over the assignment array, so the depth
of the tree is bounded by memory rather than by the recursion limit.  One
iteration is one visit of a level: it tries side 1 on a new level, then
side 2, counting a node and checking the budget before each test.  A side
that passes the degree guard but fails its test restores its rows at once,
so the next choice starts from the parent's rows.  A visit or jump step
reads one tuple of a table built once per call: the arc's ends, their bits
and the arc's own bit.

When neither choice passes, the loop backjumps (Prosser's conflict-directed
backjumping, 1993) instead of stepping back one level.  The conflict of a
failed test at level i, whose side loses arc t->h, is: if t has no other
out-arc on that side, the levels of t's other out-arcs; else, if h has no
other in-arc there, the levels of h's other in-arcs; else the levels of the
arcs that leave t's closure on that side without arc i.  Unassigned arcs
are available to both sides, so every such arc lies below i on the other
side, and while those levels keep their sides the test fails again,
whatever the levels between do.  A level's conflict set gathers the
conflicts of its failed tests and of its exhausted subtrees.  When level i
is exhausted with set S, an empty S ends the search with NONE; else, with
k = max(S), the loop unassigns levels i to k + 1, restoring their rows,
adds S - {k} to level k's set, and tries side 2 at k if k is on side 1, or
else exhausts k too.  A set that reaches level 0 ends the search as well:
by swap symmetry, arc 0 on side 2 fails as arc 0 on side 1 did.  Every
subtree skipped holds no solution, so the loop returns the first solution
of the chronological order, or the same NONE, in at most as many nodes.
Nothing is kept across the search: a set is used once, to choose where to
jump, and cleared when its level is unassigned.

Levels that are never exhausted do no conflict work.  A failed side-1 test
only sets bit i of level i's own set; its conflict is computed if level i
is exhausted, since no earlier level changes while i is assigned, so side
2's rows give the same closure then.  A failed side-2 test's conflict is
computed at once, since exhaustion follows.  The masks of the levels of
each vertex's out-arcs and in-arcs are built on a call's first exhaustion.

The kernel's one entry, search, runs the single-order loop _search_order
in two arc orders; any order gives an exact search.  Sorted order keeps a
vertex's out-arcs together but spreads its in-arcs over the whole list, so
a side that starves a vertex fails only at that vertex's last arc, deep in
the tree; the conflict of that failure is the vertex's other in-arcs, so
the loop jumps straight back to the latest of them.  The
maximum-cardinality-search (MCS) order of _mcs_order places vertex 0, then
always the vertex with the most arcs to placed ones, and lists each arc
once both its ends are placed, so every vertex's arcs come close together.
The sorted search runs first, up to _SORTED_CAP = 1,024 nodes: every census
tree of order 2-5 (at most 66 nodes), every criterion-3 tree (at most 232),
every CLI golden tree (at most 122) and every tree of the benchmark's
3-regular digraphs of order 24 at seeds 0 and 7 (at most 293) ends below
it, so those never build an MCS order.  A search that runs past the cap,
such as the vertex-shuffled C8□C12 or C12□C12, goes on in MCS order with
the budget that remains.  The digraph's rows serve both steps and the MCS
order, and the sides come back as arcs.
"""

from __future__ import annotations

from .digraph import _reaches

FOUND, NONE, ABORTED = 0, 1, 2

#: node limit of the sorted step of search
_SORTED_CAP = 1024


def _conflict(out, inn, t, h, hbit, bit, outlev, inlev):
    """The conflict of a failed test at level i, whose side loses arc t->h of
    bit 1 << i: if t has no other out-arc on that side, the levels of t's
    other out-arcs; else, if h has no other in-arc there, the levels of h's
    other in-arcs; else the levels of the arcs that leave t's closure on that
    side without arc i.  out and inn are the side's rows, holding arc i;
    outlev and inlev map each vertex to the level bits of its out-arcs and
    in-arcs."""
    rest = out[t] ^ hbit
    if not rest:
        return outlev[t] ^ bit
    if inn[h] == 1 << t:
        return inlev[h] ^ bit
    outs, ins = outlev[t], inlev[t]
    seen = rest | 1 << t
    front = rest
    while front:
        nxt = 0
        while front:
            low = front & -front
            v = low.bit_length() - 1
            nxt |= out[v]
            outs |= outlev[v]
            ins |= inlev[v]
            front ^= low
        front = nxt & ~seen
        seen |= front
    return outs & ~ins ^ bit


def _search_order(n, arcs, budget, rows):
    """Search for two disjoint arc sets, both strong and spanning, assigning
    arcs, distinct (tail, head) tuples, in the order given.

    budget: node limit, <= 0 means unlimited.  The root counts as one node,
    and so does every attempted assignment of an arc to a side.
    rows: the out-rows and in-rows of (n, arcs), from a digraph the caller
    has shown to be strong; they are copied, not changed.
    Returns (status, a1_indices, a2_indices, nodes_explored).
    """
    m = len(arcs)
    # at most 2^i nodes at depth i, each trying at most two choices: fewer
    # than 2^(m+1) nodes in all
    limit = budget if budget > 0 else 2 ** (m + 1)

    nodes = 1
    out1, in1 = list(rows[0]), list(rows[1])
    out2, in2 = out1[:], in1[:]

    vbit = [1 << v for v in range(n)]
    levels = [(t, h, vbit[t], vbit[h], 1 << i) for i, (t, h) in enumerate(arcs)]
    assign = [0] * m  # 0 untried, else the side that holds the arc
    # per level, the conflict levels gathered so far, and bit i itself while
    # side 1's failed test at level i has not computed its conflict
    conf = [0] * m
    outlev = inlev = None  # per vertex, the bits of its out-arcs, in-arcs
    i = 0
    while i < m:
        # one visit of level i.  Arc i is on a side's rows iff that side
        # still has it, so XOR with its bits removes or restores it.  The
        # parent node is strong on both sides, and deleting arc t->h from a
        # strong digraph leaves it strong iff t still reaches h.  A side
        # writes its rows only once the degree guard has passed, and a test
        # that fails after the write restores them before the next choice.
        t, h, tbit, hbit, bit = levels[i]
        if not assign[i]:
            nodes += 1
            if nodes > limit:
                return ABORTED, [], [], nodes
            # side 1: side 2 loses the arc
            assign[i] = 1
            if (rest_out := out2[t] ^ hbit) and (rest_in := in2[h] ^ tbit):
                out2[t] = rest_out
                in2[h] = rest_in
                if rest_out & rest_in:
                    i += 1
                    continue
                near = tbit | rest_out  # t's closure to distance 1
                mid = 0  # the out-neighbours of t's out-neighbours
                while rest_out:
                    low = rest_out & -rest_out
                    mid |= out2[low.bit_length() - 1]
                    rest_out ^= low
                if mid & rest_in or _reaches(out2, in2, near | mid, mid & ~near,
                                             hbit | rest_in, rest_in):
                    i += 1
                    continue
                out2[t] ^= hbit
                in2[h] ^= tbit
            conf[i] = bit  # side 1's test failed: its conflict is pending
        if i:  # side 1 holds arc 0, so side 2 is open
            nodes += 1
            if nodes > limit:
                return ABORTED, [], [], nodes
            # side 2: side 1 loses the arc
            assign[i] = 2
            if (rest_out := out1[t] ^ hbit) and (rest_in := in1[h] ^ tbit):
                out1[t] = rest_out
                in1[h] = rest_in
                if rest_out & rest_in:
                    i += 1
                    continue
                near = tbit | rest_out  # t's closure to distance 1
                mid = 0  # the out-neighbours of t's out-neighbours
                while rest_out:
                    low = rest_out & -rest_out
                    mid |= out1[low.bit_length() - 1]
                    rest_out ^= low
                if mid & rest_in or _reaches(out1, in1, near | mid, mid & ~near,
                                             hbit | rest_in, rest_in):
                    i += 1
                    continue
                out1[t] ^= hbit
                in1[h] ^= tbit
        # level i is exhausted, both sides' rows hold its arc again, and side
        # 2 holds it unless i is 0; side 1 at level 0 ends the search
        if not i:
            return NONE, [], [], nodes
        if outlev is None:
            outlev, inlev = [0] * n, [0] * n
            for u, v, _, _, b in levels:
                outlev[u] |= b
                inlev[v] |= b
        # the failed side-2 test's conflict, now; side 1's, if it failed, is
        # marked by bit i of conf[i]
        s = conf[i] | _conflict(out1, in1, t, h, hbit, bit, outlev, inlev)
        while True:
            if s & bit:
                s = s ^ bit | _conflict(out2, in2, t, h, hbit, bit, outlev, inlev)
            if not s:
                return NONE, [], [], nodes
            # jump to the deepest level k of the conflict: unassign levels
            # i to k + 1, restoring the side that lacks each arc
            k = s.bit_length() - 1
            assign[i] = conf[i] = 0
            i -= 1
            while i > k:
                t, h, tbit, hbit, bit = levels[i]
                if assign[i] == 1:
                    out2[t] ^= hbit
                    in2[h] ^= tbit
                else:
                    out1[t] ^= hbit
                    in1[h] ^= tbit
                assign[i] = conf[i] = 0
                i -= 1
            t, h, tbit, hbit, bit = levels[k]
            conf[k] |= s ^ bit
            if assign[k] == 1:  # give side 2 its arc back and try side 2
                out2[t] ^= hbit
                in2[h] ^= tbit
                break
            # level k on side 2 is exhausted too
            out1[t] ^= hbit
            in1[h] ^= tbit
            s = conf[k]

    a1 = [k for k, side in enumerate(assign) if side == 1]
    a2 = [k for k, side in enumerate(assign) if side == 2]
    return FOUND, a1, a2, nodes


def _mcs_order(n, arcs, rows):
    """arcs in maximum-cardinality-search order: vertex 0 first, then
    always the unplaced vertex with the most arcs, either way, to placed
    ones (the lower id on ties); arcs by their later end's place, then the
    earlier end's, then the arc.  rows are the out-rows and in-rows of (n,
    arcs)."""
    out, inn = rows
    weight = [0] * n  # arcs to placed vertices; -1 once placed
    place = [0] * n
    u = 0
    for k in range(n):
        place[u] = k
        weight[u] = -1
        both = out[u] | inn[u]
        while both:
            low = both & -both
            v = low.bit_length() - 1
            if weight[v] >= 0:
                weight[v] += (out[u] >> v & 1) + (inn[u] >> v & 1)
            both ^= low
        u = weight.index(max(weight))  # the first of the maxima

    def key(arc):
        a, b = place[arc[0]], place[arc[1]]
        return (a, b, arc) if a > b else (b, a, arc)
    return sorted(arcs, key=key)


def search(d, budget=0):
    """Search the strong digraph d: its sorted arcs up to _SORTED_CAP nodes,
    or the budget if smaller; if that aborts with budget left, its arcs in
    MCS order with the nodes that remain.  budget <= 0 means unlimited.
    Both steps and the MCS order read d's cached rows.  Returns (status, a1,
    a2, step, nodes): a1 and a2 are frozensets of arcs, empty unless FOUND;
    step names the step that settled it, "sorted" or "mcs"; nodes counts at
    most _SORTED_CAP from the first step, so an abort reports budget + 1."""
    n, arcs, rows = d.n, d.sorted_arcs(), d.rows
    cap = _SORTED_CAP if budget <= 0 else min(_SORTED_CAP, budget)
    status, i1, i2, nodes = _search_order(n, arcs, cap, rows)
    step = "sorted"
    if status == ABORTED and not 0 < budget <= _SORTED_CAP:
        arcs, step = _mcs_order(n, arcs, rows), "mcs"
        status, i1, i2, nodes = _search_order(n, arcs, budget - cap if budget > 0 else 0, rows)
        nodes += cap
    a1, a2 = (frozenset(map(arcs.__getitem__, ix)) for ix in (i1, i2))
    return status, a1, a2, step, nodes
