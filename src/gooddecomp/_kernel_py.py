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
either frontier runs dry.  The root's strongness test is
digraph._unreachable_pair, behind is_strong and verify.  It runs only when
search builds the rows itself: a caller that has already shown the digraph
strong passes its rows, which search copies, and the oracle and part (a)
do.

At level i, whichever side loses arc i, the test is one function of that
side's arcs S among arcs[:i]: f_i(S) says whether S together with the
unassigned arcs[i+1:] is strong.  It depends on nothing else, so an answer
holds for the rest of the search.  Choice 1 asks f_i of side 2's arcs and
choice 2 asks f_i of side 1's.  Adding arcs keeps a digraph strong, so f_i
is monotone: a superset of a passing S passes.  Each side keeps, per level,
two pass slots, the newest record and the one before it, as bit masks over
the arc indices; both start empty.  A test fails at once if t has no other
out-arc or h no other in-arc on that side, read before the side's rows are
written, so a side that fails this degree guard changes nothing; it passes
if S holds either slot's record.  Next, an out-neighbour of t (other than
h) that is also an in-neighbour of h is a path t->w->h, so the test passes;
else a path search decides, which is exact because the parent node, S with
arcs[i:], is strong.  A failed test records nothing.

A pass need not record all of S.  Let W be the arcs with index below i of a
path from t to h in S with arcs[i+1:].  Every S' that holds W holds that
path, since arcs[i+1:] are unassigned at level i, so f_i(S') passes; W may
be empty, and then every S' passes.  A later side seldom holds all of a
recorded S but often holds the few arcs of a path, so the levels that a
large tree visits again and again are answered from the memo far more
often.  Finding the path costs more than a plain search, though, plus a
table from each arc to its bit, and most levels of a small tree pass only a
few times.  So until a level and side has recorded two passes, filling
both slots, a search there first reads a path of three arcs off the rows,
the out-rows of t's out-neighbours against h's in-row, and then runs
_reaches from what the level has read: t's closure to distance 2, with the
out-neighbours of t's out-neighbours as its frontier, and h with its
in-neighbours, so no row is read twice.  A pass records S; after two it
runs _witness and records W.  The two-arc path always records S.
_witness searches one way only: it grows the layers of t's closure along
the out-rows until h appears, then walks back from h through them, so W
comes from a shortest path.  It maps a path arc (u, v) to its bit through a
dict keyed by the arcs themselves, built on the call's first witness, so
they may come in any order.

The backtracking is an explicit loop over the assignment array, so the depth
of the tree is bounded by memory rather than by the recursion limit.  One
iteration is one visit of a level: it tries side 1 on a new level, then
side 2, counting a node and checking the budget before each test.  A side
that passes the degree guard but fails its test restores its rows at once,
so the next choice starts from the parent's rows.  When neither passes it
backtracks at once, giving arcs back to side 1: only the earlier levels on
side 2 wrote side 1's rows, and the level on side 1 that it stops at gives
its arc back to side 2's rows and then tries side 2.  A visit or backtrack
step reads one tuple of a table built once per call: the arc's ends, their
bits and the arc's own bit.

The oracle and part (a) call _search_two_orders, which runs search in two
arc orders; any order gives an exact search.  Sorted order keeps a vertex's
out-arcs together but spreads its in-arcs over the whole list, so a side
that starves a vertex fails only at that vertex's last arc, deep in the
tree.  The maximum-cardinality-search (MCS) order of _mcs_order places
vertex 0, then always the vertex with the most arcs to placed ones, and
lists each arc once both its ends are placed, so every vertex's arcs come
close together.  The sorted search runs first, up to _SORTED_CAP = 1,024
nodes: every census tree of order 2-5 (at most 139 nodes), every
criterion-3 tree (at most 656) and every CLI golden tree (at most 170) ends
below it, so those keep their trees and never build an MCS order.  A
search that runs past the cap goes on in MCS order with the budget that
remains.  On the benchmark's 3-regular digraphs of order 24 the MCS step
settled every sorted tree that aborted at 5,000 nodes, in at most 1,287
more, and the order-9 part (a) witness takes 87 MCS nodes after 1,024
sorted ones, where its sorted tree ends after 890,839.  The rows a caller
passes serve both steps and the MCS order.
"""

from __future__ import annotations

from .digraph import _reaches, _rows, _unreachable_pair

FOUND, NONE, ABORTED = 0, 1, 2

#: node limit of the sorted step of _search_two_orders
_SORTED_CAP = 1024


def _witness(out, inn, t, h, code):
    """The arc bits of a shortest path from t to h != t along the out-rows
    out, or 0 if there is none: code maps each arc (u, v) to its bit.  inn
    holds the same arcs as in-rows.  A vertex in a layer of t's closure has an
    in-neighbour in the layer before, so the path walks back from h."""
    seen = front = 1 << t
    layers = []
    while not front >> h & 1:
        layers.append(front)
        nxt = 0
        while front:
            low = front & -front
            nxt |= out[low.bit_length() - 1]
            front ^= low
        front = nxt & ~seen
        if not front:
            return 0
        seen |= front
    w = 0
    for layer in reversed(layers):
        u = (inn[h] & layer).bit_length() - 1
        w |= code[u, h]
        h = u
    return w


def search(n, arcs, budget=0, rows=None):
    """Search for two disjoint arc sets, both strong and spanning.

    arcs: sequence of distinct (tail, head) tuples defining the assignment
    order.
    budget: node limit, <= 0 means unlimited.  The root counts as one node,
    and so does every attempted assignment of an arc to a side.
    rows: the out-rows and in-rows of (n, arcs), from a digraph the caller
    has shown to be strong; they are copied, not changed, and the root's
    strongness test is skipped.  Without them the rows are built here and a
    digraph that is not strong is NONE after the root.
    Returns (status, a1_indices, a2_indices, nodes_explored).
    """
    m = len(arcs)
    # at most 2^i nodes at depth i, each trying at most two choices: fewer
    # than 2^(m+1) nodes in all
    limit = budget if budget > 0 else 2 ** (m + 1)

    nodes = 1
    if rows is None:
        out1, in1 = _rows(n, arcs)
        if _unreachable_pair(n, out1, in1) is not None:
            return NONE, [], [], nodes
    else:
        out1, in1 = list(rows[0]), list(rows[1])
    out2, in2 = out1[:], in1[:]

    vbit = [1 << v for v in range(n)]
    bits = [1 << i for i in range(m)]
    levels = [(t, h, vbit[t], vbit[h], bit) for (t, h), bit in zip(arcs, bits)]
    assign = [0] * m  # 0 untried, else the side that holds the arc
    # per level and side, the last two records of a passing test: the side's
    # arcs[:i], or once prev holds a record, the arcs below i of the path a
    # search found.  -1 is an empty slot: no mask holds it, so it answers
    # nothing, while 0 is a path wholly in arcs[i+1:] and answers everything.
    pass1, prev1 = [-1] * m, [-1] * m
    pass2, prev2 = pass1[:], prev1[:]
    ones = twos = 0  # the arcs on side 1, on side 2
    code = None  # the bit of each arc, built for the first _witness
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
            # side 1: side 2 loses the arc, f_i(twos)
            assign[i] = 1
            ones |= bit
            if (rest_out := out2[t] ^ hbit) and (rest_in := in2[h] ^ tbit):
                out2[t] = rest_out
                in2[h] = rest_in
                if twos & (p := pass2[i]) == p or twos & (p := prev2[i]) == p:
                    i += 1
                    continue
                if rest_out & rest_in:
                    prev2[i], pass2[i] = pass2[i], twos
                    i += 1
                    continue
                # p is prev2[i]: empty until the level has recorded two passes
                if p < 0:
                    near = tbit | rest_out  # t's closure to distance 1
                    mid = 0  # the out-neighbours of t's out-neighbours
                    while rest_out:
                        low = rest_out & -rest_out
                        mid |= out2[low.bit_length() - 1]
                        rest_out ^= low
                    if mid & rest_in or _reaches(out2, in2, near | mid, mid & ~near,
                                                 hbit | rest_in, rest_in):
                        prev2[i], pass2[i] = pass2[i], twos
                        i += 1
                        continue
                else:
                    if code is None:
                        code = dict(zip(arcs, bits))
                    if w := _witness(out2, in2, t, h, code):
                        prev2[i], pass2[i] = pass2[i], w & (bit - 1)
                        i += 1
                        continue
                out2[t] ^= hbit
                in2[h] ^= tbit
        if i:  # side 1 holds arc 0, so side 2 is open
            nodes += 1
            if nodes > limit:
                return ABORTED, [], [], nodes
            # side 2: side 1 loses the arc, f_i(ones)
            assign[i] = 2
            ones ^= bit
            twos |= bit
            if (rest_out := out1[t] ^ hbit) and (rest_in := in1[h] ^ tbit):
                out1[t] = rest_out
                in1[h] = rest_in
                if ones & (p := pass1[i]) == p or ones & (p := prev1[i]) == p:
                    i += 1
                    continue
                if rest_out & rest_in:
                    prev1[i], pass1[i] = pass1[i], ones
                    i += 1
                    continue
                # p is prev1[i]: empty until the level has recorded two passes
                if p < 0:
                    near = tbit | rest_out  # t's closure to distance 1
                    mid = 0  # the out-neighbours of t's out-neighbours
                    while rest_out:
                        low = rest_out & -rest_out
                        mid |= out1[low.bit_length() - 1]
                        rest_out ^= low
                    if mid & rest_in or _reaches(out1, in1, near | mid, mid & ~near,
                                                 hbit | rest_in, rest_in):
                        prev1[i], pass1[i] = pass1[i], ones
                        i += 1
                        continue
                else:
                    if code is None:
                        code = dict(zip(arcs, bits))
                    if w := _witness(out1, in1, t, h, code):
                        prev1[i], pass1[i] = pass1[i], w & (bit - 1)
                        i += 1
                        continue
                out1[t] ^= hbit
                in1[h] ^= tbit
        # level i is exhausted, and both sides' rows hold its arc again:
        # unassign it, and give side 1 back the arc of every earlier level on
        # side 2; the first earlier level on side 1 gives side 2 its arc back
        # and then tries side 2; side 1 at level 0 ends the search
        while i:
            twos ^= bit
            assign[i] = 0
            i -= 1
            t, h, tbit, hbit, bit = levels[i]
            if assign[i] == 1:
                out2[t] ^= hbit
                in2[h] ^= tbit
                break
            out1[t] ^= hbit
            in1[h] ^= tbit
        else:
            return NONE, [], [], nodes

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


def _search_two_orders(n, arcs, budget, rows):
    """search on arcs, which the callers pass sorted, up to _SORTED_CAP
    nodes or the budget if smaller; if that aborts with budget left, search
    again in MCS order with the nodes that remain.  rows are those of a
    strong digraph, as search takes them: both steps and the MCS order read
    them.  Returns (status,
    order, a1, a2, nodes, name): a1 and a2 index order, the arc order of the
    step that settled it, named "sorted" or "mcs"; nodes counts at most
    _SORTED_CAP from the first step, so an abort reports budget + 1."""
    cap = _SORTED_CAP if budget <= 0 else min(_SORTED_CAP, budget)
    status, a1, a2, nodes = search(n, arcs, cap, rows)
    if status != ABORTED or 0 < budget <= _SORTED_CAP:
        return status, arcs, a1, a2, nodes, "sorted"
    order = _mcs_order(n, arcs, rows)
    status, a1, a2, nodes = search(n, order, budget - cap if budget > 0 else 0, rows)
    return status, order, a1, a2, cap + nodes, "mcs"
