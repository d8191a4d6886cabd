"""Search kernel of the exact good-decomposition oracle.

Backtracks over arc assignments to (side 1, side 2, unused).  For each side
it maintains bitmask out-rows and in-rows of "arcs still available to that
side" (assigned to it or unassigned); a branch is pruned as soon as either
availability digraph stops being strong, which also is the leaf test.
Assigning to side 2 is forbidden until side 1 holds an arc (swap symmetry).

Every node of the tree is strong on both sides, and deleting arc t->h from a
strong digraph leaves it strong iff t still reaches h.  That test is
digraph._reaches, the path search the oracle's 2-arc-strong precheck also
runs: it meets in the middle, growing the closure of t along the out-rows
and the closure of h along the in-rows, always expanding the smaller
frontier, and stops when the two meet or either frontier runs dry.  The
root's strongness test is the two closures of vertex 0 (digraph._closure).

Each level reuses its own tests.  Choice 0 ("unused") leaves side 1 as
choice 2 tested it and side 2 as choice 1 tested it, because every deeper
level is undone on backtrack.  When choice 2 was skipped, every earlier arc
is unused and the two sides are equal.  So choice 0 runs no search of its
own.

The backtracking is an explicit loop over the assignment array, so the depth
of the tree is bounded by memory rather than by the recursion limit.
"""

from __future__ import annotations

from .digraph import _closure, _reaches, _rows

FOUND, NONE, ABORTED = 0, 1, 2

_UNTRIED = -1


def search(n, arcs, budget=0):
    """Search for two disjoint arc sets, both strong and spanning.

    arcs: sequence of (tail, head) defining the assignment order.
    budget: node limit, <= 0 means unlimited.  The root counts as one node,
    and so does every attempted assignment of an arc to a side.
    Returns (status, a1_indices, a2_indices, nodes_explored).
    """
    m = len(arcs)
    limit = budget if budget > 0 else float("inf")

    out1, in1 = _rows(n, arcs)
    out2, in2 = out1[:], in1[:]

    nodes = 1
    full = (1 << n) - 1
    if _closure(out1, 0) != full or _closure(in1, 0) != full:
        return NONE, [], [], nodes

    assign = [_UNTRIED] * m
    # per level, from this visit: side 2 stays strong without the arc (tested
    # by choice 1), side 1 stays strong without it (tested by choice 2)
    ok2 = [False] * m
    ok1 = [False] * m
    ones = 0  # arcs on side 1 among arcs[:i]
    i = 0
    while i < m:
        t, h = arcs[i]
        hbit, tbit = 1 << h, 1 << t
        c = assign[i]
        if c == 0:
            # every choice tried: give the arc back to both sides, backtrack
            out1[t] |= hbit
            in1[h] |= tbit
            out2[t] |= hbit
            in2[h] |= tbit
            assign[i] = _UNTRIED
            if i == 0:
                return NONE, [], [], nodes
            i -= 1
            continue
        nodes += 1
        if nodes > limit:
            return ABORTED, [], [], nodes
        # move from the choice last tried at i to the next one; the parent
        # node is strong on both sides, and deleting arc t->h from a strong
        # digraph leaves it strong iff t still reaches h
        if c == _UNTRIED:
            # side 1: side 2 loses the arc
            assign[i] = 1
            ones += 1
            out2[t] &= ~hbit
            in2[h] &= ~tbit
            ok = ok2[i] = _reaches(out2, in2, t, h)
        elif c == 1:
            ones -= 1
            out1[t] &= ~hbit
            in1[h] &= ~tbit
            if ones:
                # side 2: side 2 gets the arc back, side 1 loses it
                assign[i] = 2
                out2[t] |= hbit
                in2[h] |= tbit
                ok = ok1[i] = _reaches(out1, in1, t, h)
            else:
                # unused, side 2 not allowed yet: every earlier arc is unused,
                # so side 1 equals side 2, which choice 1 tested
                assign[i] = 0
                ok = ok2[i]
        else:
            # unused after side 2: side 2 loses the arc too
            assign[i] = 0
            out2[t] &= ~hbit
            in2[h] &= ~tbit
            ok = ok1[i] and ok2[i]
        if ok:
            i += 1

    a1 = [k for k in range(m) if assign[k] == 1]
    a2 = [k for k in range(m) if assign[k] == 2]
    return FOUND, a1, a2, nodes
