"""Search kernel of the exact good-decomposition oracle.

Backtracks over arc assignments to (side 1, side 2, unused).  For each side
it maintains bitmask out-rows of "arcs still available to that side"
(assigned to it or unassigned); a branch is pruned as soon as either
availability digraph stops being strong, which also is the leaf test.
Assigning to side 2 is forbidden until side 1 holds an arc (swap symmetry).

The backtracking is an explicit loop over the assignment array, so the depth
of the tree is bounded by memory rather than by the recursion limit.
"""

from __future__ import annotations

FOUND, NONE, ABORTED = 0, 1, 2

_UNTRIED = -1


def _reaches(rows, t: int, target: int) -> bool:
    """True iff every vertex of bitmask target lies on a nonempty path from t."""
    reach = frontier = rows[t]
    while frontier and reach & target != target:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & ~reach
        reach |= frontier
    return reach & target == target


def search(n, arcs, budget=0):
    """Search for two disjoint arc sets, both strong and spanning.

    arcs: sequence of (tail, head) defining the assignment order.
    budget: node limit, <= 0 means unlimited.  The root counts as one node,
    and so does every attempted assignment of an arc to a side.
    Returns (status, a1_indices, a2_indices, nodes_explored).
    """
    m = len(arcs)
    limit = budget if budget > 0 else float("inf")

    out1 = [0] * n
    for t, h in arcs:
        out1[t] |= 1 << h
    out2 = out1[:]

    nodes = 1
    others = ((1 << n) - 1) & ~1
    strong = _reaches(out1, 0, others) and all(_reaches(out1, v, 1) for v in range(1, n))
    if not strong:
        return NONE, [], [], nodes

    assign = [_UNTRIED] * m
    ones = 0  # arcs on side 1 among arcs[:i]
    i = 0
    while i < m:
        t, h = arcs[i]
        hbit = 1 << h
        # take back the choice last tried at i and move on to the next one
        c = assign[i]
        if c == _UNTRIED:
            c = 1
        elif c == 1:
            out2[t] |= hbit
            ones -= 1
            c = 2 if ones else 0
        elif c == 2:
            out1[t] |= hbit
            c = 0
        else:
            out1[t] |= hbit
            out2[t] |= hbit
            assign[i] = _UNTRIED
            if i == 0:
                return NONE, [], [], nodes
            i -= 1
            continue
        assign[i] = c
        nodes += 1
        if nodes > limit:
            return ABORTED, [], [], nodes
        # the parent node is strong on both sides, and deleting arc t->h from
        # a strong digraph leaves it strong iff t still reaches h
        if c == 1:
            out2[t] &= ~hbit
            ones += 1
            ok = _reaches(out2, t, hbit)
        elif c == 2:
            out1[t] &= ~hbit
            ok = _reaches(out1, t, hbit)
        else:
            out1[t] &= ~hbit
            out2[t] &= ~hbit
            ok = _reaches(out1, t, hbit) and _reaches(out2, t, hbit)
        if ok:
            i += 1

    a1 = [k for k in range(m) if assign[k] == 1]
    a2 = [k for k in range(m) if assign[k] == 2]
    return FOUND, a1, a2, nodes
