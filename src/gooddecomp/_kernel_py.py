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

At level i, whichever side loses arc i, the test is one function of that
side's arcs S among arcs[:i]: f_i(S) says whether S together with the
unassigned arcs[i+1:] is strong.  It depends on nothing else, so an answer
holds for the rest of the search.  Choice 1 asks f_i of side 2's arcs,
choice 2 asks f_i of side 1's, and choice 0 ("unused") asks both.  Adding
arcs keeps a digraph strong, so f_i is monotone: a superset of a passing S
passes and a subset of a failing S fails.  Each side keeps, per level, the
last S that passed and the last that failed, as bit masks over the arc
indices.  A test fails at once if t has no other out-arc or h no other
in-arc on that side; otherwise the memo answers it if it can, and else
_reaches does, which is exact because the parent node, S with arcs[i:], is
strong.  Every passing test is remembered or already covered, so choice 0
reads both its answers from the memo: every deeper level is undone on
backtrack, and when choice 2 was skipped no earlier arc is on either side,
so both sides equal the one choice 1 tested.  Choice 0 runs no search of
its own.

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
    # per level and side, the last arcs[:i] of that side that passed the
    # level's test and the last that failed; every mask carries bit m, so
    # the initial entries answer nothing
    mark = 1 << m
    pass1, fail1 = [-1] * m, [0] * m
    pass2, fail2 = pass1[:], fail1[:]
    ones = twos = mark  # the arcs on side 1, on side 2, and bit m
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
            # side 1: side 2 loses the arc, f_i(twos)
            assign[i] = 1
            ones |= 1 << i
            out2[t] = rest_out = out2[t] & ~hbit
            in2[h] = rest_in = in2[h] & ~tbit
            if not (rest_out and rest_in):
                ok = False
            elif twos & (p := pass2[i]) == p:
                ok = True
            elif twos | (f := fail2[i]) == f:
                ok = False
            elif _reaches(out2, in2, t, h):
                ok = True
                pass2[i] = twos
            else:
                ok = False
                fail2[i] = twos
        elif c == 1:
            ones ^= 1 << i
            out1[t] = rest_out = out1[t] & ~hbit
            in1[h] = rest_in = in1[h] & ~tbit
            if ones != mark:
                # side 2: side 2 gets the arc back, side 1 loses it, f_i(ones)
                assign[i] = 2
                twos |= 1 << i
                out2[t] |= hbit
                in2[h] |= tbit
                if not (rest_out and rest_in):
                    ok = False
                elif ones & (p := pass1[i]) == p:
                    ok = True
                elif ones | (f := fail1[i]) == f:
                    ok = False
                elif _reaches(out1, in1, t, h):
                    ok = True
                    pass1[i] = ones
                else:
                    ok = False
                    fail1[i] = ones
            else:
                # unused, side 2 not allowed yet: ones == twos, which
                # choice 1 tested
                assign[i] = 0
                ok = twos & (p := pass2[i]) == p
        else:
            # unused after side 2: side 2 loses the arc too
            assign[i] = 0
            twos ^= 1 << i
            out2[t] &= ~hbit
            in2[h] &= ~tbit
            ok = ones & (p := pass1[i]) == p and twos & (q := pass2[i]) == q
        if ok:
            i += 1

    a1 = [k for k in range(m) if assign[k] == 1]
    a2 = [k for k in range(m) if assign[k] == 2]
    return FOUND, a1, a2, nodes
