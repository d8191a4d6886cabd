"""Good decompositions: verification and the constructive decomposers.

A good decomposition of a digraph is a pair of disjoint arc sets A1, A2 such
that both (V, A1) and (V, A2) are strong spanning subdigraphs; arcs may stay
unused.  A Decomposition generalizes this to k >= 2 pairwise disjoint parts
A1..Ak (the lexicographic product packs ell+1 of them).  Every decomposer here
is fail-closed: results are verified before they are returned and a
ConstructionError signals an internal bug.  A decomposer whose hypothesis
fails raises Refusal, with the machine-readable reason the CLI prints.

Composition constructions build skeleton sides on a few kept vertices per
block (plus explicitly consumed inner arcs) and _finish_composition lifts them
to the full composition by one twin extension.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from . import _kernel_py
from .builders import (
    CompositionSpec,
    CoordinateMap,
    _check_power_order,
    cartesian_product,
    compose,
    lexicographic_product,
    strong_product,
)
from .digraph import (
    Arc,
    Digraph,
    cycle,
    empty,
    find_isomorphism,
    is_k_arc_strong,
    is_semicomplete,
    is_strong,
    path,
    s4,
    _rows,
    _unreachable_pair,
)
from .flows import CycleCover, cover_cut, cycle_cover
from .structure import (
    ConstructionError,
    Cycle,
    _some_cycle,
    cycle_arcs,
    hamiltonian_cycle_bruteforce,
    hamiltonian_cycle_semicomplete,
    is_cycle_of,
)


class Refusal(ValueError):
    """A construction's hypothesis fails: a machine-readable reason such as
    "not-covered", and an optional detail line."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason
        self.detail = detail


class CycleCoverInfeasible(Refusal):
    """No arc-disjoint cycle cover exists; carries the failing cut side."""

    def __init__(self, cut: frozenset):
        super().__init__("infeasible:no-cycle-cover", f"cut: {sorted(cut)}")
        self.cut = cut


_NOT_STRONG = "digraph is not strong of order >= 2"


def _require_strong(*factors: Digraph) -> None:
    if any(f.n < 2 or not is_strong(f) for f in factors):
        raise Refusal("not-covered", _NOT_STRONG)


@dataclass(frozen=True)
class Decomposition:
    """Pairwise disjoint arc sets parts[0..k-1] (sections A1..Ak) of host,
    k >= 2, each meant to span a strong subdigraph; verify checks that."""

    host: Digraph
    parts: tuple[frozenset[Arc], ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a decomposition needs at least two parts")

    @property
    def a1(self) -> frozenset[Arc]:
        return self.parts[0]

    @property
    def a2(self) -> frozenset[Arc]:
        return self.parts[1]


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def verify(host: Digraph, *parts: frozenset[Arc]) -> VerifyResult:
    """Check that parts A1..Ak (k >= 2) are pairwise disjoint arc sets of
    host spanning strong subdigraphs, naming the first violation."""
    if len(parts) < 2:
        return VerifyResult(False, f"needs at least two parts, got {len(parts)}")
    named = [(f"A{k}", set(side)) for k, side in enumerate(parts, start=1)]
    for name, side in named:
        stray = sorted(side - host.arcs)
        if stray:
            return VerifyResult(False, f"{name} arc {stray[0]} not in host")
    for (n1, s1), (n2, s2) in itertools.combinations(named, 2):
        overlap = sorted(s1 & s2)
        if overlap:
            which = "" if len(parts) == 2 else f" {n1} and {n2}"
            return VerifyResult(False, f"sides{which} overlap on arc {overlap[0]}")
    for name, side in named:
        pair = _unreachable_pair(host.n, *_rows(host.n, side))
        if pair is not None:
            return VerifyResult(False, f"{name} not strong: no path {pair[0]}->{pair[1]}")
    return VerifyResult(True)


def verify_decomposition(d: Decomposition) -> VerifyResult:
    return verify(d.host, *d.parts)


def _checked(host: Digraph, *parts) -> Decomposition:
    parts = tuple(frozenset(p) for p in parts)
    res = verify(host, *parts)
    if not res:
        raise ConstructionError(f"construction failed verification: {res.reason}")
    return Decomposition(host, parts)


# ---------------------------------------------------------------------------
# skeleton constructions for compositions: each route returns
# (order, kept, side1, side2) for _finish_composition to lift.  Skeleton
# vertices are (position, slot) pairs: position p stands for block order[p]
# and slot s for that block's vertex kept[p][s].

Skeleton = tuple[Sequence[int], Sequence[Sequence[int]], set, set]


def _finish_composition(
    spec: CompositionSpec,
    order: Sequence[int],
    kept: Sequence[Sequence[int]],
    *sides: set,
) -> Decomposition:
    """Lift skeleton sides to the composition built from spec by twin
    extension: every non-kept vertex of a block gets the same cross-block
    arcs as the block's slot 0.  Inner arcs are never copied."""
    q, cmap = compose(spec)
    ids = [[cmap.vid(b, j) for j in kept[p]] for p, b in enumerate(order)]
    twins = [
        [cmap.vid(b, j) for j in range(spec.sizes[b]) if j not in kept[p]]
        for p, b in enumerate(order)
    ]

    def lift(side) -> set[Arc]:
        out: set[Arc] = set()
        for (p1, s1), (p2, s2) in side:
            u, v = ids[p1][s1], ids[p2][s2]
            out.add((u, v))
            if p1 != p2:
                tails = [u] + twins[p1] if s1 == 0 else [u]
                heads = [v] + twins[p2] if s2 == 0 else [v]
                out.update((a, b) for a in tails for b in heads)
        return out

    return _checked(q, *map(lift, sides))


def extend_by_twins(
    qstar: Digraph,
    d: Decomposition,
    spec: CompositionSpec,
    kept: Sequence[Sequence[int]],
) -> Decomposition:
    """Lift a decomposition of the kept sub-composition to the full one.

    qstar's vertices are numbered blockwise following the kept lists; every
    dropped vertex is re-added with the same cross-block in- and out-arcs as
    its block's first kept vertex.
    """
    if len(kept) != spec.t or any(len(k) == 0 for k in kept):
        raise ValueError("need a nonempty kept list per block")
    for i, k in enumerate(kept):
        if len(set(k)) != len(k) or not all(0 <= j < spec.sizes[i] for j in k):
            raise ValueError(f"kept list {i} needs distinct vertices of block {i}")
    sub_sizes = tuple(len(k) for k in kept)
    if qstar.n != sum(sub_sizes):
        raise ValueError("qstar order does not match the kept lists")
    if d.host != qstar:
        raise ValueError("decomposition host is not qstar")
    coord = CoordinateMap(sub_sizes).coord
    sides = ({(coord(u), coord(v)) for u, v in side} for side in d.parts)
    return _finish_composition(spec, range(spec.t), kept, *sides)


def _eq_sides(t: int) -> tuple[set, set]:
    """Side arc sets on the 2-per-block skeleton.

    Side 1 is a single Hamiltonian cycle of the skeleton for every t; side 2
    is one for even t and splits into two cycles C and Z for odd t, with slot
    (position mod 2) on C.
    """
    side1 = {((i, j), (i + 1, j)) for i in range(t - 1) for j in (0, 1)}
    side1 |= {((t - 1, 0), (0, 1)), ((t - 1, 1), (0, 0))}
    side2 = {((i, j), (i + 1, 1 - j)) for i in range(t - 1) for j in (0, 1)}
    side2 |= {((t - 1, 0), (0, 0)), ((t - 1, 1), (0, 1))}
    return side1, side2


def _case3_sides(t: int) -> tuple[set, set]:
    """Explicit skeleton sides for odd t with block sizes (2, 3, ..., 3)."""
    def chain(rows_slots: list[tuple[int, int]]) -> set:
        return set(zip(rows_slots, rows_slots[1:]))

    last = t - 1
    side1 = {
        ((0, 0), (1, 0)), ((last, 0), (0, 0)), ((0, 1), (1, 1)),
        ((0, 1), (1, 2)), ((last, 1), (0, 1)), ((last, 2), (0, 1)),
    }
    # straight paths through every middle row, one per slot
    side1 |= chain([(r, 0) for r in range(1, last)] + [(last, 1)])
    side1 |= chain([(r, 1) for r in range(1, last)] + [(last, 0)])
    side1 |= chain([(r, 2) for r in range(1, last)] + [(last, 2)])

    side2 = {
        ((0, 0), (1, 1)), ((0, 0), (1, 2)), ((last, 1), (0, 0)),
        ((last, 2), (0, 0)), ((0, 1), (1, 0)), ((last, 0), (0, 1)),
    }
    # zigzag paths alternating between two slots through the middle rows
    def zig(s_odd: int, s_even: int, final: Optional[tuple[int, int]]) -> set:
        seq = [(r, s_odd if r % 2 == 1 else s_even) for r in range(1, last)]
        if final is not None:
            seq.append(final)
        return chain(seq)

    side2 |= zig(0, 1, (last, 2))
    side2 |= zig(1, 0, (last, 1))
    side2 |= zig(2, 1, (last, 0))
    side2 |= zig(1, 2, None)
    return side1, side2


def _stitched(
    order: Sequence[int], kept: Sequence[Sequence[int]], extra1: set, extra2: set
) -> Skeleton:
    """The two-slot template: _eq_sides on the 2-per-block skeleton plus extra
    arcs per side; for odd t, side 2's extras stitch its cycles C and Z."""
    side1, side2 = _eq_sides(len(order))
    return order, kept, side1 | extra1, side2 | extra2


def _inner_stitch(kept: list[list[int]], k: int, arc: Arc, from_z: int) -> tuple:
    """Place the inner arc of the block at position k on its slots s -> 1 - s,
    s = (k + from_z) % 2, so that it crosses side 2's cycles C -> Z (from_z 0)
    or Z -> C (from_z 1); returns its skeleton arc."""
    s = (k + from_z) % 2
    kept[k][s], kept[k][1 - s] = arc
    return (k, s), (k, 1 - s)


def _case2_arc_pair(spec: CompositionSpec):
    """Arcs e_p, e_q usable as odd-t inner stitches: from two distinct inners,
    or the two arcs of a digon in a single inner."""
    with_arcs = [i for i, h in enumerate(spec.inners) if h.arcs]
    if len(with_arcs) >= 2:
        p, q = with_arcs[0], with_arcs[1]
        return p, min(spec.inners[p].arcs), q, min(spec.inners[q].arcs)
    for i in with_arcs:
        for u, v in sorted(spec.inners[i].arcs):
            if u < v and (v, u) in spec.inners[i].arcs:
                return i, (u, v), i, (v, u)
    return None


def decompose_comp_hamiltonian(
    spec: CompositionSpec, hcycle: Cycle
) -> Optional[Decomposition]:
    """Decompose T[H_1..H_t] given a Hamiltonian cycle of the outer digraph.

    Returns None when none of the three case preconditions applies.
    """
    sides = _hamiltonian_sides(spec, hcycle)
    return None if sides is None else _finish_composition(spec, *sides)


def _hamiltonian_sides(spec: CompositionSpec, hcycle: Cycle) -> Optional[Skeleton]:
    t = spec.t
    hcycle = tuple(hcycle)
    if len(hcycle) != t or not is_cycle_of(spec.outer, hcycle):
        raise ValueError("hcycle is not a Hamiltonian cycle of the outer digraph")
    sizes = spec.sizes
    if any(n < 2 for n in sizes):
        return None
    order = list(hcycle)

    if t % 2 == 0:
        return _stitched(order, [[0, 1]] * t, set(), set())

    pair = _case2_arc_pair(spec)
    if pair is not None:
        p, e_p, q, e_q = pair
        kept = [[0, 1] for _ in range(t)]
        # e_p crosses side 2's cycles C -> Z and e_q crosses Z -> C
        extras = {
            _inner_stitch(kept, order.index(b), e, from_z)
            for b, e, from_z in ((p, e_p, 0), (q, e_q, 1))
        }
        return _stitched(order, kept, set(), extras)

    small = [i for i in range(t) if sizes[i] == 2]
    if len(small) <= 1:
        # rotate the cycle so the (unique) smallest block sits at position 0
        anchor = small[0] if small else min(range(t), key=lambda i: (sizes[i], i))
        k = order.index(anchor)
        order = order[k:] + order[:k]
        if all(sizes[i] >= 3 for i in order[1:]):
            return order, [[0, 1]] + [[0, 1, 2]] * (t - 1), *_case3_sides(t)
    return None


def decompose_comp_strong_parts(spec: CompositionSpec) -> Optional[Decomposition]:
    """Strong outer and strong inners: side 1 is the first-vertex copy of T
    plus all inner arcs, side 2 everything else."""
    if spec.t < 2:
        raise ValueError("composition decomposer needs t >= 2")
    if not is_strong(spec.outer):
        return None
    if any(h.n < 2 or not is_strong(h) for h in spec.inners):
        return None
    q, cmap = compose(spec)
    emb = cmap.vid
    a1 = {(emb(u, 0), emb(v, 0)) for u, v in spec.outer.arcs}
    a1 |= {(emb(i, u), emb(i, v)) for i, h in enumerate(spec.inners) for u, v in h.arcs}
    return _checked(q, a1, q.arcs - a1)


def _s4_role_map(outer: Digraph, first_role_block: int) -> tuple[int, ...]:
    """The permutation sending reference roles 0..3 of s4() to outer's
    vertices, with role 0 on the given block: role 1 is its digon mate, roles
    3 and 2 its other out- and in-neighbour.  Unique, since Aut(S_4) is
    cyclic of order 4 and acts regularly."""
    b, arcs = first_role_block, outer.arcs
    mate = next(v for v in range(4) if (b, v) in arcs and (v, b) in arcs)
    out = next(v for v in range(4) if (b, v) in arcs and v != mate)
    inn = next(v for v in range(4) if (v, b) in arcs and v != mate)
    return b, mate, inn, out


def _part_a_sides(spec: CompositionSpec) -> Optional[Skeleton]:
    """Outer is 2-arc-strong semicomplete (all degrees >= 2), so at order 4 it
    has >= 8 arcs, and 8 only as S_4.  None when the composition is S_4."""
    T = spec.outer
    if not (T.n == 4 and T.m == 8):
        # the dispatcher ran the prechecks, and _finish_composition verifies
        arcs = T.sorted_arcs()
        status, i1, i2, _ = _kernel_py.search(T.n, arcs, 0)
        if status != _kernel_py.FOUND:
            raise ConstructionError(
                "2-arc-strong semicomplete outer (not S_4) must decompose"
            )
        side1 = {((arcs[k][0], 0), (arcs[k][1], 0)) for k in i1}
        side2 = {((arcs[k][0], 0), (arcs[k][1], 0)) for k in i2}
        return range(spec.t), [[0]] * spec.t, side1, side2
    if max(spec.sizes) == 1:
        return None
    # outer is S_4 itself: some block has >= 2 vertices, use the explicit
    # five-vertex skeleton with that block doubled; positions are S_4's roles
    big = min(i for i in range(spec.t) if spec.sizes[i] >= 2)
    side1 = {
        ((0, 0), (1, 0)), ((1, 0), (0, 1)), ((0, 1), (3, 0)),
        ((3, 0), (2, 0)), ((2, 0), (0, 0)),
    }
    side2 = {
        ((1, 0), (0, 0)), ((0, 0), (3, 0)), ((3, 0), (1, 0)),
        ((1, 0), (2, 0)), ((2, 0), (0, 1)), ((0, 1), (1, 0)),
    }
    return _s4_role_map(T, big), [[0, 1], [0], [0], [0]], side1, side2


def decompose_composition(spec: CompositionSpec) -> Optional[Decomposition]:
    """Decompose T[H_1..H_t] by the first route that applies: T 2-arc-strong
    semicomplete, then with every block of order >= 2 a Hamiltonian cycle of
    T or the characterization's remaining cases (T strong semicomplete), all
    parts strong.  Returns None ("not covered") when no route applies, which
    in the characterization's domain means the composition is an exception."""
    if spec.t < 2:
        raise ValueError("composition decomposer needs t >= 2")
    T = spec.outer
    if not is_strong(T):
        return None
    semicomplete = is_semicomplete(T)
    sides = None
    if semicomplete and is_k_arc_strong(T, 2):
        sides = _part_a_sides(spec)
    elif min(spec.sizes) >= 2 and (semicomplete or T.n <= 14):
        hc = (hamiltonian_cycle_semicomplete if semicomplete else hamiltonian_cycle_bruteforce)(T)
        if hc is not None:
            sides = _hamiltonian_sides(spec, hc)
        if sides is None and semicomplete:
            sides = _remaining_sides(spec, hc)
    if sides is None:
        return decompose_comp_strong_parts(spec)
    return _finish_composition(spec, *sides)


# ---------------------------------------------------------------------------
# characterization for strong semicomplete outers with nontrivial inners

EXCEPTION_TAGS = ("S4", "C3_K2_K2_K2", "C3_P2_K2_K2", "C3_K2_K2_K3")


@functools.cache
def exception_digraph(tag: str) -> Digraph:
    c3 = cycle(3)
    if tag == "S4":
        return s4()
    if tag == "C3_K2_K2_K2":
        return compose(CompositionSpec(c3, (empty(2), empty(2), empty(2)))).digraph
    if tag == "C3_P2_K2_K2":
        return compose(CompositionSpec(c3, (path(2), empty(2), empty(2)))).digraph
    if tag == "C3_K2_K2_K3":
        return compose(CompositionSpec(c3, (empty(2), empty(2), empty(3)))).digraph
    raise ValueError(f"unknown exception tag {tag!r}")


def match_exception(d: Digraph) -> Optional[tuple[str, dict[int, int]]]:
    """Tag and isomorphism witness if d is one of the four non-decomposable
    digraphs (S_4 or a characterization exception)."""
    for tag in EXCEPTION_TAGS:
        ex = exception_digraph(tag)
        if d.n == ex.n and d.m == ex.m:
            witness = find_isomorphism(d, ex)
            if witness is not None:
                return tag, witness
    return None


@dataclass(frozen=True)
class CharacterizationResult:
    decomposition: Optional[Decomposition] = None
    exception_tag: Optional[str] = None
    witness: Optional[dict[int, int]] = None

    @property
    def is_exception(self) -> bool:
        return self.exception_tag is not None


def characterize_semicomplete_composition(spec: CompositionSpec) -> CharacterizationResult:
    """Full characterization for strong semicomplete outer digraphs with
    every inner of order >= 2: either an exception tag or a verified
    decomposition built by the constructive branches."""
    T = spec.outer
    message = "requires strong semicomplete outer and nontrivial inners"
    if spec.t < 2 or min(spec.sizes) < 2 or not is_semicomplete(T):
        raise ValueError(message)
    # decompose_composition returns None for a non-strong outer
    dec = decompose_composition(spec)
    if dec is not None:
        return CharacterizationResult(decomposition=dec)
    if not is_strong(T):
        raise ValueError(message)
    matched = match_exception(compose(spec).digraph)
    if matched is None:
        raise ConstructionError("composition is neither an exception nor decomposed")
    tag, witness = matched
    return CharacterizationResult(exception_tag=tag, witness=witness)


def _remaining_sides(spec: CompositionSpec, hc: Cycle) -> Optional[Skeleton]:
    """Skeleton for a strong semicomplete outer with Hamiltonian cycle hc over
    nontrivial inners that _hamiltonian_sides does not cover; None for the
    exception shapes."""
    # odd t, at least two blocks of size 2, at most one inner with arcs (and
    # no digon in it)
    T, t = spec.outer, spec.t
    order = list(hc)

    if t >= 5:
        # a semicomplete outer has an arc between the blocks at cycle
        # distance two (positions 0 and 2)
        a, b = order[0], order[2]
        arc = (a, b) if (a, b) in T.arcs else (b, a)
    else:
        arc = min(T.arcs - set(cycle_arcs(hc)), default=None)
    if arc is not None:
        # its copies from C to Z and from Z to C stitch side 2's cycles
        pa, pb = (order.index(v) for v in arc)
        extras = {((pa, pa % 2), (pb, 1 - pb % 2)), ((pa, 1 - pa % 2), (pb, pb % 2))}
        return _stitched(order, [[0, 1]] * t, set(), extras)

    # outer is exactly the directed triangle; rotate the big block to the end
    sizes = spec.sizes
    anchor = max(range(3), key=lambda i: (sizes[i], -i))
    k = (order.index(anchor) + 1) % 3
    order = order[k:] + order[:k]
    m = sizes[order[2]]
    # a detour (1, s) -> (2, c) -> (0, s) through the big block's slot c >= 2
    via = lambda s, c: {((1, s), (2, c)), ((2, c), (0, s))}

    if m >= 4:
        kept = [[0, 1], [0, 1], [0, 1, 2, 3]]
        return _stitched(order, kept, via(0, 3) | via(1, 2), via(0, 2) | via(1, 3))

    arc_blocks = [i for i in range(3) if spec.inners[i].arcs]
    if m != 3 or not arc_blocks:
        # an arcless (2,2,<=3) composition or (2,2,2) with one lone inner arc
        # is an exception; an inner digon was repaired by _hamiltonian_sides
        return None
    blk = arc_blocks[0]
    kept = [[0, 1], [0, 1], [0, 1, 2]]
    # side 2 runs C -> Z through the big block's third vertex and needs the
    # single inner arc to get back from Z to C
    inner = _inner_stitch(kept, order.index(blk), min(spec.inners[blk].arcs), 1)
    kept[2][2] = 3 - kept[2][0] - kept[2][1]  # the big block's third vertex
    return _stitched(order, kept, via(0, 2), via(1, 2) | {inner})


# ---------------------------------------------------------------------------
# Cartesian products

def _cycle_square_sides(cyc: Sequence[int], emb) -> tuple[set[Arc], set[Arc]]:
    """Two arc-disjoint Hamiltonian cycles partitioning C_n-square-C_n, with
    the cycle's vertices standing in for 1..n."""
    n = len(cyc)
    g_arc = lambda i, j: (emb(cyc[i], cyc[j % n]), emb(cyc[(i + 1) % n], cyc[j % n]))
    h_arc = lambda i, j: (emb(cyc[i % n], cyc[j]), emb(cyc[i % n], cyc[(j + 1) % n]))
    all_arcs = {g_arc(i, j) for i in range(n) for j in range(n)}
    all_arcs |= {h_arc(i, j) for i in range(n) for j in range(n)}
    side1: set[Arc] = set()
    for j1 in range(1, n + 1):  # 1-based column index as in the construction
        skip = n - j1 - 1 if j1 <= n - 1 else n - 1  # 0-based row of the removed arc
        for i in range(n):
            if i != skip:
                side1.add(g_arc(i, j1 - 1))
    side1 |= {h_arc(n - j1 - 1, j1 - 1) for j1 in range(1, n)}
    side1.add(h_arc(n - 1, n - 1))
    return side1, all_arcs - side1


def decompose_cn_square(n: int) -> Decomposition:
    """C_n square C_n as two arc-disjoint Hamiltonian cycles."""
    if n < 2:
        raise ValueError("needs n >= 2")
    return decompose_cartesian_square(cycle(n), CycleCover((tuple(range(n)),)))


def _normalize_cycle(cyc: Sequence[int]) -> tuple[int, ...]:
    cyc = tuple(cyc)
    k = cyc.index(min(cyc))
    return cyc[k:] + cyc[:k]


def _order_cover(cover: CycleCover) -> list[tuple[int, ...]]:
    cycles = sorted(_normalize_cycle(c) for c in cover.cycles)
    ordered = [cycles.pop(0)]
    touched = set(ordered[0])
    while cycles:
        nxt = next((c for c in cycles if touched & set(c)), None)
        if nxt is None:
            raise Refusal("not-covered", "cover union disconnected; construction not defined")
        cycles.remove(nxt)
        ordered.append(nxt)
        touched |= set(nxt)
    return ordered


def decompose_cartesian_square(g: Digraph, cover: CycleCover) -> Decomposition:
    """G square G via induction over an arc-disjoint cycle cover whose union
    is connected."""
    _require_strong(g)
    seen_arcs: set[Arc] = set()
    seen_vertices: set[int] = set()
    for k, cyc in enumerate(cover.cycles):
        arcs = cover.arcs_of(k)
        if not is_cycle_of(g, cyc):
            raise ValueError(f"cover cycle {k} is not a cycle of the digraph")
        if seen_arcs & set(arcs):
            raise ValueError("cover cycles are not arc-disjoint")
        seen_arcs |= set(arcs)
        seen_vertices |= set(cyc)
    if seen_vertices != set(range(g.n)):
        raise ValueError("cover does not cover all vertices")

    ordered = _order_cover(cover)
    host, cmap = cartesian_product(g, g)
    emb = cmap.vid

    first = ordered[0]
    d1, d2 = _cycle_square_sides(first, emb)
    vset = set(first)
    arcs_so_far = set(cycle_arcs(first))

    for cyc in ordered[1:]:
        cyc_arcs = set(cycle_arcs(cyc))
        cset = set(cyc)
        if vset <= cset:
            d1, d2 = _cycle_square_sides(cyc, emb)
        elif cset <= vset:
            pass
        else:
            p1, p2 = _cycle_square_sides(cyc, emb)
            d1 |= p1
            d2 |= p2
            new = sorted(cset - vset)
            old_only = sorted(vset - cset)
            for j in new:  # copies of the current union in the new layers
                for x, y in arcs_so_far:
                    d1.add((emb(x, j), emb(y, j)))
                    d1.add((emb(j, x), emb(j, y)))
            for j in old_only:  # copies of the new cycle in the untouched layers
                for x, y in cyc_arcs:
                    d2.add((emb(x, j), emb(y, j)))
                    d2.add((emb(j, x), emb(j, y)))
        vset |= cset
        arcs_so_far |= cyc_arcs
    return _checked(host, d1, d2)


def decompose_cartesian_with_good_factor(
    g: Digraph, dg: Decomposition, h: Digraph
) -> Decomposition:
    """G square H when G already has a good decomposition and H is strong."""
    if dg.host != g or not verify_decomposition(dg):
        raise ValueError("dg must be a valid decomposition of g")
    if g.n < 2 or h.n < 2 or not is_strong(h):
        raise Refusal("not-covered", _NOT_STRONG)
    return _times_strong(dg, h)


def _times_strong(dg: Decomposition, h: Digraph) -> Decomposition:
    """The H-copy at the first vertex of G = dg.host, and side-1 copies in
    every H-layer, against the rest of G square H."""
    host, cmap = cartesian_product(dg.host, h)
    emb = cmap.vid
    a1 = {(emb(0, z), emb(0, w)) for z, w in h.arcs}
    a1 |= {(emb(x, j), emb(y, j)) for x, y in dg.a1 for j in range(h.n)}
    return _checked(host, a1, host.arcs - a1)


def decompose_cartesian_power(g: Digraph, k: int) -> Decomposition:
    """G to the Cartesian power k >= 2 for strong g with a cycle cover."""
    if k < 2:
        raise ValueError("needs k >= 2")
    _check_power_order(g.n, k)
    _require_strong(g)
    cover = cycle_cover(g)
    if cover is None:
        raise CycleCoverInfeasible(cover_cut(g))
    dec = decompose_cartesian_square(g, cover)
    for _ in range(k - 2):
        dec = _times_strong(dec, g)
    return dec


# ---------------------------------------------------------------------------
# strong products

def _boxtimes_base_side1(gcyc: Sequence[int], hcyc: Sequence[int], emb) -> set[Arc]:
    """First side for a product of two cycles: every G-layer cycle plus one
    diagonal arc per H-step threading the layers into a strong subdigraph."""
    n, m = len(gcyc), len(hcyc)
    side1: set[Arc] = set()
    for j in range(m):
        for i in range(n):
            side1.add((emb(gcyc[i], hcyc[j]), emb(gcyc[(i + 1) % n], hcyc[j])))
    for j in range(m - 1):
        side1.add((emb(gcyc[n - 1], hcyc[j]), emb(gcyc[0], hcyc[j + 1])))
    side1.add((emb(gcyc[0], hcyc[m - 1]), emb(gcyc[1], hcyc[0])))
    return side1


def decompose_cn_boxtimes_cm(n: int, m: int) -> Decomposition:
    """Strong product of two directed cycles."""
    if n < 2 or m < 2:
        raise ValueError("needs n, m >= 2")
    return decompose_strong_product(cycle(n), cycle(m))


def decompose_strong_product(g: Digraph, h: Digraph) -> Decomposition:
    """Strong product of any two strong digraphs, by ear induction: side 1 is
    the base of the start cycles p0, q0 plus a copy of every later ear of g in
    each layer of q0 and of h in every layer of g, where a factor's later ears
    are its arcs off the start cycle; side 2 is the complement."""
    _require_strong(g, h)
    p0, q0 = _some_cycle(g), _some_cycle(h)
    host, cmap = strong_product(g, h)
    emb = cmap.vid
    a1 = _boxtimes_base_side1(p0, q0, emb)
    a1 |= {(emb(x, j), emb(y, j)) for x, y in g.arcs - set(cycle_arcs(p0)) for j in q0}
    a1 |= {(emb(i, z), emb(i, w)) for z, w in h.arcs - set(cycle_arcs(q0)) for i in range(g.n)}
    return _checked(host, a1, host.arcs - a1)


# ---------------------------------------------------------------------------
# lexicographic products

def decompose_lexicographic(
    g: Digraph, h: Digraph, ell_parts: Optional[Sequence[frozenset[Arc]]] = None
) -> Decomposition:
    """Decomposition of the lexicographic product into ell+1 parts, given ell
    pairwise arc-disjoint strong spanning arc sets of h (default: h itself).

    Two parts come from the strong product of g with h's first part; each
    further part is its own block copies threaded through the composition
    arcs that shadow it."""
    _require_strong(g, h)
    if ell_parts is None:
        parts_h = [frozenset(h.arcs)]
    else:
        parts_h = [frozenset(p) for p in ell_parts]
    if not parts_h:
        raise ValueError("needs at least one arc set of h")
    claimed: set[Arc] = set()
    for k, part in enumerate(parts_h):
        if not part <= h.arcs:
            raise ValueError(f"part {k} uses arcs outside h")
        if claimed & part:
            raise ValueError("provided parts overlap")
        if _unreachable_pair(h.n, *_rows(h.n, part)) is not None:
            raise ValueError(f"part {k} is not strong spanning")
        claimed |= part

    host, cmap = lexicographic_product(g, h)
    emb = cmap.vid
    base = decompose_strong_product(g, Digraph(h.n, parts_h[0]))
    out = list(base.parts)
    shadows = [(x, x) for x in range(g.n)] + sorted(g.arcs)  # blocks, then G-arcs
    for part in parts_h[1:]:
        out.append({(emb(x, z), emb(y, w)) for x, y in shadows for z, w in part})
    return _checked(host, *out)


# ---------------------------------------------------------------------------
# number-theoretic Hamiltonicity of cycle products

def trotter_erdos_hamiltonian(p: int, q: int) -> bool:
    """C_p square C_q is Hamiltonian iff gcd(p,q) = d1 + d2 >= 2 with
    gcd(p, d1) = gcd(q, d2) = 1 for some nonnegative d1, d2."""
    if p < 2 or q < 2:
        raise ValueError("needs p, q >= 2")
    g = math.gcd(p, q)
    if g < 2:
        return False
    return any(
        math.gcd(p, d1) == 1 and math.gcd(q, g - d1) == 1 for d1 in range(g + 1)
    )
