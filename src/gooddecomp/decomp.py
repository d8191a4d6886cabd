"""Good decompositions: verification and the constructive decomposers.

A good decomposition of a digraph is a pair of disjoint arc sets A1, A2 such
that both (V, A1) and (V, A2) are strong spanning subdigraphs; arcs may stay
unused.  A Decomposition generalizes this to k >= 2 pairwise disjoint parts
A1..Ak (the lexicographic product packs ell+1 of them).  Every decomposer here
is fail-closed: results are verified before they are returned and a
ConstructionError signals an internal bug.  The verdict is kept on the
Decomposition, so verify_decomposition on a returned value reads it back
instead of checking again.  A decomposer whose hypothesis fails raises
Refusal, with the machine-readable reason the CLI prints.

Every composition route builds skeleton sides on kept vertices per block;
_composition_route names the first that applies, and _finish_composition, the
one lift and one verification of every route, extends them by twins.  What a
route reads of the outer digraph alone (its arc strength, whether it is
semicomplete, a Hamiltonian cycle, part (a)'s skeleton sides) is computed once
per outer value and kept for the last OUTER_MEMO_SIZE outers.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import AbstractSet, Iterable, NamedTuple, Optional, Sequence

from . import _kernel_py
from .builders import (
    CompositionSpec,
    _cartesian_arcs,
    _check_power_order,
    _strong_arcs,
    cartesian_power,
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
    is_semicomplete,
    is_strong,
    path,
    s4,
    _arc_strength,
    _Value,
    _rows,
    _unreachable_pair,
)
from .flows import CycleCover, cover_cut, cycle_cover
from .structure import (
    ConstructionError,
    Cycle,
    _hamiltonian_cycle_semicomplete,
    _some_cycle,
    cycle_arcs,
    hamiltonian_cycle_bruteforce,
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


def _require_strong(*factors: Digraph) -> None:
    if any(f.n < 2 or not is_strong(f) for f in factors):
        raise Refusal("not-covered", "digraph is not strong of order >= 2")


class Decomposition(_Value):
    """Pairwise disjoint arc sets parts[0..k-1] (sections A1..Ak) of host,
    k >= 2, each meant to span a strong subdigraph; verify_decomposition
    checks that once and keeps the verdict on the value, outside its fields."""

    __slots__ = ("host", "parts", "_verdict")
    _fields = ("host", "parts")

    def __init__(self, host: Digraph, parts: Iterable[Iterable[Arc]]):
        parts = tuple(map(frozenset, parts))
        if len(parts) < 2:
            raise ValueError("a decomposition needs at least two parts")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "parts", parts)
        _set_verdict(self, None)

    @property
    def a1(self) -> frozenset[Arc]:
        return self.parts[0]

    @property
    def a2(self) -> frozenset[Arc]:
        return self.parts[1]


# assignment raises, so the verdict is written through its slot's own setter
_set_verdict = Decomposition._verdict.__set__


class VerifyResult(NamedTuple):
    ok: bool
    reason: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


_VERIFIED = VerifyResult(True)


def verify(host: Digraph, *parts: frozenset[Arc]) -> VerifyResult:
    """Check that parts A1..Ak (k >= 2) are pairwise disjoint arc sets of
    host spanning strong subdigraphs, naming the first violation (a stray or
    shared arc by the smallest one)."""
    if len(parts) < 2:
        return VerifyResult(False, f"needs at least two parts, got {len(parts)}")
    sides = [frozenset(side) for side in parts]
    for k, side in enumerate(sides, start=1):
        if not side <= host.arcs:
            return VerifyResult(False, f"A{k} arc {min(side - host.arcs)} not in host")
    for (k1, s1), (k2, s2) in itertools.combinations(enumerate(sides, start=1), 2):
        if not s1.isdisjoint(s2):
            which = "" if len(parts) == 2 else f" A{k1} and A{k2}"
            return VerifyResult(False, f"sides{which} overlap on arc {min(s1 & s2)}")
    for k, side in enumerate(sides, start=1):
        pair = _unreachable_pair(host.n, *_rows(host.n, side))
        if pair is not None:
            return VerifyResult(False, f"A{k} not strong: no path {pair[0]}->{pair[1]}")
    return _VERIFIED


def verify_decomposition(d: Decomposition) -> VerifyResult:
    """verify(d.host, *d.parts), run on d's first call only: host and parts
    are read-only, so the verdict kept on d stays true to it."""
    if d._verdict is None:
        _set_verdict(d, verify(d.host, *d.parts))
    return d._verdict


def _checked(host: Digraph, *parts) -> Decomposition:
    d = Decomposition(host, parts)
    res = verify_decomposition(d)
    if not res:
        raise ConstructionError(f"construction failed verification: {res.reason}")
    return d


# ---------------------------------------------------------------------------
# composition routes: a skeleton is (order, kept, side1, side2), whose vertices
# are (position, slot) pairs: position p stands for block order[p] and slot s
# for that block's vertex kept[p][s].

Skeleton = tuple[Sequence[int], Sequence[Sequence[int]], set, set]

#: distinct outer digraphs each route memo keeps, least recently used out first
OUTER_MEMO_SIZE = 64


@functools.lru_cache(maxsize=OUTER_MEMO_SIZE)
def _outer_facts(T: Digraph) -> tuple[int, bool]:
    """(min(2, arc strength of T), whether T is semicomplete), T of order >= 2."""
    return _arc_strength(T, 2), is_semicomplete(T)


@functools.lru_cache(maxsize=OUTER_MEMO_SIZE)
def _outer_cycle(T: Digraph) -> Optional[Cycle]:
    """The route's Hamiltonian cycle of T, or None: the semicomplete search if
    T is semicomplete, else the brute force."""
    semicomplete = _outer_facts(T)[1]
    return (_hamiltonian_cycle_semicomplete if semicomplete else hamiltonian_cycle_bruteforce)(T)


@functools.lru_cache(maxsize=OUTER_MEMO_SIZE)
def _part_a_skeleton(T: Digraph, c: tuple[int, ...]) -> tuple[frozenset, frozenset]:
    """The kernel's sides of T with c[p] arcless vertices for vertex p,
    numbered blockwise as a composition is, as (position, slot) arcs."""
    coord = [(p, s) for p in range(T.n) for s in range(c[p])]  # blockwise
    n = len(coord)
    # no inner arc, since T has no loop; listed sorted, as the kernel takes them
    arcs = [(x, y) for x in range(n) for y in range(n) if (coord[x][0], coord[y][0]) in T.arcs]
    # the dispatcher showed T 2-arc-strong, so the skeleton is strong, and
    # _finish_composition verifies
    status, a1, a2, _, _ = _kernel_py.search(n, arcs, _rows(n, arcs))
    if status != _kernel_py.FOUND:
        raise ConstructionError("the part (a) skeleton must decompose")
    return tuple(frozenset((coord[x], coord[y]) for x, y in side) for side in (a1, a2))


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
    off = cmap.offsets
    # slots[p][s]: the vertices that slot s of position p stands for; slot 0
    # also stands for the twins, its block's vertices that are not kept
    slots = []
    for p, b in enumerate(order):
        first, *rest = (off[b] + j for j in kept[p])
        twins = [off[b] + j for j in range(cmap.sizes[b]) if j not in kept[p]]
        slots.append([[first, *twins], *([v] for v in rest)])

    def lift(side) -> set[Arc]:
        out: set[Arc] = set()
        for (p1, s1), (p2, s2) in side:
            if p1 == p2:
                out.add((slots[p1][s1][0], slots[p2][s2][0]))
            else:
                out.update(itertools.product(slots[p1][s1], slots[p2][s2]))
        return out

    return _checked(q, *map(lift, sides))


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


def decompose_comp_hamiltonian(spec: CompositionSpec, hcycle: Cycle) -> Decomposition:
    """Decompose T[H_1..H_t] given a Hamiltonian cycle of the outer digraph;
    Refusal "not-covered" when none of the three case preconditions applies."""
    hcycle = tuple(hcycle)
    if len(hcycle) != spec.t or not is_cycle_of(spec.outer, hcycle):
        raise ValueError("hcycle is not a Hamiltonian cycle of the outer digraph")
    sides = _hamiltonian_sides(spec, hcycle)
    if sides is None:
        raise Refusal("not-covered")
    return _finish_composition(spec, *sides)


def _hamiltonian_sides(spec: CompositionSpec, hcycle: Cycle) -> Optional[Skeleton]:
    t, sizes = spec.t, spec.sizes
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


def _strong_parts_sides(spec: CompositionSpec) -> Optional[Skeleton]:
    """Strong outer and strong inners: side 1 is the first-vertex copy of T
    plus all inner arcs, side 2 everything else."""
    if any(h.n < 2 or not is_strong(h) for h in spec.inners):
        return None
    kept = [range(n) for n in spec.sizes]  # every vertex, so the lift copies none
    side1 = {((u, 0), (v, 0)) for u, v in spec.outer.arcs}
    side1 |= {((i, u), (i, v)) for i, h in enumerate(spec.inners) for u, v in h.arcs}
    cross = {((u, a), (v, b)) for u, v in spec.outer.arcs for a in kept[u] for b in kept[v]}
    return range(spec.t), kept, side1, cross - side1


def _part_a_sides(spec: CompositionSpec) -> Optional[Skeleton]:
    """Sides the kernel finds on one arcless skeleton, numbered blockwise as a
    composition is: T[K_1..K_1], or, if T is S_4 (2-arc-strong semicomplete
    of order 4 with 8 arcs), S_4 with its first block of order >= 2 as two
    vertices.  None when the composition is S_4 itself.

    The skeleton keeps no inner arc: the lift gives the twins only slot 0's
    cross-block arcs, so an inner arc that was slot 0's only in- or out-arc
    on a side would leave the twins without one."""
    T, t = spec.outer, spec.t
    c = [1] * t  # skeleton vertices per block
    if T.n == 4 and T.m == 8:
        if max(spec.sizes) == 1:
            return None
        c[next(p for p in range(t) if spec.sizes[p] >= 2)] = 2
    return range(t), [range(k) for k in c], *_part_a_skeleton(T, tuple(c))


def _composition_route(spec: CompositionSpec) -> Optional[tuple[str, Skeleton]]:
    """Name and skeleton of the first route that applies to a strong T, else
    None: T 2-arc-strong semicomplete, then with all blocks of order >= 2 a
    Hamiltonian cycle or the remaining cases (T semicomplete), all parts strong."""
    if spec.t < 2:
        raise ValueError("composition decomposer needs t >= 2")
    T = spec.outer
    lam, semicomplete = _outer_facts(T)
    if lam == 0:  # not strong
        return None
    if semicomplete and lam == 2 and (sides := _part_a_sides(spec)) is not None:
        return "composition/part-a", sides
    if min(spec.sizes) >= 2 and (semicomplete or T.n <= 14):
        hc = _outer_cycle(T)
        if hc is not None and (sides := _hamiltonian_sides(spec, hc)) is not None:
            return "composition/hamiltonian", sides
        if semicomplete and (sides := _remaining_sides(spec, hc)) is not None:
            return "composition/remaining", sides
    sides = _strong_parts_sides(spec)
    return None if sides is None else ("composition/strong-parts", sides)


def decompose_composition(spec: CompositionSpec) -> Decomposition:
    """T[H_1..H_t] by _composition_route.  If no route applies, Refusal
    "exception:<tag>" when the composition is one of the four exceptions,
    else "not-covered"."""
    route = _composition_route(spec)
    if route is None:
        _refuse_exception(compose(spec).digraph)
        raise Refusal("not-covered")
    return _finish_composition(spec, *route[1])


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


def _refuse_exception(d: Digraph) -> None:
    """Refuse d by name if it is one of the four non-decomposable digraphs."""
    matched = match_exception(d)
    if matched is not None:
        raise Refusal(f"exception:{matched[0]}")


class CharacterizationResult(NamedTuple):
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
    # _outer_facts is (arc strength, semicomplete): both must hold
    if spec.t < 2 or min(spec.sizes) < 2 or not all(_outer_facts(spec.outer)):
        raise ValueError("requires strong semicomplete outer and nontrivial inners")
    route = _composition_route(spec)
    if route is not None:
        return CharacterizationResult(decomposition=_finish_composition(spec, *route[1]))
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

def _cycle_square_sides(cyc: Sequence[int], k: int) -> tuple[set[Arc], set[Arc]]:
    """Two arc-disjoint Hamiltonian cycles partitioning C_n-square-C_n, with
    the cycle's vertices (of an order-k factor) standing in for 1..n."""
    n = len(cyc)
    layer = [x * k for x in cyc]  # id of (cyc[i], 0)
    steps = list(zip(layer, layer[1:] + layer[:1]))
    side1: set[Arc] = set()
    side2: set[Arc] = set()
    for j, (z, w) in enumerate(zip(cyc, cyc[1:] + cyc[:1])):
        # column j's G-arcs go to side 1 and its H-arcs to side 2, except at
        # row skip, where the two swap
        g = [(x + z, y + z) for x, y in steps]
        h = [(x + z, x + w) for x, _ in steps]
        skip = (n - j - 2) % n
        g[skip], h[skip] = h[skip], g[skip]
        side1.update(g)
        side2.update(h)
    return side1, side2


def decompose_cn_square(n: int) -> Decomposition:
    """C_n square C_n as two arc-disjoint Hamiltonian cycles."""
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
    sides = _square_sides(g, cover)
    return _checked(cartesian_product(g, g).digraph, *sides)


def _square_sides(g: Digraph, cover: CycleCover) -> tuple[set[Arc], set[Arc]]:
    """decompose_cartesian_square's two sides, unverified, for the callers'
    one _checked; raises ValueError if cover is no such cover of g."""
    seen_arcs: set[Arc] = set()
    seen_vertices: set[int] = set()
    for k, cyc in enumerate(cover.cycles):
        arcs = cycle_arcs(cyc)
        if not is_cycle_of(g, cyc):
            raise ValueError(f"cover cycle {k} is not a cycle of the digraph")
        if seen_arcs & set(arcs):
            raise ValueError("cover cycles are not arc-disjoint")
        seen_arcs |= set(arcs)
        seen_vertices |= set(cyc)
    if seen_vertices != set(range(g.n)):
        raise ValueError("cover does not cover all vertices")

    ordered = _order_cover(cover)
    k = g.n

    first = ordered[0]
    d1, d2 = _cycle_square_sides(first, k)
    vset = set(first)
    arcs_so_far = set(cycle_arcs(first))

    for cyc in ordered[1:]:
        cyc_arcs = set(cycle_arcs(cyc))
        cset = set(cyc)
        if vset <= cset:
            d1, d2 = _cycle_square_sides(cyc, k)
        elif cset <= vset:
            pass
        else:
            p1, p2 = _cycle_square_sides(cyc, k)
            d1 |= p1
            d2 |= p2
            # copies of the current union in the new layers, and of the new
            # cycle in the untouched ones
            new, old_only = cset - vset, vset - cset
            d1 |= _cartesian_arcs(arcs_so_far, new, arcs_so_far, new, k)
            d2 |= _cartesian_arcs(cyc_arcs, old_only, cyc_arcs, old_only, k)
        vset |= cset
        arcs_so_far |= cyc_arcs
    return d1, d2


def _times_strong(a1: AbstractSet[Arc], h: Digraph) -> set[Arc]:
    """Side 1 of G square H from side 1 of G: the H-copy at G's first vertex
    and copies of a1 in every H-layer; side 2 is the rest, unverified."""
    return _cartesian_arcs(a1, (0,), h.arcs, range(h.n), h.n)


def decompose_cartesian_power(g: Digraph, k: int) -> Decomposition:
    """G to the Cartesian power k >= 2 for strong g with a cycle cover."""
    if k < 2:
        raise ValueError("needs k >= 2")
    _check_power_order(g.n, k)
    _require_strong(g)
    cover = cycle_cover(g)
    if cover is None:
        raise CycleCoverInfeasible(cover_cut(g))
    a1, a2 = _square_sides(g, cover)
    for _ in range(k - 2):
        a1 = _times_strong(a1, g)
    host = cartesian_power(g, k).digraph
    return _checked(host, a1, a2 if k == 2 else host.arcs - a1)


# ---------------------------------------------------------------------------
# strong products

def _boxtimes_base_side1(gcyc: Sequence[int], hcyc: Sequence[int], k: int) -> set[Arc]:
    """First side for a product of two cycles, H of order k: every G-layer
    cycle plus one diagonal arc per H-step threading the layers together."""
    n, m = len(gcyc), len(hcyc)
    layer = [x * k for x in gcyc]  # id of (gcyc[i], 0)
    side1 = _cartesian_arcs(cycle_arcs(gcyc), (), (), hcyc, k)
    side1 |= {(layer[n - 1] + hcyc[j], layer[0] + hcyc[j + 1]) for j in range(m - 1)}
    side1.add((layer[0] + hcyc[m - 1], layer[1] + hcyc[0]))
    return side1


def decompose_cn_boxtimes_cm(n: int, m: int) -> Decomposition:
    """Strong product of two directed cycles."""
    return decompose_strong_product(cycle(n), cycle(m))


def _strong_sides(g: Digraph, h: Digraph, arcs: AbstractSet[Arc]) -> tuple[set[Arc], set[Arc]]:
    """decompose_strong_product's side 1 and its complement in arcs, the arc
    set of G strong-times H; unverified, for the callers' one _checked."""
    p0, q0 = _some_cycle(g), _some_cycle(h)
    a1 = _boxtimes_base_side1(p0, q0, h.n)
    a1 |= _cartesian_arcs(g.arcs - set(cycle_arcs(p0)), range(g.n),
                          h.arcs - set(cycle_arcs(q0)), q0, h.n)
    return a1, arcs - a1


def decompose_strong_product(g: Digraph, h: Digraph) -> Decomposition:
    """Strong product of any two strong digraphs, by ear induction: side 1 is
    the base of the start cycles p0, q0 plus a copy of every later ear of g in
    each layer of q0 and of h in every layer of g, where a factor's later ears
    are its arcs off the start cycle; side 2 is the complement."""
    _require_strong(g, h)
    host = strong_product(g, h).digraph
    return _checked(host, *_strong_sides(g, h, host.arcs))


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
        # h itself is the one part, strong: _require_strong has just shown it
        parts_h, h0 = [h.arcs], h
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
        h0 = Digraph(h.n, parts_h[0])

    host = lexicographic_product(g, h).digraph
    out = list(_strong_sides(g, h0, _strong_arcs(g, h0)))
    shadows = [(x, x) for x in range(g.n)] + sorted(g.arcs)  # blocks, then G-arcs
    for part in parts_h[1:]:
        out.append({(x * h.n + z, y * h.n + w) for x, y in shadows for z, w in part})
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
