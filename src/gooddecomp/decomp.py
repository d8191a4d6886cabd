"""Good decompositions: verification and the constructive decomposers.

A good decomposition of a digraph is a pair of disjoint arc sets A1, A2 such
that both (V, A1) and (V, A2) are strong spanning subdigraphs; arcs may stay
unused.  A Decomposition generalizes this to k >= 2 pairwise disjoint parts
A1..Ak (the lexicographic product packs ell+1 of them).  Every decomposer here
is fail-closed: results are verified before they are returned and a
ConstructionError signals an internal bug.

Composition constructions work on the two-vertices-per-block skeleton (plus
explicitly consumed inner arcs) and are lifted to the full composition by the
twin-extension of extend_by_twins.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .builders import (
    Built,
    CompositionSpec,
    cartesian_product,
    compose,
    composition_coords,
    lexicographic_product,
    strong_product,
)
from .digraph import (
    Arc,
    Digraph,
    cycle,
    empty,
    find_isomorphism,
    is_isomorphic_small,
    is_k_arc_strong,
    is_semicomplete,
    is_strong,
    path,
    s4,
    _bfs,
)
from .flows import CycleCover, cycle_cover, cover_network, infeasibility_cut
from .structure import (
    Cycle,
    cycle_arcs,
    ear_decomposition,
    hamiltonian_cycle_bruteforce,
    hamiltonian_cycle_semicomplete,
    is_cycle_of,
)

Coord = tuple[int, int]
CoordArc = tuple[Coord, Coord]


class ConstructionError(RuntimeError):
    """A constructive proof produced an invalid result (internal bug)."""


class CycleCoverInfeasible(ValueError):
    """No arc-disjoint cycle cover exists; carries the failing cut side."""

    def __init__(self, message: str, cut: frozenset):
        super().__init__(message)
        self.cut = cut


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
        sub = Digraph(host.n, side)
        if not is_strong(sub):
            pair = _unreachable_pair(sub)
            return VerifyResult(False, f"{name} not strong: no path {pair[0]}->{pair[1]}")
    return VerifyResult(True)


def _unreachable_pair(d: Digraph) -> tuple[int, int]:
    """The first pair (0, v) or else (v, 0) with no path, for a non-strong d."""
    everyone = set(range(d.n))
    unreached = everyone.difference(_bfs(d, 0))
    if unreached:
        return (0, min(unreached))
    return (min(everyone.difference(_bfs(d, 0, reverse=True))), 0)


def verify_decomposition(d: Decomposition) -> VerifyResult:
    return verify(d.host, *d.parts)


def _checked(host: Digraph, *parts) -> Decomposition:
    parts = tuple(frozenset(p) for p in parts)
    res = verify(host, *parts)
    if not res:
        raise ConstructionError(f"construction failed verification: {res.reason}")
    return Decomposition(host, parts)


# ---------------------------------------------------------------------------
# twin extension: duplicating kept block vertices preserves good decompositions

def _expand_twins(
    side: set[CoordArc], kept: dict[int, Sequence[int]], sizes: Sequence[int]
) -> set[CoordArc]:
    """Give every non-kept block vertex the same cross-block arcs as its
    block's first kept vertex.  Inner arcs are never duplicated."""
    twins = {
        i: [j for j in range(sizes[i]) if j not in set(kept[i])] for i in kept
    }
    out: set[CoordArc] = set()
    for (i, ji), (p, jp) in side:
        out.add(((i, ji), (p, jp)))
        if i == p:
            continue
        tails = [ji] + (twins[i] if ji == kept[i][0] else [])
        heads = [jp] + (twins[p] if jp == kept[p][0] else [])
        for a in tails:
            for b in heads:
                out.add(((i, a), (p, b)))
    return out


def _coords_to_arcs(side: set[CoordArc], cmap) -> set[Arc]:
    return {(cmap.vid(*x), cmap.vid(*y)) for x, y in side}


def _finish_composition(
    spec: CompositionSpec,
    built: Built,
    side1: set[CoordArc],
    side2: set[CoordArc],
    kept: dict[int, Sequence[int]],
) -> Decomposition:
    """Lift skeleton sides on the kept vertices to the composition built
    from spec."""
    q, cmap = built
    sizes = spec.sizes
    a1 = _coords_to_arcs(_expand_twins(side1, kept, sizes), cmap)
    a2 = _coords_to_arcs(_expand_twins(side2, kept, sizes), cmap)
    return _checked(q, a1, a2)


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
    sub_sizes = tuple(len(k) for k in kept)
    if qstar.n != sum(sub_sizes):
        raise ValueError("qstar order does not match the kept lists")
    if d.host != qstar:
        raise ValueError("decomposition host is not qstar")
    sub_map = composition_coords(sub_sizes)

    def to_coords(side) -> set[CoordArc]:
        out = set()
        for u, v in side:
            (i, a), (p, b) = sub_map.coord(u), sub_map.coord(v)
            out.add(((i, kept[i][a]), (p, kept[p][b])))
        return out

    kept_dict = {i: list(k) for i, k in enumerate(kept)}
    return _finish_composition(spec, compose(spec), to_coords(d.a1), to_coords(d.a2), kept_dict)


# ---------------------------------------------------------------------------
# skeleton constructions for compositions: each returns (side1, side2, kept)
# in coordinate space for _finish_composition to lift

Skeleton = tuple[set[CoordArc], set[CoordArc], dict[int, Sequence[int]]]

def _eq_sides(t: int) -> tuple[set, set]:
    """Side arc sets on the 2-per-block skeleton, in (position, slot) space.

    Side 1 is a single Hamiltonian cycle of the skeleton for every t; side 2
    is one for even t and splits into two cycles C and Z for odd t, with slot
    (position mod 2) on C.
    """
    side1 = {((i, j), (i + 1, j)) for i in range(t - 1) for j in (0, 1)}
    side1 |= {((t - 1, 0), (0, 1)), ((t - 1, 1), (0, 0))}
    side2 = {((i, j), (i + 1, 1 - j)) for i in range(t - 1) for j in (0, 1)}
    side2 |= {((t - 1, 0), (0, 0)), ((t - 1, 1), (0, 1))}
    return side1, side2


def _pos_to_coords(order: Sequence[int], kept: dict[int, Sequence[int]], side) -> set[CoordArc]:
    out = set()
    for (p1, s1), (p2, s2) in side:
        b1, b2 = order[p1], order[p2]
        out.add(((b1, kept[b1][s1]), (b2, kept[b2][s2])))
    return out


def _case3_sides(t: int) -> tuple[set, set]:
    """Explicit skeleton sides for odd t with block sizes (2, 3, ..., 3)."""
    def chain(rows_slots: list[Coord]) -> set:
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
    def zig(s_odd: int, s_even: int, final: Optional[Coord]) -> set:
        seq = [(r, s_odd if r % 2 == 1 else s_even) for r in range(1, last)]
        if final is not None:
            seq.append(final)
        return chain(seq)

    side2 |= zig(0, 1, (last, 2))
    side2 |= zig(1, 0, (last, 1))
    side2 |= zig(2, 1, (last, 0))
    side2 |= zig(1, 2, None)
    return side1, side2


def _skeleton_slot_on_c(pos: int) -> int:
    return pos % 2


def _repair_odd_t(
    spec: CompositionSpec,
    order: Sequence[int],
    kept: dict[int, Sequence[int]],
    extra_side2: set[CoordArc],
) -> Skeleton:
    """Eq-sides skeleton for odd t with extra arcs stitching side 2's two
    cycles together."""
    side1, side2 = _eq_sides(spec.t)
    c1 = _pos_to_coords(order, kept, side1)
    c2 = _pos_to_coords(order, kept, side2) | extra_side2
    return c1, c2, kept


def _case2_arc_pair(spec: CompositionSpec):
    """Arcs e_p, e_q usable for the odd-t repair: from two distinct inners,
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
    return None if sides is None else _finish_composition(spec, compose(spec), *sides)


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
        kept = {i: [0, 1] for i in range(t)}
        side1, side2 = _eq_sides(t)
        return _pos_to_coords(order, kept, side1), _pos_to_coords(order, kept, side2), kept

    pair = _case2_arc_pair(spec)
    if pair is not None:
        p, e_p, q, e_q = pair
        kept = {i: [0, 1] for i in range(t)}
        pos = {b: i for i, b in enumerate(order)}
        # orient kept slots so e_p crosses C->Z and e_q crosses Z->C
        x, y = e_p
        kept[p] = [x, y] if _skeleton_slot_on_c(pos[p]) == 0 else [y, x]
        x2, y2 = e_q
        kept[q] = [y2, x2] if _skeleton_slot_on_c(pos[q]) == 0 else [x2, y2]
        extras = {((p, e_p[0]), (p, e_p[1])), ((q, e_q[0]), (q, e_q[1]))}
        return _repair_odd_t(spec, order, kept, extras)

    small = [i for i in range(t) if sizes[i] == 2]
    if len(small) <= 1:
        # rotate the cycle so the (unique) smallest block sits at position 0
        anchor = small[0] if small else min(range(t), key=lambda i: (sizes[i], i))
        k = order.index(anchor)
        order = order[k:] + order[:k]
        if all(sizes[i] >= 3 for i in order[1:]):
            kept = {order[0]: [0, 1]}
            for b in order[1:]:
                kept[b] = [0, 1, 2]
            side1, side2 = _case3_sides(t)
            return _pos_to_coords(order, kept, side1), _pos_to_coords(order, kept, side2), kept
    return None


def decompose_comp_strong_parts(spec: CompositionSpec) -> Optional[Decomposition]:
    """Strong outer and strong inners: side 1 is the first-vertex copy of T
    plus all inner arcs, side 2 everything else."""
    if not is_strong(spec.outer):
        return None
    if any(h.n < 2 or not is_strong(h) for h in spec.inners):
        return None
    q, cmap = compose(spec)
    a1: set[Arc] = set()
    for u, v in spec.outer.arcs:
        a1.add((cmap.vid(u, 0), cmap.vid(v, 0)))
    for i, h in enumerate(spec.inners):
        for u, v in h.arcs:
            a1.add((cmap.vid(i, u), cmap.vid(i, v)))
    a2 = q.arcs - a1
    return _checked(q, a1, a2)


def _s4_role_map(outer: Digraph, first_role_block: int) -> dict[int, int]:
    """Map reference roles 0..3 of S_4 to outer's vertices, sending role 0 to the
    given block.  Exists because S_4 is vertex-transitive."""
    base = s4()
    for perm in itertools.permutations(range(4)):
        if perm[0] != first_role_block:
            continue
        if all((perm[u], perm[v]) in outer.arcs for u, v in base.arcs):
            return {r: perm[r] for r in range(4)}
    raise ConstructionError("outer digraph is not isomorphic to S_4")


def _part_a_sides(spec: CompositionSpec) -> Skeleton:
    """Outer is 2-arc-strong semicomplete (and the composition is not S_4)."""
    from .oracle import oracle_good_decomposition  # local: avoids module cycle

    T = spec.outer
    if not is_isomorphic_small(T, s4()):
        report = oracle_good_decomposition(T)
        if report.outcome != "found":
            raise ConstructionError(
                "2-arc-strong semicomplete outer (not S_4) must decompose"
            )
        kept = {i: [0] for i in range(spec.t)}
        dec = report.decomposition
        side1 = {((u, 0), (v, 0)) for u, v in dec.a1}
        side2 = {((u, 0), (v, 0)) for u, v in dec.a2}
        return side1, side2, kept
    # outer is S_4 itself: some block has >= 2 vertices, use the explicit
    # five-vertex skeleton with that block doubled
    big = min(i for i in range(spec.t) if spec.sizes[i] >= 2)
    role = _s4_role_map(T, big)
    r1, r2, r3, r4 = role[0], role[1], role[2], role[3]
    kept = {i: [0] for i in range(4)}
    kept[r1] = [0, 1]
    side1 = {
        ((r1, 0), (r2, 0)), ((r2, 0), (r1, 1)), ((r1, 1), (r4, 0)),
        ((r4, 0), (r3, 0)), ((r3, 0), (r1, 0)),
    }
    side2 = {
        ((r2, 0), (r1, 0)), ((r1, 0), (r4, 0)), ((r4, 0), (r2, 0)),
        ((r2, 0), (r3, 0)), ((r3, 0), (r1, 1)), ((r1, 1), (r2, 0)),
    }
    return side1, side2, kept


def _outer_hamiltonian_cycle(T: Digraph) -> Optional[Cycle]:
    if T.n < 2 or not is_strong(T):
        return None
    if is_semicomplete(T):
        return hamiltonian_cycle_semicomplete(T)
    if T.n <= 14:
        return hamiltonian_cycle_bruteforce(T)
    return None


def decompose_composition(spec: CompositionSpec) -> Optional[Decomposition]:
    """Sufficient-condition dispatcher: tries the 2-arc-strong-semicomplete
    route, then the Hamiltonian-outer route, then the all-strong route.
    Returns None ("not covered") when no condition applies."""
    if spec.t < 2:
        raise ValueError("composition decomposer needs t >= 2")
    T = spec.outer
    if T.n >= 2 and is_semicomplete(T) and is_k_arc_strong(T, 2):
        # t >= 3 here, so the composition is S_4 only when T is and every
        # block is trivial
        if not (all(n == 1 for n in spec.sizes) and is_isomorphic_small(T, s4())):
            return _finish_composition(spec, compose(spec), *_part_a_sides(spec))
    hc = _outer_hamiltonian_cycle(T)
    if hc is not None:
        dec = decompose_comp_hamiltonian(spec, hc)
        if dec is not None:
            return dec
    dec = decompose_comp_strong_parts(spec)
    if dec is not None:
        return dec
    return None


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
    if spec.t < 2 or not is_semicomplete(T) or not is_strong(T):
        raise ValueError("requires strong semicomplete outer and nontrivial inners")
    if any(n < 2 for n in spec.sizes):
        raise ValueError("requires strong semicomplete outer and nontrivial inners")
    built = compose(spec)
    matched = match_exception(built.digraph)
    if matched is not None:
        tag, witness = matched
        return CharacterizationResult(exception_tag=tag, witness=witness)
    sides = _characterization_sides(spec)
    return CharacterizationResult(decomposition=_finish_composition(spec, built, *sides))


def _characterization_sides(spec: CompositionSpec) -> Skeleton:
    """Skeleton for a strong semicomplete outer with nontrivial inners whose
    composition is not an exception."""
    T = spec.outer
    if is_k_arc_strong(T, 2):
        return _part_a_sides(spec)

    hc = hamiltonian_cycle_semicomplete(T)
    sides = _hamiltonian_sides(spec, hc)
    if sides is not None:
        return sides

    # remaining: odd t, at least two blocks of size 2, at most one inner with
    # arcs (and no digon in it)
    t = spec.t
    order = list(hc)
    pos = {b: i for i, b in enumerate(order)}

    if t >= 5:
        # a semicomplete outer has an arc between the blocks at cycle
        # distance two; its two skeleton copies stitch side 2's cycles
        b0, b2 = order[0], order[2]
        kept = {i: [0, 1] for i in range(t)}
        if (b0, b2) in T.arcs:
            extras = {
                ((b0, kept[b0][0]), (b2, kept[b2][1])),
                ((b0, kept[b0][1]), (b2, kept[b2][0])),
            }
        else:
            extras = {
                ((b2, kept[b2][0]), (b0, kept[b0][1])),
                ((b2, kept[b2][1]), (b0, kept[b0][0])),
            }
        return _repair_odd_t(spec, order, kept, extras)

    # t == 3 from here on
    off_cycle = sorted(T.arcs - set(cycle_arcs(hc)))
    if off_cycle:
        a, b = off_cycle[0]
        kept = {i: [0, 1] for i in range(3)}
        in_c = lambda blk, slot: slot == _skeleton_slot_on_c(pos[blk])
        c_to_z = next(
            ((a, kept[a][j]), (b, kept[b][k]))
            for j in (0, 1)
            for k in (0, 1)
            if in_c(a, j) and not in_c(b, k)
        )
        z_to_c = next(
            ((a, kept[a][j]), (b, kept[b][k]))
            for j in (0, 1)
            for k in (0, 1)
            if not in_c(a, j) and in_c(b, k)
        )
        return _repair_odd_t(spec, order, kept, {c_to_z, z_to_c})

    # outer is exactly the directed triangle; rotate the big block to the end
    sizes = spec.sizes
    anchor = max(range(3), key=lambda i: (sizes[i], -i))
    k = (pos[anchor] + 1) % 3
    order = order[k:] + order[:k]
    m = sizes[order[2]]

    if m >= 4:
        kept = {order[0]: [0, 1], order[1]: [0, 1], order[2]: [0, 1, 2, 3]}
        side1 = {
            ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (0, 1)),
            ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (0, 0)),
            ((1, 0), (2, 3)), ((2, 3), (0, 0)), ((1, 1), (2, 2)), ((2, 2), (0, 1)),
        }
        side2 = {
            ((0, 0), (1, 1)), ((1, 1), (2, 0)), ((2, 0), (0, 0)),
            ((0, 1), (1, 0)), ((1, 0), (2, 1)), ((2, 1), (0, 1)),
            ((1, 0), (2, 2)), ((2, 2), (0, 0)), ((1, 1), (2, 3)), ((2, 3), (0, 1)),
        }
        return _pos_to_coords(order, kept, side1), _pos_to_coords(order, kept, side2), kept

    arc_blocks = [i for i in range(3) if spec.inners[i].arcs]
    if m != 3 or not arc_blocks:
        # an arcless (2,2,<=3) composition or (2,2,2) with one lone inner arc
        # is an exception; an inner digon was repaired by _hamiltonian_sides
        raise ConstructionError("(2,2,<=3) case should have matched an exception")
    blk = arc_blocks[0]
    ax, ay = min(spec.inners[blk].arcs)
    p = order.index(blk)
    # single inner arc a placed per its block's position; side 2 needs it
    # to get from the second skeleton cycle back to the first
    kept = {order[0]: [0, 1], order[1]: [0, 1], order[2]: [0, 1, 2]}
    if p == 0:
        kept[blk] = [ay, ax]
    elif p == 1:
        kept[blk] = [ax, ay]
    else:
        rest = [j for j in range(3) if j not in (ax, ay)]
        kept[blk] = [ay, ax] + rest
    side1 = {
        ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (0, 1)),
        ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 1), (0, 0)),
        ((1, 0), (2, 2)), ((2, 2), (0, 0)),
    }
    side2 = {
        ((0, 0), (1, 1)), ((1, 1), (2, 0)), ((2, 0), (0, 0)),
        ((0, 1), (1, 0)), ((1, 0), (2, 1)), ((2, 1), (0, 1)),
        ((1, 1), (2, 2)), ((2, 2), (0, 1)),
    }
    c1 = _pos_to_coords(order, kept, side1)
    c2 = _pos_to_coords(order, kept, side2) | {((blk, ax), (blk, ay))}
    return c1, c2, kept


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
    host, cmap = cartesian_product(cycle(n), cycle(n))
    side1, side2 = _cycle_square_sides(tuple(range(n)), cmap.vid)
    return _checked(host, side1, side2)


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
            raise ValueError("cover union disconnected; construction not defined")
        cycles.remove(nxt)
        ordered.append(nxt)
        touched |= set(nxt)
    return ordered


def decompose_cartesian_square(g: Digraph, cover: CycleCover) -> Decomposition:
    """G square G via induction over an arc-disjoint cycle cover whose union
    is connected."""
    if g.n < 2 or not is_strong(g):
        raise ValueError("needs a strong digraph of order >= 2")
    seen_arcs: set[Arc] = set()
    seen_vertices: set[int] = set()
    for k, cyc in enumerate(cover.cycles):
        arcs = cover.arcs_of(k)
        if len(set(cyc)) != len(cyc) or not all(a in g.arcs for a in arcs):
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
    if h.n < 2 or not is_strong(h):
        raise ValueError("h must be strong of order >= 2")
    host, cmap = cartesian_product(g, h)
    a1: set[Arc] = set()
    for z, w in h.arcs:  # the H-copy at g's first vertex
        a1.add((cmap.vid(0, z), cmap.vid(0, w)))
    for x, y in dg.a1:  # side-1 copies in every H-layer
        for j in range(h.n):
            a1.add((cmap.vid(x, j), cmap.vid(y, j)))
    return _checked(host, a1, host.arcs - a1)


def decompose_cartesian_power(g: Digraph, k: int) -> Decomposition:
    """G to the Cartesian power k >= 2 for strong g with a cycle cover."""
    if k < 2:
        raise ValueError("needs k >= 2")
    if g.n < 2 or not is_strong(g):
        raise ValueError("needs a strong digraph of order >= 2")
    cover = cycle_cover(g)
    if cover is None:
        cut = infeasibility_cut(cover_network(g))
        raise CycleCoverInfeasible(
            "no arc-disjoint cycle cover exists; infeasible circulation", cut
        )
    dec = decompose_cartesian_square(g, cover)
    cur = dec.host
    for _ in range(k - 2):
        dec = decompose_cartesian_with_good_factor(cur, dec, g)
        cur = dec.host
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
    host, cmap = strong_product(cycle(n), cycle(m))
    a1 = _boxtimes_base_side1(tuple(range(n)), tuple(range(m)), cmap.vid)
    return _checked(host, a1, host.arcs - a1)


def decompose_strong_product(g: Digraph, h: Digraph) -> Decomposition:
    """Strong product of any two strong digraphs, by ear induction: side 1 is
    the cycle-product base plus a copy of every ear in each layer of the other
    factor present at that stage; side 2 is the complement."""
    if g.n < 2 or h.n < 2 or not is_strong(g) or not is_strong(h):
        raise ValueError("needs strong digraphs of order >= 2")
    ears_g = ear_decomposition(g)
    ears_h = ear_decomposition(h)
    p0 = ears_g.ears[0].vertices
    q0 = ears_h.ears[0].vertices
    host, cmap = strong_product(g, h)
    emb = cmap.vid
    a1 = _boxtimes_base_side1(p0, q0, emb)
    for ear in ears_g.ears[1:]:
        for x, y in ear.arcs():
            for j in q0:
                a1.add((emb(x, j), emb(y, j)))
    for ear in ears_h.ears[1:]:
        for z, w in ear.arcs():
            for i in range(g.n):
                a1.add((emb(i, z), emb(i, w)))
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
    if g.n < 2 or h.n < 2 or not is_strong(g) or not is_strong(h):
        raise ValueError("needs strong digraphs of order >= 2")
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
        if not is_strong(Digraph(h.n, part)):
            raise ValueError(f"part {k} is not strong spanning")
        claimed |= part

    host, cmap = lexicographic_product(g, h)
    emb = cmap.vid
    base = decompose_strong_product(g, Digraph(h.n, parts_h[0]))
    out = list(base.parts)
    for part in parts_h[1:]:
        arcs: set[Arc] = set()
        for x in range(g.n):
            for z, w in part:
                arcs.add((emb(x, z), emb(x, w)))
        for x, y in g.arcs:
            for z, w in part:
                arcs.add((emb(x, z), emb(y, w)))
        out.append(arcs)
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
