import hashlib
import itertools
import time
from collections import Counter
from typing import Optional

import pytest

from gooddecomp import (
    CompositionSpec,
    Decomposition,
    Digraph,
    Refusal,
    _kernel_py,
    characterize_semicomplete_composition,
    complete,
    compose,
    cycle,
    decompose_comp_hamiltonian,
    decompose_composition,
    decompose_lexicographic,
    empty,
    exception_digraph,
    oracle_good_decomposition,
    path,
    s4,
    verify,
    verify_decomposition,
)
from gooddecomp import builders as builders_module
from gooddecomp import decomp as decomp_module
from gooddecomp.decomp import (
    OUTER_MEMO_SIZE,
    _composition_route,
    _eq_sides,
    _finish_composition,
    _outer_cycle,
    _outer_facts,
    _part_a_sides,
    _part_a_skeleton,
    _strong_parts_sides,
)

from conftest import rotational_tournament
from test_acceptance import _all_small_specs


# no Hamiltonian cycle; neither outer is 2-arc-strong semicomplete
BIDIRECTED_K68 = Digraph(14, [a for u in range(6) for v in range(6, 14) for a in ((u, v), (v, u))])
#: no Hamiltonian cycle: the complete digraph K_13 plus a digon between 5
#: and a fourteenth vertex; a search that forgets failed states takes minutes
K13_DIGON_OUTER = Digraph(14, set(complete(13).arcs) | {(5, 13), (13, 5)})
BIDIRECTED_P3 = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
STRONG_TOURNAMENT_4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
#: a 2-arc-strong semicomplete digraph of order 9 with a deep chronological
#: part (a) search: its sorted tree ends after 890,839 nodes without
#: backjumping, and after 85 with it
ORDER9_OUTER = Digraph(9, [(u, v) for u, heads in enumerate((
    (2, 3, 5, 7, 8), (0, 2, 4, 5, 6, 7, 8), (1, 3, 4, 5, 6, 7), (1, 4, 5, 6, 7, 8),
    (0, 8), (4, 8), (0, 4, 5, 8), (4, 5, 6, 8), (2, 3),
)) for v in heads])

#: SHA-256 of the sorted parts of part (a) on the S_4 grid, per doubled position
S4_OUTER_DIGESTS = (
    "0e72ddfa87b7fd0594adc6f1cbe80077ad142fc6323979b14fff48f049202674",
    "728dbd4d8ca93a9c42f34b8ee286df94be13d7a3db736149783c2efe1380f628",
    "d604bbce9eb53e9e7df6fd833b5e993ddce54bb4bb0e16e31981f8f07bd465ef",
    "6d201496aa3b1dcc7ddb78a22b09cf7b0bcacadcc8f65cda688985818f7eb499",
)


def spec_of(outer, *inners):
    return CompositionSpec(outer, tuple(inners))


def refusal_of(spec) -> str:
    """The reason decompose_composition refuses spec with."""
    with pytest.raises(Refusal) as ref:
        decompose_composition(spec)
    return ref.value.reason


class TestVerify:
    def test_two_opposite_triangles(self):
        d = complete(3)
        a1 = frozenset({(0, 1), (1, 2), (2, 0)})
        a2 = frozenset({(0, 2), (2, 1), (1, 0)})
        assert verify(d, a1, a2).ok

    def test_s4_no_bipartition_works(self):
        d = s4()
        arcs = d.sorted_arcs()
        for k in range(len(arcs) + 1):
            for combo in itertools.combinations(arcs, k):
                a1 = frozenset(combo)
                assert not verify(d, a1, d.arcs - a1).ok

    def test_overlap_diagnostic(self):
        # two shared arcs: the smallest is named
        d = cycle(3)
        res = verify(d, d.arcs, frozenset({(2, 0), (1, 2)}))
        assert not res.ok and res.reason == "sides overlap on arc (1, 2)"

    def test_stray_arc_diagnostic(self):
        # two arcs outside the host: the smallest is named
        d = cycle(3)
        res = verify(d, frozenset({(1, 0), (0, 2)}), frozenset())
        assert not res.ok and res.reason == "A1 arc (0, 2) not in host"

    def test_parts_as_set_and_list(self):
        d = complete(3)
        a1, a2 = [(0, 1), (1, 2), (2, 0)], [(0, 2), (2, 1), (1, 0)]
        for p1, p2 in [(a1, a2), (a1, a2 + [(1, 2)]), (a1[:2], a2 + [(2, 0)])]:
            want = verify(d, frozenset(p1), frozenset(p2))
            assert verify(d, set(p1), list(p2)) == want

    def test_non_strong_diagnostic(self):
        d = complete(3)
        res = verify(d, frozenset({(0, 1), (1, 0)}), frozenset())
        assert not res.ok and res.reason == "A1 not strong: no path 0->2"
        res = verify(d, frozenset({(0, 1), (0, 2), (1, 0)}), frozenset())
        assert not res.ok and res.reason == "A1 not strong: no path 2->0"

    def test_k_parts_name_the_failing_part(self):
        halves = [frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(0, 2), (2, 1), (1, 0)})]
        dec = decompose_lexicographic(cycle(3), complete(3), halves)
        p1, p2, p3 = dec.parts
        assert verify(dec.host, p1, p2, p3).ok
        shared = min(p1)
        res = verify(dec.host, p1, p2, p3 | {shared})
        assert res.reason == f"sides A1 and A3 overlap on arc {shared}"
        res = verify(dec.host, p1, p2, frozenset())
        assert res.reason == "A3 not strong: no path 0->1"
        res = verify(dec.host, p1, p2, p3 | {(3, 0)})  # block 1 to block 0
        assert res.reason == "A3 arc (3, 0) not in host"

    def test_fewer_than_two_parts(self):
        d = complete(3)
        assert not verify(d).ok
        res = verify(d, d.arcs)
        assert not res.ok and res.reason == "needs at least two parts, got 1"
        with pytest.raises(ValueError):
            Decomposition(d, (frozenset(d.arcs),))


class TestEqSides:
    @pytest.mark.parametrize("t", [2, 4, 6])
    def test_even_t_partitions_skeleton(self, t):
        side1, side2 = _eq_sides(t)
        assert len(side1) == 2 * t and len(side2) == 2 * t
        assert not (side1 & side2)
        # all 4t arcs live on the 2-per-block skeleton positions
        cells = {(i, j) for i in range(t) for j in (0, 1)}
        assert {x for a in side1 | side2 for x in a} == cells


class TestHamiltonianCases:
    def test_case1_even_t(self):
        spec = spec_of(cycle(4), *[empty(2)] * 4)
        dec = decompose_comp_hamiltonian(spec, (0, 1, 2, 3))
        assert dec is not None
        # skeleton equals the full composition here
        assert len(dec.a1) == 8 and len(dec.a2) == 8

    def test_case2_two_inners_with_arcs(self):
        spec = spec_of(cycle(3), path(2), cycle(2), empty(2))
        dec = decompose_comp_hamiltonian(spec, (0, 1, 2))
        assert dec is not None and verify_decomposition(dec).ok

    def test_case2_digon_variant(self):
        spec = spec_of(cycle(3), cycle(2), empty(2), empty(2))
        dec = decompose_comp_hamiltonian(spec, (0, 1, 2))
        assert dec is not None  # digon repair path

    def test_case3_base(self):
        spec = spec_of(cycle(3), empty(2), empty(3), empty(3))
        dec = decompose_comp_hamiltonian(spec, (0, 1, 2))
        assert dec is not None
        assert len(dec.a1) == 9 and len(dec.a2) == 9  # 9 arcs each

    @pytest.mark.parametrize("t", [5, 7])
    def test_case3_general_odd(self, t):
        spec = spec_of(cycle(t), empty(2), *[empty(3)] * (t - 1))
        dec = decompose_comp_hamiltonian(spec, tuple(range(t)))
        assert dec is not None and verify_decomposition(dec).ok

    def test_not_applicable(self):
        # no case of odd t fits; a K_1 block fits none, even with t even
        for spec in (spec_of(cycle(3), empty(2), empty(2), empty(2)),
                     spec_of(cycle(4), empty(1), empty(2), empty(2), empty(2))):
            with pytest.raises(Refusal) as ref:
                decompose_comp_hamiltonian(spec, tuple(range(spec.t)))
            assert ref.value.reason == "not-covered"

    def test_invalid_cycle_rejected(self):
        spec = spec_of(cycle(3), empty(2), empty(2), empty(2))
        with pytest.raises(ValueError):
            decompose_comp_hamiltonian(spec, (0, 2, 1))


class TestStrongParts:
    def test_c2_of_digons(self):
        spec = spec_of(cycle(2), cycle(2), cycle(2))
        dec = _finish_composition(spec, *_strong_parts_sides(spec))
        assert verify_decomposition(dec).ok

    def test_c3_of_triangles(self):
        spec = spec_of(cycle(3), *[cycle(3)] * 3)
        dec = _finish_composition(spec, *_strong_parts_sides(spec))
        # side 1 is the first-vertex outer copy plus all inner arcs, side 2
        # every other arc
        assert len(dec.a1) == 3 + 9 and dec.a2 == dec.host.arcs - dec.a1

    def test_arcless_inner_not_applicable(self):
        assert _strong_parts_sides(spec_of(cycle(2), cycle(2), empty(2))) is None

    def test_one_block_rejected(self):
        with pytest.raises(ValueError, match="needs t >= 2"):
            decompose_composition(spec_of(Digraph(1, []), complete(3)))


class TestDispatcher:
    def test_even_cycle_outer(self):
        dec = decompose_composition(spec_of(cycle(2), empty(2), empty(2)))
        assert dec is not None

    def test_extension_property(self, rng):
        # dropping twins from a decomposable spec and re-extending verifies
        for _ in range(10):
            t = rng.choice((2, 4))
            sizes = [rng.randint(2, 4) for _ in range(t)]
            spec = spec_of(cycle(t), *[empty(n) for n in sizes])
            dec = decompose_composition(spec)
            assert dec is not None and verify_decomposition(dec).ok

    def test_strong_parts_route(self):
        dec = decompose_composition(spec_of(cycle(3), cycle(2), cycle(2), cycle(2)))
        assert dec is not None

    def test_exception_not_covered(self):
        assert refusal_of(spec_of(cycle(3), empty(2), empty(2), empty(2))) == "exception:C3_K2_K2_K2"

    def test_part_a_complete_outer(self):
        dec = decompose_composition(spec_of(complete(3), empty(2), empty(1), empty(3)))
        assert dec is not None

    def test_part_a_skips_s4_itself(self):
        # composing S_4 from trivial blocks is S_4: no route applies
        assert refusal_of(spec_of(s4(), *[empty(1)] * 4)) == "exception:S4"

    @pytest.mark.parametrize("big", range(4))
    def test_part_a_s4_outer_with_one_doubled_block(self, big):
        """Every relabelling of S_4 with one block of order >= 2 at position
        big.  The order-3 inner with an arc is one that breaks a skeleton
        keeping the doubled block's inner arcs."""
        inners = (empty(2), empty(3), cycle(2), Digraph(3, [(0, 1)]))
        parts = []
        for perm in itertools.permutations(range(4)):
            outer = Digraph(4, [(perm[u], perm[v]) for u, v in s4().arcs])
            assert refusal_of(spec_of(outer, *[empty(1)] * 4)) == "exception:S4"
            for inner in inners:
                blocks = [empty(1)] * 4
                blocks[big] = inner
                spec = spec_of(outer, *blocks)
                assert _composition_route(spec)[0] == "composition/part-a"
                dec = decompose_composition(spec)
                assert dec is not None and verify_decomposition(dec).ok
                parts.append([sorted(p) for p in dec.parts])
        digest = hashlib.sha256(repr(parts).encode()).hexdigest()
        assert digest == S4_OUTER_DIGESTS[big]

    def test_part_a_order9_outer(self):
        """Part (a) runs the kernel with no budget, so an outer with a deep
        search tree would hang it.  This outer's chronological sorted tree
        ends after 890,839 nodes; with backjumping it ends after 85, within
        the sorted step's cap: the oracle, which runs the same steps, finds a
        decomposition in sorted order, and part (a) lifts it."""
        rep = oracle_good_decomposition(ORDER9_OUTER)
        assert (rep.outcome, rep.nodes_explored, rep.order) == ("found", 85, "sorted")
        dec = decompose_composition(spec_of(ORDER9_OUTER, *[empty(2)] * 9))
        assert dec is not None and verify_decomposition(dec).ok

    @pytest.mark.parametrize("size", [1, 2], ids=["K1", "K2bar"])
    def test_part_a_outer_above_isomorphism_bound(self, size):
        # order 13 lies above the isomorphism search's bound; part (a) needs none
        dec = decompose_composition(spec_of(rotational_tournament(13), *[empty(size)] * 13))
        assert dec is not None and verify_decomposition(dec).ok

    @pytest.mark.parametrize(
        "size,digest",
        [(1, "b69996671bf6f82d08b538c1f03fd204c7091b422e77d830e55ed8379da1252b"),
         (2, "9800d6db6ed69a56bcb9d004477c9ca89928d40cfe5c03e86ba138fe05e7b6d0")],
        ids=["K1", "K2bar"],
    )
    def test_part_a_does_not_consult_the_oracle(self, monkeypatch, size, digest):
        def refuse(*args, **kwargs):
            raise AssertionError("part (a) consulted the oracle")

        monkeypatch.setattr("gooddecomp.oracle.oracle_good_decomposition", refuse)
        dec = decompose_composition(spec_of(rotational_tournament(7), *[empty(size)] * 7))
        assert dec is not None and verify_decomposition(dec).ok
        parts = repr([sorted(p) for p in dec.parts]).encode()
        assert hashlib.sha256(parts).hexdigest() == digest

    def test_hamiltonian_search_bound(self):
        # the dispatcher runs the brute force only on a non-semicomplete outer
        # of order <= 14; above that, a caller's own cycle still decomposes
        spec = spec_of(cycle(14), *[empty(2)] * 14)
        assert _composition_route(spec)[0] == "composition/hamiltonian"
        for spec in (spec_of(cycle(16), *[empty(2)] * 16),
                     spec_of(cycle(15), *[empty(3)] * 14, empty(2))):
            assert _composition_route(spec) is None
            dec = decompose_comp_hamiltonian(spec, tuple(range(spec.t)))
            assert dec is not None and verify_decomposition(dec).ok

    def test_non_hamiltonian_outer_refused_fast(self):
        start = time.monotonic()
        assert refusal_of(spec_of(K13_DIGON_OUTER, *[empty(2)] * 14)) == "not-covered"
        assert time.monotonic() - start < 1

    @pytest.mark.parametrize("outer", [BIDIRECTED_K68, STRONG_TOURNAMENT_4], ids=["K68", "T4"])
    def test_trivial_block_skips_hamiltonian_search(self, monkeypatch, outer):
        def refuse(d):
            raise AssertionError("Hamiltonian search reached")

        monkeypatch.setattr("gooddecomp.decomp.hamiltonian_cycle_bruteforce", refuse)
        monkeypatch.setattr("gooddecomp.decomp._hamiltonian_cycle_semicomplete", refuse)
        spec = spec_of(outer, empty(1), *[empty(2)] * (outer.n - 1))
        assert refusal_of(spec) == "not-covered"
        assert _strong_parts_sides(spec) is None
        with pytest.raises(AssertionError, match="Hamiltonian search reached"):
            decompose_composition(spec_of(outer, *[empty(2)] * outer.n))

    @pytest.mark.parametrize(
        "spec,route,search",
        [
            (spec_of(cycle(3), empty(2), empty(2), empty(4)), "composition/remaining",
             "_hamiltonian_cycle_semicomplete"),
            # no Hamiltonian cycle, so the brute force fails and strong parts applies
            (spec_of(BIDIRECTED_P3, cycle(2), cycle(2), cycle(2)), "composition/strong-parts",
             "hamiltonian_cycle_bruteforce"),
        ],
        ids=["remaining", "strong-parts"],
    )
    def test_hamiltonian_search_runs_once(self, monkeypatch, spec, route, search):
        calls = Counter()
        for name in ("hamiltonian_cycle_bruteforce", "_hamiltonian_cycle_semicomplete"):
            def counted(d, real=getattr(decomp_module, name), name=name):
                calls[name] += 1
                return real(d)

            monkeypatch.setattr(decomp_module, name, counted)
        assert _composition_route(spec)[0] == route
        assert calls == {search: 1}
        dec = decompose_composition(spec)
        assert dec is not None and verify_decomposition(dec).ok
        # the second route call reads the cycle from the outer memo
        assert calls == {search: 1}

    def test_hamiltonian_route_tests_outer_once(self, monkeypatch):
        # the route has shown T strong and semicomplete, so the cycle
        # extension does not test T again
        def refuse(d):
            raise AssertionError("outer tested again")

        monkeypatch.setattr("gooddecomp.structure.is_strong", refuse)
        for spec, route in ((spec_of(STRONG_TOURNAMENT_4, *[empty(2)] * 4), "composition/hamiltonian"),
                            (spec_of(cycle(3), empty(2), empty(2), empty(4)), "composition/remaining")):
            assert _composition_route(spec)[0] == route
            dec = decompose_composition(spec)
            assert dec is not None and verify_decomposition(dec).ok

    def test_t_below_two_rejected(self):
        with pytest.raises(ValueError):
            decompose_composition(spec_of(empty(1), cycle(3)))

    def test_non_strong_outer_not_covered(self):
        assert refusal_of(spec_of(path(2), empty(2), empty(2))) == "not-covered"

    @pytest.mark.parametrize(
        "spec,digest",
        [
            # 1-arc-strong tournament on 5 vertices: the distance-two repair
            (
                spec_of(
                    Digraph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)
                                if (i, j) != (0, 4)] + [(4, 0)]),
                    *[empty(2)] * 5,
                ),
                "fadfe1e358c0288c8aab5df18715eec43009ef4201dcbb4c0fa7a7197a304de7",
            ),
            # t = 3 with a digon off the Hamiltonian cycle
            (spec_of(Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)]), *[empty(2)] * 3),
             "4b730286feab750c603d02950bcb77c816641a2071f7a2683f58032f8a67ddb3"),
            # directed triangle with a block of order >= 4
            (spec_of(cycle(3), empty(2), empty(2), empty(4)),
             "aafca4c5f1081a078ac543a307ed0e41232d0da2dbf0eff4182843a23dafc45a"),
            # directed triangle over (2, 2, 3) with one inner arc in the 3-block
            (spec_of(cycle(3), empty(2), empty(2), Digraph(3, [(0, 1)])),
             "1a71fb0a9adda8e5713d14aae44c2c799acc2388e0a6632c40b0d2128a5e3abf"),
            # the distance-two arc runs against the Hamiltonian cycle 0,1,4,2,3
            (
                spec_of(
                    Digraph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4),
                                (2, 3), (3, 0), (3, 4), (4, 0), (4, 2)]),
                    *[empty(2)] * 5,
                ),
                "c965b2ea989eafef1141098b222981c266ea9f8d9bfd02d7fda15371a9e25511",
            ),
            # the block of order >= 4 first or second
            (spec_of(cycle(3), empty(4), empty(2), empty(2)),
             "0c1e7e3f3fec704e7d17784c64e906d58b4a570655c3b046eac92ae7999454e1"),
            (spec_of(cycle(3), empty(2), empty(4), empty(2)),
             "6bf57dc2ba030f984f03e0a059ce4b832e13a967b16e8ca9c58559c8fefa47ab"),
            # (2, 2, 3) with the inner arc in the first, the second block, and
            # in the 3-block away from its vertex 0
            (spec_of(cycle(3), Digraph(2, [(0, 1)]), empty(2), empty(3)),
             "239e14aabeffa1b80a30437e1f09280c2ec34e8778223d0934514e1e95c4d76c"),
            (spec_of(cycle(3), empty(2), Digraph(2, [(0, 1)]), empty(3)),
             "4e6bcad9021533d06c8f57ffaa0ace2f293bfc6c717f92a8fdbebb0eb93c6d77"),
            (spec_of(cycle(3), empty(2), empty(2), Digraph(3, [(2, 0)])),
             "2cb03a452949ffcdf7324a4c83edf4dbcb3d397235955b1285721d230d5ee5ab"),
        ],
        ids=[
            "t5-distance-two", "t3-off-cycle-digon", "c3-n3-at-least-4", "c3-223-one-arc",
            "t5-reversed-distance-two", "c3-422", "c3-242",
            "c3-223-arc-block0", "c3-223-arc-block1", "c3-223-arc-2-0",
        ],
    )
    def test_characterization_remaining_cases(self, spec, digest):
        dec = decompose_composition(spec)
        assert dec is not None and verify_decomposition(dec).ok
        assert dec == characterize_semicomplete_composition(spec).decomposition
        parts = repr([sorted(p) for p in dec.parts]).encode()
        assert hashlib.sha256(parts).hexdigest() == digest


def _twins_of_route(spec) -> Optional[tuple[str, int]]:
    """The route of spec and how many of its vertices the lift copies, or
    None if no route applies: on every part, each block vertex its route does
    not keep has exactly the cross-block out- and in-neighbours of its
    block's slot-0 vertex, and so no inner arc."""
    route = _composition_route(spec)
    if route is None:
        return None
    name, (order, kept, _, _) = route
    dec = decompose_composition(spec)
    off = compose(spec).coords.offsets
    twins = 0
    for p, b in enumerate(order):
        block = set(range(off[b], off[b + 1]))
        slot0 = off[b] + kept[p][0]
        others = block - {off[b] + j for j in kept[p]}
        twins += len(others)
        for part in dec.parts:
            outs = lambda v: {y for x, y in part if x == v}
            ins = lambda v: {x for x, y in part if y == v}
            for v in others:
                assert (outs(v), ins(v)) == (outs(slot0) - block, ins(slot0) - block), (spec, v)
    return name, twins


class TestTwinLift:
    """The one lift of every route, _finish_composition, gives each vertex
    that a skeleton does not keep the cross-block arcs of its block's slot 0."""

    def test_twins_copy_slot_zero_on_every_route(self):
        """On every criterion-3 spec that a route decomposes, on S_4 with one
        block doubled and on C_4 over four K̄_3: part (a), the Hamiltonian
        cases and the remaining cases each lift twins, counted per route."""
        specs = [*_all_small_specs(), spec_of(s4(), empty(3), empty(1), empty(1), empty(1)),
                 spec_of(cycle(4), *[empty(3)] * 4)]
        twins = Counter()
        for route, count in filter(None, map(_twins_of_route, specs)):
            twins[route] += count
        assert twins == {"composition/part-a": 3361, "composition/hamiltonian": 6353,
                         "composition/remaining": 414}

    def test_strong_parts_route_keeps_every_vertex(self):
        spec = spec_of(BIDIRECTED_P3, cycle(2), complete(3), cycle(2))
        assert _twins_of_route(spec) == ("composition/strong-parts", 0)


def refuse_outer_work(monkeypatch, outer):
    """Make every computation of a fact of outer raise, and so every part (a)
    kernel search; the strong-parts route still tests its inners."""
    def refuse(*args, **kwargs):
        raise AssertionError("outer fact computed again")

    def inner_is_strong(d, real=decomp_module.is_strong):
        return refuse() if d == outer else real(d)

    for name in ("_arc_strength", "is_semicomplete",
                 "hamiltonian_cycle_bruteforce", "_hamiltonian_cycle_semicomplete"):
        monkeypatch.setattr(decomp_module, name, refuse)
    monkeypatch.setattr(decomp_module, "is_strong", inner_is_strong)
    monkeypatch.setattr(_kernel_py, "search", refuse)


class TestOuterMemo:
    """The route facts of an outer digraph are computed once per value."""

    @pytest.mark.parametrize(
        "arcs, inners, route",
        [
            (complete(3).arcs, (empty(2), empty(1), empty(3)), "composition/part-a"),
            (STRONG_TOURNAMENT_4.arcs, (empty(2),) * 4, "composition/hamiltonian"),
            (cycle(3).arcs, (empty(2), empty(2), empty(4)), "composition/remaining"),
            (BIDIRECTED_P3.arcs, (cycle(2),) * 3, "composition/strong-parts"),
        ],
        ids=["part-a", "hamiltonian", "remaining", "strong-parts"],
    )
    def test_equal_outer_object_reuses_the_facts(self, monkeypatch, arcs, inners, route):
        first = spec_of(Digraph(len(inners), arcs), *inners)
        dec = decompose_composition(first)
        assert dec is not None and _composition_route(first)[0] == route
        refuse_outer_work(monkeypatch, first.outer)
        second = spec_of(Digraph(len(inners), arcs), *inners)
        assert second.outer is not first.outer
        assert _composition_route(second)[0] == route
        assert decompose_composition(second) == dec

    def test_exception_path_reuses_the_facts(self, monkeypatch):
        # the characterization's semicomplete and strong checks read the memo
        inners = (empty(2), empty(2), empty(3))
        first = characterize_semicomplete_composition(spec_of(cycle(3), *inners))
        refuse_outer_work(monkeypatch, cycle(3))
        second = characterize_semicomplete_composition(spec_of(cycle(3), *inners))
        assert second == first and second.exception_tag == "C3_K2_K2_K3"

    def test_outers_one_arc_apart_are_separate(self):
        full = complete(3)
        less = Digraph(3, full.arcs - {(1, 0)})
        routes = [_composition_route(spec_of(T, *[empty(3)] * 3))[0] for T in (full, less)]
        assert routes == ["composition/part-a", "composition/hamiltonian"]
        assert (_outer_facts(full), _outer_facts(less)) == ((2, True), (1, True))
        info = _outer_facts.cache_info()
        assert (info.currsize, info.misses) == (2, 2)

    def test_s4_doubled_block_position_is_part_of_the_key(self):
        # the first block of order >= 2 is doubled: position 0, then 1
        specs = [spec_of(s4(), empty(2), empty(1), empty(1), empty(1)),
                 spec_of(s4(), empty(1), empty(2), empty(3), empty(1))]
        sides = [_part_a_sides(spec)[2:] for spec in specs]
        assert sides[0] != sides[1]
        assert _part_a_skeleton.cache_info().currsize == 2
        for spec in specs:
            dec = decompose_composition(spec)
            assert dec is not None and verify_decomposition(dec).ok

    def test_cached_sides_are_frozensets(self):
        sides = _part_a_sides(spec_of(complete(3), *[empty(2)] * 3))[2:]
        assert len(sides) == 2 and all(type(side) is frozenset for side in sides)
        assert _part_a_skeleton(complete(3), (1, 1, 1)) == sides

    def test_memos_hold_their_bound(self):
        # 2-arc-strong semicomplete outers: the order-5 complete digraph less
        # some of its forward arcs
        forward = [(u, v) for u, v in complete(5).sorted_arcs() if u < v]
        outers = (Digraph(5, complete(5).arcs - set(gone))
                  for k in range(4) for gone in itertools.combinations(forward, k))
        outers = [T for T in outers if _outer_facts(T) == (2, True)][:OUTER_MEMO_SIZE + 1]
        assert len(outers) == OUTER_MEMO_SIZE + 1
        for T in outers:
            _outer_cycle(T)
            _part_a_skeleton(T, (1,) * 5)
        for memo in (_outer_facts, _outer_cycle, _part_a_skeleton):
            info = memo.cache_info()
            assert info.maxsize == info.currsize == OUTER_MEMO_SIZE


class TestCharacterize:
    def test_exception_tags(self):
        cases = [
            (spec_of(cycle(3), empty(2), empty(2), empty(2)), "C3_K2_K2_K2"),
            (spec_of(cycle(3), path(2), empty(2), empty(2)), "C3_P2_K2_K2"),
            (spec_of(cycle(3), empty(2), empty(2), empty(3)), "C3_K2_K2_K3"),
        ]
        for spec, tag in cases:
            res = characterize_semicomplete_composition(spec)
            assert res.exception_tag == tag  # exception list
            q, _ = compose(spec)
            ex = exception_digraph(tag)
            assert res.witness is not None
            assert all((res.witness[u], res.witness[v]) in ex.arcs for u, v in q.arcs)
        with pytest.raises(ValueError, match="unknown exception tag 'bogus'"):
            exception_digraph("bogus")

    def test_decomposition_host_is_the_spec_composition(self):
        spec = spec_of(cycle(3), empty(2), empty(2), empty(4))
        res = characterize_semicomplete_composition(spec)
        assert res.decomposition.host is compose(spec).digraph

    @pytest.mark.parametrize(
        "inners", [(empty(2), empty(2), empty(4)), (empty(2), empty(2), empty(2))],
        ids=["decomposed", "exception"],
    )
    def test_composition_built_once(self, monkeypatch, inners):
        # the lift, the exception match and a later compose share one build
        builds = []

        def counted(arcs, cmap, real=builders_module._built):
            builds.append(cmap)
            return real(arcs, cmap)

        monkeypatch.setattr(builders_module, "_built", counted)
        spec = spec_of(cycle(3), *inners)
        characterize_semicomplete_composition(spec)
        compose(spec)
        assert len(builds) == 1

    def test_exception_order_insensitive(self):
        res = characterize_semicomplete_composition(
            spec_of(cycle(3), empty(2), path(2), empty(2))
        )
        assert res.exception_tag == "C3_P2_K2_K2"

    def test_n3_at_least_4_explicit(self):
        res = characterize_semicomplete_composition(
            spec_of(cycle(3), empty(2), empty(2), empty(4))
        )
        assert res.decomposition is not None  # "Suppose that n_3 >= 4"
        assert verify_decomposition(res.decomposition).ok

    def test_n3_equal_3_single_arc(self):
        for arc_block in range(3):
            inners = [empty(2), empty(2), empty(3)]
            n = inners[arc_block].n
            inners[arc_block] = Digraph(n, [(0, 1)])
            res = characterize_semicomplete_composition(spec_of(cycle(3), *inners))
            assert res.decomposition is not None

    def test_all_digons_outer_digon_repair(self):
        res = characterize_semicomplete_composition(
            spec_of(cycle(3), cycle(2), empty(2), empty(2))
        )
        assert res.decomposition is not None

    def test_t3_outer_with_digon(self):
        outer = Digraph(3, [(0, 1), (1, 2), (2, 0), (1, 0)])
        res = characterize_semicomplete_composition(spec_of(outer, *[empty(2)] * 3))
        assert res.decomposition is not None

    @pytest.mark.parametrize("t", [5, 7])
    def test_odd_t_distance_two_repair(self, t):
        # transitive tournament with the 0,t-1 pair reversed: strong and
        # Hamiltonian, but only 1-arc-strong, so the repair branch must fire
        arcs = [(i, j) for i in range(t) for j in range(i + 1, t)]
        arcs.remove((0, t - 1))
        outer = Digraph(t, arcs + [(t - 1, 0)])
        res = characterize_semicomplete_composition(spec_of(outer, *[empty(2)] * t))
        assert res.decomposition is not None  # no exception beyond t=3
        assert verify_decomposition(res.decomposition).ok

    def test_odd_t_reversed_distance_two_repair(self):
        # Hamiltonian cycle 0,1,4,2,3: the blocks 0 and 4 at cycle distance
        # two are joined by 4->0, against the cycle's direction
        outer = Digraph(
            5, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (3, 0), (3, 4), (4, 0), (4, 2)]
        )
        res = characterize_semicomplete_composition(spec_of(outer, *[empty(2)] * 5))
        assert res.decomposition is not None
        assert verify_decomposition(res.decomposition).ok

    def test_s4_outer_all_blocks_doubled(self):
        res = characterize_semicomplete_composition(spec_of(s4(), *[empty(2)] * 4))
        assert res.decomposition is not None
        assert verify_decomposition(res.decomposition).ok

    def test_two_arc_strong_outer(self):
        res = characterize_semicomplete_composition(
            spec_of(complete(3), empty(2), empty(2), empty(2))
        )
        assert res.decomposition is not None

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            characterize_semicomplete_composition(spec_of(cycle(3), empty(1), empty(2), empty(2)))
        with pytest.raises(ValueError):
            characterize_semicomplete_composition(spec_of(cycle(4), *[empty(2)] * 4))
        # strongness is tested once no route applies, with the same message
        transitive = Digraph(3, [(0, 1), (1, 2), (0, 2)])
        with pytest.raises(ValueError, match="^requires strong semicomplete outer and nontrivial"):
            characterize_semicomplete_composition(spec_of(transitive, *[empty(2)] * 3))

    def test_verdict_matches_oracle_sample(self, rng):
        outers = [cycle(3), Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]), complete(3)]
        pairs3 = [(u, v) for u in range(3) for v in range(3) if u != v]
        for _ in range(25):
            outer = rng.choice(outers)
            sizes = [rng.choice((2, 3)) for _ in range(3)]
            budget = 2
            inners = []
            for n in sizes:
                pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
                take = rng.randint(0, min(budget, 2))
                budget -= take
                inners.append(Digraph(n, rng.sample(pairs, take)))
            spec = spec_of(outer, *inners)
            res = characterize_semicomplete_composition(spec)
            q, _ = compose(spec)
            rep = oracle_good_decomposition(q)
            assert res.is_exception == (rep.outcome == "none")
