import hashlib
import itertools
from collections import Counter

import pytest

from gooddecomp import (
    CompositionSpec,
    Decomposition,
    Digraph,
    characterize_semicomplete_composition,
    complete,
    compose,
    cycle,
    decompose_comp_hamiltonian,
    decompose_composition,
    decompose_lexicographic,
    empty,
    exception_digraph,
    extend_by_twins,
    find_isomorphism,
    oracle_good_decomposition,
    path,
    s4,
    verify,
    verify_decomposition,
)
from gooddecomp import builders as builders_module
from gooddecomp import decomp as decomp_module
from gooddecomp.decomp import (
    _composition_route,
    _eq_sides,
    _finish_composition,
    _strong_parts_sides,
)

from conftest import rotational_tournament


# no Hamiltonian cycle; neither outer is 2-arc-strong semicomplete
BIDIRECTED_K68 = Digraph(14, [a for u in range(6) for v in range(6, 14) for a in ((u, v), (v, u))])
BIDIRECTED_P3 = Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
STRONG_TOURNAMENT_4 = Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
#: a 2-arc-strong semicomplete digraph of order 9 with a deep part (a) search:
#: its sorted tree ends after 890,839 nodes, its MCS tree after 87
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


class TestExtendByTwins:
    def test_identity_when_all_kept(self):
        spec = spec_of(cycle(2), empty(2), empty(2))
        q, _ = compose(spec)
        dec = decompose_composition(spec)
        again = extend_by_twins(q, dec, spec, [[0, 1], [0, 1]])
        assert again.a1 == dec.a1 and again.a2 == dec.a2

    def test_five_vertex_skeleton_of_s4_composition(self):
        # S_4 outer with one doubled block: the explicit 5-vertex skeleton
        # extends to a valid decomposition of the 6-vertex composition
        spec = spec_of(s4(), empty(3), empty(1), empty(1), empty(1))
        sub = spec_of(s4(), empty(2), empty(1), empty(1), empty(1))
        qstar, cmap = compose(sub)
        u = cmap.vid
        a1 = {(u(0, 0), u(1, 0)), (u(1, 0), u(0, 1)), (u(0, 1), u(3, 0)),
              (u(3, 0), u(2, 0)), (u(2, 0), u(0, 0))}
        a2 = {(u(1, 0), u(0, 0)), (u(0, 0), u(3, 0)), (u(3, 0), u(1, 0)),
              (u(1, 0), u(2, 0)), (u(2, 0), u(0, 1)), (u(0, 1), u(1, 0))}
        dec = Decomposition(qstar, (frozenset(a1), frozenset(a2)))
        assert verify_decomposition(dec).ok
        big = extend_by_twins(qstar, dec, spec, [[0, 1], [0], [0], [0]])
        assert big.host.n == 6 and verify_decomposition(big).ok

    @pytest.mark.parametrize(
        "kept",
        [[[0, 1], []], [[0, 1], [0, 5]], [[0, 1], [1, 1]]],
        ids=["empty", "outside-block", "repeated"],
    )
    def test_empty_kept_rejected(self, kept):
        dec = decompose_composition(spec_of(cycle(2), empty(2), empty(2)))
        spec = spec_of(cycle(2), empty(2), empty(3))
        with pytest.raises(ValueError):
            extend_by_twins(dec.host, dec, spec, kept)

    def test_qstar_not_the_kept_composition_rejected(self):
        # K4 has the order of C2[K2bar, K2bar] and two inner digons more: the
        # caller's input is at fault, not the construction
        spec = spec_of(cycle(2), empty(2), empty(2))
        dec = oracle_good_decomposition(complete(4)).decomposition
        with pytest.raises(ValueError, match="not the composition of the kept sub-spec"):
            extend_by_twins(complete(4), dec, spec, [[0, 1], [0, 1]])

    def test_inners_induced_in_kept_order(self):
        # kept [1, 0] reverses block 0's inner arc in the sub-composition
        spec = spec_of(cycle(3), path(2), cycle(2), empty(3))
        sub = spec_of(cycle(3), Digraph(2, [(1, 0)]), cycle(2), empty(2))
        dec = decompose_composition(sub)
        lifted = extend_by_twins(dec.host, dec, spec, [[1, 0], [0, 1], [0, 2]])
        assert lifted.host == compose(spec).digraph and verify_decomposition(lifted).ok
        with pytest.raises(ValueError, match="not the composition of the kept sub-spec"):
            extend_by_twins(dec.host, dec, spec, [[0, 1], [0, 1], [0, 2]])

    def test_keeps_every_part(self):
        # a 3-part decomposition lifted with every vertex kept comes back whole
        halves = [
            frozenset({(0, 1), (1, 2), (2, 0)}),
            frozenset({(1, 0), (2, 1), (0, 2)}),
        ]
        dec = decompose_lexicographic(cycle(2), complete(3), halves)
        assert len(dec.parts) == 3
        spec = spec_of(cycle(2), complete(3), complete(3))
        lifted = extend_by_twins(dec.host, dec, spec, [[0, 1, 2], [0, 1, 2]])
        assert lifted.parts == dec.parts

    def test_extension_property(self, rng):
        # dropping twins from a decomposable spec and re-extending verifies
        for _ in range(10):
            t = rng.choice((2, 4))
            sizes = [rng.randint(2, 4) for _ in range(t)]
            spec = spec_of(cycle(t), *[empty(n) for n in sizes])
            dec = decompose_composition(spec)
            assert dec is not None and verify_decomposition(dec).ok


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
        spec = spec_of(cycle(3), empty(2), empty(2), empty(2))
        assert decompose_comp_hamiltonian(spec, (0, 1, 2)) is None

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

    def test_strong_parts_route(self):
        dec = decompose_composition(spec_of(cycle(3), cycle(2), cycle(2), cycle(2)))
        assert dec is not None

    def test_exception_not_covered(self):
        assert decompose_composition(spec_of(cycle(3), empty(2), empty(2), empty(2))) is None

    def test_part_a_complete_outer(self):
        dec = decompose_composition(spec_of(complete(3), empty(2), empty(1), empty(3)))
        assert dec is not None

    def test_part_a_skips_s4_itself(self):
        # composing S_4 from trivial blocks is S_4: no route applies
        assert decompose_composition(spec_of(s4(), *[empty(1)] * 4)) is None

    @pytest.mark.parametrize("big", range(4))
    def test_part_a_s4_outer_with_one_doubled_block(self, big):
        """Every relabelling of S_4 with one block of order >= 2 at position
        big.  The order-3 inner with an arc is one that breaks a skeleton
        keeping the doubled block's inner arcs."""
        inners = (empty(2), empty(3), cycle(2), Digraph(3, [(0, 1)]))
        parts = []
        for perm in itertools.permutations(range(4)):
            outer = Digraph(4, [(perm[u], perm[v]) for u, v in s4().arcs])
            assert decompose_composition(spec_of(outer, *[empty(1)] * 4)) is None
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
        search tree would hang it.  This outer's sorted tree runs past the
        1,024-node cap (it ends after 890,839 nodes), and its MCS tree ends
        after 87: the oracle, which runs the same two steps, finds a
        decomposition in MCS order, and part (a) lifts it."""
        rep = oracle_good_decomposition(ORDER9_OUTER)
        assert (rep.outcome, rep.nodes_explored, rep.order) == ("found", 1024 + 87, "mcs")
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

    @pytest.mark.parametrize("outer", [BIDIRECTED_K68, STRONG_TOURNAMENT_4], ids=["K68", "T4"])
    def test_trivial_block_skips_hamiltonian_search(self, monkeypatch, outer):
        def refuse(d):
            raise AssertionError("Hamiltonian search reached")

        monkeypatch.setattr("gooddecomp.decomp.hamiltonian_cycle_bruteforce", refuse)
        monkeypatch.setattr("gooddecomp.decomp._hamiltonian_cycle_semicomplete", refuse)
        spec = spec_of(outer, empty(1), *[empty(2)] * (outer.n - 1))
        assert decompose_composition(spec) is None
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
        assert calls == {search: 2}

    def test_hamiltonian_route_tests_outer_once(self, monkeypatch):
        # the route has shown T strong and semicomplete, so the cycle
        # extension runs without the public function's tests of T
        def refuse(d):
            raise AssertionError("outer tested again")

        monkeypatch.setattr("gooddecomp.structure.is_semicomplete", refuse)
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
        assert decompose_composition(spec_of(path(2), empty(2), empty(2))) is None

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
