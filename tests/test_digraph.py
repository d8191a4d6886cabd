import itertools
import random

import pytest

from gooddecomp import (
    Digraph,
    arc_connectivity,
    complete,
    cycle,
    empty,
    find_isomorphism,
    is_isomorphic_small,
    is_k_arc_strong,
    is_semicomplete,
    is_strong,
    path,
    relabel,
    s4,
)
from conftest import (
    all_digraphs_on_arcs,
    arc_connectivity_bruteforce,
    random_strong_digraph,
    strong_by_closure,
)
from gooddecomp.digraph import _rows, _two_arc_strong, _unreachable_pair


def bfs_unreachable_pair(n, arcs):
    """Reference for _unreachable_pair by plain BFS over adjacency lists: the
    smallest v with no path 0->v, else the smallest v with no path v->0."""
    if n <= 1:
        return None
    for forward in (True, False):
        adj = [[] for _ in range(n)]
        for u, v in arcs:
            if forward:
                adj[u].append(v)
            else:
                adj[v].append(u)
        seen = {0}
        queue = [0]
        for u in queue:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        missed = [v for v in range(n) if v not in seen]
        if missed:
            return (0, missed[0]) if forward else (missed[0], 0)
    return None


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Digraph(2, [(0, 2)])

    def test_opposite_arcs_coexist(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert d.m == 2

    def test_sorted_iteration(self):
        d = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert d.sorted_arcs() == [(0, 1), (1, 2), (2, 0)]
        assert d.rows == ((0b010, 0b100, 0b001), (0b100, 0b001, 0b010))


class TestNamedDigraphs:
    def test_cycle_is_strong(self):
        for n in range(2, 7):
            assert is_strong(cycle(n))

    def test_digon(self):
        assert cycle(2).arcs == frozenset({(0, 1), (1, 0)})

    def test_path_not_strong(self):
        assert not is_strong(path(3))

    def test_s4_shape(self):
        d = s4()
        assert d.n == 4 and d.m == 8
        assert is_semicomplete(d)
        # complete digraph minus the 4-cycle 0->2->1->3->0
        missing = complete(4).arcs - d.arcs
        assert missing == frozenset({(0, 2), (2, 1), (1, 3), (3, 0)})


class TestStrong:
    def test_trivial_orders_strong_by_convention(self):
        assert is_strong(Digraph(0, []))
        assert is_strong(Digraph(1, []))

    def test_matches_closure_oracle_exhaustive(self):
        for d in all_digraphs_on_arcs(3, 6):
            assert is_strong(d) == strong_by_closure(d)

    def test_matches_closure_oracle_random(self, rng):
        for _ in range(200):
            n = rng.randint(2, 8)
            arcs = [
                (u, v)
                for u in range(n)
                for v in range(n)
                if u != v and rng.random() < 0.3
            ]
            d = Digraph(n, arcs)
            assert is_strong(d) == strong_by_closure(d)

    def test_unreachable_pair_matches_bfs_reference(self, rng):
        # orders 65 and 130 need bitmask rows wider than one 64-bit word
        verdicts = {}
        for n in list(range(13)) + [65, 130]:
            for trial in range(60):
                if n >= 2 and trial % 3 == 0:  # a Hamiltonian cycle, maybe missing an arc
                    perm = rng.sample(range(n), n)
                    arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
                    if trial % 2:
                        arcs.discard(rng.choice(sorted(arcs)))
                    arcs |= {(u, v) for u, v in (rng.sample(range(n), 2) for _ in range(n // 4))}
                else:  # mean out-degree between 1/2 and 4
                    p = rng.choice((0.5, 1.5, 4.0)) / max(n, 1)
                    arcs = {(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < p}
                want = bfs_unreachable_pair(n, arcs)
                assert _unreachable_pair(n, *_rows(n, arcs)) == want, (n, sorted(arcs))
                assert is_strong(Digraph(n, arcs)) == (want is None)
                verdicts.setdefault(n, set()).add(want is None)
        assert verdicts[65] == verdicts[130] == {True, False}


class TestArcConnectivity:
    def test_cycle_is_one_arc_strong(self):
        assert arc_connectivity(cycle(5)) == 1

    def test_s4_is_two_arc_strong(self):
        assert arc_connectivity(s4()) == 2  # S_4 is the 2-arc-strong exception

    def test_complete_four(self):
        assert arc_connectivity(complete(4)) == 3  # brute force

    def test_trivial_order_rejected(self):
        with pytest.raises(ValueError):
            arc_connectivity(Digraph(1, []))
        for n in (0, 1):
            with pytest.raises(ValueError):
                is_k_arc_strong(Digraph(n, []), 2)

    def test_matches_bruteforce_small(self, rng):
        checked = 0
        for d in all_digraphs_on_arcs(3, 6):
            expected = arc_connectivity_bruteforce(d)
            assert arc_connectivity(d) == expected
            assert [is_k_arc_strong(d, k) for k in range(4)] == [expected >= k for k in range(4)]
            checked += 1
        assert checked > 50
        drawn = [random_strong_digraph(rng, 4) for _ in range(25)]
        # order-6 inputs; on the first an augmenting path cancels flow on a used arc
        cancelling = [
            Digraph(6, [(0, 2), (0, 3), (1, 3), (1, 5), (2, 0), (2, 4), (2, 5),
                        (3, 0), (3, 4), (4, 0), (4, 1), (5, 1), (5, 2)]),
            Digraph(6, [(0, 3), (0, 5), (1, 0), (1, 4), (2, 0), (3, 1), (3, 2),
                        (4, 3), (5, 2), (5, 4)]),
        ]
        assert [arc_connectivity_bruteforce(d) for d in cancelling] == [2, 1]
        for d in [d for d in drawn if d.m <= 10] + cancelling:
            expected = arc_connectivity_bruteforce(d)
            assert arc_connectivity(d) == expected
            assert [is_k_arc_strong(d, k) for k in range(4)] == [expected >= k for k in range(4)]


class TestTwoArcStrong:
    """is_k_arc_strong(d, 2) runs a strong-bridge test on bitmask rows;
    arc_connectivity keeps the flows, so each checks the other."""

    def test_matches_bruteforce(self, rng):
        # at most 3n - 1 arcs leave some degree <= 2, so the brute force
        # stops at two deleted arcs
        verdicts, shapes = set(), set()
        for trial in range(140):
            n = 2 + trial % 7
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            perm = rng.sample(range(n), n)
            arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)} if trial % 3 else set()
            arcs |= set(rng.sample(pairs, rng.randint(0, len(pairs))))
            if trial % 2:  # close digons
                arcs |= {(v, u) for u, v in rng.sample(sorted(arcs), len(arcs) // 2)}
            arcs = set(rng.sample(sorted(arcs), min(len(arcs), 3 * n - 1)))
            d = Digraph(n, arcs)
            expected = arc_connectivity_bruteforce(d) >= 2
            assert is_k_arc_strong(d, 2) == expected, (n, sorted(arcs))
            verdicts.add(expected)
            shapes.add("strong" if is_strong(d) else "not strong")
            if any((v, u) in arcs for u, v in arcs):
                shapes.add("digon")
            if any(min(d.out_degree(v), d.in_degree(v)) == 1 for v in range(n)):
                shapes.add("degree 1")
        assert verdicts == {True, False}
        assert shapes == {"strong", "not strong", "digon", "degree 1"}

    def test_matches_flows(self):
        rng = random.Random(0x2A5)
        verdicts = set()
        for trial in range(300):
            n = rng.randint(2, 12)
            density = rng.uniform(2 / n, 0.8) if n > 2 else 1.0
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
            d = Digraph(n, arcs)
            expected = arc_connectivity(d) >= 2
            assert is_k_arc_strong(d, 2) == expected, (n, arcs)
            verdicts.add((n > 8, expected))
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    def test_beyond_one_machine_word(self):
        n = 70
        bidirected = Digraph(n, cycle(n).arcs | {(v, u) for u, v in cycle(n).arcs})
        assert is_k_arc_strong(bidirected, 2)
        assert not is_k_arc_strong(cycle(n), 2)
        assert is_k_arc_strong(cycle(n), 1) and not is_k_arc_strong(path(n), 1)

    def test_rows_left_unchanged(self):
        for d in (s4(), cycle(4), complete(5)):
            out, inn = _rows(d.n, d.arcs)
            copies = (out[:], inn[:])
            _two_arc_strong(d.n, out, inn)
            assert (out, inn) == copies


class TestIsomorphism:
    def test_s4_relabeled(self, rng):
        perm = list(range(4))
        rng.shuffle(perm)
        assert is_isomorphic_small(s4(), relabel(s4(), perm))

    def test_cycle_vs_reverse(self):
        c = cycle(4)
        rev = Digraph(4, [(v, u) for u, v in c.arcs])
        assert is_isomorphic_small(c, rev)

    def test_nonisomorphic_same_degrees(self):
        a = Digraph(6, cycle(6).arcs)
        b = Digraph(6, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)})
        assert not is_isomorphic_small(a, b)

    def test_witness_preserves_arcs(self):
        a = cycle(5)
        b = relabel(a, [3, 1, 4, 0, 2])
        phi = find_isomorphism(a, b)
        assert phi is not None
        assert all((phi[u], phi[v]) in b.arcs for u, v in a.arcs)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            is_isomorphic_small(empty(13), empty(13))

    def test_equivalence_relation(self, rng):
        pool = [random_strong_digraph(rng, 4) for _ in range(8)]
        for d in pool:
            assert is_isomorphic_small(d, d)
        for a, b in itertools.combinations(pool, 2):
            assert is_isomorphic_small(a, b) == is_isomorphic_small(b, a)
        for a, b, c in itertools.permutations(pool, 3):
            if is_isomorphic_small(a, b) and is_isomorphic_small(b, c):
                assert is_isomorphic_small(a, c)
