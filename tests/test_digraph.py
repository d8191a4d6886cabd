import hashlib
import itertools
import math
import pickle
import random

import pytest

from gooddecomp import (
    Digraph,
    arc_connectivity,
    complete,
    cycle,
    empty,
    find_isomorphism,
    is_k_arc_strong,
    is_semicomplete,
    is_strong,
    path,
    s4,
)
from conftest import (
    all_digraphs_on_arcs,
    arc_connectivity_bruteforce,
    min_st_cut_bruteforce,
    random_strong_digraph,
    relabel,
    strong_by_closure,
)
from gooddecomp import digraph
from gooddecomp.decomp import EXCEPTION_TAGS, exception_digraph
from gooddecomp.digraph import (
    _max_flow,
    _rows,
    _tree_path as tree_path,
    _two_arc_strong,
    _unreachable_pair,
)

#: test_pinned_witnesses, computed before find_isomorphism moved onto the rows
WITNESS_COUNT = 1304
WITNESS_SHA256 = "8192f182f5c76762bf73dc1a8b6825e428e2f848e196938b0310e1192765dfbe"


def unit_flow(d, s, t, limit=math.inf):
    """min(limit, most arc-disjoint s->t paths of d): _max_flow on a unit
    network built here, the flow reference of the tests below."""
    cap = [{} for _ in range(d.n)]
    for u, v in d.arcs:
        cap[u][v] = 1
    return _max_flow(cap, list(d.rows[0]), s, t, limit)


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

    @pytest.mark.parametrize(
        "n, arcs, exc, message",
        [
            (-1, [], ValueError, "order must be nonnegative"),
            (2.5, [(0, 1), (1, 0)], ValueError, "order 2.5 is not an int"),
            (True, [], ValueError, "order True is not an int"),
            (2, [(0, 1), (1, 1)], ValueError, "loop (1,1) not allowed"),
            (2, [(0, 1), (1, 2)], ValueError, "arc (1,2) out of range for order 2"),
            (2, [(0, True)], ValueError, "arc (0,True) has an endpoint that is not an int"),
            (2, [(0.0, 1)], ValueError, "arc (0.0,1) has an endpoint that is not an int"),
            (2, [("1", 0)], ValueError, "arc ('1',0) has an endpoint that is not an int"),
            (2, [(0,)], ValueError, "not enough values to unpack (expected 2, got 1)"),
            (2, [5], TypeError, "cannot unpack non-iterable int object"),
        ],
        ids=["negative-order", "float-order", "bool-order", "loop", "out-of-range", "bool",
             "float", "str", "short", "int"],
    )
    def test_input_contract(self, n, arcs, exc, message):
        with pytest.raises(exc) as info:
            Digraph(n, arcs)
        assert str(info.value) == message

    def test_any_iterable_of_int_pairs(self):
        arcs = [(0, 1), (1, 2), (2, 0), (0, 2)]
        built = [Digraph(3, arcs), Digraph(3, set(arcs)), Digraph(3, frozenset(arcs)),
                 Digraph(3, (a for a in arcs))]
        assert all(d == built[0] for d in built)

    def test_opposite_arcs_coexist(self):
        d = Digraph(2, [(0, 1), (1, 0)])
        assert d.m == 2

    def test_sorted_iteration(self):
        d = Digraph(3, [(2, 0), (0, 1), (1, 2)])
        assert d.sorted_arcs() == [(0, 1), (1, 2), (2, 0)]
        assert d.rows == ((0b010, 0b100, 0b001), (0b100, 0b001, 0b010))

    def test_read_only(self):
        # rows and the composition-route memos assume a digraph never changes
        d = cycle(3)
        for name, value in (("n", 4), ("arcs", frozenset()), ("rows", None)):
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(d, name, value)
        with pytest.raises(AttributeError, match="cannot assign"):
            del d.arcs
        assert d == cycle(3)

    def test_pickle_round_trip(self):
        d = Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 2)])
        d.rows  # a cached value is not part of the pickled state
        copy = pickle.loads(pickle.dumps(d))
        assert copy == d and hash(copy) == hash(d)
        assert copy.rows == d.rows


class TestNamedDigraphs:
    def test_cycle_is_strong(self):
        for n in range(2, 7):
            assert is_strong(cycle(n))

    def test_digon(self):
        assert cycle(2).arcs == frozenset({(0, 1), (1, 0)})

    def test_path_not_strong(self):
        assert not is_strong(path(3))
        with pytest.raises(ValueError, match="path needs order >= 1"):
            path(0)

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
        # a vertex-shuffled C_200 and P_200: every closure layer is one vertex
        n = 200
        p = rng.sample(range(n), n)
        for k, strong in ((n, True), (n - 1, False)):
            d = Digraph(n, [(p[i], p[(i + 1) % n]) for i in range(k)])
            assert is_strong(d) == strong_by_closure(d) == strong

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


# order-6 inputs; on the pair (0, 1) of the first, an augmenting path cancels
# flow on a used arc
CANCELLING = [
    Digraph(6, [(0, 2), (0, 3), (1, 3), (1, 5), (2, 0), (2, 4), (2, 5),
                (3, 0), (3, 4), (4, 0), (4, 1), (5, 1), (5, 2)]),
    Digraph(6, [(0, 3), (0, 5), (1, 0), (1, 4), (2, 0), (3, 1), (3, 2),
                (4, 3), (5, 2), (5, 4)]),
]


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
        assert [arc_connectivity_bruteforce(d) for d in CANCELLING] == [2, 1]
        for d in [d for d in drawn if d.m <= 10] + CANCELLING:
            expected = arc_connectivity_bruteforce(d)
            assert arc_connectivity(d) == expected
            assert [is_k_arc_strong(d, k) for k in range(4)] == [expected >= k for k in range(4)]

    def test_answers_up_to_two_run_no_flow(self, monkeypatch):
        def no_flow(*args):
            raise AssertionError("ran a flow")

        monkeypatch.setattr(digraph, "_max_flow", no_flow)
        two_k4 = Digraph(8, complete(4).arcs | {(u + 4, v + 4) for u, v in complete(4).arcs}
                         | {(0, 4), (4, 0)})
        assert min(min(two_k4.out_degree(v), two_k4.in_degree(v)) for v in range(8)) == 3
        assert arc_connectivity_bruteforce(two_k4) == 1
        assert [arc_connectivity(d) for d in (cycle(5), s4(), two_k4, path(3))] == [1, 2, 1, 0]
        # is_k_arc_strong at k = 2 reads the rows alone, also where λ > 2
        for d, expected in ((complete(6), True), (s4(), True), (two_k4, False), (cycle(5), False)):
            assert is_k_arc_strong(d, 2) == expected

    def test_dense_matches_bruteforce(self):
        """Dense digraphs of order 5-6 with λ >= 3, where the flows decide:
        the brute force stops at the minimum degree, here at most 4.  Then
        two complete digraphs joined by a matching each way, where λ is the
        matching's size, below the minimum degree: the reference there is
        the fewest arc-disjoint paths over all ordered pairs."""
        rng = random.Random(0x3A5)
        seen = set()
        while len(seen) < 10:
            n = rng.randint(5, 6)
            d = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.8])
            if not 3 <= min(min(d.out_degree(v), d.in_degree(v)) for v in range(n)) <= 4:
                continue
            expected = arc_connectivity_bruteforce(d)
            if expected < 3 or d in seen:
                continue
            seen.add(d)
            assert arc_connectivity(d) == expected
            assert [is_k_arc_strong(d, k) for k in range(expected + 2)] == (
                [True] * (expected + 1) + [False])
        for size, links in ((5, 3), (6, 4), (6, 3)):
            block = complete(size).arcs
            d = Digraph(2 * size, block | {(u + size, v + size) for u, v in block}
                        | {(i, i + size) for i in range(links)}
                        | {(i + size, (i + 1) % size) for i in range(links)})
            expected = min(unit_flow(d, s, t) for s, t in itertools.permutations(range(d.n), 2))
            assert expected == links < size - 1
            assert arc_connectivity(d) == expected
            assert [is_k_arc_strong(d, k) for k in range(expected + 2)] == (
                [True] * (expected + 1) + [False])

    def test_flows_match_bruteforce_cut(self, monkeypatch, rng):
        """Every ordered pair of the cancelling inputs and of small drawn
        digraphs: the flow equals the fewest arcs separating s from t, and
        some augmenting path steps back along an arc that carries flow."""
        paths = []

        def recorded(prev, v):
            paths.append(tree_path(prev, v))
            return paths[-1]

        monkeypatch.setattr(digraph, "_tree_path", recorded)
        drawn = [random_strong_digraph(rng, 6, density=0.3) for _ in range(40)]
        cancelled = set()
        for i, d in enumerate(CANCELLING + [d for d in drawn if d.m <= 12]):
            for s, t in itertools.permutations(range(d.n), 2):
                paths.clear()
                assert unit_flow(d, s, t) == min_st_cut_bruteforce(d, s, t)
                if any(step not in d.arcs for p in paths for step in zip(p, p[1:])):
                    cancelled.add((i, s, t))
        assert (0, 0, 1) in cancelled


class TestTwoArcStrong:
    """is_k_arc_strong(d, 2) runs a strong-bridge test on bitmask rows, and
    arc_connectivity answers 1 or 2 by it; the flows check it."""

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
            # two arc-disjoint paths from each vertex to the next (Schnorr)
            expected = all(unit_flow(d, v, (v + 1) % n, 2) == 2 for v in range(n))
            assert is_k_arc_strong(d, 2) == expected, (n, arcs)
            verdicts.add((n > 8, expected))
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    def test_list_rows_match_flows(self, monkeypatch):
        """_two_arc_strong on list rows answers as the flows do and leaves
        the rows as they were; each bridge candidate's search starts from
        disjoint sets, since a candidate's tail and head have no common
        neighbour besides each other.  The digraphs are two dense blocks
        joined by a few arcs, so some bridges join ends of degree 2 or more
        and only a search that never reads the bridge finds them."""
        reaches, starts, bridges = digraph._reaches, [], []

        def recorded(out, inn, a, a_front, b, b_front):
            starts.append(a & b)
            found = reaches(out, inn, a, a_front, b, b_front)
            bridges.append(not found and a_front and b_front)
            return found

        monkeypatch.setattr(digraph, "_reaches", recorded)
        rng = random.Random(0x2A6)
        shapes = set()
        for trial in range(300):
            n = rng.randint(4, 12)
            perm = rng.sample(range(n), n)
            cut = rng.randint(2, n - 2)
            arcs = set()
            for block in (perm[:cut], perm[cut:]):
                arcs |= {(u, v) for u, v in zip(block, block[1:] + block[:1])}
                pairs = [(u, v) for u in block for v in block if u != v]
                arcs |= set(rng.sample(pairs, rng.randint(0, len(pairs))))
            for _ in range(rng.randint(1, 6)):
                u, v = rng.choice(perm[:cut]), rng.choice(perm[cut:])
                arcs.add((u, v) if rng.random() < 0.5 else (v, u))
            d = Digraph(n, arcs)
            out, inn = _rows(n, arcs)
            copies = (out[:], inn[:])
            expected = all(unit_flow(d, v, (v + 1) % n, 2) == 2 for v in range(n))
            assert _two_arc_strong(n, out, inn) == expected, (n, sorted(arcs))
            assert (out, inn) == copies
            shapes.add("2-arc-strong" if expected else "strong" if is_strong(d) else "not strong")
        assert shapes == {"2-arc-strong", "strong", "not strong"}
        assert len(starts) > 100 and not any(starts) and any(bridges)

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


class TestBridgeCandidates:
    """_two_arc_strong searches only an arc into w from the one in-neighbour
    of w in w's own layer or an earlier one (along inn, out of w to the one
    such out-neighbour); every other in-neighbour counts only once it is
    seen."""

    def test_bridges_between_bidirected_triangles(self):
        # two bidirected triangles joined only by 0->3 and 4->1: both are
        # bridges, though each end of each has two more neighbours in its
        # own triangle, so a check that counted all of them would search
        # neither; every relabelling moves vertex 0 and the layers
        tri = {(u, v) for u in range(3) for v in range(3) if u != v}
        joined = tri | {(u + 3, v + 3) for u, v in tri} | {(0, 3), (4, 1)}
        for extra, expected in (((), False), (((3, 0),), False), (((1, 4),), False),
                                (((3, 0), (1, 4)), True)):
            base = Digraph(6, joined | set(extra))
            for perm in itertools.permutations(range(6)):
                d = relabel(base, perm)
                assert is_strong(d)
                assert _two_arc_strong(d.n, *d.rows) == expected, (extra, perm)
                assert arc_connectivity(d) == (2 if expected else 1)


class TestIsomorphism:
    def test_s4_relabeled(self, rng):
        perm = list(range(4))
        rng.shuffle(perm)
        assert find_isomorphism(s4(), relabel(s4(), perm)) is not None

    def test_cycle_vs_reverse(self):
        c = cycle(4)
        rev = Digraph(4, [(v, u) for u, v in c.arcs])
        assert find_isomorphism(c, rev) is not None

    def test_nonisomorphic_same_degrees(self):
        a = Digraph(6, cycle(6).arcs)
        b = Digraph(6, {(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)})
        assert find_isomorphism(a, b) is None

    def test_witness_preserves_arcs(self):
        a = cycle(5)
        b = relabel(a, [3, 1, 4, 0, 2])
        phi = find_isomorphism(a, b)
        assert phi is not None
        assert all((phi[u], phi[v]) in b.arcs for u, v in a.arcs)

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            find_isomorphism(empty(13), empty(13))

    def test_pinned_witnesses(self):
        # the witness is public output (CharacterizationResult.witness): the
        # first map in ascending v and w, pinned on seeded pairs of orders
        # 0-8 (60% relabellings, the rest random with as many arcs) and on
        # each exception digraph under 20 relabellings
        r = random.Random(0)
        witnesses = []
        for _ in range(1500):
            n = r.randint(0, 8)
            pairs, p = list(itertools.permutations(range(n), 2)), r.random()
            a = Digraph(n, [arc for arc in pairs if r.random() < p])
            if r.random() < 0.6:
                b = relabel(a, r.sample(range(n), n))
            else:
                b = Digraph(n, r.sample(pairs, a.m))
            witnesses.append(find_isomorphism(a, b))
        for tag in EXCEPTION_TAGS:
            ex = exception_digraph(tag)
            for _ in range(20):
                witnesses.append(find_isomorphism(relabel(ex, r.sample(range(ex.n), ex.n)), ex))
        assert sum(w is not None for w in witnesses) == WITNESS_COUNT
        assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == WITNESS_SHA256

    def test_equivalence_relation(self, rng):
        pool = [random_strong_digraph(rng, 4) for _ in range(8)]
        for d in pool:
            assert find_isomorphism(d, d) is not None
        for a, b in itertools.combinations(pool, 2):
            assert (find_isomorphism(a, b) is None) == (find_isomorphism(b, a) is None)
        for a, b, c in itertools.permutations(pool, 3):
            if find_isomorphism(a, b) is not None and find_isomorphism(b, c) is not None:
                assert find_isomorphism(a, c) is not None
