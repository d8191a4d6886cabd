import hashlib
import itertools
import os
import random
import subprocess
import sys
import time

import pytest

import gooddecomp
from gooddecomp import (
    CompositionSpec,
    ConstructionError,
    Digraph,
    arc_connectivity,
    complete,
    compose,
    cycle,
    empty,
    exception_digraph,
    find_isomorphism,
    is_strong,
    oracle_good_decomposition,
    s4,
    verify,
)
from gooddecomp import oracle as oracle_mod
from gooddecomp import _kernel_py
from gooddecomp import digraph as digraph_mod
from gooddecomp.digraph import _closure, _reaches, _rows, _two_arc_strong
from gooddecomp.oracle import _orbit, enumerate_semicomplete

from conftest import (
    canonical_form,
    good_decomposition_exists_bruteforce,
    kernel_search_reference,
    random_strong_digraph,
    semicomplete_class_count,
    shuffled_torus,
)
from test_acceptance import _all_small_specs

#: (outcome, nodes_explored, side of each arc of sorted_arcs() when found)
#: recorded for fixed instances; any change means the search tree changed
PINNED_NAMED = {
    "S4": ("none", 13, ""),
    "C3_K2_K2_K2": ("none", 30, ""),
    "C3_P2_K2_K2": ("none", 67, ""),
    "C3_K2_K2_K3": ("none", 98, ""),
    "C5[K2]": ("none", 138, ""),
    "K5": ("found", 30, "11121112111211212212"),
    "K6": ("found", 42, "111121111211112111121112122212"),
}
PINNED_RANDOM = [
    ("none", 0, ""),
    ("found", 26, "1121211121212122"),
    ("found", 24, "11211222112"),
    ("found", 36, "111121121121111212122122"),
    ("none", 0, ""),
    ("none", 0, ""),
    ("found", 52, "11121111121111211122111112212212"),
    ("none", 0, ""),
    ("found", 26, "11121121211122112"),
    ("found", 33, "1112112112122112"),
    ("none", 0, ""),
    ("none", 0, ""),
    ("found", 24, "11121112112121221"),
    ("found", 30, "11121112111211212212"),
    ("none", 0, ""),
    ("found", 26, "12111211211212211"),
    ("found", 41, "1112112111211122121112122211"),
    ("found", 35, "111211121112221122"),
    ("none", 0, ""),
    ("none", 0, ""),
    ("none", 0, ""),
    ("found", 18, "1121221122"),
    ("found", 54, "1211121112111112111121112122212"),
    ("none", 0, ""),
    ("none", 0, ""),
    ("found", 16, "121122121"),
    ("found", 59, "111121111211112111221212211122"),
    ("none", 0, ""),
    ("found", 12, "122112"),
    ("none", 0, ""),
    ("found", 26, "11121121121122121"),
    ("none", 0, ""),
    ("found", 21, "1121212112"),
    ("none", 0, ""),
    ("found", 55, "111211121112111212112122"),
    ("found", 20, "1121222112"),
    ("found", 31, "1112112121221212"),
    ("found", 57, "1111121111121112111112111222112222"),
    ("found", 46, "11121111211111211122111221212"),
    ("found", 57, "1111211112111121112111211112122221"),
]

#: (outcome, nodes_explored, first 16 hex digits of the SHA-256 of the sides
#: string) at budget 5,000 for the draws of _random_regular3(rng, 24), rng
#: seeded 0x24; the sparse regime with the largest trees.  With backjumping
#: every draw ends in the sorted step, within its 1,024-node cap.
PINNED_REGULAR3_24 = [
    ("found", 137, "971a45529c39e02c"),
    ("found", 102, "3f36e82776e3c115"),
    ("found", 134, "99d48c9e115b6425"),
    ("found", 135, "f1a5388e04103e94"),
    ("found", 114, "ee57442d1cb14067"),
    ("found", 104, "dbdcecaf54b8fb3b"),
    ("found", 105, "045012d3668f3760"),
    ("found", 217, "12da652bd83ca65d"),
    ("found", 113, "f4fc0c53ce308df3"),
    ("found", 181, "4c7c84cb9a2b6bb5"),
    ("found", 167, "17abcf7e7e857aad"),
    ("found", 175, "2bcac42926de7bf9"),
    ("found", 133, "a16d81eba8a806da"),
    ("found", 100, "5ddf15e80fbb0d40"),
    ("found", 102, "c8c834fa5b81a103"),
    ("found", 112, "b974beeee1eb2661"),
    ("found", 125, "c25aa53eef970d2e"),
    ("found", 151, "3d5525b33f6ef6e1"),
    ("found", 119, "9640139b24734a17"),
    ("found", 117, "7d98614ac9e36c47"),
]

#: (n, min_arc_strong) -> (classes, SHA-256 of the sorted arc lists in yield
#: order); any change means other representatives or another order
ENUMERATION_DIGESTS = {
    (1, 0): (1, "cf1cbb66a638b4860a516671fb74850e6ccf787fe6c4c8d29e9c04efe880bd05"),
    (1, 1): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (1, 2): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (1, 3): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (2, 0): (2, "6a3317f804079eaaf9da1a63a1ba64b5e01b38d279811d6e2cc76683161f6afa"),
    (2, 1): (1, "dc3d530bb05de88023054a9b34efd50a134f717efe23f98dc73d4b08f20b3cb6"),
    (2, 2): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (2, 3): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (3, 0): (7, "6e9aa72af5bcb9bddaa9ac1e3c86469066188151d6ab9fd360c73483d4106c10"),
    (3, 1): (4, "609f9db39a95a349f1d6dc5cefd602601af74d6f0331bf2ed4468c4a7ae6e340"),
    (3, 2): (1, "aa85ba5daf6730fed21873a6738b3f331ad3cbbec21d2c48e083b8d51a465919"),
    (3, 3): (0, "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945"),
    (4, 0): (42, "9a074e9a9336ef1b0a3f3e2e816867159241b533c08b6c731fb2d78da489b66c"),
    (4, 1): (29, "f16f37ba785cadf588167c753dad6b2098212545eb26dcef347ff22809ea5cc0"),
    (4, 2): (7, "96c74b44213c15052941c977113cb661bdae3ae8d78dd14465075de143adafab"),
    (4, 3): (1, "dea7ab3b669af953a6306ee0d66c7e8e9bc50c6df9d3b5c0ffad28fb4325fe11"),
    (5, 0): (582, "79c55acea4107c2efc4a111b9d8133578ad4852f6024b781884a435ac07dc10f"),
    (5, 1): (496, "a6b8ed77d3bb0bf00034e03ff59ab9b766717a2144c89bbcb274653febe8c068"),
    (5, 2): (196, "f59e627b2294ea19018bd77888596a0146e87f658c52d8362c2192d928fbef4e"),
    (5, 3): (11, "e6400e628a8329c7beb48b6c0b45bd19ffd3895ce6cd5b1fb75e02675ed462ee"),
}


def _signature(d: Digraph, budget: int = 0) -> tuple:
    rep = oracle_good_decomposition(d, budget)
    sides = ""
    if rep.outcome == "found":
        dec = rep.decomposition
        sides = "".join(
            "1" if a in dec.a1 else "2" if a in dec.a2 else "0" for a in d.sorted_arcs()
        )
    return rep.outcome, rep.nodes_explored, sides


def _random_regular3(rng: random.Random, n: int) -> Digraph:
    """Union of three derangements that send no vertex to the same place,
    drawn again until strong: 3-regular, no loops, no parallel arcs."""
    while True:
        perms = []
        while len(perms) < 3:
            p = rng.sample(range(n), n)
            if all(p[v] != v and all(p[v] != q[v] for q in perms) for v in range(n)):
                perms.append(p)
        d = Digraph(n, {(v, p[v]) for p in perms for v in range(n)})
        if is_strong(d):
            return d


def _count_path_searches(monkeypatch, module=_kernel_py, names=("_reaches",)) -> dict:
    """Wrap the path searches names of module, by default the kernel's one,
    _reaches, and count their calls by name in the returned dict."""
    counts = {}
    for name in names:
        counts[name] = 0
        search = getattr(module, name)

        def counting(*args, name=name, search=search):
            counts[name] += 1
            return search(*args)

        monkeypatch.setattr(module, name, counting)
    return counts


def _layers(rows, v: int, depth: int) -> tuple:
    """v's closure along rows to the given depth, and its last layer."""
    seen = front = 1 << v
    for _ in range(depth):
        nxt = 0
        for u in range(len(rows)):
            if front >> u & 1:
                nxt |= rows[u]
        front = nxt & ~seen
        seen |= front
    return seen, front


def _mcs_reference(n: int, arcs: set) -> list:
    """The MCS arc order from its definition: vertex 0 first, then the
    unplaced vertex with the most arcs, either way, to placed ones (the lower
    id on ties); arcs by their later end's place, then the earlier end's,
    then the arc."""
    placed = [0] if n else []
    while len(placed) < n:
        weight = {v: sum(((u, v) in arcs) + ((v, u) in arcs) for u in placed)
                  for v in range(n) if v not in placed}
        placed.append(max(weight, key=lambda v: (weight[v], -v)))
    place = {v: k for k, v in enumerate(placed)}
    return sorted(arcs, key=lambda a: (max(place[a[0]], place[a[1]]),
                                       min(place[a[0]], place[a[1]]), a))


def _overlapping_sides(d, budget):
    return _kernel_py.FOUND, frozenset({(0, 1)}), frozenset({(0, 1)}), "sorted", 1


def _search_order(n: int, arcs: list, budget: int) -> tuple:
    """_kernel_py._search_order on list rows of (n, arcs), which it must
    leave as it found them."""
    rows = _rows(n, arcs)
    result = _kernel_py._search_order(n, arcs, budget, rows)
    assert rows == _rows(n, arcs)
    return result


class TestOracle:
    def test_s4_none(self):
        rep = oracle_good_decomposition(s4())
        assert (rep.outcome, rep.reason) == ("none", "exhausted")

    def test_exceptions_none(self):
        for tag in ("C3_K2_K2_K2", "C3_P2_K2_K2", "C3_K2_K2_K3"):
            assert oracle_good_decomposition(exception_digraph(tag)).outcome == "none"

    def test_complete4_found_and_verified(self):
        rep = oracle_good_decomposition(complete(4))
        assert rep.outcome == "found" and rep.reason is None
        assert verify(complete(4), rep.decomposition.a1, rep.decomposition.a2)

    def test_trivial_order(self):
        rep = oracle_good_decomposition(Digraph(1, []))
        assert rep.outcome == "found" and rep.decomposition.a1 == frozenset()

    def test_degree_precheck(self):
        rep = oracle_good_decomposition(cycle(5))
        assert rep.outcome == "none" and rep.nodes_explored == 0 and rep.reason == "degree"

    def test_arc_connectivity_precheck(self):
        # two complete triangles joined by one arc each way: degrees >= 2, lambda = 1
        k3 = complete(3).arcs
        d = Digraph(6, k3 | {(u + 3, v + 3) for u, v in k3} | {(0, 3), (3, 0)})
        rep = oracle_good_decomposition(d)
        assert (rep.outcome, rep.reason, rep.nodes_explored) == ("none", "arc-connectivity", 0)

    def test_prechecks_match_flows(self):
        """(outcome, reason, nodes_explored) equals what the degree bound read
        from the adjacency and arc_connectivity's flows give before the same
        two-order kernel search, refusals by either precheck included."""
        rng = random.Random(0xF10)
        seen = set()
        for trial in range(150):
            n = rng.randint(2, 8)
            density = rng.uniform(0.3, 0.9)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
            if trial % 3 == 0 and n >= 6:
                # only one arc each way between the halves: a bridge, most often
                # with every degree >= 2
                half = n // 2
                arcs = [(u, v) for u, v in arcs if (u < half) == (v < half)]
                arcs += [(rng.randrange(half), rng.randrange(half, n)),
                         (rng.randrange(half, n), rng.randrange(half))]
            d = Digraph(n, arcs)
            if any(min(d.in_degree(v), d.out_degree(v)) < 2 for v in range(n)):
                expected = ("none", "degree", 0)
            elif arc_connectivity(d) < 2:
                expected = ("none", "arc-connectivity", 0)
            else:
                status, _, _, _, nodes = _kernel_py.search(d, 2000)
                outcome = ("found", "none", "aborted")[status]
                expected = (outcome, "exhausted" if outcome == "none" else None, nodes)
            rep = oracle_good_decomposition(d, budget=2000)
            assert (rep.outcome, rep.reason, rep.nodes_explored) == expected, (n, arcs)
            seen.add(expected[:2])
        assert {("none", "degree"), ("none", "arc-connectivity"), ("found", None)} <= seen

    def test_budget_abort(self):
        rep = oracle_good_decomposition(exception_digraph("C3_K2_K2_K3"), budget=10)
        assert rep.outcome == "aborted" and rep.nodes_explored >= 10

    def test_matches_bruteforce_reference(self, rng):
        checked = 0
        while checked < 30:
            d = random_strong_digraph(rng, 4, density=0.6)
            if d.m > 12:
                continue
            rep = oracle_good_decomposition(d)
            assert rep.outcome in ("found", "none")
            assert (rep.outcome == "found") == good_decomposition_exists_bruteforce(d)
            checked += 1

    def test_pinned_search_trees(self):
        named = {
            tag: exception_digraph(tag)
            for tag in ("S4", "C3_K2_K2_K2", "C3_P2_K2_K2", "C3_K2_K2_K3")
        }
        named["C5[K2]"] = compose(CompositionSpec(cycle(5), (empty(2),) * 5)).digraph
        named["K5"], named["K6"] = complete(5), complete(6)
        assert {label: _signature(d) for label, d in named.items()} == PINNED_NAMED
        rng = random.Random(0xD1A6)
        drawn = [_signature(random_strong_digraph(rng, 7, density=0.75)) for _ in PINNED_RANDOM]
        assert drawn == PINNED_RANDOM

    def test_pinned_sparse_search_trees(self):
        rng = random.Random(0x24)
        drawn = []
        for _ in PINNED_REGULAR3_24:
            outcome, nodes, sides = _signature(_random_regular3(rng, 24), budget=5000)
            drawn.append((outcome, nodes, hashlib.sha256(sides.encode()).hexdigest()[:16]))
        assert drawn == PINNED_REGULAR3_24
        # backjumping settles every draw in the sorted step, where 5 of the
        # 20 chronological trees ran past its cap; TestTwoOrders reaches
        # the MCS step on the shuffled C12□C12
        assert max(nodes for _, nodes, _ in PINNED_REGULAR3_24) <= _kernel_py._SORTED_CAP

    def test_kernel_matches_reference(self):
        """The full (status, a1, a2, nodes) of the kernel's single-order loop
        equals that of the plain reference on random strong digraphs of
        order 1-9; the non-strong draws, which the loop does not take, are
        skipped.  The budgets put aborts on both choices; the unlimited
        budget runs where the reference finishes within 500 nodes, to bound
        the reference's time."""
        rng = random.Random(0x5EA7)
        aborts = []
        for _ in range(200):
            n = rng.randint(1, 9)
            density = rng.uniform(0.2, 0.9)
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
            if not is_strong(Digraph(n, arcs)):
                continue
            for budget in (500, 50, 7, 2, 1, 0):
                if budget == 0 and unfinished:
                    continue
                expected = kernel_search_reference(n, arcs, budget, aborts)
                assert _search_order(n, arcs, budget) == expected, (n, arcs, budget)
                if budget == 500:
                    unfinished = expected[0] == _kernel_py.ABORTED
        assert set(aborts) == {"1", "2"}

    def test_kernel_matches_reference_sparse(self):
        """The same comparison on seeded 3-regular digraphs of order 10-14,
        whose narrow trees fail mostly at the degree guard, so that most
        conflicts are the other arcs of a starved vertex.  Their backjumping
        trees take 43-99 nodes, so budget 60 aborts some of them."""
        rng = random.Random(0x3EA7)
        outcomes = set()
        for _ in range(24):
            d = _random_regular3(rng, rng.randint(10, 14))
            arcs = d.sorted_arcs()
            for budget in (1500, 60, 30):
                expected = kernel_search_reference(d.n, arcs, budget)
                assert _search_order(d.n, arcs, budget) == expected, (d.n, arcs, budget)
                outcomes.add((budget, expected[0]))
        assert {(1500, _kernel_py.FOUND), (60, _kernel_py.FOUND), (60, _kernel_py.ABORTED)} <= outcomes

    def test_kernel_matches_reference_compositions(self):
        """The same comparison on seeded compositions T[H_1, H_2, H_3] of a
        strong semicomplete T of order 3 with blocks of order 2-3 and at most
        two inner arcs: their twins make dense trees in which a path of two
        arcs answers most tests."""
        rng = random.Random(0xC03)
        base = [(0, 1), (1, 2), (2, 0)]
        outcomes = set()
        for _ in range(40):
            outer = Digraph(3, base + [(v, u) for u, v in base if rng.random() < 0.5])
            sizes = [rng.choice((2, 3)) for _ in range(3)]
            inner = [[] for _ in sizes]
            for _ in range(rng.randint(0, 2)):
                k = rng.randrange(3)
                inner[k].append(tuple(rng.sample(range(sizes[k]), 2)))
            blocks = tuple(Digraph(n, arcs) for n, arcs in zip(sizes, inner))
            d = compose(CompositionSpec(outer, blocks)).digraph
            arcs = d.sorted_arcs()
            for budget in (500, 50, 7):
                expected = kernel_search_reference(d.n, arcs, budget)
                assert _search_order(d.n, arcs, budget) == expected, (d.n, arcs, budget)
                outcomes.add((budget, expected[0]))
        assert {(500, _kernel_py.FOUND), (500, _kernel_py.NONE), (7, _kernel_py.ABORTED)} <= outcomes

    def test_sparse_search_work(self, monkeypatch):
        """A deterministic work guard: on the PINNED_REGULAR3_24 draws the
        kernel's single-order loop, searching sorted arcs at budget 5,000,
        runs exactly these path searches; the degree guard and the paths of
        two and three arcs answer the rest.  Every such tree ends within the
        sorted step's cap, so the oracle runs the same trees and the same
        searches."""
        searches = _count_path_searches(monkeypatch)
        rng = random.Random(0x24)
        draws = [_random_regular3(rng, 24) for _ in PINNED_REGULAR3_24]
        nodes = sum(_kernel_py._search_order(d.n, d.sorted_arcs(), 5000, d.rows)[3] for d in draws)
        assert nodes == 2643
        assert searches == {"_reaches": 1207}
        searches["_reaches"] = 0
        nodes = sum(oracle_good_decomposition(d, budget=5000).nodes_explored for d in draws)
        assert nodes == sum(pinned for _, pinned, _ in PINNED_REGULAR3_24) == 2643
        assert searches == {"_reaches": 1207}

    def test_dense_search_work(self, monkeypatch):
        """The same guard on the dense PINNED_RANDOM draws: a path of two arcs
        settles most tests that the degree guard does not, so 825 nodes run
        10 path searches."""
        searches = _count_path_searches(monkeypatch)
        rng = random.Random(0xD1A6)
        nodes = sum(
            oracle_good_decomposition(random_strong_digraph(rng, 7, density=0.75)).nodes_explored
            for _ in PINNED_RANDOM
        )
        assert nodes == sum(pinned for _, pinned, _ in PINNED_RANDOM) == 825
        assert searches == {"_reaches": 10}

    def test_precheck_search_work(self, monkeypatch):
        """The 2-arc-strong precheck searches only the tree arcs that its
        layer check leaves: on 20 strong 3-regular digraphs of order 24, at
        most a third of the 2n - 2 arcs of vertex 0's two search trees, on
        average."""
        searches = _count_path_searches(monkeypatch, digraph_mod, ("_reaches",))
        rng = random.Random(0x24)
        draws = [_random_regular3(rng, 24) for _ in range(20)]
        assert all(_two_arc_strong(d.n, *d.rows) for d in draws)
        assert 0 < searches["_reaches"] <= len(draws) * (2 * 24 - 2) // 3

    def test_reaches_from_start_sets(self):
        """_reaches from two disjoint start sets answers as _closure does.
        On seeded digraphs of order 2-12 and the PINNED_REGULAR3_24 draws an
        arc t->h is masked out, and t's closure and h's in-closure to depths
        0-2, with their last layers, start the search.  With the arc masked
        from the rows, as in the kernel, every depth serves; with the rows
        whole and the arc masked from the start sets only, as in
        _two_arc_strong, both depths are at least 1, so the search must not
        read the rows of t and h."""
        rng = random.Random(0x4EAC)
        hosts = []
        for _ in range(150):
            n = rng.randint(2, 12)
            pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
            hosts.append(Digraph(n, rng.sample(pairs, rng.randint(1, len(pairs)))))
        draws = random.Random(0x24)
        hosts += [_random_regular3(draws, 24) for _ in PINNED_REGULAR3_24]
        answers, met = set(), 0
        for d in hosts:
            for t, h in rng.sample(d.sorted_arcs(), min(d.m, 4)):
                out, inn = _rows(d.n, d.arcs - {(t, h)})
                expected = bool(_closure(out, t) >> h & 1)
                answers.add(expected)
                for da, db in itertools.product(range(3), repeat=2):
                    a, a_front = _layers(out, t, da)
                    b, b_front = _layers(inn, h, db)
                    if a & b:  # the closures have met: t reaches h
                        assert expected
                        met += 1
                        continue
                    assert _reaches(out, inn, a, a_front, b, b_front) == expected
                    if da and db:
                        assert _reaches(*d.rows, a, a_front, b, b_front) == expected
        assert answers == {True, False} and met > 100

    def test_kernel_matches_reference_shuffled(self):
        """The kernel's full (status, a1, a2, nodes) against
        conftest.kernel_search_reference on seeded digraphs whose arcs come
        in a shuffled order, not sorted by tail, so that a vertex's out-arcs
        lie on scattered levels."""
        rng = random.Random(0x5F1E)
        outcomes = set()
        for k in range(30):
            if k % 2:
                d = _random_regular3(rng, rng.randint(8, 12))
            else:
                d = random_strong_digraph(rng, rng.randint(4, 7), density=0.6)
            arcs = rng.sample(d.sorted_arcs(), d.m)
            for budget in (500, 50, 7):
                expected = kernel_search_reference(d.n, arcs, budget)
                assert _search_order(d.n, arcs, budget) == expected, (d.n, arcs, budget)
                outcomes.add((budget, expected[0]))
        assert {(500, _kernel_py.FOUND), (50, _kernel_py.ABORTED)} <= outcomes

    def test_backjumping_against_chronological(self):
        """Backjumping skips only subtrees that hold no solution.  On seeded
        strong digraphs of order 2-7, 3-regular digraphs of order 8-12 and
        the characterization's exceptions, wherever the chronological
        reference ends within its budget, the kernel returns the same
        (status, a1, a2) in at most as many nodes; where it aborts, the
        kernel aborts at budget + 1 or settles, and a found verifies."""
        rng = random.Random(0xCB1)
        hosts = [random_strong_digraph(rng, 7, density=rng.uniform(0.3, 0.9)) for _ in range(40)]
        hosts += [_random_regular3(rng, rng.randint(8, 12)) for _ in range(16)]
        hosts += [exception_digraph(tag) for tag in ("S4", "C3_K2_K2_K2", "C3_P2_K2_K2")]
        ended = fewer = aborted = settled = 0
        for d in hosts:
            arcs = d.sorted_arcs()
            for budget in (300, 40):
                chrono = kernel_search_reference(d.n, arcs, budget, backjump=False)
                status, i1, i2, nodes = _search_order(d.n, arcs, budget)
                if chrono[0] != _kernel_py.ABORTED:
                    assert (status, i1, i2) == chrono[:3], (d.n, arcs, budget)
                    assert nodes <= chrono[3]
                    ended += 1
                    fewer += nodes < chrono[3]
                    continue
                if status == _kernel_py.ABORTED:
                    assert nodes == budget + 1
                    aborted += 1
                    continue
                settled += 1
                if status == _kernel_py.FOUND:
                    a1, a2 = ({arcs[k] for k in ix} for ix in (i1, i2))
                    assert verify(d, a1, a2), (d.n, arcs, budget)
        assert ended > 50 and fewer > 10 and aborted and settled

    def test_shuffled_c8_c12_none(self):
        """The shuffled C8□C12 (seed 3) has no good decomposition: its sorted
        tree runs past the cap and the MCS step proves none in what
        remains, 17,138 nodes in all (42,070 without backjumping)."""
        d = shuffled_torus(8, 12, 3)
        start = time.perf_counter()
        rep = oracle_good_decomposition(d)
        assert time.perf_counter() - start < 1
        assert (rep.outcome, rep.reason, rep.nodes_explored, rep.order) == (
            "none", "exhausted", 17138, "mcs")

    def test_invalid_kernel_result_raises(self, monkeypatch):
        monkeypatch.setattr(oracle_mod._impl, "search", _overlapping_sides)
        with pytest.raises(ConstructionError, match="sides overlap on arc"):
            oracle_good_decomposition(complete(3))

    def test_invalid_kernel_result_raises_under_optimize(self):
        """python -O strips asserts; the check must stay."""
        code = (
            "import sys\n"
            "from gooddecomp import ConstructionError, complete, oracle\n"
            "side = frozenset({(0, 1)})\n"
            "oracle._impl.search = lambda d, budget: (oracle._impl.FOUND, side, side, 'sorted', 1)\n"
            "try:\n"
            "    oracle.oracle_good_decomposition(complete(3))\n"
            "except ConstructionError as exc:\n"
            "    print(sys.flags.optimize, 'raised', exc)\n"
            "else:\n"
            "    print(sys.flags.optimize, 'returned')\n"
        )
        src = os.path.dirname(os.path.dirname(gooddecomp.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert run.returncode == 0, run.stderr
        assert run.stdout == (
            "1 raised kernel returned invalid decomposition: sides overlap on arc (0, 1)\n"
        )

    def test_large_inputs_return_a_status(self):
        n = 70
        bidirected_cycle = Digraph(
            n, [(v, (v + 1) % n) for v in range(n)] + [((v + 1) % n, v) for v in range(n)]
        )
        for d in (complete(33), bidirected_cycle):
            status, _, _, _, nodes = _kernel_py.search(d, 5000)
            assert status in (_kernel_py.FOUND, _kernel_py.NONE, _kernel_py.ABORTED)
            assert nodes <= 5001

    def test_backend_reported(self):
        assert oracle_mod.BACKEND == "python"


class TestTwoOrders:
    """The oracle's kernel runs sorted arcs up to _SORTED_CAP nodes, then the
    MCS arc order with the budget that remains."""

    def test_mcs_order_matches_definition(self):
        """_mcs_order is a permutation of the arcs, the same whatever order
        they come in, and equals the order built from its definition, on
        digraphs that need not be strong or connected."""
        rng = random.Random(0x3C5)
        for _ in range(150):
            n = rng.randint(1, 9)
            density = rng.uniform(0.1, 0.8)
            d = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < density])
            arcs = d.sorted_arcs()
            order = _kernel_py._mcs_order(n, arcs, d.rows)
            assert sorted(order) == arcs
            assert _kernel_py._mcs_order(n, rng.sample(arcs, len(arcs)), d.rows) == order
            assert order == _mcs_reference(n, d.arcs), (n, arcs)

    def test_trees_below_cap_unchanged(self):
        """Where the sorted tree ends within the cap, the oracle reports what
        bare sorted search gives, (outcome, nodes, sides): on every
        2-arc-strong semicomplete class of order 2-5 and on every 20th
        criterion-3 composition, all of which pass the prechecks."""
        hosts = [d for n in range(2, 6) for d in enumerate_semicomplete(n, min_arc_strong=2)]
        hosts += [compose(spec).digraph for spec in itertools.islice(_all_small_specs(), 0, None, 20)]
        assert len(hosts) == 204 + 272
        for d in hosts:
            arcs = d.sorted_arcs()
            status, i1, i2, nodes = _kernel_py._search_order(d.n, arcs, 0, d.rows)
            assert nodes <= _kernel_py._SORTED_CAP
            sides = ""
            if status == _kernel_py.FOUND:
                sides = "".join("1" if k in i1 else "2" for k in range(len(arcs)))
            assert _signature(d) == (("found", "none")[status], nodes, sides)
            assert oracle_good_decomposition(d).order == "sorted"

    def test_one_kernel_call_per_search(self, monkeypatch):
        """Each oracle search is one call of the kernel's entry, whose node
        count and step are the report's: on every 2-arc-strong semicomplete
        class of order 2-5, on the PINNED_REGULAR3_24 draws and on the
        shuffled C12□C12, whose sorted tree runs past the sorted step's
        cap."""
        calls = []
        search = _kernel_py.search

        def recording(d, budget=0):
            calls.append(search(d, budget))
            return calls[-1]

        monkeypatch.setattr(_kernel_py, "search", recording)
        hosts = [(d, 0) for n in range(2, 6) for d in enumerate_semicomplete(n, min_arc_strong=2)]
        rng = random.Random(0x24)
        hosts += [(_random_regular3(rng, 24), 5000) for _ in PINNED_REGULAR3_24]
        hosts.append((shuffled_torus(12, 12, 3), 0))
        steps = set()
        for d, budget in hosts:
            calls.clear()
            rep = oracle_good_decomposition(d, budget)
            assert len(calls) == 1
            _, _, _, step, nodes = calls[0]
            assert (nodes, step) == (rep.nodes_explored, rep.order)
            steps.add(step)
        assert steps == {"sorted", "mcs"}

    def test_outcomes_match_bruteforce(self, monkeypatch):
        """The oracle's verdicts agree with the brute-force reference on
        seeded small digraphs, at the real cap and at a cap of 2, where the
        MCS step settles nearly every search."""
        rng = random.Random(0x3C6)
        for cap in (_kernel_py._SORTED_CAP, 2):
            monkeypatch.setattr(_kernel_py, "_SORTED_CAP", cap)
            orders = set()
            checked = 0
            while checked < 30:
                d = random_strong_digraph(rng, 5, density=0.6)
                if d.m > 12:
                    continue
                rep = oracle_good_decomposition(d)
                assert rep.outcome in ("found", "none")
                assert (rep.outcome == "found") == good_decomposition_exists_bruteforce(d)
                orders.add((rep.outcome, rep.order))
                checked += 1
            assert ("found", "mcs" if cap == 2 else "sorted") in orders

    def test_nodes_within_budget(self):
        """At any budget B > 0 the report counts at most B + 1 nodes, and
        exactly B + 1 iff it aborts, on either side of the cap: on seeded
        3-regular digraphs of order 24 and on the shuffled C12□C12, whose
        sorted tree runs past the cap."""
        rng = random.Random(0x24)
        draws = [_random_regular3(rng, 24) for _ in range(12)]
        draws.append(shuffled_torus(12, 12, 3))
        aborts = set()
        for d in draws:
            for budget in (1, 2, 10, 1023, 1024, 1025, 1100, 3000):
                rep = oracle_good_decomposition(d, budget)
                assert rep.nodes_explored <= budget + 1
                assert (rep.outcome == "aborted") == (rep.nodes_explored == budget + 1)
                if rep.outcome == "aborted":
                    aborts.add((budget, rep.order))
        assert {(1024, "sorted"), (1025, "mcs"), (1100, "mcs")} <= aborts

    def test_abort_after_both_orders(self):
        """Above the cap both steps can abort: the shuffled C12□C12's sorted
        tree runs past 1,024 nodes and its MCS tree past the 976 that budget
        2,000 leaves, so the report reads aborted with budget + 1 nodes.  At
        a budget of 1,024 there is no second step."""
        d = shuffled_torus(12, 12, 3)
        for budget, order in ((2000, "mcs"), (1024, "sorted")):
            rep = oracle_good_decomposition(d, budget)
            assert (rep.outcome, rep.nodes_explored, rep.order) == ("aborted", budget + 1, order)
            assert rep.decomposition is None and rep.reason is None

    def test_order_reported(self):
        assert oracle_good_decomposition(complete(5)).order == "sorted"
        assert oracle_good_decomposition(s4()).order == "sorted"
        assert oracle_good_decomposition(cycle(5)).order is None  # the degree precheck
        assert oracle_good_decomposition(Digraph(1, [])).order is None


class TestEnumeration:
    def test_order2(self):
        ds = list(enumerate_semicomplete(2, min_arc_strong=1))
        assert len(ds) == 1 and ds[0].m == 2  # the digon

    def test_order3_contains_c3(self):
        ds = list(enumerate_semicomplete(3, min_arc_strong=1))
        assert any(find_isomorphism(d, cycle(3)) is not None for d in ds)
        # hand census: strong semicomplete on 3 vertices up to iso has C_3,
        # C_3 + one digon, C_3 + two digons, complete digraph
        assert len(ds) == 4

    def test_order4_min2_contains_s4(self):
        ds = list(enumerate_semicomplete(4, min_arc_strong=2))
        assert any(find_isomorphism(d, s4()) is not None for d in ds)

    def test_no_isomorphic_duplicates(self):
        for n in range(2, 6):
            for k in (0, 2):
                forms = [canonical_form(d) for d in enumerate_semicomplete(n, k)]
                assert len(set(forms)) == len(forms)

    def test_class_counts_match_burnside(self):
        # with no duplicates, equal counts mean every class is represented
        for n in range(1, 6):
            assert sum(1 for _ in enumerate_semicomplete(n)) == semicomplete_class_count(n)

    def test_pinned_representatives(self):
        got = {}
        for n, k in ENUMERATION_DIGESTS:
            arcs = [sorted(d.arcs) for d in enumerate_semicomplete(n, k)]
            got[n, k] = (len(arcs), hashlib.sha256(repr(arcs).encode()).hexdigest())
        assert got == ENUMERATION_DIGESTS

    def test_bound(self):
        with pytest.raises(ValueError):
            next(enumerate_semicomplete(7))

    def test_packed_images_match_relabelling(self):
        # order 6 needs fields wider than 16 bits, which the tier-1
        # enumeration (n <= 5) never packs; code 0 and the all-digon code
        # (every image 3**15 - 1) are the extremes of the field range
        n = 6
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        P = len(pairs)
        images = _orbit(n, pairs)
        rng = random.Random(25)
        codes = [0, 3 ** P - 1] + [rng.randrange(3 ** P) for _ in range(28)]
        perms = list(itertools.permutations(range(n)))
        state = {(True, False): 0, (False, True): 1, (True, True): 2}  # u->v, v->u, digon
        for code in codes:
            states = [code // 3 ** (P - 1 - i) % 3 for i in range(P)]
            arcs = {a for (u, v), s in zip(pairs, states)
                    for a in ([(u, v)] if s == 0 else [(v, u)] if s == 1 else [(u, v), (v, u)])}
            want = []
            for p in perms:
                # x -> y is an arc of the image iff q[x] -> q[y] is an arc
                q = sorted(range(n), key=p.__getitem__)  # the inverse of p
                want.append(sum(
                    3 ** (P - 1 - i) * state[(q[x], q[y]) in arcs, (q[y], q[x]) in arcs]
                    for i, (x, y) in enumerate(pairs)
                ))
            assert list(images(states)) == want, code

    def test_packed_field_width(self):
        # the narrowest type that holds 3**P - 1; no type holds order 10's codes
        for n, itemsize in ((2, 1), (3, 1), (4, 2), (5, 2)):
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            assert _orbit(n, pairs)([2] * len(pairs)).itemsize == itemsize
        with pytest.raises(ValueError):
            _orbit(10, [(u, v) for u in range(10) for v in range(u + 1, 10)])
