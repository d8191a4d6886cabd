"""End-to-end acceptance checks, each with an explicit wall-clock budget.

Every criterion states the tolerance it enforces; expected values are either
computed here by independent brute-force oracles (see conftest) or are fixed
known quantities of the constructions under test.
"""

import hashlib
import itertools
import time
from collections import Counter

import pytest

from gooddecomp import (
    CompositionSpec,
    CycleCoverInfeasible,
    Digraph,
    Refusal,
    cartesian_product,
    compose,
    characterize_semicomplete_composition,
    cycle,
    cycle_cover,
    decompose_cartesian_power,
    decompose_cartesian_square,
    decompose_cn_boxtimes_cm,
    decompose_cn_square,
    decompose_composition,
    decompose_strong_product,
    empty,
    exception_digraph,
    find_isomorphism,
    hamiltonian_cycle_bruteforce,
    is_strong,
    oracle_good_decomposition,
    s4,
    trotter_erdos_hamiltonian,
    verify_decomposition,
)
from gooddecomp.decomp import _composition_route
from gooddecomp.oracle import enumerate_semicomplete

from conftest import (
    has_cycle_cover_bruteforce,
    random_sparse_strong_digraph,
    random_strong_digraph,
)


def _budget(start: float, seconds: float) -> None:
    assert time.monotonic() - start < seconds


def test_criterion_1_exception_certification():
    """The search oracle certifies nonexistence on all four known
    non-decomposable digraphs (4, 6, 6, and 7 vertices) in under 10 s."""
    start = time.monotonic()
    for tag in ("S4", "C3_K2_K2_K2", "C3_P2_K2_K2", "C3_K2_K2_K3"):
        assert oracle_good_decomposition(exception_digraph(tag)).outcome == "none"
    _budget(start, 10)


def test_criterion_2_semicomplete_census():
    """Every 2-arc-strong semicomplete digraph of order <= 5 except S_4
    admits a good decomposition; zero tolerance, under 10 min."""
    start = time.monotonic()
    found, none = 0, 0
    for n in range(2, 6):
        for d in enumerate_semicomplete(n, min_arc_strong=2):
            rep = oracle_good_decomposition(d)
            if rep.outcome == "found":
                found += 1
            else:
                assert rep.outcome == "none" and find_isomorphism(d, s4()) is not None
                none += 1
    assert none == 1 and found > 0
    _budget(start, 600)


def _all_small_specs():
    """All labeled composition specs: outer strong semicomplete on 3
    vertices, inner orders in {2,3}, at most 2 inner arcs in total."""
    pairs3 = [(u, v) for u in range(3) for v in range(3) if u != v]
    outers = []
    base = {(0, 1), (1, 2), (2, 0)}
    extras = [p for p in pairs3 if p not in base]
    for k in range(len(extras) + 1):
        for combo in itertools.combinations(extras, k):
            outers.append(Digraph(3, base | set(combo)))
    for outer in outers:
        for sizes in itertools.product((2, 3), repeat=3):
            slots = [
                (i, a)
                for i, n in enumerate(sizes)
                for a in itertools.permutations(range(n), 2)
            ]
            for r in range(3):
                for chosen in itertools.combinations(slots, r):
                    inner_arcs = [[] for _ in range(3)]
                    for i, a in chosen:
                        inner_arcs[i].append(a)
                    yield CompositionSpec(
                        outer,
                        tuple(Digraph(n, arcs) for n, arcs in zip(sizes, inner_arcs)),
                    )


def _parts_bytes(dec) -> bytes:
    return repr([sorted(p) for p in dec.parts]).encode()


#: SHA-256 over the results of criteria 3 and 9 in order (the exception tag
#: or the sorted parts); any change means a construction changed its output
CRITERION_3_RESULTS = "43ac32b1d505da2c2b84ce9975ce3f426b0aca00205fe12ef618212f64821622"
CRITERION_9_RESULTS = "a7f1c80bb05a57e9aab2cdd469b9ce9eed575c56ca259256e4d8dbbe6ca70f7b"


def test_criterion_3_characterization_matches_oracle():
    """The constructive characterization agrees with the search oracle on
    every small composition; exact agreement, under 30 min."""
    start = time.monotonic()
    checked = 0
    digest = hashlib.sha256()
    for spec in _all_small_specs():
        res = characterize_semicomplete_composition(spec)
        q, _ = compose(spec)
        rep = oracle_good_decomposition(q)
        assert rep.outcome in ("found", "none")
        assert res.is_exception == (rep.outcome == "none"), spec
        if not res.is_exception:
            assert verify_decomposition(res.decomposition).ok
        # the decomposer builds the same parts, or refuses with the same tag
        try:
            direct = decompose_composition(spec).parts
        except Refusal as ref:
            direct = ref.reason
        assert direct == (
            f"exception:{res.exception_tag}" if res.is_exception else res.decomposition.parts
        ), spec
        checked += 1
        digest.update(
            res.exception_tag.encode() if res.is_exception else _parts_bytes(res.decomposition)
        )
    assert checked > 2500
    assert digest.hexdigest() == CRITERION_3_RESULTS
    _budget(start, 1800)


#: the routes criterion 3's specs take: every branch of the characterization
#: is reached, and None is exactly the ten specs composing to an exception
CRITERION_3_ROUTES = {
    "composition/hamiltonian": 4228,
    "composition/part-a": 680,
    "composition/remaining": 522,
    None: 10,
}


def test_criterion_3_route_coverage():
    """Every criterion-3 spec is tallied by the route that decomposes it;
    strong parts, the last route, is never needed there.  Under 30 s."""
    start = time.monotonic()
    tally = Counter()
    for spec in _all_small_specs():
        route = _composition_route(spec)
        tally[None if route is None else route[0]] += 1
    assert tally == CRITERION_3_ROUTES
    assert "composition/strong-parts" not in tally
    _budget(start, 30)


def test_criterion_4_cycle_square_hamiltonian_partition():
    """The square of a directed n-cycle splits into two arc-disjoint
    Hamiltonian cycles for n = 2..8; exact partition, under 1 s."""
    start = time.monotonic()
    for n in range(2, 9):
        dec = decompose_cn_square(n)
        assert dec.a1 | dec.a2 == dec.host.arcs and not (dec.a1 & dec.a2)
        for side in (dec.a1, dec.a2):
            outs = Counter(u for u, v in side)
            ins = Counter(v for u, v in side)
            assert len(side) == n * n
            assert all(outs[v] == ins[v] == 1 for v in range(n * n))
            assert is_strong(Digraph(n * n, side))
    _budget(start, 1)


def test_criterion_5_strong_products(rng):
    """Strong-product constructions verify for all cycle pairs 2<=n,m<=6 and
    for 200 random strong factor pairs of order <= 5; 100% pass, under 5 min."""
    start = time.monotonic()
    for n in range(2, 7):
        for m in range(2, 7):
            assert verify_decomposition(decompose_cn_boxtimes_cm(n, m)).ok
    for _ in range(200):
        g = random_strong_digraph(rng, 5)
        h = random_strong_digraph(rng, 5)
        assert verify_decomposition(decompose_strong_product(g, h)).ok
    _budget(start, 300)


def test_criterion_6_cartesian_machinery(rng):
    """Cartesian squares and powers verify for 100 random strong digraphs of
    order <= 6 whose cycle covers have connected union, and the two-triangles
    digraph yields an infeasibility certificate; under 10 min."""
    start = time.monotonic()
    done = 0
    while done < 100:
        g = random_strong_digraph(rng, 6, density=0.45)
        cov = cycle_cover(g)
        if cov is None:
            continue
        try:
            assert verify_decomposition(decompose_cartesian_square(g, cov)).ok
        except ValueError:
            continue  # cover union disconnected: outside this criterion
        assert verify_decomposition(decompose_cartesian_power(g, 2)).ok
        assert verify_decomposition(decompose_cartesian_power(g, 3)).ok
        done += 1
    two_triangles = Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
    with pytest.raises(CycleCoverInfeasible) as exc:
        decompose_cartesian_power(two_triangles, 2)
    assert exc.value.cut
    _budget(start, 600)


def test_criterion_7_trotter_erdos_crosscheck():
    """The arithmetic Hamiltonicity test for C_p x C_q (Cartesian) matches
    brute-force cycle search for all 2 <= p,q <= 6; exact, under 2 min."""
    start = time.monotonic()
    for p in range(2, 7):
        for q in range(2, 7):
            d = cartesian_product(cycle(p), cycle(q)).digraph
            assert trotter_erdos_hamiltonian(p, q) == (
                hamiltonian_cycle_bruteforce(d) is not None
            )
    _budget(start, 120)


#: SHA-256 of repr((n, sorted arcs)) over the yielded digraphs, in order
STRONG_UPTO_8_ARCS_DIGEST = "1f1b46717011aba7f6d2983df5c56b4a2ac39b8a774300970b88abf5a8ba8abc"


def _closure_of_0(rows: list[int]) -> int:
    """Bitmask of the vertices that vertex 0 reaches along bitmask rows."""
    reach = frontier = 1
    while frontier:
        nxt = 0
        for v, row in enumerate(rows):
            if frontier >> v & 1:
                nxt |= row
        frontier = nxt & ~reach
        reach |= frontier
    return reach


def _strong_digraphs_upto_8_arcs_small_orders():
    """Every strong labelled digraph of order 2..5 with n..8 arcs, in
    itertools.combinations order.  Candidates are filtered on bitmask rows
    (every degree >= 1, then strongness) before a Digraph is built."""
    for n in range(2, 6):
        full = (1 << n) - 1
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for m in range(n, 9):
            for arcs in itertools.combinations(pairs, m):
                out, inn = [0] * n, [0] * n
                for u, v in arcs:
                    out[u] |= 1 << v
                    inn[v] |= 1 << u
                if (
                    all(out)
                    and all(inn)
                    and _closure_of_0(out) == full
                    and _closure_of_0(inn) == full
                ):
                    yield Digraph(n, arcs)


def test_criterion_8_cycle_cover_flow_equivalence(rng):
    """The flow-based cycle-cover test matches exhaustive enumeration of
    arc-disjoint cycle subsets: exhaustively on all strong digraphs of order
    <= 5 with <= 8 arcs, plus sampled orders 6-8; exact, under 5 min."""
    start = time.monotonic()
    checked = 0
    yielded = hashlib.sha256()
    for d in _strong_digraphs_upto_8_arcs_small_orders():
        assert (cycle_cover(d) is not None) == has_cycle_cover_bruteforce(d)
        yielded.update(repr((d.n, d.sorted_arcs())).encode())
        checked += 1
    # every strong digraph in the range, each once and in the same order
    assert checked == 35_393
    assert yielded.hexdigest() == STRONG_UPTO_8_ARCS_DIGEST
    # orders 6-8 exceed exhaustive reach: Hamiltonian cycles with chords
    # (arc budget 8) and sparse ear-grown samples
    for n in (6, 7, 8):
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        chords = [p for p in pairs if (p[0] + 1) % n != p[1]]
        ham = [(i, (i + 1) % n) for i in range(n)]
        for k in range(0, 9 - n):
            for extra in itertools.combinations(chords, k):
                d = Digraph(n, ham + list(extra))
                assert (cycle_cover(d) is not None) == has_cycle_cover_bruteforce(d)
        for _ in range(60):
            d = random_sparse_strong_digraph(rng, n, 8)
            assert (cycle_cover(d) is not None) == has_cycle_cover_bruteforce(d)
    _budget(start, 300)


def test_criterion_9_composition_conditions(rng):
    """300 random composition specs covered by one of the three constructive
    routes (2-arc-strong semicomplete outer; Hamiltonian outer with usable
    inner structure; all parts strong) all yield verified decompositions,
    and each group's tally of the routes taken is pinned; under 10 min."""
    start = time.monotonic()
    digest = hashlib.sha256()
    two_arc_strong = [
        d
        for n in range(3, 6)
        for d in enumerate_semicomplete(n, min_arc_strong=2)
    ]
    produced = 0
    routes = Counter()

    def decompose(group, spec):
        routes[group, _composition_route(spec)[0]] += 1
        return decompose_composition(spec)

    for _ in range(100):  # route: 2-arc-strong semicomplete outer
        outer = rng.choice(two_arc_strong)
        sizes = [rng.randint(1, 3) for _ in range(outer.n)]
        if find_isomorphism(outer, s4()) is not None and all(s == 1 for s in sizes):
            sizes[0] = 2  # the one genuinely non-decomposable case
        spec = CompositionSpec(outer, tuple(empty(s) for s in sizes))
        dec = decompose("part-a", spec)
        assert dec is not None and verify_decomposition(dec).ok
        digest.update(_parts_bytes(dec))
        produced += 1
    for _ in range(100):  # route: Hamiltonian outer cycle
        kind = rng.randrange(3)
        if kind == 0:
            t = rng.choice((2, 4, 6))
            inners = [empty(rng.randint(2, 4)) for _ in range(t)]
        elif kind == 1:
            t = rng.choice((3, 5))
            inners = [empty(rng.randint(2, 3)) for _ in range(t)]
            i, j = rng.sample(range(t), 2)
            inners[i] = Digraph(inners[i].n, [(0, 1)])
            inners[j] = Digraph(inners[j].n, [(1, 0)])
        else:
            t = rng.choice((3, 5))
            inners = [empty(2)] + [empty(rng.randint(3, 4)) for _ in range(t - 1)]
        spec = CompositionSpec(cycle(t), tuple(inners))
        dec = decompose("hamiltonian", spec)
        assert dec is not None and verify_decomposition(dec).ok
        digest.update(_parts_bytes(dec))
        produced += 1
    for _ in range(100):  # route: every part strong with at least one arc
        t = rng.randint(2, 4)
        outer = random_strong_digraph(rng, 4)
        while outer.n < 2:
            outer = random_strong_digraph(rng, 4)
        inners = tuple(random_strong_digraph(rng, 3, density=0.8) for _ in range(outer.n))
        inners = tuple(
            h if h.n >= 2 else cycle(2) for h in inners
        )
        spec = CompositionSpec(outer, inners)
        dec = decompose("strong-parts", spec)
        assert dec is not None and verify_decomposition(dec).ok
        digest.update(_parts_bytes(dec))
        produced += 1
    assert produced == 300
    assert digest.hexdigest() == CRITERION_9_RESULTS
    # the third group's outers are mostly Hamiltonian, so the earlier routes
    # take 83 of its specs before all parts strong is tried
    assert routes == {
        ("part-a", "composition/part-a"): 100,
        ("hamiltonian", "composition/hamiltonian"): 100,
        ("strong-parts", "composition/part-a"): 3,
        ("strong-parts", "composition/hamiltonian"): 80,
        ("strong-parts", "composition/strong-parts"): 17,
    }
    _budget(start, 600)


def test_criterion_9_strong_parts_route(rng):
    """100 specs whose outer is strong of order 3-5 with no Hamiltonian cycle,
    over strong inners of order >= 2, all take composition/strong-parts and
    verify: no earlier route applies to them, since a strong semicomplete
    outer is Hamiltonian."""
    for _ in range(100):
        while True:
            outer = random_strong_digraph(rng, 5, density=rng.uniform(0.3, 0.6))
            if outer.n >= 3 and hamiltonian_cycle_bruteforce(outer) is None:
                break
        inners = tuple(random_strong_digraph(rng, 3, density=0.8) for _ in range(outer.n))
        spec = CompositionSpec(outer, inners)
        assert _composition_route(spec)[0] == "composition/strong-parts"
        dec = decompose_composition(spec)
        assert dec is not None and verify_decomposition(dec).ok


def test_criterion_10_arc_count_ledger():
    """Composition arc counts: a 3-cycle over (one-arc 2-block, arcless
    2-block, arcless 2-block) has 13 arcs; over (2, 2, arcless 3-block)
    has 16 arcs."""
    q13, _ = compose(CompositionSpec(cycle(3), (Digraph(2, [(0, 1)]), empty(2), empty(2))))
    q16, _ = compose(CompositionSpec(cycle(3), (empty(2), empty(2), empty(3))))
    assert (q13.n, q13.m) == (6, 13)
    assert (q16.n, q16.m) == (7, 16)
