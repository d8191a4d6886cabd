import hashlib
import random
import time

import pytest

from gooddecomp import (
    ConstructionError,
    Digraph,
    Ear,
    EarDecomposition,
    cartesian_product,
    complete,
    cover_cut,
    cycle,
    ear_decomposition,
    hamiltonian_cycle_bruteforce,
    hamiltonian_cycle_semicomplete,
    is_semicomplete,
    is_strong,
    path,
    relabel,
    s4,
    validate_ear_decomposition,
)
from gooddecomp import decomp, structure
from gooddecomp.oracle import enumerate_semicomplete
from gooddecomp.structure import cycle_arcs, is_cycle_of

from conftest import (
    hamiltonian_cycle_by_permutations,
    random_sparse_strong_digraph,
    random_strong_digraph,
)

#: SHA-256 of the ear decompositions, cover-network cuts and Hamiltonian
#: cycles drawn in test_pinned_search_outputs; any change means a search
#: order changed
PINNED_SEARCH_OUTPUTS = "371fe6037919f87c7d74aed06774a1127aea4bac991a4147708d90ac0523c847"

#: SHA-256 of repr of the list of Hamiltonian cycles drawn in
#: test_pinned_semicomplete_cycles; any change means the cycle extension
#: visits its insertions or bridges in another order
PINNED_SEMICOMPLETE_CYCLES = "376e5364444b46a22ad6e12fbd8112cc62c18df821dc6fc16d7c0d535fe3be11"


#: digons between vertex 0 and each of 1 and 2
DIGONS_AT_0 = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])


def _random_semicomplete(rng: random.Random, n: int) -> Digraph:
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            state = rng.randint(0, 2)
            if state != 1:
                arcs.add((u, v))
            if state != 0:
                arcs.add((v, u))
    return Digraph(n, arcs)


class TestEarDecomposition:
    def test_cycle_single_ear(self):
        dec = ear_decomposition(cycle(4))
        assert len(dec.ears) == 1 and dec.ears[0].closed

    def test_complete3_with_start_cycle(self):
        d = complete(3)
        dec = ear_decomposition(d, start_cycle=(0, 1, 2))
        assert dec.ears[0].vertices == (0, 1, 2)
        validate_ear_decomposition(d, dec)  # any valid sequence

    def test_non_strong_rejected(self):
        with pytest.raises(ValueError):
            ear_decomposition(path(3))

    def test_bad_start_cycle_rejected(self):
        with pytest.raises(ValueError):
            ear_decomposition(complete(3), start_cycle=(0, 0, 1))

    @pytest.mark.parametrize(
        "d,ears,message",
        [
            (cycle(2), [((0, 1), False)], "first ear must be a cycle"),
            (cycle(3), [((0, 2, 1), True)], "ear 0 uses non-arc (0, 2)"),
            (cycle(3), [((0, 1, 2), True), ((0, 1), False)], "ear 1 repeats arc (0, 1)"),
            (DIGONS_AT_0, [((0, 1, 0, 2), True)], "start cycle repeats a vertex"),
            (DIGONS_AT_0, [((0, 1), True), ((2, 0), True)],
             "cycle ear 1 must share exactly its anchor vertex"),
            (cycle(2), [((0, 1), True), ((0,), False)], "path ear 1 needs distinct endpoints"),
            (Digraph(3, [(0, 1), (1, 0), (2, 0)]), [((0, 1), True), ((2, 0), False)],
             "path ear 1 endpoints must be attached"),
            (complete(3), [((0, 1, 2), True), ((0, 2, 1), False)],
             "path ear 1 interior must be new"),
            (complete(3), [((0, 1, 2), True)], "ears do not exhaust the arc set"),
            (Digraph(3, [(0, 1), (1, 0)]), [((0, 1), True)], "ears do not cover all vertices"),
        ],
    )
    def test_malformed_decomposition_rejected(self, d, ears, message):
        dec = EarDecomposition(tuple(Ear(vs, closed) for vs, closed in ears))
        with pytest.raises(ValueError) as info:
            validate_ear_decomposition(d, dec)
        assert str(info.value) == message

    def test_ear_count_formula(self, rng):
        for _ in range(40):
            d = random_strong_digraph(rng, 6)
            dec = ear_decomposition(d)
            validate_ear_decomposition(d, dec)
            assert len(dec.ears) == d.m - d.n + 1


class TestHamiltonianSemicomplete:
    def test_triangle(self):
        assert hamiltonian_cycle_semicomplete(cycle(3)) == (0, 1, 2)

    def test_digon(self):
        assert hamiltonian_cycle_semicomplete(cycle(2)) == (0, 1)

    def test_s4(self):
        hc = hamiltonian_cycle_semicomplete(s4())
        assert is_cycle_of(s4(), hc) and len(hc) == 4

    def test_rejects_non_semicomplete(self):
        with pytest.raises(ValueError):
            hamiltonian_cycle_semicomplete(cycle(4))

    def test_rejects_non_strong(self):
        d = Digraph(3, [(0, 1), (0, 2), (1, 2)])  # transitive tournament
        with pytest.raises(ValueError):
            hamiltonian_cycle_semicomplete(d)

    def test_failed_cycle_check_raises(self, monkeypatch):
        # the closing check is an explicit raise, so it also holds under python -O
        monkeypatch.setattr(structure, "is_cycle_of", lambda d, cyc: False)
        with pytest.raises(ConstructionError, match="did not close a Hamiltonian cycle"):
            hamiltonian_cycle_semicomplete(complete(4))
        assert structure.ConstructionError is decomp.ConstructionError is ConstructionError

    def test_bridge_from_dominated_to_dominating(self):
        # neither 3 (dominated by the triangle) nor 4 (dominating it) fits
        # between two cycle vertices, so the arc 3->4 extends the cycle
        d = Digraph(
            5, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3), (4, 0), (4, 1), (4, 2), (3, 4)]
        )
        assert hamiltonian_cycle_semicomplete(d) == (0, 3, 4, 1, 2)

    def test_exhaustive_small_orders(self):
        # every strong semicomplete digraph of order <= 5, up to isomorphism
        for n in range(2, 6):
            for d in enumerate_semicomplete(n, min_arc_strong=1):
                hc = hamiltonian_cycle_semicomplete(d)
                assert is_cycle_of(d, hc) and len(hc) == n
                assert hamiltonian_cycle_bruteforce(d) is not None

    def test_random_orders_six_seven(self, rng):
        # exhaustive enumeration is infeasible past order 5; random sampling
        found = 0
        while found < 60:
            n = rng.choice((6, 7))
            d = _random_semicomplete(rng, n)
            if not is_strong(d):
                continue
            assert is_semicomplete(d)
            hc = hamiltonian_cycle_semicomplete(d)
            assert is_cycle_of(d, hc) and len(hc) == n
            found += 1


class TestHamiltonianBruteforce:
    def test_cycle(self):
        assert hamiltonian_cycle_bruteforce(cycle(6)) == tuple(range(6))

    def test_c2_box_c3_none(self):
        d = cartesian_product(cycle(2), cycle(3)).digraph
        assert hamiltonian_cycle_bruteforce(d) is None  # gcd(2,3)=1

    def test_c2_box_c2_found(self):
        d = cartesian_product(cycle(2), cycle(2)).digraph
        hc = hamiltonian_cycle_bruteforce(d)
        assert hc is not None and is_cycle_of(d, hc) and len(hc) == 4

    def test_first_cycle_in_lexicographic_order(self, rng):
        # the pruned search still returns the smallest vertex sequence from 0,
        # and None exactly when no ordering closes a cycle: sparse inputs are
        # where the dead-end pruning decides
        k34 = {(u, v) for u in range(3) for v in range(3, 7)}
        samples = [Digraph(7, k34 | {(v, u) for u, v in k34})]  # bidirected K_{3,4}
        for trial in range(150):
            n = rng.randint(2, 8)
            p = (0.2, 0.3, 0.45, 0.7)[trial % 4]
            samples.append(
                Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p])
            )
        verdicts = set()
        for d in samples:
            expected = hamiltonian_cycle_by_permutations(d)
            hc = hamiltonian_cycle_bruteforce(d)
            assert hc == expected, sorted(d.arcs)
            if hc is not None:
                assert is_cycle_of(d, hc) and len(hc) == d.n
            verdicts.add((d.n, hc is None))
        assert (7, True) in verdicts and (7, False) in verdicts
        assert hamiltonian_cycle_by_permutations(samples[0]) is None

    def test_dead_ends_pruned(self):
        # K_13 plus a vertex joined to 0 both ways has no Hamiltonian cycle;
        # the unpruned search would try every ordering of K_13
        start = time.monotonic()
        d = Digraph(14, set(complete(13).arcs) | {(0, 13), (13, 0)})
        assert hamiltonian_cycle_bruteforce(d) is None
        assert time.monotonic() - start < 5

    def test_bound_enforced(self):
        with pytest.raises(ValueError):
            hamiltonian_cycle_bruteforce(Digraph(37, []))

    def test_cycle_arcs_helper(self):
        assert cycle_arcs((0, 1, 2)) == [(0, 1), (1, 2), (2, 0)]


def test_pinned_search_outputs():
    rng = random.Random(0x5EA4)
    digest = hashlib.sha256()
    strong = [random_strong_digraph(rng, 9, density=rng.uniform(0.25, 0.6)) for _ in range(150)]
    strong += [random_sparse_strong_digraph(rng, rng.randint(3, 9), 14) for _ in range(150)]
    for d in strong:
        ears = [(ear.vertices, ear.closed) for ear in ear_decomposition(d).ears]
        digest.update(repr(ears).encode())
        digest.update(repr(sorted(cover_cut(d))).encode())
    semicomplete = 0
    while semicomplete < 150:
        d = _random_semicomplete(rng, rng.randint(2, 9))
        if is_strong(d):
            digest.update(repr(hamiltonian_cycle_semicomplete(d)).encode())
            semicomplete += 1
    assert digest.hexdigest() == PINNED_SEARCH_OUTPUTS


def test_pinned_semicomplete_cycles():
    # three relabellings of every strong semicomplete class of order 2-5
    # (530 classes), then 300 random strong semicomplete digraphs of order 6-40
    rng = random.Random(0xC7C1E)
    digraphs = [
        relabel(d, rng.sample(range(n), n))
        for n in range(2, 6)
        for d in enumerate_semicomplete(n, min_arc_strong=1)
        for _ in range(3)
    ]
    assert len(digraphs) == 1590
    while len(digraphs) < 1890:
        d = _random_semicomplete(rng, rng.randint(6, 40))
        if is_strong(d):
            digraphs.append(d)
    cycles = [hamiltonian_cycle_semicomplete(d) for d in digraphs]
    assert all(is_cycle_of(d, hc) and len(hc) == d.n for d, hc in zip(digraphs, cycles))
    assert hashlib.sha256(repr(cycles).encode()).hexdigest() == PINNED_SEMICOMPLETE_CYCLES
