import random
from collections import Counter

import pytest

from gooddecomp import (
    CycleCover,
    CycleCoverInfeasible,
    Digraph,
    Refusal,
    cartesian_power,
    cartesian_product,
    complete,
    cycle,
    cycle_cover,
    decompose_cartesian_power,
    decompose_cartesian_square,
    decompose_cn_boxtimes_cm,
    decompose_cn_square,
    decompose_lexicographic,
    decompose_strong_product,
    ear_decomposition,
    is_strong,
    lexicographic_product,
    path,
    strong_product,
    trotter_erdos_hamiltonian,
    verify_decomposition,
)

from gooddecomp import decomp
from gooddecomp.decomp import ConstructionError, _boxtimes_base_side1

from conftest import random_sparse_strong_digraph, random_strong_digraph

BOWTIE = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
TWO_TRIANGLES_SHARED_ARC = Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])


def _is_hamiltonian_cycle_side(n: int, side) -> bool:
    outs = Counter(u for u, v in side)
    ins = Counter(v for u, v in side)
    return (
        len(side) == n
        and all(outs[v] == 1 and ins[v] == 1 for v in range(n))
        and is_strong(Digraph(n, side))
    )


def _assert_not_strong_refusal(decomposer, *args):
    with pytest.raises(Refusal) as exc:
        decomposer(*args)
    assert (exc.value.reason, exc.value.detail) == (
        "not-covered", "digraph is not strong of order >= 2"
    )


class TestCnSquare:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_two_hamiltonian_cycles_partition(self, n):
        dec = decompose_cn_square(n)
        assert dec.host.m == 2 * n * n
        assert dec.a1 | dec.a2 == dec.host.arcs and not (dec.a1 & dec.a2)
        assert _is_hamiltonian_cycle_side(n * n, dec.a1)
        assert _is_hamiltonian_cycle_side(n * n, dec.a2)  # two HCs

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            decompose_cn_square(1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cycle_square_sides_of_a_factor_cycle(self, n):
        # as _square_sides calls it: a shuffled n-cycle of an order-k factor,
        # k > n, with vertex (x, z) of the square numbered x * k + z
        rng = random.Random(n)
        k = n + rng.randint(1, 5)
        cyc = rng.sample(range(k), n)
        steps = list(zip(cyc, cyc[1:] + cyc[:1]))
        square = {(x * k + z, y * k + z) for x, y in steps for z in cyc}
        square |= {(x * k + z, x * k + w) for x in cyc for z, w in steps}
        side1, side2 = decomp._cycle_square_sides(cyc, k)
        assert side1 | side2 == square and not side1 & side2
        vertices = {x * k + z for x in cyc for z in cyc}
        for side in (side1, side2):
            succ = dict(side)  # one out-arc per vertex, one in-arc per vertex
            assert len(succ) == len(side) and set(succ) == set(succ.values()) == vertices
            walk = [min(vertices)]
            for _ in range(n * n - 1):
                walk.append(succ[walk[-1]])
            assert len(set(walk)) == n * n and succ[walk[-1]] == walk[0]


class TestCartesianSquare:
    def test_single_cycle_cover(self):
        dec = decompose_cartesian_square(cycle(4), CycleCover(((0, 1, 2, 3),)))
        ref = decompose_cn_square(4)
        assert dec.a1 == ref.a1 and dec.a2 == ref.a2  # delegation

    def test_bowtie(self):
        cov = cycle_cover(BOWTIE)
        dec = decompose_cartesian_square(BOWTIE, cov)
        assert dec.host.n == 25 and verify_decomposition(dec).ok

    def test_disconnected_cover_rejected(self):
        g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (2, 1)])
        bad = CycleCover(((0, 1), (2, 3)))
        with pytest.raises(ValueError, match="disconnected"):
            decompose_cartesian_square(g, bad)
        _assert_not_strong_refusal(decompose_cartesian_square, path(2), CycleCover(((0, 1),)))

    def test_invalid_cover_rejected(self):
        with pytest.raises(ValueError):
            decompose_cartesian_square(cycle(3), CycleCover(((0, 2, 1),)))
        with pytest.raises(ValueError, match="cover cycle 0"):
            decompose_cartesian_square(cycle(3), CycleCover(((), (0, 1, 2))))
        with pytest.raises(ValueError, match="not arc-disjoint"):
            decompose_cartesian_square(cycle(3), CycleCover(((0, 1, 2), (1, 2, 0))))
        with pytest.raises(ValueError, match="does not cover all vertices"):
            decompose_cartesian_square(complete(3), CycleCover(((0, 1),)))
        # disconnected and short of vertex 4: the cover's checks come first
        g = Digraph(5, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2), (2, 1), (3, 4), (4, 3)])
        with pytest.raises(ValueError, match="does not cover all vertices") as exc:
            decompose_cartesian_square(g, CycleCover(((0, 1), (2, 3))))
        assert not isinstance(exc.value, Refusal)

    def test_random_covers(self, rng):
        done = 0
        while done < 25:
            g = random_strong_digraph(rng, 5, density=0.45)
            cov = cycle_cover(g)
            if cov is None:
                continue
            try:
                dec = decompose_cartesian_square(g, cov)
            except ValueError:
                continue  # disconnected cover union
            assert verify_decomposition(dec).ok
            done += 1


class TestCartesianPower:
    def test_c2_cubed(self):
        dec = decompose_cartesian_power(cycle(2), 3)
        assert dec.host == cartesian_power(cycle(2), 3).digraph
        assert dec.host.n == 8 and verify_decomposition(dec).ok

    def test_k2_delegates_to_square(self):
        dec = decompose_cartesian_power(BOWTIE, 2)
        cov = cycle_cover(BOWTIE)
        ref = decompose_cartesian_square(BOWTIE, cov)
        assert dec.a1 == ref.a1 and dec.a2 == ref.a2

    def test_infeasibility_certificate(self):
        with pytest.raises(CycleCoverInfeasible) as exc:
            decompose_cartesian_power(TWO_TRIANGLES_SHARED_ARC, 2)
        assert exc.value.cut  # certificate carried
        # the two lines the CLI prints
        assert exc.value.reason == "infeasible:no-cycle-cover"
        assert exc.value.detail == "cut: [('in', 0), ('out', 2), ('out', 3)]"
        assert exc.value.cut == frozenset({("in", 0), ("out", 2), ("out", 3)})

    def test_each_power_verified_once(self, monkeypatch):
        import gooddecomp.decomp as decomp

        hosts = []
        real = decomp.verify

        def recording(host, *parts):
            hosts.append(host.n)
            return real(host, *parts)

        monkeypatch.setattr(decomp, "verify", recording)
        dec = decompose_cartesian_power(BOWTIE, 4)
        assert real(dec.host, *dec.parts).ok
        assert hosts == [625]

    def test_k_below_two_rejected(self):
        with pytest.raises(ValueError):
            decompose_cartesian_power(cycle(3), 1)
        _assert_not_strong_refusal(decompose_cartesian_power, path(3), 2)


class TestBoxtimes:
    def test_n2_m2_is_complete4(self):
        dec = decompose_cn_boxtimes_cm(2, 2)
        assert dec.host.m == 12 and verify_decomposition(dec).ok

    def test_n2_m3(self):
        assert verify_decomposition(decompose_cn_boxtimes_cm(2, 3)).ok

    def test_arc_count_side1(self):
        dec = decompose_cn_boxtimes_cm(4, 4)
        assert len(dec.a1) == 4 * 4 + 4  # n*m + m
        assert dec.a2 == dec.host.arcs - dec.a1

    def test_bounds(self):
        with pytest.raises(ValueError):
            decompose_cn_boxtimes_cm(1, 3)


class TestStrongProductGeneral:
    def test_cycles_match_boxtimes_base(self):
        dec = decompose_strong_product(cycle(3), cycle(3))
        ref = decompose_cn_boxtimes_cm(3, 3)
        assert dec.a1 == ref.a1  # no ears beyond the start cycles

    def test_chorded_cycle(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        dec = decompose_strong_product(g, cycle(2))
        assert dec.host == strong_product(g, cycle(2)).digraph
        assert verify_decomposition(dec).ok  # one path-ear step

    def test_random_pairs(self, rng):
        for _ in range(40):
            g = random_strong_digraph(rng, 5)
            h = random_strong_digraph(rng, 5)
            dec = decompose_strong_product(g, h)
            assert verify_decomposition(dec).ok

    def test_side1_follows_ear_induction(self, rng):
        # the paper's induction: the start cycles' base, then every later ear
        # of g in the layers of h's start cycle and of h in every layer of g
        pairs = [(random_strong_digraph(rng, 5), random_strong_digraph(rng, 5))
                 for _ in range(30)]
        pairs += [(random_sparse_strong_digraph(rng, rng.randint(2, 7), 12),
                   random_sparse_strong_digraph(rng, rng.randint(2, 7), 12))
                  for _ in range(30)]
        for g, h in pairs:
            ears_g, ears_h = ear_decomposition(g), ear_decomposition(h)
            q0 = ears_h.ears[0].vertices
            emb = strong_product(g, h).coords.vid
            ref = _boxtimes_base_side1(ears_g.ears[0].vertices, q0, h.n)
            ref |= {(emb(x, j), emb(y, j))
                    for e in ears_g.ears[1:] for x, y in e.arcs() for j in q0}
            ref |= {(emb(i, z), emb(i, w))
                    for e in ears_h.ears[1:] for z, w in e.arcs() for i in range(g.n)}
            assert decompose_strong_product(g, h).a1 == ref

    def test_non_strong_rejected(self):
        with pytest.raises(ValueError):
            decompose_strong_product(Digraph(2, [(0, 1)]), cycle(2))
        _assert_not_strong_refusal(decompose_strong_product, cycle(3), Digraph(1, []))


class TestLexicographic:
    def test_default_two_parts(self):
        dec = decompose_lexicographic(cycle(3), cycle(2))
        host = lexicographic_product(cycle(3), cycle(2)).digraph
        assert dec.host == host and len(dec.parts) == 2
        assert not (dec.parts[0] & dec.parts[1])
        for p in dec.parts:
            assert p <= host.arcs and is_strong(Digraph(host.n, p))

    def test_three_parts_from_split_k3(self):
        halves = [
            frozenset({(0, 1), (1, 2), (2, 0)}),
            frozenset({(0, 2), (2, 1), (1, 0)}),
        ]
        dec = decompose_lexicographic(cycle(3), complete(3), halves)
        host = lexicographic_product(cycle(3), complete(3)).digraph
        assert dec.host == host and len(dec.parts) == 3  # ell+1
        claimed = set()
        for p in dec.parts:
            assert not (claimed & p) and is_strong(Digraph(host.n, p))
            claimed |= p
        assert verify_decomposition(dec).ok

    def test_overlapping_parts_rejected(self):
        half = frozenset({(0, 1), (1, 2), (2, 0)})
        with pytest.raises(ValueError):
            decompose_lexicographic(cycle(3), complete(3), [half, half])
        # no part at all, and a part with an arc that h lacks
        with pytest.raises(ValueError, match="needs at least one arc set of h"):
            decompose_lexicographic(cycle(3), complete(3), [])
        with pytest.raises(ValueError, match="part 1 uses arcs outside h"):
            decompose_lexicographic(cycle(3), cycle(3), [half, frozenset({(0, 2)})])

    def test_non_strong_part_rejected(self):
        with pytest.raises(ValueError):
            decompose_lexicographic(cycle(3), complete(3), [frozenset({(0, 1)})])
        _assert_not_strong_refusal(decompose_lexicographic, path(3), cycle(2))

    def test_random_pairs(self, rng):
        for _ in range(15):
            g = random_strong_digraph(rng, 4)
            h = random_strong_digraph(rng, 4)
            dec = decompose_lexicographic(g, h)
            host = lexicographic_product(g, h).digraph
            assert dec.host == host and len(dec.parts) == 2
            assert not (dec.parts[0] & dec.parts[1])
            assert all(is_strong(Digraph(host.n, p)) for p in dec.parts)


class TestProductsFailClosed:
    """decompose_lexicographic reads the strong product's sides unverified,
    so its own final check is what keeps a broken side from getting out."""

    HALVES = [frozenset({(0, 1), (1, 2), (2, 0)}), frozenset({(0, 2), (2, 1), (1, 0)})]

    @pytest.mark.parametrize("build", [
        lambda: decompose_strong_product(cycle(3), cycle(4)),
        lambda: decompose_cn_boxtimes_cm(4, 3),
        lambda: decompose_lexicographic(cycle(3), cycle(2)),
        lambda: decompose_lexicographic(cycle(3), complete(3), TestProductsFailClosed.HALVES),
    ], ids=["strong-product", "boxtimes", "lex", "lex-ell-parts"])
    def test_side1_missing_an_arc_is_caught(self, monkeypatch, build):
        real, calls = decomp._strong_sides, []

        def broken(g, h, arcs):
            a1, a2 = real(g, h, arcs)
            tails = Counter(u for u, _ in a1)
            # the tail of this arc keeps no out-arc in side 1
            dropped = min(a for a in a1 if tails[a[0]] == 1)
            calls.append(dropped)
            return a1 - {dropped}, a2

        monkeypatch.setattr(decomp, "_strong_sides", broken)
        with pytest.raises(ConstructionError, match="A1 not strong"):
            build()
        assert len(calls) == 1


class TestTrotterErdos:
    def test_examples(self):
        assert not trotter_erdos_hamiltonian(2, 3)  # gcd 1
        assert trotter_erdos_hamiltonian(2, 2)
        assert trotter_erdos_hamiltonian(3, 6)

    def test_bounds(self):
        with pytest.raises(ValueError):
            trotter_erdos_hamiltonian(1, 5)

    def test_matches_bruteforce_small(self):
        from gooddecomp import hamiltonian_cycle_bruteforce

        for p in range(2, 5):
            for q in range(2, 5):
                d = cartesian_product(cycle(p), cycle(q)).digraph
                assert trotter_erdos_hamiltonian(p, q) == (
                    hamiltonian_cycle_bruteforce(d) is not None
                )
