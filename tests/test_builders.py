import math

import pytest

from gooddecomp import (
    Built,
    CompositionSpec,
    CoordinateMap,
    Digraph,
    cartesian_power,
    cartesian_product,
    compose,
    complete,
    cycle,
    decompose_cartesian_power,
    empty,
    find_isomorphism,
    is_strong,
    lexicographic_product,
    path,
    strong_product,
)
from gooddecomp.digraph import POWER_ORDER_BOUND

from conftest import random_strong_digraph


class TestCoordinateMap:
    def test_round_trip_uneven_sizes(self):
        sizes = (3, 0, 1, 0, 0, 4, 2)
        cmap = CoordinateMap(sizes)
        ids = [cmap.vid(i, j) for i, ni in enumerate(sizes) for j in range(ni)]
        assert ids == list(range(sum(sizes)))
        assert [cmap.coord(v) for v in ids] == [
            (i, j) for i, ni in enumerate(sizes) for j in range(ni)
        ]

    def test_zero_size_blocks(self):
        d, cmap = lexicographic_product(cycle(3), empty(0))
        assert d.n == 0 and cmap.sizes == (0, 0, 0)
        with pytest.raises(KeyError):
            cmap.vid(0, 0)
        with pytest.raises(KeyError):
            cmap.coord(0)

    def test_product_ids(self):
        g, h = cycle(3), path(4)
        for build in (cartesian_product, strong_product, lexicographic_product):
            cmap = build(g, h).coords
            for x in range(g.n):
                for y in range(h.n):
                    assert cmap.vid(x, y) == x * h.n + y
                    assert cmap.coord(x * h.n + y) == (x, y)

    @pytest.mark.parametrize("bad", [(-1, 0), (3, 0), (1, 2), (0, -1)])
    def test_out_of_range_coordinates(self, bad):
        cmap = CoordinateMap((2, 2, 1))
        with pytest.raises(KeyError):
            cmap.vid(*bad)

    @pytest.mark.parametrize("bad", [-1, 5, 6])
    def test_out_of_range_ids(self, bad):
        with pytest.raises(KeyError):
            CoordinateMap((2, 2, 1)).coord(bad)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            CoordinateMap((2, -1))


class TestCompose:
    def test_arc_count_thirteen(self):
        spec = CompositionSpec(cycle(3), (path(2), empty(2), empty(2)))
        q, _ = compose(spec)
        assert (q.n, q.m) == (6, 13)  # "Since Q has 13 arcs"

    def test_arc_count_sixteen(self):
        spec = CompositionSpec(cycle(3), (empty(2), empty(2), empty(3)))
        q, _ = compose(spec)
        assert (q.n, q.m) == (7, 16)  # "Since Q has 16 arcs"

    def test_degenerate_single_block(self):
        h = cycle(3)
        q, _ = compose(CompositionSpec(empty(1), (h,)))
        assert q.arcs == h.arcs  # t=1, no outer arcs

    def test_vertex_numbering(self):
        spec = CompositionSpec(cycle(2), (empty(3), empty(2)))
        q, cmap = compose(spec)
        assert cmap.vid(0, 2) == 2 and cmap.vid(1, 0) == 3
        assert cmap.coord(4) == (1, 1)

    def test_arc_count_formula_random(self, rng):
        from gooddecomp import Digraph

        for _ in range(25):
            t = rng.randint(2, 5)
            outer_arcs = [
                (u, v) for u in range(t) for v in range(t) if u != v and rng.random() < 0.5
            ]
            outer = Digraph(t, outer_arcs)
            sizes = [rng.randint(1, 4) for _ in range(t)]
            inners = tuple(
                Digraph(
                    n,
                    [
                        (u, v)
                        for u in range(n)
                        for v in range(n)
                        if u != v and rng.random() < 0.4
                    ],
                )
                for n in sizes
            )
            q, cmap = compose(CompositionSpec(outer, inners))
            expect = sum(h.m for h in inners) + sum(
                sizes[i] * sizes[p] for i, p in outer.arcs
            )
            assert q.m == expect
            # A(Q) from the definition over (block, vertex) coordinates: an
            # arc of H_i inside block i, or any pair of blocks joined in T
            verts = [(i, j) for i in range(t) for j in range(sizes[i])]
            want = {(a, b) for a in verts for b in verts
                    if (a[0] == b[0] and (a[1], b[1]) in inners[a[0]].arcs)
                    or (a[0], b[0]) in outer.arcs}
            assert q.arcs == {(cmap.vid(*a), cmap.vid(*b)) for a, b in want}

    def test_mismatched_spec_rejected(self):
        with pytest.raises(ValueError):
            CompositionSpec(cycle(3), (empty(2), empty(2)))

    def test_built_once_per_spec(self):
        spec = CompositionSpec(cycle(3), (path(2), empty(2), empty(3)))
        assert compose(spec) is compose(spec)
        # an equal spec builds its own, equal composition
        other = CompositionSpec(cycle(3), (path(2), empty(2), empty(3)))
        assert compose(other) is not compose(spec) and compose(other) == compose(spec)

    def test_composed_spec_equals_and_hashes_like_a_fresh_one(self):
        spec = CompositionSpec(cycle(3), (path(2), empty(2), empty(3)))
        compose(spec)
        fresh = CompositionSpec(cycle(3), (path(2), empty(2), empty(3)))
        assert spec == fresh and hash(spec) == hash(fresh)
        assert len({spec, fresh}) == 1


class TestProducts:
    def test_cartesian_counts(self):
        d, _ = cartesian_product(cycle(2), cycle(2))
        assert (d.n, d.m) == (4, 8)  # formula
        d, _ = cartesian_product(cycle(3), cycle(3))
        assert (d.n, d.m) == (9, 18)

    def test_cartesian_commutative_up_to_iso(self, rng):
        for _ in range(5):
            g = random_strong_digraph(rng, 3)
            h = random_strong_digraph(rng, 3)
            a, _ = cartesian_product(g, h)
            b, _ = cartesian_product(h, g)
            assert find_isomorphism(a, b) is not None

    def test_power(self):
        d, _ = cartesian_power(cycle(2), 2)
        assert (d.n, d.m) == (4, 8)
        d, _ = cartesian_power(cycle(3), 3)
        assert (d.n, d.m) == (27, 81)  # formula applied twice
        g = cycle(4)
        assert cartesian_power(g, 1).digraph == g

    def test_power_zero_rejected(self):
        with pytest.raises(ValueError):
            cartesian_power(cycle(2), 0)

    def test_power_order_bound(self):
        k = POWER_ORDER_BOUND.bit_length()  # 2 ** k > POWER_ORDER_BOUND >= 2 ** (k - 1)
        side = math.isqrt(POWER_ORDER_BOUND) + 1
        for g, power in ((cycle(3), 10**9), (empty(1), 10**9), (empty(1), k), (cycle(side), 2)):
            with pytest.raises(ValueError, match="exceeds the order bound"):
                cartesian_power(g, power)
            with pytest.raises(ValueError, match="exceeds the order bound"):
                decompose_cartesian_power(g, power)
        assert cartesian_power(empty(1), k - 1).digraph.n == 1  # order 1 counts as 2

    def test_strong_product_counts(self):
        d, _ = strong_product(cycle(2), cycle(2))
        assert (d.n, d.m) == (4, 12)
        assert find_isomorphism(d, complete(4)) is not None
        d, _ = strong_product(cycle(2), cycle(3))
        assert (d.n, d.m) == (6, 18)

    def test_products_match_definition(self, rng):
        # every arc and coordinate of G box H, G strong-times H and G[H], from
        # the definitions over coordinate pairs (x, z), numbered row by row
        def random_digraph(n):
            return Digraph(n, {(u, v) for u in range(n) for v in range(n)
                               if u != v and rng.random() < 0.4})

        factors = [empty(0), empty(1), empty(3), cycle(2), path(3)]
        factors += [random_digraph(rng.randint(1, 5)) for _ in range(12)]
        for g in factors:
            for h in rng.sample(factors, 6):
                verts = [(x, z) for x in range(g.n) for z in range(h.n)]
                pairs = [(a, b) for a in verts for b in verts]
                cart = {(a, b) for a, b in pairs
                        if (a[0] == b[0] and (a[1], b[1]) in h.arcs)
                        or (a[1] == b[1] and (a[0], b[0]) in g.arcs)}
                diag = {(a, b) for a, b in pairs
                        if (a[0], b[0]) in g.arcs and (a[1], b[1]) in h.arcs}
                # G[H, ..., H]: any pair of layers joined in G, or an H-arc
                # inside one layer
                lex = {(a, b) for a, b in pairs
                       if (a[0], b[0]) in g.arcs or (a[0] == b[0] and (a[1], b[1]) in h.arcs)}
                for build, want in ((cartesian_product, cart), (strong_product, cart | diag),
                                    (lexicographic_product, lex)):
                    d, cmap = build(g, h)
                    assert d.n == len(verts)
                    assert [cmap.coord(v) for v in range(d.n)] == verts
                    assert d.arcs == {(verts.index(a), verts.index(b)) for a, b in want}
            # G^k is the left fold of G box G, ids and coordinates too
            fold = Built(g, CoordinateMap((1,) * g.n))
            for k in range(1, 5):
                if k > 1:
                    fold = cartesian_product(fold.digraph, g)
                power = cartesian_power(g, k)
                assert power.digraph == fold.digraph and power.coords == fold.coords
            assert cartesian_power(g, 1).digraph is g

    def test_lexicographic_counts(self):
        d, _ = lexicographic_product(cycle(3), empty(2))
        assert (d.n, d.m) == (6, 12)
        q, _ = compose(CompositionSpec(cycle(3), (empty(2),) * 3))
        assert find_isomorphism(d, q) is not None  # uniform composition
        d, _ = lexicographic_product(cycle(2), cycle(2))
        assert (d.n, d.m) == (4, 12)
        d, _ = lexicographic_product(cycle(2), empty(0))  # no blocks to compose
        assert (d.n, d.m) == (0, 0)

    def test_containment_chain(self, rng):
        for _ in range(10):
            g = random_strong_digraph(rng, 3)
            h = random_strong_digraph(rng, 3)
            cart, _ = cartesian_product(g, h)
            strg, _ = strong_product(g, h)
            lex, _ = lexicographic_product(g, h)
            assert cart.arcs <= strg.arcs <= lex.arcs  # spanning subdigraphs

    def test_strongness_transfer(self, rng):
        for _ in range(10):
            g = random_strong_digraph(rng, 4)
            h = random_strong_digraph(rng, 4)
            assert is_strong(cartesian_product(g, h).digraph)
            assert is_strong(strong_product(g, h).digraph)
            assert is_strong(lexicographic_product(g, h).digraph)
