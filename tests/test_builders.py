import pytest

from gooddecomp import (
    CompositionSpec,
    cartesian_power,
    cartesian_product,
    compose,
    complete,
    cycle,
    empty,
    is_isomorphic_small,
    is_strong,
    lexicographic_product,
    path,
    strong_product,
)

from conftest import random_strong_digraph


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
            q, _ = compose(CompositionSpec(outer, inners))
            expect = sum(h.m for h in inners) + sum(
                sizes[i] * sizes[p] for i, p in outer.arcs
            )
            assert q.m == expect

    def test_mismatched_spec_rejected(self):
        with pytest.raises(ValueError):
            CompositionSpec(cycle(3), (empty(2), empty(2)))


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
            assert is_isomorphic_small(a, b)

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

    def test_strong_product_counts(self):
        d, _ = strong_product(cycle(2), cycle(2))
        assert (d.n, d.m) == (4, 12)
        assert is_isomorphic_small(d, complete(4))
        d, _ = strong_product(cycle(2), cycle(3))
        assert (d.n, d.m) == (6, 18)

    def test_lexicographic_counts(self):
        d, _ = lexicographic_product(cycle(3), empty(2))
        assert (d.n, d.m) == (6, 12)
        q, _ = compose(CompositionSpec(cycle(3), (empty(2),) * 3))
        assert is_isomorphic_small(d, q)  # uniform composition
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
