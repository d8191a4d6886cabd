import pytest

from gooddecomp import (
    BoundedArc,
    Digraph,
    FlowNetwork,
    cover_network,
    cycle,
    cycle_cover,
    feasible_circulation,
    infeasibility_cut,
    path,
)

from conftest import has_cycle_cover_bruteforce, random_sparse_strong_digraph

# two triangles sharing the arc b->a is not coverable: vertices 0,1,2 and
# 0,1,3 both need vertex 1's single admissible unit
TWO_TRIANGLES_SHARED_ARC = Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
BOWTIE = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


class TestBounds:
    def test_lower_above_upper_rejected(self):
        with pytest.raises(ValueError):
            BoundedArc("a", "b", 2, 1)  # invariant

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            FlowNetwork(("a",), (BoundedArc("a", "b", 0, 1),))


def _check_flow(net: FlowNetwork, flows: dict[int, int]) -> None:
    balance: dict = {node: 0 for node in net.nodes}
    for i, a in enumerate(net.arcs):
        assert a.lower <= flows[i] <= a.upper
        balance[a.tail] -= flows[i]
        balance[a.head] += flows[i]
    assert all(b == 0 for b in balance.values())


def _violates_hoffman(net: FlowNetwork, cut: frozenset) -> bool:
    """Hoffman's certificate: the lower bounds on arcs entering the node set
    exceed the upper bounds on arcs leaving it, so no circulation exists."""
    entering = sum(a.lower for a in net.arcs if a.tail not in cut and a.head in cut)
    leaving = sum(a.upper for a in net.arcs if a.tail in cut and a.head not in cut)
    return entering > leaving


class TestFeasibleCirculation:
    def test_triangle_all_ones(self):
        net = cover_network(cycle(3))
        flows = feasible_circulation(net)
        assert flows is not None
        assert all(f == 1 for f in flows.values())  # the cycle itself
        _check_flow(net, flows)

    def test_two_triangles_shared_arc_infeasible(self):
        net = cover_network(TWO_TRIANGLES_SHARED_ARC)
        assert feasible_circulation(net) is None
        assert _violates_hoffman(net, infeasibility_cut(net))

    def test_conservation_on_random_covers(self, rng):
        for _ in range(40):
            d = random_sparse_strong_digraph(rng, rng.randint(3, 6), 10)
            net = cover_network(d)
            flows = feasible_circulation(net)
            if flows is not None:
                _check_flow(net, flows)
            else:
                assert _violates_hoffman(net, infeasibility_cut(net))

    def test_cut_with_loop_arcs(self):
        # b must take one unit from a and cannot pass it on; the loops carry
        # flow around without changing which nodes are reachable
        net = FlowNetwork(
            ("a", "b"),
            (BoundedArc("a", "a", 0, 5), BoundedArc("a", "b", 1, 1), BoundedArc("b", "b", 0, 5)),
        )
        assert feasible_circulation(net) is None
        cut = infeasibility_cut(net)
        assert cut == frozenset({"b"}) and _violates_hoffman(net, cut)


class TestCycleCover:
    def test_cycle_covers_itself(self):
        cov = cycle_cover(cycle(5))
        assert cov is not None and len(cov.cycles) == 1
        assert sorted(cov.cycles[0]) == [0, 1, 2, 3, 4]

    def test_bowtie_two_triangles(self):
        cov = cycle_cover(BOWTIE)
        assert cov is not None
        assert sorted(len(c) for c in cov.cycles) == [3, 3]
        assert set().union(*map(set, cov.cycles)) == set(range(5))

    def test_shared_arc_none(self):
        assert cycle_cover(TWO_TRIANGLES_SHARED_ARC) is None

    def test_requires_strong(self):
        with pytest.raises(ValueError, match="strong"):
            cycle_cover(path(3))

    def test_invariants_on_random(self, rng):
        for _ in range(60):
            d = random_sparse_strong_digraph(rng, rng.randint(3, 7), 12)
            cov = cycle_cover(d)
            if cov is None:
                continue
            seen: set = set()
            verts: set = set()
            for k, cyc in enumerate(cov.cycles):
                arcs = cov.arcs_of(k)
                assert all(a in d.arcs for a in arcs)
                assert not (seen & set(arcs))
                seen.update(arcs)
                verts.update(cyc)
            assert verts == set(range(d.n))

    def test_matches_bruteforce_random_sparse(self, rng):
        for _ in range(40):
            d = random_sparse_strong_digraph(rng, rng.randint(3, 6), 8)
            assert (cycle_cover(d) is not None) == has_cycle_cover_bruteforce(d)
