import pytest

from gooddecomp import Digraph, cover_cut, cycle, cycle_cover, path

from conftest import has_cycle_cover_bruteforce, random_sparse_strong_digraph, violates_hoffman

# two triangles sharing the arc b->a is not coverable: vertices 0,1,2 and
# 0,1,3 both need vertex 1's single admissible unit
TWO_TRIANGLES_SHARED_ARC = Digraph(4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 0)])
BOWTIE = Digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])


class TestFeasibleCirculation:
    def test_two_triangles_shared_arc_infeasible(self):
        assert cycle_cover(TWO_TRIANGLES_SHARED_ARC) is None
        cut = cover_cut(TWO_TRIANGLES_SHARED_ARC)
        assert violates_hoffman(TWO_TRIANGLES_SHARED_ARC, cut)

    def test_conservation_on_random_covers(self, rng):
        for _ in range(40):
            d = random_sparse_strong_digraph(rng, rng.randint(3, 6), 10)
            cut = cover_cut(d)
            if cycle_cover(d) is None:
                assert violates_hoffman(d, cut)
            else:
                assert cut == frozenset()


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
