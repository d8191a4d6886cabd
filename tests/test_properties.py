"""Hypothesis property tests over randomly generated digraphs."""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from gooddecomp import (
    Digraph,
    arc_connectivity,
    cartesian_product,
    find_isomorphism,
    is_k_arc_strong,
    is_strong,
    lexicographic_product,
    oracle_good_decomposition,
    parse_edge_list,
    relabel,
    render_edge_list,
    strong_product,
    verify,
)

from conftest import strong_by_closure


@st.composite
def digraphs(draw, max_order=6, density=0.5):
    n = draw(st.integers(min_value=1, max_value=max_order))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = [p for p in pairs if draw(st.booleans())] if n > 1 else []
    return Digraph(n, arcs)


@st.composite
def strong_digraphs(draw, max_order=5):
    # a random cycle through all vertices plus random chords is always strong
    n = draw(st.integers(min_value=2, max_value=max_order))
    perm = draw(st.permutations(range(n)))
    arcs = set(zip(perm, list(perm[1:]) + [perm[0]]))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs |= {p for p in pairs if draw(st.booleans())}
    return Digraph(n, arcs)


@given(digraphs())
def test_strongness_matches_closure(d):
    assert is_strong(d) == strong_by_closure(d)


@given(digraphs())
def test_edge_list_round_trip(d):
    assert parse_edge_list(render_edge_list(d)) == d


@given(digraphs())
def test_repr_rebuilds_the_digraph(d):
    assert eval(repr(d), {"Digraph": Digraph}) == d


@given(digraphs(max_order=7))
def test_two_arc_strong_matches_flows(d):
    assume(d.n >= 2)
    assert is_k_arc_strong(d, 2) == (arc_connectivity(d) >= 2)


@given(strong_digraphs(), st.permutations(list(range(5))))
def test_relabel_preserves_everything(d, perm):
    p = list(perm[: d.n])
    if sorted(p) != list(range(d.n)):
        p = list(range(d.n))
    r = relabel(d, p)
    assert is_strong(r) == is_strong(d)
    assert find_isomorphism(d, r) is not None
    assert arc_connectivity(r) == arc_connectivity(d)
    assert is_k_arc_strong(r, 2) == is_k_arc_strong(d, 2)


@settings(max_examples=25, deadline=None)
@given(strong_digraphs(max_order=4), strong_digraphs(max_order=4))
def test_products_of_strong_are_strong(g, h):
    assert is_strong(cartesian_product(g, h).digraph)
    assert is_strong(strong_product(g, h).digraph)
    assert is_strong(lexicographic_product(g, h).digraph)


@settings(max_examples=25, deadline=None)
@given(strong_digraphs(max_order=4))
def test_oracle_found_always_verifies(d):
    rep = oracle_good_decomposition(d, budget=200_000)
    if rep.outcome == "found":
        assert verify(d, rep.decomposition.a1, rep.decomposition.a2).ok
