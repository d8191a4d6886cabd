"""A Decomposition is verified at most once: verify_decomposition keeps the
verdict on the value, outside its fields, so re-checking a returned
decomposition runs no further decomp.verify call."""

import copy
import pickle

import pytest

from gooddecomp import (
    CompositionSpec,
    ConstructionError,
    Decomposition,
    Refusal,
    VerifyResult,
    characterize_semicomplete_composition,
    complete,
    cycle,
    decomp,
    decompose_cartesian_power,
    decompose_cn_square,
    decompose_composition,
    decompose_lexicographic,
    decompose_strong_product,
    empty,
    oracle_good_decomposition,
    path,
    verify_decomposition,
)


@pytest.fixture
def verify_calls(monkeypatch):
    """The hosts of every decomp.verify call, in call order."""
    hosts = []
    real = decomp.verify

    def counting(host, *parts):
        hosts.append(host)
        return real(host, *parts)

    monkeypatch.setattr(decomp, "verify", counting)
    return hosts


def _found(d):
    report = oracle_good_decomposition(d)
    assert report.outcome == "found"
    return report.decomposition


BUILDERS = {
    "cn_square": lambda: decompose_cn_square(3),
    "cartesian_power": lambda: decompose_cartesian_power(cycle(3), 3),
    "strong_product": lambda: decompose_strong_product(cycle(3), cycle(2)),
    "lexicographic": lambda: decompose_lexicographic(cycle(3), cycle(2)),
    "composition": lambda: decompose_composition(CompositionSpec(cycle(4), (empty(2),) * 4)),
    "characterization": lambda: characterize_semicomplete_composition(
        CompositionSpec(complete(3), (path(2), empty(2), empty(3)))).decomposition,
    "oracle": lambda: _found(complete(4)),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS)
def test_returned_decomposition_is_not_checked_again(verify_calls, build):
    dec = build()
    assert dec is not None and len(verify_calls) == 1
    for _ in range(2):
        assert verify_decomposition(dec) == VerifyResult(True)
    assert verify_calls == [dec.host]


def test_failing_verdict_is_kept(verify_calls):
    c3 = cycle(3)
    dec = Decomposition(c3, (c3.arcs, frozenset()))
    first = verify_decomposition(dec)
    assert first == VerifyResult(False, "A2 not strong: no path 0->1")
    assert verify_decomposition(dec) == verify_decomposition(dec) == first
    assert len(verify_calls) == 1
    with pytest.raises(ConstructionError, match="construction failed verification: A2 not strong"):
        decomp._checked(c3, c3.arcs, set())


def test_verdict_is_no_field(verify_calls):
    checked = decompose_cn_square(3)
    twin = Decomposition(checked.host, checked.parts)
    assert checked == twin and hash(checked) == hash(twin)
    assert repr(checked) == repr(twin)
    assert pickle.dumps(checked) == pickle.dumps(twin)
    for other in (pickle.loads(pickle.dumps(checked)), copy.deepcopy(checked)):
        assert other == checked and hash(other) == hash(checked)
        calls = len(verify_calls)
        assert verify_decomposition(other) == verify_decomposition(checked)
        assert len(verify_calls) == calls + 1  # the copy's own verdict


def test_lexicographic_default_part_is_checked_by_verify_only(monkeypatch):
    real_pair, real_verify = decomp._unreachable_pair, decomp.verify
    inside = []  # per _unreachable_pair call: whether verify was running
    depth = [0]

    def pair(*args):
        inside.append(depth[0] > 0)
        return real_pair(*args)

    def verifying(host, *parts):
        depth[0] += 1
        try:
            return real_verify(host, *parts)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(decomp, "_unreachable_pair", pair)
    monkeypatch.setattr(decomp, "verify", verifying)
    dec = decompose_lexicographic(cycle(3), cycle(2))
    assert len(dec.parts) == 2 and inside == [True, True]
    # a part the caller supplies is still checked before the construction
    inside.clear()
    dec = decompose_lexicographic(cycle(3), cycle(2), [cycle(2).arcs])
    assert len(dec.parts) == 2 and inside == [False, True, True]


def test_lexicographic_errors_unchanged():
    # a non-strong h is refused before its default part is formed
    with pytest.raises(Refusal) as exc:
        decompose_lexicographic(cycle(3), path(2))
    assert (exc.value.reason, exc.value.detail) == (
        "not-covered", "digraph is not strong of order >= 2")
    with pytest.raises(ValueError, match="part 0 is not strong spanning"):
        decompose_lexicographic(cycle(3), complete(3), [{(0, 1), (1, 2)}])
