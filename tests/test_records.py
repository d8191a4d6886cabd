"""Value semantics of the library's nine result records: field access by
name, equality and hashing by fields, no assignment, a Name(field=value, ...)
repr, pickling, and the ValueErrors of the three that validate.  Digraph
shares the read-only value base with three of them."""

import copy
import pickle

import pytest

from gooddecomp import (
    CharacterizationResult,
    CompositionSpec,
    CoordinateMap,
    CycleCover,
    Decomposition,
    Digraph,
    Ear,
    EarDecomposition,
    OracleReport,
    VerifyResult,
    compose,
    cycle,
    empty,
    path,
)

_DEC = Decomposition(cycle(2), (frozenset({(0, 1)}), frozenset({(1, 0)})))

RECORDS = [
    (VerifyResult, {"ok": False, "reason": "A1 not strong: no path 0->1"}),
    (CharacterizationResult, {"decomposition": _DEC, "exception_tag": None, "witness": None}),
    (OracleReport, {"outcome": "found", "decomposition": _DEC, "nodes_explored": 3,
                    "elapsed": 0.25, "reason": None, "order": "sorted"}),
    (CycleCover, {"cycles": ((0, 1), (2, 3, 4))}),
    (Ear, {"vertices": (0, 1, 2), "closed": True}),
    (EarDecomposition, {"ears": (Ear((0, 1), True), Ear((1, 2, 0), False))}),
    (Decomposition, {"host": cycle(2), "parts": (frozenset({(0, 1)}), frozenset({(1, 0)}))}),
    (CoordinateMap, {"sizes": (2, 0, 3)}),
    (CompositionSpec, {"outer": cycle(2), "inners": (empty(1), path(2))}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_semantics(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert {name: getattr(record, name) for name in fields} == fields
    assert record == twin and hash(record) == hash(twin)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    shown = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"
    assert pickle.loads(pickle.dumps(record)) == record


def test_derived_fields_survive_pickling():
    cmap = CoordinateMap((2, 0, 3))
    assert pickle.loads(pickle.dumps(cmap)).offsets == cmap.offsets == (0, 2, 2, 5)
    spec = CompositionSpec(cycle(2), (empty(1), path(2)))
    copy = pickle.loads(pickle.dumps(spec))
    assert copy.sizes == spec.sizes == (1, 2)
    assert compose(copy) == compose(spec)


@pytest.mark.parametrize("build, message", [
    (lambda: Decomposition(cycle(2), (frozenset(),)), "at least two parts"),
    (lambda: CoordinateMap((1, -1)), "nonnegative"),
    (lambda: CompositionSpec(cycle(3), (empty(1), empty(1))), "one inner digraph per outer vertex"),
    (lambda: CompositionSpec(cycle(2), (empty(1), empty(0))), "order >= 1"),
])
def test_record_validation(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# the four classes built on the read-only value base
VALUES = [
    (Digraph, {"n": 2, "arcs": frozenset({(0, 1), (1, 0)})}),
    *[(cls, fields) for cls, fields in RECORDS
      if cls in (Decomposition, CoordinateMap, CompositionSpec)],
]


@pytest.mark.parametrize("cls, fields", VALUES, ids=[cls.__name__ for cls, _ in VALUES])
def test_value_semantics(cls, fields):
    record, twin = cls(**fields), cls(*fields.values())
    assert record == twin and hash(record) == hash(twin)
    for name in fields:
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match="cannot assign"):
            delattr(record, name)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record
    # a record is not a tuple: it never equals its field values
    assert record != tuple(fields.values()) and tuple(fields.values()) != record


def test_digraph_repr():
    assert repr(Digraph(3, [(2, 0), (0, 1)])) == "Digraph(3, [(0, 1), (2, 0)])"


@pytest.mark.parametrize("cls, args", [
    (CoordinateMap, ((2, 0, 3),)),
    (CompositionSpec, (cycle(2), (empty(1), path(2)))),
    (Decomposition, (cycle(2), (frozenset({(0, 1)}), frozenset({(1, 0)})))),
], ids=["CoordinateMap", "CompositionSpec", "Decomposition"])
def test_sequence_arguments(cls, args):
    # a list or an iterator stands for the tuple it holds, and Decomposition
    # takes any iterables of arcs as its parts
    *head, seq = args
    record = cls(*args)
    variants = [list(seq), iter(seq), (x for x in seq)]
    if cls is Decomposition:
        variants.append(tuple(set(p) for p in seq))
    for given in variants:
        other = cls(*head, given)
        assert other == record and hash(other) == hash(record)
