"""Behaviour of the package's 13 record classes.

Each is constructed by position and by keyword with its defaults,
compares field by field, shows its fields in its repr, and hashes by
its fields exactly when it is an immutable value (Edge, Functor,
SubdiagramSpec).  The constructors normalise what later code relies
on: spec partitions become tuples of frozensets, morphism edge paths
become tuples, and a partial ideal's choice is validated.
"""

import pytest

from ncspectrum import (MultiMatrixAlgebra, PartialIdeal, SubdiagramSpec,
                        ValidationError, build_subdiagram,
                        transposition_unitary)
from ncspectrum.abgroup import ColimitResult
from ncspectrum.diagram import BACKWARD, FORWARD, DiagramMorphism, Edge, Functor
from ncspectrum.ideals import Conjecture1Report, ReconstructionResult
from ncspectrum.ktheory import (EtaResult, KTildeContext, NaturalityReport,
                                Theorem1Report)
from ncspectrum.snf import SNFResult

M2 = MultiMatrixAlgebra([2])
SWAP = transposition_unitary(M2, 0, 0, 1)
DIA_A = build_subdiagram(M2)
DIA_B = build_subdiagram(M2)
NO_ATOMS = {n: frozenset() for n in DIA_A.shape.nodes}
ONE_ATOM = dict(NO_ATOMS, **{DIA_A.meta["fine"]: frozenset({0})})

# class: (field names in positional order, defaults, hashable,
#         two argument tuples differing in every field)
RECORDS = {
    Edge: (("id", "src", "dst"), {}, True,
           (("e", "a", "b"), ("f", "c", "d"))),
    DiagramMorphism: (
        ("node_map", "edge_map", "components", "direction"),
        {"direction": FORWARD}, False,
        (({"a": "a"}, {"e": ("e",)}, {}, FORWARD),
         ({"a": "b"}, {"e": ()}, {"a": 0}, BACKWARD))),
    Functor: (("on_object", "on_morphism", "contravariant", "name"),
              {"contravariant": False, "name": ""}, True,
              ((len, abs, False, "F"), (abs, len, True, "G"))),
    SubdiagramSpec: (
        ("rotations", "partitions", "label"),
        {"rotations": (), "partitions": (), "label": "custom"}, True,
        (((SWAP,), ((frozenset({0}), frozenset({1})),), "x"),
         ((), ((frozenset({0, 1}),),), "y"))),
    KTildeContext: (("algebra", "spec", "diagram", "colim"), {}, False,
                    (("A", "S", "D", "C"), ("B", "T", "E", "K"))),
    EtaResult: (("hom", "k0", "ktilde", "m"), {}, False,
                (("h", "k", "t", 1), ("i", "l", "u", 2))),
    Theorem1Report: (
        ("algebra", "m", "ok", "factors_match", "eta_ok", "ktilde_factors",
         "k0_factors", "error", "witness"),
        {"error": None, "witness": None}, False,
        (("A", 1, True, True, True, (1,), (1,), None, None),
         ("B", 2, False, False, False, (2,), (3,), "bad", {"w": 1}))),
    NaturalityReport: (("phi", "m", "ok", "witness"), {"witness": None},
                       False, (("p", 1, True, None), ("q", 2, False, "w"))),
    ColimitResult: (("group", "injections", "offsets"), {}, False,
                    (("G", {"a": 1}, {"a": 0}), ("H", {"b": 1}, {"b": 3}))),
    SNFResult: (("U", "D", "V"), {}, False,
                (([[1]], [[2]], [[1]]), ([[-1]], [[3]], [[-1]]))),
    PartialIdeal: (("diagram", "choice"), {}, False,
                   ((DIA_A, NO_ATOMS), (DIA_B, ONE_ATOM))),
    ReconstructionResult: (
        ("ok", "ideal", "failing_node", "detail"),
        {"ideal": None, "failing_node": None, "detail": ""}, False,
        ((True, None, None, ""), (False, "I", "n", "why"))),
    Conjecture1Report: (
        ("algebra", "spec_used", "t_tilde_size", "ideal_count",
         "lattice_iso_ok", "partial_ideal_count", "round_trip_ok",
         "extra_families", "witness"),
        {"witness": None}, False,
        (("A", "s", 2, 2, True, 2, True, 0, None),
         ("B", "t", 3, 4, False, 5, False, 1, {"w": 1}))),
}

CLASSES = list(RECORDS)


def ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_construction_by_position_and_keyword(cls):
    names, defaults, _, (args, _) = RECORDS[cls]
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(names, args)))
    for name, value in zip(names, args):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword
    with pytest.raises(TypeError):
        cls(*args, "one too many")


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_defaults(cls):
    names, defaults, _, (args, _) = RECORDS[cls]
    required = {n: v for n, v in zip(names, args) if n not in defaults}
    record = cls(**required)
    for name, value in defaults.items():
        assert getattr(record, name) == value
    if required:
        with pytest.raises(TypeError):
            cls()


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_fieldwise_equality(cls):
    names, _, _, (args, other) = RECORDS[cls]
    record = cls(*args)
    assert record == cls(*args)
    assert not record != cls(*args)
    assert record != object()
    for i, name in enumerate(names):
        changed = args[:i] + (other[i],) + args[i + 1:]
        assert record != cls(*changed), name


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_hash_by_fields_only_for_values(cls):
    _, _, hashable, (args, other) = RECORDS[cls]
    if hashable:
        assert hash(cls(*args)) == hash(cls(*args))
        assert len({cls(*args), cls(*args), cls(*other)}) == 2
    else:
        with pytest.raises(TypeError):
            hash(cls(*args))


@pytest.mark.parametrize("cls", CLASSES, ids=ids)
def test_repr_names_every_field(cls):
    names, _, _, (args, _) = RECORDS[cls]
    text = repr(cls(*args))
    assert text.startswith(cls.__name__ + "(")
    for name in names:
        assert f"{name}=" in text


def test_repr_of_a_value():
    assert repr(Edge("e", "a", "b")) == "Edge(id='e', src='a', dst='b')"


def test_spec_partitions_become_tuples_of_frozensets():
    spec = SubdiagramSpec(partitions=[[[0, 1], [2]], [{1}, (0, 2)]])
    assert spec.partitions == ((frozenset({0, 1}), frozenset({2})),
                               (frozenset({1}), frozenset({0, 2})))
    assert type(spec.partitions) is tuple
    assert all(type(parts) is tuple for parts in spec.partitions)
    assert spec == SubdiagramSpec(partitions=spec.partitions)


def test_spec_rotations_become_a_tuple():
    spec = SubdiagramSpec(rotations=[SWAP])
    assert type(spec.rotations) is tuple
    assert spec == SubdiagramSpec(rotations=(SWAP,))
    assert hash(spec) == hash(SubdiagramSpec(rotations=(SWAP,)))


def test_morphism_edge_paths_become_tuples():
    m = DiagramMorphism({"a": "a"}, {"e": ["f", "g"], "h": iter(["k"])}, {})
    assert m.edge_map == {"e": ("f", "g"), "h": ("k",)}
    assert all(type(path) is tuple for path in m.edge_map.values())


class TestPartialIdealValidation:
    def test_missing_node(self):
        choice = dict(NO_ATOMS)
        del choice[DIA_A.meta["fine"]]
        with pytest.raises(ValidationError, match="cover every node"):
            PartialIdeal(DIA_A, choice)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_index_out_of_range(self, index):
        choice = dict(NO_ATOMS, **{DIA_A.meta["fine"]: [index]})
        with pytest.raises(ValidationError, match="out of range"):
            PartialIdeal(DIA_A, choice)

    @pytest.mark.parametrize("index", [0.0, "0", True])
    def test_index_not_an_integer(self, index):
        choice = dict(NO_ATOMS, **{DIA_A.meta["fine"]: [index]})
        with pytest.raises(ValidationError, match="must be an integer"):
            PartialIdeal(DIA_A, choice)

    def test_choice_becomes_frozensets(self):
        choice = dict(NO_ATOMS, **{DIA_A.meta["fine"]: [0, 1, 0]})
        partial = PartialIdeal(DIA_A, choice)
        assert partial.choice[DIA_A.meta["fine"]] == frozenset({0, 1})
        assert all(type(s) is frozenset for s in partial.choice.values())
