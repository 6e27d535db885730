import json

import pytest

from ncspectrum import (ExactMatrix, MultiMatrixAlgebra, ValidationError,
                        colimit, span_subalgebra)
from ncspectrum import serialize


def dump_element(element):
    return {"parts": [p.to_json() for p in element.parts]}


def load_subalgebra(data):
    """A subalgebra from its algebra and generators, both as JSON."""
    if "algebra" not in data or "generators" not in data:
        raise ValidationError('subalgebra JSON needs "algebra" and "generators"')
    algebra = serialize.load_algebra(data["algebra"])
    gens = [serialize.load_element(g, algebra) for g in data["generators"]]
    # atoms are recomputed from the generators, which revalidates them
    return span_subalgebra(algebra, gens)


def dump_subalgebra(subalgebra):
    """Serialized as its atom projections, which generate it."""
    return {
        "algebra": serialize.dump_algebra(subalgebra.algebra),
        "generators": [dump_element(p) for p in subalgebra.atoms],
    }


class TestJsonArgument:
    def test_inline(self):
        assert serialize.load_json_argument('{"blocks": [2]}') == {"blocks": [2]}

    def test_file(self, tmp_path):
        path = tmp_path / "a.json"
        path.write_text('{"blocks": [1, 2]}')
        assert serialize.load_json_argument(str(path)) == {"blocks": [1, 2]}

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            serialize.load_json_argument("/nonexistent/x.json")

    def test_bad_inline(self):
        with pytest.raises(ValidationError):
            serialize.load_json_argument("{bad json")


class TestAlgebraAndElements:
    def test_algebra_round_trip(self):
        a = serialize.load_algebra({"blocks": [2, 3]})
        assert serialize.dump_algebra(a) == {"blocks": [2, 3]}

    def test_algebra_validation(self):
        with pytest.raises(ValidationError):
            serialize.load_algebra({"sizes": [2]})
        with pytest.raises(ValidationError):
            serialize.load_algebra({"blocks": [0]})

    def test_element_round_trip(self):
        a = MultiMatrixAlgebra([2, 1])
        e = a.element([ExactMatrix.from_rows([["3/5", "-4/5"], ["4/5", "3/5"]]),
                       ExactMatrix.from_rows([["1"]])])
        data = dump_element(e)
        assert serialize.load_element(data, a) == e


class TestSpec:
    def test_default_when_absent(self):
        a = MultiMatrixAlgebra([2])
        assert serialize.load_spec(None, a).label == "default"

    def test_partitions_and_label(self):
        a = MultiMatrixAlgebra([3])
        spec = serialize.load_spec({"partitions": [[[2], [0, 1]]],
                                    "label": "mid"}, a)
        assert spec.partitions == ((frozenset({2}), frozenset({0, 1})),)
        assert spec.label == "mid"

    @pytest.mark.parametrize("data", [
        {"full_partition_limit": 6}, {"rotation_edge_budget": 1200},
        {"partition_limit": 6}, {"partitions": [[0, 1]]},
        {"rotations": 3}, [],
    ])
    def test_rejected(self, data):
        with pytest.raises(ValidationError):
            serialize.load_spec(data, MultiMatrixAlgebra([2]))

    def test_listed_rotations_do_not_build_the_default(self, monkeypatch):
        def fail(cls, algebra):
            raise AssertionError("default spec built")

        monkeypatch.setattr(serialize.SubdiagramSpec, "default",
                            classmethod(fail))
        spec = serialize.load_spec({"rotations": [], "label": "bare"},
                                   MultiMatrixAlgebra([2]))
        assert spec.rotations == ()


class TestHom:
    def test_round_trip(self):
        data = {"domain": {"blocks": [1]}, "codomain": {"blocks": [2]},
                "multiplicity": [[2]], "unital": True}
        phi = serialize.load_hom(data)
        assert serialize.dump_hom(phi) == data

    def test_missing_field(self):
        with pytest.raises(ValidationError):
            serialize.load_hom({"domain": {"blocks": [1]}})

    def test_round_trip_of_a_custom_assignment(self):
        data = {"domain": {"blocks": [1, 2]}, "codomain": {"blocks": [3]},
                "multiplicity": [[1, 1]], "unital": True,
                "assignment": [[[1, 0], [0, 0]]]}
        phi = serialize.load_hom(data)
        assert phi.assignment == (((1, 0), (0, 0)),)
        assert serialize.dump_hom(phi) == data
        assert serialize.load_hom(serialize.dump_hom(phi)) == phi

    def test_default_assignment_is_not_written(self):
        data = {"domain": {"blocks": [1, 2]}, "codomain": {"blocks": [3]},
                "multiplicity": [[1, 1]], "unital": True,
                "assignment": [[[0, 0], [1, 0]]]}
        dumped = serialize.dump_hom(serialize.load_hom(data))
        assert "assignment" not in dumped


class TestSubalgebra:
    def test_atoms_recomputed(self):
        # generator diag(1,0) in M2: loading spans it back to two atoms
        u = load_subalgebra({
            "algebra": {"blocks": [2]},
            "generators": [{"parts": [[["1", "0"], ["0", "0"]]]}],
        })
        assert u.natoms == 2

    def test_invalid_generator(self):
        with pytest.raises(ValidationError):
            load_subalgebra({
                "algebra": {"blocks": [2]},
                "generators": [{"parts": [[["1", "0"], ["1", "0"]]]}],
            })

    def test_dump_round_trip(self):
        u = load_subalgebra({
            "algebra": {"blocks": [3]},
            "generators": [{"parts": [[["1", "0", "0"],
                                       ["0", "0", "0"],
                                       ["0", "0", "0"]]]}],
        })
        assert u.natoms == 2
        again = load_subalgebra(dump_subalgebra(u))
        assert again == u


class TestDiagrams:
    def test_ab_diagram_pushout(self):
        data = {
            "variance": "covariant",
            "nodes": [{"id": "a", "ngens": 1},
                      {"id": "b", "ngens": 1},
                      {"id": "c", "ngens": 1}],
            "edges": [{"id": "u", "source": "a", "target": "b",
                       "images": [[2]]},
                      {"id": "v", "source": "a", "target": "c",
                       "images": [[2]]}],
        }
        d = serialize.load_ab_diagram(data)
        res = colimit(d)
        assert res.group.canonical_str() == "Z ⊕ Z/2"

    def test_space_diagram(self):
        data = {
            "variance": "contravariant",
            "nodes": [{"id": "u", "points": ["q"]},
                      {"id": "v", "points": ["x", "y"]}],
            "edges": [{"id": "i", "source": "u", "target": "v",
                       "assignment": {"x": "q", "y": "q"}}],
        }
        d = serialize.load_space_diagram(data)
        assert d.variance == "contravariant"
        assert d.edge_data["i"].source.points == ("x", "y")


class TestPartialIdealFile:
    def test_load_and_check(self):
        data = {
            "algebra": {"blocks": [2]},
            "choice": {"d:0|1": [0]},
        }
        partial, diagram = serialize.load_partial_ideal(data)
        assert partial.choice["d:0|1"] == frozenset({0})
        # unspecified nodes default to the empty choice
        assert partial.choice["d:0,1"] == frozenset()

    def test_unknown_node_rejected(self):
        with pytest.raises(ValidationError):
            serialize.load_partial_ideal({
                "algebra": {"blocks": [2]},
                "choice": {"bogus": [0]},
            })


class TestJsonable:
    def test_conversion(self):
        data = serialize.jsonable({
            "a": frozenset({2, 1}),
            "b": (1, 2),
            "c": MultiMatrixAlgebra([2]),
        })
        assert json.dumps(data, sort_keys=True)
        assert data["a"] == [1, 2]
