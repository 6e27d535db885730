import random

import pytest

from ncspectrum import (AbHom, CommSubalgebra, MultiMatrixAlgebra,
                        PresentedAbGroup, Shape, ShapedDiagram,
                        SpectrumFunctor, ValidationError, compose_morphisms,
                        partition_subalgebra, postcompose)
from ncspectrum.diagram import (BACKWARD, CONTRAVARIANT, FORWARD,
                                DiagramMorphism, Functor, find_path,
                                find_naturality_failure)
from ncspectrum.ktheory import K_of_map, KFunctor
from ncspectrum.subalgebra import FiniteSpace, SpaceMap, SubalgebraArrow

Z = PresentedAbGroup.free(1)
IDENTITY_FUNCTOR = Functor(on_object=lambda x: x, on_morphism=lambda h: h,
                           contravariant=False, name="Id")


def check_naturality(m, d1, d2):
    """Whether every generating edge's square commutes."""
    return find_naturality_failure(m, d1, d2) is None


def trivial_subalgebra(algebra):
    """The scalars C*1."""
    return CommSubalgebra(algebra, [algebra.one()], validate=False)


def two_node_diagram(multiplier):
    shape = Shape(["a", "b"], [("u", "a", "b")])
    return ShapedDiagram(shape, {"a": Z, "b": Z},
                         {"u": AbHom(Z, Z, [[multiplier]])})


class TestCheckNaturality:
    def test_identity_is_natural(self):
        d = two_node_diagram(2)
        assert check_naturality(DiagramMorphism.identity(d), d, d)

    def test_zero_components_are_natural(self):
        d1 = two_node_diagram(2)
        d2 = two_node_diagram(3)
        m = DiagramMorphism(
            node_map={"a": "a", "b": "b"},
            edge_map={"u": ("u",)},
            components={"a": AbHom.zero(Z, Z), "b": AbHom.zero(Z, Z)},
            direction=FORWARD)
        assert check_naturality(m, d1, d2)

    def test_times_two_vs_times_three_fails(self):
        d1 = two_node_diagram(2)
        d2 = two_node_diagram(3)
        m = DiagramMorphism(
            node_map={"a": "a", "b": "b"},
            edge_map={"u": ("u",)},
            components={"a": AbHom.identity(Z), "b": AbHom.identity(Z)},
            direction=FORWARD)
        assert not check_naturality(m, d1, d2)

    def test_missing_edge_image_rejected(self):
        d = two_node_diagram(2)
        m = DiagramMorphism(node_map={"a": "a", "b": "b"}, edge_map={},
                            components={"a": AbHom.identity(Z),
                                        "b": AbHom.identity(Z)})
        with pytest.raises(ValidationError):
            check_naturality(m, d, d)


class TestComposeMorphisms:
    def test_identity_neutral(self):
        d = two_node_diagram(2)
        ident = DiagramMorphism.identity(d)
        m = DiagramMorphism(
            node_map={"a": "a", "b": "b"},
            edge_map={"u": ("u",)},
            components={"a": AbHom(Z, Z, [[5]]), "b": AbHom(Z, Z, [[5]])},
            direction=FORWARD)
        assert compose_morphisms(m, ident) == m
        assert compose_morphisms(ident, m) == m

    def test_collapse_composition(self):
        d = ShapedDiagram(Shape(["a", "b"], []), {"a": Z, "b": Z}, {})
        point = ShapedDiagram(Shape(["p"], []), {"p": Z}, {})
        fold = DiagramMorphism(
            node_map={"a": "p", "b": "p"}, edge_map={},
            components={"a": AbHom.identity(Z), "b": AbHom(Z, Z, [[2]])},
            direction=FORWARD)
        double = DiagramMorphism(
            node_map={"p": "p"}, edge_map={},
            components={"p": AbHom(Z, Z, [[3]])}, direction=FORWARD)
        comp = compose_morphisms(double, fold)
        assert comp.node_map == {"a": "p", "b": "p"}
        assert comp.components["a"].images == ((3,),)
        assert comp.components["b"].images == ((6,),)

    def test_associative(self):
        rng = random.Random(51)
        d = two_node_diagram(2)
        morphisms = []
        for _ in range(3):
            c = rng.randint(-3, 3)
            morphisms.append(DiagramMorphism(
                node_map={"a": "a", "b": "b"},
                edge_map={"u": ("u",)},
                components={"a": AbHom(Z, Z, [[c]]), "b": AbHom(Z, Z, [[c]])},
                direction=FORWARD))
        m1, m2, m3 = morphisms
        left = compose_morphisms(m3, compose_morphisms(m2, m1))
        right = compose_morphisms(compose_morphisms(m3, m2), m1)
        assert left == right


class TestPostcompose:
    def test_identity_functor(self):
        d = two_node_diagram(2)
        out, _ = postcompose(IDENTITY_FUNCTOR, d)
        assert out.node_data == d.node_data
        assert out.variance == d.variance

    def test_spectrum_of_one_node_diagram(self):
        algebra = MultiMatrixAlgebra([2])
        u = trivial_subalgebra(algebra)
        d = ShapedDiagram(Shape(["u"], []), {"u": u}, {})
        out, _ = postcompose(SpectrumFunctor, d)
        assert out.variance == "contravariant"
        assert out.node_data["u"].size == 1

    def test_k_of_space_diagram_matches_direct_map(self):
        x = FiniteSpace(("x0", "x1"))
        y = FiniteSpace(("y0",))
        q = SpaceMap(x, y, {"x0": "y0", "x1": "y0"})
        shape = Shape(["s", "t"], [("u", "s", "t")])
        d = ShapedDiagram(shape, {"s": y, "t": x}, {"u": q},
                          variance="contravariant")
        out, _ = postcompose(KFunctor, d)
        assert out.variance == "covariant"
        assert out.edge_data["u"].images == K_of_map(q).images
        assert out.edge_data["u"].images == ((1, 1),)

    def test_double_contravariant_flips_back(self):
        algebra = MultiMatrixAlgebra([2])
        u = trivial_subalgebra(algebra)
        v = partition_subalgebra(algebra, [{0}, {1}])
        arrow = SubalgebraArrow.inclusion(u, v)
        shape = Shape(["u", "v"], [("i", "u", "v")])
        d = ShapedDiagram(shape, {"u": u, "v": v}, {"i": arrow})
        spaces, _ = postcompose(SpectrumFunctor, d)
        groups, _ = postcompose(KFunctor, spaces)
        assert groups.variance == "covariant"
        assert groups.node_data["u"].ngens == 1
        assert groups.node_data["v"].ngens == 2
        assert groups.edge_data["i"].images == ((1, 1),)

    def test_commutes_with_composition(self):
        d = two_node_diagram(2)
        m1 = DiagramMorphism(
            node_map={"a": "a", "b": "b"}, edge_map={"u": ("u",)},
            components={"a": AbHom(Z, Z, [[2]]), "b": AbHom(Z, Z, [[2]])},
            direction=FORWARD)
        m2 = DiagramMorphism(
            node_map={"a": "a", "b": "b"}, edge_map={"u": ("u",)},
            components={"a": AbHom(Z, Z, [[3]]), "b": AbHom(Z, Z, [[3]])},
            direction=FORWARD)
        functor = IDENTITY_FUNCTOR
        _, f_m1 = postcompose(functor, d, m1)
        _, f_m2 = postcompose(functor, d, m2)
        _, f_comp = postcompose(functor, d, compose_morphisms(m2, m1))
        assert compose_morphisms(f_m2, f_m1) == f_comp


class TestFindPath:
    def test_cover_chain(self):
        shape = Shape(["a", "b", "c"], [("ab", "a", "b"), ("bc", "b", "c")])
        d = ShapedDiagram(shape, {"a": Z, "b": Z, "c": Z},
                          {"ab": AbHom(Z, Z, [[1]]), "bc": AbHom(Z, Z, [[1]])})
        assert find_path(d, "a", "c") == ("ab", "bc")
        assert find_path(d, "a", "a") == ()
        assert find_path(d, "c", "a") is None


class TestNaturalityVariance:
    """find_naturality_failure checks one square: a forward morphism of
    covariant diagrams.  Anything else is rejected, not checked."""

    def test_contravariant_diagrams_rejected(self):
        shape = Shape(["a", "b"], [("u", "a", "b")])
        d = ShapedDiagram(shape, {"a": Z, "b": Z},
                          {"u": AbHom(Z, Z, [[2]])}, CONTRAVARIANT)
        m = DiagramMorphism.identity(d)
        assert m.direction == BACKWARD
        with pytest.raises(ValidationError, match="covariant"):
            find_naturality_failure(m, d, d)

    def test_backward_morphism_rejected(self):
        d = two_node_diagram(2)
        m = DiagramMorphism(
            node_map={"a": "a", "b": "b"},
            edge_map={"u": ("u",)},
            components={"a": AbHom.identity(Z), "b": AbHom.identity(Z)},
            direction=BACKWARD)
        with pytest.raises(ValidationError, match="forward"):
            find_naturality_failure(m, d, d)

    def test_mixed_variance_rejected(self):
        d1 = two_node_diagram(2)
        d2 = ShapedDiagram(d1.shape, d1.node_data, d1.edge_data,
                           CONTRAVARIANT)
        with pytest.raises(ValidationError):
            find_naturality_failure(DiagramMorphism.identity(d1), d1, d2)
