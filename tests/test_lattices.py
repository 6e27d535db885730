import pytest

from ncspectrum import (ClosedSetFunctor, LatticeHom, MeetSemilattice,
                        MultiMatrixAlgebra, Shape, ShapedDiagram,
                        SpectrumFunctor, ValidationError, build_subdiagram,
                        closed_set_lattice, closed_set_map, limit_semilattice,
                        postcompose)
from ncspectrum.subalgebra import FiniteSpace, SpaceMap
from test_conjecture1_oracle import order_isomorphic_via


def powerset(points):
    return closed_set_lattice(FiniteSpace(points))


class TestClosedSetLattice:
    def test_one_point(self):
        lat = powerset(("p",))
        assert lat.size == 2
        assert lat.top == frozenset({"p"})

    def test_two_points_boolean(self):
        lat = powerset(("a", "b"))
        assert lat.size == 4
        assert lat.meet(frozenset({"a"}), frozenset({"b"})) == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_counts(self, n):
        assert powerset(tuple(f"p{i}" for i in range(n))).size == 2 ** n


class TestClosedSetMap:
    def test_identity(self):
        x = FiniteSpace(("a", "b"))
        hom = closed_set_map(SpaceMap.identity(x))
        assert all(hom(s) == s for s in hom.source.elements)

    def test_collapse_sends_singletons_to_whole_target(self):
        x = FiniteSpace(("x0", "x1"))
        y = FiniteSpace(("y",))
        hom = closed_set_map(SpaceMap(x, y, {"x0": "y", "x1": "y"}))
        assert hom(frozenset({"x0"})) == frozenset({"y"})
        assert hom(frozenset()) == frozenset()

    def test_bijection_relabels(self):
        x = FiniteSpace(("a", "b"))
        y = FiniteSpace(("c", "d"))
        hom = closed_set_map(SpaceMap(x, y, {"a": "d", "b": "c"}))
        assert hom(frozenset({"a"})) == frozenset({"d"})

    def test_preserves_joins(self):
        x = FiniteSpace(("x0", "x1", "x2"))
        y = FiniteSpace(("y0", "y1"))
        hom = closed_set_map(SpaceMap(x, y, {"x0": "y0", "x1": "y0",
                                             "x2": "y1"}))
        for a in hom.source.elements:
            for b in hom.source.elements:
                assert hom(a | b) == hom(a) | hom(b)


def space_diagram(nodes, edges):
    shape = Shape(list(nodes), [(e[0], e[1], e[2]) for e in edges])
    edge_data = {e[0]: e[3] for e in edges}
    return ShapedDiagram(shape, nodes, edge_data, variance="contravariant")


class TestLimitSemilattice:
    def test_single_node(self):
        x = FiniteSpace(("a", "b"))
        d = space_diagram({"n": x}, [])
        lim = limit_semilattice(d)
        assert lim.size == 4

    def test_two_nodes_no_edges_gives_product(self):
        d = space_diagram({"n": FiniteSpace(("a",)), "m": FiniteSpace(("b",))},
                          [])
        lim = limit_semilattice(d)
        assert lim.size == 4

    def test_collapse_edge_constrains(self):
        x = FiniteSpace(("x0", "x1"))
        y = FiniteSpace(("p0",))
        q = SpaceMap(x, y, {"x0": "p0", "x1": "p0"})
        d = space_diagram({"u": y, "v": x}, [("i", "u", "v", q)])
        lim = limit_semilattice(d)
        # families: (empty, empty), (whole, {x0}), (whole, {x1}), (whole, all)
        assert lim.size == 4
        assert lim.top == (frozenset({"p0"}), frozenset({"x0", "x1"}))

    def test_meet_is_greatest_compatible_lower_bound(self):
        x = FiniteSpace(("x0", "x1"))
        y = FiniteSpace(("p0",))
        q = SpaceMap(x, y, {"x0": "p0", "x1": "p0"})
        d = space_diagram({"u": y, "v": x}, [("i", "u", "v", q)])
        lim = limit_semilattice(d)
        a = (frozenset({"p0"}), frozenset({"x0"}))
        b = (frozenset({"p0"}), frozenset({"x1"}))
        # the componentwise intersection (whole, empty) is not compatible;
        # the greatest compatible lower bound is the bottom family
        assert lim.meet(a, b) == (frozenset(), frozenset())

    def test_m2_subdiagram_limit(self):
        # with the default rotations the compatible families of closed
        # sets collapse to the two-ideal lattice of M2
        algebra = MultiMatrixAlgebra([2])
        dia = build_subdiagram(algebra)
        spaces, _ = postcompose(SpectrumFunctor, dia)
        lim = limit_semilattice(spaces)
        assert lim.size == 2

    def test_requires_contravariant(self):
        from ncspectrum import PresentedAbGroup
        d = ShapedDiagram(Shape(["a"], []),
                          {"a": PresentedAbGroup.free(1)}, {})
        with pytest.raises(ValidationError):
            limit_semilattice(d)

    def test_requires_spaces(self):
        d = space_diagram({"n": FiniteSpace(("a",))}, [])
        lats, _ = postcompose(ClosedSetFunctor, d)
        with pytest.raises(ValidationError, match="finite spaces"):
            limit_semilattice(lats)


class TestMeetSemilattice:
    def test_top_required(self):
        with pytest.raises(ValidationError):
            MeetSemilattice([frozenset({"a"}), frozenset({"b"})],
                            lambda a, b: a <= b)

    def test_order_iso_with_reversal(self):
        lat = powerset(("a", "b"))
        mapping = {s: frozenset({"a", "b"}) - s for s in lat.elements}
        assert order_isomorphic_via(lat, mapping, lat, reverse=True)
        assert not order_isomorphic_via(lat, mapping, lat, reverse=False)

    def test_lattice_hom_compose(self):
        lat = powerset(("a",))
        ident = LatticeHom.identity(lat)
        assert ident.compose(ident) == ident
