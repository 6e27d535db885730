import random

import pytest

from ncspectrum import (AbHom, PresentedAbGroup, Shape, ShapedDiagram,
                        ValidationError, cocone_factorization, colimit,
                        colimit_induced, element_eq, kernel)
from ncspectrum.diagram import FORWARD, DiagramMorphism

Z = PresentedAbGroup.free(1)


def ab_diagram(groups, edges):
    """groups: {id: group}; edges: [(id, src, dst, images)]"""
    shape = Shape(list(groups), [(e[0], e[1], e[2]) for e in edges])
    edge_data = {e[0]: AbHom(groups[e[1]], groups[e[2]], e[3]) for e in edges}
    return ShapedDiagram(shape, groups, edge_data)


class TestInvariantFactors:
    def test_free(self):
        assert PresentedAbGroup.free(2).invariant_factors() == (2, ())

    def test_cyclic(self):
        assert PresentedAbGroup(1, [[2]]).invariant_factors() == (0, (2,))

    def test_identified_generators(self):
        assert PresentedAbGroup(2, [[1, -1]]).invariant_factors() == (1, ())

    def test_canonical_strings(self):
        assert PresentedAbGroup.free(1).canonical_str() == "Z"
        assert PresentedAbGroup.free(3).canonical_str() == "Z^3"
        assert PresentedAbGroup(2, [[2, 0]]).canonical_str() == "Z ⊕ Z/2"
        assert PresentedAbGroup(1, [[1]]).canonical_str() == "0"


class TestElementEq:
    def test_reflexive(self):
        g = PresentedAbGroup(2, [[2, 0]])
        assert element_eq(g, (1, 1), (1, 1))

    def test_torsion_identification(self):
        g = PresentedAbGroup(1, [[2]])
        assert element_eq(g, (3,), (1,))

    def test_distinct_elements(self):
        # a vs b in <a, b | a = 2b>: a - b = b is not a relation multiple
        g = PresentedAbGroup(2, [[1, -2]])
        assert not element_eq(g, (1, 0), (0, 1))
        assert element_eq(g, (1, 0), (0, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            element_eq(Z, (1, 2), (1,))

    def test_equivalence_and_lattice_invariance(self):
        rng = random.Random(19)
        g = PresentedAbGroup(3, [[2, 0, 4], [0, 3, 3]])
        words = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(8)]
        for x in words:
            assert element_eq(g, x, x)
            for y in words:
                assert element_eq(g, x, y) == element_eq(g, y, x)
        # adding a row already in the lattice changes nothing
        g2 = PresentedAbGroup(3, [[2, 0, 4], [0, 3, 3], [2, 3, 7]])
        for x in words:
            for y in words:
                assert element_eq(g, x, y) == element_eq(g2, x, y)


class TestColimit:
    def test_single_node(self):
        res = colimit(ab_diagram({"a": Z}, []))
        assert res.group.invariant_factors() == (1, ())

    def test_doubling_edge(self):
        d = ab_diagram({"a": Z, "b": Z}, [("u", "a", "b", [[2]])])
        res = colimit(d)
        assert res.group.invariant_factors() == (1, ())
        # (g)_a is identified with (2g)_b
        ka, kb = res.injections["a"], res.injections["b"]
        assert element_eq(res.group, ka.images[0],
                          tuple(2 * x for x in kb.images[0]))

    def test_pushout_with_torsion(self):
        d = ab_diagram(
            {"a": Z, "b": Z, "c": Z},
            [("u", "a", "b", [[2]]), ("v", "a", "c", [[2]])])
        res = colimit(d)
        assert res.group.invariant_factors() == (1, (2,))
        assert res.group.canonical_str() == "Z ⊕ Z/2"

    def test_contravariant_rejected(self):
        d = ab_diagram({"a": Z}, [])
        d.variance = "contravariant"
        with pytest.raises(ValidationError):
            colimit(d)


class TestColimitInduced:
    def test_identity_morphism(self):
        d = ab_diagram({"a": Z, "b": Z}, [("u", "a", "b", [[3]])])
        res = colimit(d)
        m = DiagramMorphism.identity(d)
        h = colimit_induced(m, d, d, res, res)
        assert h.equal_as_maps(AbHom.identity(res.group))

    def test_fold_of_discrete_diagram(self):
        d2 = ab_diagram({"a": Z, "b": Z}, [])
        d1 = ab_diagram({"x": Z}, [])
        m = DiagramMorphism(
            node_map={"a": "x", "b": "x"},
            edge_map={},
            components={"a": AbHom.identity(Z), "b": AbHom.identity(Z)},
            direction=FORWARD)
        c2, c1 = colimit(d2), colimit(d1)
        h = colimit_induced(m, d2, d1, c2, c1)
        assert h.images == ((1,), (1,))

    def test_functorial_under_composition(self):
        from ncspectrum import compose_morphisms
        rng = random.Random(37)
        for _ in range(10):
            d1 = _random_ab_diagram(rng)
            m12 = _scalar_morphism(d1, rng.randint(-2, 2))
            d2, m23 = _relabel_morphism(d1)
            d3, m34 = _collapse_morphism(d2)
            for ma, da, db, mb, dc in (
                    (m12, d1, d1, m23, d2),
                    (m23, d1, d2, m34, d3),
                    (compose_morphisms(m23, m12), d1, d2, m34, d3)):
                comp = compose_morphisms(mb, ma)
                ca, cb, cc = colimit(da), colimit(db), colimit(dc)
                ha = colimit_induced(ma, da, db, ca, cb)
                hb = colimit_induced(mb, db, dc, cb, cc)
                hc = colimit_induced(comp, da, dc, ca, cc)
                assert hb.compose(ha).equal_as_maps(hc)

    def test_naturality_required(self):
        d1 = ab_diagram({"a": Z, "b": Z}, [("u", "a", "b", [[2]])])
        d2 = ab_diagram({"a": Z, "b": Z}, [("u", "a", "b", [[3]])])
        m = DiagramMorphism(
            node_map={"a": "a", "b": "b"},
            edge_map={"u": ("u",)},
            components={"a": AbHom.identity(Z), "b": AbHom.identity(Z)},
            direction=FORWARD)
        with pytest.raises(ValidationError):
            colimit_induced(m, d1, d2)


def _random_group(rng, max_rank=3, max_torsion=6):
    n = rng.randint(1, max_rank)
    rows = []
    for i in range(n):
        d = rng.choice([0, 0, 2, 3, 4, 5, 6])
        if d:
            row = [0] * n
            row[i] = d
            rows.append(row)
    return PresentedAbGroup(n, rows)


def _random_hom(rng, domain, codomain):
    """Well-defined by construction: generator i of order d maps to an
    element killed by d."""
    free_d, tors_d = domain.invariant_factors()
    images = []
    orders = [0] * free_d + list(tors_d)
    # domain presentations here are diagonal, so generator i has order
    # equal to its diagonal relation entry (0 when absent)
    orders = []
    diag = {j: 0 for j in range(domain.ngens)}
    for row in domain.relations:
        for j, c in enumerate(row):
            if c:
                diag[j] = abs(c)
    cod_orders = {j: 0 for j in range(codomain.ngens)}
    for row in codomain.relations:
        for j, c in enumerate(row):
            if c:
                cod_orders[j] = abs(c)
    for i in range(domain.ngens):
        d = diag[i]
        word = []
        for j in range(codomain.ngens):
            e = cod_orders[j]
            if d == 0:
                word.append(rng.randint(-2, 2))
            elif e == 0:
                word.append(0)
            else:
                step = e // _gcd(e, d)
                word.append(step * rng.randint(-1, 1))
        images.append(word)
    return AbHom(domain, codomain, images)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _random_ab_diagram(rng, max_nodes=4):
    n = rng.randint(1, max_nodes)
    groups = {f"n{i}": _random_group(rng) for i in range(n)}
    ids = list(groups)
    edges = []
    for k in range(rng.randint(0, 4)):
        src, dst = rng.choice(ids), rng.choice(ids)
        edges.append((f"e{k}", src, dst,
                      _random_hom(rng, groups[src], groups[dst]).images))
    return ab_diagram(groups, edges)


def _scalar_morphism(d, c):
    """The endomorphism of d multiplying every component by c."""
    components = {}
    for n, g in d.node_data.items():
        components[n] = AbHom(g, g, [{i: c} for i in range(g.ngens)])
    return DiagramMorphism(
        node_map={n: n for n in d.shape.nodes},
        edge_map={e.id: (e.id,) for e in d.shape.edges},
        components=components,
        direction=FORWARD)


def _relabel_morphism(d):
    """An isomorphism onto a copy of d with renamed nodes and edges."""
    node_names = {n: f"{n}'" for n in d.shape.nodes}
    edge_names = {e.id: f"{e.id}'" for e in d.shape.edges}
    shape = Shape([node_names[n] for n in d.shape.nodes],
                  [(edge_names[e.id], node_names[e.src], node_names[e.dst])
                   for e in d.shape.edges])
    d2 = ShapedDiagram(
        shape,
        {node_names[n]: g for n, g in d.node_data.items()},
        {edge_names[eid]: h for eid, h in d.edge_data.items()})
    m = DiagramMorphism(
        node_map=node_names,
        edge_map={eid: (edge_names[eid],) for eid in edge_names},
        components={n: AbHom.identity(d.node_data[n]) for n in d.shape.nodes},
        direction=FORWARD)
    return d2, m


def _collapse_morphism(d):
    """Collapse a diagram onto the one-node diagram holding its colimit."""
    res = colimit(d)
    d3 = ab_diagram({"pt": res.group}, [])
    m = DiagramMorphism(
        node_map={n: "pt" for n in d.shape.nodes},
        edge_map={e.id: () for e in d.shape.edges},
        components={n: res.injections[n] for n in d.shape.nodes},
        direction=FORWARD)
    return d3, m


class TestUniversalProperty:
    def test_cocone_factorization_small(self):
        rng = random.Random(43)
        for _ in range(15):
            d = _random_ab_diagram(rng)
            res = colimit(d)
            extra = [rng.randint(-2, 2) for _ in range(res.group.ngens)]
            target = PresentedAbGroup(res.group.ngens,
                                      list(res.group.relations) + [extra])
            quotient = AbHom(res.group, target,
                             [{i: 1} for i in range(target.ngens)])
            legs = {n: quotient.compose(res.injections[n])
                    for n in d.shape.nodes}
            h = cocone_factorization(d, res, target, legs)
            # forced on generators, hence unique
            for n in d.shape.nodes:
                assert h.compose(res.injections[n]).equal_as_maps(legs[n])
            assert h.equal_as_maps(quotient)

    def test_noncommuting_cocone_rejected(self):
        d = ab_diagram({"a": Z, "b": Z}, [("u", "a", "b", [[2]])])
        res = colimit(d)
        legs = {"a": AbHom.identity(Z).compose(AbHom(Z, Z, [[1]])),
                "b": AbHom(Z, Z, [[1]])}
        # leg at a should be x -> 2x to commute; identity does not
        with pytest.raises(ValidationError):
            cocone_factorization(d, res, Z, legs)


class TestKernel:
    def test_kernel_of_identity(self):
        g, incl = kernel(AbHom.identity(Z))
        assert g.invariant_factors() == (0, ())
        assert incl.domain == g

    def test_kernel_of_fold(self):
        z2 = PresentedAbGroup.free(2)
        fold = AbHom(z2, Z, [[1], [1]])
        g, incl = kernel(fold)
        assert g.invariant_factors() == (1, ())
        assert incl.images == ((1, -1),)

    def test_kernel_of_mod_two(self):
        c2 = PresentedAbGroup(1, [[2]])
        reduction = AbHom(Z, c2, [[1]])
        g, incl = kernel(reduction)
        assert g.invariant_factors() == (1, ())
        assert incl.images == ((2,),)

    def test_inclusion_lands_in_kernel(self):
        rng = random.Random(47)
        for _ in range(10):
            dom = _random_group(rng)
            cod = _random_group(rng)
            h = _random_hom(rng, dom, cod)
            g, incl = kernel(h)
            for row in incl.images:
                assert element_eq(cod, h.apply(row), (0,) * cod.ngens)
