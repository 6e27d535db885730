"""Differential and property tests for the group layer.

DenseAbHom below is the homomorphism the sparse AbHom replaced: generator
images held as dense rows of length codomain.ngens, every entry coerced,
and the colimit, colimit_induced and kernel built from those rows, with
equality decided in the full echelon lattice of the relations
(tests/test_reduced_form.py).  It is the oracle.  The sparse path must agree with it on images, on the
certification verdict (an ill-defined hom is planted whenever the draw
allows one), on apply, compose, equal_as_maps, colimit and
colimit_induced.  The kernel oracle is the dense route the sparse one
replaced, the Smith form with transforms of the images stacked over the
codomain's relations (tests/test_snf.py).  The two routes may pick
different bases of the same lattice, so kernels are compared on
canonical data: the Hermite normal form of the inclusion's generators
and the invariant factors of the kernel group.

Three properties are checked on the sparse path alone: the colimit's
universal property through cocone_factorization, exactness of the
kernel sequence (the inclusion is injective, the composite is zero and
every word of a box that maps to zero lies in the image), and
associativity of compose.

Groups are drawn as diagonal orders under a random unimodular change of
generators, so that a well-defined hom can be drawn between any two of
them.  Draws go through a pick (RngPick or DrawPick, as in
tests/test_structured_atoms.py): the seeded tests always run, the
hypothesis tests shrink a failure and skip without hypothesis.
"""

import itertools
import random
from math import gcd

import pytest

from ncspectrum import (AbHom, PresentedAbGroup, Shape, ShapedDiagram,
                        ValidationError, cocone_factorization, colimit,
                        colimit_induced, element_eq, kernel)
from ncspectrum.diagram import FORWARD, DiagramMorphism
from ncspectrum.snf import IntegerRowLattice

from test_reduced_form import full_echelon
from test_snf import (dense_preimage_lattice, hermite_normal_form,
                      sparse_to_dense)
from test_structured_atoms import DrawPick, RngPick

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(12)


# -- the dense oracle --------------------------------------------------------

def _sparse_of(row):
    if isinstance(row, dict):
        return tuple(sorted((int(j), int(c)) for j, c in row.items() if c))
    return tuple((j, int(c)) for j, c in enumerate(row) if c)


def dense_eq(g, x, y):
    return full_echelon(g).contains(
        {j: a - b for j, (a, b) in enumerate(zip(x, y)) if a != b})


class DenseAbHom:
    """A homomorphism held as dense image rows, as AbHom used to be."""

    def __init__(self, domain, codomain, images):
        images = tuple(tuple(int(x) for x in row) for row in images)
        if len(images) != domain.ngens:
            raise ValidationError("one image word per domain generator required")
        for row in images:
            if len(row) != codomain.ngens:
                raise ValidationError("image word of the wrong length")
        self.domain = domain
        self.codomain = codomain
        self.images = images
        for sp in domain.rows:
            image = {}
            for j, c in sp:
                for k, x in enumerate(images[j]):
                    if x:
                        v = image.get(k, 0) + c * x
                        if v:
                            image[k] = v
                        else:
                            image.pop(k, None)
            if not full_echelon(codomain).contains(image):
                raise ValidationError("hom is not well-defined")

    def apply(self, word):
        out = [0] * self.codomain.ngens
        for i, c in enumerate(word):
            if c:
                for k in range(self.codomain.ngens):
                    out[k] += c * self.images[i][k]
        return tuple(out)

    def compose(self, other):
        return DenseAbHom(other.domain, self.codomain,
                          [self.apply(row) for row in other.images])

    def equal_as_maps(self, other):
        return all(dense_eq(self.codomain, a, b)
                   for a, b in zip(self.images, other.images))


def dense_colimit(nodes, groups, edges):
    """(group, its sorted sparse rows, offsets, injections) of the
    colimit of a diagram given by its node ids, groups and
    (id, src, dst, DenseAbHom) edges."""
    offsets, total = {}, 0
    for n in nodes:
        offsets[n] = total
        total += groups[n].ngens
    rows = []
    for n in nodes:
        rows.extend({offsets[n] + j: c for j, c in sp} for sp in groups[n].rows)
    for _eid, src, dst, hom in edges:
        for i, image in enumerate(hom.images):
            row = {offsets[src] + i: 1}
            for k, c in enumerate(image):
                if c:
                    key = offsets[dst] + k
                    v = row.get(key, 0) - c
                    if v:
                        row[key] = v
                    else:
                        row.pop(key, None)
            if row:
                rows.append(row)
    sparse = tuple(sp for sp in map(_sparse_of, rows) if sp)
    group = PresentedAbGroup(total, rows)
    injections = {}
    for n in nodes:
        images = []
        for i in range(groups[n].ngens):
            word = [0] * total
            word[offsets[n] + i] = 1
            images.append(word)
        injections[n] = DenseAbHom(groups[n], group, images)
    return group, sparse, offsets, injections


def dense_colimit_induced(nodes, node_map, components, src, dst):
    """The induced map of dense colimits src and dst (as dense_colimit
    returns them), for a morphism already known to be natural."""
    total = dst[0].ngens
    images = []
    for n in nodes:
        off = dst[2][node_map[n]]
        for row in components[n].images:
            word = [0] * total
            for k, c in enumerate(row):
                word[off + k] += c
            images.append(word)
    return DenseAbHom(src[0], dst[0], images)


def dense_kernel(hom):
    """The kernel by the route the sparse one replaced: the Smith form,
    with transforms, of the dense images stacked over the codomain's
    relations."""
    domain, codomain = hom.domain, hom.codomain
    klat = dense_preimage_lattice(hom.images, codomain.relations,
                                  codomain.ngens)
    gens = sparse_to_dense(klat.basis_sparse(), domain.ngens)
    rels = [klat.coordinates(dict(sp)) for sp in domain.rows]
    group = PresentedAbGroup(len(gens), rels)
    return group, DenseAbHom(group, domain, gens)


# -- drawing groups, homs and diagrams ---------------------------------------

def _matmul(a, b, cols):
    return [[sum(x * b[k][j] for k, x in enumerate(row)) for j in range(cols)]
            for row in a]


class Drawn:
    """A group Z^n / rows(diag(orders) Q), with Q unimodular and its
    inverse: in the coordinates x Q^-1 it is the diagonal group."""

    def __init__(self, pick, max_gens=3):
        n = pick.integer(0, max_gens)
        self.orders = [pick.choice((0, 0, 1, 2, 3, 4, 6)) for _ in range(n)]
        self.q = [[int(i == j) for j in range(n)] for i in range(n)]
        self.q_inv = [row[:] for row in self.q]
        for _ in range(pick.integer(0, 3) if n >= 2 else 0):
            i, j = pick.permutation(range(n))[:2]
            c = pick.integer(-2, 2)
            self.q[i] = [a + c * b for a, b in zip(self.q[i], self.q[j])]
            for row in self.q_inv:
                row[j] -= c * row[i]
        assert _matmul(self.q, self.q_inv, n) == \
            [[int(i == j) for j in range(n)] for i in range(n)]
        rows = [[d * x for x in self.q[i]]
                for i, d in enumerate(self.orders) if d]
        if rows and pick.choice((False, True)):
            # a redundant relation: the lattice does not change
            coeffs = [pick.integer(-1, 1) for _ in rows]
            rows.append([sum(f * r[j] for f, r in zip(coeffs, rows))
                         for j in range(n)])
        self.group = PresentedAbGroup(n, rows)


def hom_images(pick, a, b, planted=False):
    """Dense images of a well-defined hom a -> b: in diagonal
    coordinates a generator of order d goes to an element killed by d.
    With planted, one torsion generator of a goes to a free direction of
    b, so the hom is ill-defined; None when a and b allow no such
    plant."""
    diag = []
    for d in a.orders:
        row = []
        for e in b.orders:
            if d == 0:
                row.append(pick.integer(-2, 2))
            elif e == 0:
                row.append(0)
            else:
                row.append(e // gcd(e, d) * pick.integer(-1, 1))
        diag.append(row)
    if planted:
        spots = [(i, j) for i, d in enumerate(a.orders) if d > 1
                 for j, e in enumerate(b.orders) if e == 0]
        if not spots:
            return None
        i, j = pick.choice(spots)
        diag[i][j] = 1
    n, m = len(a.orders), len(b.orders)
    return _matmul(_matmul(a.q_inv, diag, m), b.q, m)


def random_word(pick, n):
    return [pick.integer(-3, 3) for _ in range(n)]


def sparse_form(images):
    return [{k: c for k, c in enumerate(row) if c} for row in images]


def draw_diagram(pick):
    """Node ids, Drawn nodes and (id, src, dst, dense images) edges."""
    nodes = [f"n{i}" for i in range(pick.integer(1, 4))]
    drawn = {n: Drawn(pick) for n in nodes}
    edges = []
    for k in range(pick.integer(0, 4)):
        src, dst = pick.choice(nodes), pick.choice(nodes)
        edges.append((f"e{k}", src, dst,
                      hom_images(pick, drawn[src], drawn[dst])))
    return nodes, drawn, edges


def sparse_diagram(nodes, groups, edges):
    shape = Shape(nodes, [(eid, src, dst) for eid, src, dst, _ in edges])
    return ShapedDiagram(shape, groups, {
        eid: AbHom(groups[src], groups[dst], images)
        for eid, src, dst, images in edges})


# -- differential checks -----------------------------------------------------

def check_homs(pick):
    a, b, c = Drawn(pick), Drawn(pick), Drawn(pick)
    images = hom_images(pick, a, b)
    h = AbHom(a.group, b.group, images)
    o = DenseAbHom(a.group, b.group, images)
    assert h.images == o.images
    assert AbHom(a.group, b.group, sparse_form(images)) == h
    # the certification verdict, on a planted and on a random hom
    bad = hom_images(pick, a, b, planted=True)
    candidates = [[random_word(pick, b.group.ngens) for _ in range(a.group.ngens)]]
    if bad is not None:
        candidates.append(bad)
        with pytest.raises(ValidationError, match="not well-defined"):
            AbHom(a.group, b.group, bad)
    for cand in candidates:
        verdicts = []
        for cls in (AbHom, DenseAbHom):
            try:
                cls(a.group, b.group, cand)
                verdicts.append(True)
            except ValidationError:
                verdicts.append(False)
        assert verdicts[0] == verdicts[1]
    # apply, dense or sparse in, sparse out
    x = random_word(pick, a.group.ngens)
    assert b.group.dense(h.apply(x)) == o.apply(x)
    assert h.apply(sparse_form([x])[0]) == h.apply(x)
    # compose
    later = hom_images(pick, b, c)
    h2, o2 = AbHom(b.group, c.group, later), DenseAbHom(b.group, c.group, later)
    assert h2.compose(h).images == o2.compose(o).images
    # equal_as_maps: images moved by codomain relations, and another hom
    shifted = [list(row) for row in images]
    for row in shifted:
        for rel in b.group.relations:
            f = pick.integer(-2, 2)
            for k, r in enumerate(rel):
                row[k] += f * r
    assert h.equal_as_maps(AbHom(a.group, b.group, shifted))
    assert o.equal_as_maps(DenseAbHom(a.group, b.group, shifted))
    other = hom_images(pick, a, b)
    assert h.equal_as_maps(AbHom(a.group, b.group, other)) == \
        o.equal_as_maps(DenseAbHom(a.group, b.group, other))


def check_colimits(pick):
    nodes, drawn, edges = draw_diagram(pick)
    groups = {n: drawn[n].group for n in nodes}
    d = sparse_diagram(nodes, groups, edges)
    res = colimit(d)
    dense_edges = [(eid, src, dst, DenseAbHom(groups[src], groups[dst], im))
                   for eid, src, dst, im in edges]
    ref = dense_colimit(nodes, groups, dense_edges)
    assert res.group.ngens == ref[0].ngens
    assert res.group.rows == ref[1]
    assert res.offsets == ref[2]
    for n in nodes:
        assert res.injections[n].images == ref[3][n].images

    # colimit_induced along a scalar endomorphism and along the collapse
    # onto the one-node diagram of the colimit
    scale = pick.integer(-2, 2)
    scalar = {n: [[scale * int(i == j) for j in range(g.ngens)]
                  for i in range(g.ngens)] for n, g in groups.items()}
    m = DiagramMorphism(
        node_map={n: n for n in nodes},
        edge_map={eid: (eid,) for eid, *_ in edges},
        components={n: AbHom(g, g, scalar[n]) for n, g in groups.items()},
        direction=FORWARD)
    induced = colimit_induced(m, d, d, res, res)
    want = dense_colimit_induced(
        nodes, m.node_map,
        {n: DenseAbHom(g, g, scalar[n]) for n, g in groups.items()}, ref, ref)
    assert induced.images == want.images

    # a copy of the diagram with its nodes renamed and listed in reverse,
    # so that the blocks of the target colimit move
    renamed = {n: f"{n}'" for n in nodes}
    copy_nodes = [renamed[n] for n in reversed(nodes)]
    copy_groups = {renamed[n]: g for n, g in groups.items()}
    copy_edges = [(eid, renamed[src], renamed[dst], im)
                  for eid, src, dst, im in edges]
    copy = sparse_diagram(copy_nodes, copy_groups, copy_edges)
    relabel = DiagramMorphism(
        node_map=renamed, edge_map={eid: (eid,) for eid, *_ in edges},
        components={n: AbHom.identity(g) for n, g in groups.items()},
        direction=FORWARD)
    induced = colimit_induced(relabel, d, copy)
    ref_copy = dense_colimit(copy_nodes, copy_groups, [
        (eid, src, dst, DenseAbHom(copy_groups[src], copy_groups[dst], im))
        for eid, src, dst, im in copy_edges])
    want = dense_colimit_induced(
        nodes, renamed,
        {n: DenseAbHom(g, g, [[int(i == j) for j in range(g.ngens)]
                              for i in range(g.ngens)])
         for n, g in groups.items()}, ref, ref_copy)
    assert induced.images == want.images

    point = ShapedDiagram(Shape(["pt"], []), {"pt": res.group}, {})
    collapse = DiagramMorphism(
        node_map={n: "pt" for n in nodes},
        edge_map={eid: () for eid, *_ in edges},
        components=res.injections, direction=FORWARD)
    point_colimit = colimit(point)
    induced = colimit_induced(collapse, d, point, res, point_colimit)
    ref_point = dense_colimit(["pt"], {"pt": ref[0]}, [])
    want = dense_colimit_induced(nodes, collapse.node_map, ref[3], ref,
                                 ref_point)
    assert induced.images == want.images
    assert induced.equal_as_maps(AbHom.identity(res.group)
                                 .compose(point_colimit.injections["pt"]))


def check_kernels(pick):
    a, b = Drawn(pick), Drawn(pick)
    images = hom_images(pick, a, b)
    group, inclusion = kernel(AbHom(a.group, b.group, images))
    want_group, want_inclusion = dense_kernel(DenseAbHom(a.group, b.group,
                                                         images))
    # the two engines may pick different bases of the same lattice
    n = a.group.ngens
    assert hermite_normal_form(inclusion.images, n) == \
        hermite_normal_form(want_inclusion.images, n)
    assert group.invariant_factors() == want_group.invariant_factors()


DIFFERENTIAL = (check_homs, check_colimits, check_kernels)


# -- properties of the sparse path -------------------------------------------

def check_universal_property(pick):
    """A cocone into a quotient of the colimit, or the zero cocone into
    any group, factors through the colimit by the map it came from."""
    nodes, drawn, edges = draw_diagram(pick)
    d = sparse_diagram(nodes, {n: drawn[n].group for n in nodes}, edges)
    res = colimit(d)
    n = res.group.ngens
    if pick.choice((False, True)):
        extra = [random_word(pick, n) for _ in range(pick.integer(0, 2))]
        target = PresentedAbGroup(n, res.group.relations + extra)
        through = AbHom(res.group, target, [{i: 1} for i in range(n)])
    else:
        target = Drawn(pick).group
        through = AbHom.zero(res.group, target)
    legs = {node: through.compose(res.injections[node]) for node in nodes}
    h = cocone_factorization(d, res, target, legs)
    assert h.equal_as_maps(through)
    for node in nodes:
        assert h.compose(res.injections[node]).equal_as_maps(legs[node])


def check_kernel_sequence(pick):
    """0 -> ker h -> A -> B is exact at ker h and at A."""
    a, b = Drawn(pick), Drawn(pick)
    h = AbHom(a.group, b.group, hom_images(pick, a, b))
    group, inclusion = kernel(h)
    assert h.compose(inclusion).equal_as_maps(AbHom.zero(group, b.group))
    assert kernel(inclusion)[0].invariant_factors() == (0, ())
    image = IntegerRowLattice(a.group.ngens)
    for word in inclusion.words + tuple(dict(sp) for sp in a.group.rows):
        image.insert(word)
    for x in itertools.product(range(-2, 3), repeat=a.group.ngens):
        if element_eq(b.group, h.apply(x), {}):
            assert image.contains(x)


def check_associativity(pick):
    drawn = [Drawn(pick) for _ in range(4)]
    h1, h2, h3 = (AbHom(s.group, t.group, hom_images(pick, s, t))
                  for s, t in zip(drawn, drawn[1:]))
    assert h3.compose(h2).compose(h1) == h3.compose(h2.compose(h1))
    assert AbHom.identity(drawn[1].group).compose(h1) == h1
    assert h1.compose(AbHom.identity(drawn[0].group)) == h1


PROPERTIES = (check_universal_property, check_kernel_sequence,
              check_associativity)
CHECKS = DIFFERENTIAL + PROPERTIES
CHECK_IDS = [check.__name__ for check in CHECKS]


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_group_layer(check, seed):
    pick = RngPick(random.Random(seed))
    for _ in range(10):
        check(pick)


if given is None:
    def test_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_group_layer_property(check, data):
        check(DrawPick(data))


# -- explicit cases ----------------------------------------------------------

def test_planted_ill_defined_hom_is_rejected_by_both():
    c2, z = PresentedAbGroup(1, [[2]]), PresentedAbGroup.free(1)
    for cls in (AbHom, DenseAbHom):
        with pytest.raises(ValidationError):
            cls(c2, z, [[1]])
    assert AbHom(c2, c2, [{0: 3}]).images == ((3,),)


@pytest.mark.parametrize("images, message", [
    ([[1, 0]], "length"),
    ([{1: 1}], "generator 1 of 1"),
    ([{-1: 1}], "generator -1 of 1"),
    ([], "one image word per domain generator"),
])
def test_image_words_are_checked(images, message):
    z = PresentedAbGroup.free(1)
    with pytest.raises(ValidationError, match=message):
        AbHom(z, z, images)


def test_words_drop_zero_coefficients():
    z2 = PresentedAbGroup.free(2)
    h = AbHom(z2, z2, [[0, 1], {0: 0, 1: 2}])
    assert h.words == ({1: 1}, {1: 2})
    assert h.apply((1, -2)) == {1: -3}
    assert h.apply({0: 2, 1: 1}) == {1: 4}
    assert PresentedAbGroup(2, [{1: 0}, [0, 0], {0: 2}]).rows == (((0, 2),),)


@pytest.mark.parametrize("build", [
    lambda: PresentedAbGroup(1.9, [[2]]),
    lambda: PresentedAbGroup(True, [[2]]),
    lambda: PresentedAbGroup(1, [[2.5]]),
    lambda: PresentedAbGroup(2, [{0: 1.5}]),
    lambda: PresentedAbGroup(2, [{0.0: 1}]),
    lambda: PresentedAbGroup(2, [[0, True]]),
    lambda: AbHom(PresentedAbGroup.free(1), PresentedAbGroup.free(1), [[1.5]]),
    lambda: AbHom(PresentedAbGroup.free(1), PresentedAbGroup.free(1), [[True]]),
    lambda: AbHom(PresentedAbGroup.free(2), PresentedAbGroup.free(2),
                  [{"1": -2}, {0: 1}]),
    lambda: AbHom(PresentedAbGroup.free(2), PresentedAbGroup.free(2),
                  [{1: -2}, {0: True}]),
], ids=["float ngens", "bool ngens", "dense float", "sparse float",
        "float generator", "dense bool", "image float", "image bool",
        "string generator", "sparse bool"])
def test_non_integer_entries_are_rejected(build):
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


def test_int_subclass_entries_become_plain_ints():
    class Count(int):
        pass

    z2 = PresentedAbGroup.free(Count(2))
    h = AbHom(z2, z2, [{Count(1): Count(-2)}, [Count(1), 0]])
    assert h.words == ({1: -2}, {0: 1})
    assert all(type(k) is int and type(c) is int
               for word in h.words for k, c in word.items())
    assert type(z2.ngens) is int
