"""Space maps held as target positions: differential tests.

A SpaceMap stores, per source point, the position of its image among
the target's points.  The formulas that read the map as a dict from
source labels to target labels are kept here as oracles: K of a map
(the target position of each assigned label), the image masks of the
closed-set limit, composition, identity, surjectivity and images.
They are compared with the library on seeded random maps between small
labelled spaces, and the spectrum map of every edge of a sampled
diagram with the domination rule it caches.
"""

import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, Shape, ShapedDiagram,
                        SubdiagramSpec, ValidationError, build_subdiagram,
                        limit_semilattice)
from ncspectrum.algebra import projection_leq
from ncspectrum.ktheory import K_of_map
from ncspectrum.lattices import _closed_set_rank, _subset_of, compatible_masks
from ncspectrum.serialize import load_spec
from ncspectrum.subalgebra import FiniteSpace, SpaceMap

from test_cli import DENSE_SPEC

SEEDS = range(30)


# -- oracles: the label formulas -------------------------------------------

def position(space, label):
    return list(space.points).index(label)


def oracle_K_words(q):
    words = [{} for _ in q.target.points]
    for x, p in enumerate(q.source.points):
        words[position(q.target, q.assignment[p])][x] = 1
    return words


def oracle_over(q):
    """Per target point, the mask of the source points mapped onto it."""
    over = [0] * q.target.size
    for x, p in enumerate(q.source.points):
        over[position(q.target, q.assignment[p])] |= 1 << x
    return over


def oracle_limit(dia):
    nodes = list(dia.shape.nodes)
    spaces = [dia.node_data[n] for n in nodes]
    links = [(nodes.index(e.src), nodes.index(e.dst),
              oracle_over(dia.edge_data[e.id]), True)
             for e in dia.shape.edges]
    subsets = [_subset_of(s.points) for s in spaces]
    return [tuple(subset(mask) for subset, mask in zip(subsets, masks))
            for masks in compatible_masks([s.size for s in spaces], links,
                                          _closed_set_rank)]


def oracle_compose(g, f):
    """g after f, as a label dict."""
    return {p: g.assignment[q] for p, q in f.assignment.items()}


def oracle_spectrum_assignment(arrow):
    """The point of each codomain atom goes to the point of the first
    domain atom whose nonzero image dominates it."""
    return {f"p{j}": f"p{i}" for j, q in enumerate(arrow.codomain.atoms)
            for i in [next(i for i, img in enumerate(arrow.images)
                           if not img.is_zero() and projection_leq(q, img))]}


# -- random labelled spaces and maps ---------------------------------------

def random_space(rng, name):
    """One to four points, labelled in a shuffled order."""
    labels = [f"{name}{rng.choice('xyz')}{k}"
              for k in range(rng.randint(1, 4))]
    rng.shuffle(labels)
    return FiniteSpace(labels)


def random_labels(rng, source, target):
    return {p: rng.choice(target.points) for p in source.points}


def random_map(rng, source, target):
    return SpaceMap(source, target, random_labels(rng, source, target))


@pytest.mark.parametrize("seed", SEEDS)
def test_labels_and_positions_build_the_same_map(seed):
    rng = random.Random(seed)
    a, b = random_space(rng, "a"), random_space(rng, "b")
    labels = random_labels(rng, a, b)
    by_labels = SpaceMap(a, b, labels)
    by_positions = SpaceMap(a, b, [position(b, labels[p]) for p in a.points])
    assert by_labels == by_positions
    assert hash(by_labels) == hash(by_positions)
    assert by_labels.index == by_positions.index
    assert by_positions.assignment == labels
    assert repr(by_positions) == f"SpaceMap({labels})"


@pytest.mark.parametrize("seed", SEEDS)
def test_K_words_match_oracle(seed):
    rng = random.Random(seed)
    q = random_map(rng, random_space(rng, "a"), random_space(rng, "b"))
    assert list(K_of_map(q).words) == oracle_K_words(q)


@pytest.mark.parametrize("seed", SEEDS)
def test_limit_matches_oracle_masks(seed):
    rng = random.Random(seed)
    names = [f"n{k}" for k in range(rng.randint(1, 4))]
    spaces = {n: random_space(rng, n) for n in names}
    edges, maps = [], {}
    for k in range(rng.randint(0, 5)):
        a, b = rng.choice(names), rng.choice(names)
        maps[f"e{k}"] = random_map(rng, spaces[b], spaces[a])
        edges.append((f"e{k}", a, b))
    dia = ShapedDiagram(Shape(names, edges), spaces, maps,
                        variance="contravariant")
    assert list(limit_semilattice(dia).elements) == oracle_limit(dia)


@pytest.mark.parametrize("seed", SEEDS)
def test_compose_identity_surjective_image_match_oracle(seed):
    rng = random.Random(seed)
    a, b, c = (random_space(rng, n) for n in "abc")
    f, g = random_map(rng, a, b), random_map(rng, b, c)
    assert g.compose(f).assignment == oracle_compose(g, f)
    assert g.compose(f) == SpaceMap(a, c, oracle_compose(g, f))
    for x in (a, b):
        ident = SpaceMap.identity(x)
        assert ident.assignment == {p: p for p in x.points}
        assert ident.compose(ident) == ident
    assert SpaceMap.identity(b).compose(f) == f
    assert f.compose(SpaceMap.identity(a)) == f
    for q in (f, g):
        assert q.is_surjective() == \
            (set(q.assignment.values()) == set(q.target.points))
        points = [p for p in q.source.points if rng.random() < 0.5]
        assert q.image(points) == frozenset(q.assignment[p] for p in points)


def test_compose_rejects_maps_that_do_not_chain():
    a, b = FiniteSpace(("x",)), FiniteSpace(("y", "z"))
    with pytest.raises(ValidationError):
        SpaceMap.identity(a).compose(SpaceMap.identity(b))


A, B = FiniteSpace(("x", "y")), FiniteSpace(("u", "v", "w"))


@pytest.mark.parametrize("index", [
    [], [0], [0, 1, 2], (True, 0), [0, False], [-1, 0], [0, 3],
    [0, 1.0], [0, "1"], [None, 0],
])
def test_bad_positions_rejected(index):
    with pytest.raises(ValidationError):
        SpaceMap(A, B, index)


@pytest.mark.parametrize("labels", [
    {"x": "u"}, {"x": "u", "y": "v", "z": "w"}, {"x": "u", "q": "v"},
    {"x": "u", "y": "t"}, {"x": "u", "y": 0}, {0: "u", 1: "v"},
])
def test_bad_labels_rejected(labels):
    with pytest.raises(ValidationError):
        SpaceMap(A, B, labels)


def test_empty_source_maps_anywhere():
    empty = FiniteSpace(())
    assert SpaceMap(empty, B, []) == SpaceMap(empty, B, {})
    assert SpaceMap(empty, empty, []).is_surjective()
    assert not SpaceMap(empty, B, []).is_surjective()


def _repeated_rotations():
    algebra = MultiMatrixAlgebra([2, 3])
    spec = SubdiagramSpec.default(algebra)
    return build_subdiagram(algebra, SubdiagramSpec(
        spec.rotations + spec.rotations[::-1], spec.partitions, spec.label))


def _middle_partitions():
    """Base partitions between the coarsest and the finest, so that the
    rotated sheets hold mirrored inclusions out of many-atom nodes."""
    algebra = MultiMatrixAlgebra([4])
    return build_subdiagram(algebra, load_spec(
        {"partitions": [[[0, 2], [1, 3]], [[0], [1], [2, 3]]]}, algebra))


def _swapped_middle_partition():
    """A rotation that swaps the two atoms of the base node {0,2}|{1,3}
    (the permutation (0 1)(2 3), then a Pythagorean rotation of the
    plane of e0 and e2) but moves the finest node to a new one: the
    mirrored inclusion out of that base node has a placed domain."""
    algebra = MultiMatrixAlgebra([4])
    rotation = [["0", "3/5", "0", "-4/5"], ["1", "0", "0", "0"],
                ["0", "4/5", "0", "3/5"], ["0", "0", "1", "0"]]
    return build_subdiagram(algebra, load_spec(
        {"rotations": [{"parts": [rotation]}],
         "partitions": [[[0, 2], [1, 3]]]}, algebra))


DIAGRAMS = {
    "[1,2,3]": lambda: build_subdiagram(MultiMatrixAlgebra([1, 2, 3])),
    "[4] middle partitions": _middle_partitions,
    "[4] swapped middle partition": _swapped_middle_partition,
    "[2,3] repeated rotations": _repeated_rotations,
    "[4] dense": lambda: build_subdiagram(
        MultiMatrixAlgebra([4]), load_spec(DENSE_SPEC,
                                           MultiMatrixAlgebra([4]))),
}


@pytest.mark.parametrize("name", sorted(DIAGRAMS))
def test_edge_spectrum_maps_match_domination_oracle(name):
    """Mirrored inclusions carry a map composed from their base edge's;
    rotation edges read theirs off the exact atom images."""
    dia = DIAGRAMS[name]()
    kinds = set()
    for e in dia.shape.edges:
        arrow = dia.edge_data[e.id]
        kinds.add(arrow.kind)
        assert arrow.spectrum_map().assignment == \
            oracle_spectrum_assignment(arrow), e.id
    assert kinds == {"inclusion", "rotation"}
