"""Plane rotations against the dense unitary of the same matrix.

A plane rotation is [[3/5, 4/5], [-4/5, 3/5]] on each of some disjoint
coordinate pairs (i, j) of one block, the identity elsewhere
(InnerAutomorphism.plane).  It is held by its pairs: its support, its
conjugates of diagonal projections, its images under unital homs, its
inverse and its equality are read off them.  The oracle is the same
matrix written out and held by its unitary, InnerAutomorphism(u), whose
conjugation, image (phi(u) placed and checked unitary) and equality
read u itself.
"""

import itertools
import random

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        InnerAutomorphism, MultiMatrixAlgebra, StarHom,
                        SubdiagramSpec, ValidationError, build_subdiagram,
                        diagonal_projection, pythagorean_unitary,
                        sample_unital_hom, transposition_unitary)

SEEDS = range(12)
C, S = GaussianRational("3/5"), GaussianRational("4/5")


def draw_algebra(rng):
    """1-3 blocks and at most 6 coordinates."""
    while True:
        blocks = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
        if sum(blocks) <= 6 and max(blocks) >= 2:
            return MultiMatrixAlgebra(blocks)


def draw_planes(algebra, rng):
    """Disjoint ordered pairs inside blocks, at least one."""
    pairs = []
    offset = 0
    for n in algebra.blocks:
        coords = list(range(offset, offset + n))
        rng.shuffle(coords)
        for k in range(rng.randint(0, n // 2)):
            pairs.append((coords[2 * k], coords[2 * k + 1]))
        offset += n
    if not pairs:
        b = next(b for b, n in enumerate(algebra.blocks) if n >= 2)
        offset = algebra.block_offset(b)
        pairs.append((offset + 1, offset))
    return pairs


def written_out(algebra, pairs):
    """The plane rotation's matrix, entry by entry, held by its unitary."""
    n = algebra.coord_count
    dense = [[GaussianRational(int(r == c)) for c in range(n)]
             for r in range(n)]
    for i, j in pairs:
        dense[i][i], dense[i][j], dense[j][i], dense[j][j] = C, S, -S, C
    parts = []
    offset = 0
    for m in algebra.blocks:
        parts.append(ExactMatrix.from_rows(
            [row[offset:offset + m] for row in dense[offset:offset + m]]))
        offset += m
    return InnerAutomorphism(AlgebraElement(algebra, parts), name="dense")


def draws():
    for seed in SEEDS:
        rng = random.Random(seed)
        algebra = draw_algebra(rng)
        pairs = draw_planes(algebra, rng)
        yield (algebra, InnerAutomorphism.plane(algebra, pairs, "plane"),
               written_out(algebra, pairs))


def masks(algebra):
    coords = range(algebra.coord_count)
    for r in range(len(coords) + 1):
        yield from itertools.combinations(coords, r)


def test_u_is_the_written_out_matrix():
    for algebra, plane, dense in draws():
        assert plane.u.parts == dense.u.parts
        assert plane.u == dense.u and plane.u.is_unitary()
        assert plane.support == dense.support


def test_conjugates_of_every_diagonal_projection_agree():
    for algebra, plane, dense in draws():
        for mask in masks(algebra):
            p = diagonal_projection(algebra, mask)
            got, want = plane.conjugate(p), dense.conjugate(p)
            assert got == want and want == got, (algebra, plane.planes, mask)
            assert hash(got) == hash(want)
            assert got.parts == want.parts


def test_non_diagonal_elements_conjugate_alike():
    for algebra, plane, dense in draws():
        p = diagonal_projection(algebra, [0])
        q = dense.conjugate(p)
        assert plane.conjugate(q) == dense.conjugate(q)


def test_equality_and_hash_agree_across_forms():
    for algebra, plane, dense in draws():
        assert plane == dense and dense == plane
        assert hash(plane) == hash(dense)
        assert plane == InnerAutomorphism.plane(
            algebra, list(reversed(plane.planes)), "other name")
        flipped = InnerAutomorphism.plane(
            algebra, [(j, i) for i, j in plane.planes])
        assert flipped != plane and flipped != dense
        assert flipped == plane.inverse()


def test_a_permutation_and_a_plane_compare_without_their_unitaries():
    algebra = MultiMatrixAlgebra([2, 1])
    swap = transposition_unitary(algebra, 0, 0, 1)
    pyth = pythagorean_unitary(algebra, 0)
    assert swap != pyth and pyth != swap and hash(swap) == hash(pyth)
    assert swap._u is None and pyth._u is None
    identity = InnerAutomorphism.permutation(algebra, [0, 1, 2])
    empty = InnerAutomorphism.plane(algebra, [])
    assert identity == empty and empty == identity
    assert empty == InnerAutomorphism(algebra.one())


def test_inverse_undoes_the_rotation():
    for algebra, plane, dense in draws():
        inverse = plane.inverse()
        assert inverse.planes is not None
        assert inverse.u == dense.u_adjoint
        for mask in masks(algebra):
            p = diagonal_projection(algebra, mask)
            assert inverse.conjugate(plane.conjugate(p)) == p
            assert plane.conjugate(inverse.conjugate(p)) == p


def test_images_under_unital_homs_are_the_placed_unitary():
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        phi = sample_unital_hom(rng, max_total_dim=10)
        if max(phi.domain.blocks) < 2:
            continue
        checked += 1
        pairs = draw_planes(phi.domain, rng)
        alpha = InnerAutomorphism.plane(phi.domain, pairs, "plane")
        image = phi.apply_rotation(alpha)
        want = InnerAutomorphism(phi.apply(alpha.u))
        assert image.planes is not None and image.coord_perm is None
        assert image == want and hash(image) == hash(want)
        assert image.u == want.u
        assert image == phi.apply_rotation(written_out(phi.domain, pairs))
        for mask in masks(phi.codomain):
            p = diagonal_projection(phi.codomain, mask)
            assert image.conjugate(p) == want.conjugate(p)


def test_the_sampled_diagram_is_the_same_with_either_form():
    for algebra, plane, dense in draws():
        for rotations in ((plane,), (pythagorean_unitary(algebra, 0)
                                     if algebra.blocks[0] >= 2 else plane,
                                     plane)):
            specs = [SubdiagramSpec(rotations=tuple(
                r if form == "plane" else written_out(algebra, r.planes)
                for r in rotations)) for form in ("plane", "dense")]
            got, want = (build_subdiagram(algebra, s) for s in specs)
            assert got.shape.nodes == want.shape.nodes
            assert got.shape.edges == want.shape.edges
            for nid in got.shape.nodes:
                assert got.node_data[nid].atoms == want.node_data[nid].atoms
            for e in got.shape.edges:
                assert got.edge_data[e.id].spectrum_map().index == \
                    want.edge_data[e.id].spectrum_map().index


def test_pythagorean_unitary_is_one_plane():
    algebra = MultiMatrixAlgebra([1, 3, 2])
    alpha = pythagorean_unitary(algebra, 1)
    assert alpha.planes == ((1, 2),) and alpha.name == "pyth[b1]"
    assert alpha.support == frozenset({1, 2})
    assert alpha == written_out(algebra, [(1, 2)])


M23 = MultiMatrixAlgebra([2, 3])


@pytest.mark.parametrize("pairs", [
    [(2, 3), (3, 4)],          # overlapping pairs
    [(0, 1), (1, 0)],          # the same plane twice
    [(2, 2)],                  # a coordinate paired with itself
    [(1, 2)],                  # a pair across two blocks
    [(3, 5)],                  # an index out of range
    [(-1, 0)],                 # a negative index
    [(2, 3, 4)],               # not a pair
    [(2, "3")],                # not an integer
], ids=["overlap", "repeat", "self", "across", "range", "negative",
        "triple", "type"])
def test_bad_pairs_are_rejected(pairs):
    with pytest.raises(ValidationError):
        InnerAutomorphism.plane(M23, pairs)


def test_plane_images_need_a_unital_hom():
    phi = StarHom(MultiMatrixAlgebra([2]), MultiMatrixAlgebra([3]), [[1]],
                  unital=False)
    with pytest.raises(ValidationError):
        phi.apply_rotation(pythagorean_unitary(phi.domain, 0))
