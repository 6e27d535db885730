"""Differential tests: every structured fast path against the dense path
it replaces.

Diagonal projections in mask form, permutation rotations, the support
shortcut of dense rotations, the coordinate map of homs and the images
of permutation rotations are each compared with exact dense matrix
arithmetic on the same values.  The oracles below work on ExactMatrix
parts directly, so they never take a fast path themselves.

Each case is drawn through a pick (RngPick or DrawPick): block sizes,
coordinate sets, permutations, multiplicities and slot orders are
separate draws.  The seeded tests draw them from random.Random and
always run; the property tests draw them with hypothesis strategies, so
that a failure shrinks to a minimal algebra, hom and coordinate set,
and skip when hypothesis is not installed.
"""

import random

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        InnerAutomorphism, MultiMatrixAlgebra, StarHom,
                        ValidationError, diagonal_projection,
                        pythagorean_unitary, sample_unital_hom,
                        transposition_unitary, verify_theorem1)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(12)


# -- dense oracles -------------------------------------------------------

def dense_projection(algebra, coords):
    """The diagonal projection on coords, built as dense block matrices."""
    parts = []
    offset = 0
    for n in algebra.blocks:
        parts.append(ExactMatrix.diagonal(
            [1 if offset + i in coords else 0 for i in range(n)]))
        offset += n
    return AlgebraElement(algebra, parts)


def dense_mul(a, b):
    return AlgebraElement(a.algebra, [x * y for x, y in zip(a.parts, b.parts)])


def dense_conjugate(u, a):
    """u a u* by exact block products."""
    return AlgebraElement(a.algebra, [x * y * x.adjoint()
                                      for x, y in zip(u.parts, a.parts)])


def permutation_matrix(algebra, perm):
    """The unitary with u e_c = e_perm[c], built entry by entry."""
    parts = []
    offset = 0
    for n in algebra.blocks:
        parts.append(ExactMatrix.from_rows(
            [[1 if perm[offset + c] == offset + r else 0 for c in range(n)]
             for r in range(n)]))
        offset += n
    return AlgebraElement(algebra, parts)


def dense_ranks(a):
    return tuple(p.rank() for p in a.parts)


# -- drawing cases ---------------------------------------------------------

class RngPick:
    """Draws from a seeded random.Random."""

    def __init__(self, rng):
        self.rng = rng

    def integer(self, lo, hi):
        return self.rng.randint(lo, hi)

    def subset(self, n):
        return frozenset(c for c in range(n) if self.rng.random() < 0.5)

    def permutation(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items

    def choice(self, items):
        return self.rng.choice(items)


class DrawPick:
    """Draws with hypothesis strategies, through st.data()."""

    def __init__(self, data):
        self.draw = data.draw

    def integer(self, lo, hi):
        return self.draw(st.integers(lo, hi))

    def subset(self, n):
        return self.draw(st.frozensets(st.integers(0, n - 1)))

    def permutation(self, items):
        return self.draw(st.permutations(list(items)))

    def choice(self, items):
        return self.draw(st.sampled_from(items))


PHASES = (GaussianRational(1), GaussianRational(-1),
          GaussianRational(0, 1), GaussianRational(0, -1))


def pick_algebra(pick, wide=False):
    """Blocks of size up to 4, so that block permutations need not be
    involutions; with wide, the first block has size >= 2."""
    blocks = [pick.integer(2 if wide and i == 0 else 1, 4)
              for i in range(pick.integer(1, 3))]
    return MultiMatrixAlgebra(blocks)


def pick_block_permutation(pick, algebra):
    perm = []
    offset = 0
    for n in algebra.blocks:
        perm.extend(pick.permutation(range(offset, offset + n)))
        offset += n
    return perm


def pick_dense_rotation(pick, algebra):
    """A Pythagorean rotation of a block of size >= 2 times a diagonal
    phase, or None when every block has size 1."""
    wide = [b for b, n in enumerate(algebra.blocks) if n >= 2]
    if not wide:
        return None
    pyth = pythagorean_unitary(algebra, pick.choice(wide))
    phase = AlgebraElement(algebra, [
        ExactMatrix.diagonal([pick.choice(PHASES) for _ in range(n)])
        for n in algebra.blocks])
    return InnerAutomorphism(dense_mul(pyth.u, phase), name="pyth*phase")


def pick_hom(pick):
    """A unital hom with domain blocks up to 3, multiplicities up to 2
    and either the default or a shuffled slot assignment."""
    dom = [pick.integer(1, 3) for _ in range(pick.integer(1, 3))]
    mult = [[pick.integer(0, 2) for _ in dom]
            for _ in range(pick.integer(1, 3))]
    for row in mult:
        if not any(row):
            row[0] = 1
    cod = [sum(m * n for m, n in zip(row, dom)) for row in mult]
    assignment = None
    if pick.integer(0, 1):
        assignment = [pick.permutation(
            [(j, c) for j, m in enumerate(row) for c in range(m)])
            for row in mult]
    return StarHom(MultiMatrixAlgebra(dom), MultiMatrixAlgebra(cod), mult,
                   unital=True, assignment=assignment)


def mask_form_case(pick):
    algebra = pick_algebra(pick)
    n = algebra.coord_count
    return (algebra, pick.subset(n), pick.subset(n),
            pick_dense_rotation(pick, algebra))


def permutation_case(pick):
    algebra = pick_algebra(pick)
    return (algebra, pick_block_permutation(pick, algebra),
            pick_block_permutation(pick, algebra),
            pick.subset(algebra.coord_count),
            pick_dense_rotation(pick, algebra))


def support_case(pick):
    algebra = pick_algebra(pick, wide=True)
    return (pick_dense_rotation(pick, algebra),
            pick.subset(algebra.coord_count))


def hom_apply_case(pick):
    phi = pick_hom(pick)
    return phi, pick.subset(phi.domain.coord_count)


def rotation_image_case(pick):
    phi = pick_hom(pick)
    return (phi, pick_block_permutation(pick, phi.domain),
            pick.subset(phi.codomain.coord_count))


# -- checks ----------------------------------------------------------------

def check_mask_form(algebra, ca, cb, rotation):
    ma, mb = diagonal_projection(algebra, ca), diagonal_projection(algebra, cb)
    da, db = dense_projection(algebra, ca), dense_projection(algebra, cb)
    assert ma == da and da == ma
    assert ma != db or ca == cb
    assert hash(ma) == hash(da)
    assert ma.parts == da.parts
    assert ma.rank_vector() == dense_ranks(da)
    assert ma.diag_mask == da.diag_mask == frozenset(ca)
    assert ma.is_zero() == all(p.is_zero() for p in da.parts)
    assert ma.is_unitary() == all(p.classify().unitary for p in da.parts)
    assert ma.is_projection()
    assert ma.adjoint() == AlgebraElement(algebra,
                                          [p.adjoint() for p in da.parts])
    assert (ma * mb).parts == dense_mul(da, db).parts
    sum_ = AlgebraElement(algebra, [x + y for x, y in zip(da.parts, db.parts)])
    assert ma + mb == sum_ and sum_ == ma + mb
    diff = AlgebraElement(algebra, [x - y for x, y in zip(da.parts, db.parts)])
    assert ma - mb == diff and diff == ma - mb
    # products of a mask with a dense non-diagonal element
    if rotation is not None:
        r = rotation.conjugate(ma)
        assert (ma * r).parts == dense_mul(da, r).parts
        assert (r * ma).parts == dense_mul(r, da).parts
        assert (ma * rotation.u).parts == dense_mul(da, rotation.u).parts


def check_permutation_conjugation(algebra, perm, other_perm, coords,
                                  rotation):
    alpha = InnerAutomorphism.permutation(algebra, perm, "p")
    beta = InnerAutomorphism.permutation(algebra, other_perm, "q")
    assert (alpha == beta) == (alpha.u.parts == beta.u.parts)
    u = alpha.u
    assert u.parts == permutation_matrix(algebra, perm).parts
    assert all(p.classify().unitary for p in u.parts)
    dense_alpha = InnerAutomorphism(AlgebraElement(algebra, u.parts))
    assert alpha == dense_alpha and dense_alpha == alpha
    assert hash(alpha) == hash(dense_alpha)
    p = diagonal_projection(algebra, coords)
    want = dense_conjugate(u, dense_projection(algebra, coords))
    got = alpha.conjugate(p)
    assert got == want and want == got
    assert got.parts == want.parts
    assert got.diag_mask == frozenset(perm[c] for c in coords)
    assert alpha.inverse().conjugate(got) == p
    # a non-diagonal element goes through the dense path
    if rotation is not None:
        r = rotation.conjugate(p)
        assert alpha.conjugate(r) == dense_conjugate(u, r)


def check_support_shortcut(alpha, coords):
    algebra = alpha.algebra
    for mask in (coords, coords | alpha.support, coords - alpha.support):
        p = diagonal_projection(algebra, mask)
        got = alpha.conjugate(p)
        want = dense_conjugate(alpha.u, dense_projection(algebra, mask))
        assert got == want and want == got
        assert got.parts == want.parts
        if alpha.support <= mask or alpha.support.isdisjoint(mask):
            assert got is p


def check_hom_apply(phi, coords):
    image = phi.apply(diagonal_projection(phi.domain, coords))
    want = phi._place(dense_projection(phi.domain, coords))
    assert image == want and want == image
    assert image.parts == want.parts
    assert hash(image) == hash(want)


def check_rotation_image(phi, perm, coords):
    alpha = InnerAutomorphism.permutation(phi.domain, perm, "p")
    image = phi.apply_rotation(alpha)
    want = InnerAutomorphism(phi.apply(permutation_matrix(phi.domain, perm)))
    assert image.coord_perm is not None
    assert image == want and want == image
    assert image.u == want.u
    assert hash(image) == hash(want)
    assert phi.apply_rotation(alpha) is image
    # the image cache tells rotations apart, not only their names
    identity = InnerAutomorphism.permutation(
        phi.domain, range(phi.domain.coord_count), "p")
    assert phi.apply_rotation(identity).coord_perm == tuple(
        range(phi.codomain.coord_count))
    p = diagonal_projection(phi.codomain, coords)
    assert image.conjugate(p) == dense_conjugate(want.u, p)


CASES = (
    (check_mask_form, mask_form_case),
    (check_permutation_conjugation, permutation_case),
    (check_support_shortcut, support_case),
    (check_hom_apply, hom_apply_case),
    (check_rotation_image, rotation_image_case),
)
CASE_IDS = [check.__name__ for check, _ in CASES]


@pytest.mark.parametrize("check, case", CASES, ids=CASE_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fast_path_matches_dense(check, case, seed):
    check(*case(RngPick(random.Random(seed))))


@pytest.mark.parametrize("seed", SEEDS)
def test_sampled_hom_matches_dense(seed):
    rng = random.Random(seed)
    phi = sample_unital_hom(rng)
    pick = RngPick(rng)
    check_hom_apply(phi, pick.subset(phi.domain.coord_count))
    check_rotation_image(phi, pick_block_permutation(pick, phi.domain),
                         pick.subset(phi.codomain.coord_count))


if given is None:
    def test_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check, case", CASES, ids=CASE_IDS)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fast_path_matches_dense_property(check, case, data):
        check(*case(DrawPick(data)))


class TestPermutation:
    A = MultiMatrixAlgebra([2, 3])

    def test_transposition_is_a_permutation_rotation(self):
        alpha = transposition_unitary(self.A, 1, 0, 2)
        assert alpha.coord_perm == (0, 1, 4, 3, 2)
        assert alpha.support == frozenset({2, 4})

    @pytest.mark.parametrize("perm", [
        [0, 0, 2, 3, 4],       # not injective
        [0, 1, 2, 3],          # too short
        [0, 1, 2, 3, 5],       # out of range
        [1, 0, 2, 3, 4.0],     # not an integer
    ])
    def test_rejects_a_non_bijection(self, perm):
        with pytest.raises(ValidationError):
            InnerAutomorphism.permutation(self.A, perm)

    def test_rejects_a_permutation_across_blocks(self):
        with pytest.raises(ValidationError, match="block"):
            InnerAutomorphism.permutation(self.A, [2, 1, 0, 3, 4])

    def test_dense_rotation_is_still_checked_unitary(self):
        not_unitary = dense_projection(self.A, {0, 1, 2})
        with pytest.raises(ValidationError):
            InnerAutomorphism(not_unitary)

    def test_support_ignores_diagonal_phases(self):
        parts = [ExactMatrix.diagonal([GaussianRational(0, 1), 1]),
                 ExactMatrix.identity(3)]
        phase = InnerAutomorphism(AlgebraElement(self.A, parts))
        assert phase.support == frozenset()
        p = diagonal_projection(self.A, {0, 3})
        assert phase.conjugate(p) is p
        assert p == dense_conjugate(phase.u, p)


def test_rotation_image_needs_a_unital_hom():
    phi = sample_unital_hom(random.Random(3))
    nonunital = StarHom(phi.domain, MultiMatrixAlgebra(
        [b + 1 for b in phi.codomain.blocks]), phi.multiplicity, unital=False)
    alpha = InnerAutomorphism.permutation(
        phi.domain, range(phi.domain.coord_count))
    with pytest.raises(ValidationError):
        nonunital.apply_rotation(alpha)


def test_theorem1_at_48_coordinates():
    report = verify_theorem1(MultiMatrixAlgebra([12]), m=4)
    assert report.ok
    assert report.ktilde_factors == report.k0_factors == (1, ())
