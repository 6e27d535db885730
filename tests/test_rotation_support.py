"""Rotations read only their support: differential tests.

The support S of a unitary u is the set of coordinates whose row or
column of u holds an off-diagonal entry; off S, u is a unimodular
diagonal.  The unitarity check, the conjugation of a diagonal
projection, the hash of a rotated atom and the rotation sharing of
build_subdiagram all read S only.  Each is compared here with the
formula it replaces, kept as the oracle: m m* = I for the check,
u P u* by exact block products for the conjugation, and the sampled
diagram of a spec without repeated rotations for the sharing.
"""

import itertools
import random

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        InnerAutomorphism, MultiMatrixAlgebra, StarHom,
                        SubdiagramSpec, ValidationError, build_subdiagram,
                        cycle_unitary, diagonal_projection, k_tilde_f,
                        pythagorean_unitary, transposition_unitary)

SEEDS = range(10)
ONE, I = GaussianRational(1), GaussianRational(0, 1)
PHASES = (ONE, -ONE, I, -I, GaussianRational("3/5", "4/5"),
          GaussianRational("5/13", "-12/13"))


# -- oracles ---------------------------------------------------------------

def oracle_unitary(m):
    return m * m.adjoint() == ExactMatrix.identity(m.rows)


def dense_projection(algebra, coords):
    """The diagonal projection on coords as dense block matrices."""
    parts = []
    offset = 0
    for n in algebra.blocks:
        parts.append(ExactMatrix.diagonal(
            [1 if offset + i in coords else 0 for i in range(n)]))
        offset += n
    return AlgebraElement(algebra, parts)


def dense_conjugate(u, a):
    """u a u* by exact block products, with a fresh adjoint."""
    return AlgebraElement(a.algebra, [x * y * x.adjoint()
                                      for x, y in zip(u.parts, a.parts)])


# -- unitaries ---------------------------------------------------------------

def _inverse(rows):
    """The inverse of an invertible square matrix of Gaussian rationals
    given as lists, by Gauss-Jordan elimination."""
    n = len(rows)
    aug = [list(r) + [ONE if i == j else GaussianRational(0)
                      for j in range(n)] for i, r in enumerate(rows)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        pivot = aug[c][c]
        aug[c] = [x / pivot for x in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[c])]
    return [r[n:] for r in aug]


def cayley(rng, k):
    """(I - A)(I + A)^-1 for a random skew-Hermitian k x k matrix A."""
    a = [[GaussianRational(0)] * k for _ in range(k)]
    for i in range(k):
        a[i][i] = GaussianRational(0, rng.randint(-2, 2))
        for j in range(i + 1, k):
            x = GaussianRational(rng.randint(-2, 2), rng.randint(-2, 2))
            a[i][j], a[j][i] = x, -x.conjugate()
    eye = ExactMatrix.identity(k)
    am = ExactMatrix.from_rows(a)
    plus = (eye + am)
    inv = ExactMatrix.from_rows(_inverse(
        [plus.row_list(i) for i in range(k)]))
    return (eye - am) * inv


def givens(rng):
    """A 2 x 2 rotation by a Pythagorean triple, times a phase."""
    c, s, h = rng.choice([(3, 4, 5), (5, 12, 13), (8, 15, 17)])
    z = rng.choice(PHASES)
    cs = GaussianRational(f"{c}/{h}")
    sn = GaussianRational(f"{s}/{h}")
    return ExactMatrix.from_rows([[z * cs, z * sn], [-sn, cs]])


def monomial(rng, k):
    """A permutation matrix times a diagonal of phases."""
    perm = list(range(k))
    rng.shuffle(perm)
    rows = [[GaussianRational(0)] * k for _ in range(k)]
    for c, p in enumerate(perm):
        rows[p][c] = rng.choice(PHASES)
    return ExactMatrix.from_rows(rows)


def embed(rng, core, n):
    """core placed on a random set of coordinates of an n x n matrix
    whose other diagonal entries are random phases."""
    k = core.rows
    coords = sorted(rng.sample(range(n), k))
    rows = [[GaussianRational(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = rng.choice(PHASES)
    for r in range(k):
        for c in range(k):
            rows[coords[r]][coords[c]] = core.entry(r, c)
    return ExactMatrix.from_rows(rows), coords


def random_unitary(rng, n):
    kind = rng.choice(("givens", "cayley", "monomial"))
    if kind == "givens" or n < 3:
        core = givens(rng)
    elif kind == "cayley":
        core = cayley(rng, rng.randint(2, min(n, 3)))
    else:
        core = monomial(rng, rng.randint(2, n))
    return embed(rng, core, n)


def _replace(m, i, j, value):
    rows = [m.row_list(r) for r in range(m.rows)]
    rows[i][j] = value
    return ExactMatrix.from_rows(rows)


# -- ExactMatrix.is_unitary ---------------------------------------------------

@pytest.mark.parametrize("seed", SEEDS)
def test_is_unitary_matches_the_product_on_unitaries(seed):
    rng = random.Random(seed)
    for n in (2, 3, 5, 7):
        m, _ = random_unitary(rng, n)
        assert oracle_unitary(m)
        assert m.is_unitary()


@pytest.mark.parametrize("seed", SEEDS)
def test_is_unitary_matches_the_product_on_near_misses(seed):
    rng = random.Random(100 + seed)
    for n in (3, 5, 7):
        m, coords = random_unitary(rng, n)
        off = [c for c in range(n) if c not in coords]
        i, j = rng.choice(coords), rng.choice(coords)
        cases = [
            # a zero row, in the support and off it
            ExactMatrix.from_rows([[0] * n if r == i else m.row_list(r)
                                   for r in range(n)]),
            # a support row copied onto another: unit rows, not orthogonal
            ExactMatrix.from_rows([m.row_list(i if r == coords[-1] else r)
                                   for r in range(n)]),
            # one perturbed entry in the support
            _replace(m, i, j, m.entry(i, j) + GaussianRational("1/7")),
            # an entry off the diagonal where u is diagonal
            _replace(m, i, off[0], GaussianRational("1/2")) if off else m,
        ]
        if off:
            k = rng.choice(off)
            cases.append(ExactMatrix.from_rows(
                [[0] * n if r == k else m.row_list(r) for r in range(n)]))
            # a diagonal 3/5, a 1 + i, and the unimodular phase i
            for value in (GaussianRational("3/5"), GaussianRational(1, 1), I):
                cases.append(_replace(m, k, k, value))
        for case in cases:
            assert case.is_unitary() == oracle_unitary(case), case


def test_is_unitary_edge_cases():
    assert ExactMatrix.identity(4).is_unitary()
    assert not ExactMatrix.zeros(3, 3).is_unitary()
    assert ExactMatrix.diagonal([1, I, -1]).is_unitary()
    assert not ExactMatrix.diagonal([1, 0, 1]).is_unitary()
    # a rank-one block: the Gram matrix of its rows is not the identity
    half = GaussianRational("1/2")
    c, s = GaussianRational("3/5"), GaussianRational("4/5")
    assert not ExactMatrix.from_rows([[c, s], [c, s]]).is_unitary()
    assert not ExactMatrix.from_rows([[half, half], [half, half]]).is_unitary()
    with pytest.raises(ValidationError):
        ExactMatrix.zeros(2, 3).is_unitary()


# -- InnerAutomorphism.conjugate ----------------------------------------------

def _block_unitary(algebra, rng, make):
    """A unitary element: make(rng, n) on one random block of size >= 2,
    random phases on the others."""
    big = [b for b, n in enumerate(algebra.blocks) if n >= 2]
    chosen = rng.choice(big)
    parts = []
    for b, n in enumerate(algebra.blocks):
        if b == chosen:
            parts.append(make(rng, n))
        else:
            parts.append(ExactMatrix.diagonal(
                [rng.choice(PHASES) for _ in range(n)]))
    return AlgebraElement(algebra, parts)


def _rotations(algebra, rng):
    out = [pythagorean_unitary(algebra, b)
           for b, n in enumerate(algebra.blocks) if n >= 2]
    out.append(InnerAutomorphism(_block_unitary(
        algebra, rng, lambda r, n: embed(r, cayley(r, min(n, 3)), n)[0]),
        name="cayley"))
    out.append(InnerAutomorphism(_block_unitary(
        algebra, rng, lambda r, n: embed(r, monomial(r, n), n)[0]),
        name="monomial"))
    out.append(InnerAutomorphism(AlgebraElement(algebra, [
        ExactMatrix.diagonal([rng.choice(PHASES) for _ in range(n)])
        for n in algebra.blocks]), name="phase"))
    return out


# unital homs into the small algebras below, for non-permutation images
HOMS = (
    StarHom(MultiMatrixAlgebra([2]), MultiMatrixAlgebra([4]), [[2]], True),
    StarHom(MultiMatrixAlgebra([1, 2]), MultiMatrixAlgebra([2, 3]),
            [[0, 1], [1, 1]], True),
)


@pytest.mark.parametrize("blocks", [[2, 3], [4], [1, 3], [2, 2]])
def test_conjugate_matches_the_product_on_every_mask(blocks):
    algebra = MultiMatrixAlgebra(blocks)
    rng = random.Random(sum(blocks))
    rotations = _rotations(algebra, rng)
    for phi in HOMS:
        if phi.codomain == algebra:
            rotations.extend(
                phi.apply_rotation(pythagorean_unitary(phi.domain, b))
                for b, n in enumerate(phi.domain.blocks) if n >= 2)
    coords = range(algebra.coord_count)
    for alpha in rotations:
        assert alpha.coord_perm is None
        for r in range(len(coords) + 1):
            for mask in itertools.combinations(coords, r):
                p = diagonal_projection(algebra, mask)
                got = alpha.conjugate(p)
                want = dense_conjugate(alpha.u,
                                       dense_projection(algebra, mask))
                assert got == want and want == got, (alpha.name, mask)
                assert got.parts == want.parts
                assert hash(got) == hash(want)
                assert got.rank_vector() == p.rank_vector()


def test_phase_rotation_has_empty_support_and_fixes_masks():
    algebra = MultiMatrixAlgebra([2, 3])
    alpha = InnerAutomorphism(AlgebraElement(algebra, [
        ExactMatrix.diagonal([I, -ONE]),
        ExactMatrix.diagonal([PHASES[4], ONE, -I])]))
    assert alpha.support == frozenset()
    p = diagonal_projection(algebra, [0, 3])
    assert alpha.conjugate(p) is p


# -- AlgebraElement.__hash__ ----------------------------------------------------

def test_rows_filled_in_different_orders_hash_equal():
    algebra = MultiMatrixAlgebra([1, 3])
    x, y, z = (GaussianRational("9/25"), GaussianRational("-12/25"),
               GaussianRational("16/25"))
    forward = [{0: x, 2: y}, {}, {0: y, 2: z}]
    backward = [{2: y, 0: x}, {}, {2: z, 0: y}]
    a, b = (AlgebraElement(algebra, [ExactMatrix.zeros(1, 1),
                                     ExactMatrix._from_sparse(3, 3, rows)])
            for rows in (forward, backward))
    assert a == b and hash(a) == hash(b)
    dense = AlgebraElement(algebra, [
        ExactMatrix.zeros(1, 1),
        ExactMatrix.from_rows([[x, 0, y], [0, 0, 0], [y, 0, z]])])
    assert a == dense and hash(a) == hash(dense)


def test_rotated_atom_hashes_as_its_dense_form():
    algebra = MultiMatrixAlgebra([2, 3])
    alpha = pythagorean_unitary(algebra, 1)
    got = alpha.conjugate(diagonal_projection(algebra, [2, 4]))
    dense = AlgebraElement(algebra, [ExactMatrix.from_rows(
        [[p.entry(i, j) for j in range(p.cols)] for i in range(p.rows)])
        for p in got.parts])
    assert got == dense and hash(got) == hash(dense)
    # a diagonal 0/1 projection keeps its mask hash in either form
    mask = diagonal_projection(algebra, [1, 3])
    assert hash(mask) == hash(dense_projection(algebra, {1, 3}))


# -- build_subdiagram sharing ------------------------------------------------

def _phased_swap(algebra):
    """u e_0 = i e_1, u e_1 = e_0 on block 0: moves the atoms as the
    transposition (0 1) does, by a different unitary."""
    parts = [ExactMatrix.identity(n) for n in algebra.blocks]
    n = algebra.blocks[0]
    rows = [[GaussianRational(0)] * n for _ in range(n)]
    rows[1][0], rows[0][1] = I, ONE
    for c in range(2, n):
        rows[c][c] = ONE
    parts[0] = ExactMatrix.from_rows(rows)
    return InnerAutomorphism(AlgebraElement(algebra, parts), name="iswap")


def test_repeated_actions_share_the_first_rotation():
    algebra = MultiMatrixAlgebra([3, 2])
    swap = transposition_unitary(algebra, 0, 0, 1)
    base = (swap, cycle_unitary(algebra, 0), pythagorean_unitary(algebra, 0),
            pythagorean_unitary(algebra, 1))
    phase = InnerAutomorphism(AlgebraElement(algebra, [
        ExactMatrix.diagonal([I, ONE, -ONE]), ExactMatrix.diagonal([1, 1])]),
        name="phase")
    dense_swap = InnerAutomorphism(AlgebraElement(algebra, swap.u.parts),
                                   name="dense")
    repeats = (transposition_unitary(algebra, 0, 0, 1), phase, dense_swap,
               _phased_swap(algebra))
    plain = build_subdiagram(algebra, SubdiagramSpec(rotations=base))
    dia = build_subdiagram(algebra, SubdiagramSpec(rotations=base + repeats))

    assert dia.shape == plain.shape
    assert dia.node_data == plain.node_data
    # the phase moves no atom and is dropped; the other repeats are kept
    # and name the swap's edges
    assert dia.meta["rotations"] == base + repeats[:1] + repeats[2:]
    edges = dia.meta["rotation_edges"]
    assert {k: v for k, v in edges.items() if k[0] < len(base)} \
        == plain.meta["rotation_edges"]
    for r in range(len(base), len(base) + 3):
        for bid in dia.meta["base_ids"]:
            assert edges.get((r, bid)) == edges.get((0, bid))
    assert any((len(base), bid) in edges for bid in dia.meta["base_ids"])
    assert k_tilde_f(algebra, diagram=dia).canonical_str() \
        == k_tilde_f(algebra, diagram=plain).canonical_str()


# -- satellites: diagonal_projection and InnerAutomorphism.__eq__ -----------

def test_diagonal_projection_ignores_coordinates_outside_the_algebra():
    algebra = MultiMatrixAlgebra([2, 3])
    p = diagonal_projection(algebra, [-1, 0, 4, 5, 40])
    assert p.diag_mask == frozenset({0, 4})
    assert p == diagonal_projection(algebra, [0, 4])
    assert diagonal_projection(algebra, range(-3, 9)) == algebra.one()
    assert diagonal_projection(algebra, [7, -2]).is_zero()


def test_unequal_supports_compare_without_building_the_permutation():
    algebra = MultiMatrixAlgebra([3])
    swap = transposition_unitary(algebra, 0, 1, 2)
    pyth = pythagorean_unitary(algebra, 0)
    assert swap != pyth and pyth != swap
    assert swap._u is None
    # dense and permutation forms of one rotation still agree
    dense = InnerAutomorphism(AlgebraElement(algebra, swap.u.parts))
    assert swap == dense and dense == swap
    assert hash(swap) == hash(dense)
    # a rotation of another algebra with the same support is unequal
    other = MultiMatrixAlgebra([2])
    assert pythagorean_unitary(other, 0) != pyth
    assert pythagorean_unitary(algebra, 0) == pyth
