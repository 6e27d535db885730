"""Differential tests: the sparse ExactMatrix against the dense matrix it
replaced, and Cayley-transform rotations through the whole diagram route.

DenseMatrix below is the dense row-major ExactMatrix as it was before
matrices were held by their nonzero entries; it is the oracle for every
operation, on matrices built through the validating dense constructor
and on matrices the library builds sparsely (mask-form parts, identity,
permutation and Pythagorean unitaries, products).  Every result must
also keep the sparse invariant: no stored zero, no column out of range.

A Cayley transform (I - A)(I + A)^-1 of a rational skew-Hermitian A is
an exact Gaussian-rational unitary (Cayley, 1846) that mixes a whole
block, unlike the Givens and permutation rotations of the default
sample.  Added to the default spec it must leave Theorem 1, Conjecture 1
and the naturality square true; alone it must be reported as too
coarse.

Cases are drawn through a pick (RngPick or DrawPick, from
tests/test_structured_atoms.py): the seeded tests always run, the
property tests shrink a failure and skip without hypothesis.
"""

import json
import random

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        InnerAutomorphism, MultiMatrixAlgebra, StarHom,
                        SubdiagramSpec, diagonal_projection,
                        pythagorean_unitary, sample_unital_hom,
                        transposition_unitary, verify_conjecture1,
                        verify_naturality_square, verify_theorem1)
from ncspectrum.exact import GR_ONE, GR_ZERO, MatrixClass

from test_cli import run_cli
from test_structured_atoms import DrawPick, RngPick

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(12)


# -- the dense oracle ----------------------------------------------------

class DenseMatrix:
    """A matrix of GaussianRational entries stored as one dense row-major
    tuple, every operation entry by entry."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        self.rows, self.cols = rows, cols
        self.entries = tuple(GaussianRational.coerce(e) for e in entries)
        assert len(self.entries) == rows * cols

    @classmethod
    def of(cls, m: ExactMatrix) -> "DenseMatrix":
        return cls(m.rows, m.cols, [m.entry(i, j) for i in range(m.rows)
                                    for j in range(m.cols)])

    @classmethod
    def identity(cls, n):
        return cls(n, n, [GR_ONE if i == j else GR_ZERO
                          for i in range(n) for j in range(n)])

    def entry(self, i, j):
        return self.entries[i * self.cols + j]

    def __add__(self, other):
        return DenseMatrix(self.rows, self.cols,
                           [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return DenseMatrix(self.rows, self.cols,
                           [a - b for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return DenseMatrix(self.rows, self.cols, [-e for e in self.entries])

    def __mul__(self, other):
        out = []
        for i in range(self.rows):
            for j in range(other.cols):
                acc = GR_ZERO
                for k in range(self.cols):
                    acc = acc + self.entry(i, k) * other.entry(k, j)
                out.append(acc)
        return DenseMatrix(self.rows, other.cols, out)

    def scale(self, c):
        c = GaussianRational.coerce(c)
        return DenseMatrix(self.rows, self.cols, [c * e for e in self.entries])

    def adjoint(self):
        return DenseMatrix(self.cols, self.rows, [
            self.entry(i, j).conjugate()
            for j in range(self.cols) for i in range(self.rows)])

    def rank(self):
        work = [list(self.entries[i * self.cols:(i + 1) * self.cols])
                for i in range(self.rows)]
        rank = 0
        for col in range(self.cols):
            pivot = next((r for r in range(rank, self.rows)
                          if not work[r][col].is_zero()), None)
            if pivot is None:
                continue
            work[rank], work[pivot] = work[pivot], work[rank]
            for r in range(self.rows):
                if r != rank and not work[r][col].is_zero():
                    ratio = work[r][col] / work[rank][col]
                    work[r] = [x - ratio * y
                               for x, y in zip(work[r], work[rank])]
            rank += 1
        return rank

    def classify(self):
        adj = self.adjoint()
        projection = self == adj and self * self == self
        unitary = self * adj == DenseMatrix.identity(self.rows)
        return MatrixClass(projection, unitary)

    def diagonal_01_pattern(self):
        bits = []
        for i in range(self.rows):
            for j in range(self.cols):
                e = self.entry(i, j)
                if i == j and e == GR_ONE:
                    bits.append(1)
                elif i == j and e.is_zero():
                    bits.append(0)
                elif not e.is_zero():
                    return None
        return tuple(bits)

    def __eq__(self, other):
        return (self.rows, self.cols, self.entries) == \
            (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def to_json(self):
        return [[self.entry(i, j).to_pair() for j in range(self.cols)]
                for i in range(self.rows)]


def assert_same(m: ExactMatrix, d: DenseMatrix):
    """m holds d's values, sparsely, and reads, hashes and serializes as
    d does."""
    assert (m.rows, m.cols) == (d.rows, d.cols)
    assert len(m.sparse) == m.rows
    for row in m.sparse:
        assert all(0 <= j < m.cols and e for j, e in row.items()), row
    assert m.entries == d.entries
    assert hash(m) == hash(d)
    assert m.to_json() == d.to_json()
    assert ExactMatrix.from_json(m.to_json()) == m
    assert m.is_zero() == all(e.is_zero() for e in d.entries)


# -- drawing matrices ------------------------------------------------------

SCALARS = (GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
           GaussianRational("3/5", "-4/5"), GaussianRational("-1/2"),
           GaussianRational(2, 1), GaussianRational("5/12", "1/3"))


def pick_entries(pick, rows, cols):
    """Entries with a drawn density: all zero, sparse or dense."""
    density = pick.choice((0, 1, 3, 10))
    return [pick.choice(SCALARS) if pick.integer(1, 10) <= density
            else GR_ZERO for _ in range(rows * cols)]


def pick_skew_hermitian(pick, n):
    """A rational A with A* = -A and every off-diagonal entry nonzero."""
    a = [[GR_ZERO] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = GaussianRational(0, pick.integer(-2, 2))
        for j in range(i + 1, n):
            re, im = pick.integer(-2, 2), pick.integer(-2, 2)
            x = GaussianRational(re or 1, im)
            a[i][j], a[j][i] = x, -x.conjugate()
    return ExactMatrix.from_rows(a)


def inverse(m: ExactMatrix) -> ExactMatrix:
    """Gauss-Jordan inverse of an invertible square matrix."""
    n = m.rows
    work = [m.row_list(i) + [GR_ONE if i == j else GR_ZERO for j in range(n)]
            for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        p = work[col][col]
        work[col] = [x / p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return ExactMatrix.from_rows(row[n:] for row in work)


def cayley(a: ExactMatrix) -> ExactMatrix:
    """(I - A)(I + A)^-1; I + A is invertible for skew-Hermitian A."""
    one = ExactMatrix.identity(a.rows)
    return (one - a) * inverse(one + a)


def pick_square(pick, n):
    """A square matrix: drawn entries, a Cayley unitary, a projection
    conjugated by one, or a matrix the library builds sparsely."""
    kind = pick.choice(("entries", "entries", "cayley", "projection",
                        "library"))
    if kind == "entries":
        return ExactMatrix(n, n, pick_entries(pick, n, n))
    if kind == "library":
        algebra = MultiMatrixAlgebra([n])
        coords = pick.subset(n)
        if n >= 2 and pick.choice((False, True)):
            return pythagorean_unitary(algebra, 0).u.parts[0]
        return diagonal_projection(algebra, coords).parts[0]
    u = cayley(pick_skew_hermitian(pick, n))
    if kind == "cayley":
        return u
    bits = ExactMatrix.diagonal([int(c in pick.subset(n)) for c in range(n)])
    return u * bits * u.adjoint()


def pick_pair(pick):
    """Two matrices of one shape, and a third that multiplies the first."""
    if pick.choice((False, True)):
        n = pick.integer(1, 4)
        a, b = pick_square(pick, n), pick_square(pick, n)
        return a, b, pick_square(pick, n)
    rows, cols, more = (pick.integer(1, 4) for _ in range(3))
    return (ExactMatrix(rows, cols, pick_entries(pick, rows, cols)),
            ExactMatrix(rows, cols, pick_entries(pick, rows, cols)),
            ExactMatrix(cols, more, pick_entries(pick, cols, more)))


# -- checks ----------------------------------------------------------------

def check_operations(pick):
    a, b, c = pick_pair(pick)
    da, db, dc = DenseMatrix.of(a), DenseMatrix.of(b), DenseMatrix.of(c)
    for m, d in ((a, da), (b, db), (c, dc)):
        assert_same(m, d)
        assert m.rank() == d.rank()
        assert_same(m.adjoint(), d.adjoint())
        assert_same(-m, -d)
    assert_same(a + b, da + db)
    assert_same(a - b, da - db)
    assert_same(a - a, da - da)
    assert_same(a * c, da * dc)
    s = pick.choice(SCALARS + (GR_ZERO,))
    assert_same(a.scale(s), da.scale(s))
    assert (a == b) == (da == db)
    assert (a == b) <= (hash(a) == hash(b))
    if a.rows == a.cols:
        want = da.classify()
        assert a.classify() == want
        assert a.is_unitary() == want.unitary
        assert a.diagonal_01_pattern() == da.diagonal_01_pattern()
        assert_same(a * a.adjoint(), da * da.adjoint())


def check_elements(pick):
    """Products, sums and conjugations of algebra elements whose parts
    the library builds sparsely, against the dense parts."""
    algebra = MultiMatrixAlgebra([pick.integer(2, 4), pick.integer(1, 3)])
    n = algebra.coord_count
    p = diagonal_projection(algebra, pick.subset(n))
    q = diagonal_projection(algebra, pick.subset(n))
    block = 0
    alpha = pick.choice((
        pythagorean_unitary(algebra, block),
        transposition_unitary(algebra, block, 0, 1),
        cayley_rotation(pick, algebra, block)))
    u = alpha.u
    for x, y in ((p, q), (u, p), (p, u), (u, u.adjoint())):
        for g, xp, yp in zip((x * y).parts, x.parts, y.parts):
            assert_same(g, DenseMatrix.of(xp) * DenseMatrix.of(yp))
    for g, xp, yp in zip((p + q).parts, p.parts, q.parts):
        assert_same(g, DenseMatrix.of(xp) + DenseMatrix.of(yp))
    rotated = alpha.conjugate(p)
    for g, up, pp in zip(rotated.parts, u.parts, p.parts):
        du = DenseMatrix.of(up)
        assert_same(g, du * DenseMatrix.of(pp) * du.adjoint())
    assert rotated.rank_vector() == p.rank_vector()


CHECKS = (check_operations, check_elements)
CHECK_IDS = [check.__name__ for check in CHECKS]


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_matches_dense(check, seed):
    pick = RngPick(random.Random(seed))
    for _ in range(20):
        check(pick)


if given is None:
    def test_sparse_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sparse_matches_dense_property(check, data):
        check(DrawPick(data))


def test_givens_rotation_is_stored_by_its_support():
    n = 50
    u = pythagorean_unitary(MultiMatrixAlgebra([n]), 0).u.parts[0]
    assert sum(len(row) for row in u.sparse) == n + 2
    p = diagonal_projection(MultiMatrixAlgebra([n]), {0}).parts[0]
    rotated = u * p * u.adjoint()
    assert sum(len(row) for row in rotated.sparse) == 4


def test_dense_input_is_still_validated():
    with pytest.raises(Exception, match="entry count"):
        ExactMatrix(2, 2, [1, 0, 0])
    with pytest.raises(Exception, match="exact rational"):
        ExactMatrix(1, 1, [0.5])
    with pytest.raises(Exception, match="square"):
        ExactMatrix(1, 2, [1, 0]).is_unitary()


# -- Cayley rotations through the diagram route ----------------------------

def cayley_rotation(pick, algebra, block):
    """Conjugation by a Cayley unitary on one block, identity elsewhere."""
    parts = [ExactMatrix.identity(n) for n in algebra.blocks]
    parts[block] = cayley(pick_skew_hermitian(pick, algebra.blocks[block]))
    return InnerAutomorphism(AlgebraElement(algebra, parts),
                             name=f"cayley[b{block}]")


def pick_wide_algebra(pick):
    """At most 3 blocks of size at most 3, the first of size >= 2."""
    blocks = [pick.integer(2 if i == 0 else 1, 3)
              for i in range(pick.integer(1, 3))]
    return MultiMatrixAlgebra(pick.permutation(blocks))


def with_cayley(pick, algebra):
    block = pick.choice([b for b, n in enumerate(algebra.blocks) if n >= 2])
    alpha = cayley_rotation(pick, algebra, block)
    default = SubdiagramSpec.default(algebra)
    return alpha, SubdiagramSpec(rotations=default.rotations + (alpha,),
                                 label="default+cayley")


def check_cayley_theorem1(pick):
    algebra = pick_wide_algebra(pick)
    alpha, spec = with_cayley(pick, algebra)
    # the rotation mixes every coordinate of its block
    assert len(alpha.support) in algebra.blocks
    report = verify_theorem1(algebra, spec, m=1)
    assert report.ok, (algebra, report.error, report.witness)
    # alone, a rotation that takes a finest atom off the diagonal gives no
    # identification between two coordinates (a monomial one, which only
    # permutes the finest atoms, may)
    fine = [diagonal_projection(algebra, {c})
            for c in range(algebra.coord_count)]
    if any(alpha.conjugate(p).diag_mask is None for p in fine):
        alone = verify_theorem1(algebra, SubdiagramSpec(rotations=(alpha,)),
                                m=1)
        assert not alone.ok
        assert "the subdiagram sample is too coarse" in alone.error


def check_cayley_conjecture1(pick):
    algebra = pick_wide_algebra(pick)
    _, spec = with_cayley(pick, algebra)
    report = verify_conjecture1(algebra, spec)
    assert report.ok, (algebra, report)


def check_cayley_naturality(pick):
    rng = random.Random(pick.integer(0, 10 ** 6))
    phi = sample_unital_hom(rng)
    while max(phi.domain.blocks) < 2:
        phi = sample_unital_hom(rng)
    _, spec = with_cayley(pick, phi.domain)
    report = verify_naturality_square(phi, spec, m=1)
    assert report.ok, (phi, report.witness)


CAYLEY_CHECKS = (check_cayley_theorem1, check_cayley_conjecture1,
                 check_cayley_naturality)
CAYLEY_IDS = [check.__name__ for check in CAYLEY_CHECKS]


@pytest.mark.parametrize("check", CAYLEY_CHECKS, ids=CAYLEY_IDS)
@pytest.mark.parametrize("seed", range(4))
def test_cayley_rotations(check, seed):
    pick = RngPick(random.Random(seed))
    for _ in range(3):
        check(pick)


if given is None:
    def test_cayley_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check", CAYLEY_CHECKS, ids=CAYLEY_IDS)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_cayley_rotation_property(check, data):
        check(DrawPick(data))


def test_cayley_rotation_image_under_a_hom_is_unitary():
    pick = RngPick(random.Random(5))
    algebra = MultiMatrixAlgebra([3])
    alpha = cayley_rotation(pick, algebra, 0)
    phi = StarHom(algebra, MultiMatrixAlgebra([6, 3]), [[2], [1]],
                  unital=True)
    image = phi.apply_rotation(alpha)
    assert image.coord_perm is None and image.u.is_unitary()
    assert image.support == frozenset(range(9))


@pytest.mark.parametrize("with_default, code", [(True, 0), (False, 2)])
def test_cayley_rotation_through_the_spec_option(with_default, code):
    pick = RngPick(random.Random(11))
    algebra = MultiMatrixAlgebra([3])
    rotations = [cayley_rotation(pick, algebra, 0)]
    if with_default:
        rotations = list(SubdiagramSpec.default(algebra).rotations) + rotations
    spec = {"rotations": [[part.to_json() for part in alpha.u.parts]
                          for alpha in rotations]}
    got, text = run_cli("verify", "theorem1", "--algebra", '{"blocks":[3]}',
                        "--stabilize", "1", "--spec", json.dumps(spec))
    assert got == code, text
    assert ("too coarse" in text) == (not with_default)
