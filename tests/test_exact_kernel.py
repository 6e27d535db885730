"""Differential tests: the integer-triple Gaussian-rational kernel against
a Fraction-pair reference.

FractionPair below is the arithmetic the kernel replaced: a scalar held
as two Fractions, each in lowest terms, every operation done part by
part.  The matrix oracles work on row-major lists of FractionPair, so
they never touch the kernel under test.

Scalars and matrices are drawn through a pick (RngPick or DrawPick, as
in tests/test_structured_atoms.py).  The seeded tests draw from
random.Random and always run; the property tests draw with hypothesis
strategies through st.data(), so that a failure shrinks to a minimal
scalar or matrix, and skip when hypothesis is not installed.
Denominators include multiples of the hash modulus (2**61 - 1 on 64-bit
builds), where a rational's hash is the hash of infinity.
"""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        MultiMatrixAlgebra, ValidationError, span_subalgebra)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(12)
P = sys.hash_info.modulus


# -- the Fraction-pair reference -----------------------------------------

class FractionPair:
    """re + im*i with two Fractions, as the scalar type used to be."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __add__(self, other):
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return FractionPair(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return FractionPair(-self.re, -self.im)

    def __mul__(self, other):
        return FractionPair(self.re * other.re - self.im * other.im,
                            self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return FractionPair((self.re * other.re + self.im * other.im) / n,
                            (self.im * other.re - self.re * other.im) / n)

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def is_zero(self):
        return not self.re and not self.im

    def __eq__(self, other):
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_pair(self):
        return [str(self.re), str(self.im)]


def oracle_matmul(a, b, rows, inner, cols):
    out = []
    for i in range(rows):
        for j in range(cols):
            acc = FractionPair()
            for k in range(inner):
                acc = acc + a[i * inner + k] * b[k * cols + j]
            out.append(acc)
    return out


def oracle_adjoint(a, rows, cols):
    return [a[i * cols + j].conjugate()
            for j in range(cols) for i in range(rows)]


def oracle_identity(n):
    return [FractionPair(1 if i == j else 0)
            for i in range(n) for j in range(n)]


def oracle_classify(a, n):
    adj = oracle_adjoint(a, n, n)
    projection = a == adj and oracle_matmul(a, a, n, n, n) == a
    unitary = oracle_matmul(a, adj, n, n, n) == oracle_identity(n)
    return projection, unitary


def oracle_rank(a, rows, cols):
    work = [a[i * cols:(i + 1) * cols] for i in range(rows)]
    rank = 0
    for col in range(cols):
        pivot = next((r for r in range(rank, rows)
                      if not work[r][col].is_zero()), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(rows):
            if r != rank and not work[r][col].is_zero():
                ratio = work[r][col] / work[rank][col]
                work[r] = [x - ratio * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def assert_agrees(g, f):
    """The kernel scalar g holds the value of the reference f, in lowest
    terms, and shows it the same way."""
    assert g.d > 0 and gcd(g.n, g.m, g.d) == 1
    assert (g.re, g.im) == (f.re, f.im)
    assert repr(g) == repr(f)
    assert g.to_pair() == f.to_pair()
    assert hash(g) == hash(f) == hash((g.re, g.im))
    assert g.is_zero() == f.is_zero() == (not g)


# -- drawing cases ---------------------------------------------------------

class RngPick:
    """Draws from a seeded random.Random."""

    def __init__(self, rng):
        self.rng = rng

    def integer(self, lo, hi):
        return self.rng.randint(lo, hi)

    def choice(self, items):
        return self.rng.choice(items)

    def permutation(self, items):
        items = list(items)
        self.rng.shuffle(items)
        return items


class DrawPick:
    """Draws with hypothesis strategies, through st.data()."""

    def __init__(self, data):
        self.draw = data.draw

    def integer(self, lo, hi):
        return self.draw(st.integers(lo, hi))

    def choice(self, items):
        return self.draw(st.sampled_from(items))

    def permutation(self, items):
        return self.draw(st.permutations(list(items)))


# small denominators, as in Pythagorean rotations, and multiples of the
# hash modulus, where Fraction.__hash__ takes its no-inverse branch
DENOMINATORS = (1, 2, 3, 5, 12, 25, 65, P, 3 * P, P * P)
NUMERATOR_SCALES = (1, 5, P, 2 ** 70)


def pick_rational(pick, integral):
    num = pick.integer(-12, 12) * pick.choice(NUMERATOR_SCALES)
    if integral:
        return Fraction(num)
    return Fraction(num, pick.choice(DENOMINATORS) * pick.integer(1, 3))


def pick_scalar(pick):
    """(kernel scalar, reference) of one value, a Gaussian integer or
    not, the kernel's built from Fractions, rational strings or ints as
    the draw says."""
    integral = pick.choice((False, True))
    re, im = pick_rational(pick, integral), pick_rational(pick, integral)
    form = pick.choice(("fraction", "string", "json"))
    if form == "fraction":
        g = GaussianRational(re, im)
    elif form == "string":
        g = GaussianRational(str(re), str(im))
    else:
        g = GaussianRational.from_json(
            [x.numerator if x.denominator == 1 else str(x) for x in (re, im)])
    return g, FractionPair(re, im)


PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
PHASES = ((1, 0), (-1, 0), (0, 1), (0, -1))


def pick_unitary(pick, n):
    """A reference unitary: a Pythagorean rotation on two coordinates
    (when n >= 2), times diagonal phases, times a permutation."""
    a = oracle_identity(n)
    if n >= 2:
        i, j = pick.permutation(range(n))[:2]
        x, y, z = pick.choice(PYTHAGOREAN)
        c, s = Fraction(x, z), Fraction(y, z)
        a[i * n + i], a[i * n + j] = FractionPair(c), FractionPair(s)
        a[j * n + i], a[j * n + j] = FractionPair(-s), FractionPair(c)
    phases = [FractionPair(*pick.choice(PHASES)) for _ in range(n)]
    perm = pick.permutation(range(n))
    # (a D) with its columns permuted
    return [a[r * n + perm[c]] * phases[perm[c]]
            for r in range(n) for c in range(n)]


def pick_matrix(pick, rows=None, cols=None):
    """(kernel matrix, reference entries, rows, cols): a random matrix of
    small scalars, or a square unitary or projection."""
    kind = pick.choice(("random", "random", "unitary", "projection"))
    if kind == "random" or (rows is not None and rows != cols):
        rows = rows or pick.integer(1, 4)
        cols = cols or pick.integer(1, 4)
        entries = [FractionPair(Fraction(pick.integer(-3, 3),
                                         pick.choice((1, 1, 2, 5))),
                                pick.choice((0, 0, pick.integer(-2, 2))))
                   for _ in range(rows * cols)]
    else:
        n = rows or pick.integer(1, 4)
        rows = cols = n
        entries = pick_unitary(pick, n)
        if kind == "projection":
            bits = [FractionPair(pick.integer(0, 1)) for _ in range(n)]
            diag = [bits[i] if i == j else FractionPair()
                    for i in range(n) for j in range(n)]
            entries = oracle_matmul(oracle_matmul(entries, diag, n, n, n),
                                    oracle_adjoint(entries, n, n), n, n, n)
    matrix = ExactMatrix(rows, cols, [(e.re, e.im) for e in entries])
    return matrix, entries, rows, cols


# -- checks --------------------------------------------------------------

def check_scalar_ops(pick):
    (gx, fx), (gy, fy) = pick_scalar(pick), pick_scalar(pick)
    assert_agrees(gx, fx)
    assert_agrees(gx + gy, fx + fy)
    assert_agrees(gx - gy, fx - fy)
    assert_agrees(gx * gy, fx * fy)
    assert_agrees(-gx, -fx)
    assert_agrees(gx.conjugate(), fx.conjugate())
    if fy.is_zero():
        with pytest.raises(ZeroDivisionError, match="Gaussian rational"):
            gx / gy
    else:
        assert_agrees(gx / gy, fx / fy)
    assert (gx == gy) == (fx == fy)
    assert (gx + gy) - gy == gx
    assert_agrees(gx + -gx, FractionPair())
    assert (gx + gx == gx) == fx.is_zero()
    same = GaussianRational(fx.re, fx.im)
    assert gx == same and hash(gx) == hash(same)
    assert GaussianRational.from_json(gx.to_pair()) == gx


def check_matrix_ops(pick):
    a, fa, rows, inner = pick_matrix(pick)
    b, fb, _, cols = pick_matrix(pick, rows=inner, cols=pick.integer(1, 4))
    want = oracle_matmul(fa, fb, rows, inner, cols)
    for g, f in zip((a * b).entries, want):
        assert_agrees(g, f)
    for g, f in zip(a.adjoint().entries, oracle_adjoint(fa, rows, inner)):
        assert_agrees(g, f)
    assert a.rank() == oracle_rank(fa, rows, inner)
    if rows == inner:
        cls = a.classify()
        assert (cls.projection, cls.unitary) == oracle_classify(fa, rows)
    assert ExactMatrix.from_json(a.to_json()) == a
    assert hash(a) == hash((rows, inner, tuple(fa)))


CHECKS = (check_scalar_ops, check_matrix_ops)
CHECK_IDS = [check.__name__ for check in CHECKS]


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_kernel_matches_reference(check, seed):
    pick = RngPick(random.Random(seed))
    for _ in range(25):
        check(pick)


if given is None:
    def test_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_kernel_matches_reference_property(check, data):
        check(DrawPick(data))


# -- explicit cases ------------------------------------------------------

@pytest.mark.parametrize("re, im", [
    (Fraction(1, P), 0), (Fraction(3, P), Fraction(-1, P)),
    (Fraction(-1, 2 * P), Fraction(5, 3)), (Fraction(P, 3 * P), 1),
    (Fraction(7, P * P), Fraction(-2, 5 * P)), (0, Fraction(-1, P)),
    (Fraction(-1, 1), 0), (Fraction(-1, 2), Fraction(-1, 2)),
    (2 ** 80, -(2 ** 75)), (Fraction(-(P - 1), 1), 0),
    # |n|/d is 1 modulo P, so the part hashes to -1, which reads as -2
    (Fraction(-(P + 2), 2), Fraction(P + 2, 2)),
])
def test_hash_matches_the_fraction_pair(re, im):
    g = GaussianRational(re, im)
    assert hash(g) == hash((Fraction(re), Fraction(im)))
    assert_agrees(g, FractionPair(re, im))


def test_division_by_zero():
    for zero in (GaussianRational(0), GaussianRational("0/7", "-0")):
        with pytest.raises(ZeroDivisionError, match="Gaussian rational"):
            GaussianRational("3/5", "4/5") / zero


def test_parts_are_read_only_fractions():
    g = GaussianRational("3/5", "-4/5")
    assert g.re == Fraction(3, 5) and isinstance(g.re, Fraction)
    assert g.im == Fraction(-4, 5) and isinstance(g.im, Fraction)
    assert (g.n, g.m, g.d) == (3, -4, 5)
    with pytest.raises(AttributeError):
        g.re = Fraction(1)


@pytest.mark.parametrize("data", [
    True, False, 1.0, None, "1/0", "nan", "inf", "x", [1], [1, 2, 3],
    [True, 0], [0, 1.5], ["1/0", 0], [[1], 0], {"re": 1},
])
def test_from_json_rejects(data):
    with pytest.raises(ValidationError):
        GaussianRational.from_json(data)


@pytest.mark.parametrize("data, want", [
    (3, (3, 0)), ("-2/4", (Fraction(-1, 2), 0)), (["3/5", -1], ("3/5", -1)),
    ([0, "1"], (0, 1)), (("1/6", "1/4"), ("1/6", "1/4")),
])
def test_from_json_accepts(data, want):
    assert GaussianRational.from_json(data) == GaussianRational(*want)


# -- the atom order that reads re and im ---------------------------------

def rotated_projection(algebra, block):
    """The projection onto (3/5, -4/5) in the given 2x2 block, zero in
    every other block."""
    parts = [ExactMatrix.zeros(n, n) for n in algebra.blocks]
    parts[block] = ExactMatrix.from_rows([["9/25", "-12/25"],
                                          ["-12/25", "16/25"]])
    return AlgebraElement(algebra, parts)


@pytest.mark.parametrize("blocks, block, want", [
    # both atoms lead at coordinate 0: the entries as (re, im) Fractions
    # decide, and 9/25 < 16/25
    ([2], 0, [[[["9/25", "-12/25"], ["-12/25", "16/25"]]],
              [[["16/25", "12/25"], ["12/25", "9/25"]]]]),
    # the complement leads at coordinate 0, the rotated atom at 1
    ([1, 2], 1, [[[["1"]], [["16/25", "12/25"], ["12/25", "9/25"]]],
                 [[["0"]], [["9/25", "-12/25"], ["-12/25", "16/25"]]]]),
])
def test_atom_order_is_pinned(blocks, block, want):
    algebra = MultiMatrixAlgebra(blocks)
    span = span_subalgebra(algebra, [rotated_projection(algebra, block)])
    got = [[[[repr(e) for e in part.row_list(i)] for i in range(part.rows)]
            for part in atom.parts] for atom in span.atoms]
    assert got == want
