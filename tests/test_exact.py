import random

import pytest

from ncspectrum import ExactMatrix, GaussianRational, ValidationError


def gr(re, im=0):
    return GaussianRational(re, im)


def random_matrix(rng, rows, cols, imaginary=True):
    entries = []
    for _ in range(rows * cols):
        re = rng.randint(-3, 3)
        im = rng.randint(-2, 2) if imaginary else 0
        entries.append(gr(re, im))
    return ExactMatrix(rows, cols, entries)


def kron(a, b):
    """Kronecker product, shape (p*r) x (q*s)."""
    return ExactMatrix.from_rows(
        [a.entry(i1, j1) * b.entry(i2, j2)
         for j1 in range(a.cols) for j2 in range(b.cols)]
        for i1 in range(a.rows) for i2 in range(b.rows))


class TestArithmetic:
    def test_add_identity(self):
        i2 = ExactMatrix.identity(2)
        assert i2 + ExactMatrix.zeros(2, 2) == i2

    def test_adjoint_conjugates(self):
        m = ExactMatrix.from_rows([[gr(0, 1)]])
        assert m.adjoint() == ExactMatrix.from_rows([[gr(0, -1)]])

    def test_swap_is_involution(self):
        swap = ExactMatrix.from_rows([[0, 1], [1, 0]])
        assert swap * swap == ExactMatrix.identity(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            ExactMatrix.identity(2) + ExactMatrix.identity(3)
        with pytest.raises(ValidationError):
            ExactMatrix.zeros(2, 3) * ExactMatrix.zeros(2, 3)

    def test_scalar_field(self):
        a = gr("3/5", "4/5")
        b = a.conjugate()
        assert a * b == gr(1)
        assert a / a == gr(1)
        with pytest.raises(ZeroDivisionError):
            a / gr(0)


class TestRank:
    def test_identity(self):
        assert ExactMatrix.identity(3).rank() == 3

    def test_zero(self):
        assert ExactMatrix.zeros(2, 2).rank() == 0

    def test_ones_matrix(self):
        # rows are equal, so elimination leaves one pivot
        m = ExactMatrix.from_rows([[1, 1], [1, 1]])
        assert m.rank() == 1

    def test_rank_equals_adjoint_rank(self):
        rng = random.Random(11)
        for _ in range(25):
            m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
            assert m.rank() == m.adjoint().rank()


class TestClassify:
    def test_projection(self):
        cls = ExactMatrix.diagonal([1, 0]).classify()
        assert cls.projection and cls.label == "projection"

    def test_pythagorean_unitary(self):
        m = ExactMatrix.from_rows([
            [gr("3/5"), gr("4/5")],
            [gr("-4/5"), gr("3/5")],
        ])
        cls = m.classify()
        assert cls.unitary and not cls.projection
        assert cls.label == "unitary"

    def test_neither(self):
        assert ExactMatrix.from_rows([[1, 1], [0, 1]]).classify().label == "neither"

    def test_identity_reports_both_flags(self):
        cls = ExactMatrix.identity(2).classify()
        assert cls.projection and cls.unitary

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            ExactMatrix.zeros(2, 3).classify()

    def test_projection_rank_equals_trace(self):
        rng = random.Random(5)
        for _ in range(20):
            # random diagonal 0/1 projections conjugated by a permutation
            n = rng.randint(1, 4)
            bits = [rng.randint(0, 1) for _ in range(n)]
            m = ExactMatrix.diagonal(bits)
            assert m.classify().projection
            t = sum((m.entry(i, i) for i in range(n)), GaussianRational(0))
            assert t.im == 0 and t.re.denominator == 1
            assert m.rank() == int(t.re)


class TestKron:
    def test_identities(self):
        assert kron(ExactMatrix.identity(2), ExactMatrix.identity(3)) == \
            ExactMatrix.identity(6)

    def test_projection_padding(self):
        got = kron(ExactMatrix.diagonal([1, 0]), ExactMatrix.identity(2))
        assert got == ExactMatrix.diagonal([1, 1, 0, 0])

    def test_rank_multiplicative(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_matrix(rng, 2, 2)
            b = random_matrix(rng, 2, 2)
            assert kron(a, b).rank() == a.rank() * b.rank()

    def test_associative(self):
        rng = random.Random(9)
        a = random_matrix(rng, 2, 2)
        b = random_matrix(rng, 1, 3)
        c = random_matrix(rng, 2, 1)
        assert kron(kron(a, b), c) == kron(a, kron(b, c))


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(3)
        for _ in range(10):
            m = random_matrix(rng, rng.randint(1, 3), rng.randint(1, 3))
            assert ExactMatrix.from_json(m.to_json()) == m

    def test_rational_strings(self):
        m = ExactMatrix.from_rows([[gr("3/5", "-4/5")]])
        data = m.to_json()
        assert data == [[["3/5", "-4/5"]]]
        assert ExactMatrix.from_json(data) == m

    def test_plain_string_entries_accepted(self):
        m = ExactMatrix.from_json([["3/5", "1"], ["0", "-2/7"]])
        assert m.entry(1, 1) == gr("-2/7")


class TestScalarHash:
    """A scalar keeps its hash once computed; the kept value is the hash
    of the pair (re, im), as an uncached scalar computes it."""

    def draws(self):
        rng = random.Random(20261022)
        for _ in range(200):
            den = rng.choice((1, 2, 5, 25, 3 ** 40, rng.randint(1, 10 ** 6)))
            yield gr(f"{rng.randint(-10 ** 6, 10 ** 6)}/{den}",
                     f"{rng.randint(-50, 50)}/{rng.choice((1, den, 7))}")

    def test_hash_is_the_pair_hash_before_and_after_caching(self):
        for z in self.draws():
            want = hash((z.re, z.im))
            assert hash(z) == want
            assert hash(z) == want
            fresh = gr(z.re, z.im)
            assert fresh == z and hash(fresh) == want

    def test_arithmetic_results_hash_like_fresh_scalars(self):
        zs = list(self.draws())
        for a, b in zip(zs, zs[1:]):
            for z in (a + b, a - b, a * b, -a, a.conjugate()):
                assert hash(z) == hash((z.re, z.im)) == hash(gr(z.re, z.im))

    def test_entries_of_a_pythagorean_plane_are_one_hash_each(self):
        c = gr("3/5")
        first = hash(c)
        assert c._hash == first == hash((c.re, c.im))
