import random
from fractions import Fraction

from ncspectrum import (IntegerRowLattice, integer_determinant,
                        smith_normal_form, solve_integer)
from ncspectrum.snf import (integer_matmul, invariant_factors_of_rows,
                            preimage_row_lattice)


def check_snf(matrix):
    res = smith_normal_form(matrix)
    rows, cols = len(matrix), len(matrix[0])
    assert integer_matmul(integer_matmul(res.U, matrix), res.V) == res.D
    assert abs(integer_determinant(res.U)) == 1
    assert abs(integer_determinant(res.V)) == 1
    diag = res.diagonal
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert res.D[i][j] == 0
    for i in range(len(diag) - 1):
        if diag[i]:
            assert diag[i + 1] % diag[i] == 0
        else:
            assert diag[i + 1] == 0
    assert all(d >= 0 for d in diag)
    return res


class TestSmithNormalForm:
    def test_identity(self):
        res = check_snf([[1, 0], [0, 1]])
        assert res.diagonal == [1, 1]

    def test_zero(self):
        res = check_snf([[0]])
        assert res.diagonal == [0]

    def test_divisibility_example(self):
        # d1 = gcd of entries = 2, product of factors = |det| = 8
        res = check_snf([[2, 4], [6, 8]])
        assert res.diagonal == [2, 4]

    def test_random_matrices(self):
        rng = random.Random(17)
        for _ in range(40):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-10, 10) for _ in range(cols)]
                 for _ in range(rows)]
            check_snf(m)

    def test_deterministic(self):
        m = [[6, 4, 2], [2, 8, 4]]
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first.U == second.U and first.V == second.V


class TestSolve:
    def test_solvable(self):
        # 2x + 4y = 10, 6x + 8y = 26
        x = solve_integer([[2, 4], [6, 8]], [10, 26])
        assert x is not None
        assert [2 * x[0] + 4 * x[1], 6 * x[0] + 8 * x[1]] == [10, 26]

    def test_unsolvable_parity(self):
        assert solve_integer([[2]], [3]) is None

    def test_inconsistent(self):
        assert solve_integer([[1], [1]], [0, 1]) is None


class TestIntegerRowLattice:
    def test_membership(self):
        lat = IntegerRowLattice(3)
        lat.insert([2, 0, 2])
        lat.insert([0, 3, 3])
        assert lat.contains([2, 3, 5])
        assert lat.contains([0, 0, 0])
        assert not lat.contains([1, 0, 1])
        assert not lat.contains([2, 3, 4])

    def test_gcd_combination(self):
        lat = IntegerRowLattice(1)
        lat.insert([4])
        lat.insert([6])
        assert lat.contains([2])
        assert not lat.contains([1])

    def test_matches_solve(self):
        rng = random.Random(23)
        for _ in range(20):
            rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
            lat = IntegerRowLattice(3)
            for row in rows:
                lat.insert(row)
            v = [rng.randint(-6, 6) for _ in range(3)]
            transposed = [[rows[r][c] for r in range(3)] for c in range(3)]
            expect = solve_integer(transposed, v) is not None
            assert lat.contains(v) == expect


class TestInvariantFactorsOfRows:
    def test_matches_dense_snf(self):
        rng = random.Random(29)
        for _ in range(30):
            rows = rng.randint(0, 5)
            cols = rng.randint(1, 5)
            m = [[rng.randint(-8, 8) for _ in range(cols)]
                 for _ in range(rows)]
            free, torsion = invariant_factors_of_rows(
                [dict(enumerate(r)) for r in m], cols)
            diag = [d for d in smith_normal_form(m).diagonal if d] if m else []
            assert free == cols - len(diag)
            assert list(torsion) == [d for d in diag if d > 1]


class TestPreimageLattice:
    def test_kernel_of_doubling(self):
        # x * [2] lies in the lattice generated by [4] iff x is even
        gens = preimage_row_lattice([[2]], [[4]], 1).basis_rows()
        assert gens == [[2]]

    def test_fold_kernel(self):
        gens = preimage_row_lattice([[1], [1]], [], 1).basis_rows()
        assert gens == [[1, -1]]

    def test_everything_when_relations_cover(self):
        gens = preimage_row_lattice([[1, 0]], [[1, 0], [0, 1]],
                                    2).basis_rows()
        assert gens == [[1]]


def fraction_determinant(m):
    """Gaussian elimination over Fractions: the oracle for the integer
    (Bareiss) elimination of integer_determinant."""
    n = len(m)
    work = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        pv = work[col][col]
        det *= pv
        for r in range(col + 1, n):
            f = work[r][col] / pv
            for c in range(col, n):
                work[r][c] -= f * work[col][c]
    assert det.denominator == 1
    return int(det)


class TestDeterminant:
    def test_empty_matrix(self):
        assert integer_determinant([]) == 1

    def test_needs_a_row_swap(self):
        assert integer_determinant([[0, 1], [1, 0]]) == -1

    def test_matches_fraction_elimination(self):
        rng = random.Random(5)
        singular = 0
        for _ in range(300):
            n = rng.randint(1, 6)
            m = [[rng.randint(-6, 6) if rng.random() < 0.7 else 0
                  for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.3:
                # a repeated or scaled row makes the matrix singular
                m[rng.randrange(1, n)] = [2 * x for x in m[0]]
            want = fraction_determinant(m)
            singular += want == 0
            assert integer_determinant(m) == want, m
        assert singular > 20
