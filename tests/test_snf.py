import random
from fractions import Fraction

import pytest

from ncspectrum import (IntegerRowLattice, ValidationError,
                        integer_determinant, smith_normal_form)
from ncspectrum.snf import (integer_matmul, invariant_factors_of_rows,
                            preimage_row_lattice)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None


# -- dense oracles built on the Smith form with transforms -------------------

def solve_integer(matrix, rhs):
    """An integer solution x of M x = b, or None.

    Via the Smith form: with U M V = D, solve D w = U b and set x = V w.
    """
    res = smith_normal_form(matrix)
    rows = len(res.D)
    cols = len(res.D[0]) if rows else 0
    assert len(rhs) == rows
    c = [sum(res.U[i][k] * rhs[k] for k in range(rows)) for i in range(rows)]
    w = [0] * cols
    diag = res.diagonal
    for i in range(rows):
        d = diag[i] if i < len(diag) else 0
        if d:
            q, rem = divmod(c[i], d)
            if rem:
                return None
            w[i] = q
        elif c[i]:
            return None
    return [sum(res.V[i][k] * w[k] for k in range(cols)) for i in range(cols)]


def left_null_basis(matrix):
    """Basis rows of {z : z M = 0} over Z, via the Smith form of M."""
    res = smith_normal_form(matrix)
    rank = sum(1 for d in res.diagonal if d)
    return [list(res.U[i]) for i in range(rank, len(res.U))]


def dense_preimage_lattice(a_rows, r_rows, ncols):
    """{x : x A lies in rowlattice(R)} from dense rows: stack A over R,
    take the left null lattice of the stack and project it onto the
    A-coordinates."""
    s = len(a_rows)
    lattice = IntegerRowLattice(s)
    stacked = [list(r) for r in a_rows] + [list(r) for r in r_rows]
    if s == 0 or not stacked:
        return lattice
    assert all(len(r) == ncols for r in stacked)
    for z in left_null_basis(stacked):
        x = {j: c for j, c in enumerate(z[:s]) if c}
        if x:
            lattice.insert(x)
    return lattice


def hermite_normal_form(rows, ncols):
    """The Hermite normal form of the lattice spanned by dense rows: an
    echelon basis with positive pivots and every entry above a pivot
    reduced into [0, pivot).  Two row sets span the same lattice
    exactly when their forms agree."""
    work = [list(r) for r in rows if any(r)]
    out = []
    for col in range(ncols):
        live = [r for r in work if r[col]]
        while len(live) > 1:
            # Euclid on the column: reduce every row by the smallest entry
            p = min(live, key=lambda r: abs(r[col]))
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    for k in range(ncols):
                        r[k] -= q * p[k]
            live = [r for r in live if r[col]]
        if live:
            p = live[0]
            work = [r for r in work if r is not p]
            if p[col] < 0:
                p[:] = [-x for x in p]
            for o in out:
                q = o[col] // p[col]
                for k in range(ncols):
                    o[k] -= q * p[k]
            out.append(p)
    return out


def sparse_to_dense(words, ncols):
    return [[w.get(k, 0) for k in range(ncols)] for w in words]


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
    free, torsion = invariant_factors_of_rows(
        [dict(enumerate(r)) for r in matrix], cols)
    assert free == cols - sum(1 for d in diag if d)
    assert list(torsion) == [d for d in diag if d > 1]
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


    def test_coordinates_keep_the_pivot_order_across_inserts(self):
        # the oracle sorts the pivot columns afresh on every call; rows
        # with a new leading column arrive between the calls, in random
        # column order, so the basis order shifts
        def sorted_pivot_coordinates(lat, vec):
            quotients = {}
            if lat._reduce(IntegerRowLattice._to_sparse(vec),
                           quotients) is not None:
                return None
            order = {j: k for k, j in enumerate(sorted(lat.pivots))}
            return {order[j]: q for j, q in quotients.items()}

        rng = random.Random(20261020)
        for _ in range(40):
            lat, rows = IntegerRowLattice(8), []
            for _ in range(rng.randint(1, 10)):
                lead = rng.randrange(8)
                row = {c: rng.choice((1, -1, 2, 3))
                       for c in rng.sample(range(lead, 8), min(3, 8 - lead))}
                row[lead] = rng.choice((1, -1, 2, 3))
                lat.insert(row)
                rows.append(row)
                for _ in range(3):
                    vec = [0] * 8
                    for r in rows:
                        k = rng.randint(-2, 2)
                        for c, x in r.items():
                            vec[c] += k * x
                    if rng.random() < 0.3:
                        vec[rng.randrange(8)] += 1
                    got = lat.coordinates(vec)
                    assert got == sorted_pivot_coordinates(lat, vec)
                    if got is not None:
                        basis = lat.basis_sparse()
                        back = [0] * 8
                        for k, q in got.items():
                            for c, x in basis[k].items():
                                back[c] += q * x
                        assert back == vec


def draw_matrix(data):
    """A matrix of 1-5 rows and 1-5 columns with entries in [-9, 9]."""
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    return data.draw(st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=rows, max_size=rows))


if given is None:
    def test_snf_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_snf_properties(data):
        """U M V = D with unimodular U and V, a divisibility chain on the
        diagonal, and the same invariant factors as the transform-free
        sparse elimination."""
        check_snf(draw_matrix(data))


class TestHermiteOracle:
    def test_canonical_under_row_operations(self):
        rows = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        mixed = [[a + 3 * b for a, b in zip(rows[0], rows[1])], rows[1],
                 [c - a for a, c in zip(rows[0], rows[2])], [0, 0, 0]]
        assert hermite_normal_form(rows, 3) == hermite_normal_form(mixed, 3)
        assert hermite_normal_form([[2, 3], [0, 5]], 2) == [[2, 3], [0, 5]]
        assert hermite_normal_form([[2, 7], [0, 5]], 2) == [[2, 2], [0, 5]]


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
        gens = preimage_row_lattice([[2]], [[4]], 1).basis_sparse()
        assert gens == [{0: 2}]

    def test_fold_kernel(self):
        gens = preimage_row_lattice([[1], [1]], [], 1).basis_sparse()
        assert gens == [{0: 1, 1: -1}]

    def test_everything_when_relations_cover(self):
        gens = preimage_row_lattice([[1, 0]], [[1, 0], [0, 1]],
                                    2).basis_sparse()
        assert gens == [{0: 1}]

    def test_sparse_and_dense_rows_agree(self):
        dense = preimage_row_lattice([[2, 0], [0, 3]], [[4, 6]], 2)
        sparse = preimage_row_lattice([{0: 2}, {1: 3}], [{0: 4, 1: 6}], 2)
        assert dense.basis_sparse() == sparse.basis_sparse() == [{0: 2, 1: 2}]

    @pytest.mark.parametrize("a_rows, r_rows", [
        ([[1, 0, 0]], []), ([[1, 0]], [[1]]), ([{2: 1}], []),
        ([{-1: 1}], []), ([[1, 0]], [{0: 1, 5: 2}]),
    ])
    def test_rows_must_fit_the_columns(self, a_rows, r_rows):
        with pytest.raises(ValidationError, match="row length mismatch"):
            preimage_row_lattice(a_rows, r_rows, 2)

    def test_matches_dense_oracle(self):
        """Same lattice as the stacked Smith form, in Hermite form."""
        rng = random.Random(31)
        for _ in range(200):
            s, n = rng.randint(0, 4), rng.randint(0, 4)
            a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(s)]
            r = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n)]
                 for _ in range(rng.randint(0, 3))]
            got = preimage_row_lattice(a, r, n)
            want = dense_preimage_lattice(a, r, n)
            assert hermite_normal_form(
                sparse_to_dense(got.basis_sparse(), s), s) == \
                hermite_normal_form(sparse_to_dense(want.basis_sparse(), s), s)


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


# -- no integer routine truncates a non-integer entry --------------------------

@pytest.mark.parametrize("bad", [2.5, 1.0, True, False, "3", Fraction(5, 2)])
@pytest.mark.parametrize("call", [
    lambda x: smith_normal_form([[x]]),
    lambda x: invariant_factors_of_rows([[x]], 1),
    lambda x: invariant_factors_of_rows([{0: x}], 1),
    lambda x: IntegerRowLattice(1).insert([x]),
    lambda x: IntegerRowLattice(1).contains({0: x}),
    lambda x: IntegerRowLattice(1).coordinates([x]),
    lambda x: preimage_row_lattice([[x]], [], 1),
], ids=["snf", "factors-dense", "factors-sparse", "insert", "contains",
        "coordinates", "preimage"])
def test_non_integer_entries_are_rejected(call, bad):
    with pytest.raises(ValidationError, match="must be an integer"):
        call(bad)


def test_int_subclass_entries_are_read_as_ints():
    from enum import IntEnum

    class Two(IntEnum):
        TWO = 2
    assert smith_normal_form([[Two.TWO]]).D == [[2]]
    assert invariant_factors_of_rows([[Two.TWO]], 1) == (0, [2])
    lattice = IntegerRowLattice(1)
    lattice.insert([Two.TWO])
    assert lattice.basis_sparse() == [{0: 2}]
    assert type(lattice.basis_sparse()[0][0]) is int


# -- rows that do not fit the generator count are rejected ---------------------

@pytest.mark.parametrize("rows,ngens", [
    ([{0: 1}, {1: 1}, {2: 1}], 1),
    ([{5: 1}, {9: 2}], 1),
    ([{-1: 2}], 3),
    ([[1, 2, 3]], 1),
    ([[1]], 2),
    ([[0, 0]], 1),
], ids=["three-columns", "two-far-columns", "negative-column",
        "long-dense", "short-dense", "zero-dense"])
def test_rows_that_do_not_fit_ngens_are_rejected(rows, ngens):
    with pytest.raises(ValidationError):
        invariant_factors_of_rows(rows, ngens)


def test_sparse_columns_are_counted_not_compared_with_ngens():
    # the reduced form keys residual rows by class representatives, which
    # may exceed the number of classes
    assert invariant_factors_of_rows([{5: 2}, {9: 3}], 2) == (0, [6])
    assert invariant_factors_of_rows([{7: 4}, {}], 3) == (2, [4])
