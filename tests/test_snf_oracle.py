"""The Smith form by division with remainder against the one it replaced.

snf.smith_normal_form reduces by floor quotients alone.  The oracle is
the earlier form, kept verbatim below: it also combined two rows or
columns by their Bezout coefficients (xgcd) when a remainder occurred,
and repaired the divisibility chain in a pass after the loop.  D is
unique, so the two agree on it everywhere; U and V may differ only
where a remainder occurs, so on every input the theorem-1 and
non-unital paths make they must be the oracle's, operation for
operation.  On seeded sparse inputs the oracle's transforms grow past
thousands of digits and it does not finish in useful time; there the
new form is checked on its own terms.
"""

import random
import time

import pytest

from ncspectrum import MultiMatrixAlgebra, ktheory, snf
from ncspectrum.errors import ValidationError, as_int
from ncspectrum.snf import (SNFResult, _find_pivot, integer_determinant,
                            integer_matmul, invariant_factors_of_rows,
                            smith_normal_form, xgcd)

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None


# -- the oracle: the Smith form with Bezout steps and a repair pass ----------

def oracle_smith_normal_form(matrix) -> SNFResult:
    """Smith normal form with transform tracking.

    Pivot selection: smallest nonzero absolute value, ties broken in
    row-major order.
    """
    m = [[x if type(x) is int else as_int(x, "matrix entry") for x in row]
         for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(r) != cols for r in m):
        raise ValidationError("ragged integer matrix")
    u = [[1 if i == j else 0 for j in range(rows)] for i in range(rows)]
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def row_op(dst, src, f):
        # row dst -= f * row src, applied to m and u
        if f:
            mr, ms = m[dst], m[src]
            for c in range(cols):
                if ms[c]:
                    mr[c] -= f * ms[c]
            ur, us = u[dst], u[src]
            for c in range(rows):
                if us[c]:
                    ur[c] -= f * us[c]

    def col_op(dst, src, f):
        # col dst -= f * col src, applied to m and v
        if f:
            for r in range(rows):
                if m[r][src]:
                    m[r][dst] -= f * m[r][src]
            for r in range(cols):
                if v[r][src]:
                    v[r][dst] -= f * v[r][src]

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in range(rows):
                m[r][i], m[r][j] = m[r][j], m[r][i]
            for r in range(cols):
                v[r][i], v[r][j] = v[r][j], v[r][i]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        found = _find_pivot(m, t, rows, cols)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            # clear column t below/above the pivot
            dirty = False
            for r in range(rows):
                if r != t and m[r][t]:
                    q, rem = divmod(m[r][t], m[t][t])
                    if rem:
                        # make the pivot the gcd first
                        g, x, y = xgcd(m[t][t], m[r][t])
                        a, b = m[t][t] // g, m[r][t] // g
                        # new row t = x*row t + y*row r; new row r kills entry
                        rt = [x * p + y * q2 for p, q2 in zip(m[t], m[r])]
                        rr = [-b * p + a * q2 for p, q2 in zip(m[t], m[r])]
                        m[t], m[r] = rt, rr
                        ut = [x * p + y * q2 for p, q2 in zip(u[t], u[r])]
                        ur = [-b * p + a * q2 for p, q2 in zip(u[t], u[r])]
                        u[t], u[r] = ut, ur
                        dirty = True
                    else:
                        row_op(r, t, q)
            for c in range(cols):
                if c != t and m[t][c]:
                    q, rem = divmod(m[t][c], m[t][t])
                    if rem:
                        g, x, y = xgcd(m[t][t], m[t][c])
                        a, b = m[t][t] // g, m[t][c] // g
                        for r in range(rows):
                            p, q2 = m[r][t], m[r][c]
                            m[r][t] = x * p + y * q2
                            m[r][c] = -b * p + a * q2
                        for r in range(cols):
                            p, q2 = v[r][t], v[r][c]
                            v[r][t] = x * p + y * q2
                            v[r][c] = -b * p + a * q2
                        dirty = True
                    else:
                        col_op(c, t, q)
            if not dirty and all(m[r][t] == 0 for r in range(rows) if r != t) \
                    and all(m[t][c] == 0 for c in range(cols) if c != t):
                break
        if m[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        diag = [m[i][i] for i in range(limit)]
        for i in range(limit - 1):
            a, b = diag[i], diag[i + 1]
            if a and b % a != 0:
                # fold column i+1 into column i and rediagonalize the 2x2 block
                col_op(i, i + 1, -1)
                g, x, y = xgcd(m[i][i], m[i + 1][i])
                aa, bb = m[i][i] // g, m[i + 1][i] // g
                ri = [x * p + y * q2 for p, q2 in zip(m[i], m[i + 1])]
                rr = [-bb * p + aa * q2 for p, q2 in zip(m[i], m[i + 1])]
                m[i], m[i + 1] = ri, rr
                ui = [x * p + y * q2 for p, q2 in zip(u[i], u[i + 1])]
                ur = [-bb * p + aa * q2 for p, q2 in zip(u[i], u[i + 1])]
                u[i], u[i + 1] = ui, ur
                # clear the off-diagonal remainder in row i
                q = m[i][i + 1] // m[i][i]
                col_op(i + 1, i, q)
                if m[i][i] < 0:
                    negate_row(i)
                if m[i + 1][i + 1] < 0:
                    negate_row(i + 1)
                changed = True
        if not changed:
            break
    return SNFResult(U=u, D=m, V=v)


# -- D against the oracle ----------------------------------------------------

def draw_seeded(rng, kind):
    """A seeded matrix of one of the shapes the Smith form must handle."""
    rows, cols = rng.randint(0, 7), rng.randint(1, 7)
    bound, zeros = 15, 0.4
    if kind == "dense":
        zeros = 0.0
    elif kind == "sparse":
        zeros = 0.8
    elif kind == "rectangular":
        rows, cols = rng.choice(((1, 7), (7, 1), (2, 6), (6, 2)))
    elif kind == "huge":
        bound = 10 ** 30
    m = [[0 if rng.random() < zeros else rng.randint(-bound, bound)
          for _ in range(cols)] for _ in range(rows)]
    if kind == "zero lines" and rows:
        m[rng.randrange(rows)] = [0] * cols
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    elif kind == "negative":
        m = [[-abs(x) for x in row] for row in m]
    return m


def check_transforms(matrix, res):
    """U M V = D with |det U| = |det V| = 1, D diagonal, its diagonal
    nonnegative and a divisibility chain."""
    rows, cols = len(matrix), len(matrix[0]) if matrix else 0
    assert integer_matmul(integer_matmul(res.U, matrix), res.V) == res.D
    if rows:
        assert abs(integer_determinant(res.U)) == 1
    assert abs(integer_determinant(res.V)) == 1
    assert all(res.D[i][j] == 0 for i in range(rows) for j in range(cols)
               if i != j)
    diag = res.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (b % a == 0) if a else b == 0


KINDS = ("dense", "sparse", "rectangular", "zero lines", "negative", "huge")


@pytest.mark.parametrize("kind", KINDS)
def test_diagonal_matches_oracle_on_seeded_matrices(kind):
    rng = random.Random(f"snf-{kind}")
    for _ in range(150):
        m = draw_seeded(rng, kind)
        res = smith_normal_form(m)
        want = oracle_smith_normal_form(m)
        assert res.D == want.D
        assert res.diagonal == want.diagonal
        check_transforms(m, res)


def test_remainders_change_only_the_transforms():
    # 4 does not divide 6: the oracle takes a Bezout step, the new form a
    # remainder, and only U and V tell them apart
    m = [[4, 6], [6, 9]]
    res, want = smith_normal_form(m), oracle_smith_normal_form(m)
    assert res.D == want.D == [[1, 0], [0, 0]]
    assert (res.U, res.V) != (want.U, want.V)
    check_transforms(m, res)


def test_errors_match_oracle():
    for bad in ([[1, 2], [3]], [[1.5]], [[True]]):
        with pytest.raises(ValidationError) as new:
            smith_normal_form(bad)
        with pytest.raises(ValidationError) as old:
            oracle_smith_normal_form(bad)
        assert str(new.value) == str(old.value)


if given is None:
    def test_oracle_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_diagonal_matches_oracle_on_hypothesis_draws(data):
        rows = data.draw(st.integers(0, 6))
        cols = data.draw(st.integers(1, 6))
        entries = st.one_of(st.integers(-20, 20),
                            st.integers(-10 ** 30, 10 ** 30))
        m = data.draw(st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            min_size=rows, max_size=rows))
        res = smith_normal_form(m)
        assert res.D == oracle_smith_normal_form(m).D
        check_transforms(m, res)


# -- the theorem-1 and non-unital paths keep the oracle's transforms ---------

# the non-unital catalog of ncbench's naturality workload
NONUNITAL_BLOCKS = ([1], [2], [3], [1, 1], [2, 3], [1, 2, 2], [1, 1, 1, 1])


def test_library_calls_keep_oracle_transforms(monkeypatch):
    seen = []
    library = snf.smith_normal_form

    def record(matrix):
        seen.append([list(row) for row in matrix])
        return library(matrix)

    monkeypatch.setattr(snf, "smith_normal_form", record)
    assert ktheory.verify_theorem1(MultiMatrixAlgebra([1, 2, 3]), m=1).ok
    for blocks in NONUNITAL_BLOCKS:
        ktheory.k_tilde_f_nonunital(MultiMatrixAlgebra(blocks))
    assert seen
    for m in seen:
        res, want = library(m), oracle_smith_normal_form(m)
        assert (res.U, res.D, res.V) == (want.U, want.D, want.V)


# -- sparse inputs the oracle does not finish --------------------------------

def sparse_rows(rows, cols, seed):
    """Seeded rows with 4 nonzero entries each, drawn from {1, -1, 2, 3}."""
    rng = random.Random(seed)
    m = [[0] * cols for _ in range(rows)]
    for row in m:
        for c in rng.sample(range(cols), 4):
            row[c] = rng.choice((1, -1, 2, 3))
    return m


@pytest.mark.parametrize("rows, cols", [(80, 107), (120, 160)])
def test_sparse_inputs_past_the_oracle(rows, cols):
    # the oracle's U on 80x107 has an entry past the interpreter's
    # 4,300-digit limit on int-to-text conversion after about 25 s
    m = sparse_rows(rows, cols, 1)
    check_transforms(m, smith_normal_form(m))


def test_invariant_factors_of_sparse_rows_finish():
    # well under 1 s by remainders; the oracle ran for more than 60 s
    m = sparse_rows(120, 160, 1)
    start = time.perf_counter()
    free, torsion = invariant_factors_of_rows(m, 160)
    assert time.perf_counter() - start < 10
    assert free >= 40 and all(d > 1 for d in torsion)
