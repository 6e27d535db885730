"""Integer matrix normal forms and lattice arithmetic.

smith_normal_form computes U, D, V with U*M*V = D, U and V unimodular,
D diagonal with a divisibility chain.  Pivots are chosen by smallest
nonzero absolute value with row-major tie-breaking, so output is
deterministic.  Entries are Python ints, so growth is unbounded but
exact.

IntegerRowLattice is a mutable row-echelon basis of an integer lattice
supporting fast membership tests; it backs equality in finitely
presented abelian groups, where relation matrices can be large and
sparse.  invariant_factors_of_rows computes Smith invariant factors
without tracking transforms, using sparse elimination with a
fill-reducing pivot rule so that the big colimit presentations stay
cheap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError


def xgcd(a: int, b: int):
    """(g, x, y) with x*a + y*b = g = gcd(a, b), g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _matmul(a, b):
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for k in range(inner):
            f = ai[k]
            if f:
                bk = b[k]
                for j in range(cols):
                    if bk[j]:
                        oi[j] += f * bk[j]
    return out


def integer_matmul(a, b):
    return _matmul([list(r) for r in a], [list(r) for r in b])


def integer_determinant(m) -> int:
    """Exact determinant via fraction-free (Bareiss) elimination: every
    division is exact, so the work stays in integers."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValidationError("determinant of a non-square matrix")
    work = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not work[k][k]:
            pivot = next((r for r in range(k + 1, n) if work[r][k]), None)
            if pivot is None:
                return 0
            work[k], work[pivot] = work[pivot], work[k]
            sign = -sign
        pk = work[k]
        for r in range(k + 1, n):
            row = work[r]
            for c in range(k + 1, n):
                row[c] = (row[c] * pk[k] - row[k] * pk[c]) // prev
        prev = pk[k]
    return sign * work[n - 1][n - 1] if n else 1


@dataclass
class SNFResult:
    """U*M*V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    U: list
    D: list
    V: list

    @property
    def diagonal(self):
        rows = len(self.D)
        cols = len(self.D[0]) if rows else 0
        return [self.D[i][i] for i in range(min(rows, cols))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d)


def _find_pivot(m, start, rows, cols):
    best = None
    for i in range(start, rows):
        for j in range(start, cols):
            v = m[i][j]
            if v:
                a = abs(v)
                if best is None or a < best[0]:
                    best = (a, i, j)
                    if a == 1:
                        return best
    return best


def smith_normal_form(matrix) -> SNFResult:
    """Smith normal form with transform tracking.

    Pivot selection: smallest nonzero absolute value, ties broken in
    row-major order.
    """
    m = [[int(x) for x in row] for row in matrix]
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


def solve_integer(matrix, rhs):
    """An integer solution x of M x = b, or None.

    Via the Smith form: with U M V = D, solve D w = U b and set x = V w.
    """
    res = smith_normal_form(matrix)
    rows = len(res.D)
    cols = len(res.D[0]) if rows else 0
    if len(rhs) != rows:
        raise ValidationError("rhs length does not match the matrix")
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


class IntegerRowLattice:
    """Row-echelon basis over Z of the lattice spanned by inserted rows.

    Rows are sparse dicts column -> coefficient; each basis row is keyed
    by its leading column and has a positive leading entry.  Membership
    testing reduces a vector against the basis and checks for zero.
    """

    __slots__ = ("ambient", "pivots")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.pivots = {}

    @staticmethod
    def _to_sparse(vec):
        if isinstance(vec, dict):
            return {j: int(c) for j, c in vec.items() if c}
        return {j: int(c) for j, c in enumerate(vec) if c}

    def insert(self, vec):
        """Add a vector to the lattice."""
        v = self._to_sparse(vec)
        while v:
            j = min(v)
            if j >= self.ambient:
                raise ValidationError("vector exceeds ambient dimension")
            row = self.pivots.get(j)
            if row is None:
                if v[j] < 0:
                    v = {c: -x for c, x in v.items()}
                self.pivots[j] = v
                return
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for c, x in row.items():
                    nv = v.get(c, 0) - q * x
                    if nv:
                        v[c] = nv
                    else:
                        v.pop(c, None)
            else:
                g, x, y = xgcd(a, b)
                new_row = {}
                for c in set(row) | set(v):
                    val = x * row.get(c, 0) + y * v.get(c, 0)
                    if val:
                        new_row[c] = val
                new_v = {}
                fa, fb = a // g, b // g
                for c in set(row) | set(v):
                    val = -fb * row.get(c, 0) + fa * v.get(c, 0)
                    if val:
                        new_v[c] = val
                self.pivots[j] = new_row
                v = new_v

    def contains(self, vec) -> bool:
        v = self._to_sparse(vec)
        while v:
            j = min(v)
            row = self.pivots.get(j)
            if row is None:
                return False
            q, rem = divmod(v[j], row[j])
            if rem:
                return False
            for c, x in row.items():
                nv = v.get(c, 0) - q * x
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return True

    def coordinates(self, vec):
        """Coefficients expressing a vector over the basis rows (ordered
        by leading column), or None when the vector is outside the
        lattice.  Exact: basis rows are echelon, so this is forward
        substitution."""
        v = self._to_sparse(vec)
        order = {j: k for k, j in enumerate(sorted(self.pivots))}
        coeffs = {}
        while v:
            j = min(v)
            row = self.pivots.get(j)
            if row is None:
                return None
            q, rem = divmod(v[j], row[j])
            if rem:
                return None
            if q:
                coeffs[order[j]] = q
            for c, x in row.items():
                nv = v.get(c, 0) - q * x
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return coeffs

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis_rows(self):
        """Dense basis rows, sorted by leading column."""
        out = []
        for j in sorted(self.pivots):
            row = [0] * self.ambient
            for c, x in self.pivots[j].items():
                row[c] = x
            out.append(row)
        return out

    def basis_sparse(self):
        return [dict(self.pivots[j]) for j in sorted(self.pivots)]


def invariant_factors_of_rows(rows, ngens: int):
    """(free_rank, torsion divisors > 1) of Z^ngens modulo the row lattice.

    Sparse elimination: unit pivots are peeled off first with a
    fill-reducing (Markowitz-style) choice, deterministically; whatever
    remains is finished densely.
    """
    live = {}
    col_index = {}
    for rid, row in enumerate(rows):
        sp = IntegerRowLattice._to_sparse(row)
        if sp:
            live[rid] = sp
            for c in sp:
                col_index.setdefault(c, set()).add(rid)

    ones = 0
    while live:
        best = None
        for rid, row in live.items():
            rlen = len(row)
            for c, val in row.items():
                if val == 1 or val == -1:
                    score = (rlen - 1) * (len(col_index[c]) - 1)
                    key = (score, rid, c)
                    if best is None or key < best:
                        best = key
        if best is None:
            break
        _, prid, pc = best
        prow = live[prid]
        pval = prow[pc]
        for rid in list(col_index[pc]):
            if rid == prid or rid not in live:
                continue
            row = live[rid]
            f = row[pc] * pval  # pval in {1,-1}: exact elimination factor
            for c, x in prow.items():
                nv = row.get(c, 0) - f * x
                if nv:
                    if c not in row:
                        col_index.setdefault(c, set()).add(rid)
                    row[c] = nv
                else:
                    if c in row:
                        row.pop(c)
                        col_index[c].discard(rid)
            if not row:
                del live[rid]
        # pivot row leaves; its other entries die under column ops that
        # touch no other row (the pivot column is now zero elsewhere)
        for c in prow:
            col_index[c].discard(prid)
        del live[prid]
        ones += 1

    if live:
        cols = sorted({c for row in live.values() for c in row})
        colpos = {c: i for i, c in enumerate(cols)}
        dense = []
        for rid in sorted(live):
            row = [0] * len(cols)
            for c, x in live[rid].items():
                row[colpos[c]] = x
            dense.append(row)
        residual = [d for d in smith_normal_form(dense).diagonal if d]
    else:
        residual = []

    rank = ones + len(residual)
    torsion = [d for d in residual if d > 1]
    return ngens - rank, torsion


def left_null_basis(matrix):
    """Basis rows of {z : z M = 0} over Z, via the Smith form of M."""
    res = smith_normal_form(matrix)
    rank = res.rank
    return [list(res.U[i]) for i in range(rank, len(res.U))]


def preimage_row_lattice(a_rows, r_rows, ncols: int) -> IntegerRowLattice:
    """Echelon basis of {x : x A lies in rowlattice(R)}.

    A has len(a_rows) rows of length ncols; R similarly.  Stack A over R,
    take the left null lattice, and project onto the A-coordinates.
    """
    s = len(a_rows)
    lattice = IntegerRowLattice(s)
    stacked = [list(r) for r in a_rows] + [list(r) for r in r_rows]
    if s == 0 or not stacked:
        return lattice
    if any(len(r) != ncols for r in stacked):
        raise ValidationError("row length mismatch in preimage computation")
    for z in left_null_basis(stacked):
        x = {j: c for j, c in enumerate(z[:s]) if c}
        if x:
            lattice.insert(x)
    return lattice
