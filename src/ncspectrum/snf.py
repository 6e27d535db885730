"""Integer matrix normal forms and lattice arithmetic.

IntegerRowLattice is a mutable sparse row-echelon basis of an integer
lattice, and every group operation runs on it (on the residual of a
group's reduced form, see abgroup): membership backs equality in
finitely presented abelian groups, coordinates expresses a vector over
the basis, and preimage_row_lattice echelonizes an augmented matrix to
find the kernel of a homomorphism.

smith_normal_form computes U, D, V with U*M*V = D, U and V unimodular,
D diagonal with a divisibility chain.  It backs the snf command, and
invariant_factors_of_rows reads invariant factors off its diagonal;
groups pass it their reduced residual, which is small because the
identifying relations are already substituted away (see abgroup).
It reduces by division with remainder alone: the pivot is the smallest
nonzero absolute value (ties row-major), and a remainder left in its
column, then in its row, becomes the next pivot, so output is
deterministic.  D is unique; U and V are those of the earlier form with
Bezout steps wherever no remainder occurs, and may differ where one
does.  Entries are Python ints, so growth is unbounded but exact.
"""

from __future__ import annotations

from .errors import Record, ValidationError, as_int


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


def integer_matmul(a, b):
    """The product of two integer matrices given as sequences of rows."""
    cols = len(b[0]) if b else 0
    out = []
    for ai in a:
        oi = [0] * cols
        for f, bk in zip(ai, b):
            if f:
                for j, x in enumerate(bk):
                    if x:
                        oi[j] += f * x
        out.append(oi)
    return out


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


class SNFResult(Record):
    """U*M*V = D with U, V unimodular and D = diag(d1 | d2 | ...)."""

    __slots__ = ("U", "D", "V")

    def __init__(self, U: list, D: list, V: list):
        self.U, self.D, self.V = U, D, V

    @property
    def diagonal(self):
        rows = len(self.D)
        cols = len(self.D[0]) if rows else 0
        return [self.D[i][i] for i in range(min(rows, cols))]


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
    """Smith normal form with transform tracking, by division with
    remainder (Cohen, GTM 138, section 2.4).

    Step t swaps the smallest nonzero entry left (ties row-major) to
    (t, t), then reduces column t below it by floor quotients, and only
    once that column is clear reduces row t the same way.  A remainder
    left by either becomes the pivot (the smallest, ties row-major) and
    the step repeats.  When both are clear and a later row holds an
    entry the pivot does not divide, that row is added to row t and the
    step repeats.  Each repeat strictly lowers |pivot|, so the loop
    ends; each pivot divides every later entry, so the diagonal is a
    divisibility chain with no further pass.
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
            for a in (m, u):
                row = a[dst]
                for c, x in enumerate(a[src]):
                    if x:
                        row[c] -= f * x

    def col_op(dst, src, f):
        # col dst -= f * col src, applied to m and v
        if f:
            for a in (m, v):
                for r in a:
                    if r[src]:
                        r[dst] -= f * r[src]

    def swap_rows(i, j):
        if i != j:
            m[i], m[j] = m[j], m[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for a in (m, v):
                for r in a:
                    r[i], r[j] = r[j], r[i]

    for t in range(min(rows, cols)):
        found = _find_pivot(m, t, rows, cols)
        if found is None:
            break
        _, pi, pj = found
        swap_rows(t, pi)
        swap_cols(t, pj)
        while True:
            p = m[t][t]
            for r in range(t + 1, rows):
                row_op(r, t, m[r][t] // p)
            left = [(abs(m[r][t]), r) for r in range(t + 1, rows) if m[r][t]]
            if left:
                swap_rows(t, min(left)[1])
                continue
            for c in range(t + 1, cols):
                col_op(c, t, m[t][c] // p)
            left = [(abs(m[t][c]), c) for c in range(t + 1, cols) if m[t][c]]
            if left:
                swap_cols(t, min(left)[1])
                continue
            if abs(p) != 1:
                bad = next((r for r in range(t + 1, rows)
                            if any(x % p for x in m[r])), None)
                if bad is not None:
                    row_op(t, bad, -1)
                    continue
            break
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
    return SNFResult(U=u, D=m, V=v)


class IntegerRowLattice:
    """Row-echelon basis over Z of the lattice spanned by inserted rows.

    Rows are sparse dicts column -> coefficient; each basis row is keyed
    by its leading column and has a positive leading entry.  Membership
    testing reduces a vector against the basis and checks for zero.
    """

    __slots__ = ("ambient", "pivots", "_order")

    def __init__(self, ambient: int):
        self.ambient = ambient
        self.pivots = {}
        self._order = {}

    @staticmethod
    def _to_sparse(vec):
        out = {}
        for j, c in vec.items() if isinstance(vec, dict) else enumerate(vec):
            if type(c) is not int:
                c = as_int(c, "vector entry")
            if c:
                out[j] = c
        return out

    def _reduce(self, v, quotients=None):
        """Subtract basis rows from the sparse vector v, in place, while
        the basis row at v's leading column divides v's leading entry.

        Returns the leading column where reduction stops, or None once
        v is zero; quotients, when given, records each leading column's
        multiple.
        """
        pivots = self.pivots
        while v:
            j = min(v)
            row = pivots.get(j)
            if row is None:
                return j
            q, rem = divmod(v[j], row[j])
            if rem:
                return j
            if quotients is not None:
                quotients[j] = q
            for c, x in row.items():
                nv = v.get(c, 0) - q * x
                if nv:
                    v[c] = nv
                else:
                    v.pop(c, None)
        return None

    def insert(self, vec):
        """Add a vector to the lattice."""
        v = self._to_sparse(vec)
        while (j := self._reduce(v)) is not None:
            if j >= self.ambient:
                raise ValidationError("vector exceeds ambient dimension")
            row = self.pivots.get(j)
            if row is None:
                if v[j] < 0:
                    v = {c: -x for c, x in v.items()}
                self.pivots[j] = v
                return
            # the pivot does not divide v's leading entry: the pivot row
            # becomes the gcd combination, v the combination that kills
            # the leading entry
            a, b = row[j], v[j]
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
        return self._reduce(self._to_sparse(vec)) is None

    def coordinates(self, vec):
        """Coefficients expressing a vector over the basis rows (ordered
        by leading column), or None when the vector is outside the
        lattice.  Exact: basis rows are echelon, so this is forward
        substitution."""
        quotients = {}
        if self._reduce(self._to_sparse(vec), quotients) is not None:
            return None
        # pivot columns are only ever added, so the kept order is current
        # while it has one entry per pivot
        if len(self._order) != len(self.pivots):
            self._order = {j: k for k, j in enumerate(sorted(self.pivots))}
        return {self._order[j]: q for j, q in quotients.items()}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def basis_sparse(self):
        return [dict(self.pivots[j]) for j in sorted(self.pivots)]


def invariant_factors_of_rows(rows, ngens: int):
    """(free_rank, torsion divisors > 1) of Z^ngens modulo the row lattice:
    the nonzero diagonal of the Smith form of the nonzero rows, densified
    over the columns they use.  Rows are dense of length ngens, or sparse
    dicts that together name at most ngens distinct column ids >= 0."""
    sparse = []
    for row in rows:
        if not isinstance(row, dict) and len(row) != ngens:
            raise ValidationError(f"row of length {len(row)}, not {ngens}")
        if sp := IntegerRowLattice._to_sparse(row):
            sparse.append(sp)
    cols = sorted({c for sp in sparse for c in sp})
    if len(cols) > ngens or (cols and cols[0] < 0):
        raise ValidationError(f"rows name {len(cols)} columns, smallest "
                              f"{cols[0]}, in a group on {ngens} generators")
    colpos = {c: i for i, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in sparse]
    for row, sp in zip(dense, sparse):
        for c, x in sp.items():
            row[colpos[c]] = x
    diagonal = [d for d in smith_normal_form(dense).diagonal if d]
    return ngens - len(diagonal), [d for d in diagonal if d > 1]


def preimage_row_lattice(a_rows, r_rows, ncols: int) -> IntegerRowLattice:
    """Echelon basis of {x : x A lies in rowlattice(R)}.

    The rows of A and R are sparse dicts or dense rows over ncols
    columns.  Echelonize the rows (r_j | 0) and (a_i | e_i) of the
    augmented matrix in ncols + len(a_rows) columns: x A - y R = 0 for
    some y exactly when (0 | x) lies in their lattice, and the basis
    rows led by a column >= ncols span that part, so shifted down by
    ncols they are the answer (Cohen, GTM 138, section 2.4).
    """
    s = len(a_rows)
    work = IntegerRowLattice(ncols + s)
    rows = [(None, r) for r in r_rows] + list(enumerate(a_rows, ncols))
    for tag, row in rows:
        v = IntegerRowLattice._to_sparse(row)
        if (not isinstance(row, dict) and len(row) != ncols) or \
                any(not 0 <= c < ncols for c in v):
            raise ValidationError(
                "row length mismatch in preimage computation")
        if tag is not None:
            v[tag] = 1
        work.insert(v)
    lattice = IntegerRowLattice(s)
    for j in sorted(work.pivots):
        if j >= ncols:
            lattice.pivots[j - ncols] = {
                c - ncols: x for c, x in work.pivots[j].items()}
    return lattice
