"""Exact Gaussian-rational scalars and matrices.

Scalars live in Q(i): complex numbers whose real and imaginary parts are
arbitrary-precision rationals.  Every projection, permutation unitary and
Pythagorean rotation used elsewhere in the package is exactly
representable here, so equality checks are genuine algebraic identities
rather than floating-point comparisons.

A scalar is held as an integer triple (n + m*i)/d with d > 0 and
gcd(n, m, d) = 1, so each arithmetic step is a few integer products and
one gcd, and structural equality of triples is exact equality.

A matrix is held as its rows of nonzero entries, so a product costs the
entries it touches: a Givens rotation of an n-coordinate block has
n + 2 of them, not n^2.  The unitarity check pairs only the rows of the
support (the indices whose row or column holds an off-diagonal entry)
and checks each other row for one unimodular diagonal entry, building
no adjoint or product.  Dense input is accepted and validated.  The
hash, JSON, repr and the dense entries tuple are those of the dense
row-major form.

All values are immutable after construction and all operations are pure,
so they can be shared freely between threads.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

from .errors import ValidationError

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf
_new = object.__new__


def _rational(x):
    """(numerator, denominator > 0) in lowest terms of a non-bool int, a
    Fraction or a rational string with no exponent."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, str):
        if "e" in x or "E" in x:  # "1e30000000": 11 bytes, 30M digits
            raise ValidationError(f"cannot interpret {x!r} as an exact "
                                  f"rational: exponents are not accepted")
        try:
            f = Fraction(x)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return f.numerator, f.denominator
    raise ValidationError(f"cannot interpret {x!r} as an exact rational")


def _part_hash(num: int, den: int, dinv) -> int:
    """hash(Fraction(num, den)); dinv is den's inverse modulo the hash
    modulus, or None when the modulus divides den."""
    if dinv is None:
        g = gcd(num, den)
        num, den = num // g, den // g
        if den % _HASH_MODULUS:
            dinv = pow(den, -1, _HASH_MODULUS)
    # the numeric hash of a rational, as Fraction.__hash__ computes it
    h = _HASH_INF if dinv is None else hash(hash(abs(num)) * dinv)
    h = h if num >= 0 else -h
    return -2 if h == -1 else h


def _make(n: int, m: int, d: int) -> "GaussianRational":
    """The scalar (n + m*i)/d of a triple already in lowest terms."""
    z = _new(GaussianRational)
    z.n, z.m, z.d = n, m, d
    return z


def _reduced(n: int, m: int, d: int) -> "GaussianRational":
    """The scalar (n + m*i)/d for any d > 0, brought to lowest terms."""
    g = gcd(n, m, d)
    if g != 1:
        n, m, d = n // g, m // g, d // g
    return _make(n, m, d)


class GaussianRational:
    """A complex number (n + m*i)/d with integers n, m and d.

    The triple is in lowest terms (d > 0, gcd(n, m, d) = 1), so
    structural equality is exact equality; re and im are the parts as
    Fractions, and the hash is that of the pair (re, im), kept once
    computed: a few constants, such as the entries of a Pythagorean
    rotation, are hashed over and over.
    """

    __slots__ = ("n", "m", "d", "_hash")

    def __init__(self, re=0, im=0):
        a, b = _rational(re)
        c, e = _rational(im)
        if b == e:
            # both parts in lowest terms over b: gcd(a, c, b) = 1
            self.n, self.m, self.d = a, c, b
        else:
            # over the least common denominator the triple is reduced
            d = b // gcd(b, e) * e
            self.n, self.m, self.d = a * (d // b), c * (d // e), d

    @classmethod
    def coerce(cls, x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, tuple) and len(x) == 2:
            return cls(x[0], x[1])
        return cls(x)

    @property
    def re(self) -> Fraction:
        return Fraction(self.n, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.m, self.d)

    def __add__(self, other):
        d = self.d
        if d == other.d:
            return _reduced(self.n + other.n, self.m + other.m, d)
        e = other.d
        return _reduced(self.n * e + other.n * d, self.m * e + other.m * d,
                        d * e)

    def __sub__(self, other):
        d = self.d
        if d == other.d:
            return _reduced(self.n - other.n, self.m - other.m, d)
        e = other.d
        return _reduced(self.n * e - other.n * d, self.m * e - other.m * d,
                        d * e)

    def __neg__(self):
        return _make(-self.n, -self.m, self.d)

    def __mul__(self, other):
        if self is GR_ONE:
            return other
        a, b, c, e = self.n, self.m, other.n, other.m
        return _reduced(a * c - b * e, a * e + b * c, self.d * other.d)

    def __truediv__(self, other):
        c, e = other.n, other.m
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d |c + e i|^2)
        a, b, f = self.n, self.m, other.d
        return _reduced(f * (a * c + b * e), f * (b * c - a * e),
                        self.d * norm)

    def conjugate(self) -> "GaussianRational":
        return _make(self.n, -self.m, self.d) if self.m else self

    def is_zero(self) -> bool:
        return not self.n and not self.m

    def __bool__(self):
        return bool(self.n or self.m)

    def __eq__(self, other):
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (self.n == other.n and self.m == other.m
                and self.d == other.d)

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            pass
        d = self.d
        if d == 1:
            h = hash((self.n, self.m))
        else:
            dinv = pow(d, -1, _HASH_MODULUS) if d % _HASH_MODULUS else None
            h = hash((_part_hash(self.n, d, dinv),
                      _part_hash(self.m, d, dinv)))
        self._hash = h
        return h

    def __repr__(self):
        if not self.m:
            return str(self.re)
        if not self.n:
            return f"{self.im}i"
        sign = "+" if self.m > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_pair(self) -> list:
        """Serialize as a ["re", "im"] pair of rational strings."""
        return [str(self.re), str(self.im)]

    @classmethod
    def from_json(cls, data) -> "GaussianRational":
        """Parse 3, "3/5" or ["3/5", "-4/5"]: a part is a non-bool int or
        a rational string."""
        if isinstance(data, (list, tuple)) and len(data) == 2:
            return cls(*data)
        return cls(data)


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)


class MatrixClass:
    """Result of classifying a square matrix; reports both flags."""

    __slots__ = ("projection", "unitary")

    def __init__(self, projection: bool, unitary: bool):
        self.projection = projection
        self.unitary = unitary

    @property
    def label(self) -> str:
        if self.projection:
            return "projection"
        if self.unitary:
            return "unitary"
        return "neither"

    def __repr__(self):
        return f"MatrixClass(projection={self.projection}, unitary={self.unitary})"

    def __eq__(self, other):
        if not isinstance(other, MatrixClass):
            return NotImplemented
        return self.projection == other.projection and self.unitary == other.unitary


class ExactMatrix:
    """An immutable matrix with GaussianRational entries, held as one
    {column: entry} dict of nonzero entries per row (sparse).

    Zeros are never stored, so equal stored rows mean equal matrices;
    stored rows are shared between matrices and never mutated.
    """

    __slots__ = ("rows", "cols", "sparse", "_entries", "_hash")

    def __init__(self, rows: int, cols: int, entries):
        entries = tuple(GaussianRational.coerce(e) for e in entries)
        if len(entries) != rows * cols:
            raise ValidationError(f"entry count {len(entries)} != {rows}x{cols}")
        self.rows, self.cols = rows, cols
        self.sparse = tuple(
            {j: e for j, e in enumerate(entries[i * cols:(i + 1) * cols]) if e}
            for i in range(rows))
        self._entries = entries
        self._hash = None

    @classmethod
    def _from_sparse(cls, rows: int, cols: int, sparse) -> "ExactMatrix":
        """The matrix of row dicts {column < cols: nonzero entry}, as is."""
        m = _new(cls)
        m.rows, m.cols, m.sparse = rows, cols, tuple(sparse)
        m._entries = m._hash = None
        return m

    @classmethod
    def from_rows(cls, rows) -> "ExactMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValidationError("ragged rows")
        return cls(nrows, ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls._from_sparse(n, n, ({i: GR_ONE} for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls._from_sparse(rows, cols, ({} for _ in range(rows)))

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        values = [GaussianRational.coerce(v) for v in values]
        return cls._from_sparse(len(values), len(values), (
            {i: v} if v else {} for i, v in enumerate(values)))

    def _dense(self, zero) -> tuple:
        """The row-major tuple of entries with zero at the unstored ones."""
        cols = self.cols
        dense = [zero] * (self.rows * cols)
        for i, row in enumerate(self.sparse):
            for j, e in row.items():
                dense[i * cols + j] = e
        return tuple(dense)

    @property
    def entries(self) -> tuple:
        """The dense row-major tuple of entries, built on first read."""
        if self._entries is None:
            self._entries = self._dense(GR_ZERO)
        return self._entries

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.sparse[i].get(j, GR_ZERO)

    def row_list(self, i: int):
        row = self.sparse[i]
        return [row.get(j, GR_ZERO) for j in range(self.cols)]

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValidationError(
                f"shape mismatch: {self.rows}x{self.cols} vs "
                f"{other.rows}x{other.cols}"
            )
        out = []
        for a, b in zip(self.sparse, other.sparse):
            row = dict(a)
            for j, y in b.items():
                v = row[j] + y if j in row else y
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row)
        return ExactMatrix._from_sparse(self.rows, self.cols, out)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + -other

    def __neg__(self):
        return ExactMatrix._from_sparse(self.rows, self.cols, (
            {j: -e for j, e in row.items()} for row in self.sparse))

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product, summing over the stored entries of both
        factors only."""
        if self.cols != other.rows:
            raise ValidationError(
                f"shape mismatch in mul: {self.rows}x{self.cols} times "
                f"{other.rows}x{other.cols}"
            )
        right = other.sparse
        out = []
        for row in self.sparse:
            acc = {}
            terms = 0
            for k, a in row.items():
                for j, b in right[k].items():
                    terms += 1
                    acc[j] = acc[j] + a * b if j in acc else a * b
            # a product of nonzeros is nonzero: only a sum can cancel
            out.append(acc if terms == len(acc) else
                       {j: v for j, v in acc.items() if v})
        return ExactMatrix._from_sparse(self.rows, other.cols, out)

    def scale(self, c) -> "ExactMatrix":
        c = GaussianRational.coerce(c)
        return ExactMatrix._from_sparse(self.rows, self.cols, (
            {j: c * e for j, e in row.items()} if c else {}
            for row in self.sparse))

    def adjoint(self) -> "ExactMatrix":
        """Conjugate transpose."""
        out = [{} for _ in range(self.cols)]
        for i, row in enumerate(self.sparse):
            for j, e in row.items():
                out[j][i] = e.conjugate()
        return ExactMatrix._from_sparse(self.cols, self.rows, out)

    def rank(self) -> int:
        """Rank over Q(i): the rows reduced to an echelon basis keyed by
        leading column, by exact Gaussian elimination."""
        pivots = {}
        for row in self.sparse:
            v = dict(row)
            while v:
                j = min(v)
                p = pivots.get(j)
                if p is None:
                    pivots[j] = v
                    break
                ratio = v[j] / p[j]
                for c, x in p.items():
                    nv = v.get(c, GR_ZERO) - ratio * x
                    if nv:
                        v[c] = nv
                    else:
                        v.pop(c, None)
        return len(pivots)

    def is_zero(self) -> bool:
        return not any(self.sparse)

    def is_unitary(self) -> bool:
        """m m* = I, read off the support S: the indices whose row or
        column holds an off-diagonal entry.  A row outside S must hold
        one diagonal entry of modulus 1; the rows in S meet only columns
        in S, and their Gram matrix must be the identity."""
        if self.rows != self.cols:
            raise ValidationError("a unitary must be square")
        sparse = self.sparse
        support = set()
        for i, row in enumerate(sparse):
            x = row.get(i)
            if x is None or len(row) != 1:
                support.update(row)
                support.add(i)
            elif x.n * x.n + x.m * x.m != x.d * x.d:
                return False
        # each pair of rows of S that meet in a column is paired once,
        # when the later of the two is reached
        holders = {}
        for i in support:
            row = sparse[i]
            for j, e in row.items():
                holders.setdefault(j, []).append((i, e.conjugate()))
            gram = {}
            for j, a in row.items():
                for k, b in holders[j]:
                    t = a * b
                    gram[k] = gram[k] + t if k in gram else t
            if gram.pop(i, None) != GR_ONE or any(gram.values()):
                return False
        return True

    def classify(self) -> MatrixClass:
        """projection iff m = m* = m^2; unitary iff m m* = I."""
        if self.rows != self.cols:
            raise ValidationError("classify requires a square matrix")
        projection = (self == self.adjoint()) and (self * self == self)
        return MatrixClass(projection, self.is_unitary())

    def diagonal_01_pattern(self):
        """If the matrix is diagonal with 0/1 entries, the tuple of its
        diagonal bits; otherwise None."""
        if self.rows != self.cols:
            return None
        bits = []
        for i, row in enumerate(self.sparse):
            if row and (len(row) != 1 or row.get(i) != GR_ONE):
                return None
            bits.append(1 if row else 0)
        return tuple(bits)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.sparse == other.sparse)

    def __hash__(self):
        # the hash of (rows, cols, entries): a zero enters as the pair
        # (0, 0), which hashes as GR_ZERO does, without a call per zero
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self._dense((0, 0))))
        return self._hash

    def __repr__(self):
        body = "; ".join(
            ", ".join(repr(e) for e in self.row_list(i))
            for i in range(self.rows)
        )
        return f"ExactMatrix[{body}]"

    def to_json(self):
        """Rows of ["re", "im"] string pairs; round-trips exactly."""
        return [[e.to_pair() for e in self.row_list(i)]
                for i in range(self.rows)]

    @classmethod
    def from_json(cls, data) -> "ExactMatrix":
        if not isinstance(data, list) or not data \
                or not all(isinstance(row, list) for row in data):
            raise ValidationError("matrix JSON must be a non-empty list of rows")
        rows = [[GaussianRational.from_json(e) for e in row] for row in data]
        return cls.from_rows(rows)
