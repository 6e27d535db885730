"""Finite-dimensional C*-algebras as direct sums of matrix blocks.

A MultiMatrixAlgebra is just a list of block sizes; its elements carry
one exact matrix per block.  Unital *-homomorphisms are described by a
Bratteli multiplicity matrix together with an explicit coordinate
assignment, so that applying a homomorphism is deterministic.

Block matrices are sparse (see exact), and every function here writes
their nonzero entries directly.  Two kinds of value have more structure
still, and are held in it:

- a diagonal 0/1 projection, such as every atom of a diagonal partition
  subalgebra, is held as its set of global diagonal coordinates (mask
  form, see diagonal_projection); its block matrices are built only
  when they are read.  A mask is read (to compare, hash, rank, order
  or conjugate), not computed with: only the sum of two disjoint masks
  stays in mask form, and any other sum, difference or product goes
  through the block matrices;
- a rotation that permutes the diagonal coordinates, such as a
  transposition, a cycle or the image of one under a unital hom, is
  held as that coordinate permutation (InnerAutomorphism.permutation),
  and conjugates a diagonal projection by permuting its coordinate set;
- a Pythagorean rotation or its image under a unital hom is held as
  its coordinate planes (InnerAutomorphism.plane), and conjugates a
  diagonal projection by writing a fixed 2x2 block in each plane that
  the projection splits.

Any other rotation, such as a unitary given in a spec, is held by its
unitary u.  Off its support (the coordinates it mixes) u is a
unimodular diagonal, so it leaves alone every diagonal projection that
contains all of its support or none of it, and conjugates the rest
from the support's rows of u* alone.  Both forms of an element compare
and hash alike; an element that is not a diagonal projection hashes by
its nonempty rows.  Everything is immutable and pure.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

from .errors import ValidationError, as_int, is_int
from .exact import ExactMatrix, GaussianRational, GR_ONE

_UNSET = object()  # diag_mask not yet computed


def _block_parts(algebra, ones, rows):
    """One sparse matrix per block: global row r is rows[r], a dict over
    global columns of r's block, when r is in rows; else the unit row of
    r when r is in ones; else zero."""
    parts = []
    offset = 0
    for n in algebra.blocks:
        parts.append(ExactMatrix._from_sparse(n, n, (
            {c - offset: e for c, e in rows[r].items()} if r in rows else
            {r - offset: GR_ONE} if r in ones else {}
            for r in range(offset, offset + n))))
        offset += n
    return tuple(parts)


class MultiMatrixAlgebra:
    """The algebra M_{n1} + ... + M_{nk} over Gaussian rationals."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(as_int(b, "block size") for b in blocks)
        if not blocks or any(b < 1 for b in blocks):
            raise ValidationError(f"invalid block sizes {blocks!r}")
        self.blocks = blocks

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def dimension(self) -> int:
        """Linear dimension, sum of squares of block sizes."""
        return sum(n * n for n in self.blocks)

    @property
    def coord_count(self) -> int:
        """Total number of diagonal coordinates, sum of block sizes."""
        return sum(self.blocks)

    def block_offset(self, i: int) -> int:
        """Global index of the first diagonal coordinate of block i."""
        return sum(self.blocks[:i])

    def element(self, parts) -> "AlgebraElement":
        return AlgebraElement(self, parts)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement._from_mask(self, frozenset())

    def one(self) -> "AlgebraElement":
        return AlgebraElement._from_mask(self, frozenset(range(self.coord_count)))

    def __eq__(self, other):
        if not isinstance(other, MultiMatrixAlgebra):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"MultiMatrixAlgebra({list(self.blocks)})"

    def __str__(self):
        return " + ".join(f"M{n}" for n in self.blocks)


class AlgebraElement:
    """An element of a multi-matrix algebra, one exact matrix per block.

    A diagonal 0/1 projection may instead be held in mask form, as its
    set of global coordinates; its parts are then built on first read.
    Equality and hashing agree across the two forms.
    """

    __slots__ = ("algebra", "_parts", "_hash", "_mask")

    def __init__(self, algebra: MultiMatrixAlgebra, parts):
        parts = tuple(parts)
        if len(parts) != algebra.nblocks:
            raise ValidationError("one matrix per block required")
        for n, p in zip(algebra.blocks, parts):
            if p.rows != n or p.cols != n:
                raise ValidationError(
                    f"block of shape {p.rows}x{p.cols} does not fit size {n}"
                )
        self.algebra = algebra
        self._parts = parts
        self._hash = None
        self._mask = _UNSET

    @classmethod
    def _from_mask(cls, algebra: MultiMatrixAlgebra, mask: frozenset):
        """Mask form of the diagonal projection on mask, a frozenset of
        global coordinates of algebra."""
        self = object.__new__(cls)
        self.algebra = algebra
        self._parts = None
        self._hash = None
        self._mask = mask
        return self

    @property
    def parts(self):
        """One exact matrix per block; built on first read in mask form."""
        if self._parts is None:
            self._parts = _block_parts(self.algebra, self._mask, {})
        return self._parts

    def _known_mask(self):
        """The coordinate set when this is known, without a scan, to be a
        diagonal 0/1 projection; else None."""
        return None if self._mask is _UNSET else self._mask

    def _require_same_parent(self, other: "AlgebraElement"):
        if self.algebra != other.algebra:
            raise ValidationError("elements live in different algebras")

    def __add__(self, other):
        self._require_same_parent(other)
        ma, mb = self._known_mask(), other._known_mask()
        if ma is not None and mb is not None and ma.isdisjoint(mb):
            return AlgebraElement._from_mask(self.algebra, ma | mb)
        return AlgebraElement(self.algebra,
                              [a + b for a, b in zip(self.parts, other.parts)])

    def __sub__(self, other):
        self._require_same_parent(other)
        return AlgebraElement(self.algebra,
                              [a - b for a, b in zip(self.parts, other.parts)])

    def __mul__(self, other):
        self._require_same_parent(other)
        return AlgebraElement(self.algebra,
                              [a * b for a, b in zip(self.parts, other.parts)])

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.parts])

    def adjoint(self) -> "AlgebraElement":
        if self._known_mask() is not None:
            return self
        return AlgebraElement(self.algebra, [a.adjoint() for a in self.parts])

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.algebra, [a.scale(c) for a in self.parts])

    def is_zero(self) -> bool:
        mask = self._known_mask()
        if mask is not None:
            return not mask
        return all(p.is_zero() for p in self.parts)

    def is_projection(self) -> bool:
        if self._known_mask() is not None:
            return True
        return all(p.classify().projection for p in self.parts)

    def is_unitary(self) -> bool:
        mask = self._known_mask()
        if mask is not None:
            return len(mask) == self.algebra.coord_count
        return all(p.is_unitary() for p in self.parts)

    def rank_vector(self):
        """Per-block ranks; classifies projections up to unitary equivalence."""
        mask = self.diag_mask
        if mask is None:
            return tuple(p.rank() for p in self.parts)
        # count each coordinate into the block whose end first exceeds it
        ends = list(accumulate(self.algebra.blocks))
        ranks = [0] * len(ends)
        for c in mask:
            ranks[bisect_right(ends, c)] += 1
        return tuple(ranks)

    @property
    def diag_mask(self):
        """Frozenset of global coordinates if this is a diagonal 0/1
        projection, else None.  Cached."""
        if self._mask is _UNSET:
            coords = set()
            offset = 0
            ok = True
            for p in self._parts:
                bits = p.diagonal_01_pattern()
                if bits is None:
                    ok = False
                    break
                coords.update(offset + i for i, b in enumerate(bits) if b)
                offset += p.rows
            self._mask = frozenset(coords) if ok else None
        return self._mask

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        if self._parts is None or other._parts is None:
            return self.diag_mask == other.diag_mask
        return self._parts == other._parts

    def __hash__(self):
        # a diagonal 0/1 projection hashes by its mask in either form;
        # any other element by its nonempty stored rows, so a rotated
        # atom costs its nonzeros and its row count, not n^2 entries
        if self._hash is None:
            key = self.diag_mask
            if key is None:
                rows = []
                offset = 0
                for part in self._parts:
                    rows.extend((offset + i, frozenset(row.items()))
                                for i, row in enumerate(part.sparse) if row)
                    offset += part.rows
                key = tuple(rows)
            self._hash = hash((self.algebra.blocks, key))
        return self._hash

    def __repr__(self):
        return f"AlgebraElement({self.algebra}, {list(self.parts)})"


def diagonal_projection(algebra: MultiMatrixAlgebra, coords) -> AlgebraElement:
    """The diagonal 0/1 projection supported on the given global
    coordinates, in mask form; coordinates outside the algebra are
    ignored."""
    n = algebra.coord_count
    return AlgebraElement._from_mask(
        algebra, frozenset(c for c in coords if 0 <= c < n))


def projection_leq(q: AlgebraElement, p: AlgebraElement) -> bool:
    """Whether projection q sits under projection p (q = q p).

    Uses diagonal support masks when both are diagonal 0/1 projections,
    falling back to exact matrix arithmetic.
    """
    mq, mp = q.diag_mask, p.diag_mask
    if mq is not None and mp is not None:
        return mq <= mp
    return q * p == q


class StarHom:
    """A *-homomorphism between multi-matrix algebras.

    The multiplicity matrix records how many copies of each domain block
    are embedded into each codomain block; the coordinate assignment
    pins down where each copy lands, making apply() deterministic.  Two
    homs with equal multiplicities but different assignments are
    unitarily equivalent but not structurally equal.
    """

    __slots__ = ("domain", "codomain", "multiplicity", "unital", "assignment",
                 "_coord_map", "_rotation_images")

    def __init__(self, domain, codomain, multiplicity, unital,
                 assignment=None):
        multiplicity = tuple(tuple(as_int(x, "multiplicity") for x in row)
                             for row in multiplicity)
        if len(multiplicity) != codomain.nblocks or any(
                len(row) != domain.nblocks for row in multiplicity):
            raise ValidationError("multiplicity must be k_cod x k_dom")
        if any(x < 0 for row in multiplicity for x in row):
            raise ValidationError("multiplicities must be nonnegative")
        for i, m in enumerate(codomain.blocks):
            used = sum(multiplicity[i][j] * domain.blocks[j]
                       for j in range(domain.nblocks))
            if used > m:
                raise ValidationError(
                    f"codomain block {i} of size {m} cannot hold {used} coordinates"
                )
            if unital and used != m:
                raise ValidationError(
                    f"unital hom must fill codomain block {i} exactly "
                    f"({used} of {m} used)"
                )
        if assignment is None:
            assignment = tuple(
                tuple((j, c) for j in range(domain.nblocks)
                      for c in range(multiplicity[i][j]))
                for i in range(codomain.nblocks)
            )
        else:
            assignment = tuple(tuple(tuple(slot) for slot in row)
                               for row in assignment)
            _check_assignment(assignment, multiplicity)
        self.domain = domain
        self.codomain = codomain
        self.multiplicity = multiplicity
        self.unital = bool(unital)
        self.assignment = assignment
        self._coord_map = None
        self._rotation_images = {}

    @classmethod
    def identity(cls, algebra: MultiMatrixAlgebra) -> "StarHom":
        mult = [[1 if i == j else 0 for j in range(algebra.nblocks)]
                for i in range(algebra.nblocks)]
        return cls(algebra, algebra, mult, unital=True)

    @property
    def coord_map(self):
        """For each global diagonal coordinate of the domain, the codomain
        coordinates its copies land on, in slot order.  Cached."""
        if self._coord_map is None:
            images = [[] for _ in range(self.domain.coord_count)]
            offset = 0
            for i, m in enumerate(self.codomain.blocks):
                slot = offset
                for (j, _copy) in self.assignment[i]:
                    start = self.domain.block_offset(j)
                    for r in range(self.domain.blocks[j]):
                        images[start + r].append(slot + r)
                    slot += self.domain.blocks[j]
                offset += m
            self._coord_map = tuple(tuple(t) for t in images)
        return self._coord_map

    def apply(self, a: AlgebraElement) -> AlgebraElement:
        """Block-diagonal placement of copies of a's blocks, zero-padded
        when non-unital.  A diagonal 0/1 projection maps through the
        coordinate map to one in mask form."""
        if a.algebra != self.domain:
            raise ValidationError("element does not live in the hom's domain")
        mask = a.diag_mask
        if mask is not None:
            cmap = self.coord_map
            return AlgebraElement._from_mask(
                self.codomain, frozenset(d for c in mask for d in cmap[c]))
        return self._place(a)

    def _place(self, a: AlgebraElement) -> AlgebraElement:
        """The block placement of apply, for any element of the domain."""
        parts = []
        for i, m in enumerate(self.codomain.blocks):
            rows = []
            for (j, _copy) in self.assignment[i]:
                offset = len(rows)
                rows.extend({offset + c: e for c, e in row.items()}
                            for row in a.parts[j].sparse)
            rows.extend({} for _ in range(m - len(rows)))
            parts.append(ExactMatrix._from_sparse(m, m, rows))
        return AlgebraElement(self.codomain, parts)

    def apply_rotation(self, alpha: "InnerAutomorphism") -> "InnerAutomorphism":
        """The image automorphism phi(alpha), conjugation by phi(u); phi
        must be unital so that phi(u) is unitary.

        The image of a permutation or plane rotation is read off the
        coordinate map: copy k of coordinate c goes to copy k of perm[c],
        and copy k of a plane to a plane.  Any other rotation's image is
        placed blockwise and checked unitary.  Images are cached, so each
        one is built and checked once per hom.
        """
        key = (alpha, alpha.name)
        image = self._rotation_images.get(key)
        if image is not None:
            return image
        if not self.unital:
            raise ValidationError("rotation images need a unital hom")
        if alpha.algebra != self.domain:
            raise ValidationError("rotation does not live in the hom's domain")
        name = f"phi({alpha.name})"
        cmap = self.coord_map
        if alpha.planes is not None:
            image = InnerAutomorphism.plane(self.codomain, [
                pair for i, j in alpha.planes for pair in zip(cmap[i], cmap[j])
            ], name)
        elif alpha.coord_perm is None:
            image = InnerAutomorphism(self.apply(alpha.u), name=name)
        else:
            perm = [None] * self.codomain.coord_count
            for c, targets in enumerate(cmap):
                for d, e in zip(targets, cmap[alpha.coord_perm[c]]):
                    perm[d] = e
            image = InnerAutomorphism.permutation(self.codomain, perm, name)
        self._rotation_images[key] = image
        return image

    def compose(self, other: "StarHom") -> "StarHom":
        """self after other.  The inner hom must be unital so that the
        composite placement stays contiguous."""
        if other.codomain != self.domain:
            raise ValidationError("homs do not chain")
        if not other.unital:
            raise ValidationError("compose requires a unital inner hom")
        k_dom = other.domain.nblocks
        mult = [
            [sum(self.multiplicity[i][j] * other.multiplicity[j][l]
                 for j in range(self.domain.nblocks))
             for l in range(k_dom)]
            for i in range(self.codomain.nblocks)
        ]
        copies = [[0] * k_dom for _ in range(self.codomain.nblocks)]
        assignment = []
        for i in range(self.codomain.nblocks):
            slots = []
            for (j, _c) in self.assignment[i]:
                for (l, _c2) in other.assignment[j]:
                    slots.append((l, copies[i][l]))
                    copies[i][l] += 1
            assignment.append(tuple(slots))
        return StarHom(other.domain, self.codomain, mult,
                       unital=self.unital and other.unital,
                       assignment=assignment)

    def __eq__(self, other):
        if not isinstance(other, StarHom):
            return NotImplemented
        return (self.domain == other.domain
                and self.codomain == other.codomain
                and self.multiplicity == other.multiplicity
                and self.unital == other.unital
                and self.assignment == other.assignment)

    def __hash__(self):
        return hash((self.domain, self.codomain, self.multiplicity,
                     self.unital, self.assignment))

    def __repr__(self):
        return (f"StarHom({self.domain} -> {self.codomain}, "
                f"multiplicity={[list(r) for r in self.multiplicity]}, "
                f"unital={self.unital})")


def _check_assignment(assignment, multiplicity):
    """Codomain block i must hold the copies 0 .. multiplicity[i][j]-1
    of every domain block j, each once, as (j, copy) slots."""
    if len(assignment) != len(multiplicity):
        raise ValidationError("assignment needs one row per codomain block")
    for i, (row, mult) in enumerate(zip(assignment, multiplicity)):
        copies = [[] for _ in mult]
        for slot in row:
            if len(slot) != 2 or not all(isinstance(x, int) for x in slot) \
                    or not 0 <= slot[0] < len(mult):
                raise ValidationError(
                    f"assignment slot {list(slot)!r} in codomain block {i} "
                    f"is not a (domain block, copy) pair")
            copies[slot[0]].append(slot[1])
        for j, got in enumerate(copies):
            if sorted(got) != list(range(mult[j])):
                raise ValidationError(
                    f"assignment of codomain block {i} must hold copies "
                    f"0..{mult[j] - 1} of domain block {j} once each")


_PYTH_COS, _PYTH_SIN = GaussianRational("3/5"), GaussianRational("4/5")
# v v* = (x, y; y, z) in a plane (i, j) for v = u e_i = (3/5, -4/5), u e_j
_PLANE_VV_I = tuple(map(GaussianRational, ("9/25", "-12/25", "16/25")))
_PLANE_VV_J = (_PLANE_VV_I[2], -_PLANE_VV_I[1], _PLANE_VV_I[0])


class InnerAutomorphism:
    """Conjugation a -> u a u* by a unitary element u.

    A rotation built by permutation() holds coord_perm, the permutation
    of the global diagonal coordinates that u induces, and one built by
    plane() holds planes; both build u only when it is read.  A rotation
    given by its u is checked unitary and has both None.  Each returns
    a diagonal projection unchanged when its mask contains all of u's
    support or none of it (see support), and otherwise permutes its
    coordinates, writes v v* in each plane it splits, or builds it from
    the support's rows of u*.  Any other element is conjugated by
    sparse products.  Equal rotations have equal supports, which are
    compared first.
    """

    __slots__ = ("algebra", "_u", "_u_adjoint", "name", "coord_perm",
                 "planes", "_support")

    def __init__(self, u: AlgebraElement, name: str = ""):
        if not u.is_unitary():
            raise ValidationError("conjugating element must be unitary in every block")
        self.algebra, self._u, self.name = u.algebra, u, name or "u"
        self._u_adjoint = self._support = self.coord_perm = self.planes = None

    @classmethod
    def _held(cls, algebra, name, coord_perm=None, planes=None):
        """A rotation held by its structure, u not yet built."""
        self = object.__new__(cls)
        self.algebra, self.name = algebra, name
        self._u = self._u_adjoint = self._support = None
        self.coord_perm, self.planes = coord_perm, planes
        return self

    @classmethod
    def permutation(cls, algebra: MultiMatrixAlgebra, perm,
                    name: str = "") -> "InnerAutomorphism":
        """Conjugation by the permutation unitary sending coordinate c to
        perm[c].  perm must be a bijection of the global diagonal
        coordinates that keeps each coordinate in its block; the
        permutation matrix is then unitary by construction."""
        perm = tuple(perm)
        n = algebra.coord_count
        if len(perm) != n or not all(isinstance(p, int) for p in perm) \
                or set(perm) != set(range(n)):
            raise ValidationError(
                f"coordinate permutation must be a bijection of range({n})")
        owner = [b for b, m in enumerate(algebra.blocks) for _ in range(m)]
        for c, p in enumerate(perm):
            if owner[c] != owner[p]:
                raise ValidationError(
                    f"coordinate permutation moves {c} from block {owner[c]} "
                    f"to block {owner[p]}")
        return cls._held(algebra, name or "perm", coord_perm=perm)

    @classmethod
    def plane(cls, algebra: MultiMatrixAlgebra, pairs,
              name: str = "") -> "InnerAutomorphism":
        """Conjugation by the unitary that is [[3/5, 4/5], [-4/5, 3/5]] on
        the coordinates (i, j) of each pair and the identity elsewhere.
        The pairs must be disjoint and each inside one block; u is then
        unitary by construction."""
        pairs = tuple(tuple(p) for p in pairs)
        coords = [c for p in pairs for c in p]
        n, ends = algebra.coord_count, list(accumulate(algebra.blocks))
        if any(len(p) != 2 for p in pairs) \
                or not all(is_int(c) and 0 <= c < n for c in coords) \
                or len(set(coords)) != len(coords) or any(
                    bisect_right(ends, i) != bisect_right(ends, j)
                    for i, j in pairs):
            raise ValidationError(f"rotation planes must be disjoint pairs "
                                  f"of range({n}), each inside one block")
        return cls._held(algebra, name or "plane", planes=tuple(sorted(pairs)))

    @property
    def u(self) -> AlgebraElement:
        """The conjugating unitary; built on first read for a permutation
        rotation, with u e_c = e_perm[c], and for a plane rotation."""
        if self._u is None:
            if self.planes is None:
                ones, rows = (), {p: {c: GR_ONE}
                                  for c, p in enumerate(self.coord_perm)}
            else:
                ones, rows = range(self.algebra.coord_count), {}
                c, s = _PYTH_COS, _PYTH_SIN
                for i, j in self.planes:
                    rows[i], rows[j] = {i: c, j: s}, {i: -s, j: c}
            self._u = AlgebraElement(self.algebra,
                                     _block_parts(self.algebra, ones, rows))
        return self._u

    @property
    def u_adjoint(self) -> AlgebraElement:
        """u*, built once on first read."""
        if self._u_adjoint is None:
            self._u_adjoint = self.u.adjoint()
        return self._u_adjoint

    @property
    def support(self) -> frozenset:
        """The global coordinates whose row or column of u has a nonzero
        off-diagonal entry.  Outside them u is diagonal, so u commutes
        with every diagonal projection that contains all of them or
        none of them."""
        if self._support is None:
            if self.coord_perm is not None:
                support = {c for c, p in enumerate(self.coord_perm) if c != p}
            elif self.planes is not None:
                support = {c for pair in self.planes for c in pair}
            else:
                support = set()
                offset = 0
                for part in self.u.parts:
                    for r, row in enumerate(part.sparse):
                        for c in row:
                            if r != c:
                                support.update((offset + r, offset + c))
                    offset += part.rows
            self._support = frozenset(support)
        return self._support

    def conjugate(self, a: AlgebraElement) -> AlgebraElement:
        if a.algebra != self.algebra:
            raise ValidationError("element and unitary live in different algebras")
        mask = a.diag_mask
        if mask is not None:
            if self.support <= mask or self.support.isdisjoint(mask):
                return a
            if self.coord_perm is not None:
                return AlgebraElement._from_mask(
                    a.algebra, frozenset(self.coord_perm[c] for c in mask))
            if self.planes is not None:
                return self._conjugate_planes(a, mask)
            return self._conjugate_mask(mask)
        return self.u * a * self.u_adjoint

    def _conjugate_planes(self, a, mask):
        """u P u* for the diagonal projection P on mask: P, but v v* for
        v = u e_k in each plane that holds one coordinate k of mask."""
        rows = {}
        for i, j in self.planes:
            if (i in mask) != (j in mask):
                x, y, z = _PLANE_VV_I if i in mask else _PLANE_VV_J
                rows[i], rows[j] = {i: x, j: y}, {i: y, j: z}
        return AlgebraElement(self.algebra, _block_parts(
            self.algebra, mask, rows)) if rows else a

    def _conjugate_mask(self, mask):
        """u P u* for the diagonal projection P on mask: P off the
        support S, where u is a unimodular diagonal, plus v_k v_k* for
        each k in mask and S, where v_k = u e_k is the conjugate of row k
        of u* and lies in S."""
        support = self.support
        parts = []
        offset = 0
        for part in self.u_adjoint.parts:
            n = part.rows
            rows = [{i: GR_ONE} if offset + i in mask else {}
                    for i in range(n)]
            local = [c - offset for c in support if offset <= c < offset + n]
            for i in local:
                rows[i] = {}
            for k in local:
                if offset + k not in mask:
                    continue
                vk = part.sparse[k]
                for i, x in vk.items():
                    x, acc = x.conjugate(), rows[i]
                    for j, y in vk.items():
                        t = x * y
                        acc[j] = acc[j] + t if j in acc else t
            for i in local:
                rows[i] = {j: e for j, e in rows[i].items() if e}
            parts.append(ExactMatrix._from_sparse(n, n, rows))
            offset += n
        return AlgebraElement(self.algebra, parts)

    def inverse(self) -> "InnerAutomorphism":
        name = f"{self.name}^-1"
        if self.planes is not None:
            return InnerAutomorphism.plane(
                self.algebra, [(j, i) for i, j in self.planes], name)
        if self.coord_perm is None:
            return InnerAutomorphism(self.u_adjoint, name=name)
        perm = [0] * len(self.coord_perm)
        for i, p in enumerate(self.coord_perm):
            perm[p] = i
        return InnerAutomorphism.permutation(self.algebra, perm, name)

    def acts_trivially_on(self, elements) -> bool:
        return all(self.conjugate(p) == p for p in elements)

    def __eq__(self, other):
        if not isinstance(other, InnerAutomorphism):
            return NotImplemented
        # equal unitaries have equal supports, read without building u.
        # Two held rotations compare what they hold; a permutation and a
        # plane rotation (entries 3/5) are equal only as the identity
        if self.algebra != other.algebra or self.support != other.support:
            return False
        if None in (self.coord_perm or self.planes,
                    other.coord_perm or other.planes):
            return self.u == other.u
        return (self.coord_perm == other.coord_perm
                and self.planes == other.planes) or not self.support

    def __hash__(self):
        return hash((self.algebra, self.support))

    def __repr__(self):
        return f"InnerAutomorphism({self.name})"


def transposition_unitary(algebra: MultiMatrixAlgebra, block: int,
                          i: int, j: int) -> InnerAutomorphism:
    """The permutation rotation swapping coordinates i and j of a block."""
    n = algebra.blocks[block]
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValidationError(f"bad transposition ({i},{j}) in block of size {n}")
    offset = algebra.block_offset(block)
    perm = list(range(algebra.coord_count))
    perm[offset + i], perm[offset + j] = perm[offset + j], perm[offset + i]
    return InnerAutomorphism.permutation(algebra, perm,
                                         name=f"swap[b{block}:{i},{j}]")


def cycle_unitary(algebra: MultiMatrixAlgebra, block: int) -> InnerAutomorphism:
    """The permutation rotation sending coordinate c of a block of size n
    to c + 1 mod n.  With one transposition of neighbouring coordinates
    it generates every coordinate permutation of the block."""
    n = algebra.blocks[block]
    if n < 2:
        raise ValidationError("cycle rotation needs a block of size >= 2")
    offset = algebra.block_offset(block)
    perm = list(range(algebra.coord_count))
    for c in range(n):
        perm[offset + c] = offset + (c + 1) % n
    return InnerAutomorphism.permutation(algebra, perm,
                                         name=f"cycle[b{block}]")


def pythagorean_unitary(algebra: MultiMatrixAlgebra, block: int) -> InnerAutomorphism:
    """The rotation [[3/5,4/5],[-4/5,3/5]] on the first two coordinates
    of a block, identity elsewhere; an exactly representable non-permutation
    unitary, held as that one plane."""
    if algebra.blocks[block] < 2:
        raise ValidationError("Pythagorean rotation needs a block of size >= 2")
    offset = algebra.block_offset(block)
    return InnerAutomorphism.plane(algebra, [(offset, offset + 1)],
                                   name=f"pyth[b{block}]")


def stabilize(algebra: MultiMatrixAlgebra, m: int, hom: StarHom | None = None):
    """Tensor with an m x m matrix tower: blocks [n1*m .. nk*m].

    A given hom is carried along with the same multiplicity matrix and
    slot assignment on the enlarged blocks, realizing phi tensor id.
    """
    if m < 1:
        raise ValidationError("stabilization level must be >= 1")
    out = MultiMatrixAlgebra([n * m for n in algebra.blocks])
    if hom is None:
        return out, None
    if hom.domain != algebra:
        raise ValidationError("hom domain does not match the algebra")
    cod = MultiMatrixAlgebra([n * m for n in hom.codomain.blocks])
    return out, StarHom(out, cod, hom.multiplicity, unital=hom.unital,
                        assignment=hom.assignment)


def unitalize(algebra: MultiMatrixAlgebra):
    """Adjoin a unit: A+ = A + C (valid because A is already unital), with
    the scalar projection pi: A+ -> C onto the adjoined 1x1 block."""
    plus = MultiMatrixAlgebra(list(algebra.blocks) + [1])
    scalars = MultiMatrixAlgebra([1])
    mult = [[0] * algebra.nblocks + [1]]
    pi = StarHom(plus, scalars, mult, unital=True)
    return plus, pi


def sample_unital_hom(rng, max_total_dim: int = 6) -> StarHom:
    """Seeded random unital Bratteli morphism between algebras whose
    linear dimensions both stay within max_total_dim.

    Codomain block sizes are derived from the multiplicity matrix, so
    unitality is exact by construction.
    """
    while True:
        k_dom = rng.randint(1, 3)
        dom_blocks = [rng.randint(1, 2) for _ in range(k_dom)]
        dom = MultiMatrixAlgebra(dom_blocks)
        if dom.dimension > max_total_dim:
            continue
        k_cod = rng.randint(1, 4)
        mult = [[rng.randint(0, 2) for _ in range(k_dom)] for _ in range(k_cod)]
        cod_blocks = [sum(mult[i][j] * dom_blocks[j] for j in range(k_dom))
                      for i in range(k_cod)]
        if any(b < 1 for b in cod_blocks):
            continue
        cod = MultiMatrixAlgebra(cod_blocks)
        if cod.dimension > max_total_dim:
            continue
        return StarHom(dom, cod, mult, unital=True)
