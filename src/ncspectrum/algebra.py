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
  when they are read;
- a rotation that permutes the diagonal coordinates, such as a
  transposition, a cycle or the image of one under a unital hom, is
  held as that coordinate permutation (InnerAutomorphism.permutation),
  and conjugates a diagonal projection by permuting its coordinate set.

Any other rotation, such as the Pythagorean (Givens) one or a unitary
given in a spec, is held by its unitary u.  Off its support (the
coordinates it mixes) u is a unimodular diagonal, so it leaves alone
every diagonal projection that contains all of its support or none of
it, and conjugates the rest from the support's rows of u* alone.  Both
forms of an element compare and hash alike; an element that is not a
diagonal projection hashes by its nonempty rows.  Everything is
immutable and pure.
"""

from __future__ import annotations

from .errors import ValidationError, as_int
from .exact import ExactMatrix, GaussianRational, GR_ONE

_UNSET = object()  # diag_mask not yet computed


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
            parts = []
            offset = 0
            for n in self.algebra.blocks:
                parts.append(ExactMatrix._from_sparse(n, n, (
                    {i: GR_ONE} if offset + i in self._mask else {}
                    for i in range(n))))
                offset += n
            self._parts = tuple(parts)
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
        ma, mb = self._known_mask(), other._known_mask()
        if ma is not None and mb is not None and mb <= ma:
            return AlgebraElement._from_mask(self.algebra, ma - mb)
        return AlgebraElement(self.algebra,
                              [a - b for a, b in zip(self.parts, other.parts)])

    def __mul__(self, other):
        self._require_same_parent(other)
        ma, mb = self._known_mask(), other._known_mask()
        if ma is not None and mb is not None:
            return AlgebraElement._from_mask(self.algebra, ma & mb)
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
        ranks = []
        offset = 0
        for n in self.algebra.blocks:
            ranks.append(sum(1 for c in range(offset, offset + n) if c in mask))
            offset += n
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
        ma, mb = self._known_mask(), other._known_mask()
        if ma is not None and mb is not None:
            return ma == mb
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

        The image of a permutation rotation is the permutation rotation
        read off the coordinate map: copy k of coordinate c goes to copy
        k of coordinate perm[c].  Any other rotation's image is placed
        blockwise and checked unitary.  Images are cached, so each one is
        built and checked once per hom.
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
        if alpha.coord_perm is None:
            image = InnerAutomorphism(self.apply(alpha.u), name=name)
        else:
            cmap = self.coord_map
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


class InnerAutomorphism:
    """Conjugation a -> u a u* by a unitary element u.

    A rotation built by permutation() holds coord_perm, the permutation
    of the global diagonal coordinates that u induces, and builds u only
    when it is read; it conjugates a diagonal projection by permuting
    its coordinates.  A rotation given by its u is checked unitary and
    has coord_perm None; it returns a diagonal projection unchanged when
    the projection's mask contains all of u's support or none of it
    (see support), and otherwise builds it from the support's rows of
    u*.  Any other element is conjugated by sparse products.  Equal
    rotations have equal supports, which are compared first.
    """

    __slots__ = ("algebra", "_u", "_u_adjoint", "name", "coord_perm",
                 "_support")

    def __init__(self, u: AlgebraElement, name: str = ""):
        if not u.is_unitary():
            raise ValidationError("conjugating element must be unitary in every block")
        self.algebra = u.algebra
        self._u = u
        self._u_adjoint = None
        self.name = name or "u"
        self.coord_perm = None
        self._support = None

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
        self = object.__new__(cls)
        self.algebra = algebra
        self._u = None
        self._u_adjoint = None
        self.name = name or "perm"
        self.coord_perm = perm
        self._support = None
        return self

    @property
    def u(self) -> AlgebraElement:
        """The conjugating unitary; built on first read for a permutation
        rotation, with u e_c = e_perm[c]."""
        if self._u is None:
            parts = []
            offset = 0
            for m in self.algebra.blocks:
                rows = [None] * m
                for c in range(m):
                    rows[self.coord_perm[offset + c] - offset] = {c: GR_ONE}
                parts.append(ExactMatrix._from_sparse(m, m, rows))
                offset += m
            self._u = AlgebraElement(self.algebra, parts)
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
            return self._conjugate_mask(mask)
        return self.u * a * self.u_adjoint

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
        if self.coord_perm is not None and other.coord_perm is not None:
            return (self.algebra == other.algebra
                    and self.coord_perm == other.coord_perm)
        # equal unitaries have equal supports, read without building u
        # for a permutation rotation
        return (self.algebra == other.algebra
                and self.support == other.support and self.u == other.u)

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


_PYTH_COS, _PYTH_SIN = GaussianRational("3/5"), GaussianRational("4/5")


def pythagorean_unitary(algebra: MultiMatrixAlgebra, block: int) -> InnerAutomorphism:
    """The rotation [[3/5,4/5],[-4/5,3/5]] on the first two coordinates
    of a block, identity elsewhere; an exactly representable non-permutation
    unitary."""
    n = algebra.blocks[block]
    if n < 2:
        raise ValidationError("Pythagorean rotation needs a block of size >= 2")
    c, s = _PYTH_COS, _PYTH_SIN
    parts = [ExactMatrix.identity(m) for m in algebra.blocks]
    rows = [{0: c, 1: s}, {0: -s, 1: c}] + [{i: GR_ONE} for i in range(2, n)]
    parts[block] = ExactMatrix._from_sparse(n, n, rows)
    return InnerAutomorphism(AlgebraElement(algebra, parts),
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
