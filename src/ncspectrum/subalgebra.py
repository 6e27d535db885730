"""Unital commutative subalgebras, their finite spectra, and spectra of maps.

A unital commutative subalgebra of a multi-matrix algebra is the span of
a partition of unity, so we identify it with its ordered list of atomic
projections.  Its Gel'fand spectrum is then a finite discrete space with
one point per atom.

Morphisms between subalgebras (inclusions, unitary rotations, and
restrictions of *-homomorphisms) are all represented by a single arrow
type that records the image of each atom; taking spectra is the
contravariant passage from such an arrow to a map of point sets, held
as the target position of each source point.  Point labels (p0, p1, ...
from spectrum, or a file's own) are for input and display only.
"""

from __future__ import annotations

import functools

from .algebra import (AlgebraElement, InnerAutomorphism, MultiMatrixAlgebra,
                      StarHom, diagonal_projection, projection_leq)
from .diagram import Functor, register_identity
from .errors import ValidationError


def _atom_sort_key(p: AlgebraElement):
    # leading nonzero diagonal coordinate, then full entry serialization
    lead = None
    offset = 0
    for part in p.parts:
        for i in range(part.rows):
            if not part.entry(i, i).is_zero():
                lead = offset + i
                break
        if lead is not None:
            break
        offset += part.rows
    # re and im as exact numbers: ints when integral, which skips
    # building Fractions and compares with Fractions exactly
    serial = tuple((e.n, e.m) if e.d == 1 else (e.re, e.im)
                   for part in p.parts for e in part.entries)
    return (lead if lead is not None else -1, serial)


class CommSubalgebra:
    """A unital commutative subalgebra given by its atomic projections.

    Atoms must be pairwise orthogonal nonzero projections summing to the
    identity; this is validated at construction.
    """

    __slots__ = ("algebra", "atoms", "_key", "_index", "_supports")

    def __init__(self, algebra: MultiMatrixAlgebra, atoms, validate=True):
        atoms = tuple(atoms)
        if not atoms:
            raise ValidationError("a unital subalgebra needs at least one atom")
        if validate:
            total = algebra.zero()
            for i, p in enumerate(atoms):
                if p.algebra != algebra:
                    raise ValidationError("atom lives in the wrong algebra")
                if p.is_zero():
                    raise ValidationError("atoms must be nonzero")
                if not p.is_projection():
                    raise ValidationError(f"atom {i} is not a projection")
                total = total + p
            for i in range(len(atoms)):
                for j in range(i + 1, len(atoms)):
                    if not (atoms[i] * atoms[j]).is_zero():
                        raise ValidationError(
                            f"atoms {i} and {j} are not orthogonal")
            if total != algebra.one():
                raise ValidationError("atoms must sum to the identity")
        self.algebra = algebra
        self.atoms = atoms
        self._key = None
        self._index = None
        self._supports = None

    @property
    def natoms(self) -> int:
        return len(self.atoms)

    @property
    def key(self):
        """Order-insensitive identity of the subalgebra: its atom set."""
        if self._key is None:
            self._key = frozenset(self.atoms)
        return self._key

    @property
    def block_supports(self) -> tuple:
        """Per atom, the blocks on which it has a nonzero component."""
        if self._supports is None:
            self._supports = tuple(
                frozenset(i for i, r in enumerate(p.rank_vector()) if r)
                if p.diag_mask is not None else
                frozenset(i for i, part in enumerate(p.parts)
                          if not part.is_zero())
                for p in self.atoms)
        return self._supports

    @property
    def positions(self) -> dict:
        """The position of each atom in atom order."""
        if self._index is None:
            self._index = {a: i for i, a in enumerate(self.atoms)}
        return self._index

    def atom_index(self, p: AlgebraElement) -> int:
        try:
            return self.positions[p]
        except KeyError:
            raise ValidationError("projection is not an atom of this subalgebra")

    def atoms_under(self, p: AlgebraElement):
        """The indices of the atoms under projection p when they sum to
        p, i.e. when p lies in the span; else None."""
        under = [i for i, a in enumerate(self.atoms) if projection_leq(a, p)]
        total = self.algebra.zero()
        for i in under:
            total = total + self.atoms[i]
        return under if total == p else None

    def contains_projection(self, p: AlgebraElement) -> bool:
        """Whether p lies in the span, i.e. equals a sum of atoms."""
        return self.atoms_under(p) is not None

    def __eq__(self, other):
        if not isinstance(other, CommSubalgebra):
            return NotImplemented
        return self.algebra == other.algebra and self.key == other.key

    def __hash__(self):
        return hash((self.algebra, self.key))

    def __repr__(self):
        return f"CommSubalgebra({self.algebra}, {self.natoms} atoms)"


def span_subalgebra(algebra: MultiMatrixAlgebra, gens) -> CommSubalgebra:
    """Smallest unital subalgebra containing the given commuting projections.

    Atoms are the nonzero minimal products g^e over all sign patterns,
    where g^1 = g and g^0 = 1 - g.
    """
    gens = list(gens)
    one = algebra.one()
    for i, g in enumerate(gens):
        if g.algebra != algebra:
            raise ValidationError("generator lives in the wrong algebra")
        if not g.is_projection():
            raise ValidationError(f"generator {i} is not a projection")
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            if gens[i] * gens[j] != gens[j] * gens[i]:
                raise ValidationError(f"generators {i} and {j} do not commute")
    atoms = [one]
    for g in gens:
        refined = []
        comp = one - g
        for a in atoms:
            for piece in (a * g, a * comp):
                if not piece.is_zero():
                    refined.append(piece)
        atoms = refined
    atoms.sort(key=_atom_sort_key)
    return CommSubalgebra(algebra, atoms)


def partition_subalgebra(algebra: MultiMatrixAlgebra, parts) -> CommSubalgebra:
    """Diagonal subalgebra whose atoms are the given partition of the
    global diagonal coordinates (each part a set of coordinates)."""
    parts = [frozenset(p) for p in parts]
    seen = set()
    for p in parts:
        if not p or (p & seen):
            raise ValidationError("parts must be disjoint and nonempty")
        seen |= p
    if seen != set(range(algebra.coord_count)):
        raise ValidationError("parts must cover all diagonal coordinates")
    parts = sorted(parts, key=min)
    atoms = [diagonal_projection(algebra, p) for p in parts]
    return CommSubalgebra(algebra, atoms, validate=False)


class FiniteSpace:
    """A finite discrete space with ordered, distinct point labels."""

    __slots__ = ("points", "_pos")

    def __init__(self, points):
        points = tuple(points)
        self._pos = {p: i for i, p in enumerate(points)}
        if len(self._pos) != len(points):
            raise ValidationError("point labels must be distinct")
        self.points = points

    @property
    def size(self) -> int:
        return len(self.points)

    def __eq__(self, other):
        if not isinstance(other, FiniteSpace):
            return NotImplemented
        return self.points == other.points

    def __hash__(self):
        return hash(self.points)

    def __repr__(self):
        return f"FiniteSpace({list(self.points)})"


class SpaceMap:
    """A function between finite spaces, held as target positions.

    index[x] is the position in target.points of the image of source
    point x.  Built from those positions or from a dict of labels, both
    validated; assignment reads the map back as labels."""

    __slots__ = ("source", "target", "index")

    def __init__(self, source: FiniteSpace, target: FiniteSpace, assignment):
        if isinstance(assignment, dict):
            if assignment.keys() != source._pos.keys():
                raise ValidationError(
                    "assignment must cover every source point")
            for v in assignment.values():
                if v not in target._pos:
                    raise ValidationError(f"unknown target point {v!r}")
            assignment = [target._pos[assignment[p]] for p in source.points]
        index = tuple(assignment)
        # every position a plain int, which a bool is not
        if len(index) != source.size or not set(map(type, index)) <= {int} or (
                index and not 0 <= min(index) <= max(index) < target.size):
            raise ValidationError(f"a space map needs one target position "
                                  f"in range({target.size}) per source point")
        self.source = source
        self.target = target
        self.index = index

    # diagram machinery expects .domain/.codomain
    @property
    def domain(self):
        return self.source

    @property
    def codomain(self):
        return self.target

    @property
    def assignment(self) -> dict:
        """The map as a dict from source labels to target labels."""
        points = self.target.points
        return {p: points[y] for p, y in zip(self.source.points, self.index)}

    @classmethod
    def identity(cls, space: FiniteSpace) -> "SpaceMap":
        return cls(space, space, range(space.size))

    def compose(self, other: "SpaceMap") -> "SpaceMap":
        """self after other."""
        if other.target != self.source:
            raise ValidationError("space maps do not chain")
        return SpaceMap(other.source, self.target,
                        [self.index[y] for y in other.index])

    def is_surjective(self) -> bool:
        return len(set(self.index)) == self.target.size

    def image(self, points) -> frozenset:
        """The target labels of the images of some source labels."""
        pos, index = self.source._pos, self.index
        return frozenset(self.target.points[index[pos[p]]] for p in points)

    def __eq__(self, other):
        if not isinstance(other, SpaceMap):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.index == other.index)

    def __hash__(self):
        return hash((self.source, self.target, self.index))

    def __repr__(self):
        return f"SpaceMap({self.assignment})"


def spectrum(u: CommSubalgebra) -> FiniteSpace:
    """One point per atom, in atom order; labels are stable."""
    return _points(u.natoms)


@functools.lru_cache(maxsize=None)
def _points(n: int) -> FiniteSpace:
    # one shared space per size: spaces are immutable values
    return FiniteSpace(tuple(f"p{i}" for i in range(n)))


class SubalgebraArrow:
    """A morphism of commutative subalgebras, recorded by atom images.

    Covers inclusions (each atom maps to itself), unitary rotations
    (atom maps to its conjugate) and restrictions of *-homomorphisms
    (atom maps to its image, possibly zero).  The action extends
    linearly to the span, which is enough to compose arrows and compare
    them as maps.
    """

    __slots__ = ("domain", "codomain", "images", "kind", "unitary",
                 "_spectrum_map")

    def __init__(self, domain, codomain, images, kind="arrow", unitary=None,
                 spectrum_cache=None):
        images = tuple(images)
        if len(images) != domain.natoms:
            raise ValidationError("one image per domain atom required")
        self.domain = domain
        self.codomain = codomain
        self.images = images
        self.kind = kind
        self.unitary = unitary
        self._spectrum_map = spectrum_cache

    @classmethod
    def identity(cls, u: CommSubalgebra) -> "SubalgebraArrow":
        return cls(u, u, u.atoms, kind="inclusion")

    @classmethod
    def inclusion(cls, u: CommSubalgebra,
                  v: CommSubalgebra) -> "SubalgebraArrow":
        """The inclusion U -> V; requires every atom of U to be a sum of
        atoms of V."""
        if u.algebra != v.algebra:
            raise ValidationError("subalgebras live in different algebras")
        for p in u.atoms:
            if not v.contains_projection(p):
                raise ValidationError(
                    "not an inclusion: an atom is not a sum of codomain atoms")
        return cls(u, v, u.atoms, kind="inclusion")

    @classmethod
    def rotation(cls, alpha: InnerAutomorphism, u: CommSubalgebra,
                 codomain: CommSubalgebra | None = None) -> "SubalgebraArrow":
        """The isomorphism U -> alpha(U) induced by conjugation."""
        if alpha.algebra != u.algebra:
            raise ValidationError("unitary and subalgebra parents differ")
        images = tuple(alpha.conjugate(p) for p in u.atoms)
        if codomain is None:
            codomain = CommSubalgebra(u.algebra,
                                      sorted(images, key=_atom_sort_key),
                                      validate=False)
        return cls(u, codomain, images, kind="rotation", unitary=alpha)

    @classmethod
    def hom_restriction(cls, phi: StarHom, u: CommSubalgebra, images,
                        codomain: CommSubalgebra) -> "SubalgebraArrow":
        """phi restricted to U, landing in codomain = phi(U) (unital phi
        only); images is the tuple of phi of U's atoms in their order."""
        if not phi.unital:
            raise ValidationError("restriction requires a unital hom")
        if u.algebra != phi.domain:
            raise ValidationError("subalgebra does not live in the hom's domain")
        return cls(u, codomain, images, kind="hom")

    def apply_projection(self, p: AlgebraElement) -> AlgebraElement:
        """Linear extension: image of a projection in the domain's span."""
        out = self.codomain.algebra.zero()
        for atom, image in zip(self.domain.atoms, self.images):
            if projection_leq(atom, p):
                out = out + image
        return out

    def compose(self, other: "SubalgebraArrow") -> "SubalgebraArrow":
        """self after other."""
        if other.codomain != self.domain:
            raise ValidationError("subalgebra arrows do not chain")
        images = tuple(self.apply_projection(q) for q in other.images)
        return SubalgebraArrow(other.domain, self.codomain, images,
                               kind="composite")

    def spectrum_map(self) -> SpaceMap:
        """The contravariant spectrum of this arrow: a map from the
        codomain's point set to the domain's, sending the point of an
        atom Q to the point of the unique domain atom P with image
        dominating Q."""
        if self._spectrum_map is None:
            # exact-match shortcut for images that are codomain atoms
            index = [None] * self.codomain.natoms
            positions = self.codomain.positions
            for i, img in enumerate(self.images):
                j = positions.get(img)
                if j is not None and index[j] is None:
                    index[j] = i
            for j, q in enumerate(self.codomain.atoms):
                if index[j] is None:
                    index[j] = next((i for i, img in enumerate(self.images)
                                     if not img.is_zero()
                                     and projection_leq(q, img)), None)
                    if index[j] is None:
                        raise ValidationError(
                            "codomain atom not dominated by any atom image")
            self._spectrum_map = SpaceMap(spectrum(self.codomain),
                                          spectrum(self.domain), index)
        return self._spectrum_map

    def __eq__(self, other):
        if not isinstance(other, SubalgebraArrow):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.images == other.images)

    def __repr__(self):
        return (f"SubalgebraArrow({self.kind}: {self.domain.natoms} atoms -> "
                f"{self.codomain.natoms} atoms)")


def spectrum_of_inclusion(u: CommSubalgebra, v: CommSubalgebra) -> SpaceMap:
    """Spectrum of the inclusion U <= V: a surjection Sigma(V) -> Sigma(U).

    For each point p of Sigma(U), the atoms of V over the preimage of p
    sum to the atom of U at p.
    """
    return SubalgebraArrow.inclusion(u, v).spectrum_map()


SpectrumFunctor = Functor(on_object=spectrum,
                          on_morphism=lambda arrow: arrow.spectrum_map(),
                          contravariant=True, name="Spectrum")

register_identity(FiniteSpace, SpaceMap.identity)
register_identity(CommSubalgebra, SubalgebraArrow.identity)
