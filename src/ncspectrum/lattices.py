"""Finite meet-semilattices, closed-set lattices, and the generalized limit.

Closed sets of a finite discrete space are just subsets of its points;
the closed-set functor sends a space map to the image map on subsets.
The generalized limit of the closed-set lattices of a contravariant
diagram of finite spaces is the set of edge-compatible families; those
families are closed under componentwise joins, so binary meets exist as
greatest compatible lower bounds (computed inside the family set, not
componentwise).

compatible_masks is the one enumeration engine for both limits of the
ideal side, a search over (node, bit) variables: limit_semilattice
passes one link per edge over point bitmasks, and
ideals.enumerate_partial_ideals one per inclusion or rotation edge over
atom bitmasks.
"""

from __future__ import annotations

import itertools
import operator

from .diagram import CONTRAVARIANT, Functor, ShapedDiagram, register_identity
from .errors import ValidationError
from .subalgebra import FiniteSpace, SpaceMap


class MeetSemilattice:
    """A finite meet-semilattice given by its elements and order.

    Elements must be hashable; the order leq is asked on demand.  A top
    element is required and validated.  Meets are greatest lower bounds,
    computed on demand and cached (validation raises on a pair without
    one).
    """

    __slots__ = ("elements", "_leq", "_pos", "_top", "_meets")

    def __init__(self, elements, leq):
        elements = tuple(elements)
        if not elements:
            raise ValidationError("a meet-semilattice needs at least one element")
        if len(set(elements)) != len(elements):
            raise ValidationError("duplicate lattice elements")
        self.elements = elements
        self._leq = leq
        self._pos = {x: i for i, x in enumerate(elements)}
        self._meets = {}
        if not all(leq(a, a) for a in elements):
            raise ValidationError("order is not reflexive")
        tops = self._greatest(elements)
        if len(tops) != 1:
            raise ValidationError(f"expected a unique top element, found {len(tops)}")
        self._top = tops[0]

    def _greatest(self, items):
        """The items above all of items: climb to a maximal one, then
        check that every item lies under it."""
        leq = self._leq
        if not items:
            return []
        g = items[0]
        for x in items:
            if leq(g, x):
                g = x
        if not all(leq(x, g) for x in items):
            return []
        return [x for x in items if leq(g, x)]

    def __eq__(self, other):
        if not isinstance(other, MeetSemilattice):
            return NotImplemented
        if self.elements != other.elements:
            return False
        # one relation on the same elements is the same order
        return self._leq is other._leq or all(
            self._leq(a, b) == other._leq(a, b)
            for a in self.elements for b in self.elements)

    def __hash__(self):
        return hash(self.elements)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def top(self):
        return self._top

    def leq(self, a, b) -> bool:
        return self._leq(a, b)

    def meet(self, a, b):
        """Greatest lower bound; raises if it does not exist."""
        key = (a, b)
        cached = self._meets.get(key)
        if cached is not None:
            return cached
        leq = self._leq
        greatest = self._greatest(
            [c for c in self.elements if leq(c, a) and leq(c, b)])
        if len(greatest) != 1:
            raise ValidationError("pair without a greatest lower bound")
        self._meets[key] = greatest[0]
        return greatest[0]

    def __contains__(self, x):
        return x in self._pos

    def __repr__(self):
        return f"MeetSemilattice({self.size} elements)"


class LatticeHom:
    """A map between finite lattices, given elementwise."""

    __slots__ = ("source", "target", "mapping")

    def __init__(self, source: MeetSemilattice, target: MeetSemilattice, mapping):
        mapping = dict(mapping)
        if set(mapping) != set(source.elements):
            raise ValidationError("mapping must cover every source element")
        for v in mapping.values():
            if v not in target:
                raise ValidationError("mapping leaves the target lattice")
        self.source = source
        self.target = target
        self.mapping = mapping

    @property
    def domain(self):
        return self.source

    @property
    def codomain(self):
        return self.target

    @classmethod
    def identity(cls, lat: MeetSemilattice) -> "LatticeHom":
        return cls(lat, lat, {x: x for x in lat.elements})

    def __call__(self, x):
        return self.mapping[x]

    def compose(self, other: "LatticeHom") -> "LatticeHom":
        if other.target is not self.source and other.target != self.source:
            raise ValidationError("lattice homs do not chain")
        return LatticeHom(other.source, self.target,
                          {x: self.mapping[y] for x, y in other.mapping.items()})

    def __eq__(self, other):
        if not isinstance(other, LatticeHom):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.mapping == other.mapping)

    def __repr__(self):
        return f"LatticeHom({self.source.size} -> {self.target.size})"


def _subsets_sorted(points):
    points = tuple(points)
    out = []
    for r in range(len(points) + 1):
        for combo in itertools.combinations(points, r):
            out.append(frozenset(combo))
    return out


def closed_set_lattice(space: FiniteSpace) -> MeetSemilattice:
    """All subsets of a finite discrete space, ordered by containment.

    Every subset of a finite discrete space is closed, so this is the
    full powerset with meet = intersection.
    """
    return MeetSemilattice(_subsets_sorted(space.points), operator.le)


def closed_set_map(q: SpaceMap) -> LatticeHom:
    """The image map on closed sets induced by a continuous map."""
    src = closed_set_lattice(q.source)
    dst = closed_set_lattice(q.target)
    return LatticeHom(src, dst, {s: q.image(s) for s in src.elements})


ClosedSetFunctor = Functor(on_object=closed_set_lattice,
                           on_morphism=closed_set_map,
                           contravariant=False, name="ClosedSets")

register_identity(MeetSemilattice, LatticeHom.identity)


def _free_nodes(count, links):
    """The nodes that order the solutions: those no link sets, then, in
    node order, any node not reached along the links from those before."""
    sets = [[] for _ in range(count)]
    for target, source, _needs, _some in links:
        if target != source:
            sets[source].append(target)
    free, reached = [], set()
    for k in sorted(set(range(count)).difference(*sets)) + list(range(count)):
        if k not in reached:
            free.append(k)
            stack = [k]
            while stack:
                m = stack.pop()
                if m not in reached:
                    reached.add(m)
                    stack += sets[m]
    return free


def compatible_masks(sizes, links, rank):
    """Every tuple of bitmasks, one per node (node k has sizes[k] bits),
    that obeys every link (target, source, needs, some): bit t of the
    target is set iff every bit (some bit, if some) of needs[t] is set
    at the source.

    A Davis-Logemann-Loveland search over the (node, bit) variables
    decides the first undecided bit, propagates units and drops a branch
    on a conflict: its work grows with the solutions, not with the
    product of the domains.  Solutions are sorted by the rank of their
    masks at the free nodes, the order of a walk over those values.

    >>> compatible_masks([2, 2], [(1, 0, [1, 1], False)], int)
    [(0, 0), (1, 3), (2, 0), (3, 3)]
    """
    offsets = list(itertools.accumulate(sizes, initial=0))
    # literal 2*v + (not x) holds when variable v has the value x
    implied = [[] for _ in range(2 * offsets[-1])]
    watched = [[] for _ in implied]  # clauses, by negated literal
    units = []
    for target, source, needs, some in links:
        for t, mask in enumerate(needs):
            # bit t is (not some) iff every needed bit is (not some)
            head = 2 * (offsets[target] + t) + some
            body = [2 * (offsets[source] + s) + some
                    for s in range(mask.bit_length()) if mask >> s & 1]
            implied[head] += body
            for lit in body:
                implied[lit ^ 1].append(head ^ 1)
            clause = [head] + [lit ^ 1 for lit in body]
            for lit in clause:
                watched[lit ^ 1].append(clause)
            if not body:
                units.append(head)

    def propagate(truth, queue):
        while queue:
            lit = queue.pop()
            if truth[lit] is not None:
                if truth[lit]:
                    continue
                return None
            truth[lit], truth[lit ^ 1] = True, False
            queue += implied[lit]
            for clause in watched[lit]:
                open_lit = None
                for other in clause:
                    value = truth[other]
                    if value or (value is None and open_lit is not None):
                        break  # satisfied, or two literals open
                    if value is None:
                        open_lit = other
                else:
                    if open_lit is None:
                        return None
                    queue.append(open_lit)
        return truth

    weights = [1 << b for b in range(max(sizes, default=0))]
    found, stack = [], [propagate([None] * len(implied), units)]
    while stack:
        truth = stack.pop()
        if truth is None:
            continue
        if None in truth:
            lit = truth.index(None)  # the first undecided variable, set
            stack += [propagate(truth.copy(), [lit]),
                      propagate(truth, [lit + 1])]
        else:
            values = truth[::2]
            found.append(tuple(
                sum(itertools.compress(weights, values[off:off + n]))
                for off, n in zip(offsets, sizes)))
    free = _free_nodes(len(sizes), links)
    return sorted(found, key=lambda ms: [rank(ms[k]) for k in free])


_FLIP = str.maketrans("01", "10")


def _closed_set_rank(mask):
    """A closed set's place in its lattice: size, then point positions,
    which sort as the flipped bit strings read from point 0."""
    return mask.bit_count(), format(mask, "b")[::-1].translate(_FLIP)


def _subset_of(points):
    """Bitmask over the points -> set of points, visiting set bits only."""
    def subset(mask):
        out = []
        while mask:
            low = mask & -mask
            out.append(points[low.bit_length() - 1])
            mask ^= low
        return frozenset(out)
    return subset


def limit_semilattice(diagram: ShapedDiagram) -> MeetSemilattice:
    """Generalized limit of the closed-set lattices of a contravariant
    diagram of finite spaces.

    Elements are families (one closed set per node) compatible with
    every edge a -> b: the closed set at a is the image of the one at b.
    compatible_masks finds them as point bitmasks, in the order of a walk
    over the free nodes' lattices; they are ordered componentwise.
    """
    if diagram.variance != CONTRAVARIANT:
        raise ValidationError("limit_semilattice expects a contravariant diagram")
    nodes = list(diagram.shape.nodes)
    spaces = [diagram.node_data[n] for n in nodes]
    if not all(isinstance(s, FiniteSpace) for s in spaces):
        raise ValidationError("limit_semilattice expects finite spaces")
    index = {n: k for k, n in enumerate(nodes)}
    links = []
    for e in diagram.shape.edges:
        q = diagram.edge_data[e.id]
        over = [0] * q.target.size  # point y is in the image iff some x is
        for x, y in enumerate(q.index):
            over[y] |= 1 << x
        links.append((index[e.src], index[e.dst], over, True))
    subsets = [_subset_of(space.points) for space in spaces]
    families = [
        tuple(subset(mask) for subset, mask in zip(subsets, masks))
        for masks in compatible_masks([s.size for s in spaces], links,
                                      _closed_set_rank)]

    def leq(fa, fb):
        return all(map(operator.le, fa, fb))

    return MeetSemilattice(families, leq)
