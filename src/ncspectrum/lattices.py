"""Finite meet-semilattices, closed-set lattices, and the generalized limit.

Closed sets of a finite discrete space are just subsets of its points;
the closed-set functor sends a space map to the image map on subsets.
The generalized limit of a contravariant diagram of finite lattices is
the set of edge-compatible families; those families are closed under
componentwise joins, so binary meets exist as greatest compatible lower
bounds (computed inside the family set, not componentwise).

compatible_assignments is the one enumeration engine for both limits
of the ideal side: limit_semilattice passes one rule per edge over the
lattice elements, and ideals.enumerate_partial_ideals one rule per
inclusion or rotation edge over atom-subset bitmasks.
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

    def index(self, x) -> int:
        return self._pos[x]

    def order_isomorphic_via(self, mapping: dict, other: "MeetSemilattice",
                             reverse: bool = False) -> bool:
        """Whether mapping is a bijection preserving order (or reversing
        it when reverse is set)."""
        if set(mapping) != set(self.elements):
            return False
        if set(mapping.values()) != set(other.elements):
            return False
        if len(set(mapping.values())) != len(mapping):
            return False
        for a in self.elements:
            for b in self.elements:
                fwd = self.leq(a, b)
                img = other.leq(mapping[a], mapping[b]) if not reverse \
                    else other.leq(mapping[b], mapping[a])
                if fwd != img:
                    return False
        return True

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


def _plan(nodes, rules):
    """Free nodes, setting rules and checked rules, from the shape alone.

    Free nodes are those no rule sets, then, in node order, any node
    still unreached.  Every other node is set by the first rule that
    reaches it from a set node; the other rules are checked.
    """
    setters_of = {n: [] for n in nodes}
    for k, (target, source, _f) in enumerate(rules):
        if target != source:
            setters_of[target].append(k)
    free, steps, reached = [], [], set()
    for n in [n for n in nodes if not setters_of[n]] + nodes:
        if n in reached:
            continue
        free.append(n)
        reached.add(n)
        changed = True
        while changed:
            changed = False
            for m in nodes:
                if m in reached:
                    continue
                k = next((k for k in setters_of[m] if rules[k][1] in reached),
                         None)
                if k is not None:
                    reached.add(m)
                    steps.append(k)
                    changed = True
    used = set(steps)
    return (free, [rules[k] for k in steps],
            [r for k, r in enumerate(rules) if k not in used])


def compatible_assignments(nodes, domains, rules):
    """Every assignment of a value to each node that obeys every rule.

    domains maps each node to its values; a rule (target, source, f),
    with f mapping the source's domain into the target's, requires
    value[target] == f(value[source]).  Walks the product of the free
    nodes' domains in order and yields value tuples in node order.

    >>> rules = [("b", "a", lambda x: x % 2)]
    >>> list(compatible_assignments(["a", "b"], {"a": range(3), "b": (0, 1)},
    ...                             rules))
    [(0, 0), (1, 1), (2, 0)]
    """
    nodes = list(nodes)
    free, steps, checks = _plan(nodes, rules)
    for choice in itertools.product(*(domains[n] for n in free)):
        value = dict(zip(free, choice))
        for target, source, f in steps:
            value[target] = f(value[source])
        if all(value[target] == f(value[source])
               for target, source, f in checks):
            yield tuple(value[n] for n in nodes)


def limit_semilattice(diagram: ShapedDiagram) -> MeetSemilattice:
    """Generalized limit of a contravariant diagram of finite lattices.

    Elements are families (one lattice element per node) compatible with
    every generating edge's map: an edge a -> b asks the value at a to
    be the image of the value at b.  The families are enumerated by
    compatible_assignments and ordered componentwise.
    """
    if diagram.variance != CONTRAVARIANT:
        raise ValidationError("limit_semilattice expects a contravariant diagram")
    nodes = list(diagram.shape.nodes)
    lattices = {n: diagram.node_data[n] for n in nodes}
    rules = [(e.src, e.dst, diagram.edge_data[e.id])
             for e in diagram.shape.edges]
    families = list(compatible_assignments(
        nodes, {n: lattices[n].elements for n in nodes}, rules))
    if not families:
        raise ValidationError("limit is empty: no compatible families")

    def leq(fa, fb):
        return all(lattices[n].leq(a, b)
                   for n, a, b in zip(nodes, fa, fb))

    return MeetSemilattice(families, leq)
