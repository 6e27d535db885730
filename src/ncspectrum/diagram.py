"""Finite shaped diagrams and morphisms between diagrams of different shapes.

A Shape is a finite generating graph, not a full category: colimits over
a category agree with colimits over any generating graph of it, and all
constructions used here are determined on generators.  Diagrams carry a
variance flag; for a covariant diagram an edge a -> b holds a morphism
from the data at a to the data at b, for a contravariant one the
morphism runs the other way.

A DiagramMorphism is a pair (f, eta): f maps nodes to nodes and each
generating edge to a composable path of target edges, and eta gives one
component morphism per source node.  Components point forward
(source-object to target-object) for morphisms of covariant diagrams
and backward after postcomposing with a contravariant functor.

Morphism values are duck-typed: they need .domain, .codomain, a
.compose(other) meaning self-after-other, and equality (an
equal_as_maps method is preferred when present, so abelian-group
homomorphisms compare modulo relations).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError

COVARIANT = "covariant"
CONTRAVARIANT = "contravariant"

FORWARD = "forward"
BACKWARD = "backward"

# type of node data -> callable producing an identity morphism on it
_IDENTITY_BUILDERS = {}


def register_identity(data_type, builder):
    _IDENTITY_BUILDERS[data_type] = builder


def identity_morphism_on(obj):
    for klass, builder in _IDENTITY_BUILDERS.items():
        if isinstance(obj, klass):
            return builder(obj)
    raise ValidationError(f"no identity builder registered for {type(obj).__name__}")


def maps_equal(f, g) -> bool:
    if hasattr(f, "equal_as_maps"):
        return f.equal_as_maps(g)
    return f == g


@dataclass(frozen=True)
class Edge:
    id: str
    src: str
    dst: str


class Shape:
    """Nodes and generating edges of a small diagram shape."""

    __slots__ = ("nodes", "edges", "_edge_by_id")

    def __init__(self, nodes, edges):
        self.nodes = tuple(nodes)
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise ValidationError("duplicate node ids")
        edges = tuple(Edge(*e) if not isinstance(e, Edge) else e for e in edges)
        for e in edges:
            if e.src not in node_set or e.dst not in node_set:
                raise ValidationError(f"edge {e.id} has a dangling endpoint")
        ids = [e.id for e in edges]
        if len(set(ids)) != len(ids):
            raise ValidationError("duplicate edge ids")
        self.edges = edges
        self._edge_by_id = {e.id: e for e in edges}

    def edge(self, edge_id: str) -> Edge:
        return self._edge_by_id[edge_id]

    def __eq__(self, other):
        if not isinstance(other, Shape):
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __repr__(self):
        return f"Shape({len(self.nodes)} nodes, {len(self.edges)} edges)"


class ShapedDiagram:
    """A shape together with node data and edge morphisms."""

    __slots__ = ("shape", "node_data", "edge_data", "variance", "meta")

    def __init__(self, shape, node_data, edge_data, variance=COVARIANT,
                 meta=None):
        if variance not in (COVARIANT, CONTRAVARIANT):
            raise ValidationError(f"unknown variance {variance!r}")
        self.shape = shape
        self.node_data = dict(node_data)
        self.edge_data = dict(edge_data)
        self.variance = variance
        self.meta = meta or {}
        self._validate()

    def _validate(self):
        for n in self.shape.nodes:
            if n not in self.node_data:
                raise ValidationError(f"missing data for node {n}")
        for e in self.shape.edges:
            if e.id not in self.edge_data:
                raise ValidationError(f"missing morphism for edge {e.id}")
            mor = self.edge_data[e.id]
            want_dom = self.node_data[self.edge_source_node(e)]
            want_cod = self.node_data[self.edge_target_node(e)]
            if mor.domain != want_dom or mor.codomain != want_cod:
                raise ValidationError(
                    f"edge {e.id}: morphism endpoints do not match node data"
                )

    def edge_source_node(self, e: Edge) -> str:
        """Node holding the morphism's domain, per variance."""
        return e.src if self.variance == COVARIANT else e.dst

    def edge_target_node(self, e: Edge) -> str:
        return e.dst if self.variance == COVARIANT else e.src

    def compose_path(self, path, node_if_empty: str):
        """Composite morphism along a path of edge ids (in diagram order:
        path[0] is traversed first).  Empty path gives the identity on
        the given node's data."""
        if not path:
            return identity_morphism_on(self.node_data[node_if_empty])
        mor = None
        for eid in path:
            step = self.edge_data[eid]
            mor = step if mor is None else (
                step.compose(mor) if self.variance == COVARIANT
                else mor.compose(step)
            )
        return mor

    def path_endpoints(self, path, node_if_empty: str):
        if not path:
            return node_if_empty, node_if_empty
        first = self.shape.edge(path[0])
        last = self.shape.edge(path[-1])
        cur = first.src
        for eid in path:
            e = self.shape.edge(eid)
            if e.src != cur:
                raise ValidationError(f"path breaks at edge {eid}")
            cur = e.dst
        return first.src, last.dst

    def __repr__(self):
        return (f"ShapedDiagram({self.variance}, {len(self.shape.nodes)} nodes, "
                f"{len(self.shape.edges)} edges)")


@dataclass
class DiagramMorphism:
    """A pair (f, eta) between shaped diagrams.

    node_map/edge_map describe f; components holds eta, one morphism per
    source node.  direction says which way components point relative to
    the two diagrams' node data.
    """

    node_map: dict
    edge_map: dict  # edge id -> tuple of target edge ids (a path)
    components: dict
    direction: str = FORWARD

    def __post_init__(self):
        self.edge_map = {k: tuple(v) for k, v in self.edge_map.items()}

    @classmethod
    def identity(cls, diagram: ShapedDiagram) -> "DiagramMorphism":
        return cls(
            node_map={n: n for n in diagram.shape.nodes},
            edge_map={e.id: (e.id,) for e in diagram.shape.edges},
            components={n: identity_morphism_on(diagram.node_data[n])
                        for n in diagram.shape.nodes},
            direction=FORWARD if diagram.variance == COVARIANT else BACKWARD,
        )

    def __eq__(self, other):
        if not isinstance(other, DiagramMorphism):
            return NotImplemented
        return (self.node_map == other.node_map
                and self.edge_map == other.edge_map
                and self.direction == other.direction
                and self.components.keys() == other.components.keys()
                and all(maps_equal(self.components[k], other.components[k])
                        for k in self.components))


def find_naturality_failure(m: DiagramMorphism, d1: ShapedDiagram,
                            d2: ShapedDiagram):
    """First edge id u: a -> b whose square eta_b . D1(u) = D2(f u) . eta_a
    fails, or None.  Both diagrams must be covariant and the morphism
    must point forward."""
    if not (d1.variance == d2.variance == COVARIANT and m.direction == FORWARD):
        raise ValidationError("naturality is checked for a forward morphism "
                              "of covariant diagrams")
    for e in d1.shape.edges:
        if e.id not in m.edge_map:
            raise ValidationError(f"morphism missing image for edge {e.id}")
        path = m.edge_map[e.id]
        fa, fb = m.node_map[e.src], m.node_map[e.dst]
        start, end = d2.path_endpoints(path, fa)
        if (start, end) != (fa, fb):
            raise ValidationError(
                f"image path of edge {e.id} runs {start}->{end}, expected {fa}->{fb}"
            )
        lhs = m.components[e.dst].compose(d1.edge_data[e.id])
        rhs = d2.compose_path(path, fa).compose(m.components[e.src])
        if not maps_equal(lhs, rhs):
            return e.id
    return None


def compose_morphisms(m2: DiagramMorphism, m1: DiagramMorphism) -> DiagramMorphism:
    """m2 after m1: node maps compose, the component at a is
    mu_{f(a)} . eta_a."""
    if m1.direction != FORWARD or m2.direction != FORWARD:
        raise ValidationError("only forward morphisms compose here")
    for n in m1.node_map.values():
        if n not in m2.node_map:
            raise ValidationError("morphisms do not chain on nodes")
    node_map = {a: m2.node_map[b] for a, b in m1.node_map.items()}
    edge_map = {}
    for eid, path in m1.edge_map.items():
        out = []
        for step in path:
            out.extend(m2.edge_map[step])
        edge_map[eid] = tuple(out)
    components = {
        a: m2.components[m1.node_map[a]].compose(m1.components[a])
        for a in m1.components
    }
    return DiagramMorphism(node_map, edge_map, components, FORWARD)


@dataclass(frozen=True)
class Functor:
    """An object/morphism transformer between the data categories used here."""

    on_object: callable
    on_morphism: callable
    contravariant: bool = False
    name: str = ""


def postcompose(functor: Functor, diagram: ShapedDiagram,
                morphism: DiagramMorphism | None = None):
    """Apply a functor to every node and edge of a diagram, and to the
    components of an accompanying morphism.  A contravariant functor
    flips the diagram's variance and the morphism's direction."""
    node_data = {n: functor.on_object(x) for n, x in diagram.node_data.items()}
    edge_data = {e: functor.on_morphism(h) for e, h in diagram.edge_data.items()}
    variance = diagram.variance
    if functor.contravariant:
        variance = CONTRAVARIANT if variance == COVARIANT else COVARIANT
    out = ShapedDiagram(diagram.shape, node_data, edge_data, variance,
                        meta=dict(diagram.meta))
    if morphism is None:
        return out, None
    direction = morphism.direction
    if functor.contravariant:
        direction = BACKWARD if direction == FORWARD else FORWARD
    new_m = DiagramMorphism(
        node_map=dict(morphism.node_map),
        edge_map=dict(morphism.edge_map),
        components={n: functor.on_morphism(c)
                    for n, c in morphism.components.items()},
        direction=direction,
    )
    return out, new_m


def find_path(diagram: ShapedDiagram, src: str, dst: str, allowed=None):
    """BFS path (tuple of edge ids) from src to dst in the shape graph,
    optionally restricted to a predicate on edges.  None if unreachable."""
    if src == dst:
        return ()
    adj = {}
    for e in diagram.shape.edges:
        if allowed is not None and not allowed(e):
            continue
        adj.setdefault(e.src, []).append(e)
    seen = {src: ()}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for e in adj.get(node, ()):  # deterministic: shape edge order
                if e.dst not in seen:
                    seen[e.dst] = seen[node] + (e.id,)
                    if e.dst == dst:
                        return seen[e.dst]
                    nxt.append(e.dst)
        frontier = nxt
    return None
