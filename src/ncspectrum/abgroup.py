"""Finitely presented abelian groups and the generalized colimit.

A group is (number of generators, integer relation rows); elements are
integer words over the generators, equal exactly when their difference
lies in the row lattice of the relations.  Every group operation runs
on one reduced form of that lattice, built on first use: the relations
that identify two generators are substituted away, each generator
standing for the smallest one it is identified with, and the remaining
relations, rewritten that way, form a small residual lattice (the unit
pivot elimination of Havas, Holt & Rees, "Recognizing badly presented
Z-modules", LAA 192, 1993).  Nearly every relation of a colimit is such
an identification.  Words are held sparsely, as
{generator: coefficient} dicts: relation rows, the generator images of
a homomorphism and what apply and compose return.  A dense row is
accepted wherever a word is; AbHom.images is the dense view for JSON
and tests.  Homomorphisms carry a well-definedness certificate computed
at construction: every domain relation must map into the codomain's
relation lattice.

The colimit of a diagram of such groups is the direct sum of the node
groups modulo one relation per generating edge and source generator,
identifying a generator with its image; this is the quotient form of
the coequalizer-of-coproducts presentation.  Colimits of different
shapes are connected by colimit_induced, which sends the class of a
node generator to the class of its component image.  free_colimit and
free_colimit_induced give the same presentation and the same hom for K
of a diagram of finite sets, read straight off its maps of points.

>>> z = PresentedAbGroup.free(1)
>>> z2 = PresentedAbGroup(1, [[2]])
>>> element_eq(z2, (3,), (1,))
True
>>> z2.invariant_factors()
(0, (2,))
>>> AbHom(z, z2, [[1]]).apply({0: 3})
{0: 3}
"""

from __future__ import annotations

import functools

from .diagram import (COVARIANT, DiagramMorphism, ShapedDiagram,
                      find_naturality_failure, register_identity)
from .errors import Record, ValidationError, as_int
from .snf import (IntegerRowLattice, invariant_factors_of_rows,
                  preimage_row_lattice)


def _word(word, ngens: int, what: str = "word") -> dict:
    """{generator: coefficient} of the nonzero coefficients of a word
    given in that form or as a dense row of length ngens."""
    if isinstance(word, dict):
        out = {}
        for k, c in word.items():
            if type(k) is not int or type(c) is not int:
                k = as_int(k, f"{what} generator")
                c = as_int(c, f"{what} coefficient")
            if c:
                if not 0 <= k < ngens:
                    raise ValidationError(
                        f"{what} mentions generator {k} of {ngens}")
                out[k] = c
        return out
    word = tuple(c if type(c) is int else as_int(c, f"{what} coefficient")
                 for c in word)
    if len(word) != ngens:
        raise ValidationError(
            f"{what} length {len(word)} != {ngens} generators")
    return {k: c for k, c in enumerate(word) if c}


def _combine(terms, words) -> dict:
    """The sum of c * words[j] over the (j, c) in terms."""
    out = {}
    for j, c in terms:
        for k, x in words[j].items():
            v = out.get(k, 0) + c * x
            if v:
                out[k] = v
            else:
                del out[k]
    return out


class ReducedLattice:
    """The relation lattice of a presentation in reduced form.

    rep[g] is the smallest generator that a chain of identifying
    relations (one entry +1, one entry -1) joins g to; classes counts
    the distinct representatives.  residual is an echelon basis of the
    other relations, each rewritten through rep.  The rewrite of a word
    lies in the residual exactly when the word lies in the relation
    lattice, because the identifications span the kernel of the rewrite.
    """

    __slots__ = ("rep", "classes", "residual")

    def __init__(self, ngens: int, rows):
        parent = list(range(ngens))

        def root(g):
            while parent[g] != g:
                parent[g] = g = parent[parent[g]]
            return g

        others = []
        for sp in rows:
            if len(sp) == 2 and sp[0][1] + sp[1][1] == 0 and \
                    sp[0][1] in (1, -1):
                a, b = root(sp[0][0]), root(sp[1][0])
                if a < b:
                    parent[b] = a
                elif b < a:
                    parent[a] = b
            else:
                others.append(sp)
        self.rep = [root(g) for g in range(ngens)]
        self.classes = sum(1 for g, r in enumerate(self.rep) if g == r)
        self.residual = IntegerRowLattice(ngens)
        for sp in others:
            word = self.substitute(sp)
            if word:
                self.residual.insert(word)

    def substitute(self, terms) -> dict:
        """The sparse word of the (generator, coefficient) pairs in
        terms, each generator replaced by its representative."""
        rep = self.rep
        n = len(rep)
        out = {}
        for k, c in terms:
            if not 0 <= k < n:
                raise ValidationError(f"word mentions generator {k} of {n}")
            r = rep[k]
            v = out.get(r, 0) + c
            if v:
                out[r] = v
            else:
                del out[r]
        return out

    def contains(self, word) -> bool:
        """Whether a sparse word lies in the relation lattice."""
        return self.residual.contains(self.substitute(word.items()))


class PresentedAbGroup:
    """An abelian group on ngens generators with integer relation rows.

    Relations are stored sparsely; the dense matrix is available through
    .relations.  The relation lattice is held in its reduced form
    (ReducedLattice), built on first use; it and the invariant factors
    are cached.
    """

    __slots__ = ("ngens", "rows", "_lattice", "_invariants")

    def __init__(self, ngens: int, relations=()):
        ngens = as_int(ngens, "generator count")
        if ngens < 0:
            raise ValidationError("generator count must be nonnegative")
        rows = (tuple(sorted(_word(row, ngens, "relation").items()))
                for row in relations)
        self.ngens = ngens
        self.rows = tuple(sp for sp in rows if sp)
        self._lattice = None
        self._invariants = None

    @classmethod
    def free(cls, n: int) -> "PresentedAbGroup":
        return cls(n, ())

    @classmethod
    def _trusted(cls, ngens: int, rows) -> "PresentedAbGroup":
        """A group of rows the library built (sorted nonempty tuples of
        (generator, nonzero int) pairs), taken as given."""
        g = object.__new__(cls)
        g.ngens, g.rows = ngens, tuple(rows)
        g._lattice = g._invariants = None
        return g

    @property
    def relations(self):
        """Dense relation matrix (rows of length ngens)."""
        return [list(self.dense(dict(sp))) for sp in self.rows]

    @property
    def lattice(self) -> ReducedLattice:
        """The relation lattice: its contains(word) tells whether a
        sparse word of this group is zero."""
        if self._lattice is None:
            self._lattice = ReducedLattice(self.ngens, self.rows)
        return self._lattice

    def invariant_factors(self):
        """(free_rank, torsion divisors) computed from the Smith form of
        the residual basis over the identification classes."""
        if self._invariants is None:
            lat = self.lattice
            free, torsion = invariant_factors_of_rows(
                lat.residual.basis_sparse(), lat.classes)
            self._invariants = (free, tuple(torsion))
        return self._invariants

    def canonical_str(self) -> str:
        """Canonical form "Z^r + Z/d1 + ..." in divisibility order."""
        free, torsion = self.invariant_factors()
        parts = []
        if free == 1:
            parts.append("Z")
        elif free > 1:
            parts.append(f"Z^{free}")
        parts.extend(f"Z/{d}" for d in torsion)
        return " ⊕ ".join(parts) if parts else "0"

    def word(self, word) -> dict:
        """A word, sparse or dense, as {generator: coefficient}."""
        return _word(word, self.ngens)

    def dense(self, word) -> tuple:
        """A sparse word as a dense row of length ngens."""
        out = [0] * self.ngens
        for k, c in word.items():
            out[k] = c
        return tuple(out)

    def __eq__(self, other):
        if not isinstance(other, PresentedAbGroup):
            return NotImplemented
        return self.ngens == other.ngens and self.rows == other.rows

    def __hash__(self):
        return hash((self.ngens, self.rows))

    def __repr__(self):
        return f"PresentedAbGroup({self.ngens} gens, {len(self.rows)} relations)"


def element_eq(g: PresentedAbGroup, x, y) -> bool:
    """Whether two words, sparse or dense, represent the same element.

    >>> element_eq(PresentedAbGroup(2, [[1, -2]]), (1, 0), {1: 2})
    True
    """
    return g.lattice.contains(
        _combine(((0, 1), (1, -1)), (g.word(x), g.word(y))))


class AbHom:
    """A homomorphism given by generator images, sparse or dense,
    certified well-defined; words holds them sparse."""

    __slots__ = ("domain", "codomain", "words")

    def __init__(self, domain: PresentedAbGroup, codomain: PresentedAbGroup,
                 images):
        words = tuple([_word(w, codomain.ngens, "image word") for w in images])
        if len(words) != domain.ngens:
            raise ValidationError("one image word per domain generator required")
        self.domain = domain
        self.codomain = codomain
        self.words = words
        self._certify()

    @classmethod
    def _trusted(cls, domain, codomain, words) -> "AbHom":
        """A hom of words the library built (nonzero int coefficients on
        codomain generators), taken as given but still certified."""
        hom = object.__new__(cls)
        hom.domain, hom.codomain, hom.words = domain, codomain, tuple(words)
        hom._certify()
        return hom

    def _certify(self):
        if not self.domain.rows:
            return
        lattice = self.codomain.lattice
        for sp in self.domain.rows:
            if not lattice.contains(_combine(sp, self.words)):
                raise ValidationError(
                    "hom is not well-defined: a domain relation does not map "
                    "into the codomain's relation lattice")

    @property
    def images(self):
        """The generator images as dense rows of length codomain.ngens."""
        return tuple(self.codomain.dense(w) for w in self.words)

    @classmethod
    def identity(cls, g: PresentedAbGroup) -> "AbHom":
        return cls(g, g, [{i: 1} for i in range(g.ngens)])

    @classmethod
    def zero(cls, domain: PresentedAbGroup, codomain: PresentedAbGroup) -> "AbHom":
        return cls(domain, codomain, [{}] * domain.ngens)

    def apply(self, word) -> dict:
        """The image of a word, sparse or dense, as a sparse word."""
        return _combine(self.domain.word(word).items(), self.words)

    def compose(self, other: "AbHom") -> "AbHom":
        """self after other."""
        if other.codomain != self.domain:
            raise ValidationError("homs do not chain")
        return AbHom._trusted(other.domain, self.codomain,
                              [_combine(w.items(), self.words)
                               for w in other.words])

    def equal_as_maps(self, other: "AbHom") -> bool:
        """Agreement on every generator, modulo codomain relations."""
        if not isinstance(other, AbHom):
            return False
        if self.domain != other.domain or self.codomain != other.codomain:
            return False
        return all(a == b or element_eq(self.codomain, a, b)
                   for a, b in zip(self.words, other.words))

    def __eq__(self, other):
        if not isinstance(other, AbHom):
            return NotImplemented
        return (self.domain == other.domain and self.codomain == other.codomain
                and self.words == other.words)

    def __repr__(self):
        return f"AbHom({self.domain.ngens} gens -> {self.codomain.ngens} gens)"


register_identity(PresentedAbGroup, AbHom.identity)

# one shared free group per rank: groups are immutable values
free_group = functools.lru_cache(maxsize=None)(PresentedAbGroup.free)


class ColimitResult(Record):
    """Colimit presentation with its canonical injections.

    group: the quotient of the direct sum of node groups;
    injections: node id -> AbHom from that node's group;
    offsets: node id -> first generator position of its block.
    """

    __slots__ = ("group", "injections", "offsets")

    def __init__(self, group: PresentedAbGroup, injections: dict,
                 offsets: dict):
        self.group, self.injections, self.offsets = group, injections, offsets


def colimit(diagram: ShapedDiagram) -> ColimitResult:
    """Generalized colimit of a covariant diagram of presented groups.

    Generators: all node generators, concatenated in node order.
    Relations: every node relation, plus for each generating edge u and
    each source generator g the identification of (g)_src with
    (image of g)_dst.
    """
    if diagram.variance != COVARIANT:
        raise ValidationError("colimit requires a covariant diagram")
    nodes = diagram.shape.nodes
    offsets = {}
    total = 0
    for n in nodes:
        offsets[n] = total
        total += diagram.node_data[n].ngens
    rows = []
    for n in nodes:
        off = offsets[n]
        rows.extend({off + j: c for j, c in sp}
                    for sp in diagram.node_data[n].rows)
    for e in diagram.shape.edges:
        off_src = offsets[e.src]
        off_dst = offsets[e.dst]
        for i, word in enumerate(diagram.edge_data[e.id].words):
            row = {off_dst + k: -c for k, c in word.items()}
            v = row.get(off_src + i, 0) + 1
            if v:
                row[off_src + i] = v
            else:
                del row[off_src + i]
            if row:
                rows.append(row)
    group = PresentedAbGroup(total, rows)
    injections = {}
    for n in nodes:
        g = diagram.node_data[n]
        off = offsets[n]
        injections[n] = AbHom._trusted(
            g, group, [{off + i: 1} for i in range(g.ngens)])
    return ColimitResult(group=group, injections=injections, offsets=offsets)


def colimit_induced(morphism: DiagramMorphism, src_diagram: ShapedDiagram,
                    dst_diagram: ShapedDiagram,
                    src_colimit: ColimitResult | None = None,
                    dst_colimit: ColimitResult | None = None) -> AbHom:
    """The homomorphism between colimits induced by a diagram morphism:
    the class of (g)_a maps to the class of (eta_a(g))_{f(a)}.

    Naturality of the morphism is checked first; well-definedness of the
    result is certified by the AbHom constructor.
    """
    failure = find_naturality_failure(morphism, src_diagram, dst_diagram)
    if failure is not None:
        raise ValidationError(
            f"diagram morphism is not natural (edge {failure})")
    if src_colimit is None:
        src_colimit = colimit(src_diagram)
    if dst_colimit is None:
        dst_colimit = colimit(dst_diagram)
    words = []
    for n in src_diagram.shape.nodes:
        target = morphism.node_map[n]
        component = morphism.components[n]
        if component.codomain != dst_diagram.node_data[target]:
            raise ValidationError(f"component at {n} misses node {target}")
        off = dst_colimit.offsets[target]
        words.extend({off + k: c for k, c in w.items()}
                     for w in component.words)
    return AbHom._trusted(src_colimit.group, dst_colimit.group, words)


def free_colimit(sizes: dict, edges: dict) -> ColimitResult:
    """colimit of K over a diagram of finite sets, read off its maps.

    sizes[n] is the point count of node n, in node order, and edges maps
    each edge id, in edge order, to (src, dst, index), index[j] the point
    of src that point j of dst maps to: the spectrum of an arrow
    src -> dst runs the other way.  K takes a node to the free group on
    its points and the edge to the hom sending generator i of src to the
    sum of the generators of dst over i, and the presentation is
    colimit's of that diagram of free groups: the generators in node
    order, then for each edge and each point i of src the row
    g(src, i) - sum of g(dst, j) over index[j] = i.
    """
    offsets = {}
    total = 0
    for n, size in sizes.items():
        offsets[n] = total
        total += size
    rows = []
    for s, t, index in edges.values():
        off_s, off_t = offsets[s], offsets[t]
        over = [[] for _ in range(sizes[s])]
        for g, i in enumerate(index, off_t):
            over[i].append((g, -1))
        if s != t:
            # the two nodes' generators do not interleave: rows are sorted
            rows.extend([((off_s + i, 1), *terms) if off_s < off_t else
                         (*terms, (off_s + i, 1))
                         for i, terms in enumerate(over)])
            continue
        for i, terms in enumerate(over):
            # on a loop, g(s, i) cancels when i lies over itself
            row = dict(terms)
            if not row.pop(off_s + i, 0):
                row[off_s + i] = 1
            if row:
                rows.append(tuple(sorted(row.items())))
    group = PresentedAbGroup._trusted(total, rows)
    injections = {}
    for n, size in sizes.items():
        off = offsets[n]
        injections[n] = AbHom._trusted(free_group(size), group, [
            {g: 1} for g in range(off, off + size)])
    return ColimitResult(group=group, injections=injections, offsets=offsets)


def free_colimit_induced(src_edges: dict, dst_edges: dict, node_map: dict,
                         edge_map: dict, components: dict,
                         src_colimit: ColimitResult,
                         dst_colimit: ColimitResult) -> AbHom:
    """colimit_induced between two free_colimit presentations, read off
    a morphism of their diagrams of finite sets.

    src_edges and dst_edges are the edges of the two diagrams, as for
    free_colimit.  node_map and edge_map are f, as in DiagramMorphism,
    and components[a] maps the points of f(a) to those of a; K of it is
    the component at a.  The class of g(a, i) maps to the sum of the
    g(f(a), j) over components[a][j] = i.  colimit_induced's checks run
    in its order, with its messages: every edge has an image path from
    f(src) to f(dst), every square commutes, every component lands on
    its node's points, and the result is certified well defined.
    """
    sizes = {n: inj.domain.ngens for n, inj in dst_colimit.injections.items()}
    for eid, (a, b, index) in src_edges.items():
        if eid not in edge_map:
            raise ValidationError(f"morphism missing image for edge {eid}")
        path = edge_map[eid]
        fa, fb = node_map[a], node_map[b]
        start = end = dst_edges[path[0]][0] if path else fa
        for step in path:
            if dst_edges[step][0] != end:
                raise ValidationError(f"path breaks at edge {step}")
            end = dst_edges[step][1]
        if (start, end) != (fa, fb):
            raise ValidationError(f"image path of edge {eid} runs "
                                  f"{start}->{end}, expected {fa}->{fb}")
        ca, cb = components[a], components[b]
        if len(ca) != sizes[fa]:
            raise ValidationError("homs do not chain")
        # The square eta_b K(u) = K(path) eta_a is K of the square of
        # maps index . cb = ca . back from the points of f(b) to those
        # of a, back following the path's index maps from f(b) to f(a).
        # K is faithful on maps of finite sets: K(h) sends a point y to
        # the sum of the points over y, so point x occurs in the image
        # of exactly h(x), and K(h) = K(h') forces h = h'.  The square
        # of groups commutes exactly when the square of maps does.
        back = range(sizes[fb])
        for step in reversed(path):
            step_index = dst_edges[step][2]
            back = [step_index[y] for y in back]
        if len(cb) != sizes[fb] or \
                [index[y] for y in cb] != [ca[x] for x in back]:
            raise ValidationError(
                f"diagram morphism is not natural (edge {eid})")
    words = []
    for a, inj in src_colimit.injections.items():
        target, component = node_map[a], components[a]
        if len(component) != sizes[target]:
            raise ValidationError(f"component at {a} misses node {target}")
        over = [{} for _ in range(inj.domain.ngens)]
        for g, i in enumerate(component, dst_colimit.offsets[target]):
            over[i][g] = 1
        words.extend(over)
    return AbHom._trusted(src_colimit.group, dst_colimit.group, words)


def kernel(hom: AbHom):
    """Presentation of the kernel of a homomorphism, with its inclusion.

    Kernel generators form an echelon basis of the lattice of words x
    whose images xA land in the codomain's relation lattice L.  That
    holds exactly when the rewrite of xA onto the codomain's
    representatives lies in its residual lattice, so the basis is found
    by echelonizing the rewritten image words beside an identity block
    together with the residual basis (preimage_row_lattice).  The
    kernel lattice contains the domain's relation lattice, so the kernel
    relations are just the coordinates of the domain relations over the
    kernel basis (a triangular solve, no second normal form needed).
    """
    domain, codomain = hom.domain, hom.codomain
    lat = codomain.lattice
    klat = preimage_row_lattice([lat.substitute(w.items()) for w in hom.words],
                                lat.residual.basis_sparse(), codomain.ngens)
    gens = klat.basis_sparse()
    rels = []
    for row in domain.rows:
        coords = klat.coordinates(dict(row))
        if coords is None:
            raise ValidationError(
                "internal error: a domain relation escapes the kernel lattice")
        rels.append(coords)
    group = PresentedAbGroup(len(gens), rels)
    inclusion = AbHom._trusted(group, domain, gens)
    return group, inclusion


def cocone_factorization(diagram: ShapedDiagram, colim: ColimitResult,
                         target: PresentedAbGroup, legs: dict) -> AbHom:
    """The unique homomorphism from the colimit factoring a cocone.

    legs maps each node to an AbHom into the target; they must commute
    with every edge.  The factoring hom is forced on generators, and its
    construction certifies that the cocone respects the relations.
    """
    for e in diagram.shape.edges:
        hom = diagram.edge_data[e.id]
        left = legs[e.dst].compose(hom)
        if not left.equal_as_maps(legs[e.src]):
            raise ValidationError(f"cocone does not commute with edge {e.id}")
    words = []
    for n in diagram.shape.nodes:
        words.extend(legs[n].words)
    return AbHom(colim.group, target, words)


__all__ = [
    "PresentedAbGroup", "AbHom", "ColimitResult",
    "element_eq", "colimit", "colimit_induced", "free_colimit",
    "free_colimit_induced", "kernel", "cocone_factorization",
]
