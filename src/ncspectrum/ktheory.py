"""K-theory of finite spectra and the diagram route to K0.

The pipeline: a finite generated subdiagram of commutative subalgebras
of a multi-matrix algebra, its spectra, topological K of each spectrum,
then the generalized colimit.  The resulting group comes with classes
for diagonal projections, and the comparison map from the standard
rank-vector K0 is checked to be an isomorphism by constructing an
explicit inverse on generators.

The full diagram of commutative subalgebras is infinite; any finite
sample that still generates its identifications has the same colimit.
The default sample is such a generating set: the coarsest and the
finest diagonal partition, rotated copies under one permutation (the
product of every block's cycle) and one Pythagorean rotation for the
whole algebra, inclusion edges between them and a rotation edge per
rotation at each base node.  A diagram that a morphism maps into is
closed under the images of the source's base nodes and rotations
(image_closed_spec).  When a sample is too coarse for an isomorphism
check, that is reported loudly, never silently accepted.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from collections import Counter
from itertools import accumulate

from .abgroup import (AbHom, ColimitResult, PresentedAbGroup, _combine,
                      colimit, colimit_induced, element_eq, kernel)
from .algebra import (AlgebraElement, InnerAutomorphism, MultiMatrixAlgebra,
                      StarHom, pythagorean_unitary, stabilize, unitalize)
from .diagram import (COVARIANT, FORWARD, DiagramMorphism, Functor, Shape,
                      ShapedDiagram, find_path, postcompose)
from .errors import (FrozenRecord, Record, SubdiagramInsufficientError,
                     ValidationError, VerificationError, as_int)
from .snf import IntegerRowLattice
from .subalgebra import (CommSubalgebra, FiniteSpace, SpaceMap,
                         SpectrumFunctor, SubalgebraArrow,
                         partition_subalgebra, spectrum)


def K_of_space(space: FiniteSpace) -> PresentedAbGroup:
    """Free abelian group with one generator per point, in point order."""
    if space.size == 0:
        raise ValidationError("K of the empty space is not used here: "
                              "spectra of unital algebras are nonempty")
    return _free_group(space.size)


# one shared free group per rank: groups are immutable values
_free_group = functools.lru_cache(maxsize=None)(PresentedAbGroup.free)


def K_of_map(q: SpaceMap) -> AbHom:
    """Contravariant K of a map of finite spaces.

    Sends the generator at a target point to the sum of generators over
    its preimage (pullback of trivial bundles).
    """
    words = [{} for _ in range(q.target.size)]
    for x, y in enumerate(q.index):
        words[y][x] = 1
    return AbHom._trusted(K_of_space(q.target), K_of_space(q.source), words)


KFunctor = Functor(on_object=K_of_space, on_morphism=K_of_map,
                   contravariant=True, name="K")


def partition_label(parts) -> str:
    return "|".join(",".join(str(c) for c in sorted(p)) for p in parts)


class SubdiagramSpec(FrozenRecord):
    """A finite generating set for the diagram of commutative subalgebras.

    The sampled diagram has three kinds of node: base nodes, which are
    the diagonal partition subalgebras of the coarsest and the finest
    partition plus every partition listed in partitions; and the copies
    of the base nodes rotated by each of the rotations.  Its edges are
    the covering pairs of the refinement order among the base
    partitions, mirrored into each rotated sheet, and one rotation edge
    per rotation at every base node.

    rotations: inner automorphisms whose rotated sheets and rotation
    edges generate the identifications.  partitions: extra base
    partitions of the diagonal coordinates, each an iterable of
    coordinate sets; empty by default.
    """

    __slots__ = ("rotations", "partitions", "label")

    def __init__(self, rotations=(), partitions=(), label: str = "custom"):
        self.rotations = tuple(rotations)
        self.partitions = tuple(tuple(frozenset(p) for p in parts)
                                for parts in partitions)
        self.label = label

    @classmethod
    def default(cls, algebra: MultiMatrixAlgebra) -> "SubdiagramSpec":
        """When some block has size >= 2: the permutation cycles, the
        product of every block's cycle c -> c + 1 mod n (the swap of a
        2-block), and one Pythagorean rotation on the first largest
        block.  A permutation maps the coarsest and the finest node onto
        themselves, so only the Pythagorean rotation builds a sheet of
        new atoms, and the sample grows linearly with the coordinates."""
        big = max(range(algebra.nblocks), key=lambda b: algebra.blocks[b])
        if algebra.blocks[big] < 2:
            return cls(label="default")
        perm = [offset + (c + 1) % n for offset, n in
                zip(accumulate(algebra.blocks, initial=0), algebra.blocks)
                for c in range(n)]
        return cls(rotations=(
            InnerAutomorphism.permutation(algebra, perm, "cycles"),
            pythagorean_unitary(algebra, big)), label="default")

    def describe(self) -> str:
        names = ",".join(a.name for a in self.rotations)
        parts = ";".join(partition_label(sorted(p, key=min))
                         for p in self.partitions)
        return f"{self.label}(rotations=[{names}], partitions=[{parts}])"


def _refines(fine, coarse) -> bool:
    """Whether every part of the partition fine lies in a part of coarse."""
    return all(any(p <= q for q in coarse) for p in fine)


def build_subdiagram(algebra: MultiMatrixAlgebra,
                     spec: SubdiagramSpec | None = None) -> ShapedDiagram:
    """The sampled diagram of commutative subalgebras of an algebra.

    Nodes: the spec's base partition subalgebras (coarsest, listed
    partitions, finest) and their rotated copies.  Edges: covering
    refinement inclusions among the base nodes (mirrored into each
    rotated sheet) and a rotation edge per rotation at every base node,
    except a loop with the identity map, which gives no relation.

    A rotation moves exactly the finest atoms of its support, so one
    with empty support is dropped, and one that moves the atoms of its
    support as an earlier one does gets no nodes or edges of its own;
    its meta["rotation_edges"] entries name the earlier rotation's
    edges.  Only the atoms a rotation moves are conjugated, and a
    permutation rotation moves a diagonal atom onto one already built
    when there is one.  Node and edge order is deterministic.
    """
    if spec is None:
        spec = SubdiagramSpec.default(algebra)
    n = algebra.coord_count
    coarsest = (frozenset(range(n)),)
    finest = tuple(frozenset([c]) for c in range(n))

    node_ids = []
    node_data = {}
    by_key = {}
    base_ids = []
    parts_by_id = {}
    for parts in (coarsest,) + spec.partitions + (finest,):
        u = partition_subalgebra(algebra, parts)
        parts = tuple(sorted(parts, key=min))
        nid = "d:" + partition_label(parts)
        if nid in node_data:
            continue
        node_ids.append(nid)
        node_data[nid] = u
        by_key[u.key] = nid
        base_ids.append(nid)
        parts_by_id[nid] = parts
    fine_id = "d:" + partition_label(finest)

    # a unitary moves the finest atom of c iff c is in its support (off
    # it, u is a unimodular diagonal).  One that moves them as an
    # earlier one does moves every base atom (a sum of finest atoms) so
    # too, and shares that rotation's nodes and edges; the sharing key
    # writes a diagonal image as its coordinate, as a permutation does.
    by_mask = {p.diag_mask: p for bid in base_ids
               for p in node_data[bid].atoms}

    def image(alpha, p):
        # a diagonal image is the atom already emitted with its mask
        q = alpha.conjugate(p)
        mask = q.diag_mask
        return q if q is p or mask is None else by_mask.setdefault(mask, q)

    kept, fine_moves, first = [], [], []
    first_by_moves = {}
    fine_atoms = node_data[fine_id].atoms
    for alpha in spec.rotations:
        if alpha.algebra != algebra:
            raise ValidationError("rotation lives in a different algebra")
        support, perm = alpha.support, alpha.coord_perm
        if not support:
            continue
        moves = {c: fine_atoms[perm[c]] if perm is not None else
                 image(alpha, fine_atoms[c]) for c in support}
        key = frozenset((c, min(q.diag_mask) if q.diag_mask else q)
                        for c, q in moves.items())
        first.append(first_by_moves.setdefault(key, len(kept)))
        kept.append(alpha)
        fine_moves.append(moves)
    generating = [r for r, f in enumerate(first) if f == r]

    # rotated copies; placement maps raw conjugate order to node atom order
    placements = {}
    for r in generating:
        alpha, moves = kept[r], fine_moves[r]
        for bid in base_ids:
            u = node_data[bid]
            raw = tuple(moves.get(c, p) for c, p in enumerate(u.atoms)) \
                if bid == fine_id else tuple(image(alpha, p) for p in u.atoms)
            key = frozenset(raw)
            tid = by_key.get(key)
            if tid is None:
                v = CommSubalgebra(algebra, raw, validate=False)
                tid = f"r{r}:{bid}"
                node_ids.append(tid)
                node_data[tid] = v
                by_key[v.key] = tid
                placement = tuple(range(len(raw)))
            else:
                v = node_data[tid]
                placement = tuple(v.atom_index(p) for p in raw)
            placements[(r, bid)] = (tid, placement, raw)

    edges = []
    edge_data = {}
    incl_pairs = set()

    def add_inclusion(src, dst, spectrum_cache=None):
        if src == dst or (src, dst) in incl_pairs:
            return
        incl_pairs.add((src, dst))
        eid = f"i:{src}=>{dst}"
        edges.append((eid, src, dst))
        edge_data[eid] = SubalgebraArrow(
            node_data[src], node_data[dst], node_data[src].atoms,
            kind="inclusion", spectrum_cache=spectrum_cache)

    # base inclusion edges: the covering pairs of the refinement order
    finer = {(s, t) for s in base_ids for t in base_ids
             if s != t and _refines(parts_by_id[t], parts_by_id[s])}
    cover_list = [(s, t) for t in base_ids for s in base_ids
                  if (s, t) in finer and not any(
                      (s, r) in finer and (r, t) in finer for r in base_ids)]
    for sid, tid in cover_list:
        add_inclusion(sid, tid)

    # mirrored inclusion edges inside each rotated sheet
    for r in generating:
        for (sid, tid) in cover_list:
            s2, ps, _ = placements[(r, sid)]
            t2, pt, _ = placements[(r, tid)]
            if s2 == t2 or (s2, t2) in incl_pairs:
                continue
            index = [0] * len(pt)
            base_map = edge_data[f"i:{sid}=>{tid}"].spectrum_map()
            for j, i in enumerate(base_map.index):
                index[pt[j]] = ps[i]
            add_inclusion(s2, t2, spectrum_cache=SpaceMap(
                spectrum(node_data[t2]), spectrum(node_data[s2]), index))

    # rotation edges; a loop with the identity placement gives only zero
    # relations and is left out.  The placement is a bijection, so its
    # inverse is the edge's spectrum map
    rotation_edges = {}
    for r, alpha in enumerate(kept):
        for bid in base_ids:
            if first[r] != r:
                eid = rotation_edges.get((first[r], bid))
                if eid is not None:
                    rotation_edges[(r, bid)] = eid
                continue
            tid, placement, raw = placements[(r, bid)]
            if tid == bid and raw == node_data[bid].atoms:
                continue
            eid = f"t{r}:{bid}"
            edges.append((eid, bid, tid))
            index = [0] * len(placement)
            for i, j in enumerate(placement):
                index[j] = i
            edge_data[eid] = SubalgebraArrow(
                node_data[bid], node_data[tid], raw, kind="rotation",
                unitary=alpha, spectrum_cache=SpaceMap(
                    spectrum(node_data[tid]), spectrum(node_data[bid]), index))
            rotation_edges[(r, bid)] = eid

    shape = Shape(node_ids, edges)
    meta = {
        "algebra": algebra,
        "spec": spec,
        "fine": fine_id,
        "base_ids": tuple(base_ids),
        "by_key": by_key,
        "rotations": tuple(kept),
        "rotation_edges": rotation_edges,
    }
    return ShapedDiagram(shape, node_data, edge_data, COVARIANT, meta=meta)


class KTildeContext(Record):
    __slots__ = ("algebra", "spec", "diagram", "colim")

    def __init__(self, algebra: MultiMatrixAlgebra, spec: SubdiagramSpec,
                 diagram: ShapedDiagram, colim: ColimitResult):
        self.algebra, self.spec = algebra, spec
        self.diagram, self.colim = diagram, colim


class K0Group:
    """A K0-style group together with the classes of rank vectors.

    class_of is additive in the rank vector by construction.  Groups
    produced by the diagram route keep enough context to also resolve
    the class of an explicit projection.
    """

    __slots__ = ("group", "block_words", "context")

    def __init__(self, group: PresentedAbGroup, block_words,
                 context: KTildeContext | None = None):
        self.group = group
        self.block_words = tuple(group.word(w) for w in block_words)
        self.context = context

    @property
    def nblocks(self) -> int:
        return len(self.block_words)

    def class_of(self, ranks):
        """Dense group word of the class with the given per-block ranks."""
        ranks = tuple(as_int(r, "rank") for r in ranks)
        if len(ranks) != self.nblocks:
            raise ValidationError("one rank per block required")
        word = [0] * self.group.ngens
        for r, bw in zip(ranks, self.block_words):
            for k, c in bw.items():
                word[k] += r * c
        return tuple(word)

    def class_of_projection(self, p: AlgebraElement):
        """Colimit class of a projection: the sum of the classes of the
        atoms under p at the first node, in node order, whose atoms under
        p sum to p.  Zero and the identity resolve at the coarsest node."""
        ctx = self.context
        if ctx is None:
            return self.class_of(p.rank_vector())
        if p.algebra != ctx.algebra:
            raise ValidationError("projection lives in a different algebra")
        if not p.is_projection():
            raise ValidationError("class_of_projection needs a projection")
        dia = ctx.diagram
        for nid in dia.shape.nodes:
            under = dia.node_data[nid].atoms_under(p)
            if under is not None:
                off = ctx.colim.offsets[nid]
                word = [0] * self.group.ngens
                for i in under:
                    word[off + i] += 1
                return tuple(word)
        raise SubdiagramInsufficientError(
            "projection class is not resolvable in the sampled subdiagram",
            witness={"rank_vector": p.rank_vector()})

    def invariant_factors(self):
        return self.group.invariant_factors()

    def canonical_str(self) -> str:
        return self.group.canonical_str()

    def __repr__(self):
        return f"K0Group({self.canonical_str()})"


def k0_standard(algebra: MultiMatrixAlgebra) -> K0Group:
    """Independent oracle: the free group on the block rank-1 classes.

    This realizes the universal group of the projection monoid directly,
    using that unitary equivalence of projections in a multi-matrix
    algebra is exactly equality of rank vectors.
    """
    k = algebra.nblocks
    return K0Group(PresentedAbGroup.free(k), [{i: 1} for i in range(k)])


def k0_standard_hom(phi: StarHom) -> AbHom:
    """The multiplicity matrix acting on rank vectors."""
    k_dom = phi.domain.nblocks
    k_cod = phi.codomain.nblocks
    images = [[phi.multiplicity[i][j] for i in range(k_cod)]
              for j in range(k_dom)]
    return AbHom(PresentedAbGroup.free(k_dom), PresentedAbGroup.free(k_cod),
                 images)


def _ab_diagram(diagram: ShapedDiagram, morphism=None):
    spaces, m1 = postcompose(SpectrumFunctor, diagram, morphism)
    return postcompose(KFunctor, spaces, m1)


def _ktilde_from(algebra: MultiMatrixAlgebra, dia: ShapedDiagram,
                 colim: ColimitResult) -> K0Group:
    off = colim.offsets[dia.meta["fine"]]
    ctx = KTildeContext(algebra, dia.meta["spec"], dia, colim)
    return K0Group(colim.group, [{off + algebra.block_offset(i): 1}
                                 for i in range(algebra.nblocks)], ctx)


def k_tilde_f(algebra: MultiMatrixAlgebra, spec: SubdiagramSpec | None = None,
              diagram: ShapedDiagram | None = None) -> K0Group:
    """Colimit of K over the spectra of the sampled subdiagram.

    The returned group's rank-vector classes anchor at the diagonal
    rank-1 projections of the finest node; an explicit projection
    resolves at the first node whose atoms under it sum to it.
    """
    dia = diagram if diagram is not None else build_subdiagram(algebra, spec)
    ab, _ = _ab_diagram(dia)
    colim = colimit(ab)
    return _ktilde_from(algebra, dia, colim)


class EtaResult(Record):
    """The comparison isomorphism and both endpoint groups."""

    __slots__ = ("hom", "k0", "ktilde", "m")

    def __init__(self, hom: AbHom, k0: K0Group, ktilde: K0Group, m: int):
        self.hom, self.k0, self.ktilde, self.m = hom, k0, ktilde, m


def _check_eta_inverse(kt: K0Group):
    """Bidirectional inverse check for the comparison map.

    The inverse candidate sends the generator of a pair (node, atom) to
    the atom's sparse rank word {block: rank}.  Three checks run on
    sparse words: every colimit relation combines those rank words to
    the empty word (the candidate is well defined); the class of block i
    maps to {i: 1} (a left inverse); and every generator g differs from
    the class of its rank word by an element of the relation lattice (a
    right inverse).  Any failure signals that the sampled subdiagram is
    too coarse and is reported with a witness.
    """
    ctx = kt.context
    nodes = ctx.diagram.node_data
    ends = list(accumulate(ctx.algebra.blocks))

    # a mask counts each coordinate into the first block ending past it
    rank_words = [
        Counter(bisect_right(ends, c) for c in atom.diag_mask)
        if atom.diag_mask is not None else
        {b: r for b, r in enumerate(atom.rank_vector()) if r}
        for nid in ctx.diagram.shape.nodes for atom in nodes[nid].atoms]

    def vector(word):
        return tuple(word.get(b, 0) for b in range(kt.nblocks))

    for sp in kt.group.rows:
        if _combine(sp, rank_words):
            raise SubdiagramInsufficientError(
                "rank map fails on a colimit relation",
                witness={"relation": dict(sp)})

    for i, block in enumerate(kt.block_words):
        word = _combine(block.items(), rank_words)
        if word != {i: 1}:
            raise SubdiagramInsufficientError(
                "block class anchor has the wrong rank vector",
                witness={"block": i, "rank_vector": vector(word)})

    # Only the roots of the identification classes are tested.  The
    # first check maps each identifying relation g - h to zero, so the
    # members of a class share one rank word, and back(g) = back(rep g).
    # Then g - back(g) = (g - rep g) + (rep g - back(rep g)), where
    # g - rep g lies in the lattice: g passes iff its root does.  A root
    # is the least member of its class, so the first generator to fail
    # in index order is a root, with the same message and witness.
    lattice = kt.group.lattice
    rep = lattice.rep
    for nid, off in ctx.colim.offsets.items():
        for i in range(nodes[nid].natoms):
            g = off + i
            if rep[g] != g:
                continue
            back = _combine(rank_words[g].items(), kt.block_words)
            if not lattice.contains(
                    _combine(((0, 1), (1, -1)), ({g: 1}, back))):
                raise SubdiagramInsufficientError(
                    "generator class is not identified with its rank class; "
                    "the subdiagram sample is too coarse",
                    witness={"generator": (nid, i),
                             "rank_vector": vector(rank_words[g])})


def eta(algebra: MultiMatrixAlgebra, spec: SubdiagramSpec | None = None,
        m: int = 2) -> EtaResult:
    """The natural comparison from standard K0 to the diagram K0 of the
    m-stabilized algebra, with its bidirectional inverse check.

    Raises SubdiagramInsufficientError when the check fails.
    """
    stabilized, _ = stabilize(algebra, m)
    kt = k_tilde_f(stabilized, spec)
    k0 = k0_standard(algebra)
    hom = AbHom(k0.group, kt.group, kt.block_words)
    _check_eta_inverse(kt)
    return EtaResult(hom=hom, k0=k0, ktilde=kt, m=m)


class Theorem1Report(Record):
    __slots__ = ("algebra", "m", "ok", "factors_match", "eta_ok",
                 "ktilde_factors", "k0_factors", "error", "witness")

    def __init__(self, algebra: MultiMatrixAlgebra, m: int, ok: bool,
                 factors_match: bool, eta_ok: bool, ktilde_factors: tuple,
                 k0_factors: tuple, error: str | None = None, witness=None):
        self.algebra, self.m, self.ok = algebra, m, ok
        self.factors_match, self.eta_ok = factors_match, eta_ok
        self.ktilde_factors, self.k0_factors = ktilde_factors, k0_factors
        self.error, self.witness = error, witness

    def __bool__(self):
        return self.ok


def verify_theorem1(algebra: MultiMatrixAlgebra,
                    spec: SubdiagramSpec | None = None,
                    m: int = 2) -> Theorem1Report:
    """Invariant-factor match plus the eta inverse check, as a report."""
    k0 = k0_standard(algebra)
    k0_factors = k0.invariant_factors()
    try:
        result = eta(algebra, spec, m)
    except SubdiagramInsufficientError as exc:
        return Theorem1Report(
            algebra=algebra, m=m, ok=False, factors_match=False, eta_ok=False,
            ktilde_factors=(), k0_factors=k0_factors,
            error=str(exc), witness=exc.witness)
    kt_factors = result.ktilde.invariant_factors()
    factors_match = kt_factors == k0_factors
    ok = factors_match
    return Theorem1Report(
        algebra=algebra, m=m, ok=ok, factors_match=factors_match, eta_ok=True,
        ktilde_factors=kt_factors, k0_factors=k0_factors)


def diagram_morphism_of_hom(phi: StarHom, src_diagram: ShapedDiagram,
                            dst_diagram: ShapedDiagram) -> DiagramMorphism:
    """The (f, eta) morphism of subalgebra diagrams induced by a unital
    *-homomorphism: f sends a subalgebra to its image, and the component
    at U is the restriction of phi to U."""
    if not phi.unital:
        raise ValidationError("only unital homs induce diagram morphisms here")
    node_map = {}
    components = {}
    for nid in src_diagram.shape.nodes:
        node = src_diagram.node_data[nid]
        images = tuple(phi.apply(p) for p in node.atoms)
        key = frozenset(q for q in images if not q.is_zero())
        target_id = dst_diagram.meta["by_key"].get(key)
        if target_id is None:
            raise VerificationError(
                "image subalgebra is not a node of the codomain diagram",
                witness={"node": nid})
        node_map[nid] = target_id
        components[nid] = SubalgebraArrow.hom_restriction(
            phi, node, images, codomain=dst_diagram.node_data[target_id])

    dst_rotations = dst_diagram.meta["rotations"]
    dst_rot_edges = dst_diagram.meta["rotation_edges"]
    edge_map = {}
    for e in src_diagram.shape.edges:
        arrow = src_diagram.edge_data[e.id]
        fa, fb = node_map[e.src], node_map[e.dst]
        if arrow.kind == "inclusion":
            path = find_path(
                dst_diagram, fa, fb,
                allowed=lambda ed: dst_diagram.edge_data[ed.id].kind == "inclusion")
            if path is None:
                raise VerificationError(
                    "no inclusion path for an edge image",
                    witness={"edge": e.id, "from": fa, "to": fb})
            edge_map[e.id] = path
        elif arrow.kind == "rotation":
            image = phi.apply_rotation(arrow.unitary)
            if image.acts_trivially_on(dst_diagram.node_data[fa].atoms):
                if fa != fb:
                    raise VerificationError(
                        "trivial rotation image with distinct endpoint images",
                        witness={"edge": e.id})
                edge_map[e.id] = ()
                continue
            hit = None
            for r, beta in enumerate(dst_rotations):
                if (r, fa) in dst_rot_edges and beta == image:
                    hit = dst_rot_edges[(r, fa)]
                    break
            if hit is None:
                raise VerificationError(
                    "rotation image edge missing in the codomain diagram "
                    "(diagram too coarse for this mapping)",
                    witness={"edge": e.id, "node": fa})
            edge_map[e.id] = (hit,)
        else:
            raise ValidationError(f"unexpected edge kind {arrow.kind!r}")
    return DiagramMorphism(node_map, edge_map, components, FORWARD)


def _induced_k0_map(phi: StarHom, src_diagram: ShapedDiagram,
                    dst_diagram: ShapedDiagram):
    """The map of diagram K0s induced along a unital hom, as
    (colimit over src_diagram, colimit over dst_diagram, induced hom)."""
    dm = diagram_morphism_of_hom(phi, src_diagram, dst_diagram)
    ab_src, ab_m = _ab_diagram(src_diagram, dm)
    ab_dst, _ = _ab_diagram(dst_diagram)
    colim_src = colimit(ab_src)
    colim_dst = colimit(ab_dst)
    induced = colimit_induced(ab_m, ab_src, ab_dst, colim_src, colim_dst)
    return colim_src, colim_dst, induced


class NaturalityReport(Record):
    __slots__ = ("phi", "m", "ok", "witness")

    def __init__(self, phi: StarHom, m: int, ok: bool, witness=None):
        self.phi, self.m, self.ok, self.witness = phi, m, ok, witness

    def __bool__(self):
        return self.ok


def image_closed_spec(phi: StarHom, diagram: ShapedDiagram) -> SubdiagramSpec:
    """The default spec of phi's codomain, closed under the images of a
    sampled diagram of its domain.

    The image partition of every base node becomes a base partition and
    the image of every rotation a rotation, so the codomain diagram
    holds each image node and each rotation edge that the induced
    diagram morphism maps to.
    """
    partitions = []
    for nid in diagram.meta["base_ids"]:
        masks = (phi.apply(p).diag_mask for p in diagram.node_data[nid].atoms)
        partitions.append(tuple(mask for mask in masks if mask))
    images = tuple(phi.apply_rotation(alpha)
                   for alpha in diagram.meta["rotations"])
    base = SubdiagramSpec.default(phi.codomain)
    return SubdiagramSpec(rotations=base.rotations + images,
                          partitions=tuple(partitions), label="default+images")


def verify_naturality_square(phi: StarHom,
                             spec: SubdiagramSpec | None = None,
                             m: int = 1) -> NaturalityReport:
    """Whether eta_B . K0(phi) and Ktilde(phi tensor id) . eta_A agree on
    every generator of the standard K0 of the domain.

    The codomain diagram is built from image_closed_spec, so the induced
    diagram morphism maps every node and every generating edge.
    """
    if not phi.unital:
        raise ValidationError("naturality square requires a unital hom")
    dom_s, phi_s = stabilize(phi.domain, m, phi)
    cod_s = phi_s.codomain
    dia_a = build_subdiagram(dom_s, spec)
    dia_b = build_subdiagram(cod_s, image_closed_spec(phi_s, dia_a))

    colim_a, colim_b, induced = _induced_k0_map(phi_s, dia_a, dia_b)
    kt_a = _ktilde_from(dom_s, dia_a, colim_a)
    kt_b = _ktilde_from(cod_s, dia_b, colim_b)
    eta_a = AbHom(k0_standard(phi.domain).group, kt_a.group, kt_a.block_words)
    eta_b = AbHom(k0_standard(phi.codomain).group, kt_b.group, kt_b.block_words)
    k0_phi = k0_standard_hom(phi)

    for i in range(phi.domain.nblocks):
        left = induced.apply(eta_a.words[i])
        right = eta_b.apply(k0_phi.words[i])
        if not element_eq(kt_b.group, left, right):
            return NaturalityReport(phi=phi, m=m, ok=False, witness={
                "generator": i, "left": kt_b.group.dense(left),
                "right": kt_b.group.dense(right)})
    return NaturalityReport(phi=phi, m=m, ok=True)


def k_tilde_f_nonunital(algebra: MultiMatrixAlgebra,
                        spec: SubdiagramSpec | None = None,
                        m: int = 2) -> K0Group:
    """Diagram K0 of an algebra treated as an ideal: unitalize the
    stabilization, apply the diagram functor to the scalar projection,
    and take the kernel of the induced map between colimits.

    A given spec must target the unitalized stabilization; the default
    is derived from it.
    """
    stabilized, _ = stabilize(algebra, m)
    plus, pi = unitalize(stabilized)
    dia_p = build_subdiagram(plus, spec)
    dia_c = build_subdiagram(pi.codomain, SubdiagramSpec(rotations=(),
                                                         label="scalars"))
    colim_p, _colim_c, induced = _induced_k0_map(pi, dia_p, dia_c)
    ker_group, inclusion = kernel(induced)

    # express each block class over the kernel generators: a block class
    # word maps to zero, so it lies in the kernel lattice itself
    fine = dia_p.meta["fine"]
    off = colim_p.offsets[fine]
    klat = IntegerRowLattice(colim_p.group.ngens)
    for word in inclusion.words:
        klat.insert(word)
    block_words = []
    for i in range(algebra.nblocks):
        coords = klat.coordinates({off + stabilized.block_offset(i): 1})
        if coords is None:
            raise SubdiagramInsufficientError(
                "block class does not lie in the kernel presentation",
                witness={"block": i})
        block_words.append(coords)
    return K0Group(ker_group, block_words)
