"""Total ideals, partial ideals, and the closed-set limit of a subdiagram.

A total ideal of a multi-matrix algebra is a set of blocks.  A partial
ideal picks, at every node of a sampled subdiagram, a set of atoms
(spanning an ideal of that commutative algebra), compatibly with
inclusions.  Rotation-fixedness and reconstruction from/of total ideals
are the finite-scale content of the partial-ideal conjectures; for
finite-dimensional algebras (von Neumann algebras, with every ideal
closed in all relevant topologies) the norm-closed and ultraweakly
closed readings coincide, so there is a single code path.

Atom choices are bitmasks, checked and enumerated (by the engine of
the closed-set limit, lattices.compatible_masks) under atom-level rules
read from each edge's spectrum map, not under closed-set images.

Orientation convention, pinned by a regression test on C^2: a closed
subset C of a node's spectrum corresponds to the ideal spanned by the
atoms NOT in C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import MultiMatrixAlgebra
from .diagram import ShapedDiagram, postcompose
from .errors import ValidationError, as_int
from .lattices import MeetSemilattice, compatible_masks, limit_semilattice
from .subalgebra import CommSubalgebra, SpectrumFunctor, spectrum
from .ktheory import SubdiagramSpec, build_subdiagram


class TotalIdeal:
    """The two-sided ideal spanned by a subset of the blocks."""

    __slots__ = ("algebra", "blocks")

    def __init__(self, algebra: MultiMatrixAlgebra, blocks):
        blocks = frozenset(as_int(b, "ideal block index") for b in blocks)
        if any(b < 0 or b >= algebra.nblocks for b in blocks):
            raise ValidationError("ideal block index out of range")
        self.algebra = algebra
        self.blocks = blocks

    def __eq__(self, other):
        if not isinstance(other, TotalIdeal):
            return NotImplemented
        return self.algebra == other.algebra and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.algebra, self.blocks))

    def __repr__(self):
        return f"TotalIdeal(blocks={sorted(self.blocks)})"


def restrict_total(ideal: TotalIdeal, u: CommSubalgebra) -> frozenset:
    """Indices of the atoms of U lying in the ideal: those whose matrix
    components vanish outside the ideal's blocks."""
    if ideal.algebra != u.algebra:
        raise ValidationError("ideal and subalgebra parents differ")
    return frozenset(i for i, s in enumerate(u.block_supports)
                     if s <= ideal.blocks)


def _mask(indices) -> int:
    return sum(1 << i for i in indices)


def _indices(mask: int) -> frozenset:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _atom_rule(edge, arrow):
    """(target, source, needs): an atom t is chosen at the target iff all
    atoms of the mask needs[t] are chosen at the source.  An atom of U
    needs the atoms of V under it along an inclusion U -> V, an atom of
    alpha(U) its preimage along a rotation U -> alpha(U).  The edge's
    spectrum map gives, per codomain atom, the domain atom over it."""
    incidence = arrow.spectrum_map().index
    if arrow.kind == "inclusion":
        needs = [0] * arrow.domain.natoms
        for j, i in enumerate(incidence):
            needs[i] |= 1 << j
        return edge.src, edge.dst, needs
    return edge.dst, edge.src, [1 << i for i in incidence]


@dataclass
class PartialIdeal:
    """A choice of atom subset at every node of a subdiagram."""

    diagram: ShapedDiagram
    choice: dict  # node id -> frozenset of atom indices

    def __post_init__(self):
        nodes = set(self.diagram.shape.nodes)
        if set(self.choice) != nodes:
            raise ValidationError("choice must cover every node")
        self.choice = {n: frozenset(as_int(i, "atom index") for i in s)
                       for n, s in self.choice.items()}
        for n, s in self.choice.items():
            count = self.diagram.node_data[n].natoms
            if any(i < 0 or i >= count for i in s):
                raise ValidationError(f"atom index out of range at node {n}")

    def _first_failure(self, kind):
        """First edge of the kind whose rule the choice breaks, as
        (edge id, expected choice at the rule's target), or None."""
        for e in self.diagram.shape.edges:
            arrow = self.diagram.edge_data[e.id]
            if arrow.kind != kind:
                continue
            target, source, needs = _atom_rule(e, arrow)
            chosen = _mask(self.choice[source])
            expected = frozenset(t for t, m in enumerate(needs)
                                 if chosen & m == m)
            if expected != self.choice[target]:
                return e.id, expected
        return None

    def compatibility_failure(self):
        """First inclusion edge violating I_U = I_V intersect U, as
        (edge id, expected choice), or None.

        At atom level: an atom P of U is chosen iff every atom of V
        under P is chosen.
        """
        return self._first_failure("inclusion")

    def is_compatible(self) -> bool:
        return self.compatibility_failure() is None

    def rotation_failure(self):
        """First rotation edge where the choice is not conjugation-fixed."""
        return self._first_failure("rotation")


def is_rotation_fixed(partial: PartialIdeal) -> bool:
    """Whether the choice commutes with every rotation edge:
    choice(uVu*) = u choice(V) u* atomwise."""
    return partial.rotation_failure() is None


def partial_from_total(ideal: TotalIdeal, diagram: ShapedDiagram) -> PartialIdeal:
    """The partial ideal induced by a total ideal, node by node."""
    choice = {n: restrict_total(ideal, diagram.node_data[n])
              for n in diagram.shape.nodes}
    return PartialIdeal(diagram, choice)


@dataclass
class ReconstructionResult:
    ok: bool
    ideal: TotalIdeal | None = None
    failing_node: str | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


def reconstruct_total(partial: PartialIdeal) -> ReconstructionResult:
    """Candidate total ideal from the union of chosen-atom supports;
    succeeds iff restriction of the candidate reproduces the choice on
    every node.  Failure is a value naming the first violating node."""
    algebra = None
    blocks = set()
    for n in partial.diagram.shape.nodes:
        node = partial.diagram.node_data[n]
        algebra = node.algebra
        for i in partial.choice[n]:
            blocks |= node.block_supports[i]
    candidate = TotalIdeal(algebra, blocks)
    for n in partial.diagram.shape.nodes:
        expected = restrict_total(candidate, partial.diagram.node_data[n])
        if expected != partial.choice[n]:
            return ReconstructionResult(
                ok=False, failing_node=n,
                detail=f"candidate blocks {sorted(blocks)} restrict to "
                       f"{sorted(expected)} but the choice is "
                       f"{sorted(partial.choice[n])}")
    return ReconstructionResult(ok=True, ideal=candidate)


def enumerate_partial_ideals(diagram: ShapedDiagram, rotation_fixed=True):
    """All compatible partial ideals over the subdiagram, or only the
    rotation-fixed ones when rotation_fixed is set.  Ordered
    deterministically.

    This is a direct atom-level enumeration, independent of the
    closed-set-limit route: compatible_masks solves for atom bitmasks
    under one rule per inclusion edge, and per rotation edge when
    rotation_fixed is set, in bitmask order at the free nodes.
    """
    nodes = list(diagram.shape.nodes)
    index = {n: k for k, n in enumerate(nodes)}
    kinds = ("inclusion", "rotation") if rotation_fixed else ("inclusion",)
    links = []
    for e in diagram.shape.edges:
        arrow = diagram.edge_data[e.id]
        if arrow.kind in kinds:
            target, source, needs = _atom_rule(e, arrow)
            links.append((index[target], index[source], needs, False))
    sizes = [diagram.node_data[n].natoms for n in nodes]
    return [PartialIdeal(diagram, dict(zip(nodes, map(_indices, masks))))
            for masks in compatible_masks(sizes, links, int)]


def t_tilde(algebra: MultiMatrixAlgebra,
            spec: SubdiagramSpec | None = None,
            diagram: ShapedDiagram | None = None) -> MeetSemilattice:
    """Limit of the closed-set lattices of the subdiagram's spectra.

    Elements are compatible families of closed sets; rotation edges
    impose the fixedness constraint.
    """
    dia = diagram if diagram is not None else build_subdiagram(algebra, spec)
    spaces, _ = postcompose(SpectrumFunctor, dia)
    return limit_semilattice(spaces)


def total_ideal_lattice(algebra: MultiMatrixAlgebra) -> MeetSemilattice:
    """All total ideals ordered by inclusion of block sets."""
    ideals = [TotalIdeal(algebra, blocks)
              for r in range(algebra.nblocks + 1)
              for blocks in itertools.combinations(range(algebra.nblocks), r)]
    return MeetSemilattice(ideals, lambda a, b: a.blocks <= b.blocks)


@dataclass
class Conjecture1Report:
    """Desk-scale check of the closed-ideal-lattice conjecture.

    Quantifiers in the source statements range over all commutative
    subalgebras and unitaries; this report is relative to the sampled
    subdiagram named in spec_used.
    """

    algebra: MultiMatrixAlgebra
    spec_used: str
    t_tilde_size: int
    ideal_count: int
    lattice_iso_ok: bool
    partial_ideal_count: int
    round_trip_ok: bool
    extra_families: int
    witness: object = None

    @property
    def ok(self) -> bool:
        return self.lattice_iso_ok and self.round_trip_ok and \
            self.extra_families == 0

    def __bool__(self):
        return self.ok


def verify_conjecture1(algebra: MultiMatrixAlgebra,
                       spec: SubdiagramSpec | None = None) -> Conjecture1Report:
    """(a) order comparison between the closed-set limit and the total
    ideal lattice under the complement correspondence; (b) round-trip
    bijection between rotation-fixed compatible partial ideals and total
    ideals."""
    if spec is None:
        spec = SubdiagramSpec.default(algebra)
    dia = build_subdiagram(algebra, spec)
    nodes = list(dia.shape.nodes)
    lattice = t_tilde(algebra, spec, diagram=dia)
    ideals = total_ideal_lattice(algebra)

    # (a) family -> complement choice -> reconstructed total ideal
    mapping = {}
    witness = None
    iso_ok = True
    for family in lattice.elements:
        choice = {}
        for n, closed in zip(nodes, family):
            points = spectrum(dia.node_data[n]).points
            choice[n] = frozenset(i for i, p in enumerate(points)
                                  if p not in closed)
        partial = PartialIdeal(dia, choice)
        rec = reconstruct_total(partial)
        if not rec:
            iso_ok = False
            witness = {"family": family, "failure": rec.detail,
                       "node": rec.failing_node}
            break
        mapping[family] = rec.ideal
    if iso_ok:
        values = list(mapping.values())
        if len(set(values)) != len(values) or set(values) != set(ideals.elements):
            iso_ok = False
            witness = {"reason": "family/ideal correspondence is not a bijection",
                       "families": lattice.size, "ideals": ideals.size}
        else:
            # bigger closed sets = smaller ideals: order-reversing both ways
            iso_ok = lattice.order_isomorphic_via(mapping, ideals, reverse=True)
            if not iso_ok:
                witness = {"reason": "correspondence does not reverse order"}

    # (b) independent atom-level enumeration + round trips
    partials = enumerate_partial_ideals(dia, rotation_fixed=True)
    round_trip_ok = True
    for partial in partials:
        rec = reconstruct_total(partial)
        if not rec:
            round_trip_ok = False
            witness = witness or {"reason": "partial ideal fails reconstruction",
                                  "node": rec.failing_node}
            continue
        back = partial_from_total(rec.ideal, dia)
        if back.choice != partial.choice:
            round_trip_ok = False
            witness = witness or {"reason": "restriction round trip failed",
                                  "ideal": sorted(rec.ideal.blocks)}
    for ideal in ideals.elements:
        induced = partial_from_total(ideal, dia)
        if not induced.is_compatible() or not is_rotation_fixed(induced):
            round_trip_ok = False
            witness = witness or {"reason": "induced partial ideal not admissible",
                                  "ideal": sorted(ideal.blocks)}
        rec = reconstruct_total(induced)
        if not rec or rec.ideal != ideal:
            round_trip_ok = False
            witness = witness or {"reason": "total ideal round trip failed",
                                  "ideal": sorted(ideal.blocks)}
    extra = len(partials) - ideals.size

    return Conjecture1Report(
        algebra=algebra,
        spec_used=spec.describe(),
        t_tilde_size=lattice.size,
        ideal_count=ideals.size,
        lattice_iso_ok=iso_ok,
        partial_ideal_count=len(partials),
        round_trip_ok=round_trip_ok,
        extra_families=max(0, extra),
        witness=witness,
    )
