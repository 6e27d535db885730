"""K̃ read off spectrum indices against the functor route.

The library assembles the colimit presentation of K∘Σ, and the map
induced along a hom, straight from each edge's and each component's
spectrum index (abgroup.free_colimit, free_colimit_induced).  The
definition is the functor route kept here as the oracle: postcompose
the spectrum functor and K (ab_diagram), then the generic colimit and
colimit_induced, which checks naturality by composing K-level homs.
Both routes must give the same group rows, offsets, injection words and
induced words, and raise the same message on a bad morphism.

The domination scan of SubalgebraArrow.spectrum_map and the any/all
refinement test of build_subdiagram are kept here too, as oracles of
the mask table and the coordinate -> part table that replace them.
"""

import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, StarHom, SubalgebraArrow,
                        SubdiagramSpec, ValidationError, VerificationError,
                        build_subdiagram, colimit, colimit_induced,
                        diagonal_projection, partition_subalgebra,
                        pythagorean_unitary, sample_unital_hom, stabilize,
                        unitalize, verify_naturality_square)
from ncspectrum.abgroup import free_colimit, free_colimit_induced
from ncspectrum.algebra import projection_leq
from ncspectrum.diagram import DiagramMorphism, postcompose
from ncspectrum.ktheory import (KFunctor, _induced_k0_map,
                                diagram_morphism_of_hom, image_closed_spec,
                                k_tilde_f)
from ncspectrum.subalgebra import (SpectrumFunctor, _owners, _refines,
                                   spectrum_indices)
from test_spec_fuzzer import draw_algebra, draw_spec
from test_subdiagram_oracle import per_block_spec

ACCEPTANCE_SEED = 20260811
NONUNITAL_BLOCKS = ([1], [2], [3], [1, 1], [2, 3], [1, 2, 2], [1, 1, 1, 1])


def ab_diagram(diagram, morphism=None):
    """The functor route: the spectra of a diagram of subalgebras, then K."""
    spaces, m1 = postcompose(SpectrumFunctor, diagram, morphism)
    return postcompose(KFunctor, spaces, m1)


def oracle_colimit(diagram):
    return colimit(ab_diagram(diagram)[0])


def oracle_induced(phi, src, dst):
    """(colimit over src, colimit over dst, induced hom) by the functor
    route, as _induced_k0_map returns them."""
    dm = diagram_morphism_of_hom(phi, src, dst)
    ab_src, ab_m = ab_diagram(src, dm)
    ab_dst, _ = ab_diagram(dst)
    c_src, c_dst = colimit(ab_src), colimit(ab_dst)
    return c_src, c_dst, colimit_induced(ab_m, ab_src, ab_dst, c_src, c_dst)


def refines_any_all(fine, coarse):
    """Every part of fine lies in some part of coarse."""
    return all(any(p <= q for q in coarse) for p in fine)


def scan_index(arrow):
    """The spectrum index of an arrow by the domination scan: an image
    equal to a codomain atom places it, any other atom goes to the first
    nonzero image that dominates it."""
    index = [None] * arrow.codomain.natoms
    positions = arrow.codomain.positions
    for i, img in enumerate(arrow.images):
        j = positions.get(img)
        if j is not None and index[j] is None:
            index[j] = i
    for j, q in enumerate(arrow.codomain.atoms):
        if index[j] is None:
            index[j] = next((i for i, img in enumerate(arrow.images)
                             if not img.is_zero() and projection_leq(q, img)),
                            None)
            if index[j] is None:
                raise ValidationError(
                    "codomain atom not dominated by any atom image")
    return tuple(index)


def assert_same_colimit(got, want):
    assert got.group.ngens == want.group.ngens
    assert got.group.rows == want.group.rows
    assert got.offsets == want.offsets
    assert list(got.offsets) == list(want.offsets)
    assert got.injections.keys() == want.injections.keys()
    for n, inj in want.injections.items():
        assert got.injections[n].domain == inj.domain
        assert got.injections[n].words == inj.words


def assert_same_induced(got, want):
    for g, w in zip(got[:2], want[:2]):
        assert_same_colimit(g, w)
    assert got[2].domain.rows == want[2].domain.rows
    assert got[2].codomain.rows == want[2].codomain.rows
    assert got[2].words == want[2].words


def acceptance_homs():
    rng = random.Random(ACCEPTANCE_SEED)
    return [sample_unital_hom(rng, max_total_dim=6) for _ in range(50)]


def square_diagrams(phi, m, spec=None):
    """The stabilized hom and the two diagrams of its naturality square."""
    dom_s, phi_s = stabilize(phi.domain, m, phi)
    dia_a = build_subdiagram(dom_s, spec)
    return phi_s, dia_a, build_subdiagram(phi_s.codomain,
                                          image_closed_spec(phi_s, dia_a))


def compare_square(phi_s, dia_a, dia_b):
    """Compare both routes on a square; False when the diagram
    morphism is missing (the same error on both routes)."""
    try:
        want = oracle_induced(phi_s, dia_a, dia_b)
    except VerificationError as exc:
        with pytest.raises(VerificationError) as got:
            _induced_k0_map(phi_s, dia_a, dia_b)
        assert str(got.value) == str(exc)
        return False
    assert_same_induced(_induced_k0_map(phi_s, dia_a, dia_b), want)
    return True


class TestColimit:
    def test_drawn_specs(self):
        rng = random.Random(20261022)
        for _ in range(60):
            algebra = draw_algebra(rng)
            dia = build_subdiagram(algebra, draw_spec(algebra, rng))
            assert_same_colimit(k_tilde_f(algebra, diagram=dia).context.colim,
                                oracle_colimit(dia))

    def test_default_and_per_block_specs(self):
        for blocks in ([1], [2], [3], [1, 2], [2, 2], [1, 2, 3], [4], [3, 4],
                       [6], [2, 4]):
            algebra = MultiMatrixAlgebra(blocks)
            for spec in (None, per_block_spec(algebra)):
                dia = build_subdiagram(algebra, spec)
                assert_same_colimit(
                    k_tilde_f(algebra, diagram=dia).context.colim,
                    oracle_colimit(dia))

    def test_rotation_loops(self):
        # a permutation that maps a node onto itself gives a loop edge,
        # whose rows cancel a generator lying over itself
        algebra = MultiMatrixAlgebra([3])
        dia = build_subdiagram(algebra)
        assert any(e.src == e.dst for e in dia.shape.edges)
        assert_same_colimit(k_tilde_f(algebra, diagram=dia).context.colim,
                            oracle_colimit(dia))


class TestInduced:
    def test_acceptance_homs(self):
        mapped = 0
        for phi in acceptance_homs():
            for m in (1, 2):
                mapped += compare_square(*square_diagrams(phi, m))
        # every square maps at m = 1 and m = 2
        assert mapped == 100

    def test_drawn_domain_specs(self):
        rng = random.Random(20261023)
        for phi in acceptance_homs()[:25]:
            dom_s, _ = stabilize(phi.domain, 1)
            compare_square(*square_diagrams(phi, 1, draw_spec(dom_s, rng)))

    def test_per_block_domain_specs(self):
        for phi in acceptance_homs()[:25]:
            dom_s, _ = stabilize(phi.domain, 1)
            compare_square(*square_diagrams(phi, 1, per_block_spec(dom_s)))

    def test_nonunital_catalog(self):
        for blocks in NONUNITAL_BLOCKS:
            stabilized, _ = stabilize(MultiMatrixAlgebra(blocks), 2)
            plus, pi = unitalize(stabilized)
            dia_p = build_subdiagram(plus)
            dia_c = build_subdiagram(pi.codomain, SubdiagramSpec(
                rotations=(), label="scalars"))
            assert_same_induced(_induced_k0_map(pi, dia_p, dia_c),
                                oracle_induced(pi, dia_p, dia_c))


def _both_routes(dm, src, dst):
    """The message each route raises on the morphism dm, or None."""
    messages = []
    try:
        ab_src, ab_m = ab_diagram(src, dm)
        ab_dst, _ = ab_diagram(dst)
        colimit_induced(ab_m, ab_src, ab_dst)
        messages.append(None)
    except ValidationError as exc:
        messages.append(str(exc))
    sizes_a, edges_a = spectrum_indices(src)
    sizes_b, edges_b = spectrum_indices(dst)
    components = {n: c.spectrum_map().index for n, c in dm.components.items()}
    try:
        free_colimit_induced(
            edges_a, edges_b, dm.node_map, dm.edge_map, components,
            free_colimit(sizes_a, edges_a), free_colimit(sizes_b, edges_b))
        messages.append(None)
    except ValidationError as exc:
        messages.append(str(exc))
    return messages


class TestBadMorphisms:
    """Hand-built morphisms of the diagram of [3]: the default sample has
    a cycle loop at the finest node and a Pythagorean sheet."""

    def setup_method(self):
        self.dia = build_subdiagram(MultiMatrixAlgebra([3]))
        self.loop = next(e.id for e in self.dia.shape.edges
                         if e.src == e.dst)
        self.rotation = next(e.id for e in self.dia.shape.edges
                             if e.id.startswith("t") and e.src != e.dst)

    def morphism(self, **edge_map):
        dm = DiagramMorphism.identity(self.dia)
        dm.edge_map.update(edge_map)
        return dm

    def test_identity_is_natural(self):
        assert _both_routes(self.morphism(), self.dia, self.dia) == [None] * 2

    def test_unnatural_loop(self):
        # the cycle loop sent to the empty path: endpoints agree, the
        # square does not commute
        got = _both_routes(self.morphism(**{self.loop: ()}), self.dia,
                           self.dia)
        assert got == [f"diagram morphism is not natural (edge {self.loop})"] * 2

    def test_wrong_endpoints(self):
        got = _both_routes(self.morphism(**{self.rotation: ()}), self.dia,
                           self.dia)
        assert got[0] == got[1] and got[0].startswith(
            f"image path of edge {self.rotation} runs")

    def test_broken_path(self):
        inclusion = next(e for e in self.dia.shape.edges
                         if e.id.startswith("i:"))
        got = _both_routes(
            self.morphism(**{inclusion.id: (inclusion.id, inclusion.id)}),
            self.dia, self.dia)
        assert got == [f"path breaks at edge {inclusion.id}"] * 2

    def test_missing_edge_image(self):
        dm = self.morphism()
        del dm.edge_map[self.loop]
        got = _both_routes(dm, self.dia, self.dia)
        assert got == [f"morphism missing image for edge {self.loop}"] * 2

    def test_component_misses_node(self):
        # a one-point node sent to a two-point node by a component that
        # lands on one point; sent to the one-point coarsest node it
        # passes, as both routes compare point counts
        src = build_subdiagram(MultiMatrixAlgebra([1]))
        dst = build_subdiagram(MultiMatrixAlgebra([1, 1]),
                               SubdiagramSpec(label="bare"))
        (node,) = src.shape.nodes
        identity = DiagramMorphism.identity(src)
        for target, want in ((dst.meta["fine"],
                              f"component at {node} misses node "
                              f"{dst.meta['fine']}"),
                             (dst.shape.nodes[0], None)):
            dm = DiagramMorphism({node: target}, {}, identity.components)
            assert _both_routes(dm, src, dst) == [want] * 2


class TestSpectrumMapTable:
    def fresh(self, arrow):
        return SubalgebraArrow(arrow.domain, arrow.codomain, arrow.images,
                               kind=arrow.kind)

    def assert_agrees(self, arrow):
        try:
            want = scan_index(arrow)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as got:
                self.fresh(arrow).spectrum_map()
            assert str(got.value) == str(exc)
            return
        assert self.fresh(arrow).spectrum_map().index == want

    def test_edges_of_drawn_diagrams(self):
        # inclusion edges have mask images (or, in a rotated sheet, dense
        # ones); rotation edges have the rotated atoms as images
        rng = random.Random(20261024)
        for _ in range(40):
            algebra = draw_algebra(rng)
            dia = build_subdiagram(algebra, draw_spec(algebra, rng))
            for arrow in dia.edge_data.values():
                self.assert_agrees(arrow)

    def test_hom_components(self):
        for phi in acceptance_homs():
            try:
                phi_s, dia_a, dia_b = square_diagrams(phi, 2)
                dm = diagram_morphism_of_hom(phi_s, dia_a, dia_b)
            except VerificationError:
                continue
            for arrow in dm.components.values():
                self.assert_agrees(arrow)

    def test_zero_images(self):
        algebra = MultiMatrixAlgebra([3])
        finest = partition_subalgebra(algebra, [{0}, {1}, {2}])
        p = lambda *cs: diagonal_projection(algebra, cs)  # noqa: E731
        zero = algebra.zero()
        for images in ((p(0, 1), zero, p(2)), (zero, p(0, 1, 2), zero),
                       (p(0), zero, p(2)), (p(0, 1), p(1), p(2)),
                       (p(0, 1), p(1, 2), zero)):
            self.assert_agrees(SubalgebraArrow(finest, finest, images))

    def test_non_dominated_atom(self):
        algebra = MultiMatrixAlgebra([3])
        finest = partition_subalgebra(algebra, [{0}, {1}, {2}])
        coarse = partition_subalgebra(algebra, [{0, 1}, {2}])
        p = lambda *cs: diagonal_projection(algebra, cs)  # noqa: E731
        # atom 1 lies under no image; atom {0, 1} straddles two images
        for arrow in (SubalgebraArrow(coarse, finest, (p(0), p(2))),
                      SubalgebraArrow(coarse, coarse, (p(0), p(1, 2))),
                      SubalgebraArrow(coarse, coarse, (p(1), p(0, 2)))):
            with pytest.raises(ValidationError, match="not dominated"):
                scan_index(arrow)
            self.assert_agrees(arrow)

    def test_dense_codomain_atoms_with_mask_images(self):
        algebra = MultiMatrixAlgebra([3])
        alpha = pythagorean_unitary(algebra, 0)
        finest = partition_subalgebra(algebra, [{0}, {1}, {2}])
        rotated = SubalgebraArrow.rotation(alpha, finest).codomain
        coarse = partition_subalgebra(algebra, [{0, 1}, {2}])
        self.assert_agrees(SubalgebraArrow(coarse, rotated, coarse.atoms))


def test_refines_table_matches_any_all():
    rng = random.Random(20261025)
    for _ in range(300):
        n = rng.randint(1, 7)
        fine, coarse = ([set() for _ in range(rng.randint(1, n))]
                        for _ in range(2))
        for c in range(n):
            rng.choice(fine).add(c)
            rng.choice(coarse).add(c)
        fine = [frozenset(p) for p in fine if p]
        coarse = [frozenset(p) for p in coarse if p]
        assert _refines(_owners(fine, n), _owners(coarse, n)) == \
            refines_any_all(fine, coarse)
        assert _refines(_owners(fine, n), _owners([range(n)], n))
        assert _refines(_owners([{c} for c in range(n)], n),
                        _owners(fine, n))


def old_image_closed_spec(phi, diagram):
    """image_closed_spec listing every image partition and rotation."""
    partitions = []
    for nid in diagram.meta["base_ids"]:
        masks = (phi.apply(p).diag_mask for p in diagram.node_data[nid].atoms)
        partitions.append(tuple(mask for mask in masks if mask))
    images = tuple(phi.apply_rotation(alpha)
                   for alpha in diagram.meta["rotations"])
    base = SubdiagramSpec.default(phi.codomain)
    return SubdiagramSpec(rotations=base.rotations + images,
                          partitions=tuple(partitions), label="default+images")


def assert_no_duplicates_and_same_diagram(phi_s, dia_a):
    spec = image_closed_spec(phi_s, dia_a)
    n = phi_s.codomain.coord_count
    assert all(len(p) > 1 for p in spec.partitions)
    assert not spec.partitions or len(spec.partitions[-1]) < n
    for k, alpha in enumerate(spec.rotations):
        assert alpha not in spec.rotations[:k]
    new = build_subdiagram(phi_s.codomain, spec)
    old = build_subdiagram(phi_s.codomain, old_image_closed_spec(phi_s, dia_a))
    assert [new.node_data[n].atoms for n in new.shape.nodes] == \
        [old.node_data[n].atoms for n in old.shape.nodes]
    pos_new = {n: k for k, n in enumerate(new.shape.nodes)}
    pos_old = {n: k for k, n in enumerate(old.shape.nodes)}
    assert [(pos_new[e.src], pos_new[e.dst], new.edge_data[e.id].kind)
            for e in new.shape.edges] == \
        [(pos_old[e.src], pos_old[e.dst], old.edge_data[e.id].kind)
         for e in old.shape.edges]
    assert k_tilde_f(phi_s.codomain, diagram=new).group.rows == \
        k_tilde_f(phi_s.codomain, diagram=old).group.rows


def test_image_closed_spec_lists_no_duplicates():
    """On the acceptance homs the spec lists no rotation twice and
    neither the coarsest nor, last, the finest partition, and the
    codomain diagram keeps its nodes, node order, edges and colimit;
    also under drawn domain specs, which add base partitions."""
    rng = random.Random(20261026)
    for k, phi in enumerate(acceptance_homs()):
        for m in (1, 2):
            dom_s, phi_s = stabilize(phi.domain, m, phi)
            assert_no_duplicates_and_same_diagram(
                phi_s, build_subdiagram(dom_s))
        if k < 25:
            dom_s, phi_s = stabilize(phi.domain, 1, phi)
            assert_no_duplicates_and_same_diagram(
                phi_s, build_subdiagram(dom_s, draw_spec(dom_s, rng)))


def test_a_finest_image_before_another_partition_stays_listed():
    # the finest image is listed where its node is built, before {0,1}|{2}
    algebra = MultiMatrixAlgebra([3])
    phi = StarHom.identity(algebra)
    dia = build_subdiagram(algebra, SubdiagramSpec(
        partitions=([{0}, {1}, {2}], [{0, 1}, {2}])))
    spec = image_closed_spec(phi, dia)
    assert [len(p) for p in spec.partitions] == [3, 2]
    assert_no_duplicates_and_same_diagram(phi, dia)


def test_square_of_a_large_block_scans_no_image(monkeypatch):
    """[n] -> [n, 2n] at m = 2: every spectrum map of the square places
    its atoms by an exact image or through the mask table, so the
    domination scan, which made the square quadratic, never runs."""
    import ncspectrum.subalgebra as subalgebra
    calls = []
    monkeypatch.setattr(subalgebra, "projection_leq",
                        lambda q, p: calls.append((q, p)) or
                        projection_leq(q, p))
    phi = StarHom(MultiMatrixAlgebra([200]), MultiMatrixAlgebra([200, 400]),
                  [[1], [2]], unital=True)
    assert verify_naturality_square(phi, m=2).ok
    assert not calls
