import random

import pytest

from ncspectrum import (ExactMatrix, GaussianRational, InnerAutomorphism,
                        K_of_map, K_of_space, MultiMatrixAlgebra,
                        StarHom, SubdiagramInsufficientError,
                        SubdiagramSpec, ValidationError, VerificationError,
                        build_subdiagram, diagonal_projection, element_eq,
                        eta, k0_standard, k0_standard_hom, k_tilde_f,
                        k_tilde_f_nonunital, pythagorean_unitary,
                        sample_unital_hom, transposition_unitary,
                        verify_naturality_square, verify_theorem1)
from ncspectrum.subalgebra import FiniteSpace, SpaceMap

M2 = MultiMatrixAlgebra([2])
M23 = MultiMatrixAlgebra([2, 3])


class TestKOfSpace:
    def test_point(self):
        assert K_of_space(FiniteSpace(("p",))).canonical_str() == "Z"

    def test_three_points(self):
        assert K_of_space(FiniteSpace(("a", "b", "c"))).canonical_str() == "Z^3"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            K_of_space(FiniteSpace(()))


class TestKOfMap:
    def test_identity(self):
        x = FiniteSpace(("a", "b"))
        h = K_of_map(SpaceMap.identity(x))
        assert h.images == ((1, 0), (0, 1))

    def test_collapse_pulls_back_to_sum(self):
        x = FiniteSpace(("x0", "x1"))
        y = FiniteSpace(("p",))
        h = K_of_map(SpaceMap(x, y, {"x0": "p", "x1": "p"}))
        assert h.images == ((1, 1),)

    def test_bijection_is_permutation(self):
        x = FiniteSpace(("a", "b"))
        y = FiniteSpace(("c", "d"))
        h = K_of_map(SpaceMap(x, y, {"a": "d", "b": "c"}))
        assert h.images == ((0, 1), (1, 0))


class TestBuildSubdiagram:
    def test_scalars(self):
        dia = build_subdiagram(MultiMatrixAlgebra([1]))
        assert len(dia.shape.nodes) == 1
        assert len(dia.shape.edges) == 0

    def test_m2_with_swap_only(self):
        spec = SubdiagramSpec(rotations=(transposition_unitary(M2, 0, 0, 1),),
                              label="swap-only")
        dia = build_subdiagram(M2, spec)
        assert list(dia.shape.nodes) == ["d:0,1", "d:0|1"]
        kinds = sorted((dia.edge_data[e.id].kind, e.src, e.dst)
                       for e in dia.shape.edges)
        assert ("inclusion", "d:0,1", "d:0|1") in kinds
        assert ("rotation", "d:0|1", "d:0|1") in kinds

    def test_m2_default_adds_pythagorean_sheet(self):
        dia = build_subdiagram(M2)
        assert "r1:d:0|1" in dia.shape.nodes

    def test_c2_has_terminal_inclusion(self):
        dia = build_subdiagram(MultiMatrixAlgebra([1, 1]))
        assert list(dia.shape.nodes) == ["d:0,1", "d:0|1"]
        assert [(e.src, e.dst) for e in dia.shape.edges] == [("d:0,1", "d:0|1")]

    def test_default_is_a_generating_set_not_a_partition_enumeration(self):
        dia = build_subdiagram(MultiMatrixAlgebra([6]))
        assert dia.meta["base_ids"] == ("d:0,1,2,3,4,5", "d:0|1|2|3|4|5")
        assert len(dia.shape.nodes) == 3
        assert len(dia.shape.edges) == 4

    @pytest.mark.parametrize("n,count", [(1, 0), (2, 2), (3, 2), (7, 2),
                                         (64, 2)])
    def test_default_spec_has_at_most_three_rotations_per_block(self, n, count):
        spec = SubdiagramSpec.default(MultiMatrixAlgebra([n]))
        assert len(spec.rotations) == count

    def test_default_diagram_size_does_not_grow_with_the_block(self):
        # n - 1 adjacent transpositions per block would give n + 2 edges
        for n in range(3, 65):
            dia = build_subdiagram(MultiMatrixAlgebra([n]))
            assert (len(dia.shape.nodes), len(dia.shape.edges)) == (3, 4), n

    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_default_spec_without_the_cycle_is_insufficient(self, n):
        # the Pythagorean rotation only mixes coordinates 0 and 1
        algebra = MultiMatrixAlgebra([n])
        rotations = tuple(a for a in SubdiagramSpec.default(algebra).rotations
                          if not a.name.startswith("cycle"))
        assert len(rotations) == 1
        spec = SubdiagramSpec(rotations=rotations, label="no-cycle")
        with pytest.raises(SubdiagramInsufficientError):
            eta(algebra, spec=spec, m=1)

    def test_loops_with_the_identity_placement_are_left_out(self):
        # the swap fixes the coarsest node atom by atom, so it only adds
        # a rotation edge at the finest node
        spec = SubdiagramSpec(rotations=(transposition_unitary(M2, 0, 0, 1),),
                              label="swap-only")
        dia = build_subdiagram(M2, spec)
        assert [e.id for e in dia.shape.edges] == ["i:d:0,1=>d:0|1",
                                                   "t0:d:0|1"]
        assert dia.meta["rotation_edges"] == {(0, "d:0|1"): "t0:d:0|1"}

    def test_rotation_moving_atoms_as_an_earlier_one_shares_its_edges(self):
        from ncspectrum.ktheory import _induced_k0_map

        pyth = pythagorean_unitary(M2, 0)
        phase = M2.element([ExactMatrix.diagonal([GaussianRational(0, 1), 1])])
        twin = InnerAutomorphism(pyth.u * phase, name="twin")
        assert twin != pyth
        spec = SubdiagramSpec(rotations=(pyth, twin), label="twins")
        dia = build_subdiagram(M2, spec)
        assert dia.meta["rotations"] == (pyth, twin)
        assert not any(n.startswith("r1:") for n in dia.shape.nodes)
        assert not any(e.id.startswith("t1:") for e in dia.shape.edges)
        # the coarsest node's loop is left out for both
        assert dia.meta["rotation_edges"] == {(0, "d:0|1"): "t0:d:0|1",
                                              (1, "d:0|1"): "t0:d:0|1"}
        # a rotation edge whose image is the twin maps to the shared edge
        src = build_subdiagram(M2, SubdiagramSpec(rotations=(twin,)))
        _, colim, induced = _induced_k0_map(StarHom.identity(M2), src, dia)
        assert induced.codomain == colim.group

    def test_listed_partitions_add_covering_inclusions(self):
        m3 = MultiMatrixAlgebra([3])
        spec = SubdiagramSpec(partitions=([[2], [0, 1]],), label="mid")
        dia = build_subdiagram(m3, spec)
        assert dia.meta["base_ids"] == ("d:0,1,2", "d:0,1|2", "d:0|1|2")
        assert [(e.src, e.dst) for e in dia.shape.edges] == [
            ("d:0,1,2", "d:0,1|2"), ("d:0,1|2", "d:0|1|2")]

    def test_invalid_listed_partition_rejected(self):
        spec = SubdiagramSpec(partitions=([[0]],), label="short")
        with pytest.raises(ValidationError):
            build_subdiagram(M2, spec)

    def test_rotated_atoms_partition_unity(self):
        dia = build_subdiagram(M23)
        for nid in dia.shape.nodes:
            node = dia.node_data[nid]
            total = M23.zero()
            for i, p in enumerate(node.atoms):
                assert p.is_projection()
                total = total + p
                for q in node.atoms[i + 1:]:
                    assert (p * q).is_zero()
            assert total == M23.one()


class TestKTilde:
    def test_scalars(self):
        assert k_tilde_f(MultiMatrixAlgebra([1])).canonical_str() == "Z"

    def test_m2_classes(self):
        kt = k_tilde_f(M2)
        assert kt.invariant_factors() == (1, ())
        one = kt.class_of((1,))
        two = kt.class_of((2,))
        assert element_eq(kt.group, two, tuple(2 * x for x in one))
        # the class of the identity equals twice the rank-one class
        identity_class = kt.class_of_projection(M2.one())
        assert element_eq(kt.group, identity_class, two)

    def test_m2_plus_m3_matches_standard(self):
        kt = k_tilde_f(M23)
        std = k0_standard(M23)
        assert kt.invariant_factors() == std.invariant_factors() == (2, ())

    def test_class_resolves_through_span_node(self):
        kt = k_tilde_f(M2)
        p = diagonal_projection(M2, [0])
        via_span = kt.class_of_projection(p)
        via_ranks = kt.class_of(p.rank_vector())
        assert element_eq(kt.group, via_span, via_ranks)

    def test_class_rotation_invariant(self):
        kt = k_tilde_f(M2)
        p = diagonal_projection(M2, [0])
        for alpha in kt.context.spec.rotations:
            q = alpha.conjugate(p)
            assert element_eq(kt.group, kt.class_of_projection(p),
                              kt.class_of_projection(q))

    def test_class_orthogonally_additive(self):
        kt = k_tilde_f(M23)
        p = diagonal_projection(M23, [0, 2])
        q = diagonal_projection(M23, [1, 3])
        left = kt.class_of_projection(p + q)
        right = tuple(a + b for a, b in zip(kt.class_of_projection(p),
                                            kt.class_of_projection(q)))
        assert element_eq(kt.group, left, right)

    def test_class_of_additive_in_ranks(self):
        kt = k_tilde_f(M23)
        r, s = (1, 0), (0, 2)
        combined = kt.class_of((1, 2))
        split = tuple(a + b for a, b in zip(kt.class_of(r), kt.class_of(s)))
        assert combined == split


class TestK0Standard:
    def test_scalars(self):
        assert k0_standard(MultiMatrixAlgebra([1])).canonical_str() == "Z"

    def test_m2_identity_class(self):
        std = k0_standard(M2)
        assert std.canonical_str() == "Z"
        assert std.class_of((2,)) == (2,)

    def test_two_blocks(self):
        assert k0_standard(M23).canonical_str() == "Z^2"

    @pytest.mark.parametrize("ranks", [(1.7,), (True,), ("1",), (1.0,)])
    def test_class_of_rejects_non_integer_ranks(self, ranks):
        with pytest.raises(ValidationError, match="must be an integer"):
            k0_standard(MultiMatrixAlgebra([1])).class_of(ranks)

    def test_hom_identity(self):
        h = k0_standard_hom(StarHom.identity(M23))
        assert h.images == ((1, 0), (0, 1))

    def test_hom_doubling(self):
        phi = StarHom(MultiMatrixAlgebra([1]), M2, [[2]], unital=True)
        assert k0_standard_hom(phi).images == ((2,),)

    def test_hom_sums_ranks(self):
        phi = StarHom(M23, MultiMatrixAlgebra([5]), [[1, 1]], unital=True)
        assert k0_standard_hom(phi).images == ((1,), (1,))


class TestEta:
    def test_scalars(self):
        res = eta(MultiMatrixAlgebra([1]), m=1)
        assert res.ktilde.canonical_str() == "Z"
        assert res.hom.images == ((1,),)

    def test_m2_level_one(self):
        res = eta(M2, m=1)
        identity_image = res.hom.apply((2,))
        one = res.ktilde.class_of((1,))
        assert element_eq(res.ktilde.group, identity_image,
                          tuple(2 * x for x in one))

    def test_m2_plus_m3_level_two(self):
        res = eta(M23, m=2)
        assert res.ktilde.invariant_factors() == (2, ())
        assert res.k0.invariant_factors() == (2, ())

    def test_insufficient_spec_reported(self):
        from ncspectrum import SubdiagramInsufficientError
        # no rotations: the two coordinates of M2 are never identified
        spec = SubdiagramSpec(rotations=(), label="bare")
        with pytest.raises(SubdiagramInsufficientError):
            eta(M2, spec=spec, m=1)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_m_stability(self, m):
        rep = verify_theorem1(M23, m=m)
        assert rep.ok
        assert rep.ktilde_factors == (2, ())

    def test_default_spec_sufficient_across_small_algebras(self):
        # empirical sweep: the default rotations suffice for the inverse
        # check on every multi-matrix algebra with at most 5 diagonal
        # coordinates
        def compositions(total):
            if total == 0:
                yield ()
                return
            for first in range(1, total + 1):
                for rest in compositions(total - first):
                    yield (first,) + rest

        for n in range(1, 6):
            for blocks in compositions(n):
                rep = verify_theorem1(MultiMatrixAlgebra(blocks), m=1)
                assert rep.ok, blocks


class TestNaturality:
    def test_identity_hom(self):
        rep = verify_naturality_square(StarHom.identity(M2), m=1)
        assert rep.ok

    def test_diagonal_embedding(self):
        phi = StarHom(MultiMatrixAlgebra([1]), M2, [[2]], unital=True)
        rep = verify_naturality_square(phi, m=1)
        assert rep.ok

    def test_block_killing_hom(self):
        phi = StarHom(M23, MultiMatrixAlgebra([2]), [[1, 0]], unital=True)
        rep = verify_naturality_square(phi, m=1)
        assert rep.ok

    def test_level_two(self):
        phi = StarHom(MultiMatrixAlgebra([1]), M2, [[2]], unital=True)
        rep = verify_naturality_square(phi, m=2)
        assert rep.ok

    def test_random_sample(self):
        rng = random.Random(101)
        for _ in range(8):
            phi = sample_unital_hom(rng)
            assert verify_naturality_square(phi, m=1).ok

    def test_level_two_acceptance_homs(self):
        # these 15 of the acceptance suite's draws failed at m=2 while the
        # codomain diagram was not closed under image partitions
        formerly_failing = {0, 2, 6, 8, 10, 20, 23, 25, 29, 33, 40, 41, 42,
                            46, 48}
        rng = random.Random(20260811)
        homs = [sample_unital_hom(rng, max_total_dim=6) for _ in range(50)]
        for k in sorted(formerly_failing):
            assert verify_naturality_square(homs[k], m=2).ok, k

    def test_non_unital_rejected(self):
        phi = StarHom(M2, MultiMatrixAlgebra([5]), [[2]], unital=False)
        with pytest.raises(ValidationError):
            verify_naturality_square(phi)


class TestInducedFunctoriality:
    def test_induced_maps_compose_along_homs(self):
        from ncspectrum import colimit, colimit_induced, compose_morphisms
        from ncspectrum.diagram import maps_equal
        from ncspectrum.ktheory import (_ab_diagram, diagram_morphism_of_hom,
                                        image_closed_spec)

        m1 = MultiMatrixAlgebra([1])
        m4 = MultiMatrixAlgebra([4])
        phi = StarHom(m1, M2, [[2]], unital=True)
        psi = StarHom(M2, m4, [[2]], unital=True)
        comp = psi.compose(phi)

        dia_a = build_subdiagram(m1)
        dia_b = build_subdiagram(M2)
        dia_c = build_subdiagram(m4, image_closed_spec(psi, dia_b))

        m_phi = diagram_morphism_of_hom(phi, dia_a, dia_b)
        m_psi = diagram_morphism_of_hom(psi, dia_b, dia_c)
        m_comp = diagram_morphism_of_hom(comp, dia_a, dia_c)
        composed = compose_morphisms(m_psi, m_phi)
        # components agree strictly; edge paths may differ but the induced
        # maps between colimits must be equal
        for nid in dia_a.shape.nodes:
            assert maps_equal(composed.components[nid], m_comp.components[nid])

        ab_a, ab_phi = _ab_diagram(dia_a, m_phi)
        ab_b, ab_psi = _ab_diagram(dia_b, m_psi)
        ab_c, _ = _ab_diagram(dia_c)
        _, ab_comp = _ab_diagram(dia_a, m_comp)
        c_a, c_b, c_c = colimit(ab_a), colimit(ab_b), colimit(ab_c)
        h_phi = colimit_induced(ab_phi, ab_a, ab_b, c_a, c_b)
        h_psi = colimit_induced(ab_psi, ab_b, ab_c, c_b, c_c)
        h_comp = colimit_induced(ab_comp, ab_a, ab_c, c_a, c_c)
        assert h_psi.compose(h_phi).equal_as_maps(h_comp)

    def test_morphism_applies_phi_once_per_atom(self, monkeypatch):
        from ncspectrum.ktheory import (diagram_morphism_of_hom,
                                        image_closed_spec)

        phi = StarHom(M2, MultiMatrixAlgebra([4]), [[2]], unital=True)
        src = build_subdiagram(M2)
        dst = build_subdiagram(phi.codomain, image_closed_spec(phi, src))
        want = {nid: tuple(phi.apply(p) for p in src.node_data[nid].atoms)
                for nid in src.shape.nodes}
        calls = []
        apply = StarHom.apply
        monkeypatch.setattr(StarHom, "apply",
                            lambda hom, a: calls.append(a) or apply(hom, a))
        morphism = diagram_morphism_of_hom(phi, src, dst)
        assert len(calls) == sum(len(atoms) for atoms in want.values())
        for nid, images in want.items():
            assert morphism.components[nid].images == images


class TestNonUnital:
    def test_m2_matches_standard(self):
        kt = k_tilde_f_nonunital(M2, m=2)
        assert kt.invariant_factors() == k0_standard(M2).invariant_factors()

    def test_scalars_split_exact(self):
        kt = k_tilde_f_nonunital(MultiMatrixAlgebra([1]), m=2)
        assert kt.canonical_str() == "Z"

    def test_two_blocks(self):
        kt = k_tilde_f_nonunital(M23, m=1)
        assert kt.canonical_str() == "Z^2"

    def test_block_classes_independent(self):
        kt = k_tilde_f_nonunital(M23, m=1)
        # the two block classes generate independent directions
        a, b = kt.block_words
        assert not element_eq(kt.group, a, b)


class TestTheorem1Report:
    def test_pass(self):
        rep = verify_theorem1(M2, m=1)
        assert rep.ok and bool(rep)
        assert rep.ktilde_factors == rep.k0_factors == (1, ())

    def test_failure_carries_witness(self):
        spec = SubdiagramSpec(rotations=(), label="bare")
        rep = verify_theorem1(M2, spec=spec, m=1)
        assert not rep.ok
        assert rep.error is not None


class TestClassOfProjectionDominatedAtoms:
    M3 = MultiMatrixAlgebra([3])

    def rotated_atom(self):
        """The Pythagorean image of the rank-one projection on coordinate 0."""
        return pythagorean_unitary(self.M3, 0).conjugate(
            diagonal_projection(self.M3, {0}))

    def test_sum_of_atoms_of_the_rotated_finest_node(self):
        # neither a node's span nor a diagonal mask: q0 + e2 is the sum of
        # two atoms of the rotated finest node
        kt = k_tilde_f(self.M3)
        p = self.rotated_atom() + diagonal_projection(self.M3, {2})
        assert p.diag_mask is None
        assert element_eq(kt.group, kt.class_of_projection(p),
                          kt.class_of((2,)))

    def test_projection_outside_the_sample_fails_loudly(self):
        from ncspectrum import SubdiagramInsufficientError

        c, s = GaussianRational("3/5"), GaussianRational("4/5")
        u = self.M3.element([ExactMatrix.from_rows(
            [[1, 0, 0], [0, c, s], [0, -s, c]])])
        q = InnerAutomorphism(u).conjugate(self.rotated_atom())
        with pytest.raises(SubdiagramInsufficientError) as info:
            k_tilde_f(self.M3).class_of_projection(q)
        assert info.value.witness == {"rank_vector": (1,)}


class TestTrivialRotationImage:
    """A rotation image that acts trivially on a diagonal node although its
    support is neither inside nor outside each atom, so the support alone
    does not decide acts_trivially_on."""

    A = MultiMatrixAlgebra([4, 2])
    PHI = StarHom(A, MultiMatrixAlgebra([4]), [[1, 0]], unital=True)

    def spec(self):
        c, s = GaussianRational("3/5"), GaussianRational("4/5")
        # the 3/5, 4/5 rotation on coordinates (0, 1) and on (2, 3) of
        # block 0, and the swap of block 1
        u = self.A.element([
            ExactMatrix.from_rows([[c, s, 0, 0], [-s, c, 0, 0],
                                   [0, 0, c, s], [0, 0, -s, c]]),
            ExactMatrix.from_rows([[0, 1], [1, 0]])])
        return SubdiagramSpec(rotations=(InnerAutomorphism(u, "u"),),
                              partitions=([[0, 1], [2, 3], [4], [5]],),
                              label="pairs")

    def test_image_fixes_atoms_its_support_splits(self):
        image = self.PHI.apply_rotation(self.spec().rotations[0])
        atoms = [diagonal_projection(self.PHI.codomain, c)
                 for c in ({0, 1}, {2, 3})]
        assert image.support == frozenset({0, 1, 2, 3})
        assert all(not image.support <= a.diag_mask for a in atoms)
        assert image.acts_trivially_on(atoms)

    def test_square_passes(self):
        assert verify_naturality_square(self.PHI, self.spec(), m=1).ok

    def test_support_only_test_fails_the_square(self, monkeypatch):
        def by_support(alpha, elements):
            return all(alpha.support <= p.diag_mask
                       or alpha.support.isdisjoint(p.diag_mask)
                       for p in elements)

        monkeypatch.setattr(InnerAutomorphism, "acts_trivially_on",
                            by_support)
        with pytest.raises(VerificationError,
                           match="rotation image edge missing"):
            verify_naturality_square(self.PHI, self.spec(), m=1)
