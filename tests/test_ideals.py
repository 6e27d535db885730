import pytest

from ncspectrum import (AlgebraElement, MultiMatrixAlgebra, PartialIdeal,
                        ShapedDiagram, SubdiagramSpec, TotalIdeal,
                        ValidationError, build_subdiagram,
                        diagonal_projection, enumerate_partial_ideals, ideals,
                        is_rotation_fixed, partial_from_total,
                        reconstruct_total, restrict_total, span_subalgebra,
                        t_tilde, total_ideal_lattice, transposition_unitary,
                        verify_conjecture1)

M2 = MultiMatrixAlgebra([2])
M23 = MultiMatrixAlgebra([2, 3])


def test_non_integer_indices_are_rejected():
    with pytest.raises(ValidationError, match="must be an integer"):
        TotalIdeal(M23, [0.9])
    with pytest.raises(ValidationError, match="must be an integer"):
        TotalIdeal(M23, [True])
    dia = build_subdiagram(M2)
    choice = {n: frozenset() for n in dia.shape.nodes}
    for bad in (1.7, True):
        choice[dia.meta["fine"]] = [bad]
        with pytest.raises(ValidationError, match="must be an integer"):
            PartialIdeal(dia, dict(choice))


class TestRestrictTotal:
    def test_zero_ideal(self):
        dia = build_subdiagram(M23)
        zero = TotalIdeal(M23, [])
        for nid in dia.shape.nodes:
            assert restrict_total(zero, dia.node_data[nid]) == frozenset()

    def test_whole_algebra(self):
        dia = build_subdiagram(M23)
        whole = TotalIdeal(M23, [0, 1])
        for nid in dia.shape.nodes:
            node = dia.node_data[nid]
            assert restrict_total(whole, node) == frozenset(range(node.natoms))

    def test_single_block_support(self):
        # the atom supported in block 0 is kept; its complement, which
        # touches block 1, is not
        e = diagonal_projection(M23, [0, 1])
        u = span_subalgebra(M23, [e])
        ideal = TotalIdeal(M23, [0])
        kept = restrict_total(ideal, u)
        assert kept == frozenset({u.atom_index(e)})

    def test_parent_mismatch(self):
        u = span_subalgebra(M2, [])
        with pytest.raises(ValidationError):
            restrict_total(TotalIdeal(M23, [0]), u)


class TestRotationFixed:
    def test_induced_partial_ideal_is_fixed(self):
        dia = build_subdiagram(M23)
        for blocks in ([], [0], [1], [0, 1]):
            partial = partial_from_total(TotalIdeal(M23, blocks), dia)
            assert partial.is_compatible()
            assert is_rotation_fixed(partial)

    def test_swap_breaks_an_asymmetric_choice(self):
        spec = SubdiagramSpec(rotations=(transposition_unitary(M2, 0, 0, 1),),
                              label="swap-only")
        dia = build_subdiagram(M2, spec)
        choice = {"d:0,1": frozenset(), "d:0|1": frozenset({0})}
        partial = PartialIdeal(dia, choice)
        assert partial.is_compatible()
        assert not is_rotation_fixed(partial)

    def test_empty_choice_is_fixed(self):
        dia = build_subdiagram(M2)
        choice = {n: frozenset() for n in dia.shape.nodes}
        assert is_rotation_fixed(PartialIdeal(dia, choice))


class TestReconstructTotal:
    def test_round_trip(self):
        dia = build_subdiagram(M23)
        ideal = TotalIdeal(M23, [0])
        partial = partial_from_total(ideal, dia)
        rec = reconstruct_total(partial)
        assert rec.ok and rec.ideal == ideal

    def test_empty_choice_gives_zero_ideal(self):
        dia = build_subdiagram(M2)
        partial = PartialIdeal(dia, {n: frozenset() for n in dia.shape.nodes})
        rec = reconstruct_total(partial)
        assert rec.ok and rec.ideal == TotalIdeal(M2, [])

    def test_asymmetric_choice_overcovers(self):
        spec = SubdiagramSpec(rotations=(transposition_unitary(M2, 0, 0, 1),),
                              label="swap-only")
        dia = build_subdiagram(M2, spec)
        partial = PartialIdeal(dia, {"d:0,1": frozenset(),
                                     "d:0|1": frozenset({0})})
        rec = reconstruct_total(partial)
        assert not rec.ok
        assert rec.failing_node is not None


class TestTTilde:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_commutative_powerset(self, n):
        algebra = MultiMatrixAlgebra([1] * n)
        lat = t_tilde(algebra)
        assert lat.size == 2 ** n

    def test_m2_two_ideals(self):
        assert t_tilde(M2).size == 2

    def test_m2_plus_m3_boolean(self):
        assert t_tilde(M23).size == 4

    def test_count_monotone_in_rotations(self):
        swap = transposition_unitary(M2, 0, 0, 1)
        sizes = []
        for rotations in ((), (swap,), None):
            spec = (SubdiagramSpec(rotations=rotations, label="x")
                    if rotations is not None else None)
            sizes.append(t_tilde(M2, spec).size)
        assert sizes[0] >= sizes[1] >= sizes[2]
        assert sizes[2] == 2


class TestOrientationRegression:
    def test_c2_closed_sets_versus_ideals(self):
        # pins the complementation: the whole-spectrum family is the top
        # closed set and corresponds to the ZERO ideal
        algebra = MultiMatrixAlgebra([1, 1])
        dia = build_subdiagram(algebra)
        lat = t_tilde(algebra, diagram=dia)
        top = lat.top
        choice = {}
        for nid, closed in zip(dia.shape.nodes, top):
            node = dia.node_data[nid]
            choice[nid] = frozenset(i for i in range(node.natoms)
                                    if f"p{i}" not in closed)
        rec = reconstruct_total(PartialIdeal(dia, choice))
        assert rec.ok
        assert rec.ideal == TotalIdeal(algebra, [])


class TestEnumeration:
    def test_m2_partials_match_ideals(self):
        dia = build_subdiagram(M2)
        partials = enumerate_partial_ideals(dia, rotation_fixed=True)
        assert len(partials) == 2

    def test_without_fixedness_more_partials(self):
        spec = SubdiagramSpec(rotations=(), label="bare")
        dia = build_subdiagram(M2, spec)
        frees = enumerate_partial_ideals(dia, rotation_fixed=False)
        assert len(frees) == 4  # any subset of the two diagonal atoms

    @pytest.mark.parametrize("blocks, count", [([2], 10), ([3], 50)])
    def test_without_fixedness_rotations_do_not_constrain(self, blocks,
                                                           count):
        # the default diagram's rotation edges must not prune the
        # compatible partial ideals when fixedness is not asked for
        dia = build_subdiagram(MultiMatrixAlgebra(blocks))
        assert len(enumerate_partial_ideals(dia, rotation_fixed=False)) == count
        assert len(enumerate_partial_ideals(dia, rotation_fixed=True)) == 2


class TestConjecture1:
    def test_block_supports_are_computed_once_per_atom(self, monkeypatch):
        algebra = MultiMatrixAlgebra([1, 2, 3, 4, 5])
        atoms = sum(node.natoms
                    for node in build_subdiagram(algebra).node_data.values())
        calls = []
        rank_vector = AlgebraElement.rank_vector

        def counted(self):
            calls.append(self)
            return rank_vector(self)
        monkeypatch.setattr(AlgebraElement, "rank_vector", counted)
        rep = verify_conjecture1(algebra)
        assert rep.ok and rep.t_tilde_size == rep.partial_ideal_count == 32
        assert len(calls) <= atoms

    def test_scalars(self):
        rep = verify_conjecture1(MultiMatrixAlgebra([1]))
        assert rep.ok and rep.t_tilde_size == 2

    def test_m2(self):
        rep = verify_conjecture1(M2)
        assert rep.ok
        assert rep.t_tilde_size == rep.ideal_count == 2

    def test_m2_plus_m3(self):
        rep = verify_conjecture1(M23)
        assert rep.ok
        assert rep.t_tilde_size == rep.ideal_count == 4
        assert rep.partial_ideal_count == 4
        assert "default" in rep.spec_used

    def test_total_ideal_lattice_shape(self):
        lat = total_ideal_lattice(M23)
        assert lat.size == 4
        assert lat.top == TotalIdeal(M23, [0, 1])


def test_edge_rules_are_read_once_per_diagram(monkeypatch):
    calls = []
    rule = ideals._atom_rule

    def counted(edge, arrow):
        calls.append(edge.id)
        return rule(edge, arrow)
    monkeypatch.setattr(ideals, "_atom_rule", counted)
    algebra = MultiMatrixAlgebra([1, 2, 2])
    dia = build_subdiagram(algebra)
    report = verify_conjecture1(algebra, SubdiagramSpec.default(algebra))
    assert report.ok
    # verify_conjecture1 builds its own diagram: one rule per edge of it
    assert sorted(calls) == sorted(e.id for e in dia.shape.edges)
    # a diagram given another's meta (and so its rules) reads its own
    del calls[:]
    assert partial_from_total(TotalIdeal(algebra, [1]), dia).is_compatible()
    bare = ShapedDiagram(dia.shape, dia.node_data,
                         {e.id: dia.edge_data[e.id] for e in dia.shape.edges},
                         meta=dict(dia.meta))
    assert partial_from_total(TotalIdeal(algebra, [1]), bare).is_compatible()
    assert len(calls) == 2 * len(dia.shape.edges)
