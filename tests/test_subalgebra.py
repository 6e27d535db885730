import random

import pytest

from ncspectrum import (ExactMatrix, MultiMatrixAlgebra, ValidationError,
                        diagonal_projection, partition_subalgebra,
                        CommSubalgebra, SubalgebraArrow, pythagorean_unitary,
                        span_subalgebra, spectrum, spectrum_of_inclusion,
                        transposition_unitary)

def trivial_subalgebra(algebra):
    """The scalars C*1."""
    return CommSubalgebra(algebra, [algebra.one()], validate=False)


def rotate_subalgebra(alpha, u):
    """The rotated subalgebra and the bijective spectrum map pairing
    corresponding atoms."""
    arrow = SubalgebraArrow.rotation(alpha, u)
    return arrow.codomain, arrow.spectrum_map()


M2 = MultiMatrixAlgebra([2])
M3 = MultiMatrixAlgebra([3])
M23 = MultiMatrixAlgebra([2, 3])


def check_partition_of_unity(u):
    total = u.algebra.zero()
    for i, p in enumerate(u.atoms):
        assert p.is_projection() and not p.is_zero()
        total = total + p
        for q in u.atoms[i + 1:]:
            assert (p * q).is_zero()
    assert total == u.algebra.one()


class TestSpan:
    def test_no_generators_gives_scalars(self):
        u = span_subalgebra(M2, [])
        assert u.natoms == 1
        assert u.atoms[0] == M2.one()

    def test_single_projection(self):
        p = diagonal_projection(M2, [0])
        u = span_subalgebra(M2, [p])
        assert set(u.atoms) == {p, M2.one() - p}

    def test_two_generators_in_m3(self):
        # sign patterns: (1,1) -> e11, (1,0) -> e22, (0,1) -> 0, (0,0) -> e33
        g1 = diagonal_projection(M3, [0, 1])
        g2 = diagonal_projection(M3, [0])
        u = span_subalgebra(M3, [g1, g2])
        assert set(u.atoms) == {diagonal_projection(M3, [c]) for c in range(3)}

    def test_generators_recoverable_as_atom_sums(self):
        rng = random.Random(21)
        for _ in range(10):
            gens = [diagonal_projection(
                M23, [c for c in range(5) if rng.random() < 0.5])
                for _ in range(3)]
            u = span_subalgebra(M23, gens)
            check_partition_of_unity(u)
            for g in gens:
                assert u.contains_projection(g)

    def test_non_commuting_rejected(self):
        p = diagonal_projection(M2, [0])
        alpha = pythagorean_unitary(M2, 0)
        q = alpha.conjugate(p)
        with pytest.raises(ValidationError):
            span_subalgebra(M2, [p, q])

    def test_non_projection_rejected(self):
        bad = M2.element([ExactMatrix.from_rows([[1, 1], [0, 1]])])
        with pytest.raises(ValidationError):
            span_subalgebra(M2, [bad])


class TestSpectrum:
    def test_scalars_give_one_point(self):
        assert spectrum(trivial_subalgebra(M2)).size == 1

    def test_diagonal_of_m3(self):
        u = partition_subalgebra(M3, [{0}, {1}, {2}])
        assert spectrum(u).size == 3

    def test_rank_one_span_in_m2_plus_m3(self):
        p = diagonal_projection(M23, [0])
        u = span_subalgebra(M23, [p])
        assert spectrum(u).size == 2

    def test_labels_stable(self):
        u = partition_subalgebra(M3, [{0}, {1}, {2}])
        assert spectrum(u) == spectrum(u)


class TestSpectrumOfInclusion:
    def test_collapse_to_point(self):
        u = trivial_subalgebra(M2)
        v = partition_subalgebra(M2, [{0}, {1}])
        q = spectrum_of_inclusion(u, v)
        assert q.is_surjective()
        assert set(q.assignment.values()) == {"p0"}

    def test_equal_subalgebras_give_identity(self):
        v = partition_subalgebra(M2, [{0}, {1}])
        q = spectrum_of_inclusion(v, v)
        assert q.assignment == {"p0": "p0", "p1": "p1"}

    def test_m3_two_level(self):
        u = span_subalgebra(M3, [diagonal_projection(M3, [0, 1])])
        v = partition_subalgebra(M3, [{0}, {1}, {2}])
        q = spectrum_of_inclusion(u, v)
        # atoms of u: diag(1,1,0) then diag(0,0,1)
        assert q.assignment == {"p0": "p0", "p1": "p0", "p2": "p1"}

    def test_not_an_inclusion(self):
        u = span_subalgebra(M2, [diagonal_projection(M2, [0])])
        alpha = pythagorean_unitary(M2, 0)
        w, _ = rotate_subalgebra(alpha, u)
        with pytest.raises(ValidationError):
            spectrum_of_inclusion(u, w)

    def test_preimage_sum_identity(self):
        rng = random.Random(31)
        for _ in range(10):
            parts = _random_partition(rng, 5)
            v = partition_subalgebra(M23, parts)
            coarse = _merge_random(rng, parts)
            u = partition_subalgebra(M23, coarse)
            q = spectrum_of_inclusion(u, v)
            assert q.is_surjective()
            for i, p in enumerate(u.atoms):
                total = M23.zero()
                for j, atom in enumerate(v.atoms):
                    if q.assignment[f"p{j}"] == f"p{i}":
                        total = total + atom
                assert total == p

    def test_contravariant_functoriality(self):
        rng = random.Random(41)
        for _ in range(10):
            parts = _random_partition(rng, 5)
            mid = _merge_random(rng, parts)
            top = _merge_random(rng, mid)
            w = partition_subalgebra(M23, parts)
            v = partition_subalgebra(M23, mid)
            u = partition_subalgebra(M23, top)
            direct = spectrum_of_inclusion(u, w)
            composite = spectrum_of_inclusion(u, v).compose(
                spectrum_of_inclusion(v, w))
            assert direct == composite


def _random_partition(rng, n):
    parts = []
    for c in range(n):
        if parts and rng.random() < 0.5:
            parts[rng.randrange(len(parts))].add(c)
        else:
            parts.append({c})
    return [frozenset(p) for p in parts]


def _merge_random(rng, parts):
    parts = [set(p) for p in parts]
    if len(parts) >= 2:
        i, j = rng.sample(range(len(parts)), 2)
        parts[i] |= parts[j]
        del parts[j]
    return [frozenset(p) for p in parts]


class TestRotateSubalgebra:
    def test_identity_unitary(self):
        from ncspectrum import InnerAutomorphism
        u = partition_subalgebra(M2, [{0}, {1}])
        alpha = InnerAutomorphism(M2.one())
        w, q = rotate_subalgebra(alpha, u)
        assert w == u
        assert q.assignment == {"p0": "p0", "p1": "p1"}

    def test_swap_transposes_atoms(self):
        u = partition_subalgebra(M2, [{0}, {1}])
        alpha = transposition_unitary(M2, 0, 0, 1)
        w, q = rotate_subalgebra(alpha, u)
        assert w == u
        assert q.assignment == {"p0": "p1", "p1": "p0"}

    def test_pythagorean_gives_distinct_subalgebra(self):
        u = partition_subalgebra(M2, [{0}, {1}])
        alpha = pythagorean_unitary(M2, 0)
        w, q = rotate_subalgebra(alpha, u)
        assert w != u
        check_partition_of_unity(w)
        assert all(p.rank_vector() == (1,) for p in w.atoms)
        assert sorted(q.assignment.values()) == sorted(q.target.points)

    def test_parent_mismatch(self):
        u = partition_subalgebra(M2, [{0}, {1}])
        alpha = pythagorean_unitary(M3, 0)
        with pytest.raises(ValidationError):
            rotate_subalgebra(alpha, u)
        with pytest.raises(ValidationError):
            alpha.conjugate(u.atoms[0])
