import random

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        InnerAutomorphism, MultiMatrixAlgebra, StarHom,
                        ValidationError, cycle_unitary, diagonal_projection,
                        pythagorean_unitary, sample_unital_hom, stabilize,
                        transposition_unitary, unitalize,
                        verify_naturality_square)

M2 = MultiMatrixAlgebra([2])
M23 = MultiMatrixAlgebra([2, 3])


def gr(re, im=0):
    return GaussianRational(re, im)


@pytest.mark.parametrize("build", [
    lambda: MultiMatrixAlgebra([2.5]),
    lambda: MultiMatrixAlgebra([True]),
    lambda: StarHom(MultiMatrixAlgebra([1]), M2, [[2.7]], unital=True),
    lambda: StarHom(MultiMatrixAlgebra([1]), M2, [[2.0]], unital=True),
], ids=["float block", "bool block", "float multiplicity",
        "integral float multiplicity"])
def test_non_integer_sizes_are_rejected(build):
    with pytest.raises(ValidationError, match="must be an integer"):
        build()


@pytest.mark.parametrize("build", [
    lambda: InnerAutomorphism.permutation(M2, [True, False]),
    lambda: StarHom(MultiMatrixAlgebra([1]), M2, [[2]], unital=True,
                    assignment=[[(False, True), (False, False)]]),
], ids=["bool permutation", "bool assignment slot"])
def test_bools_are_not_coordinates(build):
    with pytest.raises(ValidationError):
        build()


class TestApplyHom:
    def test_identity(self):
        phi = StarHom.identity(M2)
        a = M2.element([ExactMatrix.from_rows([[1, 2], [3, gr(0, 1)]])])
        assert phi.apply(a) == a

    def test_scalar_diagonal_embedding(self):
        phi = StarHom(MultiMatrixAlgebra([1]), M2, [[2]], unital=True)
        a = phi.domain.element([ExactMatrix.from_rows([[gr(5)]])])
        assert phi.apply(a) == M2.element([ExactMatrix.diagonal([5, 5])])

    def test_rank_doubles_under_multiplicity_two(self):
        phi = StarHom(M2, MultiMatrixAlgebra([4]), [[2]], unital=True)
        p = diagonal_projection(M2, [0])
        image = phi.apply(p)
        assert image.is_projection()
        assert image.rank_vector() == (2,)

    def test_parent_mismatch(self):
        phi = StarHom.identity(M2)
        with pytest.raises(ValidationError):
            phi.apply(M23.one())

    def test_preserves_classification(self):
        rng = random.Random(2)
        for _ in range(15):
            phi = sample_unital_hom(rng)
            p = diagonal_projection(
                phi.domain,
                [c for c in range(phi.domain.coord_count) if rng.random() < 0.5])
            image = phi.apply(p)
            assert image.is_projection()
            u = phi.domain.one()
            assert phi.apply(u).is_unitary()

    def test_unital_flag_requires_exact_fill(self):
        with pytest.raises(ValidationError):
            StarHom(M2, MultiMatrixAlgebra([5]), [[2]], unital=True)
        # non-unital version of the same data is fine, zero-padded
        phi = StarHom(M2, MultiMatrixAlgebra([5]), [[2]], unital=False)
        image = phi.apply(M2.one())
        assert image.rank_vector() == (4,)


class TestConjugate:
    def test_identity_unitary(self):
        alpha = InnerAutomorphism(M2.one())
        p = diagonal_projection(M2, [0])
        assert alpha.conjugate(p) == p

    def test_swap(self):
        alpha = transposition_unitary(M2, 0, 0, 1)
        p = diagonal_projection(M2, [0])
        assert alpha.conjugate(p) == diagonal_projection(M2, [1])

    def test_cycle(self):
        # block 1 of M23 holds coordinates 2, 3, 4; block 0 stays put
        alpha = cycle_unitary(M23, 1)
        assert alpha.name == "cycle[b1]"
        for c, want in [(0, 0), (1, 1), (2, 3), (3, 4), (4, 2)]:
            p = diagonal_projection(M23, [c])
            assert alpha.conjugate(p) == diagonal_projection(M23, [want])

    def test_cycle_needs_two_coordinates(self):
        with pytest.raises(ValidationError):
            cycle_unitary(MultiMatrixAlgebra([1, 2]), 0)

    def test_pythagorean_rotation(self):
        alpha = pythagorean_unitary(M2, 0)
        p = diagonal_projection(M2, [0])
        got = alpha.conjugate(p)
        want = M2.element([ExactMatrix.from_rows([
            [gr("9/25"), gr("-12/25")],
            [gr("-12/25"), gr("16/25")],
        ])])
        assert got == want
        assert got.is_projection()
        assert got.rank_vector() == (1,)

    def test_rank_vector_preserved(self):
        rng = random.Random(4)
        alpha = pythagorean_unitary(M23, 1)
        beta = transposition_unitary(M23, 1, 0, 2)
        for _ in range(10):
            coords = [c for c in range(M23.coord_count) if rng.random() < 0.5]
            p = diagonal_projection(M23, coords)
            assert alpha.conjugate(p).rank_vector() == p.rank_vector()
            assert beta.conjugate(p).rank_vector() == p.rank_vector()

    def test_non_unitary_rejected(self):
        with pytest.raises(ValidationError):
            InnerAutomorphism(diagonal_projection(M2, [0]))

    def test_dense_rotation_builds_its_adjoint_once(self, monkeypatch):
        alpha = InnerAutomorphism(pythagorean_unitary(M23, 1).u)
        calls = []
        adjoint = AlgebraElement.adjoint

        def counted(self):
            calls.append(self)
            return adjoint(self)
        monkeypatch.setattr(AlgebraElement, "adjoint", counted)
        # coordinate 2 is half of the rotation's support: a dense conjugation
        p = diagonal_projection(M23, [2])
        images = [alpha.conjugate(p) for _ in range(6)]
        assert len(calls) == 1
        assert all(q == images[0] and q.is_projection() for q in images)
        assert alpha.inverse().conjugate(images[0]) == p


class TestCompose:
    def _random_hom_from(self, rng, domain):
        while True:
            k_cod = rng.randint(1, 3)
            mult = [[rng.randint(0, 2) for _ in range(domain.nblocks)]
                    for _ in range(k_cod)]
            blocks = [sum(mult[i][j] * domain.blocks[j]
                          for j in range(domain.nblocks))
                      for i in range(k_cod)]
            if all(b >= 1 for b in blocks):
                return StarHom(domain, MultiMatrixAlgebra(blocks), mult,
                               unital=True)

    def test_multiplicity_matrices_multiply(self):
        rng = random.Random(8)
        for _ in range(15):
            phi = sample_unital_hom(rng)
            psi = self._random_hom_from(rng, phi.codomain)
            comp = psi.compose(phi)
            k_cod, k_dom = psi.codomain.nblocks, phi.domain.nblocks
            want = [[sum(psi.multiplicity[i][j] * phi.multiplicity[j][l]
                         for j in range(phi.codomain.nblocks))
                     for l in range(k_dom)] for i in range(k_cod)]
            assert [list(r) for r in comp.multiplicity] == want

    def test_compose_agrees_with_application(self):
        rng = random.Random(13)
        for _ in range(10):
            phi = sample_unital_hom(rng)
            psi = self._random_hom_from(rng, phi.codomain)
            comp = psi.compose(phi)
            coords = [c for c in range(phi.domain.coord_count)
                      if rng.random() < 0.5]
            p = diagonal_projection(phi.domain, coords)
            assert comp.apply(p) == psi.apply(phi.apply(p))


class TestStabilize:
    def test_level_one_is_identity(self):
        out, _ = stabilize(M2, 1)
        assert out == M2

    def test_block_sizes_scale(self):
        out, _ = stabilize(M23, 2)
        assert out.blocks == (4, 6)

    def test_hom_keeps_multiplicity(self):
        phi = StarHom(MultiMatrixAlgebra([1]), M2, [[2]], unital=True)
        _, phi2 = stabilize(phi.domain, 3, phi)
        assert phi2.multiplicity == phi.multiplicity
        assert phi2.domain.blocks == (3,)
        assert phi2.codomain.blocks == (6,)
        assert phi2.unital

    def test_invalid_level(self):
        with pytest.raises(ValidationError):
            stabilize(M2, 0)

    @staticmethod
    def swapped_hom():
        """[1, 2] -> [3] placing block 1 before block 0."""
        return StarHom(MultiMatrixAlgebra([1, 2]), MultiMatrixAlgebra([3]),
                       [[1, 1]], unital=True, assignment=[[(1, 0), (0, 0)]])

    def test_level_one_gives_back_the_hom(self):
        phi = self.swapped_hom()
        assert stabilize(phi.domain, 1, phi)[1] == phi

    @staticmethod
    def assert_copies_follow_slots(phi, m):
        # copy t of stabilized coordinate m c + t lands at m d + t for
        # every image d of c, in phi's slot order
        _, phi_m = stabilize(phi.domain, m, phi)
        assert phi_m.assignment == phi.assignment
        for c, images in enumerate(phi.coord_map):
            for t in range(m):
                assert phi_m.coord_map[m * c + t] == tuple(
                    m * d + t for d in images)

    def test_assignment_is_carried(self):
        phi = self.swapped_hom()
        assert phi.coord_map == ((2,), (0,), (1,))
        self.assert_copies_follow_slots(phi, 2)
        _, phi2 = stabilize(phi.domain, 2, phi)
        assert phi2.coord_map[:2] == ((4,), (5,))

    @staticmethod
    def shuffled_homs(seed, count):
        """Seeded random unital homs with each slot row shuffled."""
        rng = random.Random(seed)
        for _ in range(count):
            phi = sample_unital_hom(rng)
            shuffled = [rng.sample(row, len(row)) for row in phi.assignment]
            yield StarHom(phi.domain, phi.codomain, phi.multiplicity,
                          unital=True, assignment=shuffled)

    def test_shuffled_assignments_are_carried(self):
        for phi in self.shuffled_homs(17, 20):
            for m in (2, 3):
                self.assert_copies_follow_slots(phi, m)

    def test_shuffled_assignments_keep_the_naturality_square(self):
        for phi in self.shuffled_homs(40, 8):
            assert verify_naturality_square(phi, m=2).ok


class TestUnitalize:
    def test_adjoined_block(self):
        plus, pi = unitalize(M2)
        assert plus.blocks == (2, 1)
        assert pi.codomain.blocks == (1,)

    def test_pi_projects_onto_scalar_part(self):
        plus, pi = unitalize(M2)
        a = plus.element([
            ExactMatrix.from_rows([[1, 2], [3, 4]]),
            ExactMatrix.from_rows([[gr(7)]]),
        ])
        assert pi.apply(a) == pi.codomain.element(
            [ExactMatrix.from_rows([[gr(7)]])])

    def test_kernel_is_the_original_blocks(self):
        plus, pi = unitalize(M23)
        for b in range(M23.nblocks):
            coord = plus.block_offset(b)
            p = diagonal_projection(plus, [coord])
            assert pi.apply(p).is_zero()
        top = diagonal_projection(plus, [plus.coord_count - 1])
        assert not pi.apply(top).is_zero()


def test_rank_vector_of_a_mask_matches_the_block_scan():
    # the oracle scans every coordinate of every block for the mask's
    rng = random.Random(20261020)
    for _ in range(300):
        algebra = MultiMatrixAlgebra([rng.randint(1, 5)
                                      for _ in range(rng.randint(1, 6))])
        mask = {c for c in range(algebra.coord_count) if rng.random() < 0.5}
        p = diagonal_projection(algebra, mask)
        assert p.diag_mask == mask
        want, offset = [], 0
        for n in algebra.blocks:
            want.append(sum(1 for c in range(offset, offset + n) if c in mask))
            offset += n
        assert p.rank_vector() == tuple(want), (algebra, mask)
