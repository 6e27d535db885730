"""Seeded spec fuzzer: a sampled diagram is right or fails loudly.

The diagram K0 is a colimit, and a finite sample gives the right group
exactly when its rotations generate the identifications of the whole
diagram of commutative subalgebras.  A spec drawn here keeps a random
subset of the per-block oracle's rotations and adds random base
partitions and Pythagorean, cycle, transposition and signed-permutation
rotations.  For Theorem 1 and for each naturality square (the spec on
the domain) the outcome must be a PASS with the group of k0_standard or
SubdiagramInsufficientError: never a wrong group and never a failed
verdict.  The default sample, the per-block oracle and the per-block
permutation spec (the default before it held one permutation) must PASS
on every draw, and on the rotation edges of every drawn diagram the
spectrum map that build_subdiagram records from the placement must be
the one the arrow computes from its atom images.
"""

import random

import pytest

from ncspectrum import (AlgebraElement, ExactMatrix, GaussianRational,
                        InnerAutomorphism, MultiMatrixAlgebra,
                        SubalgebraArrow, SubdiagramInsufficientError,
                        SubdiagramSpec, build_subdiagram, cycle_unitary,
                        diagonal_projection, element_eq, eta, k0_standard,
                        k_tilde_f, k_tilde_f_nonunital, pythagorean_unitary,
                        sample_unital_hom, stabilize, transposition_unitary,
                        unitalize, verify_conjecture1,
                        verify_naturality_square, verify_theorem1)
from ncspectrum.ktheory import _check_eta_inverse
from test_eta_inverse import dense_check, outcome
from test_subdiagram_oracle import per_block_spec

FUZZ_SEED = 20261020
SIGNS = (GaussianRational(1), GaussianRational(-1))


def draw_algebra(rng):
    """1-3 blocks of size 1-4."""
    return MultiMatrixAlgebra([rng.randint(1, 4)
                               for _ in range(rng.randint(1, 3))])


def signed_permutation(algebra, rng):
    """Conjugation by a random permutation of one block's coordinates
    with random signs, held by its unitary."""
    parts = [ExactMatrix.identity(n) for n in algebra.blocks]
    b = rng.randrange(algebra.nblocks)
    n = algebra.blocks[b]
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[0] * n for _ in range(n)]
    for c, p in enumerate(perm):
        rows[p][c] = rng.choice(SIGNS)
    parts[b] = ExactMatrix.from_rows(rows)
    return InnerAutomorphism(AlgebraElement(algebra, parts),
                             name=f"signed[b{b}]")


def extra_rotation(algebra, rng):
    big = [b for b, n in enumerate(algebra.blocks) if n >= 2]
    if not big:
        return signed_permutation(algebra, rng)
    b = rng.choice(big)
    kind = rng.randrange(4)
    if kind == 0:
        return pythagorean_unitary(algebra, b)
    if kind == 1:
        return cycle_unitary(algebra, b)
    if kind == 2:
        i, j = rng.sample(range(algebra.blocks[b]), 2)
        return transposition_unitary(algebra, b, i, j)
    return signed_permutation(algebra, rng)


def draw_spec(algebra, rng):
    """A subset of the per-block oracle's rotations, 0-2 extra rotations
    and 0-2 extra base partitions, in random order."""
    rotations = [a for a in per_block_spec(algebra).rotations
                 if rng.random() < 0.5]
    rotations += [extra_rotation(algebra, rng)
                  for _ in range(rng.randint(0, 2))]
    rng.shuffle(rotations)
    partitions = []
    for _ in range(rng.randint(0, 2)):
        labels = rng.randint(1, 3)
        parts = [set() for _ in range(labels)]
        for c in range(algebra.coord_count):
            parts[rng.randrange(labels)].add(c)
        partitions.append([p for p in parts if p])
    return SubdiagramSpec(rotations=tuple(rotations),
                          partitions=tuple(partitions), label="fuzz")


def theorem1_outcome(algebra, spec, m):
    """"PASS" when eta is checked and K~ has the group of k0_standard,
    "insufficient" when the sample is reported too coarse."""
    try:
        result = eta(algebra, spec, m)
    except SubdiagramInsufficientError:
        return "insufficient"
    assert result.ktilde.invariant_factors() == \
        k0_standard(algebra).invariant_factors(), (algebra, spec.describe())
    return "PASS"


def naturality_outcome(phi, spec, m):
    try:
        report = verify_naturality_square(phi, spec, m=m)
    except SubdiagramInsufficientError:
        return "insufficient"
    assert report.ok, (phi, spec.describe(), report.witness)
    return "PASS"


def assert_rotation_spectra_cached_right(dia):
    for e in dia.shape.edges:
        arrow = dia.edge_data[e.id]
        if arrow.kind != "rotation":
            continue
        fresh = SubalgebraArrow(arrow.domain, arrow.codomain, arrow.images)
        assert arrow.spectrum_map().index == fresh.spectrum_map().index, e.id


@pytest.mark.parametrize("m", [1, 2])
def test_theorem1_on_fuzzed_specs(m):
    rng = random.Random(FUZZ_SEED + m)
    outcomes = set()
    for _ in range(100):
        algebra = draw_algebra(rng)
        stabilized, _ = stabilize(algebra, m)
        assert verify_theorem1(algebra, m=m).ok, algebra
        assert verify_theorem1(algebra, per_block_spec(stabilized), m=m).ok, \
            algebra
        assert_rotation_spectra_cached_right(build_subdiagram(stabilized))
        for _ in range(4):
            spec = draw_spec(stabilized, rng)
            outcomes.add(theorem1_outcome(algebra, spec, m))
            assert_rotation_spectra_cached_right(
                build_subdiagram(stabilized, spec))
    # the draws reach both sides of the line between coarse and generating
    assert outcomes == {"PASS", "insufficient"}


@pytest.mark.parametrize("max_total_dim", [6, 10])
@pytest.mark.parametrize("m", [1, 2])
def test_naturality_on_fuzzed_domain_specs(max_total_dim, m):
    rng = random.Random(FUZZ_SEED + 10 * max_total_dim + m)
    for _ in range(50):
        phi = sample_unital_hom(rng, max_total_dim=max_total_dim)
        stabilized, _ = stabilize(phi.domain, m)
        assert verify_naturality_square(phi, m=m).ok, phi
        assert verify_naturality_square(
            phi, per_block_spec(stabilized), m=m).ok, phi
        for _ in range(2):
            spec = draw_spec(stabilized, rng)
            naturality_outcome(phi, spec, m)
            theorem1_outcome(phi.domain, spec, m)


def test_conjecture1_reports_agree_with_the_per_block_oracle():
    def fields(report):
        return {name: getattr(report, name)
                for name in report.__slots__ if name != "spec_used"}

    rng = random.Random(FUZZ_SEED)
    draws = 0
    while draws < 60:
        algebra = draw_algebra(rng)
        if algebra.coord_count > 6:
            continue
        draws += 1
        got = verify_conjecture1(algebra)
        assert got.ok, algebra
        assert fields(got) == \
            fields(verify_conjecture1(algebra, per_block_spec(algebra))), \
            algebra


def test_nonunital_kernels_with_both_samples():
    rng = random.Random(FUZZ_SEED)
    for _ in range(20):
        algebra = draw_algebra(rng)
        want = k0_standard(algebra).invariant_factors()
        plus, _ = unitalize(stabilize(algebra, 2)[0])
        assert k_tilde_f_nonunital(algebra).invariant_factors() == want
        assert k_tilde_f_nonunital(algebra, per_block_spec(plus)) \
            .invariant_factors() == want, algebra


def test_pythagorean_atom_resolves_only_in_its_host_block():
    # the default's one Pythagorean rotation lives on the first largest
    # block; an atom rotated the same way in another block has no node
    algebra = MultiMatrixAlgebra([2, 3])
    kt = k_tilde_f(algebra)
    hosted = pythagorean_unitary(algebra, 1).conjugate(
        diagonal_projection(algebra, {2}))
    assert hosted.diag_mask is None
    assert element_eq(kt.group, kt.class_of_projection(hosted),
                      kt.class_of((0, 1)))
    stray = pythagorean_unitary(algebra, 0).conjugate(
        diagonal_projection(algebra, {0}))
    assert stray.diag_mask is None
    with pytest.raises(SubdiagramInsufficientError):
        kt.class_of_projection(stray)
    # the per-block oracle has a sheet for block 0 too
    oracle = k_tilde_f(algebra, per_block_spec(algebra))
    assert element_eq(oracle.group, oracle.class_of_projection(stray),
                      oracle.class_of((1, 0)))


# The default sample before its permutations were one for the whole
# algebra: the swap (0 1) of each 2-block and the cycle of each larger
# block, then the one Pythagorean rotation on the first largest block.
def per_block_permutation_spec(algebra):
    rotations = [transposition_unitary(algebra, b, 0, 1) if n == 2 else
                 cycle_unitary(algebra, b)
                 for b, n in enumerate(algebra.blocks) if n >= 2]
    big = max(range(algebra.nblocks), key=lambda b: algebra.blocks[b])
    if algebra.blocks[big] >= 2:
        rotations.append(pythagorean_unitary(algebra, big))
    return SubdiagramSpec(rotations=tuple(rotations),
                          label="per-block-permutation")


def test_default_is_one_permutation_and_one_plane():
    algebra = MultiMatrixAlgebra([2, 1, 3])
    cycles, pyth = SubdiagramSpec.default(algebra).rotations
    assert cycles.name == "cycles" and pyth.name == "pyth[b2]"
    assert cycles.coord_perm == (1, 0, 2, 4, 5, 3)
    assert pyth.planes == ((3, 4),)
    assert SubdiagramSpec.default(MultiMatrixAlgebra([1, 1])).rotations == ()
    # the product of the block cycles moves the finest node as they do
    per_block = per_block_permutation_spec(algebra).rotations[:-1]
    for c in range(algebra.coord_count):
        atom = diagonal_projection(algebra, {c})
        moved = [a.conjugate(atom) for a in per_block]
        assert cycles.conjugate(atom) in moved + [atom]


@pytest.mark.parametrize("m", [1, 2])
def test_theorem1_with_the_per_block_permutation_spec(m):
    rng = random.Random(FUZZ_SEED + 100 + m)
    for _ in range(60):
        algebra = draw_algebra(rng)
        stabilized, _ = stabilize(algebra, m)
        want = verify_theorem1(algebra, per_block_permutation_spec(stabilized),
                               m=m)
        got = verify_theorem1(algebra, m=m)
        assert want.ok and got.ok, algebra
        assert got.ktilde_factors == want.ktilde_factors
        assert k_tilde_f(stabilized).block_words == k_tilde_f(
            stabilized, per_block_permutation_spec(stabilized)).block_words


@pytest.mark.parametrize("m", [1, 2])
def test_naturality_with_the_per_block_permutation_spec(m):
    rng = random.Random(FUZZ_SEED + 200 + m)
    for _ in range(40):
        phi = sample_unital_hom(rng, max_total_dim=10)
        stabilized, _ = stabilize(phi.domain, m)
        assert verify_naturality_square(
            phi, per_block_permutation_spec(stabilized), m=m).ok, phi


def test_conjecture1_with_the_per_block_permutation_spec():
    def fields(report):
        return {name: getattr(report, name)
                for name in report.__slots__ if name != "spec_used"}

    rng = random.Random(FUZZ_SEED + 300)
    draws = 0
    while draws < 40:
        algebra = draw_algebra(rng)
        if algebra.coord_count > 6:
            continue
        draws += 1
        assert fields(verify_conjecture1(algebra)) == fields(
            verify_conjecture1(algebra, per_block_permutation_spec(algebra)))


@pytest.mark.parametrize("m", [1, 2])
def test_eta_check_on_roots_agrees_with_the_dense_check(m):
    # the library tests the right inverse on the roots of the
    # identification classes only; the dense oracle tests every generator
    rng = random.Random(FUZZ_SEED + 400 + m)
    outcomes = set()
    for _ in range(60):
        algebra = draw_algebra(rng)
        stabilized, _ = stabilize(algebra, m)
        for spec in (None, draw_spec(stabilized, rng),
                     draw_spec(stabilized, rng)):
            kt = k_tilde_f(stabilized, spec)
            want = outcome(dense_check, kt)
            assert outcome(_check_eta_inverse, kt) == want, algebra
            outcomes.add(want is None)
    assert outcomes == {True, False}
