"""The generating-set subdiagram against the whole-partition oracle.

The oracle spec samples every set partition of the diagonal coordinates
as a base node and every coordinate transposition as a rotation: the
exhaustive sample that the default generating set replaces.  Both must
give the same verdicts.  The oracle grows with the Bell numbers, so it
only runs on algebras with at most ORACLE_MAX_COORDS stabilized
coordinates.
"""

import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, SubdiagramInsufficientError,
                        SubdiagramSpec, build_subdiagram, cycle_unitary, eta,
                        k_tilde_f, pythagorean_unitary, sample_unital_hom,
                        stabilize, transposition_unitary, verify_conjecture1,
                        verify_naturality_square, verify_theorem1)

ORACLE_MAX_COORDS = 5
CATALOG = ([1], [2], [3], [1, 1], [2, 3], [1, 2, 2], [1, 1, 1, 1])
ACCEPTANCE_SEED = 20260811


def set_partitions(n: int):
    """All set partitions of range(n), deterministically ordered.

    Parts are frozensets sorted by minimum; the coarsest partition comes
    first and the all-singletons partition last.
    """
    out = []
    groups = []

    def rec(i):
        if i == n:
            out.append(tuple(frozenset(g) for g in groups))
            return
        for g in groups:
            g.append(i)
            rec(i + 1)
            g.pop()
        groups.append([i])
        rec(i + 1)
        groups.pop()

    if n == 0:
        return [()]
    rec(0)
    return out


def oracle_spec(algebra):
    rotations = []
    for b, n in enumerate(algebra.blocks):
        for i in range(n):
            for j in range(i + 1, n):
                rotations.append(transposition_unitary(algebra, b, i, j))
        if n >= 2:
            rotations.append(pythagorean_unitary(algebra, b))
    return SubdiagramSpec(rotations=tuple(rotations),
                          partitions=tuple(set_partitions(algebra.coord_count)),
                          label="oracle")


THEOREM1_CASES = [
    (blocks, m) for m in (1, 2) for blocks in CATALOG
    if sum(blocks) * m <= ORACLE_MAX_COORDS]


def test_oracle_has_every_partition_as_a_base_node():
    algebra = MultiMatrixAlgebra([1, 3])
    dia = build_subdiagram(algebra, oracle_spec(algebra))
    assert len(dia.meta["base_ids"]) == 15  # Bell(4)
    assert dia.meta["base_ids"][0] == "d:0,1,2,3"
    assert dia.meta["fine"] == "d:0|1|2|3"


@pytest.mark.parametrize("blocks,m", THEOREM1_CASES)
def test_theorem1_matches_oracle(blocks, m):
    algebra = MultiMatrixAlgebra(blocks)
    stabilized, _ = stabilize(algebra, m)
    want = verify_theorem1(algebra, oracle_spec(stabilized), m=m)
    got = verify_theorem1(algebra, m=m)
    assert want.ok and got.ok
    assert got.ktilde_factors == want.ktilde_factors


@pytest.mark.parametrize("blocks", [[2], [1, 1], [2, 3], [1, 2, 2]])
def test_conjecture1_matches_oracle(blocks):
    algebra = MultiMatrixAlgebra(blocks)
    want = verify_conjecture1(algebra, oracle_spec(algebra))
    got = verify_conjecture1(algebra)
    fields = ("t_tilde_size", "partial_ideal_count", "lattice_iso_ok",
              "round_trip_ok")
    assert [getattr(got, f) for f in fields] == \
        [getattr(want, f) for f in fields]
    assert got.ok


def test_naturality_with_oracle_and_default_domain_specs():
    rng = random.Random(ACCEPTANCE_SEED)
    for k in range(10):
        phi = sample_unital_hom(rng, max_total_dim=6)
        assert phi.domain.coord_count <= ORACLE_MAX_COORDS
        assert verify_naturality_square(phi, m=1).ok, k
        oracle = oracle_spec(phi.domain)
        assert verify_naturality_square(phi, oracle, m=1).ok, k


def test_partitions_without_rotations_stay_insufficient():
    algebra = MultiMatrixAlgebra([3])
    spec = SubdiagramSpec(partitions=tuple(set_partitions(3)), label="bare")
    with pytest.raises(SubdiagramInsufficientError):
        eta(algebra, spec=spec, m=1)


# A second oracle: the n - 1 adjacent transpositions of each block plus its
# Pythagorean rotation.  It generates the same coordinate permutations as
# the transposition and cycle of per_block_spec below, with one rotation
# per coordinate and no partition enumeration, so it runs well past
# ORACLE_MAX_COORDS.
ADJACENT_SEED = 20261019


def adjacent_spec(algebra):
    rotations = []
    for b, n in enumerate(algebra.blocks):
        for i in range(n - 1):
            rotations.append(transposition_unitary(algebra, b, i, i + 1))
        if n >= 2:
            rotations.append(pythagorean_unitary(algebra, b))
    return SubdiagramSpec(rotations=tuple(rotations), label="adjacent")


# A third oracle: the default sample before it kept one Pythagorean
# rotation for the whole algebra.  Per block of size n >= 2 it holds the
# swap (0 1), the n-cycle when n >= 3 and a Pythagorean rotation, so every
# block has a rotated sheet of its own.
def per_block_spec(algebra):
    rotations = []
    for b, n in enumerate(algebra.blocks):
        if n < 2:
            continue
        rotations.append(transposition_unitary(algebra, b, 0, 1))
        if n >= 3:
            rotations.append(cycle_unitary(algebra, b))
        rotations.append(pythagorean_unitary(algebra, b))
    return SubdiagramSpec(rotations=tuple(rotations), label="per-block")


def adjacent_draws(count, max_coords, seed):
    """Seeded algebras of at most 3 blocks of size at most 6, with at most
    max_coords coordinates."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        blocks = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        if sum(blocks) <= max_coords:
            out.append(blocks)
    return out


@pytest.mark.parametrize("m", [1, 2])
def test_theorem1_matches_adjacent_transpositions(m):
    for blocks in adjacent_draws(20, 18, ADJACENT_SEED + m):
        algebra = MultiMatrixAlgebra(blocks)
        stabilized, _ = stabilize(algebra, m)
        want = verify_theorem1(algebra, adjacent_spec(stabilized), m=m)
        got = verify_theorem1(algebra, m=m)
        assert want.ok and got.ok, blocks
        assert got.ktilde_factors == want.ktilde_factors, blocks
        assert k_tilde_f(stabilized).block_words == \
            k_tilde_f(stabilized, adjacent_spec(stabilized)).block_words, \
            blocks


def test_conjecture1_matches_adjacent_transpositions():
    def fields(report):
        return {name: getattr(report, name)
                for name in report.__slots__ if name != "spec_used"}

    for blocks in adjacent_draws(10, 8, ADJACENT_SEED):
        algebra = MultiMatrixAlgebra(blocks)
        want = verify_conjecture1(algebra, adjacent_spec(algebra))
        got = verify_conjecture1(algebra)
        assert got.ok, blocks
        assert fields(got) == fields(want), blocks


def test_naturality_with_adjacent_domain_spec():
    rng = random.Random(ACCEPTANCE_SEED)
    for k in range(50):
        phi = sample_unital_hom(rng, max_total_dim=6)
        stabilized, _ = stabilize(phi.domain, 2)
        rep = verify_naturality_square(phi, adjacent_spec(stabilized), m=2)
        assert rep.ok, (k, rep.witness)
