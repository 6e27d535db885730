"""CommSubalgebra validation by the sum of its atoms against the pairwise
rule it replaced.

Projections that sum to the identity are pairwise orthogonal, so the
library checks only that the atoms are nonzero projections summing to 1.
The oracle below is the earlier rule, which also multiplied every pair
of atoms.  On seeded families drawn from the nodes of default diagrams,
diagonal masks and rotated atoms both, the two must accept exactly the
same families.
"""

import random

import pytest

from ncspectrum import (CommSubalgebra, MultiMatrixAlgebra, ValidationError,
                        build_subdiagram)


def pairwise_rule(algebra, atoms):
    """None when the earlier validation accepts the atoms, else the step
    that rejects them: "atom", "pairwise" or "sum"."""
    total = algebra.zero()
    for p in atoms:
        if p.algebra != algebra or p.is_zero() or not p.is_projection():
            return "atom"
        total = total + p
    for i in range(len(atoms)):
        for j in range(i + 1, len(atoms)):
            if not (atoms[i] * atoms[j]).is_zero():
                return "pairwise"
    return None if total == algebra.one() else "sum"


def accepts(algebra, atoms):
    try:
        CommSubalgebra(algebra, atoms, validate=True)
    except ValidationError:
        return False
    return True


def families(dia, rng, count):
    """count seeded families, each a node's atoms changed by one move:
    kept, two atoms merged, one replaced, one duplicated, one dropped,
    or another node's atoms added."""
    nodes = [dia.node_data[n].atoms for n in dia.shape.nodes]
    pool = [a for atoms in nodes for a in atoms]
    for _ in range(count):
        atoms = list(rng.choice(nodes))
        move = rng.randrange(6)
        i = rng.randrange(len(atoms))
        if move == 1 and len(atoms) > 1:
            j = rng.choice([j for j in range(len(atoms)) if j != i])
            atoms[i] = atoms[i] + atoms[j]
            del atoms[j]
        elif move == 2:
            atoms[i] = rng.choice(pool)
        elif move == 3:
            atoms.append(atoms[i])
        elif move == 4 and len(atoms) > 1:
            del atoms[i]
        elif move == 5:
            atoms.extend(rng.choice(nodes))
        rng.shuffle(atoms)
        yield atoms


@pytest.mark.parametrize("blocks", [[2, 3], [4]])
def test_sum_check_accepts_what_the_pairwise_rule_accepts(blocks):
    algebra = MultiMatrixAlgebra(blocks)
    dia = build_subdiagram(algebra)
    assert any(a.diag_mask is None for n in dia.shape.nodes
               for a in dia.node_data[n].atoms), "no rotated atom drawn"
    verdicts = {}
    for seed in range(40):
        for atoms in families(dia, random.Random(seed), 10):
            reason = pairwise_rule(algebra, atoms)
            assert accepts(algebra, atoms) == (reason is None), (seed, reason)
            verdicts[reason] = verdicts.get(reason, 0) + 1
    # accepted families, and overlapping ones that the pairwise step
    # rejected before the sum was compared
    assert verdicts.get(None, 0) > 0 and verdicts.get("pairwise", 0) > 0
