"""The rotation-fixed partial ideals are the closed-set families
complemented.

An edge's atom rule (atom t is chosen iff every atom over it is) is the
complement of the closed-set link over the same spectrum map (point t
is in the closed set iff some point over it is), and a sampled diagram
has only inclusion and rotation edges.  verify_conjecture1 relies on
this to decide the partial-ideal round trip from the families of
t_tilde alone, so here the two enumerations are compared directly, as
sets of choices, on seeded algebras under four kinds of spec.
"""

import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, SubdiagramSpec,
                        build_subdiagram, enumerate_partial_ideals, spectrum,
                        t_tilde, verify_conjecture1)
from test_spec_fuzzer import draw_spec
from test_subdiagram_oracle import per_block_spec

DUALITY_SEED = 20261022


def complement_choices(algebra, dia):
    """Per family of t_tilde, the atoms outside its closed set, node by
    node."""
    points = [spectrum(dia.node_data[n]).points for n in dia.shape.nodes]
    return [tuple(frozenset(i for i, p in enumerate(pts) if p not in closed)
                  for pts, closed in zip(points, family))
            for family in t_tilde(algebra, diagram=dia).elements]


def partial_choices(dia):
    return [tuple(partial.choice[n] for n in dia.shape.nodes)
            for partial in enumerate_partial_ideals(dia)]


def draws(seed, count=5):
    """count algebras of 1-3 blocks of size 1-3, each under the default,
    the per-block, a fuzzed and a rotation-free spec."""
    rng = random.Random(DUALITY_SEED + seed)
    for _ in range(count):
        algebra = MultiMatrixAlgebra([rng.randint(1, 3)
                                      for _ in range(rng.randint(1, 3))])
        for spec in (None, per_block_spec(algebra), draw_spec(algebra, rng),
                     SubdiagramSpec(rotations=(), label="rotation-free")):
            yield algebra, spec


@pytest.mark.parametrize("seed", range(10))
def test_partial_ideals_are_the_complemented_families(seed):
    for algebra, spec in draws(seed):
        dia = build_subdiagram(algebra, spec)
        families = complement_choices(algebra, dia)
        partials = partial_choices(dia)
        assert len(set(partials)) == len(partials)
        assert set(families) == set(partials), (algebra, spec)
        report = verify_conjecture1(algebra, spec)
        assert report.partial_ideal_count == report.t_tilde_size \
            == len(partials)

