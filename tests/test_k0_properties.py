"""Theorem 1 and Conjecture 1 on random small algebras.

Algebras have at most 3 blocks, each of size at most 3.  For each, the
diagram K0 of the m-stabilization must have the invariant factors of
the standard K0 and verify_theorem1 must pass, for m in {1, 2}; for
those with at most 6 diagonal coordinates verify_conjecture1 must pass
too.  The seeded tests always run; the hypothesis tests shrink a
failure and skip without hypothesis.
"""

import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, k0_standard, k_tilde_f, stabilize,
                        verify_conjecture1, verify_theorem1)

from test_structured_atoms import DrawPick, RngPick

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(4)


def draw_algebra(pick, max_coords=9):
    blocks = [pick.integer(1, 3) for _ in range(pick.integer(1, 3))]
    while sum(blocks) > max_coords:
        blocks.pop()
    return MultiMatrixAlgebra(blocks)


def check_theorem1(pick):
    algebra = draw_algebra(pick)
    m = pick.integer(1, 2)
    stabilized, _ = stabilize(algebra, m)
    want = k0_standard(algebra).invariant_factors()
    assert k_tilde_f(stabilized).invariant_factors() == want, algebra
    report = verify_theorem1(algebra, m=m)
    assert report.ok, (algebra, m, report.error, report.witness)


def check_conjecture1(pick):
    algebra = draw_algebra(pick, max_coords=6)
    report = verify_conjecture1(algebra)
    assert report.ok, (algebra, report)


CHECKS = (check_theorem1, check_conjecture1)
CHECK_IDS = [check.__name__ for check in CHECKS]


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_small_algebras(check, seed):
    pick = RngPick(random.Random(seed))
    for _ in range(5):
        check(pick)


if given is None:
    def test_small_algebra_properties_need_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_small_algebra_property(check, data):
        check(DrawPick(data))
