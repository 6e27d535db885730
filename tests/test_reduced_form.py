"""The reduced form of a presentation against the full echelon lattice.

PresentedAbGroup.lattice substitutes the identifying relations (one
entry +1, one entry -1) away and echelonizes only the rewritten rest.
The oracle is the lattice it replaced: every relation row inserted into
one IntegerRowLattice.  The two must agree on membership of random
words, on invariant factors (the oracle takes them from the Smith form
of the dense relation matrix) and on kernels, compared through the
Hermite normal form of the kernel generators.

Presentations are drawn to hit every case of the substitution: chains
and cycles of identifications, sums e_a + e_b (not identifications),
general rows over merged generators, rows that vanish once rewritten
and torsion on a merged class.  The seeded tests always run; the
hypothesis tests shrink a failure and skip without hypothesis.
"""

import functools
import random

import pytest

from ncspectrum import AbHom, PresentedAbGroup, ValidationError, kernel
from ncspectrum.snf import (IntegerRowLattice, preimage_row_lattice,
                            smith_normal_form)

from test_snf import hermite_normal_form, sparse_to_dense
from test_structured_atoms import DrawPick, RngPick

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(12)


# -- the oracle --------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def full_echelon(group):
    """Every relation row of the group inserted into one lattice."""
    lattice = IntegerRowLattice(group.ngens)
    for sp in group.rows:
        lattice.insert(dict(sp))
    return lattice


def dense_invariants(ngens, rows):
    """(free rank, torsion divisors > 1) from the dense Smith form."""
    diagonal = [d for d in smith_normal_form(rows).diagonal if d] \
        if rows else []
    return ngens - len(diagonal), tuple(d for d in diagonal if d > 1)


def oracle_kernel_lattice(hom):
    """The kernel lattice by the route the reduced form replaced: the
    image words beside the codomain's full echelon basis."""
    codomain = hom.codomain
    return preimage_row_lattice(hom.words,
                                full_echelon(codomain).basis_sparse(),
                                codomain.ngens)


# -- drawing presentations ---------------------------------------------------

def _add(word, k, c):
    v = word.get(k, 0) + c
    if v:
        word[k] = v
    else:
        word.pop(k, None)


def _identification(pick, a, b):
    sign = pick.choice((1, -1))
    return {a: sign, b: -sign}


def draw_presentation(pick, max_gens=7):
    """A PresentedAbGroup whose rows mix identifications with rows the
    substitution must rewrite."""
    n = pick.integer(1, max_gens)
    idents, rows = [], []
    if n >= 2:
        for _ in range(pick.integer(0, 3)):
            chain = pick.permutation(range(n))[:pick.integer(2, min(n, 4))]
            idents.extend(_identification(pick, a, b)
                          for a, b in zip(chain, chain[1:]))
            if len(chain) > 2 and pick.choice((False, True)):
                idents.append(_identification(pick, chain[-1], chain[0]))
        for _ in range(pick.integer(0, 2)):
            a, b = pick.permutation(range(n))[:2]
            rows.append({a: 1, b: 1})
    for _ in range(pick.integer(0, 2)):
        rows.append({k: pick.integer(-3, 3) for k in range(n)})
    if idents:
        for _ in range(pick.integer(0, 2)):
            # vanishes once rewritten: a combination of identifications
            # that is not one itself
            word = {}
            for _ in range(2):
                c = pick.choice((-2, -1, 1, 2, 3))
                for k, x in pick.choice(idents).items():
                    _add(word, k, c * x)
            rows.append(word)
        for _ in range(pick.integer(0, 2)):
            k = next(iter(pick.choice(idents)))
            rows.append({k: pick.choice((2, 3, 4, 6))})
    rows.extend(idents)
    return PresentedAbGroup(n, pick.permutation(rows))


def draw_word(pick, group, members=False):
    """A random word; with members, one in the relation lattice (a
    combination of relation rows), sometimes moved off it."""
    word = {}
    if members:
        for sp in group.rows:
            c = pick.integer(-2, 2)
            for k, x in sp:
                _add(word, k, c * x)
        if pick.choice((False, True)):
            _add(word, pick.integer(0, group.ngens - 1), pick.integer(-1, 1))
    else:
        for k in range(group.ngens):
            _add(word, k, pick.integer(-3, 3))
    return word


# -- checks ------------------------------------------------------------------

def check_representatives(pick):
    """rep sends each generator to the smallest one its identification
    chains reach, and classes counts the representatives."""
    group = draw_presentation(pick)
    lat = group.lattice
    joined = {g: {g} for g in range(group.ngens)}
    for sp in group.rows:
        if len(sp) == 2 and {c for _k, c in sp} == {1, -1}:
            (a, _), (b, _) = sp
            merged = joined[a] | joined[b]
            for g in merged:
                joined[g] = merged
    assert lat.rep == [min(joined[g]) for g in range(group.ngens)]
    assert lat.classes == len({min(s) for s in joined.values()})


def check_contains(pick):
    group = draw_presentation(pick)
    lat, oracle = group.lattice, full_echelon(group)
    for members in (False, True, True):
        word = draw_word(pick, group, members)
        assert lat.contains(word) == oracle.contains(word), word
    for bad in (group.ngens, -1):
        word = draw_word(pick, group)
        word[bad] = pick.choice((-1, 1))
        with pytest.raises(ValidationError, match="generator"):
            lat.contains(word)


def check_invariant_factors(pick):
    group = draw_presentation(pick)
    assert group.invariant_factors() == \
        dense_invariants(group.ngens, group.relations)


def check_kernel(pick):
    codomain = draw_presentation(pick)
    if pick.choice((False, True)):
        # a free domain: any images give a well-defined hom
        domain = PresentedAbGroup.free(pick.integer(0, 4))
        images = [draw_word(pick, codomain) for _ in range(domain.ngens)]
    else:
        # the quotient map of a presentation by some of its own rows
        domain = PresentedAbGroup(codomain.ngens, [
            dict(sp) for sp in codomain.rows if pick.choice((False, True))])
        images = [{g: 1} for g in range(codomain.ngens)]
    hom = AbHom(domain, codomain, images)
    group, inclusion = kernel(hom)
    want = oracle_kernel_lattice(hom)
    n = domain.ngens
    assert hermite_normal_form(inclusion.images, n) == \
        hermite_normal_form(sparse_to_dense(want.basis_sparse(), n), n)
    rels = [want.coordinates(dict(sp)) for sp in domain.rows]
    assert group.invariant_factors() == dense_invariants(
        want.rank, sparse_to_dense(rels, want.rank))


CHECKS = (check_representatives, check_contains, check_invariant_factors,
          check_kernel)
CHECK_IDS = [check.__name__ for check in CHECKS]


@pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_reduced_form(check, seed):
    pick = RngPick(random.Random(seed))
    for _ in range(10):
        check(pick)


if given is None:
    def test_reduced_form_properties_need_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @pytest.mark.parametrize("check", CHECKS, ids=CHECK_IDS)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_reduced_form_property(check, data):
        check(DrawPick(data))


# -- explicit cases ----------------------------------------------------------

def test_cycle_with_torsion_on_the_merged_class():
    # e0 = e1 = e2 = e0, 2 e1 = 0 and e3 + e4 = 0: Z/2 + Z
    g = PresentedAbGroup(5, [[1, -1, 0, 0, 0], [0, -1, 1, 0, 0],
                             [1, 0, -1, 0, 0], [0, 2, 0, 0, 0],
                             [0, 0, 0, 1, 1]])
    lat = g.lattice
    assert lat.rep == [0, 0, 0, 3, 4]
    assert lat.classes == 3
    assert lat.residual.basis_sparse() == [{0: 2}, {3: 1, 4: 1}]
    assert g.invariant_factors() == (1, (2,))
    assert lat.contains({2: 2}) and not lat.contains({2: 1})
    assert lat.contains({1: 1, 2: 1, 3: 1, 4: 1})


def test_free_group_has_no_residual():
    lat = PresentedAbGroup.free(3).lattice
    assert lat.rep == [0, 1, 2] and lat.classes == 3
    assert lat.residual.rank == 0
    assert lat.contains({}) and not lat.contains({1: 1})
