"""Differential oracle for verify_conjecture1.

Part (a) of verify_conjecture1 once also compared all pairs of the
closed-set limit and of the total ideal lattice for order reversal and
tested the family-to-ideal map for injectivity, and part (b) restricted
each reconstructed ideal back to compare it with its choice.  All three
follow from the per-node comparison that reconstruct_total makes, so
they were dropped.  The earlier function is kept below verbatim (its
order check as the plain function order_isomorphic_via), and every
field of the report, witness and spec_used included, must agree on
seeded draws, failing reports among them.
"""

import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, PartialIdeal, SubdiagramSpec,
                        build_subdiagram, is_rotation_fixed,
                        enumerate_partial_ideals, partial_from_total,
                        reconstruct_total, spectrum, t_tilde,
                        total_ideal_lattice, verify_conjecture1)
from ncspectrum.ideals import Conjecture1Report
from ncspectrum.lattices import MeetSemilattice
from test_spec_fuzzer import draw_spec
from test_subdiagram_oracle import per_block_spec

ORACLE_SEED = 20261021


def order_isomorphic_via(lattice: MeetSemilattice, mapping: dict,
                         other: MeetSemilattice, reverse: bool = False) -> bool:
    """Whether mapping is a bijection preserving order (or reversing
    it when reverse is set)."""
    if set(mapping) != set(lattice.elements):
        return False
    if set(mapping.values()) != set(other.elements):
        return False
    if len(set(mapping.values())) != len(mapping):
        return False
    for a in lattice.elements:
        for b in lattice.elements:
            fwd = lattice.leq(a, b)
            img = other.leq(mapping[a], mapping[b]) if not reverse \
                else other.leq(mapping[b], mapping[a])
            if fwd != img:
                return False
    return True


def oracle_verify_conjecture1(algebra: MultiMatrixAlgebra,
                              spec: SubdiagramSpec | None = None) -> Conjecture1Report:
    """(a) order comparison between the closed-set limit and the total
    ideal lattice under the complement correspondence; (b) round-trip
    bijection between rotation-fixed compatible partial ideals and total
    ideals."""
    if spec is None:
        spec = SubdiagramSpec.default(algebra)
    dia = build_subdiagram(algebra, spec)
    nodes = list(dia.shape.nodes)
    lattice = t_tilde(algebra, spec, diagram=dia)
    ideals = total_ideal_lattice(algebra)

    # (a) family -> complement choice -> reconstructed total ideal
    mapping = {}
    witness = None
    iso_ok = True
    for family in lattice.elements:
        choice = {}
        for n, closed in zip(nodes, family):
            points = spectrum(dia.node_data[n]).points
            choice[n] = frozenset(i for i, p in enumerate(points)
                                  if p not in closed)
        partial = PartialIdeal(dia, choice)
        rec = reconstruct_total(partial)
        if not rec:
            iso_ok = False
            witness = {"family": family, "failure": rec.detail,
                       "node": rec.failing_node}
            break
        mapping[family] = rec.ideal
    if iso_ok:
        values = list(mapping.values())
        if len(set(values)) != len(values) or set(values) != set(ideals.elements):
            iso_ok = False
            witness = {"reason": "family/ideal correspondence is not a bijection",
                       "families": lattice.size, "ideals": ideals.size}
        else:
            # bigger closed sets = smaller ideals: order-reversing both ways
            iso_ok = order_isomorphic_via(lattice, mapping, ideals, reverse=True)
            if not iso_ok:
                witness = {"reason": "correspondence does not reverse order"}

    # (b) independent atom-level enumeration + round trips
    partials = enumerate_partial_ideals(dia, rotation_fixed=True)
    round_trip_ok = True
    for partial in partials:
        rec = reconstruct_total(partial)
        if not rec:
            round_trip_ok = False
            witness = witness or {"reason": "partial ideal fails reconstruction",
                                  "node": rec.failing_node}
            continue
        back = partial_from_total(rec.ideal, dia)
        if back.choice != partial.choice:
            round_trip_ok = False
            witness = witness or {"reason": "restriction round trip failed",
                                  "ideal": sorted(rec.ideal.blocks)}
    for ideal in ideals.elements:
        induced = partial_from_total(ideal, dia)
        if not induced.is_compatible() or not is_rotation_fixed(induced):
            round_trip_ok = False
            witness = witness or {"reason": "induced partial ideal not admissible",
                                  "ideal": sorted(ideal.blocks)}
        rec = reconstruct_total(induced)
        if not rec or rec.ideal != ideal:
            round_trip_ok = False
            witness = witness or {"reason": "total ideal round trip failed",
                                  "ideal": sorted(ideal.blocks)}
    extra = len(partials) - ideals.size

    return Conjecture1Report(
        algebra=algebra,
        spec_used=spec.describe(),
        t_tilde_size=lattice.size,
        ideal_count=ideals.size,
        lattice_iso_ok=iso_ok,
        partial_ideal_count=len(partials),
        round_trip_ok=round_trip_ok,
        extra_families=max(0, extra),
        witness=witness,
    )


def assert_same_report(algebra, spec=None):
    """Every field equal, and return the report."""
    got = verify_conjecture1(algebra, spec)
    want = oracle_verify_conjecture1(algebra, spec)
    for name in Conjecture1Report.__slots__:
        assert getattr(got, name) == getattr(want, name), \
            (name, algebra, got.spec_used)
    return got


def draw_algebra(rng):
    """1-3 blocks of size 1-3."""
    return MultiMatrixAlgebra([rng.randint(1, 3)
                               for _ in range(rng.randint(1, 3))])


def test_reports_agree_on_seeded_draws():
    rng = random.Random(ORACLE_SEED)
    verdicts = {True: 0, False: 0}
    witnesses = set()
    for _ in range(100):
        algebra = draw_algebra(rng)
        for spec in (None, per_block_spec(algebra), draw_spec(algebra, rng)):
            report = assert_same_report(algebra, spec)
            verdicts[report.ok] += 1
            if report.witness is not None:
                witnesses.add(frozenset(report.witness))
    # both verdicts occur, and failing reports carry a witness
    assert verdicts[True] and verdicts[False], verdicts
    assert frozenset({"family", "failure", "node"}) in witnesses, witnesses


@pytest.mark.parametrize("blocks", [[2], [2, 3], [1, 2]])
def test_rotation_free_specs_fail_alike(blocks):
    algebra = MultiMatrixAlgebra(blocks)
    report = assert_same_report(algebra, SubdiagramSpec(rotations=()))
    assert not report.lattice_iso_ok
    assert "family" in report.witness


@pytest.mark.parametrize("blocks", [[1] * k for k in range(1, 10)]
                         + [[1, 2, 3, 4, 5]], ids=str)
def test_reports_agree_on_commutative_and_staircase_algebras(blocks):
    report = assert_same_report(MultiMatrixAlgebra(blocks))
    assert report.ok
    assert report.t_tilde_size == report.ideal_count == 2 ** len(blocks)
