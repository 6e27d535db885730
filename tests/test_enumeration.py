"""Differential tests for the enumeration engine and the lattices built
on it.

compatible_assignments is compared with brute-force filtering of every
assignment on random small rule systems.  enumerate_partial_ideals and
the PartialIdeal checks, which read atom incidence from the edges'
spectrum maps, are compared with the direct atom-level rule: an atom P
of U is chosen iff every atom Q of V with projection_leq(Q, P) is
chosen, and a rotation carries atom i to the atom equal to its image.
MeetSemilattice, which asks its order on demand, is compared with an
oracle that tabulates every order pair up front.

Rule systems are drawn through a pick (RngPick or DrawPick), as in
tests/test_structured_atoms.py: seeded cases always run, the hypothesis
cases shrink a failure to a minimal system and skip without hypothesis.
"""

import itertools
import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, PartialIdeal, ShapedDiagram,
                        Shape, ValidationError, build_subdiagram,
                        closed_set_lattice, enumerate_partial_ideals,
                        limit_semilattice, postcompose, t_tilde,
                        total_ideal_lattice)
from ncspectrum.algebra import projection_leq
from ncspectrum.ideals import _incidence
from ncspectrum.lattices import (ClosedSetFunctor, MeetSemilattice,
                                 compatible_assignments)
from ncspectrum.serialize import load_spec
from ncspectrum.subalgebra import FiniteSpace, SpaceMap

from test_cli import DENSE_SPEC
from test_structured_atoms import DrawPick, RngPick

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(40)


# -- compatible_assignments ------------------------------------------------

def brute_force(nodes, domains, rules):
    out = []
    for values in itertools.product(*(domains[n] for n in nodes)):
        value = dict(zip(nodes, values))
        if all(value[t] == f(value[s]) for t, s, f in rules):
            out.append(values)
    return out


def check_engine(nodes, domains, rules):
    got = list(compatible_assignments(nodes, domains, rules))
    assert len(got) == len(set(got))
    assert sorted(got) == sorted(brute_force(nodes, domains, rules))


def rule_system(pick):
    """Up to four nodes with domains range(1..3) and up to six rules, each
    a random table from the source's domain into the target's; self-loops,
    cycles, unreached nodes and conflicting setters all occur."""
    nodes = [f"n{i}" for i in range(pick.integer(1, 4))]
    domains = {n: range(pick.integer(1, 3)) for n in nodes}
    rules = []
    for _ in range(pick.integer(0, 6)):
        target, source = pick.choice(nodes), pick.choice(nodes)
        table = tuple(pick.choice(domains[target]) for _ in domains[source])
        rules.append((target, source, table.__getitem__))
    return nodes, domains, rules


def _const(c):
    return lambda _x: c


def _ident(x):
    return x


def _flip(x):
    return 1 - x


TWO = {n: range(2) for n in "abc"}
NAMED_SYSTEMS = {
    "no rules": ("abc", TWO, []),
    "self-loop": ("a", TWO, [("a", "a", _flip)]),
    "fixed self-loop": ("ab", TWO, [("a", "a", _ident), ("b", "a", _flip)]),
    "two-cycle": ("ab", TWO, [("a", "b", _ident), ("b", "a", _flip)]),
    "consistent cycle": ("abc", TWO, [("a", "b", _ident), ("b", "c", _ident),
                                      ("c", "a", _ident)]),
    "unreached pair": ("abc", TWO, [("a", "b", _ident), ("b", "a", _ident),
                                    ("c", "c", _ident)]),
    "conflicting setters": ("abc", TWO, [("c", "a", _ident),
                                         ("c", "b", _flip)]),
    "constant setter": ("ab", TWO, [("b", "a", _const(1))]),
}


@pytest.mark.parametrize("name", sorted(NAMED_SYSTEMS))
def test_engine_named_systems(name):
    nodes, domains, rules = NAMED_SYSTEMS[name]
    check_engine(list(nodes), domains, rules)


def test_engine_walks_the_free_product_in_order():
    nodes = ["a", "b", "c"]
    rules = [("b", "a", _flip)]
    got = list(compatible_assignments(nodes, TWO, rules))
    assert got == [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)]


@pytest.mark.parametrize("seed", SEEDS)
def test_engine_matches_brute_force(seed):
    check_engine(*rule_system(RngPick(random.Random(seed))))


# -- partial ideals against the projection_leq rule -------------------------

def _inclusion_expected(arrow, chosen_v):
    u, v = arrow.domain, arrow.codomain
    return frozenset(i for i, p in enumerate(u.atoms)
                     if all(j in chosen_v for j, q in enumerate(v.atoms)
                            if projection_leq(q, p)))


def _rotation_expected(arrow, chosen):
    return frozenset(arrow.codomain.atom_index(arrow.images[i])
                     for i in chosen)


def oracle_failure(partial, kind):
    dia = partial.diagram
    for e in dia.shape.edges:
        arrow = dia.edge_data[e.id]
        if arrow.kind != kind:
            continue
        if kind == "inclusion":
            target = e.src
            expected = _inclusion_expected(arrow, partial.choice[e.dst])
        else:
            target = e.dst
            expected = _rotation_expected(arrow, partial.choice[e.src])
        if expected != partial.choice[target]:
            return e.id, expected
    return None


def oracle_partials(dia, rotation_fixed):
    nodes = list(dia.shape.nodes)
    subsets = [[frozenset(i for i in range(dia.node_data[n].natoms)
                          if bits >> i & 1)
                for bits in range(1 << dia.node_data[n].natoms)]
               for n in nodes]
    out = set()
    for choice in itertools.product(*subsets):
        partial = PartialIdeal(dia, dict(zip(nodes, choice)))
        if oracle_failure(partial, "inclusion") is not None:
            continue
        if rotation_fixed and oracle_failure(partial, "rotation") is not None:
            continue
        out.add(choice)
    return out


ORACLE_BLOCKS = [[1], [2], [1, 1], [3], [1, 2], [1, 1, 1]]


@pytest.mark.parametrize("rotation_fixed", [True, False])
@pytest.mark.parametrize("blocks", ORACLE_BLOCKS, ids=str)
def test_partial_ideals_match_projection_leq_rule(blocks, rotation_fixed):
    dia = build_subdiagram(MultiMatrixAlgebra(blocks))
    got = [tuple(p.choice[n] for n in dia.shape.nodes)
           for p in enumerate_partial_ideals(dia, rotation_fixed)]
    assert len(got) == len(set(got))
    assert set(got) == oracle_partials(dia, rotation_fixed)


def dense_diagram():
    algebra = MultiMatrixAlgebra([4])
    return build_subdiagram(algebra, load_spec(DENSE_SPEC, algebra))


INCIDENCE_DIAGRAMS = {
    "[2,3]": lambda: build_subdiagram(MultiMatrixAlgebra([2, 3])),
    "[1,2,2]": lambda: build_subdiagram(MultiMatrixAlgebra([1, 2, 2])),
    "[4] dense": dense_diagram,
}


@pytest.mark.parametrize("name", sorted(INCIDENCE_DIAGRAMS))
def test_spectrum_map_incidence_matches_projection_leq(name):
    dia = INCIDENCE_DIAGRAMS[name]()
    kinds = set()
    for e in dia.shape.edges:
        arrow = dia.edge_data[e.id]
        kinds.add(arrow.kind)
        under = _incidence(arrow)
        if arrow.kind == "inclusion":
            want = [[i for i, p in enumerate(arrow.domain.atoms)
                     if projection_leq(q, p)] for q in arrow.codomain.atoms]
            assert [[i] for i in under] == want, e.id
        else:
            for i, image in enumerate(arrow.images):
                assert under[arrow.codomain.atom_index(image)] == i, e.id
    assert kinds == {"inclusion", "rotation"}


@pytest.mark.parametrize("seed", range(8))
def test_partial_checks_match_oracle_on_dense_rotations(seed):
    dia = dense_diagram()
    rng = random.Random(seed)
    for _ in range(10):
        choice = {n: frozenset(i for i in range(dia.node_data[n].natoms)
                               if rng.random() < 0.5)
                  for n in dia.shape.nodes}
        partial = PartialIdeal(dia, choice)
        assert (partial.compatibility_failure()
                == oracle_failure(partial, "inclusion"))
        assert partial.rotation_failure() == oracle_failure(partial,
                                                             "rotation")


# -- MeetSemilattice against an eager order table --------------------------

class PairsOracle:
    """Every order pair tabulated up front; top and meets by definition."""

    def __init__(self, elements, leq):
        self.elements = tuple(elements)
        self.pairs = {(a, b) for a in self.elements for b in self.elements
                      if leq(a, b)}
        self.top = self.greatest(self.elements)

    def greatest(self, items):
        found = [c for c in items
                 if all((d, c) in self.pairs for d in items)]
        return found[0] if len(found) == 1 else None

    def meet(self, a, b):
        return self.greatest([c for c in self.elements
                              if (c, a) in self.pairs and (c, b) in self.pairs])


def _subset(a, b):
    return a <= b


def _familywise(fa, fb):
    return all(x <= y for x, y in zip(fa, fb))


def _chain_limit():
    a, b = FiniteSpace(("q",)), FiniteSpace(("x", "y"))
    c = FiniteSpace(("s", "t", "u"))
    shape = Shape(["a", "b", "c"], [("i", "a", "b"), ("j", "b", "c")])
    dia = ShapedDiagram(shape, {"a": a, "b": b, "c": c}, {
        "i": SpaceMap(b, a, {"x": "q", "y": "q"}),
        "j": SpaceMap(c, b, {"s": "x", "t": "x", "u": "y"})},
        variance="contravariant")
    lats, _ = postcompose(ClosedSetFunctor, dia)
    return limit_semilattice(lats)


LATTICES = {
    "closed sets of 0 points": (lambda: closed_set_lattice(FiniteSpace(())),
                                _subset),
    "closed sets of 3 points": (
        lambda: closed_set_lattice(FiniteSpace(("a", "b", "c"))), _subset),
    "total ideals of [1,2,2]": (
        lambda: total_ideal_lattice(MultiMatrixAlgebra([1, 2, 2])),
        lambda a, b: a.blocks <= b.blocks),
    "t_tilde of [1,1,1]": (lambda: t_tilde(MultiMatrixAlgebra([1, 1, 1])),
                           _familywise),
    "t_tilde of [2,3]": (lambda: t_tilde(MultiMatrixAlgebra([2, 3])),
                         _familywise),
    "limit of a chain": (_chain_limit, _familywise),
}


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_meet_semilattice_matches_order_table(name):
    build, relation = LATTICES[name]
    lat = build()
    oracle = PairsOracle(lat.elements, relation)
    for a in lat.elements:
        for b in lat.elements:
            assert lat.leq(a, b) == ((a, b) in oracle.pairs)
            want = oracle.meet(a, b)
            if want is None:
                with pytest.raises(ValidationError):
                    lat.meet(a, b)
            else:
                assert lat.meet(a, b) == want
    assert lat.top == oracle.top
    same = MeetSemilattice(lat.elements, relation)
    assert same == lat and hash(same) == hash(lat)
    if lat.size > 1:
        flipped = MeetSemilattice(lat.elements[::-1], relation)
        assert flipped != lat


def test_equality_compares_the_order():
    points = ("a", "b")
    elements = closed_set_lattice(FiniteSpace(points)).elements
    whole = frozenset(points)
    # the same elements under the order that only the top is above all
    flat = MeetSemilattice(elements, lambda a, b: a == b or b == whole)
    assert flat != closed_set_lattice(FiniteSpace(points))


@pytest.mark.parametrize("elements, leq, message", [
    (["a", "b"], lambda a, b: a == b, "found 0"),
    (["a", "b"], lambda a, b: True, "found 2"),
    (["a"], lambda a, b: False, "not reflexive"),
], ids=["no top", "two tops", "not reflexive"])
def test_meet_semilattice_rejects_bad_orders(elements, leq, message):
    with pytest.raises(ValidationError, match=message):
        MeetSemilattice(elements, leq)


if given is None:
    def test_property_suite_needs_hypothesis():
        pytest.importorskip("hypothesis")
else:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_engine_matches_brute_force_property(data):
        check_engine(*rule_system(DrawPick(data)))
