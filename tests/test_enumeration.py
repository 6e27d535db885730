"""Differential tests for the enumeration engine and the lattices built
on it.

The product walk that the engine replaced, compatible_assignments, is
kept here as the oracle and is itself compared with brute-force
filtering of every assignment on random small rule systems.
lattices.compatible_masks, the bit-propagation search, is compared with
the walk on random link systems, on random space diagrams (through
limit_semilattice) and on both ideal-side limits of the catalog
algebras, under the default and the whole-partition spec: the same
solutions in the same order.
enumerate_partial_ideals and the PartialIdeal checks, which read atom
incidence from the edges' spectrum maps, are compared with the direct
atom-level rule: an atom P of U is chosen iff every atom Q of V with
projection_leq(Q, P) is chosen, and a rotation carries atom i to the
atom equal to its image.
MeetSemilattice, which asks its order on demand, is compared with an
oracle that tabulates every order pair up front.

Rule systems are drawn through a pick (RngPick or DrawPick), as in
tests/test_structured_atoms.py: seeded cases always run, the hypothesis
cases shrink a failure to a minimal system and skip without hypothesis.
"""

import io
import itertools
import json
import random

import pytest

from ncspectrum import (MultiMatrixAlgebra, PartialIdeal, ShapedDiagram,
                        Shape, SpectrumFunctor, ValidationError,
                        build_subdiagram, closed_set_lattice,
                        closed_set_map, enumerate_partial_ideals,
                        limit_semilattice, postcompose, t_tilde,
                        total_ideal_lattice, verify_conjecture1)
from ncspectrum.algebra import projection_leq
from ncspectrum.cli import main
from ncspectrum.ideals import _atom_rule
from ncspectrum.lattices import (MeetSemilattice, _closed_set_rank,
                                 compatible_masks)
from ncspectrum.serialize import load_spec
from ncspectrum.subalgebra import FiniteSpace, SpaceMap

from test_cli import DENSE_SPEC
from test_structured_atoms import DrawPick, RngPick
from test_subdiagram_oracle import CATALOG, ORACLE_MAX_COORDS, oracle_spec

try:
    from hypothesis import given, settings, strategies as st
except ImportError:
    given = None

SEEDS = range(40)


# -- the product walk, kept as the oracle ----------------------------------

def _plan(nodes, rules):
    """Free nodes, setting rules and checked rules, from the shape alone.

    Free nodes are those no rule sets, then, in node order, any node
    still unreached.  Every other node is set by the first rule that
    reaches it from a set node; the other rules are checked.
    """
    setters_of = {n: [] for n in nodes}
    for k, (target, source, _f) in enumerate(rules):
        if target != source:
            setters_of[target].append(k)
    free, steps, reached = [], [], set()
    for n in [n for n in nodes if not setters_of[n]] + nodes:
        if n in reached:
            continue
        free.append(n)
        reached.add(n)
        changed = True
        while changed:
            changed = False
            for m in nodes:
                if m in reached:
                    continue
                k = next((k for k in setters_of[m] if rules[k][1] in reached),
                         None)
                if k is not None:
                    reached.add(m)
                    steps.append(k)
                    changed = True
    used = set(steps)
    return (free, [rules[k] for k in steps],
            [r for k, r in enumerate(rules) if k not in used])


def compatible_assignments(nodes, domains, rules):
    """Every assignment of a value to each node that obeys every rule.

    domains maps each node to its values; a rule (target, source, f),
    with f mapping the source's domain into the target's, requires
    value[target] == f(value[source]).  Walks the product of the free
    nodes' domains in order and yields value tuples in node order.

    >>> rules = [("b", "a", lambda x: x % 2)]
    >>> list(compatible_assignments(["a", "b"], {"a": range(3), "b": (0, 1)},
    ...                             rules))
    [(0, 0), (1, 1), (2, 0)]
    """
    nodes = list(nodes)
    free, steps, checks = _plan(nodes, rules)
    for choice in itertools.product(*(domains[n] for n in free)):
        value = dict(zip(free, choice))
        for target, source, f in steps:
            value[target] = f(value[source])
        if all(value[target] == f(value[source])
               for target, source, f in checks):
            yield tuple(value[n] for n in nodes)


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


# -- the bit-propagation search against the walk ---------------------------

def _mask(indices):
    return sum(1 << i for i in indices)


def _link_rule(needs, some):
    """A link of compatible_masks as a rule of the walk: the target's
    mask from the source's."""
    def rule(mask):
        return sum(1 << t for t, m in enumerate(needs)
                   if (mask & m != 0 if some else mask & m == m))
    return rule


def link_system(pick):
    """Up to four nodes of up to three bits and up to six links, each
    target bit needing a random subset of the source's bits, at a random
    polarity; self-loops, cycles, empty needs, conflicting links and
    unreached nodes all occur."""
    sizes = [pick.integer(0, 3) for _ in range(pick.integer(1, 4))]
    links = []
    for _ in range(pick.integer(0, 6)):
        target = pick.integer(0, len(sizes) - 1)
        source = pick.integer(0, len(sizes) - 1)
        needs = [_mask(pick.subset(sizes[source])) if sizes[source] else 0
                 for _ in range(sizes[target])]
        links.append((target, source, needs, pick.choice((False, True))))
    return sizes, links


def check_search(sizes, links):
    nodes = list(range(len(sizes)))
    domains = {k: range(1 << size) for k, size in enumerate(sizes)}
    rules = [(t, s, _link_rule(needs, some)) for t, s, needs, some in links]
    assert compatible_masks(sizes, links, int) == \
        list(compatible_assignments(nodes, domains, rules))


def space_diagram(pick):
    """Up to four spaces of up to three points and up to five
    contravariant edges, each a random map between their spaces."""
    names = [f"n{k}" for k in range(pick.integer(1, 4))]
    spaces = {n: FiniteSpace(f"{n}p{i}" for i in range(pick.integer(0, 3)))
              for n in names}
    edges, maps = [], {}
    for k in range(pick.integer(0, 5)):
        a, b = pick.choice(names), pick.choice(names)
        if spaces[b].size and not spaces[a].size:
            continue  # no map from a nonempty space into an empty one
        maps[f"e{k}"] = SpaceMap(spaces[b], spaces[a], {
            p: pick.choice(spaces[a].points) for p in spaces[b].points})
        edges.append((f"e{k}", a, b))
    return ShapedDiagram(Shape(names, edges), spaces, maps,
                         variance="contravariant")


def walk_limit(dia):
    """The closed-set limit by the walk over the node lattices, with one
    closed-set image map per edge."""
    nodes = list(dia.shape.nodes)
    domains = {n: closed_set_lattice(dia.node_data[n]).elements
               for n in nodes}
    rules = [(e.src, e.dst, closed_set_map(dia.edge_data[e.id]))
             for e in dia.shape.edges]
    return tuple(compatible_assignments(nodes, domains, rules))


def check_limit(dia):
    assert limit_semilattice(dia).elements == walk_limit(dia)


@pytest.mark.parametrize("seed", SEEDS)
def test_search_matches_the_walk(seed):
    rng = random.Random(seed)
    check_search(*link_system(RngPick(rng)))
    check_limit(space_diagram(RngPick(rng)))


def walk_partials(dia):
    """Rotation-fixed partial ideals by the walk over atom subsets, as
    mask tuples in node order."""
    nodes = list(dia.shape.nodes)
    rules = []
    for e in dia.shape.edges:
        target, source, needs = _atom_rule(e, dia.edge_data[e.id])
        rules.append((target, source, _link_rule(needs, False)))
    domains = {n: range(1 << dia.node_data[n].natoms) for n in nodes}
    return list(compatible_assignments(nodes, domains, rules))


LIMIT_CASES = [(blocks, spec) for blocks in CATALOG
               if sum(blocks) <= ORACLE_MAX_COORDS
               for spec in ("default", "oracle")]


@pytest.mark.parametrize("blocks,spec", LIMIT_CASES, ids=str)
def test_both_limits_match_the_walk(blocks, spec):
    algebra = MultiMatrixAlgebra(blocks)
    dia = build_subdiagram(
        algebra, oracle_spec(algebra) if spec == "oracle" else None)
    spaces, _ = postcompose(SpectrumFunctor, dia)
    assert t_tilde(algebra, diagram=dia).elements == walk_limit(spaces)
    got = [tuple(_mask(p.choice[n]) for n in dia.shape.nodes)
           for p in enumerate_partial_ideals(dia)]
    assert got == walk_partials(dia)


# the product walk took 15 s on [1,2,2,2] and did not end in 9 min on
# [3,3,3]
@pytest.mark.parametrize("blocks", [[1, 2, 2, 2], [3, 3, 3], [2, 2, 2, 2],
                                    [1, 2, 3, 4, 5]], ids=str)
def test_conjecture1_past_the_product_wall(blocks):
    report = verify_conjecture1(MultiMatrixAlgebra(blocks))
    assert report.ok
    assert report.t_tilde_size == report.partial_ideal_count \
        == 2 ** len(blocks)


def test_limit_of_a_free_twelve_point_node():
    points = [f"p{i}" for i in range(12)]
    diagram = {"nodes": [{"id": "u", "points": points}], "edges": []}
    out = io.StringIO()
    argv = ["--format", "json", "limit", "--diagram", json.dumps(diagram)]
    assert main(argv, out) == 0
    result = json.loads(out.getvalue())
    assert result["size"] == 4096
    assert [f["u"] for f in result["families"]] == [
        sorted(s) for s in closed_set_lattice(FiniteSpace(points)).elements]


def test_closed_set_rank_is_size_then_point_positions():
    def positions(mask):
        return mask.bit_count(), [i for i in range(mask.bit_length())
                                  if mask >> i & 1]
    for n in range(11):
        masks = range(1 << n)
        assert sorted(masks, key=_closed_set_rank) == \
            sorted(masks, key=positions)


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
        under = arrow.spectrum_map().index
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
    return limit_semilattice(dia)


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

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_search_matches_the_walk_property(data):
        check_search(*link_system(DrawPick(data)))
        check_limit(space_diagram(DrawPick(data)))
