"""The eta inverse check on sparse words against the dense check it
replaced.

The library checks the inverse candidate (generator -> rank word of its
atom) on sparse words: relations combine to the empty word, block words
map to {i: 1}, and each generator differs from the class of its rank
word by a relation.  The oracle below is the earlier check, which built
a dense rank-vector table and accumulated each check over range(k).
Both must pass together, or raise with the same message and witness.
"""

import pytest

from ncspectrum import (MultiMatrixAlgebra, Shape, ShapedDiagram,
                        SubalgebraArrow, SubdiagramInsufficientError,
                        SubdiagramSpec, build_subdiagram, k_tilde_f,
                        partition_subalgebra, stabilize)
from ncspectrum.diagram import COVARIANT
from ncspectrum.ktheory import _check_eta_inverse
from ncspectrum.serialize import load_spec

from test_cli import DENSE_SPEC


def dense_check(kt):
    """The dense rank-table check: a relation's rank vector, the anchor
    atom's rank vector and each generator's difference from its rank
    class, accumulated over the k blocks."""
    dia = kt.context.diagram
    k = kt.nblocks
    table = []
    gen_names = []
    for nid in dia.shape.nodes:
        for i, atom in enumerate(dia.node_data[nid].atoms):
            table.append(atom.rank_vector())
            gen_names.append((nid, i))
    positions = [next(iter(w)) for w in kt.block_words]

    for sp in kt.group.rows:
        acc = [0] * k
        for g, c in sp:
            for i in range(k):
                acc[i] += c * table[g][i]
        if any(acc):
            raise SubdiagramInsufficientError(
                "rank map fails on a colimit relation",
                witness={"relation": dict(sp)})

    for i in range(k):
        rv = table[positions[i]]
        if rv != tuple(1 if j == i else 0 for j in range(k)):
            raise SubdiagramInsufficientError(
                "block class anchor has the wrong rank vector",
                witness={"block": i, "rank_vector": rv})

    lattice = kt.group.lattice
    for g, rv in enumerate(table):
        diff = {g: 1}
        for i, r in enumerate(rv):
            if r:
                pos = positions[i]
                diff[pos] = diff.get(pos, 0) - r
        if not lattice.contains({x: c for x, c in diff.items() if c}):
            raise SubdiagramInsufficientError(
                "generator class is not identified with its rank class; "
                "the subdiagram sample is too coarse",
                witness={"generator": gen_names[g], "rank_vector": rv})


def outcome(check, kt):
    """None when the check passes, else its (message, witness)."""
    try:
        check(kt)
    except SubdiagramInsufficientError as exc:
        return str(exc), exc.witness
    return None


def ktilde(blocks, m, spec=None):
    stabilized, _ = stabilize(MultiMatrixAlgebra(blocks), m)
    if callable(spec):
        spec = spec(stabilized)
    return k_tilde_f(stabilized, spec)


def assert_same_outcome(kt):
    want = outcome(dense_check, kt)
    assert outcome(_check_eta_inverse, kt) == want
    return want


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("blocks", [[1], [2], [3], [2, 3], [1, 2, 2],
                                    [1, 2, 3], [4]])
def test_default_spec_passes_both(blocks, m):
    assert assert_same_outcome(ktilde(blocks, m)) is None


def no_cycle(algebra):
    return SubdiagramSpec(
        rotations=tuple(a for a in SubdiagramSpec.default(algebra).rotations
                        if not a.name.startswith("cycle")), label="no-cycle")


@pytest.mark.parametrize("blocks, m, spec", [
    ([2], 1, SubdiagramSpec(rotations=(), label="bare")),
    ([2], 2, SubdiagramSpec(rotations=(), label="bare")),
    ([4], 1, no_cycle),
    ([3], 1, SubdiagramSpec(partitions=([[0, 1], [2]],), label="parts")),
    ([2], 2, lambda algebra: load_spec(DENSE_SPEC, algebra)),
], ids=["bare-m1", "bare-m2", "no-cycle", "partitions-only", "dense"])
def test_coarse_specs_fail_alike(blocks, m, spec):
    message, witness = assert_same_outcome(ktilde(blocks, m, spec))
    assert message.startswith("generator class is not identified")
    assert set(witness) == {"generator", "rank_vector"}


def test_rank_changing_arrow_fails_on_its_relation():
    # an arrow of rotation kind from d:0|1,2 to d:0,1|2 that sends the
    # rank-1 atom {0} to the rank-2 atom {0,1}: no rotation does that
    algebra = MultiMatrixAlgebra([3])
    fine = partition_subalgebra(algebra, [[0], [1], [2]])
    src = partition_subalgebra(algebra, [[0], [1, 2]])
    dst = partition_subalgebra(algebra, [[0, 1], [2]])
    arrow = SubalgebraArrow(src, dst, dst.atoms, kind="rotation")
    dia = ShapedDiagram(Shape(["fine", "src", "dst"], [("t", "src", "dst")]),
                        {"fine": fine, "src": src, "dst": dst}, {"t": arrow},
                        COVARIANT, meta={"fine": "fine", "spec": None})
    message, witness = assert_same_outcome(k_tilde_f(algebra, diagram=dia))
    assert message == "rank map fails on a colimit relation"
    assert set(witness) == {"relation"}


@pytest.mark.parametrize("n", [2, 3])
def test_anchor_at_the_coarsest_node_fails(n):
    # the coarsest node of one block is the identity, of rank n
    algebra = MultiMatrixAlgebra([n])
    dia = build_subdiagram(algebra)
    coarsest = dia.shape.nodes[0]
    assert dia.node_data[coarsest].natoms == 1
    moved = ShapedDiagram(dia.shape, dia.node_data, dia.edge_data, COVARIANT,
                          meta=dict(dia.meta, fine=coarsest))
    message, witness = assert_same_outcome(k_tilde_f(algebra, diagram=moved))
    assert message == "block class anchor has the wrong rank vector"
    assert witness == {"block": 0, "rank_vector": (n,)}
