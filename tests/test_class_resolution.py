"""K0Group.class_of_projection against the three-way resolver it replaced.

The library resolves a projection's class by one rule: the first node,
in node order, whose atoms under p sum to p.  The oracle below is the
earlier resolver: the node of p's span subalgebra when the sample holds
it, else the finest node for a diagonal projection, else the same scan.
The words may differ; the classes must not.
"""

import random

import pytest

from ncspectrum import (ExactMatrix, GaussianRational, MultiMatrixAlgebra,
                        SubdiagramInsufficientError, element_eq, k_tilde_f,
                        span_subalgebra, stabilize)

BLOCKS = ([2], [3], [2, 3], [1, 2, 2], [1, 3], [4])


def three_way_class(kt, p):
    """The class of projection p by span node, then diagonal mask, then
    a scan of the nodes for atoms under p that sum to p."""
    ctx = kt.context
    total = kt.group.ngens
    if p.is_zero():
        return (0,) * total
    dia = ctx.diagram
    nid = dia.meta["by_key"].get(span_subalgebra(ctx.algebra, [p]).key)
    if nid is not None:
        word = [0] * total
        word[ctx.colim.offsets[nid] + dia.node_data[nid].atom_index(p)] = 1
        return tuple(word)
    if p.diag_mask is not None:
        off = ctx.colim.offsets[dia.meta["fine"]]
        word = [0] * total
        for c in p.diag_mask:
            word[off + c] += 1
        return tuple(word)
    for nid in dia.shape.nodes:
        node = dia.node_data[nid]
        under = [i for i, a in enumerate(node.atoms) if a * p == a]
        sum_under = ctx.algebra.zero()
        for i in under:
            sum_under = sum_under + node.atoms[i]
        if sum_under == p:
            off = ctx.colim.offsets[nid]
            word = [0] * total
            for i in under:
                word[off + i] += 1
            return tuple(word)
    raise SubdiagramInsufficientError(
        "projection class is not resolvable in the sampled subdiagram",
        witness={"rank_vector": p.rank_vector()})


def seeded_sums(node, rng, count=3):
    """count seeded sums of nonempty sets of the node's atoms."""
    for _ in range(count):
        k = rng.randint(1, node.natoms)
        chosen = rng.sample(node.atoms, k)
        p = chosen[0]
        for a in chosen[1:]:
            p = p + a
        yield p


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("blocks", BLOCKS, ids=str)
def test_sums_of_atoms_match_the_three_way_resolver(blocks, m):
    algebra, _ = stabilize(MultiMatrixAlgebra(blocks), m)
    kt = k_tilde_f(algebra)
    dia = kt.context.diagram
    rng = random.Random(f"{blocks}-{m}")
    checked = 0
    for nid in dia.shape.nodes:
        for p in seeded_sums(dia.node_data[nid], rng):
            assert element_eq(kt.group, kt.class_of_projection(p),
                              three_way_class(kt, p)), (nid, p)
            assert element_eq(kt.group, kt.class_of_projection(p),
                              kt.class_of(p.rank_vector()))
            checked += 1
    assert checked == 3 * len(dia.shape.nodes)


@pytest.mark.parametrize("blocks", BLOCKS, ids=str)
def test_zero_and_identity(blocks):
    algebra = MultiMatrixAlgebra(blocks)
    kt = k_tilde_f(algebra)
    zero = kt.class_of_projection(algebra.zero())
    assert zero == (0,) * kt.group.ngens
    assert zero == three_way_class(kt, algebra.zero())
    one = kt.class_of_projection(algebra.one())
    assert element_eq(kt.group, one, three_way_class(kt, algebra.one()))
    assert element_eq(kt.group, one, kt.class_of(algebra.blocks))


def test_projection_outside_the_sample_raises_like_the_oracle():
    # the projection onto (1, 1)/sqrt(2) is moved off the diagonal by no
    # rotation of the default sample of M2
    algebra = MultiMatrixAlgebra([2])
    half = GaussianRational("1/2")
    p = algebra.element([ExactMatrix.from_rows([[half, half], [half, half]])])
    assert p.is_projection()
    kt = k_tilde_f(algebra)
    with pytest.raises(SubdiagramInsufficientError) as new:
        kt.class_of_projection(p)
    with pytest.raises(SubdiagramInsufficientError) as old:
        three_way_class(kt, p)
    assert new.value.witness == old.value.witness == {"rank_vector": (1,)}

