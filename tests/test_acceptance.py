"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line (pytest shows it with -v or on
failure) and enforces the stated wall-clock budget.  All comparisons
are exact: equality in presented groups, exact matrix identities, and
exhaustive enumeration for the lattice checks.
"""

import random
import time

from ncspectrum import (AbHom, MultiMatrixAlgebra, PresentedAbGroup, Shape,
                        ShapedDiagram, cocone_factorization, colimit,
                        colimit_induced, compose_morphisms,
                        diagonal_projection, eta,
                        integer_determinant, k0_standard, k_tilde_f_nonunital,
                        partition_subalgebra, sample_unital_hom,
                        smith_normal_form, span_subalgebra,
                        spectrum_of_inclusion, verify_conjecture1,
                        verify_naturality_square, verify_theorem1)
from ncspectrum.diagram import FORWARD, DiagramMorphism
from ncspectrum.snf import integer_matmul

THEOREM1_BLOCKS = ([1], [2], [3], [1, 1], [2, 3], [1, 2, 2], [1, 1, 1, 1])


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_theorem1_unital_case():
    """Invariant factors of the diagram K0 match standard K0 and the
    comparison map passes its bidirectional inverse check, for every
    algebra in the catalog and m in {1, 2}; each case under 10 s."""
    worst = 0.0
    for blocks in THEOREM1_BLOCKS:
        algebra = MultiMatrixAlgebra(blocks)
        k = algebra.nblocks
        for m in (1, 2):
            t0 = time.monotonic()
            rep = verify_theorem1(algebra, m=m)
            dt = time.monotonic() - t0
            worst = max(worst, dt)
            assert rep.ok, (blocks, m, rep.error, rep.witness)
            assert rep.ktilde_factors == (k, ())
            assert rep.k0_factors == (k, ())
            assert dt < 10.0, f"{blocks} m={m} took {dt:.2f}s"
    report("theorem1-unital", f"14 cases, worst {worst:.2f}s")


def test_naturality_square_random_homs():
    """Both legs of the naturality square agree on every generator for
    50 seeded random unital morphisms between algebras of total
    dimension at most 6; suite under 60 s."""
    rng = random.Random(20260811)
    t0 = time.monotonic()
    for k in range(50):
        phi = sample_unital_hom(rng, max_total_dim=6)
        assert phi.domain.dimension <= 6 and phi.codomain.dimension <= 6
        rep = verify_naturality_square(phi, m=1)
        assert rep.ok, (k, phi, rep.witness)
    dt = time.monotonic() - t0
    assert dt < 60.0, f"suite took {dt:.2f}s"
    report("naturality-square", f"50 homs in {dt:.2f}s")


def test_nonunital_kernel_construction():
    """The kernel-of-scalar-projection construction reproduces standard
    K0 on the whole algebra catalog."""
    for blocks in THEOREM1_BLOCKS:
        algebra = MultiMatrixAlgebra(blocks)
        kt = k_tilde_f_nonunital(algebra, m=2)
        std = k0_standard(algebra)
        assert kt.invariant_factors() == std.invariant_factors(), blocks
    report("nonunital-kernel", f"{len(THEOREM1_BLOCKS)} algebras")


def test_commutative_case_terminal_object():
    """For commutative algebras the injection from the terminal node of
    the subdiagram is the comparison isomorphism and the colimit is free
    of the right rank."""
    for n in range(1, 7):
        algebra = MultiMatrixAlgebra([1] * n)
        res = eta(algebra, m=1)
        assert res.ktilde.invariant_factors() == (n, ())
        dia = res.ktilde.context.diagram
        colim = res.ktilde.context.colim
        kappa = colim.injections[dia.meta["fine"]]
        assert kappa.images == res.hom.images
    report("commutative-case", "n = 1..6")


def _random_diag_group(rng):
    n = rng.randint(1, 3)
    rows = []
    for i in range(n):
        d = rng.choice([0, 0, 2, 3, 4, 5, 6])
        if d:
            row = [0] * n
            row[i] = d
            rows.append(row)
    return PresentedAbGroup(n, rows)


def _order_of(group, j):
    for row in group.relations:
        if row[j]:
            return abs(row[j])
    return 0


def _random_wellformed_hom(rng, dom, cod):
    images = []
    for i in range(dom.ngens):
        d = _order_of(dom, i)
        word = []
        for j in range(cod.ngens):
            e = _order_of(cod, j)
            if d == 0:
                word.append(rng.randint(-2, 2))
            elif e == 0:
                word.append(0)
            else:
                g = e
                a, b = e, d
                while b:
                    a, b = b, a % b
                word.append((e // a) * rng.randint(-1, 1))
        images.append(word)
    return AbHom(dom, cod, images)


def _random_ab_diagram(rng):
    n = rng.randint(1, 4)
    groups = {f"n{i}": _random_diag_group(rng) for i in range(n)}
    ids = list(groups)
    edges = []
    for k in range(rng.randint(0, 4)):
        src, dst = rng.choice(ids), rng.choice(ids)
        hom = _random_wellformed_hom(rng, groups[src], groups[dst])
        edges.append((f"e{k}", src, dst, hom))
    shape = Shape(ids, [(e[0], e[1], e[2]) for e in edges])
    return ShapedDiagram(shape, groups, {e[0]: e[3] for e in edges})


def test_generalized_colimit_universal_property():
    """Cocone factorization exists and is forced on generators, and the
    induced map between colimits is functorial, over 100 seeded random
    diagrams; suite under 60 s."""
    rng = random.Random(4096)
    t0 = time.monotonic()
    for trial in range(100):
        d = _random_ab_diagram(rng)
        res = colimit(d)
        # random cocone: quotient of the colimit by one extra relation
        extra = [rng.randint(-2, 2) for _ in range(res.group.ngens)]
        target = PresentedAbGroup(res.group.ngens,
                                  list(res.group.relations) + [extra])
        quotient = AbHom(res.group, target,
                         [{i: 1} for i in range(target.ngens)])
        legs = {n: quotient.compose(res.injections[n])
                for n in d.shape.nodes}
        h = cocone_factorization(d, res, target, legs)
        for n in d.shape.nodes:
            assert h.compose(res.injections[n]).equal_as_maps(legs[n])
        # uniqueness: values on generators are forced, so any
        # factorization equals the constructed one
        assert h.equal_as_maps(quotient)

        # functoriality under composition: scale then collapse
        scale = rng.randint(-2, 2)
        m1 = DiagramMorphism(
            node_map={n: n for n in d.shape.nodes},
            edge_map={e.id: (e.id,) for e in d.shape.edges},
            components={n: AbHom(g, g, [{i: scale} for i in range(g.ngens)])
                        for n, g in d.node_data.items()},
            direction=FORWARD)
        point = ShapedDiagram(Shape(["pt"], []), {"pt": res.group}, {})
        m2 = DiagramMorphism(
            node_map={n: "pt" for n in d.shape.nodes},
            edge_map={e.id: () for e in d.shape.edges},
            components={n: res.injections[n] for n in d.shape.nodes},
            direction=FORWARD)
        c_pt = colimit(point)
        h1 = colimit_induced(m1, d, d, res, res)
        h2 = colimit_induced(m2, d, point, res, c_pt)
        h21 = colimit_induced(compose_morphisms(m2, m1), d, point, res, c_pt)
        assert h2.compose(h1).equal_as_maps(h21), trial
    dt = time.monotonic() - t0
    assert dt < 60.0, f"suite took {dt:.2f}s"
    report("generalized-colimit", f"100 diagrams in {dt:.2f}s")


def test_smith_normal_form_suite():
    """U*M*V = D with unimodular transforms and a divisibility chain on
    100 seeded random integer matrices up to 6x6."""
    rng = random.Random(60324)
    for trial in range(100):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = [[rng.randint(-10, 10) for _ in range(cols)] for _ in range(rows)]
        res = smith_normal_form(m)
        assert integer_matmul(integer_matmul(res.U, m), res.V) == res.D
        assert abs(integer_determinant(res.U)) == 1
        assert abs(integer_determinant(res.V)) == 1
        diag = res.diagonal
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert res.D[i][j] == 0
        for i in range(len(diag) - 1):
            if diag[i]:
                assert diag[i + 1] % diag[i] == 0
            else:
                assert diag[i + 1] == 0
    report("smith-normal-form", "100 matrices")


def test_conjecture1_desk_scale():
    """Closed-set limit lattice matches the total ideal lattice and the
    rotation-fixed partial ideals are in round-trip bijection with total
    ideals; each case under 30 s."""
    worst = 0.0
    for blocks in ([2], [1, 1], [2, 3], [1, 2, 2]):
        algebra = MultiMatrixAlgebra(blocks)
        t0 = time.monotonic()
        rep = verify_conjecture1(algebra)
        dt = time.monotonic() - t0
        worst = max(worst, dt)
        assert rep.ok, (blocks, rep.witness)
        assert rep.t_tilde_size == 2 ** algebra.nblocks
        assert rep.partial_ideal_count == rep.ideal_count
        assert rep.extra_families == 0
        assert dt < 30.0, f"{blocks} took {dt:.2f}s"
    report("conjecture1", f"4 algebras, worst {worst:.2f}s")


def test_spectrum_structural_suite():
    """Atoms partition unity, the preimage-sum identity holds for
    spectra of inclusions, and taking spectra is contravariantly
    functorial along random subalgebra chains."""
    rng = random.Random(271828)
    algebras = [MultiMatrixAlgebra(b) for b in ([2], [2, 3], [1, 2, 2])]
    for algebra in algebras:
        n = algebra.coord_count
        for _ in range(15):
            parts = _random_partition(rng, n)
            fine_node = partition_subalgebra(algebra, parts)
            mid_parts = _merge(rng, parts)
            top_parts = _merge(rng, mid_parts)
            v = partition_subalgebra(algebra, mid_parts)
            u = partition_subalgebra(algebra, top_parts)

            for node in (fine_node, v, u):
                total = algebra.zero()
                for i, p in enumerate(node.atoms):
                    assert p.is_projection() and not p.is_zero()
                    total = total + p
                    for q in node.atoms[i + 1:]:
                        assert (p * q).is_zero()
                assert total == algebra.one()

            q = spectrum_of_inclusion(u, fine_node)
            assert q.is_surjective()
            for i, p in enumerate(u.atoms):
                acc = algebra.zero()
                for j, atom in enumerate(fine_node.atoms):
                    if q.assignment[f"p{j}"] == f"p{i}":
                        acc = acc + atom
                assert acc == p

            direct = spectrum_of_inclusion(u, fine_node)
            step = spectrum_of_inclusion(u, v).compose(
                spectrum_of_inclusion(v, fine_node))
            assert direct == step

        # spans of random commuting projections also partition unity
        for _ in range(10):
            gens = [diagonal_projection(
                algebra, [c for c in range(n) if rng.random() < 0.5])
                for _ in range(rng.randint(0, 3))]
            span = span_subalgebra(algebra, gens)
            total = algebra.zero()
            for p in span.atoms:
                total = total + p
            assert total == algebra.one()
    report("spectrum-structural", "3 algebras x 25 chains")


def _random_partition(rng, n):
    parts = []
    for c in range(n):
        if parts and rng.random() < 0.6:
            parts[rng.randrange(len(parts))].add(c)
        else:
            parts.append({c})
    return [frozenset(p) for p in parts]


def _merge(rng, parts):
    parts = [set(p) for p in parts]
    if len(parts) >= 2:
        i, j = rng.sample(range(len(parts)), 2)
        parts[i] |= parts[j]
        del parts[j]
    return [frozenset(p) for p in parts]
