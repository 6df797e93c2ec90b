"""Acceptance suite: one test per criterion, exact expectations throughout.

Every expected number is either recomputed here by an independent route
(enumeration, brute force, closed forms cross-checked against direct
counts) or asserted exactly as a structural identity.
"""

import itertools
import random

from pigraphs import families, graphs, pig, skeletal, spectral
from pigraphs.green import l_classes
from pigraphs.semigroups import adjoin_zero
from test_families import all_partial_bijections
from test_pig import inverse_product_adj

EXPECTED_EDGE_COUNTS = {1: 0, 2: 2, 3: 15, 4: 80}


def _report(name):
    print(f"[PASS] {name}")


def _is_isomorphism(g, h, mapping):
    """Whether mapping is a bijective skeletal map, i.e. an isomorphism."""
    phi = graphs.VertexMap(tuple(mapping))
    return skeletal.verify_skeletal(g, h, phi).is_skeletal


def _random_tree(order, rng):
    return graphs.from_edges(order,
                             [(rng.randrange(v), v) for v in range(1, order)])


def test_criterion_1_isn_quotient_structure(isn):
    for n in range(1, 5):
        q, phi = pig.s_left_pig(isn[n], pig.left_pig(isn[n]))
        assert q.order == (1 << n) - 1
        class_elems = pig.s_pig_class_elements(isn[n], phi)
        for v in range(q.order):
            k = families.rank(isn[n].elements[class_elems[v][0]])
            assert q.degree(v) == (1 << n) - (1 << (n - k)) - 1
        edge_count = graphs.graph_stats(q).edge_count
        assert edge_count == EXPECTED_EDGE_COUNTS[n]
        # cross-check the frozen numbers by recounting intersecting subsets
        direct = sum(1 for a, b in itertools.combinations(
            range(1, 1 << n), 2) if a & b)
        assert edge_count == direct
    _report("criterion 1: quotient degrees and edge counts for n=1..4")


def test_criterion_2_intersection_graph_isomorphism(isn):
    for n in range(1, 5):
        q, phi = pig.s_left_pig(isn[n], pig.left_pig(isn[n]))
        inter = graphs.intersection_graph(n)
        class_elems = pig.s_pig_class_elements(isn[n], phi)
        canonical = [families.image_mask(isn[n].elements[cls[0]]) - 1
                     for cls in class_elems]
        assert _is_isomorphism(q, inter, canonical)
        found = graphs.are_isomorphic(q, inter)
        assert found is not None and _is_isomorphism(q, inter, found)
    _report("criterion 2: quotient is the subset intersection graph, "
            "canonically and by search")


def test_criterion_3_adjacency_criteria_agree(isn):
    samples = [isn[3],
               families.brandt(families.cyclic_group(2), 2),
               families.brandt(families.cyclic_group(3), 3),
               families.subset_meet_semilattice(3)]
    for s in samples:
        assert pig.left_pig(s).adj == pig.left_pig_inverse_fast(s).adj \
            == inverse_product_adj(s)
    assert pig.left_pig(isn[3]).order == 33
    for n in range(1, 6):
        s = isn[n] if n in isn else families.symmetric_inverse(n)
        images = graphs.mask_intersection_graph(
            [families.image_mask(m) for m in s.elements
             if families.rank(m)])
        assert images.adj == pig.left_pig(s).adj
    _report("criterion 3: ideal, inverse-product and image-intersection "
            "adjacency coincide")


def test_criterion_4_brandt_decomposition():
    for group_order in (1, 2, 3):
        g = families.cyclic_group(group_order)
        for r in (1, 2, 3):
            s = families.brandt(g, r)
            full = pig.left_pig(s)
            comps = graphs.components(full)
            assert comps.codomain_order == r
            assert all(len(c) == r * group_order for c in comps.classes)
            assert all(full.has_edge(u, v) for c in comps.classes
                       for u in c for v in c if u != v)
            q, _ = pig.s_left_pig(s, full)
            assert q.order == r and graphs.graph_stats(q).is_null
    _report("criterion 4: Brandt graphs are disjoint cliques with null "
            "quotients")


def test_criterion_5_skeleton_engine():
    k4 = graphs.complete_graph(4)
    k2 = graphs.complete_graph(2)
    phi = skeletal.VertexMap((0, 0, 0, 1))
    assert skeletal.verify_skeletal(k4, k2, phi).is_skeletal

    rng = random.Random(0)
    tested_small = []
    for order in range(3, 9):
        trees = [graphs.path_graph(order),
                 graphs.from_edges(order, [(0, v) for v in range(1, order)])]
        trees += [_random_tree(order, rng) for _ in range(5)]
        for t in trees:
            assert skeletal.is_skeleton(t)
            if order <= 7:
                tested_small.append(t)
    for order in range(4, 9):
        c = graphs.cycle_graph(order)
        assert skeletal.is_skeleton(c)
        if order <= 7:
            tested_small.append(c)
    assert not skeletal.is_skeleton(graphs.complete_graph(2))
    assert not skeletal.is_skeleton(graphs.complete_graph(3))
    tested_small += [graphs.complete_graph(2), graphs.complete_graph(3)]

    for _ in range(200):
        g = graphs.random_graph(rng.randrange(3, 9),
                                rng.choice([0.3, 0.6, 0.9, 1.0]), rng)
        assert graphs.graph_stats(g).is_complete == \
            skeletal.has_two_block_skeletal(g)

    for _ in range(100):
        tested_small.append(graphs.random_graph(
            rng.randrange(2, 8), rng.choice([0.2, 0.5, 0.8]), rng))
    for g in tested_small:
        assert skeletal.is_skeleton(g) == \
            (not skeletal.brute_force_has_proper_skeletal(g))
    _report("criterion 5: skeleton tests, the K2 characterization and the "
            "partition oracle agree")


def test_criterion_6_skeletal_theorem_parts():
    rng = random.Random(1)
    for _ in range(100):
        base = graphs.random_graph(rng.randrange(2, 8),
                                   rng.choice([0.3, 0.5, 0.8]), rng)
        h, phi = skeletal.max_skeletal(base)
        assert skeletal.verify_skeletal(base, h, phi).is_skeletal
        for v in range(h.order):
            assert skeletal.fibre_subgraph_is_complete(base, phi, v)
        sub, bij = skeletal.embedded_copy(base, h, phi)
        assert _is_isomorphism(sub, h, bij)

        mid, phi1 = skeletal.blow_up(base, [rng.randrange(1, 3)
                                            for _ in range(base.order)])
        top, phi2 = skeletal.blow_up(mid, [rng.randrange(1, 3)
                                           for _ in range(mid.order)])
        composed = skeletal.compose_skeletal(top, mid, base, phi2, phi1)
        assert skeletal.verify_skeletal(top, base, composed).is_skeletal
    _report("criterion 6: fibre cliques, embedded copies and composition "
            "on 100 seeded graphs")


def test_criterion_7_twin_spectral(isn):
    instances = [graphs.complete_graph(4),
                 graphs.from_edges(4, [(0, 1), (2, 3)]),
                 pig.left_pig(isn[2]),
                 pig.left_pig(families.brandt(families.cyclic_group(2), 2))]
    rng = random.Random(2)
    for _ in range(50):
        base = graphs.random_graph(rng.randrange(2, 6), 0.5, rng)
        big, _ = skeletal.blow_up(base, [rng.randrange(1, 4)
                                         for _ in range(base.order)])
        instances.append(big)
    for g in instances:
        report = spectral.twin_spectral_report(g)
        for cls in report.classes:
            need = cls.size - 1
            assert cls.adjacency_multiplicity >= need
            assert cls.laplacian_multiplicity >= need
            assert cls.signless_multiplicity >= need

    # the quotient-degree variant of the constant is wrong on a triangle
    # merge of K4 onto K2: 2 is not a Laplacian eigenvalue of K4
    k4 = graphs.complete_graph(4)
    phi = skeletal.VertexMap((0, 0, 0, 1))
    s = graphs.complete_graph(2).degree(phi.map[0])
    assert s + 1 == 2
    assert spectral.eigen_multiplicity(spectral.graph_matrix(k4, "L"),
                                       s + 1) == 0
    _report("criterion 7: exact twin-class eigenvalue bounds, with the "
            "erratum instance documented")


def test_criterion_8_semigroup_graph_properties(isn):
    monoids = [isn[1], isn[2], isn[3],
               families.subset_meet_semilattice(2),
               families.subset_meet_semilattice(3),
               families.cyclic_group(4)]
    for s in monoids:
        assert s.identity is not None
        assert graphs.graph_stats(pig.left_pig(s)).is_connected

    for s in (isn[2], isn[3],
              families.brandt(families.cyclic_group(2), 2)):
        g = pig.left_pig(s)
        verts = pig.pig_vertices(s)
        pos = {v: i for i, v in enumerate(verts)}
        for cls in l_classes(s).classes:
            nonzero = [x for x in cls if x != s.zero]
            for a, b in itertools.combinations(nonzero, 2):
                assert g.has_edge(pos[a], pos[b])

    for s in (isn[3],
              families.brandt(families.cyclic_group(2), 2),
              families.brandt(families.cyclic_group(3), 2)):
        left, right = pig.left_pig(s), pig.right_pig(s)
        mapping = pig.involution_pig_isomorphism(s, left, right)
        assert _is_isomorphism(left, right, mapping)

    g = pig.left_pig(adjoin_zero(families.left_zero(3)))
    assert g.order == 3 and graphs.graph_stats(g).is_complete

    for s in (isn[3], families.subset_meet_semilattice(2),
              families.subset_meet_semilattice(3)):
        q, phi = pig.s_left_pig(s, pig.left_pig(s))
        comp = graphs.complement(q)
        idem = set(s.idempotents)
        reps = [next(x for x in cls if x in idem)
                for cls in pig.s_pig_class_elements(s, phi)]
        for u, v in itertools.combinations(range(q.order), 2):
            assert comp.has_edge(u, v) == (s.table[reps[u]][reps[v]] == s.zero)
    _report("criterion 8: connectivity, class adjacency, inversion "
            "isomorphism and the zero-product complement")


def test_criterion_9_cardinalities():
    expected = {1: 2, 2: 7, 3: 34, 4: 209, 5: 1546}
    for n, count in expected.items():
        elems = all_partial_bijections(n)
        assert len(elems) == count
        assert families.partial_bijection_count(n) == count
        idem = [p for p in elems if p.compose(p) == p]
        assert len(idem) == 1 << n
    # the closed form (n+1)^n counts partial transformations, not partial
    # bijections; the enumerated value is the one this suite stands by
    assert expected[2] != (2 + 1) ** 2
    _report("criterion 9: cardinalities 2, 7, 34, 209, 1546 and 2^n "
            "idempotents, with the (n+1)^n divergence recorded")
