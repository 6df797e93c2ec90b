import random
from collections import Counter
from functools import cached_property

import pytest

from pigraphs import cli, families, semigroups, verify
from pigraphs.errors import (
    EmptyVertexSet,
    InconsistentQuotient,
    IsomorphismCheckFailed,
    NotInverseSemigroup,
)
from pigraphs.graphs import (
    Graph,
    VertexMap,
    complement,
    components,
    graph_stats,
    mask_intersection_graph,
)
from pigraphs.green import l_classes
from pigraphs.pig import (
    involution_pig_isomorphism,
    left_pig,
    left_pig_inverse_fast,
    pig_vertices,
    right_pig,
    s_left_pig,
    s_pig_class_elements,
    _pig,
    _s_pig,
    s_right_pig,
)
from pigraphs.semigroups import adjoin_zero, from_cayley_table
from pigraphs.skeletal import max_skeletal, twin_partition, verify_skeletal
from test_semigroups import counted_copy, small_semigroups


def test_left_zero_with_zero_is_complete():
    g = left_pig(adjoin_zero(families.left_zero(3)))
    assert g.order == 3 and graph_stats(g).is_complete


def test_group_graph_is_complete():
    g = left_pig(families.cyclic_group(3))
    assert g.order == 3 and graph_stats(g).is_complete
    assert graph_stats(right_pig(families.cyclic_group(3))).is_complete


def test_brandt_c1_2_two_disjoint_edges():
    s = families.brandt(families.cyclic_group(1), 2)
    g = left_pig(s)
    comps = components(g)
    assert comps.codomain_order == 2
    assert all(len(c) == 2 for c in comps.classes)
    assert all(g.has_edge(*c) for c in comps.classes)
    # the right graph groups by left index instead
    r = right_pig(s)
    verts = pig_vertices(s)
    by_left = {}
    for i, v in enumerate(verts):
        by_left.setdefault(s.elements[v][0], set()).add(i)
    assert {frozenset(c) for c in components(r).classes} \
        == {frozenset(c) for c in by_left.values()}


def test_semilattice_left_equals_right():
    s = families.subset_meet_semilattice(2)
    assert left_pig(s).adj == right_pig(s).adj


def test_empty_vertex_set():
    s = from_cayley_table([[0]])
    with pytest.raises(EmptyVertexSet):
        left_pig(s)


def test_fast_path_equivalence(isn):
    for s in (isn[2], isn[3],
              families.brandt(families.cyclic_group(2), 2),
              families.subset_meet_semilattice(3),
              families.cyclic_group(3)):
        assert left_pig(s).adj == left_pig_inverse_fast(s).adj


def test_inverse_criterion_on_one_nonzero_vertex():
    # one vertex is one idempotent key and leaves no pair to intersect
    for s in (families.subset_meet_semilattice(1),
              families.symmetric_inverse(1)):
        g = left_pig_inverse_fast(s)
        assert g.order == 1
        assert g.adj == left_pig(s).adj


def inverse_product_adj(s):
    """The literal criterion: x ~ y (x != y) iff x * inv(y) != zero."""
    inv = s.inverses
    verts = [x for x in range(s.order) if x != s.zero]
    return tuple(
        sum(1 << j for j, y in enumerate(verts)
            if y != x and s.table[x][inv[y]] != s.zero)
        for x in verts)


def test_inverse_criterion_matches_pairwise_definition(isn):
    brandts = [families.brandt(families.cyclic_group(g), r)
               for g in (1, 2, 3) for r in (1, 2, 3)]
    semilattices = [families.subset_meet_semilattice(n) for n in (1, 2, 3)]
    # every associative table of order <= 3, with and without a zero
    # adjoined, that is inverse and has a nonzero element
    small = [t for s in small_semigroups() for t in (s, adjoin_zero(s))
             if t.inverses is not None
             and any(x != t.zero for x in range(t.order))]
    assert len(small) == 57
    for s in [*isn.values(), *brandts, *semilattices, *small]:
        assert left_pig_inverse_fast(s).adj == inverse_product_adj(s)
    # groups have no zero, so x * inv(y) is never zero
    for s in map(families.cyclic_group, (2, 3, 4)):
        g = left_pig_inverse_fast(s)
        assert graph_stats(g).is_complete and g.adj == inverse_product_adj(s)


def test_inverse_criterion_reads_only_idempotent_products():
    """A guard against the n^2 pass coming back: with the zero and the
    inverse map cached, the recount reads table row inv(x) and its entry
    x per element, then the rows and entries of the idempotents."""
    s = families.symmetric_inverse(5)
    counted, reads = counted_copy(s)
    counted.__dict__.update(zero=s.zero, inverses=s.inverses)
    assert left_pig_inverse_fast(counted).adj == left_pig(s).adj
    budget = 2 * s.order + len(s.idempotents) ** 2
    assert budget == 4116 and 0 < reads["items"] <= budget


def test_inverse_criterion_catches_a_wrong_ideal_layer():
    """The suite's inverse-criterion line reads no ideal mask, so it
    still fails when the left ideals of two rank-1 elements are swapped,
    planted after the inverses are cached or before they are first read."""
    for n, cached in ((3, True), (4, True), (3, False), (4, False)):
        s = families.symmetric_inverse(n)
        if cached:
            assert s.inverses is not None
        by_image = {families.image_mask(m): x
                    for x, m in enumerate(s.elements)}
        a, b = by_image[0b01], by_image[0b10]
        ideals = list(s.left_ideals)
        ideals[a], ideals[b] = ideals[b], ideals[a]
        s.__dict__["left_ideals"] = tuple(ideals)
        recount = left_pig_inverse_fast(s).adj
        assert left_pig(s).adj != recount
        assert recount == inverse_product_adj(s)


def test_fast_path_requires_inverse_semigroup():
    with pytest.raises(NotInverseSemigroup):
        left_pig_inverse_fast(adjoin_zero(families.left_zero(3)))


def image_graph(s):
    """IS_n's left graph recounted from element data: images must meet."""
    return mask_intersection_graph(
        [families.image_mask(m) for m in s.elements if families.rank(m)])


def test_isn_image_graph_small(isn):
    g1 = image_graph(isn[1])
    assert g1.order == 1 and graph_stats(g1).edge_count == 0
    g2 = image_graph(isn[2])
    stats = graph_stats(g2)
    assert g2.order == 6 and stats.edge_count == 11
    assert sorted(stats.degrees) == [3, 3, 3, 3, 5, 5]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_isn_image_graph_matches_table_construction(n, isn):
    s = isn[n] if n in isn else families.symmetric_inverse(n)
    assert image_graph(s).adj == left_pig(s).adj


def test_s_left_pig_examples(isn):
    q, _ = s_left_pig(isn[2], left_pig(isn[2]))
    assert q.order == 3 and q.edges() == [(0, 2), (1, 2)]
    b = families.brandt(families.cyclic_group(2), 2)
    qb, _ = s_left_pig(b, left_pig(b))
    assert qb.order == 2 and graph_stats(qb).is_null
    s = families.subset_meet_semilattice(2)
    qs, _ = s_left_pig(s, left_pig(s))
    assert qs.adj == left_pig(s).adj


def test_quotient_map_is_skeletal(isn):
    for s in (isn[2], isn[3],
              families.brandt(families.cyclic_group(2), 2),
              families.subset_meet_semilattice(3),
              adjoin_zero(families.left_zero(3))):
        full = left_pig(s)
        q, phi = s_left_pig(s, full)
        assert verify_skeletal(full, q, phi).is_skeletal
        full_r = right_pig(s)
        qr, phir = s_right_pig(s, full_r)
        assert verify_skeletal(full_r, qr, phir).is_skeletal


def test_l_related_pairs_are_adjacent(isn):
    for s in (isn[3], families.brandt(families.cyclic_group(2), 2)):
        g = left_pig(s)
        verts = pig_vertices(s)
        pos = {v: i for i, v in enumerate(verts)}
        lp = l_classes(s)
        for cls in lp.classes:
            nonzero = [x for x in cls if x != s.zero]
            for i, a in enumerate(nonzero):
                for b in nonzero[i + 1:]:
                    assert g.has_edge(pos[a], pos[b])


def test_monoid_graph_is_connected(isn):
    for s in (isn[2], isn[3], families.subset_meet_semilattice(3),
              families.cyclic_group(4)):
        assert s.identity is not None
        assert graph_stats(left_pig(s)).is_connected


def test_idempotent_adjacency_iff_nonzero_product(isn):
    s = isn[3]
    g = left_pig(s)
    verts = pig_vertices(s)
    pos = {v: i for i, v in enumerate(verts)}
    idem = [e for e in s.idempotents if e != s.zero]
    for i, e in enumerate(idem):
        for f in idem[i + 1:]:
            assert g.has_edge(pos[e], pos[f]) == (s.table[e][f] != s.zero)


def test_quotient_complement_is_zero_product_graph(isn):
    for s in (isn[3], families.subset_meet_semilattice(3)):
        q, phi = s_left_pig(s, left_pig(s))
        comp = complement(q)
        classes = s_pig_class_elements(s, phi)
        idem = set(s.idempotents)
        reps = [next(x for x in cls if x in idem) for cls in classes]
        for u in range(q.order):
            for v in range(u + 1, q.order):
                assert comp.has_edge(u, v) == \
                    (s.table[reps[u]][reps[v]] == s.zero)


def test_involution_isomorphism(isn):
    s = isn[3]
    mapping = involution_pig_isomorphism(s, left_pig(s), right_pig(s))
    phi = VertexMap(tuple(mapping))
    assert verify_skeletal(left_pig(s), right_pig(s), phi).is_skeletal
    # the right graph with its edge 0-1 flipped is not the image
    flipped = list(right_pig(s).adj)
    flipped[0] ^= 1 << 1
    flipped[1] ^= 1 << 0
    with pytest.raises(IsomorphismCheckFailed):
        involution_pig_isomorphism(s, left_pig(s), Graph(tuple(flipped)))
    b = families.brandt(families.cyclic_group(2), 2)
    inv = b.inverses
    for x, (i, g, j) in enumerate(b.elements[:-1]):
        # C2 elements are self-inverse, so (i,g,j) inverts to (j,g,i)
        assert b.elements[inv[x]] == (j, g, i)
    involution_pig_isomorphism(b, left_pig(b), right_pig(b))
    sl = families.subset_meet_semilattice(2)
    assert involution_pig_isomorphism(sl, left_pig(sl), right_pig(sl)) \
        == list(range(3))


def test_the_inversion_check_pulls_back_each_distinct_closed_row_once(
        monkeypatch):
    s = families.symmetric_inverse(5)
    pulled = Counter()
    preimage = VertexMap.preimage

    def counted(phi, mask):
        pulled[mask] += 1
        return preimage(phi, mask)

    right = right_pig(s)
    monkeypatch.setattr(VertexMap, "preimage", counted)
    involution_pig_isomorphism(s, left_pig(s), right)
    closed = {row | 1 << v for v, row in enumerate(right.adj)}
    assert sum(pulled.values()) == len(pulled) == len(closed) == 31
    assert set(pulled) == closed


def test_a_wrong_generic_isomorphism_is_a_fail_line(monkeypatch, capsys):
    search = verify.graphs.are_isomorphic

    def wrong(g, h):
        mapping = search(g, h)
        # swap the preimages of {0} (degree 3) and {0,1,2} (degree 6)
        a, b = mapping.index(0), mapping.index(6)
        mapping[a], mapping[b] = 6, 0
        return mapping

    monkeypatch.setattr(verify.graphs, "are_isomorphic", wrong)
    assert cli.main(["verify", "--suite", "isn", "--n", "3"]) == 1
    assert "[FAIL] isn: generic search finds the same isomorphism" in \
        capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("owner, attr, value, failed", [
    # domains in place of images: the canonical map is not onto
    (families, "image_mask", families.domain_mask, [
        "image-intersection graph equals ideal-intersection graph",
        "left classes grouped by image",
        "canonical class-to-image map is an isomorphism"]),
    (semigroups.Semigroup, "inverses", None, [
        "inverse criterion graph equals ideal-intersection graph",
        "inversion maps the left graph onto the right graph"
        "  (the semigroup is not inverse)"]),
    # one rank short: the degree formula is asked for a rank-0 subset
    (families, "rank", lambda m, rank=families.rank: rank(m) - 1, [
        "quotient degree formula 2^n - 2^(n-k) - 1"
        "  (subset rank 0 not in [1, 3])"]),
], ids=["images", "inverses", "rank"])
def test_a_wrong_isn_layer_is_a_fail_line(owner, attr, value, failed,
                                          monkeypatch, capsys):
    monkeypatch.setattr(owner, attr, value)
    assert cli.main(["verify", "--suite", "isn", "--n", "3"]) == 1
    assert [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("[FAIL]")] == [
        f"[FAIL] isn: {line}" for line in failed]


def test_involution_requires_inverse_semigroup():
    s = adjoin_zero(families.left_zero(2))
    with pytest.raises(NotInverseSemigroup,
                       match="^the semigroup is not inverse$"):
        involution_pig_isomorphism(s, left_pig(s), right_pig(s))


CHECK = "triple inversion is a left/right graph isomorphism"


def test_a_failed_involution_check_is_a_fail_line(monkeypatch):
    def refuse(s, left, right):
        raise IsomorphismCheckFailed("no isomorphism here")

    monkeypatch.setattr(verify.pig, "involution_pig_isomorphism", refuse)
    result = next(c for c in verify.suite_brandt().checks if c.name == CHECK)
    assert not result.passed and result.detail == "no isomorphism here"


def test_a_defect_in_an_involution_check_is_raised(monkeypatch):
    def broken(s, left, right):
        raise TypeError("a defect, not a failed check")

    monkeypatch.setattr(verify.pig, "involution_pig_isomorphism", broken)
    with pytest.raises(TypeError, match="^a defect, not a failed check$"):
        verify.suite_brandt()


COMPLETE = "each component is complete on |I|*|G| vertices"


def test_the_completeness_line_is_the_pairwise_definition(monkeypatch):
    """The Brandt suite's completeness line passes on the left graph of
    B(Z_3, 2), two 6-cliques, and fails with any one edge removed, which
    keeps both components, as every two vertices of a component being
    adjacent says.  The quotient is taken of the whole graph, which a
    component missing an edge would make inconsistent."""
    s = families.brandt(families.cyclic_group(3), 2)
    full = left_pig(s)
    quotient = s_left_pig(s, full)
    monkeypatch.setattr(verify.pig, "s_left_pig", lambda s, g: quotient)
    for edge in [None, *full.edges()]:
        adj = list(full.adj)
        for u, v in (edge, edge[::-1]) if edge else ():
            adj[u] ^= 1 << v
        g = Graph(tuple(adj), full.labels)
        monkeypatch.setattr(verify.pig, "left_pig", lambda s: g)
        comps = components(g).classes
        pairwise = all(g.has_edge(u, v) for c in comps
                       for u in c for v in c if u != v)
        line = next(c for c in verify.suite_brandt(3, 2).checks
                    if c.name == COMPLETE)
        assert len(comps) == 2 and line.passed == pairwise == (edge is None)


# the check in each suite that reads the class quotient of its left graph
QUOTIENT_CHECKS = {
    "isn": "quotient vertex count is 2^n - 1",
    "brandt": "class quotient is a null graph on |I| vertices",
    "semilattice": "classes are singletons, so the quotient equals the graph",
}


@pytest.mark.parametrize("suite", QUOTIENT_CHECKS)
def test_a_quotient_that_raises_ends_the_suite_with_a_fail_line(
        suite, monkeypatch):
    """The checks before the quotient stand; the check that reads it fails
    with the error message, and no check after it runs."""
    passing = verify.run_suite(suite)[0].checks
    name = QUOTIENT_CHECKS[suite]
    before = passing[:[c.name for c in passing].index(name)]

    def refuse(s, left):
        raise InconsistentQuotient("no quotient here", (0, 1))

    monkeypatch.setattr(verify.pig, "s_left_pig", refuse)
    assert verify.run_suite(suite)[0].checks == (
        *before, verify.CheckResult(name, False, "no quotient here"))


@pytest.mark.parametrize("suite", QUOTIENT_CHECKS)
def test_a_left_graph_missing_an_edge_fails_pig_verify(
        suite, monkeypatch, capsys):
    """With the first edge of every left graph dropped, each suite prints
    FAIL lines and pig verify exits 1.  In IS_3 and B(Z_2, 2) the edge
    joins two vertices of one class, so the quotient raises; the
    semilattice's classes are singletons, so its quotient does not."""
    build = verify.pig.left_pig

    def dropped(s):
        g = build(s)
        u, v = g.edges()[0]
        adj = list(g.adj)
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        return Graph(tuple(adj), g.labels)

    monkeypatch.setattr(verify.pig, "left_pig", dropped)
    assert cli.main(["verify", "--suite", suite]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "some checks FAILED"
    quotient = [line for line in lines if QUOTIENT_CHECKS[suite] in line]
    if suite == "semilattice":
        assert quotient[0].startswith("[PASS]")
        assert any(line.startswith("[FAIL]") for line in lines)
    else:
        assert quotient == lines[-2:-1] and quotient[0].startswith(
            f"[FAIL] {suite}: {QUOTIENT_CHECKS[suite]}  (quotient is not "
            "skeletal at the vertex pair")


@pytest.mark.parametrize("suite, line", [
    (verify.suite_brandt, "the nonzero idempotents number r"),
    (verify.suite_semilattice, "every element is idempotent, 2^n of them")])
def test_a_size_line_recounts_the_idempotents(suite, line, monkeypatch):
    """Each size line is a recount: with the first idempotent dropped,
    (0,e,0) in Brandt and the empty set in the semilattice, it fails."""
    idempotents = semigroups.Semigroup.idempotents.func
    monkeypatch.setattr(semigroups.Semigroup, "idempotents",
                        property(lambda s: idempotents(s)[1:]))
    assert line in {c.name for c in suite().checks if not c.passed}


def test_twin_classes_are_the_nonzero_classes(isn):
    for n in range(2, 5):
        s = isn[n]
        for full, quotient in ((left_pig(s), s_left_pig),
                               (right_pig(s), s_right_pig)):
            h, phi = max_skeletal(full)
            q, psi = quotient(s, full)
            assert h.adj == q.adj and phi.map == psi.map


def test_s_pig_rejects_merged_isolated_vertices(isn):
    s = isn[3]
    verts = pig_vertices(s)
    # vertices 2 and 5 keyed 0: isolated in the graph, merged by the keys
    keys = [0 if x in (verts[2], verts[5]) else m
            for x, m in enumerate(s.left_ideals)]
    with pytest.raises(InconsistentQuotient,
                       match=r"^quotient is not skeletal at the vertex "
                             r"pair \(2, 5\)$") as err:
        _s_pig(s, keys, _pig(s, keys))
    assert err.value.witness == (2, 5)


def test_s_pig_passes_on_ideals_recounted_from_images(isn):
    # in IS_n, y lies in the left ideal of x iff y's image lies in x's
    s = isn[3]
    images = list(map(families.image_mask, s.elements))
    keys = [sum(1 << y for y, b in enumerate(images) if b & ~a == 0)
            for a in images]
    q, phi = _s_pig(s, keys, _pig(s, keys))
    want, want_phi = s_left_pig(s, left_pig(s))
    assert q == want and phi == want_phi


def test_no_table_makes_a_class_quotient_inconsistent():
    """On any table, associative or not, every nonzero vertex's ideal
    holds a nonzero element, so equal ideals are closed twins in the full
    graph and the class quotient merges twins only."""
    rng = random.Random(23)
    quotients = 0
    for i in range(1000):
        n = rng.randint(1, 6)
        table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        if i % 2:
            z = rng.randrange(n)
            table[z] = [z] * n
            for row in table:
                row[z] = z
        s = from_cayley_table(table, unchecked=True)
        for build, quotient, ideals in (
                (left_pig, s_left_pig, s.left_ideals),
                (right_pig, s_right_pig, s.right_ideals)):
            try:
                full = build(s)
            except EmptyVertexSet:
                continue
            _, phi = quotient(s, full)
            verts = pig_vertices(s)
            nonzero = sum(1 << v for v in verts)
            assert all(ideals[v] & nonzero for v in verts)
            twins = twin_partition(full).map
            assert all(len({twins[v] for v in cls}) == 1
                       for cls in phi.classes)
            quotients += 1
    assert quotients > 1000


def test_each_layer_is_built_once(monkeypatch):
    """The ideals, the inverse map and the generating set are computed
    once per semigroup, however many graphs, partitions and involution
    checks are built from them: one left and one right ideal pass, by
    _reach on a family that knows its generators and by _ideals on its
    bare table."""
    passes, within = Counter(), []

    def counted(attr, name):
        compute = getattr(semigroups.Semigroup, attr).func

        def counted_compute(t):
            passes[name] += 1
            within.append(name)
            try:
                return compute(t)
            finally:
                within.pop()

        prop = cached_property(counted_compute)
        prop.__set_name__(semigroups.Semigroup, attr)
        monkeypatch.setattr(semigroups.Semigroup, attr, prop)

    def counted_pass(primitive):
        run = getattr(semigroups, primitive)

        def counted_run(lines):
            passes[f"{within[-1] if within else 'stray'} by {primitive}"] += 1
            return run(lines)

        monkeypatch.setattr(semigroups, primitive, counted_run)

    for attr, name in (("left_ideals", "left"), ("right_ideals", "right"),
                       ("inverses", "inverse search"),
                       ("generators", "generating set")):
        counted(attr, name)
    counted_pass("_ideals")
    counted_pass("_reach")
    family = families.symmetric_inverse(3)
    for s, primitive in ((family, "_reach"),
                         (semigroups.Semigroup(tuple(family.table)),
                          "_ideals")):
        passes.clear()
        left, right = left_pig(s), right_pig(s)
        s_left_pig(s, left)
        s_right_pig(s, right)
        l_classes(s)
        left_pig_inverse_fast(s)
        involution_pig_isomorphism(s, left, right)
        involution_pig_isomorphism(s, left, right)
        assert semigroups.check_involution(s, s.inverses)
        assert s.order == 34
        assert passes == Counter({
            "left": 1, f"left by {primitive}": 1, "right": 1,
            f"right by {primitive}": 1, "inverse search": 1,
            "generating set": 1})


@pytest.mark.parametrize("suite, builds", [
    (verify.suite_isn, 3), (verify.suite_brandt, 2),
    (verify.suite_semilattice, 3)])
def test_each_suite_builds_each_graph_once(suite, builds, monkeypatch):
    """The isn suite builds the left graph, its inverse-criterion recount
    and the right graph; the Brandt suite the left and right graphs; the
    semilattice suite its left and right graphs and a group's.  The class
    quotient and the inversion check take the graphs already built."""
    calls = []
    build = verify.pig._pig

    def counted(s, ideals):
        calls.append(s.order)
        return build(s, ideals)

    monkeypatch.setattr(verify.pig, "_pig", counted)
    assert suite().passed
    assert len(calls) == builds
