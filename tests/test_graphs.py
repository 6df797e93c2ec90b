import itertools
import json
import random
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from pigraphs import graphs
from pigraphs.errors import (
    IndexOutOfRange,
    MalformedDocument,
    NotSimpleGraph,
    NotSurjective,
    SizeLimitExceeded,
    SizeMismatch,
)
from pigraphs.graphs import (
    Graph,
    VertexMap,
    _trusted_graph,
    are_isomorphic,
    complement,
    complete_graph,
    components,
    cycle_graph,
    degree_of_subset_vertex,
    from_edges,
    from_json_dict,
    graph_stats,
    intersection_graph,
    mask_intersection_graph,
    partition_by_key,
    path_graph,
    random_graph,
    to_dot,
    to_edge_list,
    to_json,
    to_json_dict,
)
from pigraphs.skeletal import blow_up, verify_skeletal


def is_isomorphism(g, h, mapping):
    """Whether mapping is a bijective skeletal map, i.e. an isomorphism."""
    phi = VertexMap(tuple(mapping))
    return verify_skeletal(g, h, phi).is_skeletal


def graph_strategy(max_order=8):
    def build(data):
        n, bits = data
        edges = [(u, v) for i, (u, v) in enumerate(
            itertools.combinations(range(n), 2)) if bits >> i & 1]
        return from_edges(n, edges)
    return st.integers(1, max_order).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ).map(build)


def test_stats_k4():
    st4 = graph_stats(complete_graph(4))
    assert st4.degrees == (3, 3, 3, 3)
    assert st4.edge_count == 6
    assert st4.is_connected and st4.is_complete and not st4.is_null


def test_stats_null2():
    st2 = graph_stats(Graph((0, 0)))
    assert st2.edge_count == 0
    assert not st2.is_connected and st2.is_null


def random_surjection(n, m, rng):
    """A seeded map of range(n) onto range(m), ids in no particular order."""
    ids = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(ids)
    return tuple(ids)


def test_vertex_map_fibres_match_the_definition():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(12)
        m = rng.randrange(1, n + 1) if n else 0
        ids = random_surjection(n, m, rng)
        phi = VertexMap(ids)
        assert (phi.domain_order, phi.codomain_order) == (n, m)
        assert len(phi.masks) == len(phi.classes) == m
        for v in range(m):
            fibre = tuple(u for u in range(n) if ids[u] == v)
            assert phi.classes[v] == fibre
            assert phi.masks[v] == sum(1 << u for u in fibre)
            assert phi.masks[v].bit_count() == ids.count(v)
    # both orders are read off the map once and stored: empty, identity
    # and merge maps
    assert [f.name for f in fields(VertexMap)] == ["map"]
    for ids, m in (((), 0), ((0, 1, 2), 3), ((0, 0, 1, 0), 2)):
        stored = vars(VertexMap(ids))
        assert (stored["domain_order"], stored["codomain_order"]) \
            == (len(ids), m)


def test_preimage_matches_the_definition():
    rng = random.Random(17)
    # domain orders 0 and 1 and codomain order 1 first, then random maps
    sizes = [(0, 0), (1, 1), (5, 1)] + [(n, rng.randrange(1, n + 1))
                                        for n in rng.choices(range(1, 40),
                                                             k=197)]
    for n, m in sizes:
        phi = VertexMap(random_surjection(n, m, rng))
        # bits above the codomain have no preimage
        for mask in (0, (1 << m) - 1, rng.randrange(1 << m),
                     rng.randrange(1 << m) | 1 << (m + rng.randrange(3))):
            assert phi.preimage(mask) == sum(
                1 << a for a, p in enumerate(phi.map) if mask >> p & 1)


def test_partition_by_key_numbers_classes_by_minimal_member():
    phi = partition_by_key(["b", "b", "c", "a", "c"])
    assert phi.map == (0, 0, 1, 2, 1)
    assert phi.classes == ((0, 1), (2, 4), (3,))
    assert phi.masks == (0b00011, 0b10100, 0b01000)
    assert partition_by_key([]) == VertexMap(())


def test_partition_by_key_equals_groups_sorted_by_minimal_member():
    rng = random.Random(9)
    for _ in range(200):
        n = rng.randrange(1, 30)
        keys = [rng.randrange(1 + rng.randrange(n)) for _ in range(n)]
        groups = {}
        for v, key in enumerate(keys):
            groups.setdefault(key, []).append(v)
        ordered = sorted(groups.values(), key=min)
        phi = partition_by_key(keys)
        assert phi.classes == tuple(map(tuple, ordered))
        assert all(phi.map[v] == i for i, group in enumerate(ordered)
                   for v in group)


def test_components():
    g = from_edges(6, [(0, 1), (2, 3), (2, 4), (3, 4)])
    comps = components(g)
    assert comps.classes == ((0, 1), (2, 3, 4), (5,))
    assert components(cycle_graph(5)).codomain_order == 1


@given(graph_strategy())
def test_degree_sum_is_twice_edge_count(g):
    stats = graph_stats(g)
    assert sum(stats.degrees) == 2 * stats.edge_count
    assert len(g.edges()) == stats.edge_count


def test_intersection_graph_small():
    assert intersection_graph(1).order == 1
    g2 = intersection_graph(2)
    assert g2.order == 3 and g2.edges() == [(0, 2), (1, 2)]
    g3 = intersection_graph(3)
    assert g3.order == 7 and graph_stats(g3).edge_count == 15
    for n in (0, 7):
        with pytest.raises(SizeLimitExceeded):
            intersection_graph(n)


@pytest.mark.parametrize("n", range(1, 7))
def test_intersection_graph_formulas_against_direct_count(n):
    g = intersection_graph(n)
    masks = list(range(1, 1 << n))
    # independent recount straight from the subset definition
    direct_edges = sum(1 for a, b in itertools.combinations(masks, 2)
                       if a & b)
    stats = graph_stats(g)
    assert stats.edge_count == direct_edges
    assert stats.edge_count == (((1 << n) - 1) ** 2 - (3 ** n - (1 << n))) // 2
    for v, mask in enumerate(masks):
        assert g.degree(v) == degree_of_subset_vertex(n, mask.bit_count())


def test_degree_of_subset_vertex_values():
    assert degree_of_subset_vertex(2, 1) == 1
    assert degree_of_subset_vertex(3, 2) == 5
    for n in range(1, 6):
        assert degree_of_subset_vertex(n, n) == (1 << n) - 2


def test_isomorphism_basics(monkeypatch):
    c5 = cycle_graph(5)
    found = are_isomorphic(c5, c5)
    assert found is not None and is_isomorphism(c5, c5, found)
    assert are_isomorphic(cycle_graph(4), complete_graph(4)) is None
    assert are_isomorphic(path_graph(4), from_edges(4, [(0, 1), (0, 2), (0, 3)])) is None
    # regular graphs that colour refinement cannot split
    cube = from_edges(8, [(u, u ^ 1 << b) for u in range(8) for b in range(3)
                          if u < u ^ 1 << b])
    wagner = from_edges(8, [(v, (v + 1) % 8) for v in range(8)]
                        + [(v, v + 4) for v in range(4)])
    assert are_isomorphic(cube, wagner) is None
    two_c4 = from_edges(8, [(v, v + 1 - 4 * (v % 4 == 3)) for v in range(8)])
    assert are_isomorphic(cycle_graph(8), two_c4) is None
    petersen = from_edges(10, [(v, (v + 1) % 5) for v in range(5)]
                          + [(v, v + 5) for v in range(5)]
                          + [(v + 5, (v + 2) % 5 + 5) for v in range(5)])
    assert are_isomorphic(Graph(()), Graph(())) == []
    rng = random.Random(13)
    for g, limit in ((petersen, 10), (intersection_graph(6), 63)):
        perm = rng.sample(range(g.order), g.order)
        h = from_edges(g.order, [(perm[u], perm[v]) for u, v in g.edges()])
        monkeypatch.setattr(graphs, "ISO_MAX_ORDER", limit)
        found = are_isomorphic(g, h)
        assert found is not None and is_isomorphism(g, h, found)


def test_isomorphism_guard(monkeypatch):
    # 63 admits the class quotient of IS_6 and the intersection graph
    assert graphs.ISO_MAX_ORDER == intersection_graph(6).order
    big = Graph((0,) * 64)
    with pytest.raises(SizeLimitExceeded):
        are_isomorphic(big, big)
    monkeypatch.setattr(graphs, "ISO_MAX_ORDER", 64)
    assert are_isomorphic(big, big) is not None


def brute_force_isomorphic(g, h):
    if g.order != h.order:
        return False
    return any(is_isomorphism(g, h, list(p))
               for p in itertools.permutations(range(g.order)))


def labelled_graphs(n):
    """Every simple graph on the vertices 0..n-1, one per edge subset."""
    pairs = list(itertools.combinations(range(n), 2))
    for chosen in range(1 << len(pairs)):
        yield from_edges(n, [e for i, e in enumerate(pairs)
                             if chosen >> i & 1])


def test_isomorphism_agrees_with_permutation_search():
    rng = random.Random(7)
    pairs = []
    for _ in range(40):
        n = rng.randrange(2, 7)
        pairs.append((random_graph(n, 0.5, rng), random_graph(n, 0.5, rng)))
    # every pair of labelled graphs of order 0..4, orders mixed too
    small = [g for n in range(5) for g in labelled_graphs(n)]
    assert len(small) == 1 + 1 + 2 + 8 + 64
    pairs += itertools.product(small, repeat=2)
    for g, h in pairs:
        found = are_isomorphic(g, h)
        if found is not None:
            assert is_isomorphism(g, h, found)
        assert (found is not None) == brute_force_isomorphic(g, h)


def test_verify_isomorphism():
    g = complete_graph(3)
    assert is_isomorphism(g, g, [0, 1, 2])
    assert not is_isomorphism(g, Graph((0, 0, 0)), [0, 1, 2])
    # a map that is not a bijection does not fit two graphs of one order
    with pytest.raises(SizeMismatch):
        is_isomorphism(g, g, [0, 0, 1])
    with pytest.raises(SizeMismatch):
        is_isomorphism(g, complete_graph(4), [0, 1, 2])
    with pytest.raises(NotSurjective):
        is_isomorphism(g, g, [0, 1, 3])
    with pytest.raises(SizeMismatch):
        is_isomorphism(g, g, [0, 1])


def test_json_round_trip():
    g = from_edges(4, [(0, 1), (1, 3)], labels=["a", "b", "c", "d"])
    doc = to_json_dict(g)
    assert doc["edges"] == [[0, 1], [1, 3]]
    assert from_json_dict(doc) == g


def assert_stdlib_layout(g):
    """The writer's bytes are the stdlib's indented encoding, the oracle."""
    assert to_json(g) == json.dumps(to_json_dict(g), indent=2) + "\n"


def test_json_writer_matches_the_stdlib_on_edge_cases():
    for g in (Graph(()), Graph((), ()), from_edges(4, []),
              complete_graph(5), intersection_graph(3)):
        assert_stdlib_layout(g)
    assert '"labels": null' in to_json(Graph(()))
    assert '"labels": [],' in to_json(Graph((), ()))
    assert '"edges": []' in to_json(from_edges(4, []))
    # quotes, backslashes, a newline, non-ASCII and a lone surrogate all
    # take the stdlib's ASCII escapes
    labels = ['a"b', "c\\d", "e\nf", "\u00e9", "\u2603", "\ud800", ""]
    g = from_edges(7, [(0, 1), (2, 6), (3, 5)], labels)
    assert_stdlib_layout(g)
    assert from_json_dict(json.loads(to_json(g))) == g


def test_json_writer_matches_the_stdlib_on_random_graphs():
    rng = random.Random(31)
    for n in range(31):
        g = random_graph(n, rng.random(), rng)
        assert_stdlib_layout(g)
        assert_stdlib_layout(Graph(g.adj, tuple(f"v{v}" for v in range(n))))


def test_dot_and_edge_list():
    g = from_edges(3, [(0, 2)], labels=["x", "y", "z"])
    dot = to_dot(g)
    assert dot.splitlines() == ["graph {", '  "y";', '  "x" -- "z";', "}"]
    assert to_edge_list(g) == "0 2\n"


def test_dot_escapes_backslashes_and_quotes_in_labels():
    g = from_edges(3, [(0, 1)], labels=['x"y', "a\\", "\\\""])
    assert to_dot(g).splitlines() == [
        "graph {", '  "\\\\\\"";', '  "x\\"y" -- "a\\\\";', "}"]


def test_complement():
    g = path_graph(3)
    c = complement(g)
    assert c.edges() == [(0, 2)]
    assert complement(c).adj == g.adj


def pairwise_intersection_adj(masks):
    """The definition, one vertex pair at a time."""
    adj = [0] * len(masks)
    for u, v in itertools.combinations(range(len(masks)), 2):
        if masks[u] & masks[v]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return tuple(adj)


def test_mask_intersection_graph_matches_pairwise_definition():
    rng = random.Random(11)
    for _ in range(60):
        width = rng.randrange(1, 9)
        pool = [rng.randrange(1 << width) for _ in range(rng.randrange(1, 6))]
        # few distinct values, so masks repeat; zero masks appear too
        masks = [rng.choice(pool + [0]) for _ in range(rng.randrange(0, 40))]
        g = mask_intersection_graph(masks)
        assert g.adj == pairwise_intersection_adj(masks)
        assert Graph(g.adj) == g
        assert g.order == Graph(g.adj).order == len(masks)


def pairwise_isomorphism(g, h, mapping):
    return all(g.has_edge(u, v) == h.has_edge(mapping[u], mapping[v])
               for u, v in itertools.combinations(range(g.order), 2))


def test_verify_isomorphism_matches_pairwise_definition():
    rng = random.Random(5)
    for order in range(1, 20):
        g = random_graph(order, 0.5, rng)
        mapping = rng.sample(range(order), order)
        image = from_edges(order, [(mapping[u], mapping[v])
                                   for u, v in g.edges()])
        assert is_isomorphism(g, image, mapping)
        other = random_graph(order, 0.5, rng)
        assert is_isomorphism(g, other, mapping) == \
            pairwise_isomorphism(g, other, mapping)
    # blow-ups repeat closed rows: twin classes of size 1-3
    for order in range(1, 9):
        sizes = [rng.randint(1, 3) for _ in range(order)]
        g, _ = blow_up(random_graph(order, 0.5, rng), sizes)
        other, _ = blow_up(random_graph(order, 0.5, rng), sizes)
        mapping = rng.sample(range(g.order), g.order)
        image = from_edges(g.order, [(mapping[u], mapping[v])
                                     for u, v in g.edges()])
        assert is_isomorphism(g, image, mapping)
        for h in (other, complement(image)):
            assert is_isomorphism(g, h, mapping) == \
                pairwise_isomorphism(g, h, mapping)


def test_verify_isomorphism_rejects_a_swap_across_twin_classes():
    # P4 blown up to a, b1 b2, c1 c2, d: b1 and c1 both have degree 4
    g, collapse = blow_up(path_graph(4), [1, 2, 2, 1])
    assert collapse.map == (0, 1, 1, 2, 2, 3)
    assert g.degree(1) == g.degree(3) == 4
    assert is_isomorphism(g, g, [0, 2, 1, 4, 3, 5])
    assert not is_isomorphism(g, g, [0, 3, 2, 1, 4, 5])


def test_verify_isomorphism_rejects_one_flipped_edge():
    g = intersection_graph(4)
    rng = random.Random(3)
    mapping = rng.sample(range(g.order), g.order)
    edges = {(min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
             for u, v in g.edges()}
    assert is_isomorphism(g, from_edges(g.order, edges), mapping)
    for u, v in [(0, 1), (2, 9), (13, 14)]:
        flipped = edges ^ {(u, v)}
        assert not is_isomorphism(g, from_edges(g.order, flipped), mapping)


def test_from_edges_rejects_out_of_range_endpoints():
    for edge in [(0, 3), (3, 0), (-1, 1), (1, -2)]:
        with pytest.raises(IndexOutOfRange):
            from_edges(3, [edge])


def test_from_edges_rejects_loops():
    # a loop sets its own bit, which Graph turns away as not simple
    with pytest.raises(NotSimpleGraph, match="^vertex 0 has a loop$"):
        from_edges(2, [(0, 0), (0, 1)])
    with pytest.raises(NotSimpleGraph):
        cycle_graph(1)


def test_from_edges_rejects_malformed_input():
    bad = [("2", []), (True, []), (2.0, []), (-1, []),
           (2, [("a", 0)]), (2, [(True, False)]), (2, [(0.5, 1)]),
           (2, [5]), (3, [(0, 1, 2)])]
    for order, edges in bad:
        with pytest.raises(MalformedDocument):
            from_edges(order, edges)
    for labels in (5, "ab", ["a", 1]):
        with pytest.raises(MalformedDocument):
            from_edges(2, [(0, 1)], labels)
    with pytest.raises(SizeMismatch):
        from_edges(2, [(0, 1)], ["a"])
    with pytest.raises(MalformedDocument):
        from_json_dict({"order": 2, "edges": 5})
    # the order bound is checked before any row is allocated
    for order in (graphs.GRAPH_MAX_ORDER + 1, 10**12, 10**19):
        with pytest.raises(SizeLimitExceeded):
            from_json_dict({"order": order, "edges": []})
    assert from_edges(graphs.GRAPH_MAX_ORDER, []).order == 4096


def test_graph_invariants_raise():
    with pytest.raises(IndexOutOfRange):
        Graph((4, 0))
    with pytest.raises(NotSimpleGraph):
        Graph((1, 0))
    with pytest.raises(NotSimpleGraph):
        Graph((2, 0))
    # the order is the row count, stored once by either constructor
    assert [f.name for f in fields(Graph)] == ["adj", "labels"]
    for rows in ((), (0, 0), (2, 1)):
        assert vars(Graph(rows))["order"] == len(rows)
        assert vars(_trusted_graph(rows))["order"] == len(rows)
    with pytest.raises(IndexOutOfRange):
        degree_of_subset_vertex(3, 0)
    with pytest.raises(IndexOutOfRange):
        degree_of_subset_vertex(3, 4)


def test_a_graph_checks_its_labels():
    """A Graph takes no labels or one distinct string per vertex, as
    from_edges does; too few labels used to pass, and then to_dot raised
    a bare IndexError and to_json_dict wrote a document that
    from_json_dict refuses."""
    for labels, error in (
            (("a",), SizeMismatch), (("a", "b", "c"), SizeMismatch),
            (("a", "a"), MalformedDocument), ((0, 1), MalformedDocument),
            ("ab", MalformedDocument)):
        with pytest.raises(error):
            Graph((0, 0), labels)
    g = Graph((2, 1), ("a", "b"))
    assert from_json_dict(to_json_dict(g)) == g
    assert to_dot(g) == to_dot(from_edges(2, [(0, 1)], ["a", "b"]))
