import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pigraphs import cli, skeletal, verify
from pigraphs.errors import (
    NotSkeletal,
    NotSurjective,
    SizeLimitExceeded,
    SizeMismatch,
)
from pigraphs.graphs import (
    VertexMap,
    complete_graph,
    cycle_graph,
    from_edges,
    graph_stats,
    partition_by_key,
    path_graph,
    random_graph,
)
from pigraphs.skeletal import (
    SkeletalReport,
    _block_partitions,
    _blocks_are_skeletal,
    blow_up,
    brute_force_has_proper_skeletal,
    compose_skeletal,
    embedded_copy,
    fibre_subgraph_is_complete,
    has_two_block_skeletal,
    is_skeleton,
    max_skeletal,
    quotient_by_partition,
    twin_partition,
    verify_skeletal,
)


def graph_strategy(min_order=1, max_order=7):
    def build(data):
        n, bits = data
        edges = [(u, v) for i, (u, v) in enumerate(
            itertools.combinations(range(n), 2)) if bits >> i & 1]
        return from_edges(n, edges)
    return st.integers(min_order, max_order).flatmap(
        lambda n: st.tuples(st.just(n),
                            st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ).map(build)


K4 = complete_graph(4)
K3 = complete_graph(3)
K2 = complete_graph(2)
MERGE_TRIANGLE = VertexMap((0, 0, 0, 1))


def test_triangle_merge_example():
    report = verify_skeletal(K4, K2, MERGE_TRIANGLE)
    assert report.is_skeletal
    assert report.fibre_sizes == (3, 1)
    assert (MERGE_TRIANGLE.domain_order, MERGE_TRIANGLE.codomain_order) \
        == (4, 2)


def test_identity_map_is_skeletal():
    g = path_graph(4)
    phi = VertexMap((0, 1, 2, 3))
    assert (phi.domain_order, phi.codomain_order) == (4, 4)
    assert verify_skeletal(g, g, phi).is_skeletal


def test_constant_map_on_path_fails_with_witness():
    g = path_graph(3)
    k1 = complete_graph(1)
    report = verify_skeletal(g, k1, VertexMap((0, 0, 0)))
    assert not report.is_skeletal
    a, b = report.witness
    assert not g.has_edge(a, b)


def test_vertex_map_validation():
    # a map onto two vertices does not fit K3 onto K3
    with pytest.raises(SizeMismatch):
        verify_skeletal(K3, K3, VertexMap((0, 0, 1)))
    for ids in ((0, -1), (1, 1), (0, 2), (0, 1 << 4096)):
        with pytest.raises(NotSurjective):
            VertexMap(ids)
    with pytest.raises(SizeMismatch):
        verify_skeletal(K4, K2, VertexMap((0, 0, 1)))


def test_twin_partition():
    assert twin_partition(complete_graph(5)).classes == ((0, 1, 2, 3, 4),)
    assert twin_partition(cycle_graph(4)).codomain_order == 4
    assert twin_partition(K4).classes == ((0, 1, 2, 3),)


def test_max_skeletal_examples():
    h, _ = max_skeletal(complete_graph(6))
    assert h.order == 1
    two_k2 = from_edges(4, [(0, 1), (2, 3)])
    h, phi = max_skeletal(two_k2)
    assert h.order == 2 and graph_stats(h).is_null
    assert verify_skeletal(two_k2, h, phi).is_skeletal
    c5 = cycle_graph(5)
    h, _ = max_skeletal(c5)
    assert h.adj == c5.adj


def block_map(n, blocks):
    """The partition of range(n) into the given blocks."""
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for v in block:
            block_of[v] = i
    return partition_by_key(block_of)


def smallest_skeletal_order(g):
    """Brute-force the minimum codomain order over all skeletal partitions."""
    best = g.order
    for blocks in all_partitions(list(range(g.order))):
        phi = block_map(g.order, blocks)
        h = quotient_by_partition(g, phi)
        if verify_skeletal(g, h, phi).is_skeletal:
            best = min(best, h.order)
    return best


def all_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def pairwise_skeletal(g, h, phi):
    """The skeletal definition read literally: every pair, in order."""
    sizes = tuple(phi.map.count(v) for v in range(h.order))
    for a in range(g.order):
        for b in range(a + 1, g.order):
            p, q = phi.map[a], phi.map[b]
            expected = p == q or h.has_edge(p, q)
            if g.has_edge(a, b) != expected:
                return False, (a, b), sizes
    return True, None, sizes


def seeded_partitions(seed, max_order=7, per_order=2):
    """(graph, partition) for every partition of seeded random graphs."""
    rng = random.Random(seed)
    for n in range(1, max_order + 1):
        for _ in range(per_order):
            g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
            for blocks in all_partitions(list(range(n))):
                yield g, block_map(n, blocks), rng


def test_verify_skeletal_matches_pairwise_definition():
    verdicts = []
    for g, phi, rng in seeded_partitions(7):
        h = quotient_by_partition(g, phi)
        other = random_graph(h.order, 0.5, rng)
        for codomain in (h, other):
            report = verify_skeletal(g, codomain, phi)
            assert (report.is_skeletal, report.witness, report.fibre_sizes) \
                == pairwise_skeletal(g, codomain, phi)
            verdicts.append(report.is_skeletal)
    assert len(verdicts) > 4000 and 0 < sum(verdicts) < len(verdicts)


def reference_check_quotient(g, raw):
    """The quotient as `pig skeletal --op check` used to build it: fibre
    lists from one pass over the raw map, two fibres adjacent when any
    cross edge joins them, each labelled by its minimal member."""
    fibres = [[] for _ in range(max(raw) + 1)]
    for u, v in enumerate(raw):
        fibres[v].append(u)
    adj = tuple(sum(1 << j for j, other in enumerate(fibres)
                    if j != i and any(g.has_edge(a, b) for a in fibre
                                      for b in other))
                for i, fibre in enumerate(fibres))
    return adj, tuple(map(tuple, fibres)), tuple(g.label(f[0])
                                                 for f in fibres)


def test_quotient_by_partition_takes_any_vertex_map():
    rng = random.Random(23)
    unordered = 0
    for _ in range(150):
        n = rng.randrange(1, 9)
        g = from_edges(n, random_graph(n, 0.5, rng).edges(),
                       labels=[f"v{u}" for u in range(n)])
        m = rng.randrange(1, n + 1)
        raw = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
        rng.shuffle(raw)
        firsts = [raw.index(v) for v in range(m)]
        unordered += firsts != sorted(firsts)
        phi = VertexMap(tuple(raw))
        h = quotient_by_partition(g, phi)
        assert (h.adj, phi.classes, h.labels) \
            == reference_check_quotient(g, raw)
    assert unordered > 50
    with pytest.raises(SizeMismatch):
        quotient_by_partition(complete_graph(3), VertexMap((0, 0)))


def test_quotient_by_partition_matches_any_cross_edge():
    for g, part, _ in seeded_partitions(8, max_order=6):
        h = quotient_by_partition(g, part)
        blocks = part.classes
        assert h.order == len(blocks)
        for i in range(h.order):
            assert not h.has_edge(i, i)
            for j in range(h.order):
                if i != j:
                    assert h.has_edge(i, j) == any(
                        g.has_edge(u, v) for u in blocks[i]
                        for v in blocks[j])


def test_max_skeletal_is_minimal():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng.randrange(2, 7), rng.choice([0.3, 0.5, 0.8]),
                         rng)
        h, _ = max_skeletal(g)
        assert h.order == smallest_skeletal_order(g)


def test_skeletons():
    assert is_skeleton(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    for n in range(3, 9):
        assert is_skeleton(path_graph(n))
    for n in range(4, 9):
        assert is_skeleton(cycle_graph(n))
    assert not is_skeleton(complete_graph(2))
    assert not is_skeleton(complete_graph(3))


def test_brute_force_oracle_examples():
    assert brute_force_has_proper_skeletal(complete_graph(3))
    assert not brute_force_has_proper_skeletal(path_graph(3))
    assert not brute_force_has_proper_skeletal(cycle_graph(4))
    with pytest.raises(SizeLimitExceeded):
        brute_force_has_proper_skeletal(path_graph(9))


def test_is_skeleton_agrees_with_brute_force():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng.randrange(2, 8),
                         rng.choice([0.2, 0.4, 0.6, 0.8]), rng)
        assert is_skeleton(g) == (not brute_force_has_proper_skeletal(g))


def reference_has_proper_skeletal(g):
    """The oracle built object by object: quotient and check per partition."""
    for blocks in all_partitions(list(range(g.order))):
        if len(blocks) == g.order:
            continue
        phi = block_map(g.order, blocks)
        if verify_skeletal(g, quotient_by_partition(g, phi), phi).is_skeletal:
            return True
    return False


BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)


def test_block_partitions_yield_each_partition_once():
    for n, bell in enumerate(BELL):
        partitions = _block_partitions(n)
        # built once and shared, so only immutable tuples of ints
        assert _block_partitions(n) is partitions
        assert type(partitions) is tuple
        yielded = []
        for blocks in partitions:
            assert type(blocks) is tuple
            assert all(type(b) is int for b in blocks)
            assert all(blocks) and sum(blocks) == (1 << n) - 1
            assert sum(b.bit_count() for b in blocks) == n  # disjoint
            # the growth order that makes each partition appear once
            minima = [(b & -b).bit_length() for b in blocks]
            assert minima == sorted(minima), (n, blocks)
            yielded.append(frozenset(blocks))
        assert len(yielded) == len(set(yielded)) == bell, n


def labelled_graphs(max_order):
    """Every labelled graph of order 0..max_order."""
    for n in range(max_order + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for chosen in range(1 << len(pairs)):
            yield from_edges(n, [e for i, e in enumerate(pairs)
                                 if chosen >> i & 1])


def test_skeletal_partitions_are_the_refinements_of_the_twin_partition():
    """G has exactly prod Bell(k_i) skeletal partitions, for its twin-class
    sizes k_i: a partition is skeletal iff each block lies in one class."""
    graphs = list(labelled_graphs(5))
    assert len(graphs) == 1100
    for g in graphs:
        closed = [row | 1 << v for v, row in enumerate(g.adj)]
        count = sum(_blocks_are_skeletal(closed, blocks)
                    for blocks in _block_partitions(g.order))
        sizes = map(len, twin_partition(g).classes)
        assert count == math.prod(BELL[k] for k in sizes), g.adj


def every_partition(max_order):
    """(graph, partition) for every partition of every labelled graph."""
    for g in labelled_graphs(max_order):
        for blocks in all_partitions(list(range(g.order))):
            yield g, block_map(g.order, blocks)


def test_block_check_matches_quotient_and_verify_skeletal():
    exhaustive = list(every_partition(4))
    assert len(exhaustive) == 1006
    seeded = [(g, phi) for g, phi, _ in seeded_partitions(9, max_order=6)]
    verdicts = []
    for g, phi in exhaustive + seeded:
        h = quotient_by_partition(g, phi)
        closed = [row | 1 << v for v, row in enumerate(g.adj)]
        blocks = [sum(1 << v for v in block) for block in phi.classes]
        verdict = _blocks_are_skeletal(closed, blocks)
        assert verdict == verify_skeletal(g, h, phi).is_skeletal
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def test_brute_force_matches_reference_on_every_small_graph():
    verdicts = []
    for g in labelled_graphs(5):
        verdict = brute_force_has_proper_skeletal(g)
        assert verdict == reference_has_proper_skeletal(g), g.adj
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)


def twin_free_graph(n, rng):
    while True:
        g = random_graph(n, 0.5, rng)
        if is_skeleton(g):
            return g


def test_brute_force_matches_reference_on_seeded_graphs():
    rng = random.Random(17)
    for n in range(6, 9):
        for _ in range(2):
            sizes = [1] * (n - 1)
            sizes[rng.randrange(n - 1)] = 2
            planted, _ = blow_up(twin_free_graph(n - 1, rng), sizes)
            perm = rng.sample(range(n), n)
            planted = from_edges(n, [(perm[u], perm[v])
                                     for u, v in planted.edges()])
            for g, proper in ((twin_free_graph(n, rng), False),
                              (planted, True)):
                assert brute_force_has_proper_skeletal(g) is proper
                assert reference_has_proper_skeletal(g) is proper


def test_brute_force_checks_every_partition_of_a_twin_free_graph(
        monkeypatch):
    checks = []

    def counted(closed, blocks):
        checks.append(len(blocks))
        return _blocks_are_skeletal(closed, blocks)

    monkeypatch.setattr(skeletal, "_blocks_are_skeletal", counted)
    g = twin_free_graph(8, random.Random(8))
    assert not brute_force_has_proper_skeletal(g)
    # Bell(8) partitions, less the discrete one, skipped before the check
    assert len(checks) == BELL[8] - 1 and 8 not in checks


def reference_has_two_block_skeletal(g):
    """The two-block test built object by object: a map onto K2 per mask."""
    k2 = complete_graph(2)
    return any(
        verify_skeletal(g, k2, VertexMap(
            tuple(mask >> v & 1 for v in range(g.order)))).is_skeletal
        for mask in range(1, 1 << max(g.order - 1, 0)))


def test_two_block_skeletal_matches_reference():
    verdicts = []
    for g in labelled_graphs(5):
        verdict = has_two_block_skeletal(g)
        assert verdict == reference_has_two_block_skeletal(g), g.adj
        verdicts.append(verdict)
    assert 0 < sum(verdicts) < len(verdicts)
    rng = random.Random(23)
    for n in (6, 7):
        for p in (0.3, 0.6, 0.9, 1.0):
            for _ in range(3):
                g = random_graph(n, p, rng)
                assert has_two_block_skeletal(g) \
                    == reference_has_two_block_skeletal(g), g.adj


def test_two_block_search_is_guarded_above_order_8():
    assert not has_two_block_skeletal(path_graph(8))
    assert has_two_block_skeletal(complete_graph(8))
    for g in (path_graph(9), complete_graph(9)):
        with pytest.raises(SizeLimitExceeded, match="guarded at order 8"):
            has_two_block_skeletal(g)


def test_complete_iff_two_block_skeletal():
    for n in range(3, 7):
        assert has_two_block_skeletal(complete_graph(n))
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng.randrange(3, 8), rng.choice([0.4, 0.7, 1.0]),
                         rng)
        assert graph_stats(g).is_complete == has_two_block_skeletal(g)


def test_compose_skeletal():
    k1 = complete_graph(1)
    psi = VertexMap((0, 0))
    composed = compose_skeletal(K4, K2, k1, MERGE_TRIANGLE, psi)
    assert composed.map == (0, 0, 0, 0)
    ident = VertexMap((0, 1))
    again = compose_skeletal(K4, K2, K2, MERGE_TRIANGLE, ident)
    assert again.map == MERGE_TRIANGLE.map
    with pytest.raises(NotSkeletal, match="^first map is not skeletal$"):
        compose_skeletal(path_graph(3), complete_graph(1), complete_graph(1),
                         VertexMap((0, 0, 0)), VertexMap((0,)))
    # K2 onto two isolated vertices loses its edge
    with pytest.raises(NotSkeletal, match="^second map is not skeletal$"):
        compose_skeletal(K4, K2, from_edges(2, []), MERGE_TRIANGLE, ident)
    # a map that does not fit its graphs, first or second
    with pytest.raises(SizeMismatch):
        compose_skeletal(K4, K2, k1, VertexMap((0, 0, 1)), psi)
    with pytest.raises(SizeMismatch):
        compose_skeletal(K4, K2, k1, MERGE_TRIANGLE, VertexMap((0, 0, 0)))


def test_embedded_copy():
    sub, bij = embedded_copy(K4, K2, MERGE_TRIANGLE)
    assert sub.order == 2 and sub.has_edge(0, 1)
    assert bij == [0, 1]
    g = path_graph(4)
    ident = VertexMap((0, 1, 2, 3))
    sub, bij = embedded_copy(g, g, ident)
    assert sub.adj == g.adj and bij == [0, 1, 2, 3]
    with pytest.raises(NotSkeletal):
        embedded_copy(path_graph(3), complete_graph(1),
                      VertexMap((0, 0, 0)))


def test_fibre_subgraphs():
    assert fibre_subgraph_is_complete(K4, MERGE_TRIANGLE, 0)
    assert fibre_subgraph_is_complete(K4, MERGE_TRIANGLE, 1)


@settings(max_examples=60)
@given(graph_strategy(min_order=1, max_order=6))
def test_max_skeletal_properties(g):
    h, phi = max_skeletal(g)
    assert verify_skeletal(g, h, phi).is_skeletal
    assert is_skeleton(h)
    for v in range(h.order):
        assert fibre_subgraph_is_complete(g, phi, v)
    embedded_copy(g, h, phi)


@settings(max_examples=40)
@given(graph_strategy(min_order=1, max_order=5),
       st.lists(st.integers(1, 3), min_size=5, max_size=5))
def test_blow_up_collapse_is_skeletal(g, sizes):
    big, phi = blow_up(g, sizes[:g.order])
    image = phi.map
    assert all(big.has_edge(a, b) == (image[a] == image[b]
                                      or g.has_edge(image[a], image[b]))
               for a in range(big.order) for b in range(big.order) if a != b)
    assert verify_skeletal(big, g, phi).is_skeletal
    for v in range(g.order):
        assert fibre_subgraph_is_complete(big, phi, v)
    # one size short, or a size of 0
    for bad in (sizes[:g.order - 1], [*sizes[:g.order - 1], 0]):
        with pytest.raises(SizeMismatch):
            blow_up(g, bad)


@pytest.mark.parametrize("name, check", [
    ("has_two_block_skeletal", "complete iff a two-vertex skeletal exists"),
    ("brute_force_has_proper_skeletal",
     "twin test agrees with the partition brute force"),
])
def test_suite_skeletal_names_a_failing_graph(name, check, monkeypatch):
    real = getattr(verify.skeletal, name)
    monkeypatch.setattr(verify.skeletal, name, lambda g: not real(g))
    result = next(c for c in verify.suite_skeletal(3).checks
                  if c.name == check)
    assert not result.passed
    fields = dict(item.split("=", 1) for item in result.detail.split("; "))
    assert fields["seed"] == "3" and fields["iteration"] == "0"
    g = from_edges(int(fields["order"]), json.loads(fields["edges"]))
    if name == "has_two_block_skeletal":
        assert fields["complete"] == str(graph_stats(g).is_complete)
        assert fields["two_block_skeletal"] == str(not real(g))
    else:
        assert fields["is_skeleton"] == str(is_skeleton(g))
        assert fields["brute_force_proper_skeletal"] == str(not real(g))


@pytest.mark.parametrize("name, fake, check", [
    ("fibre_subgraph_is_complete", lambda g, phi, v: False,
     "fibre cliques and embedded copies on random blow-ups"),
    # the true composite followed by a rotation of the base vertices
    ("compose_skeletal", lambda g, h, k, phi, psi: VertexMap(
        tuple((psi.map[phi.map[v]] + 1) % k.order for v in range(g.order))),
     "skeletal maps compose"),
])
def test_suite_skeletal_names_a_failing_blow_up(name, fake, check,
                                                monkeypatch):
    monkeypatch.setattr(verify.skeletal, name, fake)
    result = next(c for c in verify.suite_skeletal(3).checks
                  if c.name == check)
    assert not result.passed
    fields = dict(item.split("=", 1) for item in result.detail.split("; "))
    assert fields["seed"] == "3" and fields["iteration"] == "0"
    base = from_edges(int(fields["order"]), json.loads(fields["edges"]))
    big, collapse = blow_up(base, json.loads(fields["sizes"]))
    assert verify_skeletal(big, base, collapse).is_skeletal
    if name == "compose_skeletal":
        assert fields["composed_skeletal"] == "False"
        top, lift = blow_up(big, json.loads(fields["top_sizes"]))
        composed = compose_skeletal(top, big, base, lift, collapse)
        assert verify_skeletal(top, base, composed).is_skeletal
    else:
        assert fields["collapse_skeletal"] == "True"
        assert fields["fibre_cliques"] == "False"


def test_suite_skeletal_reports_a_raising_composition(monkeypatch, capsys):
    # compose_skeletal raises NotSkeletal on an inner map judged not skeletal
    monkeypatch.setattr(skeletal, "verify_skeletal",
                        lambda g, h, phi: SkeletalReport(False, (0, 1), ()))
    assert cli.main(["verify", "--suite", "skeletal", "--seed", "3"]) == 1
    prefix = "[FAIL] skeletal: skeletal maps compose  ("
    line = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith(prefix))
    fields = dict(item.split("=", 1)
                  for item in line[len(prefix):-1].split("; "))
    assert fields["seed"] == "3" and fields["iteration"] == "0"
    assert fields["error"] == "first map is not skeletal"
    base = from_edges(int(fields["order"]), json.loads(fields["edges"]))
    sizes = json.loads(fields["sizes"])
    assert len(sizes) == base.order
    assert len(json.loads(fields["top_sizes"])) == sum(sizes)
