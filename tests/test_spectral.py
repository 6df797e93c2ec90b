import itertools
import json
import random

import pytest
import sympy

from pigraphs import spectral, verify
from pigraphs.errors import NotSymmetric, SizeMismatch
from pigraphs.graphs import (
    VertexMap,
    complete_graph,
    components,
    cycle_graph,
    from_edges,
    random_graph,
)
from pigraphs.skeletal import blow_up, twin_partition
from pigraphs.spectral import (
    eigen_multiplicity,
    graph_matrix,
    integer_rank,
    twin_spectral_report,
)

K4 = complete_graph(4)


def test_matrix_definitions():
    k2 = complete_graph(2)
    assert graph_matrix(k2, "A") == [[0, 1], [1, 0]]
    assert graph_matrix(k2, "L") == [[1, -1], [-1, 1]]
    assert graph_matrix(k2, "Q") == [[1, 1], [1, 1]]
    null3 = from_edges(3, [])
    zero = [[0] * 3 for _ in range(3)]
    assert graph_matrix(null3, "A") == zero
    assert graph_matrix(null3, "L") == zero
    lap4 = graph_matrix(K4, "L")
    assert all(lap4[i][i] == 3 for i in range(4))
    assert all(lap4[i][j] == -1 for i in range(4) for j in range(4) if i != j)
    assert all(sum(row) == 0 for row in lap4)


def test_graph_matrix_matches_entrywise_definitions():
    rng = random.Random(29)
    for _ in range(30):
        g = random_graph(rng.randrange(0, 8), rng.random(), rng)
        a = [[1 if g.has_edge(u, v) else 0 for v in range(g.order)]
             for u in range(g.order)]
        deg = [sum(row) for row in a]
        n = range(g.order)
        assert graph_matrix(g, "A") == a
        assert graph_matrix(g, "L") == [[deg[u] if u == v else -a[u][v]
                                         for v in n] for u in n]
        assert graph_matrix(g, "Q") == [[deg[u] if u == v else a[u][v]
                                         for v in n] for u in n]


def test_integer_rank():
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_rank([[1] * 4 for _ in range(4)]) == 1
    a_plus_i = [[1] * 4 for _ in range(4)]
    assert graph_matrix(K4, "A")[0][0] == 0
    shifted = [[graph_matrix(K4, "A")[i][j] + (1 if i == j else 0)
                for j in range(4)] for i in range(4)]
    assert shifted == a_plus_i
    assert integer_rank(shifted) == 1
    assert integer_rank([]) == 0
    assert integer_rank([[1, 2, 3], [2, 4, 6]]) == 1
    with pytest.raises(SizeMismatch):
        integer_rank([[1, 2], [3]])


def test_integer_rank_against_sympy():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 7)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert integer_rank(m) == sympy.Matrix(m).rank()


def test_eigen_multiplicity_examples():
    assert eigen_multiplicity(graph_matrix(K4, "A"), -1) == 3
    assert eigen_multiplicity(graph_matrix(K4, "L"), 4) == 3
    assert eigen_multiplicity(graph_matrix(complete_graph(2), "L"), 5) == 0
    for m in ([[0, 1], [0, 0]], [[0, 1]], [[0, 1], [1]]):
        with pytest.raises(NotSymmetric):
            eigen_multiplicity(m, 0)


def charpoly_multiplicity(m, lam):
    """Oracle: multiplicity of lam as a root of the characteristic polynomial."""
    x = sympy.symbols("x")
    poly = sympy.Poly(sympy.Matrix(m).charpoly(x).as_expr(), x)
    divisor = sympy.Poly(x - lam, x)
    mult = 0
    while poly.eval(lam) == 0:
        poly = poly.div(divisor)[0]
        mult += 1
    return mult


def test_eigen_multiplicity_against_charpoly():
    rng = random.Random(17)
    for _ in range(20):
        g = random_graph(rng.randrange(2, 7), 0.5, rng)
        m = graph_matrix(g, "A")
        for lam in (-2, -1, 0, 1, 2):
            assert eigen_multiplicity(m, lam) == charpoly_multiplicity(m, lam)


def test_laplacian_nullity_counts_components():
    rng = random.Random(19)
    for _ in range(15):
        g = random_graph(rng.randrange(2, 8), 0.3, rng)
        nullity = eigen_multiplicity(graph_matrix(g, "L"), 0)
        assert nullity == components(g).codomain_order


def test_twin_report_k4():
    report = twin_spectral_report(K4)
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.size == 4 and cls.degree == 3
    assert cls.adjacency_multiplicity == 3
    assert cls.laplacian_multiplicity == 3
    assert cls.signless_multiplicity == 3
    assert report.all_pass


def test_twin_report_disjoint_k2s():
    g = from_edges(4, [(0, 1), (2, 3)])
    report = twin_spectral_report(g)
    assert len(report.classes) == 2
    for cls in report.classes:
        assert cls.size == 2 and cls.degree == 1
        assert cls.adjacency_multiplicity == 2
        assert cls.laplacian_multiplicity == 2
        assert cls.signless_multiplicity == 2
    assert report.all_pass


def test_twin_report_empty_for_twin_free_graphs():
    report = twin_spectral_report(cycle_graph(5))
    assert report.classes == () and report.all_pass


def dense_product(m, x):
    return [sum(mij * xj for mij, xj in zip(row, x)) for row in m]


def test_twin_report_on_random_blow_ups():
    rng = random.Random(23)
    for _ in range(20):
        base = random_graph(rng.randrange(2, 6), 0.5, rng)
        big, _ = blow_up(base, [rng.randrange(1, 4)
                                for _ in range(base.order)])
        report = twin_spectral_report(big)
        assert report.all_pass
        for cls in report.classes:
            x = [0] * big.order
            x[cls.vertices[0]], x[cls.vertices[1]] = 1, -1
            assert dense_product(graph_matrix(big, "A"), x) == \
                [-v for v in x]


def test_quotient_degree_variant_fails_on_triangle_merge():
    phi = VertexMap((0, 0, 0, 1))
    s = complete_graph(2).degree(phi.map[0])
    assert s == 1 and len(phi.classes[phi.map[0]]) == 3
    # s+1 = 2 is not a Laplacian eigenvalue of K4 at all
    assert eigen_multiplicity(graph_matrix(K4, "L"), s + 1) == 0


def assert_report_matches_full_recount(g):
    """Every multiplicity of the quotient report equals the n x n rank."""
    report = twin_spectral_report(g)
    assert report.all_pass
    a, lap, q = (graph_matrix(g, kind) for kind in "ALQ")
    for c in report.classes:
        assert c.adjacency_multiplicity == eigen_multiplicity(a, -1)
        assert c.laplacian_multiplicity == eigen_multiplicity(lap,
                                                              c.degree + 1)
        assert c.signless_multiplicity == eigen_multiplicity(q, c.degree - 1)
    return report


def test_twin_report_computes_each_rank_once(monkeypatch):
    g, _ = blow_up(cycle_graph(6), [2, 2, 2, 3, 2, 2])
    proofs, ranks = [], []
    real_proof, real_rank = spectral._nonsingular_mod_p, spectral.integer_rank

    def proof(m):
        proofs.append((m, real_proof(m)))
        return proofs[-1][1]
    monkeypatch.setattr(spectral, "_nonsingular_mod_p", proof)
    monkeypatch.setattr(spectral, "integer_rank",
                        lambda m: ranks.append(m) or real_rank(m))
    report = twin_spectral_report(g)
    monkeypatch.undo()
    degrees = {c.degree for c in report.classes}
    assert len(report.classes) == 6 and len(degrees) == 2
    # A at -1 once, then L and Q once per distinct class degree: each is
    # decided once, on the m x m quotient form, never on the n x n matrix
    m = twin_partition(g).codomain_order
    assert len(proofs) == 1 + 2 * len(degrees)
    assert len({repr(form) for form, _ in proofs}) == len(proofs)
    assert m == 6 < g.order and all(len(form) == m for form, _ in proofs)
    # Bareiss ranks exactly the forms the proof did not clear (here the
    # singular A form at -1), each once
    assert [proved for _, proved in proofs] == [False, True, True, True, True]
    assert ranks == [form for form, proved in proofs if not proved]
    assert assert_report_matches_full_recount(g) == report


NONSINGULAR_DET_127 = ([[127]], [[1, 2], [3, 133]],
                       [[2, 0, 0], [0, 127, 0], [0, 0, 1]])


def test_proof_fails_on_nonsingular_matrices_with_det_a_multiple_of_127():
    for m in NONSINGULAR_DET_127:
        assert sympy.Matrix(m).det() % 127 == 0
        assert not spectral._nonsingular_mod_p(m)
        assert integer_rank(m) == len(m)


def test_proof_holds_exactly_when_det_is_nonzero_modulo_127():
    rng = random.Random(41)
    outcomes = set()
    for k in range(500):
        singular = k % 3 == 2
        n = rng.randrange(2 if singular else 0, 13)
        m = [[rng.randint(-300, 300) for _ in range(n)] for _ in range(n)]
        if singular:
            # the last row combines two others, then the rows are shuffled
            i, j = rng.choices(range(n - 1), k=2)
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            m[-1] = [a * x + b * y for x, y in zip(m[i], m[j])]
            rng.shuffle(m)
        # the domain form's exact integer determinant is ~40x faster here
        det = sympy.Matrix(m).to_DM().det()
        proved = spectral._nonsingular_mod_p(m)
        assert proved == (det % 127 != 0)
        outcomes.add((proved, det == 0))
    assert outcomes == {(True, False), (False, False), (False, True)}


def test_twin_report_is_the_same_on_the_bareiss_fallback(monkeypatch):
    rng = random.Random(43)
    graphs = [blow_up(random_graph(b, 0.5, rng),
                      [rng.randrange(1, 4) for _ in range(b)])[0]
              for b in (2, 3, 4, 5, 6, 8, 10, 12) for _ in range(3)]
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        graphs += [from_edges(n, [p for i, p in enumerate(pairs)
                                  if mask >> i & 1])
                   for mask in range(1 << len(pairs))]
    proofs, real_proof = [], spectral._nonsingular_mod_p
    monkeypatch.setattr(spectral, "_nonsingular_mod_p",
                        lambda m: proofs.append(real_proof(m)) or proofs[-1])
    reports = [twin_spectral_report(g) for g in graphs]
    # the normal pass takes both paths; the patched one only Bareiss
    assert proofs.count(True) > 500 and proofs.count(False) > 100
    monkeypatch.setattr(spectral, "_nonsingular_mod_p", lambda m: False)
    assert [twin_spectral_report(g) for g in graphs] == reports


def test_twin_report_matches_full_recount_on_every_small_graph():
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            assert_report_matches_full_recount(from_edges(
                n, [p for i, p in enumerate(pairs) if mask >> i & 1]))


def test_twin_report_matches_full_recount_on_seeded_graphs():
    rng = random.Random(31)
    for _ in range(200):
        assert_report_matches_full_recount(
            random_graph(rng.randrange(6, 9), rng.random(), rng))
    # orders 12, 18, 24, 31 and 39
    for base_order in (6, 9, 12, 16, 20):
        base = random_graph(base_order, 0.5, rng)
        big, _ = blow_up(base, [1 + j % 3 for j in range(base_order)])
        assert assert_report_matches_full_recount(big).classes


def test_twin_report_against_charpoly_on_small_blow_ups():
    rng = random.Random(37)
    for _ in range(3):
        base = random_graph(3, 0.5, rng)
        big, _ = blow_up(base, [2, 3, 1])
        report = twin_spectral_report(big)
        assert report.all_pass and report.classes
        a, lap, q = (graph_matrix(big, kind) for kind in "ALQ")
        for c in report.classes:
            assert c.adjacency_multiplicity == charpoly_multiplicity(a, -1)
            assert c.laplacian_multiplicity == \
                charpoly_multiplicity(lap, c.degree + 1)
            assert c.signless_multiplicity == \
                charpoly_multiplicity(q, c.degree - 1)


def test_suite_spectral_names_a_failing_blow_up(monkeypatch):
    monkeypatch.setattr(verify.spectral, "eigen_multiplicity",
                        lambda m, lam: -1)
    result = next(c for c in verify.suite_spectral(4).checks
                  if c.name == "twin eigenvalue bounds on random blow-ups")
    assert not result.passed
    fields = dict(item.split("=", 1) for item in result.detail.split("; "))
    assert fields["seed"] == "4" and fields["iteration"] == "0"
    assert fields["all_pass"] == "True"
    assert fields["recount_agrees"] == "False"
    g = from_edges(int(fields["order"]), json.loads(fields["edges"]))
    assert twin_spectral_report(g).classes
