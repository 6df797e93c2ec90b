import itertools
import random

import pytest
import sympy

from pigraphs import spectral
from pigraphs.errors import NotSymmetric
from pigraphs.graphs import (
    complete_graph,
    components,
    cycle_graph,
    from_edges,
    random_graph,
)
from pigraphs.skeletal import VertexMap, blow_up
from pigraphs.spectral import (
    adjacency_matrix,
    eigen_multiplicity,
    integer_rank,
    laplacian_matrix,
    matvec,
    quotient_degree_eigenvalues,
    signless_laplacian_matrix,
    twin_spectral_report,
)

K4 = complete_graph(4)


def test_matrix_definitions():
    k2 = complete_graph(2)
    assert adjacency_matrix(k2) == [[0, 1], [1, 0]]
    assert laplacian_matrix(k2) == [[1, -1], [-1, 1]]
    assert signless_laplacian_matrix(k2) == [[1, 1], [1, 1]]
    null3 = from_edges(3, [])
    zero = [[0] * 3 for _ in range(3)]
    assert adjacency_matrix(null3) == zero
    assert laplacian_matrix(null3) == zero
    lap4 = laplacian_matrix(K4)
    assert all(lap4[i][i] == 3 for i in range(4))
    assert all(lap4[i][j] == -1 for i in range(4) for j in range(4) if i != j)
    assert all(sum(row) == 0 for row in lap4)


def test_integer_rank():
    assert integer_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert integer_rank([[1] * 4 for _ in range(4)]) == 1
    a_plus_i = [[1] * 4 for _ in range(4)]
    assert adjacency_matrix(K4)[0][0] == 0
    shifted = [[adjacency_matrix(K4)[i][j] + (1 if i == j else 0)
                for j in range(4)] for i in range(4)]
    assert shifted == a_plus_i
    assert integer_rank(shifted) == 1
    assert integer_rank([]) == 0


def test_integer_rank_against_sympy():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(1, 7)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        assert integer_rank(m) == sympy.Matrix(m).rank()


def test_eigen_multiplicity_examples():
    assert eigen_multiplicity(adjacency_matrix(K4), -1) == 3
    assert eigen_multiplicity(laplacian_matrix(K4), 4) == 3
    assert eigen_multiplicity(laplacian_matrix(complete_graph(2)), 5) == 0
    with pytest.raises(NotSymmetric):
        eigen_multiplicity([[0, 1], [0, 0]], 0)


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
        m = adjacency_matrix(g)
        for lam in (-2, -1, 0, 1, 2):
            assert eigen_multiplicity(m, lam) == charpoly_multiplicity(m, lam)


def test_laplacian_nullity_counts_components():
    rng = random.Random(19)
    for _ in range(15):
        g = random_graph(rng.randrange(2, 8), 0.3, rng)
        nullity = eigen_multiplicity(laplacian_matrix(g), 0)
        assert nullity == components(g).size


def test_twin_report_k4():
    report = twin_spectral_report(K4)
    assert len(report.classes) == 1
    cls = report.classes[0]
    assert cls.size == 4 and cls.degree == 3
    assert cls.adjacency_multiplicity == 3
    assert cls.laplacian_multiplicity == 3
    assert cls.signless_multiplicity == 3
    assert cls.eigenvector_verified and report.all_pass


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
            assert matvec(adjacency_matrix(big), x) == [-v for v in x]


def test_quotient_degree_variant_fails_on_triangle_merge():
    phi = VertexMap(4, 2, (0, 0, 0, 1))
    alt = quotient_degree_eigenvalues(K4, complete_graph(2), phi, 0)
    assert alt["quotient_degree"] == 1 and alt["fibre_size"] == 3
    # s+1 = 2 is not a Laplacian eigenvalue of K4 at all
    assert alt["laplacian_multiplicity"] == 0


def test_twin_report_computes_each_rank_once(monkeypatch):
    g, _ = blow_up(cycle_graph(6), [2, 2, 2, 3, 2, 2])
    ranks = []
    real_rank = spectral.integer_rank
    monkeypatch.setattr(spectral, "integer_rank",
                        lambda m: ranks.append(len(m)) or real_rank(m))
    report = twin_spectral_report(g)
    monkeypatch.undo()
    degrees = {c.degree for c in report.classes}
    assert len(report.classes) == 6 and len(degrees) == 2
    # A at -1 once, then L and Q once per distinct class degree
    assert len(ranks) == 1 + 2 * len(degrees)
    a, lap, q = (adjacency_matrix(g), laplacian_matrix(g),
                 signless_laplacian_matrix(g))
    for c in report.classes:
        assert c.adjacency_multiplicity == eigen_multiplicity(a, -1)
        assert c.laplacian_multiplicity == eigen_multiplicity(lap,
                                                              c.degree + 1)
        assert c.signless_multiplicity == eigen_multiplicity(q, c.degree - 1)
    assert report.all_pass
