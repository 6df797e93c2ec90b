"""Exact integer linear algebra for twin-class eigenvalue checks.

Matrices are nested lists of Python ints.  Rank is computed by
fraction-free (Bareiss) elimination, so eigenvalue multiplicities at
integer points come out exact with no floating point anywhere.
"""

from dataclasses import dataclass

from .errors import NotSymmetric
from .graphs import Graph
from .skeletal import VertexMap, twin_partition


def graph_matrix(g: Graph, kind: str) -> list:
    """The adjacency (kind "A"), Laplacian ("L") or signless Laplacian
    ("Q") matrix of g; L and Q carry the vertex degrees on the diagonal."""
    sign = {"A": 1, "L": -1, "Q": 1}[kind]
    m = [[sign * (row >> v & 1) for v in range(g.order)] for row in g.adj]
    if kind != "A":
        for u, row in enumerate(m):
            row[u] = g.degree(u)
    return m


def integer_rank(m: list) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination."""
    a = [list(row) for row in m]
    n = len(a)
    if n == 0:
        return 0
    width = len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(width):
        pivot_row = next((r for r in range(row, n) if a[r][col]), None)
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        pivot = a[row][col]
        for r in range(row + 1, n):
            factor = a[r][col]
            for c in range(col + 1, width):
                a[r][c] = (a[r][c] * pivot - factor * a[row][c]) // prev
            a[r][col] = 0
        prev = pivot
        rank += 1
        row += 1
        if row == n:
            break
    return rank


def _is_symmetric(m: list) -> bool:
    n = len(m)
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def eigen_multiplicity(m: list, lam: int) -> int:
    """Multiplicity of an integer eigenvalue of a symmetric matrix.

    For symmetric matrices the geometric nullity of m - lam*I equals the
    algebraic multiplicity, so a single exact rank suffices.
    """
    if not _is_symmetric(m):
        raise NotSymmetric("eigen_multiplicity requires a symmetric matrix")
    n = len(m)
    shifted = [[m[i][j] - (lam if i == j else 0) for j in range(n)]
               for i in range(n)]
    return n - integer_rank(shifted)


def matvec(m: list, x: list) -> list:
    return [sum(mij * xj for mij, xj in zip(row, x)) for row in m]


@dataclass(frozen=True)
class TwinClassSpectral:
    """Exact eigenvalue evidence for one closed-twin class."""

    vertices: tuple
    size: int
    degree: int
    adjacency_multiplicity: int
    laplacian_multiplicity: int
    signless_multiplicity: int
    eigenvector_verified: bool

    @property
    def passed(self) -> bool:
        need = self.size - 1
        return (self.adjacency_multiplicity >= need
                and self.laplacian_multiplicity >= need
                and self.signless_multiplicity >= need
                and self.eigenvector_verified)


@dataclass(frozen=True)
class TwinSpectralReport:
    classes: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.classes)


def twin_spectral_report(g: Graph) -> TwinSpectralReport:
    """For each twin class of size k and common degree d, certify that
    -1, d+1 and d-1 are eigenvalues of A, L and Q with multiplicity at
    least k-1, plus one exact eigenvector check per class."""
    entries = []
    classes = [c for c in twin_partition(g).classes if len(c) >= 2]
    if not classes:
        return TwinSpectralReport(())
    a, lap, q = (graph_matrix(g, kind) for kind in "ALQ")
    degrees = {g.degree(c[0]) for c in classes}
    a_mult = eigen_multiplicity(a, -1)
    l_mult = {d: eigen_multiplicity(lap, d + 1) for d in degrees}
    q_mult = {d: eigen_multiplicity(q, d - 1) for d in degrees}
    for cls in classes:
        d = g.degree(cls[0])
        # the difference of indicator vectors of two closed twins
        x = [0] * g.order
        x[cls[0]], x[cls[1]] = 1, -1
        vec_ok = (matvec(a, x) == [-v for v in x]
                  and matvec(lap, x) == [(d + 1) * v for v in x]
                  and matvec(q, x) == [(d - 1) * v for v in x])
        entries.append(TwinClassSpectral(
            vertices=tuple(cls),
            size=len(cls),
            degree=d,
            adjacency_multiplicity=a_mult,
            laplacian_multiplicity=l_mult[d],
            signless_multiplicity=q_mult[d],
            eigenvector_verified=vec_ok,
        ))
    return TwinSpectralReport(tuple(entries))


def quotient_degree_eigenvalues(g: Graph, h: Graph, phi: VertexMap,
                                v: int) -> dict:
    """Evaluate the alternative constants s+1 / s-1 with s the degree of
    v in the quotient graph; returns their exact multiplicities so the
    caller can see where that variant fails."""
    s = h.degree(v)
    k = len(phi.fibre(v))
    return {
        "quotient_degree": s,
        "fibre_size": k,
        "laplacian_multiplicity": eigen_multiplicity(graph_matrix(g, "L"),
                                                     s + 1),
        "signless_multiplicity": eigen_multiplicity(graph_matrix(g, "Q"),
                                                    s - 1),
    }
