"""Exact integer linear algebra for twin-class eigenvalue checks.

Matrices are nested lists of Python ints.  Rank is computed by
fraction-free (Bareiss) elimination, so eigenvalue multiplicities at
integer points come out exact with no floating point anywhere.

The twin report takes only m x m forms, on the equitable quotient by its m
twin classes (Godsil & Royle, Algebraic Graph Theory, 2001, section 9.3);
it first proves each form nonsingular modulo 127 and runs Bareiss only where
that proof fails.  verify.suite_spectral recounts it with n x n ranks.
"""

from dataclasses import dataclass
from functools import cache

from .errors import NotSymmetric, SizeMismatch
from .graphs import Graph
from .skeletal import max_skeletal


def graph_matrix(g: Graph, kind: str) -> list:
    """The adjacency (kind "A"), Laplacian ("L") or signless Laplacian
    ("Q") matrix of g; L and Q carry the vertex degrees on the diagonal."""
    sign = {"A": 1, "L": -1, "Q": 1}[kind]
    m = [[sign * (row >> v & 1) for v in range(g.order)] for row in g.adj]
    if kind != "A":
        for u, row in enumerate(m):
            row[u] = g.degree(u)
    return m


_P = 127  # a prime below 128: two residues sum below 256, within a byte
_MOD = bytes(v % _P for v in range(256))


@cache
def _times(c: int) -> bytes:
    """The bytes.translate table y -> c*y mod 127."""
    return bytes(c * y % _P for y in range(256))


def _nonsingular_mod_p(m: list) -> bool:
    """True when det(m) is nonzero modulo 127, which proves the square m
    nonsingular over Q; False proves nothing.  Rows are bytes of residues,
    so a row plus a multiple of the pivot row is one big-int sum with no
    carry between bytes, and _MOD reduces each byte again."""
    n = len(m)
    rows = [bytes(x % _P for x in row) for row in m]
    for col in range(n):
        i = next((i for i, r in enumerate(rows) if r[col]), None)
        if i is None:
            return False
        top = rows.pop(i)
        top = top.translate(_times(pow(top[col], -1, _P)))
        rows = [(int.from_bytes(r, "big") + int.from_bytes(
                    top.translate(_times(_P - r[col])), "big")
                 ).to_bytes(n, "big").translate(_MOD) if r[col] else r
                for r in rows]
    return True


def integer_rank(m: list) -> int:
    """Rank over the rationals via fraction-free Bareiss elimination: the
    n x n recount, and the twin report's fallback where the proof fails."""
    a = [list(row) for row in m]
    n = len(a)
    if len({len(row) for row in a}) > 1:
        raise SizeMismatch("integer_rank needs rows of equal length")
    width = len(a[0]) if a else 0
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
    return all(len(row) == n for row in m) and all(
        m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


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


@dataclass(frozen=True)
class TwinClassSpectral:
    """Exact eigenvalue evidence for one closed-twin class."""

    vertices: tuple
    size: int
    degree: int
    adjacency_multiplicity: int
    laplacian_multiplicity: int
    signless_multiplicity: int

    @property
    def passed(self) -> bool:
        need = self.size - 1
        return (self.adjacency_multiplicity >= need
                and self.laplacian_multiplicity >= need
                and self.signless_multiplicity >= need)


@dataclass(frozen=True)
class TwinSpectralReport:
    classes: tuple

    @property
    def all_pass(self) -> bool:
        return all(c.passed for c in self.classes)


def twin_spectral_report(g: Graph) -> TwinSpectralReport:
    """For each twin class of size k and common degree d, the exact
    multiplicities of -1, d+1 and d-1 in A, L and Q, each at least k-1.

    Certificate: max_skeletal(g) checks that the twin quotient h is
    skeletal, so the members of class i share one closed row, the union of
    the classes over i's closed row in h.  So the partition is equitable,
    with quotient B[i][j] = k_j for classes adjacent in h and k_i - 1 on
    the diagonal, and each twin difference e_u - e_w is an eigenvector.
    Then mult_M(lam) is the nullity of diag(k)(B_M - lam*I), a symmetric
    m x m integer matrix, plus k_i - 1 for each class whose own eigenvalue
    is lam: -1 for A, d_i+1 for L, d_i-1 for Q.  The nullity is 0 if the
    form is proved nonsingular modulo 127, else its Bareiss nullity.
    """
    h, phi = max_skeletal(g)
    blocks = phi.classes
    sizes = [len(c) for c in blocks]
    quotient = [[k - 1 if i == j else sizes[j] * (row >> j & 1)
                 for j in range(h.order)]
                for i, (k, row) in enumerate(zip(sizes, h.adj))]
    degrees = [sum(row) for row in quotient]

    @cache
    def multiplicity(kind, lam):
        # B_A = B, B_L = diag(d) - B, B_Q = diag(d) + B; on the twin
        # differences of class i each acts as diag[i] - sign
        sign = -1 if kind == "L" else 1
        diag = [0] * len(blocks) if kind == "A" else degrees
        form = [[k * (sign * b + (diag[i] - lam if i == j else 0))
                 for j, b in enumerate(row)]
                for i, (k, row) in enumerate(zip(sizes, quotient))]
        twins = sum(k - 1 for k, d in zip(sizes, diag) if d - sign == lam)
        nullity = (0 if _nonsingular_mod_p(form)
                   else len(form) - integer_rank(form))
        return nullity + twins

    return TwinSpectralReport(tuple(
        TwinClassSpectral(
            vertices=cls,
            size=len(cls),
            degree=d,
            adjacency_multiplicity=multiplicity("A", -1),
            laplacian_multiplicity=multiplicity("L", d + 1),
            signless_multiplicity=multiplicity("Q", d - 1),
        )
        for cls, d in zip(blocks, degrees) if len(cls) >= 2))
