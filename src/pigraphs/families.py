"""Constructors for the example semigroup families.

All constructors emit validated :class:`Semigroup` values with structured
element data attached, which the verification suites read to recount
claims without the Cayley table.  IS_n and Brandt store no table: theirs
is a :class:`_Products` view, a product computed when read.  Every
table is associative by construction and skips the associativity check
(``checked=False``).
"""

from dataclasses import dataclass
from math import comb, factorial

from .errors import NotABijection, NotAGroup, SizeLimitExceeded
from .graphs import subset_label
from .semigroups import Semigroup, _Products

ISN_MAX = 6
SEMILATTICE_MAX = 5


@dataclass(frozen=True)
class PartialBijection:
    """A partial injective map on {0..n-1}.

    ``mapping[i]`` is the image of ``i`` or ``None`` when ``i`` is outside
    the domain.  :func:`all_partial_bijections` extends each prefix by
    ``None``, then by each unused image in increasing order, so it lists
    the mappings lexicographically with undefined first.
    """

    n: int
    mapping: tuple

    def __post_init__(self):
        defined = [v for v in self.mapping if v is not None]
        if len(set(defined)) != len(defined):
            raise NotABijection(f"mapping {self.mapping} is not injective")

    def domain_mask(self) -> int:
        return sum(1 << i for i, v in enumerate(self.mapping) if v is not None)

    def image_mask(self) -> int:
        return sum(1 << v for v in self.mapping if v is not None)

    def rank(self) -> int:
        return sum(1 for v in self.mapping if v is not None)

    def compose(self, other: "PartialBijection") -> "PartialBijection":
        """Left-to-right composition: apply self first, then other."""
        out = tuple(
            other.mapping[v] if v is not None else None for v in self.mapping
        )
        return PartialBijection(self.n, out)

    def inverse(self) -> "PartialBijection":
        out = [None] * self.n
        for i, v in enumerate(self.mapping):
            if v is not None:
                out[v] = i
        return PartialBijection(self.n, tuple(out))

    def label(self) -> str:
        pairs = [f"{i}>{v}" for i, v in enumerate(self.mapping) if v is not None]
        return "(" + ",".join(pairs) + ")" if pairs else "empty"


def all_partial_bijections(n: int) -> list:
    """All partial bijections on {0..n-1}, the empty map first."""
    prefixes = [()]
    for _ in range(n):
        prefixes = [p + (v,) for p in prefixes
                    for v in (None, *(u for u in range(n) if u not in p))]
    return [PartialBijection(n, p) for p in prefixes]


def partial_bijection_count(n: int) -> int:
    """Closed-form count sum C(n,k)^2 * k!, used as the enumeration oracle."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


# the order of IS_5, which bounds the Brandt, cyclic and left zero orders
FAMILY_MAX_ORDER = partial_bijection_count(5)


def symmetric_inverse(n: int) -> Semigroup:
    """The symmetric inverse semigroup of all partial bijections on n points.

    Its table composes the mappings x first; the view's walk proves that
    the n-cycle, the transposition (0 1) and the partial identity on
    {1..n-1} generate IS_n (Gomes and Howie 1987), and they become its
    ``gens``.
    """
    if not 1 <= n <= ISN_MAX:
        raise SizeLimitExceeded(f"symmetric_inverse supports 1 <= n <= {ISN_MAX}")
    elems = all_partial_bijections(n)
    table = _Products(
        [p.mapping for p in elems],
        lambda x, y: tuple(None if v is None else y[v] for v in x),
        [tuple((i + 1) % n for i in range(n)),
         (1, 0, *range(2, n)) if n > 1 else (0,), (None, *range(1, n))])
    return Semigroup(table, tuple(p.label() for p in elems), "isn",
                     elements=tuple(elems))


def _check_group(g: Semigroup):
    # in a finite monoid a right inverse is two-sided (x*y = e => y*x = e)
    if g.identity is None:
        raise NotAGroup("group parameter has no identity")
    for x, row in enumerate(g.table):
        if g.identity not in row:
            raise NotAGroup(f"element {x} has no group inverse")


def brandt(g: Semigroup, r: int) -> Semigroup:
    """Brandt semigroup over group ``g`` with ``r`` indices.

    Elements are the triples (i, a, j) in lexicographic order, then the
    zero; (i,a,j)(k,b,l) is (i, a*b, l) when j = k and zero otherwise.
    The view's walk proves it generated by the (0,a,0), the shifts
    (i,e,i+1) and (i+1,e,i) with e the identity, as (i,e,0)(0,a,0)(0,e,j)
    = (i,a,j), and the zero for r = 1; for r > 1 it is (0,e,1)(0,e,1).
    """
    if r < 1:
        raise SizeLimitExceeded("index count must be positive")
    order = r * r * g.order + 1
    if order > FAMILY_MAX_ORDER:
        raise SizeLimitExceeded(
            f"Brandt order {order} exceeds {FAMILY_MAX_ORDER}")
    _check_group(g)
    triples = [(i, a, j) for i in range(r) for a in range(g.order)
               for j in range(r)]
    e = g.identity
    table = _Products(
        triples + [None],
        lambda x, y: None if x is None or y is None or x[2] != y[0]
        else (x[0], g.table[x[1]][y[1]], y[2]),
        [(0, a, 0) for a in range(g.order)]
        + [t for i in range(r - 1) for t in ((i, e, i + 1), (i + 1, e, i))]
        + [None] * (r == 1))
    labels = tuple(f"({i},{g.label(a)},{j})" for i, a, j in triples) + ("0",)
    return Semigroup(table, labels, "brandt",
                     elements=tuple(triples) + (None,))


def subset_meet_semilattice(n: int) -> Semigroup:
    """All subsets of an n-set under intersection; element i is bitmask i."""
    if not 1 <= n <= SEMILATTICE_MAX:
        raise SizeLimitExceeded(
            f"subset_meet_semilattice supports 1 <= n <= {SEMILATTICE_MAX}")
    size = 1 << n
    table = tuple(tuple(x & y for y in range(size)) for x in range(size))
    labels = tuple(subset_label(m) for m in range(size))
    return Semigroup(table, labels, "semilattice",
                     elements=tuple(range(size)))


def cyclic_group(m: int) -> Semigroup:
    """Addition modulo m."""
    if not 1 <= m <= FAMILY_MAX_ORDER:
        raise SizeLimitExceeded(
            f"group order must be in [1, {FAMILY_MAX_ORDER}]")
    table = tuple(tuple((x + y) % m for y in range(m)) for x in range(m))
    return Semigroup(table, tuple(str(x) for x in range(m)), "cyclic")


def left_zero(n: int) -> Semigroup:
    """The left zero semigroup: x*y = x."""
    if not 1 <= n <= FAMILY_MAX_ORDER:
        raise SizeLimitExceeded(f"order must be in [1, {FAMILY_MAX_ORDER}]")
    table = tuple(tuple(x for _ in range(n)) for x in range(n))
    return Semigroup(table, tuple(f"a{x}" for x in range(n)), "leftzero")
