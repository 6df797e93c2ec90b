"""Constructors for the example semigroup families.

All constructors emit validated :class:`Semigroup` values with structured
element data attached, which the verification suites read to recount
claims without the Cayley table.  Tables built here are
associative by construction and skip the cubic check (``checked=False``).
"""

from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb, factorial
from operator import itemgetter

from .errors import NotABijection, NotAGroup, SizeLimitExceeded
from .graphs import subset_label
from .semigroups import Semigroup

ISN_MAX = 5
SEMILATTICE_MAX = 5


@dataclass(frozen=True, order=True)
class PartialBijection:
    """A partial injective map on {0..n-1}.

    ``mapping[i]`` is the image of ``i`` or ``None`` when ``i`` is outside
    the domain.  Ordering is lexicographic on the mapping with undefined
    sorting first, which puts the empty map at index 0 of the enumeration.
    """

    n: int
    mapping: tuple

    def __post_init__(self):
        defined = [v for v in self.mapping if v is not None]
        if len(set(defined)) != len(defined):
            raise NotABijection(f"mapping {self.mapping} is not injective")

    @property
    def sort_key(self):
        return tuple(-1 if v is None else v for v in self.mapping)

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
    """All partial bijections on {0..n-1}, in canonical sorted order."""
    out = []
    ground = range(n)
    for k in range(n + 1):
        for dom in combinations(ground, k):
            for img in permutations(ground, k):
                mapping = [None] * n
                for i, v in zip(dom, img):
                    mapping[i] = v
                out.append(PartialBijection(n, tuple(mapping)))
    out.sort(key=lambda p: p.sort_key)
    return out


def partial_bijection_count(n: int) -> int:
    """Closed-form count sum C(n,k)^2 * k!, used as the enumeration oracle."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


# no family table is larger than the largest IS_n table
FAMILY_MAX_ORDER = partial_bijection_count(ISN_MAX)


def symmetric_inverse(n: int) -> Semigroup:
    """The symmetric inverse semigroup of all partial bijections on n points.

    Each x is e_D * p, the idempotent on D = dom(x) and then a permutation p
    extending x, so row x is row e_D read at the entries of row p; only the
    2^n idempotent and n! permutation rows are composed entry by entry.
    """
    if not 1 <= n <= ISN_MAX:
        raise SizeLimitExceeded(f"symmetric_inverse supports 1 <= n <= {ISN_MAX}")
    elems = all_partial_bijections(n)
    # Mappings padded with one undefined slot n: x*y (x first) reads y's
    # padded mapping at x's images, with undefined images sent to slot n.
    # The padding also keeps itemgetter's result a tuple when n = 1.
    padded = [p.mapping + (None,) for p in elems]
    index = {m: i for i, m in enumerate(padded)}
    factors = []
    for m in padded:
        free = iter(set(range(n)).difference(m))
        factors.append((
            index[tuple(None if v is None else i for i, v in enumerate(m))],
            index[tuple(next(free) if v is None else v for v in m[:n])
                  + (None,)]))
    rows = [None] * len(padded)
    # composed rows first: x is its own e_D or its own p
    for x in sorted(range(len(padded)), key=lambda x: x not in factors[x]):
        e, p = factors[x]
        if x in (e, p):
            rows[x] = tuple(map(index.__getitem__, map(itemgetter(
                *(n if v is None else v for v in padded[x])), padded)))
        else:
            rows[x] = itemgetter(*rows[p])(rows[e])
    return Semigroup(tuple(rows), tuple(p.label() for p in elems), "isn",
                     elements=tuple(elems))


def _check_group(g: Semigroup):
    if g.identity is None:
        raise NotAGroup("group parameter has no identity")
    e = g.identity
    for x in range(g.order):
        if not any(
            g.table[x][y] == e and g.table[y][x] == e for y in range(g.order)
        ):
            raise NotAGroup(f"element {x} has no group inverse")


def brandt(g: Semigroup, r: int) -> Semigroup:
    """Brandt semigroup over group ``g`` with ``r`` indices.

    Elements are triples (i, a, j) ordered lexicographically, plus a zero
    as the last element.  (i,a,j)(k,b,l) is (i, a*b, l) when j = k and
    zero otherwise.
    """
    if r < 1:
        raise NotAGroup("index count must be positive")
    order = r * r * g.order + 1
    if order > FAMILY_MAX_ORDER:
        raise SizeLimitExceeded(
            f"Brandt order {order} exceeds {FAMILY_MAX_ORDER}")
    _check_group(g)
    triples = [(i, a, j) for i in range(r) for a in range(g.order)
               for j in range(r)]
    index = {t: k for k, t in enumerate(triples)}
    zero = order - 1
    table = []
    for (i, a, j) in triples:
        row = []
        for (k, b, l) in triples:
            row.append(index[(i, g.table[a][b], l)] if j == k else zero)
        row.append(zero)
        table.append(tuple(row))
    table.append((zero,) * order)
    table = tuple(table)
    labels = tuple(
        f"({i},{g.label(a)},{j})" for (i, a, j) in triples
    ) + ("0",)
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
