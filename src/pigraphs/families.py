"""Constructors for the example semigroup families.

All constructors emit validated :class:`Semigroup` values.  IS_n, Brandt
and the semilattice attach element data for the suites' recounts: tuples
of images (``None`` where undefined), triples and subset masks.  IS_n
and Brandt list no elements and store no table: each passes its product,
its generators and a sort key to a :class:`_Products` view, whose walk
discovers the elements, one product per element and generator, and
reads every other entry off that walk.  Every table is
associative by construction and skips the associativity check
(``checked=False``).
"""

from math import comb, factorial

from .errors import NotAGroup, SizeLimitExceeded
from .graphs import subset_label
from .semigroups import Semigroup, _Products

ISN_MAX = 6
SEMILATTICE_MAX = 5


def compose(x: tuple, y: tuple) -> tuple:
    """The partial map that applies x first, then y."""
    return tuple([None if v is None else y[v] for v in x])


def domain_mask(m: tuple) -> int:
    """The points where the partial map m is defined, as a bitmask."""
    return sum(1 << i for i, v in enumerate(m) if v is not None)


def image_mask(m: tuple) -> int:
    """The values of the partial map m, as a bitmask."""
    return sum(1 << v for v in set(m) if v is not None)


def rank(m: tuple) -> int:
    """How many points m is defined on: its rank when it is injective."""
    return len(m) - m.count(None)


def label(m: tuple) -> str:
    """m as its defined pairs ``(i>v,...)``, or ``empty``."""
    pairs = ",".join([f"{i}>{v}" for i, v in enumerate(m) if v is not None])
    return f"({pairs})" if pairs else "empty"


def partial_bijection_count(n: int) -> int:
    """Closed-form count sum C(n,k)^2 * k!, the oracle for IS_n's order."""
    return sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))


# the order of IS_5, which bounds the Brandt, cyclic and left zero orders
FAMILY_MAX_ORDER = partial_bijection_count(5)


def symmetric_inverse(n: int) -> Semigroup:
    """The symmetric inverse semigroup of all partial bijections on n points.

    The view's walk discovers them from its ``gens``, the n-cycle, the
    transposition (0 1) and the partial identity on {1..n-1} (Gomes and
    Howie 1987), composing the mappings x first, and sorts them with
    undefined points first, then by image.
    """
    if not 1 <= n <= ISN_MAX:
        raise SizeLimitExceeded(f"symmetric_inverse supports 1 <= n <= {ISN_MAX}")
    table = _Products(compose, [tuple((i + 1) % n for i in range(n)),
                                (1, 0, *range(2, n)) if n > 1 else (0,),
                                (None, *range(1, n))],
                      lambda x: tuple([-1 if v is None else v for v in x]))
    return Semigroup(table, tuple(map(label, table.elements)), "isn",
                     elements=table.elements)


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
    The view's walk discovers them from the (0,a,0), the shifts
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
    e = g.identity
    table = _Products(
        lambda x, y: None if x is None or y is None or x[2] != y[0]
        else (x[0], g.table[x[1]][y[1]], y[2]),
        [(0, a, 0) for a in range(g.order)]
        + [t for i in range(r - 1) for t in ((i, e, i + 1), (i + 1, e, i))]
        + [None] * (r == 1),
        lambda x: (x is None, x or ()))
    labels = tuple(f"({i},{g.label(a)},{j})"
                   for i, a, j in table.elements[:-1]) + ("0",)
    return Semigroup(table, labels, "brandt", elements=table.elements)


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
