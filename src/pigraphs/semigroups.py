"""Finite semigroups represented by Cayley tables.

The table convention is row-times-column: ``table[x][y]`` is the product
``x*y``.  All structural queries (zero, identity, ideals, idempotents,
inverses) work off the table alone, so any associative table is accepted
regardless of how it was produced.
"""

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, count
from operator import itemgetter, ne

from .errors import AssociativityViolation, IndexOutOfRange, \
    MalformedDocument, NotABijection, SizeMismatch
from .graphs import _check_labels


@dataclass(frozen=True)
class Semigroup:
    """An immutable finite semigroup given by its Cayley table.

    The fields are the inputs only.  ``checked`` records whether
    associativity was verified exhaustively (family constructors that are
    associative by construction skip it).  ``elements`` optionally carries
    structured element values (partial bijections, Brandt triples, subset
    masks) for the suites' recounts; it does not take part in equality and
    is not serialized.  Everything the table determines (order, zero,
    identity, principal ideals, inverse map) is a cached attribute, so it
    is computed once per semigroup and cannot disagree with the table.
    The constructor trusts its square tuple table; ``from_cayley_table``
    validates any other.
    """

    table: tuple
    labels: tuple | None = None
    family: str | None = None
    checked: bool = field(default=False, compare=False)
    elements: tuple | None = field(default=None, compare=False)

    def label(self, x: int) -> str:
        return self.labels[x] if self.labels is not None else str(x)

    @cached_property
    def order(self) -> int:
        return len(self.table)

    @cached_property
    def zero(self) -> int | None:
        return _two_sided(self.table, lambda x, y: x)

    @cached_property
    def identity(self) -> int | None:
        return _two_sided(self.table, lambda x, y: y)

    @cached_property
    def left_ideals(self) -> tuple:
        """Every principal left ideal, each read off its column."""
        return _ideals(zip(*self.table))

    @cached_property
    def right_ideals(self) -> tuple:
        """Every principal right ideal, each read off its row."""
        return _ideals(self.table)

    @cached_property
    def inverses(self) -> tuple | None:
        """The inverse map of an inverse semigroup, or ``None``.

        ``inv[x]`` satisfies ``x*inv[x]*x = x`` and
        ``inv[x]*x*inv[x] = inv[x]`` when every element has exactly one
        such partner; otherwise the semigroup is not inverse.
        """
        t = self.table
        inv = []
        for x, (row, col) in enumerate(zip(t, zip(*t))):
            # col read at row holds x*y*x at y; index() finds each x*y*x = x
            xyx, found, y = _gather(row)(col), None, -1
            for _ in range(xyx.count(x)):
                y = xyx.index(x, y + 1)
                if t[t[y][x]][y] == y:
                    if found is not None:
                        return None
                    found = y
            if found is None:
                return None
            inv.append(found)
        return tuple(inv)


def _ideals(lines) -> tuple:
    """Bit-set (a Python int) of each line b's products together with b.

    An earlier r among b's products has S1r inside S1b, so S1r = S1b when
    the two have the same size (Howie 1995, section 2.1): line b reuses
    the mask of the first line of such an ideal, and only each distinct
    ideal is summed into a mask.
    """
    masks, firsts = [], {}
    for b, line in enumerate(lines):
        products = {b, *line}
        same = firsts.setdefault(len(products), {})
        small, large = sorted((same, products), key=len)
        mask = next((same[r] for r in small if r in large), None)
        if mask is None:
            mask = same[b] = sum(map((1).__lshift__, products))
        masks.append(mask)
    return tuple(masks)


def _check_entries(table):
    n = len(table)
    valid = set(range(n))
    for row in table:
        if len(row) != n:
            raise IndexOutOfRange("table is not square")
        # type(v) is int also turns away bools, a subclass of int; the
        # entry loop only runs to name the first bad entry of a bad row
        if set(map(type, row)) == {int} and valid.issuperset(row):
            continue
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise IndexOutOfRange(f"table entry {v!r} not in [0, {n})")


def _check_associativity(table):
    """For each x, (x*y)*z over all (y, z) is the rows x*y end to end and
    x*(y*z) is the whole table mapped through row x (bytes up to order
    256, tuples above); the first differing (y, z) is the witness."""
    n = len(table)
    if n <= 256:
        rows, join, pad = [bytes(r) for r in table], b"".join, bytes(256 - n)
        flat = join(rows)
        rights = (flat.translate(row + pad) for row in rows)
    else:
        rows, join = table, lambda rs: tuple(chain.from_iterable(rs))
        rights = map(itemgetter(*join(rows)), rows)
    for x, right in enumerate(rights):
        left = join(map(rows.__getitem__, table[x]))
        if left != right:
            i = next(compress(count(), map(ne, left, right)))
            raise AssociativityViolation(x, *divmod(i, n))


def _two_sided(table, value):
    """The first x with x*y = y*x = value(x, y) for every y, or None."""
    n = len(table)
    for x in range(n):
        if all(table[x][y] == value(x, y) == table[y][x] for y in range(n)):
            return x
    return None


def from_cayley_table(table, labels=None, *, unchecked=False,
                      family=None) -> Semigroup:
    """Build a validated :class:`Semigroup` from a square table.

    Raises :class:`AssociativityViolation` with a witness triple unless
    ``unchecked`` is set (reserved for tables too large for the
    exhaustive check).
    """
    table = tuple(tuple(row) for row in table)
    _check_entries(table)
    _check_labels(labels, len(table))
    if not unchecked:
        _check_associativity(table)
    return Semigroup(table, tuple(labels) if labels is not None else None,
                     family, not unchecked)


def _gather(keys):
    """itemgetter(*keys), but returning a tuple for a single key too."""
    return itemgetter(*keys) if len(keys) > 1 else lambda seq: (seq[keys[0]],)


def idempotents(s: Semigroup) -> list:
    """Indices of all elements with e*e = e, ascending."""
    return [e for e in range(s.order) if s.table[e][e] == e]


def check_involution(s: Semigroup, sigma) -> bool:
    """True iff sigma is an involutive anti-automorphism of the table.

    For an involution, sigma(a*b) = sigma(b)*sigma(a) with a = sigma(c)
    says that sigma applied to row a equals column c read in sigma order,
    so the law is checked one whole row against one column at a time.
    """
    if sorted(sigma) != list(range(s.order)):
        raise NotABijection("sigma must permute the element indices")
    if any(sigma[sigma[a]] != a for a in range(s.order)):
        return False
    t, image, in_sigma_order = s.table, tuple(sigma), _gather(sigma)
    return all(_gather(t[sigma[c]])(image) == in_sigma_order(col)
               for c, col in enumerate(zip(*t)))


def adjoin_zero(s: Semigroup) -> Semigroup:
    """Adjoin a fresh two-sided zero as the new last element."""
    n = s.order
    table = tuple(tuple(row) + (n,) for row in s.table) + ((n,) * (n + 1),)
    labels = s.labels
    if labels is not None:
        # the first of "0*", "0**", ... that no element is labelled with
        stars = next(k for k in count(1) if "0" + "*" * k not in labels)
        labels = (*labels, "0" + "*" * stars)
    # adjoining an absorbing element preserves associativity, so the
    # checked status of the input carries over
    return Semigroup(table, labels, s.family, s.checked)


def to_json_dict(s: Semigroup) -> dict:
    """Serialize to the fixed semigroup JSON document shape."""
    doc = {
        "order": s.order,
        "table": [list(row) for row in s.table],
        "labels": list(s.labels) if s.labels is not None else None,
        "zero": s.zero,
        "identity": s.identity,
    }
    if s.family is not None:
        doc["family"] = s.family
    return doc


def from_json_dict(doc: dict) -> Semigroup:
    """Rebuild a semigroup from its JSON document, checking associativity
    exhaustively up to order 256 and trusting larger tables.  An `order`
    field is optional but must match the table when present."""
    if not isinstance(doc, dict):
        raise MalformedDocument("a semigroup document must be a JSON object")
    if "table" not in doc:
        raise MalformedDocument("semigroup document has no 'table' field")
    table = doc["table"]
    if not (isinstance(table, (list, tuple))
            and all(isinstance(row, (list, tuple)) for row in table)):
        raise MalformedDocument("table must be a list of rows")
    if "order" in doc:
        order = doc["order"]
        if type(order) is not int:
            raise MalformedDocument("'order' must be an integer")
        if order != len(table):
            raise SizeMismatch(
                f"'order' is {order} but the table has {len(table)} rows")
    family = doc.get("family")
    if not (family is None or isinstance(family, str)):
        raise MalformedDocument("family must be a string or null")
    return from_cayley_table(
        table,
        doc.get("labels"),
        unchecked=len(table) > 256,
        family=family,
    )
