"""Finite semigroups represented by Cayley tables.

The table convention is row-times-column: ``table[x][y]`` is the product
``x*y``.  Every structural query (zero, identity, ideals, idempotents,
inverses) is determined by the table, so any associative table is
accepted regardless of how it was produced.  A table is a tuple of rows,
or a :class:`_Products` view, which composes element values only in the
walk that discovers them and reads every other entry off that walk; the
ideals of a view are read off its generators' rows and columns alone.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, compress, count, repeat
from operator import itemgetter, ne

from .errors import AssociativityViolation, IndexOutOfRange, \
    MalformedDocument, NotABijection, SizeLimitExceeded, SizeMismatch
from .graphs import GRAPH_MAX_ORDER, _check_labels, _json_list


@dataclass(frozen=True)
class Semigroup:
    """An immutable finite semigroup given by its Cayley table: rows, or
    the :class:`_Products` view of IS_n and Brandt, equal to its rows,
    which reads each entry off its walk along the element's word.

    The fields are the inputs only.  ``checked`` records whether
    associativity was verified, by Light's test (family constructors that
    are associative by construction skip it).  ``elements`` optionally carries
    structured element values (partial maps as tuples, Brandt triples,
    subset masks) for the suites' recounts; it takes no part in equality
    and is not serialized.  Everything the table determines (order, zero,
    identity, idempotents, ideals, inverse map, a generating set) is
    cached on first use, read entry by entry; ``gens`` is the generating
    set the view's walk discovered its elements from, or ``None`` for a
    tuple table.
    The constructor trusts its square table; ``from_cayley_table``
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
    def gens(self) -> tuple | None:
        return getattr(self.table, "gens", None)

    @cached_property
    def idempotents(self) -> tuple:
        """Indices of all elements with e*e = e, ascending."""
        return tuple(e for e in range(self.order) if self.table[e][e] == e)

    @cached_property
    def zero(self) -> int | None:
        return _two_sided(self.table, lambda x, y: x, self.gens)

    @cached_property
    def identity(self) -> int | None:
        return _two_sided(self.table, lambda x, y: y, self.gens)

    @cached_property
    def left_ideals(self) -> tuple:
        """Each principal left ideal: x's reach along x -> g*x, or column x."""
        if self.gens is None:
            return _ideals(zip(*self.table))
        return _reach(self.table.left)

    @cached_property
    def right_ideals(self) -> tuple:
        """Each principal right ideal: x's reach along x -> x*g, or row x."""
        if self.gens is None:
            return _ideals(self.table)
        return _reach(self.table.right)

    @cached_property
    def inverses(self) -> tuple | None:
        """The inverse map of an inverse semigroup, or ``None``.

        A semigroup is inverse iff it is regular and its idempotents
        commute (Howie 1995, Thm 5.1.1 (ii)), so ``None`` comes back at
        the first idempotents e < f with e*f != f*e, or at an x with no
        inverse.  inv[x] is the first y with x*y in F = {idempotent f :
        f*x = x} and y*x*y = y: then x*y*x = f*x = x, and once the
        idempotents commute an inverse is unique.  With ``gens`` only
        generators are searched, and inv[x*g] = inv[g]*inv[x] along the
        view's walk.  Every x is then recounted: inv is an involution and
        x*inv[x]*x = x, which at inv[x] is the second law, so each x is
        regular.  No ideal is read.  Like the ideal masks, this assumes
        associativity.
        """
        t, idem = self.table, self.idempotents
        rows = [t[e] for e in idem]
        if any(a[f] != b[e] for (e, a), (f, b)
               in combinations(zip(idem, rows), 2)):
            return None
        inv = [None] * self.order
        for x, step in (dict.fromkeys(range(self.order)) if self.gens is None
                        else t.steps).items():
            if step is not None:
                inv[x] = t[inv[step[1]]][inv[step[0]]]
                continue
            fixes = {f for f, a in zip(idem, rows) if a[x] == x}
            row = t[x]
            inv[x] = next((y for y in compress(count(), map(
                fixes.__contains__, row)) if t[y][row[y]] == y), None)
            if inv[x] is None:
                return None
        if any(inv[y] != x or t[t[x][y]][x] != x for x, y in enumerate(inv)):
            return None
        return tuple(inv)

    @cached_property
    def generators(self) -> tuple:
        """``gens``, or else ``_generating_set`` of the elements taken
        largest principal left ideal first."""
        if self.gens is not None:
            return self.gens
        left = self.left_ideals
        return _generating_set(self.table, sorted(
            range(self.order), key=lambda x: -left[x].bit_count()))


def _generating_set(table, candidates) -> tuple:
    """Each candidate not yet reached becomes a generator, and the reached
    set is kept closed under right multiplication by the generators.  So
    it is their left-normed products, associative or not, and it ends as
    the whole table."""
    reached, gens = set(), []
    for g in candidates:
        if g in reached:
            continue
        gens.append(g)
        times_gens = _gather(gens)
        # the reached times g, down column g; only new elements are walked
        fresh = {g, *map(itemgetter(g), map(table.__getitem__, reached))}
        fresh -= reached
        while fresh:
            z = fresh.pop()
            if z not in reached:
                reached.add(z)
                fresh.update(times_gens(table[z]))
    return tuple(gens)


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


def _reach(succ) -> tuple:
    """Bit-set of all that each x reaches along x -> succ[x], x included.

    With succ[x] the products g*x (x*g) over generators g, that is S1x
    (xS1) and the strongly connected components are the L- (R-) classes
    (Froidure and Pin 1997).  An iterative Tarjan search, from a root n
    with an edge to every x, closes them in reverse topological order, so
    a component's mask is its members' bits and the masks their edges
    reach: |gens|*n edges, not _ideals' n^2 products.  IS_n and Brandt
    views keep x*g and g*x.  Documents, adjoin_zero results and the
    semilattice, cyclic and left zero tables keep _ideals: ``generators``
    sorts by the left ideals, and a set read off the table costs more than
    it saves (0.34 + 1.19 s against 0.31 s on a 1,546-chain).
    """
    n = len(succ)
    succ = (*succ, range(n))
    number, low, masks = [0] * n + [1], [0] * n + [1], [0] * (n + 1)
    counter, stack, path = count(2), [n], [(n, iter(succ[n]))]
    while path:
        x, edges = path[-1]
        for y in edges:
            if not number[y]:
                number[y] = low[y] = next(counter)
                stack.append(y)
                path.append((y, iter(succ[y])))
                break
            if not masks[y]:  # y is on the stack
                low[x] = min(low[x], number[y])
        else:
            path.pop()
            if path:
                low[path[-1][0]] = min(low[path[-1][0]], low[x])
            if low[x] == number[x]:
                members = stack[stack.index(x):]
                del stack[-len(members):]
                mask = sum(map((1).__lshift__, members))
                for y in chain.from_iterable(map(succ.__getitem__, members)):
                    mask |= masks[y]
                for m in members:
                    masks[m] = mask
    return tuple(masks[:n])


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
    """Light's test (Clifford and Preston 1961, section 1.2): the a with
    (x*a)*z = x*(a*z) for all x, z are closed under products, so the table
    is associative once a generating set's a all pass.  Only a failure
    runs every middle, to name the lexicographically first witness."""
    every = range(len(table))
    if _first_violation(table, _generating_set(table, every)):
        raise AssociativityViolation(*_first_violation(table, every))


def _first_violation(table, middles):
    """The first (x, a, z) with a in ``middles`` and (x*a)*z != x*(a*z),
    or None.  For each x, the (x*a)*z are the rows x*a end to end and the
    x*(a*z) the rows of ``middles`` end to end mapped through row x
    (bytes up to order 256, tuples above)."""
    n, take = len(table), _gather(middles)
    if n <= 256:
        rows, join, pad = [bytes(r) for r in table], b"".join, bytes(256 - n)
        flat = join(map(rows.__getitem__, middles))
        rights = (flat.translate(row + pad) for row in rows)
    else:
        rows, join = table, lambda rs: tuple(chain.from_iterable(rs))
        rights = map(itemgetter(*join(map(rows.__getitem__, middles))), rows)
    for x, right in enumerate(rights):
        left = join(map(rows.__getitem__, take(table[x])))
        if left != right:
            i = next(compress(count(), map(ne, left, right)))
            return x, middles[i // n], i % n
    return None


def _two_sided(table, value, gens):
    """The first x with x*y = y*x = value(x, y) for every y, or None; every
    y in ``gens`` is enough: by associativity their products satisfy it."""
    n = len(table)
    return next((x for x in range(n) if all(
        table[x][y] == value(x, y) == table[y][x]
        for y in (range(n) if gens is None else gens))), None)


def from_cayley_table(table, labels=None, *, unchecked=False,
                      family=None) -> Semigroup:
    """Build a validated :class:`Semigroup` from a square table.

    Raises :class:`AssociativityViolation` with the lexicographically
    first failing triple unless ``unchecked`` is set (reserved for tables
    too large to check).  Light's test reads (x*a)*z = x*(a*z) for the a
    of a generating set only (Clifford and Preston 1961, section 1.2).
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


class _Products:
    """The table of the semigroup that ``gens`` generate under ``product``:
    t[x][y] is the index of product(elements[x], elements[y]).  The walk
    x -> x*g over element values from ``gens`` (each kept once, in the
    order given) discovers the elements, one product per step, and
    numbers each value once, when it first finds it (Froidure and Pin
    1997).  ``elements`` are the values it found, sorted by ``key`` as
    ``sorted`` sorts, and one rank permutation renumbers the walk into
    their indices; no value is composed after the walk.  The view keeps
    right[x], the x*g over ``gens``; ``steps``, each element in walk
    order with the (x, g) that first reached it (None for a generator);
    and ``words``, each element's generator positions along ``steps``, so
    that x*y is x followed by y's word along ``right``.  left[x], the g*x,
    is read off them as g*(x*h) = (g*x)*h, and ``gen_rows``, the generator
    rows that indexing hands out, off left.  Iteration, equality and
    hashing read ``rows``, gathered from those along ``steps`` as
    (x*g)*z = x*(g*z).  Words, like left and rows, assume nothing of
    ``product`` beyond associativity."""

    def __init__(self, product, gens, key):
        gens = tuple(dict.fromkeys(gens))
        k = len(gens)
        # walk ids: each value numbered once, when the walk first finds it
        ids, walk = dict(zip(gens, count())), list(gens)
        steps, right = [None] * k, []
        for x, v in enumerate(walk):
            ys = list(map(product, repeat(v), gens))
            right.append(row := [ids.setdefault(y, len(ids)) for y in ys])
            if len(ids) > len(walk):
                for i, j in enumerate(row):
                    if j == len(walk):
                        walk.append(ys[i])
                        steps.append((x, i))
        words = [(i,) for i in range(k)]
        for x, i in steps[k:]:
            words.append(words[x] + (i,))
        keys = walk if key is None else [*map(key, walk)]
        order = sorted(range(len(walk)), key=keys.__getitem__)
        rank = [0] * len(walk)
        for r, x in enumerate(order):
            rank[x] = r
        self.elements = tuple(map(walk.__getitem__, order))
        self.words = tuple(map(words.__getitem__, order))
        self.gens = gens = tuple(rank[:k])
        # every x*g renumbered by one gather, then cut into rows of |gens|
        flat = iter(_gather([*chain.from_iterable(
            map(right.__getitem__, order))])(rank))
        right = tuple(zip(*[flat] * k))
        steps = {rank[y]: step and (rank[step[0]], gens[step[1]])
                 for y, step in enumerate(steps)}
        times, left = dict(zip(gens, zip(*right))), [None] * len(right)
        for y, step in steps.items():
            x, h = step or (None, y)
            left[y] = _gather(gens if x is None else left[x])(times[h])
        self.right, self.left, self.steps = right, tuple(left), steps
        self.gen_rows = dict(zip(gens, zip(*left)))

    def __len__(self):
        return len(self.elements)

    def __getitem__(self, x):
        return self.gen_rows.get(x) or _Row(self, x)

    def __iter__(self):
        return iter(self.rows)

    def __eq__(self, other):
        return self.rows == other

    def __hash__(self):
        return hash(self.rows)

    @cached_property
    def rows(self) -> tuple:
        if len(self) > GRAPH_MAX_ORDER:
            raise SizeLimitExceeded(f"the table of order {len(self)} is too "
                                    f"large to read whole")
        rows = dict(self.gen_rows)
        for y, step in self.steps.items():
            if step is not None:
                rows[y] = _gather(rows[step[1]])(rows[step[0]])
        return tuple(map(rows.__getitem__, range(len(self))))


class _Row:
    """Row x of a :class:`_Products` table: x*y is x followed by y's word
    along the walk's ``right``, so no entry is a product."""

    def __init__(self, table, x):
        self.x, self.right, self.words = x, table.right, table.words

    def __len__(self):
        return len(self.words)

    def __getitem__(self, y):
        x, right = self.x, self.right
        for i in self.words[y]:
            x = right[x][i]
        return x


def check_involution(s: Semigroup, sigma) -> bool:
    """True iff sigma is an involutive anti-automorphism of the table.

    The bijection and sigma(sigma(a)) = a are checked on every element,
    the law sigma(a*b) = sigma(b)*sigma(a) on the rows a of the
    generating set ``s.generators`` only: by associativity it carries
    from rows a and a' to row a*a', since sigma(a*a'*b) =
    sigma(a'*b)*sigma(a) = sigma(b)*sigma(a')*sigma(a) =
    sigma(b)*sigma(a*a').  Row a is sigma read at row a against column
    sigma(a) read in sigma order.
    """
    if sorted(sigma) != list(range(s.order)):
        raise NotABijection("sigma must permute the element indices")
    if any(sigma[sigma[a]] != a for a in range(s.order)):
        return False
    t, image = s.table, tuple(sigma)
    rows_in_sigma_order = [t[b] for b in sigma]
    return all(_gather(t[a])(image)
               == tuple(map(itemgetter(sigma[a]), rows_in_sigma_order))
               for a in s.generators)


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


def to_json(s: Semigroup) -> str:
    """json.dumps(to_json_dict(s), indent=2) + "\n", written as text."""
    table = _json_list(_json_list(map(str, row), "    ") for row in s.table)
    labels = "null" if s.labels is None else _json_list(
        map(json.encoder.encode_basestring_ascii, s.labels))
    family = "" if s.family is None else \
        f',\n  "family": {json.dumps(s.family)}'
    return (f'{{\n  "order": {s.order},\n  "table": {table},\n'
            f'  "labels": {labels},\n  "zero": {json.dumps(s.zero)},\n'
            f'  "identity": {json.dumps(s.identity)}{family}\n}}\n')


def from_json_dict(doc: dict) -> Semigroup:
    """Rebuild a semigroup from its JSON document, checking associativity
    by Light's test up to order 256.  Larger tables are trusted unchecked,
    although the ideal masks, the inverse search and the involution check
    all assume associativity: a non-associative table above order 256
    gets answers that need not match its products.  Fields `order`, `zero`
    and `identity` are optional but must match the table when present."""
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
    s = from_cayley_table(table, doc.get("labels"),
                          unchecked=len(table) > 256, family=family)
    for field in (f for f in ("zero", "identity") if f in doc):
        given, actual = doc[field], getattr(s, field)
        if type(given) not in (int, type(None)) or given != actual:
            raise MalformedDocument(f"'{field}' is {given!r} but the "
                                    f"table's {field} is {actual!r}")
    return s
