import random
from collections import Counter
from dataclasses import dataclass
from itertools import permutations, product

import pytest
from hypothesis import given, strategies as st

from pigraphs import families
from pigraphs.errors import NotABijection, NotAGroup, SizeLimitExceeded
from pigraphs.semigroups import (_Products, adjoin_zero, check_involution,
                                  from_cayley_table)


@dataclass(frozen=True)
class PartialBijection:
    """The oracle for IS_n's elements: a partial injective map on
    {0..n-1}, with a composition and an inverse of its own, so that the
    tests of the enumeration, the table, the walk and the inverse laws do
    not recount the package with ``families.compose``.

    ``mapping[i]`` is the image of ``i`` or ``None`` when ``i`` is outside
    the domain.
    """

    n: int
    mapping: tuple

    def __post_init__(self):
        defined = [v for v in self.mapping if v is not None]
        if len(set(defined)) != len(defined):
            raise NotABijection(f"mapping {self.mapping} is not injective")

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


def all_partial_bijections(n):
    """The enumeration oracle: all partial bijections on {0..n-1}, each
    prefix extended by None, then by each unused image in increasing
    order, so lexicographic with undefined first."""
    prefixes = [()]
    for _ in range(n):
        prefixes = [p + (v,) for p in prefixes
                    for v in (None, *(u for u in range(n) if u not in p))]
    return [PartialBijection(n, p) for p in prefixes]


def isn_key(mapping):
    """IS_n's element order on mappings: lexicographic, undefined first."""
    return tuple(-1 if v is None else v for v in mapping)


def brandt_key(x):
    """Brandt's element order: the triples lexicographically, zero last."""
    return x is None, x or ()


def partial_bijections(n):
    """Hypothesis strategy for one partial bijection on n points."""
    def build(images):
        used = set()
        mapping = []
        for v in images:
            if v is None or v in used:
                mapping.append(None)
            else:
                mapping.append(v)
                used.add(v)
        return PartialBijection(n, tuple(mapping))
    return st.lists(
        st.one_of(st.none(), st.integers(0, n - 1)),
        min_size=n, max_size=n).map(build)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 7), (3, 34), (4, 209),
                                     (5, 1546)])
def test_enumeration_count(n, count):
    assert len(all_partial_bijections(n)) == count
    assert families.partial_bijection_count(n) == count


def test_enumeration_has_no_duplicates():
    assert all_partial_bijections(0) == [PartialBijection(0, ())]
    for n in range(6):
        elems = all_partial_bijections(n)
        assert len(set(elems)) == len(elems)
        # canonical order: lexicographic on the mapping, undefined first
        keys = [tuple(-1 if v is None else v for v in p.mapping)
                for p in elems]
        assert keys == sorted(keys), n


@given(x=partial_bijections(3), y=partial_bijections(3),
       z=partial_bijections(3))
def test_composition_is_associative(x, y, z):
    assert x.compose(y).compose(z) == x.compose(y.compose(z))


@given(x=partial_bijections(4))
def test_relational_inverse_laws(x):
    inv = x.inverse()
    assert x.compose(inv).compose(x) == x
    assert inv.compose(x).compose(inv) == inv


def test_composition_convention_left_to_right():
    s = families.symmetric_inverse(2)
    inv = s.inverses
    domain, image = families.domain_mask, families.image_mask
    for x, m in enumerate(s.elements):
        # inv(x)*x is the partial identity on image(x)
        left = s.elements[s.table[inv[x]][x]]
        assert domain(left) == image(left) == image(m)
        right = s.elements[s.table[x][inv[x]]]
        assert domain(right) == image(right) == domain(m)


def test_partial_map_functions_hold_for_any_partial_map():
    """compose, the masks, rank and label on every one of the (n+1)^n
    partial maps for n <= 3, injective or not; compose is associative,
    shrinks the domain of x and the image of y, and agrees with the
    oracle's composition on partial bijections."""
    compose, domain, image = (families.compose, families.domain_mask,
                              families.image_mask)

    def points(mask):
        return {v for v in range(mask.bit_length()) if mask >> v & 1}

    for n in range(4):
        maps = list(product((None, *range(n)), repeat=n))
        assert len(maps) == (n + 1) ** n
        for m in maps:
            assert points(domain(m)) == {i for i, v in enumerate(m)
                                         if v is not None}
            assert points(image(m)) == set(m) - {None}
            assert families.rank(m) == domain(m).bit_count()
        labels = list(map(families.label, maps))
        assert len(set(labels)) == len(maps)
        assert [m for m, text in zip(maps, labels) if text == "empty"] == [
            (None,) * n]
        for x in maps:
            for y in maps:
                xy = compose(x, y)
                assert image(xy) & ~image(y) == 0
                assert domain(xy) & ~domain(x) == 0
    maps = list(product((None, 0, 1), repeat=2))
    assert all(compose(compose(x, y), z) == compose(x, compose(y, z))
               for x in maps for y in maps for z in maps)
    rng = random.Random(4)
    maps = list(product((None, *range(4)), repeat=4))
    for _ in range(300):
        x, y, z = rng.choices(maps, k=3)
        assert compose(compose(x, y), z) == compose(x, compose(y, z))
    pbs = all_partial_bijections(3)
    assert all(compose(x.mapping, y.mapping) == x.compose(y).mapping
               for x in pbs for y in pbs)


def test_isn_structure(isn):
    s = isn[3]
    assert s.order == 34
    assert len(s.idempotents) == 8
    inv = s.inverses
    assert inv is not None
    assert check_involution(s, inv)


def test_isn_size_guard():
    with pytest.raises(SizeLimitExceeded):
        families.symmetric_inverse(7)
    with pytest.raises(SizeLimitExceeded):
        families.symmetric_inverse(0)


def test_brandt_c1_2():
    s = families.brandt(families.cyclic_group(1), 2)
    assert s.order == 5 and s.zero == 4
    for a, ta in enumerate(s.elements[:-1]):
        for b, tb in enumerate(s.elements[:-1]):
            if ta[2] == tb[0]:
                assert s.elements[s.table[a][b]] == (ta[0], 0, tb[2])
            else:
                assert s.table[a][b] == s.zero


def test_brandt_c2_2_idempotents():
    s = families.brandt(families.cyclic_group(2), 2)
    assert s.order == 9
    idem = s.idempotents
    expected = {s.zero} | {
        i for i, t in enumerate(s.elements[:-1]) if t == (t[0], 0, t[0])
    }
    assert set(idem) == expected and len(idem) == 3


def test_brandt_distinct_idempotent_products_are_zero():
    s = families.brandt(families.cyclic_group(3), 2)
    idem = [e for e in s.idempotents if e != s.zero]
    assert all(s.table[e][f] == s.zero for e in idem for f in idem if e != f)


def test_brandt_c1_1_is_the_two_chain():
    s = families.brandt(families.cyclic_group(1), 1)
    chain = [[0, 0], [0, 1]]
    # brandt puts the zero last, the chain puts it first
    sigma = [1, 0]
    assert all(sigma[s.table[a][b]] == chain[sigma[a]][sigma[b]]
               for a in range(2) for b in range(2))


def klein_four():
    return from_cayley_table([[x ^ y for y in range(4)] for x in range(4)])


def symmetric_group_3():
    perms = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1),
             (2, 1, 0)]
    # p*q applies p first, then q
    return from_cayley_table(
        [[perms.index(tuple(q[v] for v in p)) for q in perms]
         for p in perms])


@pytest.mark.parametrize("group", [klein_four, symmetric_group_3])
@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_brandt_over_non_cyclic_groups(group, r):
    g = group()
    s = families.brandt(g, r)
    triples = [(i, a, j) for i in range(r) for a in range(g.order)
               for j in range(r)]
    assert s.elements == tuple(triples) + (None,)
    assert s.labels == tuple(f"({i},{a},{j})" for i, a, j in triples) + ("0",)
    assert s.zero == len(triples) and s.order == len(triples) + 1
    for x, (i, a, j) in enumerate(triples):
        for y, (k, b, l) in enumerate(triples):
            expected = (i, g.table[a][b], l) if j == k else None
            assert s.elements[s.table[x][y]] == expected
        assert s.table[x][s.zero] == s.table[s.zero][x] == s.zero


def pairwise_group_witness(g):
    """The first element with no two-sided inverse, by pair search."""
    e = g.identity
    return next(x for x in range(g.order)
                if not any(g.table[x][y] == e == g.table[y][x]
                           for y in range(g.order)))


def test_brandt_rejects_non_groups():
    for g in (from_cayley_table([[0, 0], [0, 1]]),
              adjoin_zero(families.cyclic_group(3)),
              families.subset_meet_semilattice(2)):
        witness = pairwise_group_witness(g)
        with pytest.raises(NotAGroup,
                           match=f"^element {witness} has no group inverse$"):
            families.brandt(g, 2)
    with pytest.raises(NotAGroup, match="^group parameter has no identity$"):
        families.brandt(families.left_zero(2), 2)


@pytest.mark.parametrize("r", [0, -1])
def test_brandt_rejects_non_positive_index_counts(r):
    with pytest.raises(SizeLimitExceeded,
                       match="^index count must be positive$"):
        families.brandt(families.cyclic_group(2), r)


def test_semilattice():
    s = families.subset_meet_semilattice(3)
    assert s.order == 8 and s.zero == 0 and s.identity == 7
    assert s.idempotents == tuple(range(8))
    assert all(s.table[x][y] == s.table[y][x]
               for x in range(8) for y in range(8))
    for n in (0, families.SEMILATTICE_MAX + 1):
        with pytest.raises(SizeLimitExceeded):
            families.subset_meet_semilattice(n)


def test_cyclic_group():
    s = families.cyclic_group(3)
    assert s.identity == 0 and s.zero is None
    assert s.inverses == (0, 2, 1)
    assert families.cyclic_group(1).order == 1


def test_left_zero():
    s = families.left_zero(2)
    assert [list(r) for r in s.table] == [[0, 0], [1, 1]]
    assert s.identity is None and s.zero is None
    assert families.left_zero(1).order == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_inverse_table_matches_composition(n, isn):
    elems = all_partial_bijections(n)
    index = {p: i for i, p in enumerate(elems)}
    reference = tuple(tuple(index[x.compose(y)] for y in elems)
                      for x in elems)
    assert isn[n].table == reference


@pytest.mark.parametrize("n", range(1, families.ISN_MAX + 1))
def test_discovered_isn_elements_match_the_enumeration(n):
    assert families.symmetric_inverse(n).elements == tuple(
        p.mapping for p in all_partial_bijections(n))


def test_the_build_computes_each_x_g_once(monkeypatch):
    # every product the walk computes, through the product it is handed:
    # one per element and generator, |gens| * order
    counter = Counter()

    def counted_products(product, gens, key):
        def counted(x, y):
            counter["products"] += 1
            return product(x, y)
        return _Products(counted, gens, key)

    monkeypatch.setattr(families, "_Products", counted_products)
    for n, want in ((5, 4_638), (6, 39_981)):
        counter.clear()
        s = families.symmetric_inverse(n)
        assert counter["products"] == len(s.gens) * s.order == want


def test_generator_order_and_repeats_change_only_gens():
    # the same generators reversed, one of them twice: the same elements
    # and rows, with gens in the order given and the repeat kept once
    for s, key in ((families.symmetric_inverse(4), isn_key),
                   (families.brandt(families.cyclic_group(3), 3),
                    brandt_key)):
        t = s.table
        given = [t.elements[g] for g in reversed(s.gens)]
        walked = _Products(t.product, given[:2] + given[1:], key)
        assert walked.elements == t.elements and walked == t
        assert walked.gens == s.gens[::-1]


def test_symmetric_inverse_5_rows_match_composition():
    # the whole table, as iteration reads it, composes only the rows of
    # the n-cycle, the transposition (0 1) and the partial identity on
    # {1..4}; every other row is gathered along a breadth-first walk
    # x -> x*g, redone here with compose
    s = families.symmetric_inverse(5)
    elems = [PartialBijection(5, m) for m in s.elements]
    rows = tuple(s.table)
    index = {p.mapping: i for i, p in enumerate(elems)}
    gens = [index[m] for m in ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4),
                               (None, 1, 2, 3, 4))]
    walk, seen = list(gens), set(gens)
    for x in walk:
        for g in gens:
            y = index[elems[x].compose(elems[g]).mapping]
            if y not in seen:
                seen.add(y)
                walk.append(y)
    # the three generate IS_5, so the walk reaches every element; its last
    # rows are gathered from the longest chains of gathers
    assert len(walk) == s.order
    last = walk[-8:]
    rng = random.Random(5)
    gathered = []
    for k in range(6):
        pool = [x for x, m in enumerate(s.elements)
                if families.rank(m) == k and x not in gens]
        gathered += rng.sample(pool, min(2, len(pool)))
    for x in gens + last + gathered:
        assert rows[x] == tuple(index[elems[x].compose(y).mapping]
                                for y in elems)


def test_walk_discovers_what_its_generators_generate():
    # the walk rebuilds IS_3 from its three generators under compose and
    # keeps a repeated one once; dropping the partial identity discovers a
    # smaller semigroup: the cycle and the transposition generate only
    # the 6 permutations
    cycle, swap, partial = (PartialBijection(3, m) for m in (
        (1, 2, 0), (1, 0, 2), (None, 1, 2)))
    compose = PartialBijection.compose
    s = families.symmetric_inverse(3)
    assert s.gens == tuple(s.elements.index(p.mapping)
                           for p in (cycle, swap, partial))
    walked = _Products(compose, (cycle, swap, cycle, partial),
                       lambda p: isn_key(p.mapping))
    assert (walked, walked.gens) == (s.table, s.gens)
    assert tuple(p.mapping for p in walked.elements) == s.elements
    assert _Products(compose, (cycle, swap),
                     lambda p: isn_key(p.mapping)).elements == tuple(
        PartialBijection(3, p) for p in permutations(range(3)))
    # for n <= 2 the cycle is the transposition, for n = 1 the identity:
    # each generator is kept once
    assert [len(families.symmetric_inverse(n).gens)
            for n in range(1, 6)] == [2, 2, 3, 3, 3]


def rees_brandt_product(g):
    """The Brandt product as a Rees matrix product: (i,a,j)(k,b,l) is
    (i, a*p_jk*b, l), where the sandwich entry p_jk is the group identity
    at j = k and zero elsewhere, which makes the product zero; None is
    the zero."""
    def product(x, y):
        if x is None or y is None or x[2] != y[0]:
            return None
        return x[0], g.table[g.table[x[1]][g.identity]][y[1]], y[2]
    return product


def shifted_cyclic_group(m):
    # x*y = x + y + 1 mod m, isomorphic to Z_m, with identity m - 1
    return from_cayley_table(
        [[(x + y + 1) % m for y in range(m)] for x in range(m)])


def test_each_brandt_generator_is_needed():
    # dropping a generator discovers a smaller semigroup: the (0,a,0) of
    # B(Z_2, 3) alone generate only the group at index 0
    product = rees_brandt_product(families.cyclic_group(2))
    assert _Products(product, [(0, 0, 0), (0, 1, 0)],
                     brandt_key).elements == ((0, 0, 0), (0, 1, 0))
    # B(Z_3, 1) is Z_3 with a zero, which no group product reaches
    s = families.brandt(families.cyclic_group(3), 1)
    product = rees_brandt_product(families.cyclic_group(3))
    assert _Products(product, s.elements[:-1], brandt_key).elements \
        == ((0, 0, 0), (0, 1, 0), (0, 2, 0)) == s.elements[:-1]
    assert s.zero in s.gens
    # the discovered elements are the r^2 |G| triples, sorted, then the
    # zero; for r > 1 the zero is no generator, but the walk reaches it;
    # the Rees product recounts every entry and rebuilds the table from
    # the family's own generators
    for g in (*map(families.cyclic_group, (1, 2, 3)),
              shifted_cyclic_group(3), klein_four()):
        product = rees_brandt_product(g)
        for r in (1, 2, 3):
            s = families.brandt(g, r)
            assert s.elements == tuple(sorted(
                (i, a, j) for i in range(r) for j in range(r)
                for a in range(g.order))) + (None,)
            assert (s.zero in s.gens) == (r == 1)
            assert len(s.gens) == g.order + 2 * (r - 1) + (r == 1)
            assert all(s.elements[s.table[x][y]] == product(u, v)
                       for x, u in enumerate(s.elements)
                       for y, v in enumerate(s.elements))
            walked = _Products(product, map(s.elements.__getitem__, s.gens),
                               brandt_key)
            assert (walked, walked.gens) == (s.table, s.gens)
            assert walked.elements == s.elements


def test_partial_bijection_rejects_non_injective_mapping():
    with pytest.raises(NotABijection):
        PartialBijection(2, (1, 1))
