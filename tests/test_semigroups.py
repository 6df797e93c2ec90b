import json
import random
import tracemalloc
from collections import Counter
from dataclasses import replace
from functools import cache
from itertools import permutations, product

import pytest

from pigraphs import families, semigroups, verify
from pigraphs.errors import (
    AssociativityViolation,
    IndexOutOfRange,
    MalformedDocument,
    NotABijection,
    SizeMismatch,
)
from pigraphs.semigroups import (
    Semigroup,
    adjoin_zero,
    check_involution,
    from_cayley_table,
    from_json_dict,
    to_json,
    to_json_dict,
)
from test_families import PartialBijection, rees_brandt_product

C2 = [[0, 1], [1, 0]]
CHAIN2 = [[0, 0], [0, 1]]


def brute_associative(table):
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def first_failing_triple(table):
    """The lexicographically first (x, y, z) with (xy)z != x(yz), or None."""
    n = len(table)
    return next(((x, y, z) for x in range(n) for y in range(n)
                 for z in range(n)
                 if table[table[x][y]][z] != table[x][table[y][z]]), None)


def check_verdict(table):
    """The witness from_cayley_table raises, or None if it accepts."""
    try:
        from_cayley_table(table)
    except AssociativityViolation as err:
        return err.witness
    return None


def test_c2_is_a_group():
    s = from_cayley_table(C2)
    assert s.identity == 0
    assert s.zero is None


def test_chain_semilattice_has_zero_and_identity():
    s = from_cayley_table(CHAIN2)
    assert s.zero == 0
    assert s.identity == 1


def test_or_semilattice_accepted_iff_associative():
    table = [[0, 1], [1, 1]]
    assert brute_associative(table)
    s = from_cayley_table(table)
    assert s.zero == 1 and s.identity == 0


def test_nonassociative_table_reports_genuine_witness():
    table = [[0, 1], [0, 0]]
    assert not brute_associative(table)
    with pytest.raises(AssociativityViolation) as err:
        from_cayley_table(table)
    x, y, z = err.value.witness
    assert table[table[x][y]][z] != table[x][table[y][z]]


def test_out_of_range_entry_rejected():
    with pytest.raises(IndexOutOfRange):
        from_cayley_table([[0, 2], [1, 0]])
    with pytest.raises(IndexOutOfRange):
        from_cayley_table([[0, 1], [0]])
    with pytest.raises(IndexOutOfRange):
        from_cayley_table([[False, True], [True, False]])


def test_out_of_range_messages_name_the_first_bad_entry():
    cases = {
        "table entry 2 not in [0, 2)": [[0, 2], [1, 0]],
        "table entry -1 not in [0, 3)": [[0, 1, 2], [0, -1, 2], [0, 5, 0]],
        "table entry 1.0 not in [0, 2)": [[0, 1], [1.0, 0]],
        "table entry 'a' not in [0, 2)": [[0, 1], [1, "a"]],
        "table entry True not in [0, 2)": [[0, 1], [True, 9]],
        "table is not square": [[0, 1], [0]],
        # row-major order: the bad entry in row 0 comes before the short row
        "table entry 7 not in [0, 2)": [[0, 7], [0]],
    }
    for message, table in cases.items():
        with pytest.raises(IndexOutOfRange) as err:
            from_cayley_table(table)
        assert str(err.value) == message


def test_associativity_check_matches_triple_loop_on_random_tables():
    rng = random.Random(20)
    accepted = 0
    for n in range(1, 9):
        for _ in range(60):
            table = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            witness = check_verdict(table)
            assert (witness is None) == brute_associative(table)
            assert witness == first_failing_triple(table)
            accepted += witness is None
    assert accepted > 0


def test_associativity_check_finds_one_planted_break():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(2, 12)
        if rng.random() < 0.5:
            table = [[x] * n for x in range(n)]
        else:
            table = [[(x + y) % n for y in range(n)] for x in range(n)]
        x, y = rng.randrange(n), rng.randrange(n)
        table[x][y] = (table[x][y] + rng.randrange(1, n)) % n
        witness = check_verdict(table)
        assert (witness is None) == brute_associative(table)
        assert witness == first_failing_triple(table)


def test_associativity_witness_at_the_byte_encoding_boundary():
    # order 256 is checked over bytes, order 257 over tuples
    for n in (256, 257):
        left_zero = [[x] * n for x in range(n)]
        left_zero[0][1] = 1
        cyclic = [[(x + y) % n for y in range(n)] for x in range(n)]
        cyclic[n - 1][n - 2] = 0
        for table, witness in ((left_zero, (0, 2, 1)),
                               (cyclic, (1, n - 2, n - 2))):
            assert first_failing_triple(table) == witness
            with pytest.raises(AssociativityViolation) as err:
                from_cayley_table(table)
            assert err.value.witness == witness
    s = from_cayley_table([[(x + y) % 257 for y in range(257)]
                           for x in range(257)])
    assert s.checked and s.identity == 0


def test_associativity_check_matches_triple_loop_on_all_tables_up_to_order_3():
    tables = [[list(t[i:i + n]) for i in range(0, n * n, n)]
              for n in range(1, 4) for t in product(range(n), repeat=n * n)]
    assert len(tables) == 19_700
    assert all(check_verdict(t) == first_failing_triple(t) for t in tables)


def light_test_bases():
    """Relabelled IS_3, Brandt(Z3, 3), a 40-chain under min, and left zero
    and cyclic semigroups with an adjoined zero, of orders 96 and 128."""
    rng = random.Random(32)
    bases = [families.symmetric_inverse(3),
             families.brandt(families.cyclic_group(3), 3), chain(40),
             adjoin_zero(families.left_zero(95)),
             adjoin_zero(families.cyclic_group(127))]
    return [relabelled(s, rng) for s in bases]


def test_light_test_finds_the_first_witness_of_one_planted_break():
    rng = random.Random(33)
    for s in light_test_bases():
        assert s.checked and check_verdict(s.table) is None
        n, rejected = s.order, 0
        for _ in range(24 if n <= 40 else 3):
            table = [list(row) for row in s.table]
            x, y = rng.randrange(n), rng.randrange(n)
            table[x][y] = (table[x][y] + rng.randrange(1, n)) % n
            witness = check_verdict(table)
            assert witness == first_failing_triple(table)
            assert (witness is None) == brute_associative(table)
            rejected += witness is not None
        assert rejected > 0


def test_light_test_reads_the_generators_rows_unless_it_rejects(monkeypatch):
    s = light_test_bases()[-1]
    calls, first_violation = [], semigroups._first_violation

    def recorded(table, middles):
        calls.append(tuple(middles))
        return first_violation(table, middles)

    monkeypatch.setattr(semigroups, "_first_violation", recorded)
    assert s.order == 128 and check_verdict(s.table) is None
    assert len(calls) == 1 and len(calls[0]) <= 3
    table = [list(row) for row in s.table]
    table[5][9] = (table[5][9] + 1) % 128
    calls.clear()
    assert check_verdict(table) == first_failing_triple(table)
    assert len(calls) == 2 and calls[1] == tuple(range(128))


def test_find_zero():
    assert from_cayley_table(C2).zero is None
    assert families.subset_meet_semilattice(2).zero == 0
    s = families.symmetric_inverse(2)
    z = s.zero
    assert families.rank(s.elements[z]) == 0
    # composing anything with the empty map gives the empty map
    assert all(s.table[z][x] == z and s.table[x][z] == z
               for x in range(s.order))


def test_idempotents():
    assert from_cayley_table(C2).idempotents == (0,)
    s = families.symmetric_inverse(2)
    assert len(s.idempotents) == 4
    assert all(s.elements[e][i] in (None, i)
               for e in s.idempotents
               for i in range(2))
    b = families.brandt(families.cyclic_group(2), 2)
    idem = b.idempotents
    # direct product check on the 9-element table
    assert idem == tuple(e for e in range(b.order) if b.table[e][e] == e)
    assert len(idem) == 3 and b.zero in idem


def test_inverses_group_and_isn():
    s = from_cayley_table(C2)
    assert s.inverses == (0, 1)
    s2 = families.symmetric_inverse(2)
    inv = s2.inverses
    assert inv is not None
    for m, y in zip(s2.elements, inv):
        assert s2.elements[y] == PartialBijection(2, m).inverse().mapping


def test_inverses_absent_for_left_zero_with_zero():
    s = adjoin_zero(families.left_zero(3))
    # x*y*x = x for every y, so inverse partners are not unique
    assert s.inverses is None


def test_inverse_laws_and_commuting_idempotents():
    for s in (from_cayley_table(C2), families.symmetric_inverse(3),
              families.brandt(families.cyclic_group(2), 2),
              families.subset_meet_semilattice(3)):
        inv = s.inverses
        assert inv is not None
        for x in range(s.order):
            assert s.table[s.table[x][inv[x]]][x] == x
            assert inv[inv[x]] == x
        idem = s.idempotents
        assert all(s.table[e][f] == s.table[f][e] for e in idem for f in idem)
        assert check_involution(s, inv)


def test_check_involution():
    # in any commutative semigroup the identity map is an involution,
    # so the negative case needs a noncommutative one
    c3 = from_cayley_table([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert check_involution(c3, [0, 1, 2])
    lz = families.left_zero(2)
    assert not check_involution(lz, [0, 1])
    sl = families.subset_meet_semilattice(2)
    assert check_involution(sl, list(range(sl.order)))
    with pytest.raises(NotABijection):
        check_involution(c3, [0, 0, 1])


def test_adjoin_zero():
    s = adjoin_zero(from_cayley_table(C2))
    assert s.order == 3 and s.zero == 2
    assert s.table[2] == (2, 2, 2)
    # the original products are untouched
    assert [row[:2] for row in s.table[:2]] == [(0, 1), (1, 0)]


def test_adjoin_zero_twice_has_unique_zero():
    s = adjoin_zero(adjoin_zero(from_cayley_table(CHAIN2)))
    assert s.zero == 3
    # the older absorbing elements no longer absorb the new zero
    assert s.table[0][3] == 3 and s.table[2][3] == 3


def test_json_round_trip():
    for s in (families.symmetric_inverse(2),
              families.brandt(families.cyclic_group(2), 2),
              families.left_zero(3)):
        doc = to_json_dict(s)
        again = from_json_dict(doc)
        assert again == s
        assert to_json_dict(again) == doc
    # the generating set is neither compared nor serialized: IS_4 comes
    # back as a bare table, whose ideals _ideals reads off the table
    s = families.symmetric_inverse(4)
    again = from_json_dict(to_json_dict(s))
    assert again == s and s.gens is not None and again.gens is None
    assert (again.left_ideals, again.right_ideals) == \
        (s.left_ideals, s.right_ideals)


def test_json_writer_matches_the_stdlib():
    """The writer's bytes are the stdlib's indented encoding, the oracle:
    view tables, a zero adjoined with and without one already there, and
    no family, labels, zero or identity."""
    brandt = families.brandt(families.cyclic_group(2), 2)
    samples = [*(families.symmetric_inverse(n) for n in (1, 2, 3)), brandt,
               adjoin_zero(brandt), adjoin_zero(families.left_zero(2)),
               from_cayley_table(C2), from_cayley_table([[0, 1], [0, 1]]),
               from_cayley_table([[0]], ['"\\\n\u00e9\u2603\ud800'])]
    for s in samples:
        assert to_json(s) == json.dumps(to_json_dict(s), indent=2) + "\n"
    assert '"family": "isn"\n}' in to_json(samples[0])
    assert samples[-3].family is None
    assert '"family"' not in to_json(samples[-3])
    assert '"zero": null,\n  "identity": null\n}' in to_json(samples[-2])


def brute_inverses(s):
    t = s.table
    partners = [[y for y in range(s.order)
                 if t[t[x][y]][x] == x and t[t[y][x]][y] == y]
                for x in range(s.order)]
    if all(len(p) == 1 for p in partners):
        return tuple(p[0] for p in partners)
    return None


@cache
def small_semigroups():
    """Every associative table on {0..n-1} for n = 1, 2, 3."""
    out = []
    for n in range(1, 4):
        for flat in product(range(n), repeat=n * n):
            table = [flat[i:i + n] for i in range(0, n * n, n)]
            if brute_associative(table):
                out.append(from_cayley_table(table))
    return tuple(out)


def counted_copy(s):
    """s on a table that counts, in reads["items"], every entry and row
    handed out by indexing and every item handed out by iteration; the
    copy of a view keeps the view's walk and both Cayley graphs, and so
    its generators."""
    reads = Counter()

    class Counted(tuple):
        def __getitem__(self, i):
            reads["items"] += 1
            return tuple.__getitem__(self, i)

        def __iter__(self):
            reads["items"] += len(self)
            return tuple.__iter__(self)

    table = Counted(map(Counted, s.table))
    if s.gens is not None:
        vars(table).update(gens=s.gens, right=s.table.right,
                           left=s.table.left, steps=s.table.steps)
    return replace(s, table=table), reads


def involutions(n):
    return [p for p in permutations(range(n))
            if all(p[p[a]] == a for a in range(n))]


def chain(n):
    """The chain semilattice 0 < 1 < ... < n-1 under min."""
    return from_cayley_table([[min(x, y) for y in range(n)]
                              for x in range(n)])


def relabelled(s, rng):
    """s with its elements renumbered by a random permutation."""
    perm = list(range(s.order))
    rng.shuffle(perm)
    table = [[0] * s.order for _ in range(s.order)]
    for x in range(s.order):
        for y in range(s.order):
            table[perm[x]][perm[y]] = perm[s.table[x][y]]
    return from_cayley_table(table)


def random_brandt(rng):
    b = families.brandt(families.cyclic_group(rng.randint(1, 3)),
                        rng.randint(2, 3))
    return relabelled(b, rng)


def pairwise_anti_involution(s, sigma):
    t = s.table
    return all(sigma[sigma[a]] == a for a in range(s.order)) and all(
        sigma[t[a][b]] == t[sigma[b]][sigma[a]]
        for a in range(s.order) for b in range(s.order))


def test_check_involution_rejects_planted_swap():
    s = families.symmetric_inverse(3)
    inv = s.inverses
    idem = s.idempotents
    assert all(inv[e] == e for e in idem)
    for e, f in [(idem[1], idem[-1]), (idem[2], idem[3])]:
        # swapping two fixed points keeps an involution but breaks the law
        sigma = list(inv)
        sigma[e], sigma[f] = f, e
        assert all(sigma[sigma[a]] == a for a in range(s.order))
        assert not check_involution(s, sigma)
        assert not pairwise_anti_involution(s, sigma)
    # the law is read on the generators' rows only, so a swap of two
    # idempotents outside the generating set must be caught through them
    for s in (families.symmetric_inverse(4),
              families.brandt(families.cyclic_group(2), 3)):
        inv = s.inverses
        idem = [e for e in s.idempotents if e not in s.generators]
        for e, f in [(idem[0], idem[-1]), (idem[0], idem[1]),
                     (idem[1], idem[2])]:
            sigma = list(inv)
            sigma[e], sigma[f] = f, e
            assert sigma[e] != inv[e]
            assert not check_involution(s, sigma)
            assert not pairwise_anti_involution(s, sigma)


def test_check_involution_matches_pairwise_definition():
    rng = random.Random(13)
    samples = [families.brandt(families.cyclic_group(3), 2),
               families.subset_meet_semilattice(2),
               from_cayley_table([[0]]), from_cayley_table(C2),
               random_brandt(rng), families.symmetric_inverse(3),
               families.cyclic_group(12),
               relabelled(chain(6), random.Random(14))]
    for s in samples:
        inv = s.inverses
        # a random involution: the shuffled elements swapped in pairs
        perm = list(range(s.order))
        rng.shuffle(perm)
        involution = list(range(s.order))
        for a, b in zip(perm[::2], perm[1::2]):
            involution[a], involution[b] = b, a
        for sigma in (inv, list(range(s.order)), inv[::-1], involution):
            if sorted(sigma) == list(range(s.order)):
                assert check_involution(s, sigma) == \
                    pairwise_anti_involution(s, sigma)
    checked = 0
    for s in small_semigroups():
        for sigma in involutions(s.order):
            assert check_involution(s, sigma) == \
                pairwise_anti_involution(s, sigma)
            checked += 1
    assert checked == 469


def test_inverses_match_pairwise_definition():
    rng = random.Random(11)
    for s in (from_cayley_table([[0]]), random_brandt(rng),
              families.symmetric_inverse(3),
              relabelled(adjoin_zero(families.left_zero(3)), rng),
              families.cyclic_group(12), relabelled(chain(6), rng)):
        assert s.inverses == brute_inverses(s)
    assert from_cayley_table([[0]]).inverses == (0,)
    small = small_semigroups()
    assert len(small) == 122
    small += tuple(map(adjoin_zero, small))
    assert all(s.inverses == brute_inverses(s) for s in small)
    assert sum(s.inverses is not None for s in small) == 58
    # regular controls that are not inverse: the 2x2 rectangular band
    # (i, j)(k, l) = (i, l), (i, j) at 2i + j, is all idempotents, two in
    # each L- and each R-class
    band = from_cayley_table([[a & 2 | b & 1 for b in range(4)]
                              for a in range(4)])
    for s in (band, adjoin_zero(band)):
        assert all(s.table[x][x] == x for x in range(s.order))
        assert s.inverses is None and brute_inverses(s) is None
    # the Rees 0-matrix semigroup over the trivial group with sandwich
    # [[0, 1], [1, 1]], relabelled: regular, and the first inverse of
    # each x is an involution that keeps x*y*x = x, but 1, 3 and 4 have
    # more than one inverse; only its idempotents 1*3 != 3*1 refute it
    rees = from_cayley_table([[2, 2, 2, 0, 1], [0, 1, 2, 0, 1],
                              [2, 2, 2, 2, 2], [2, 2, 2, 3, 4],
                              [3, 4, 2, 3, 4]])
    assert rees.table[1][3] != rees.table[3][1]
    assert rees.inverses is None and brute_inverses(rees) is None
    # views, searched at their generators only: IS_1..IS_4, Brandt over
    # Z_1..Z_3 at r = 1..3, and the null semigroup {0, a} walked from a,
    # whose one idempotent commutes but whose generator has no inverse
    views = [families.symmetric_inverse(n) for n in range(1, 5)]
    views += [families.brandt(families.cyclic_group(k), r)
              for k in (1, 2, 3) for r in (1, 2, 3)]
    null = Semigroup(semigroups._Products(lambda x, y: 0, (1,), None))
    assert null.table == ((0, 0), (0, 0)) and null.gens == (1,)
    assert all(s.inverses == brute_inverses(s) is not None for s in views)
    assert null.inverses is None and brute_inverses(null) is None


def test_inverses_along_the_walk_recount_both_laws():
    """Idempotents x, y with y*x = 0 generate x, y, xy and 0: one
    idempotent per L- and R-class, but xy is not regular.  The
    commutation check refutes it first, as x*y != y*x = 0; once the
    idempotents commute and each generator is regular, so is every
    product of them, and the recount of both laws only guards the walk.
    On the view walked from x and y and on the tuple table the answer is
    None.  A view of a product that is not associative needs the
    recount."""
    s = from_cayley_table([[0, 2, 2, 3], [3, 1, 3, 3], [3, 2, 3, 3],
                           [3, 3, 3, 3]])
    walked = Semigroup(semigroups._Products(
        lambda x, y: s.table[x][y], (0, 1), None))
    assert walked == s and walked.gens == (0, 1)
    assert walked.generators == (0, 1) and walked.zero == 3
    assert walked.inverses is None and s.inverses is None
    assert brute_inverses(s) is None
    # a product that is not associative, walked from 1 and 2: 1 and 2 are
    # their own inverses and inv(1*2) = inv(2)*inv(1) = 2*1 = 1*2, so the
    # map is an involution, but 0 = 1*2 has 0*0*0 != 0 in the view's
    # reads, which only the first law refutes
    product = ((2, 2, 2), (2, 1, 0), (0, 0, 2)).__getitem__
    walked = Semigroup(semigroups._Products(
        lambda x, y: product(x)[y], (1, 2), None))
    t = walked.table
    assert walked.gens == (1, 2) and t.steps[0] == (1, 2)
    assert t[2][1] == 0 and t[t[0][0]][0] != 0
    assert walked.inverses is None


def test_inverses_keep_both_laws_on_unchecked_tables():
    """Tables above order 256 are trusted unchecked: on every table of
    order 3, associative or not, the search raises nothing, and a map it
    returns satisfies both laws: it recounts that the map is an involution
    and the first law, which at inv(x) is the second."""
    found = 0
    for flat in product(range(3), repeat=9):
        t = (flat[:3], flat[3:6], flat[6:])
        inv = Semigroup(t).inverses
        if inv is not None:
            found += 1
            assert all(t[t[x][y]][x] == x and t[t[y][x]][y] == y
                       for x, y in enumerate(inv))
    # maps on non-associative tables too, not only the 24 inverse ones
    assert found > 24


def test_generators_generate():
    """The closure of s.generators under the table is all of s."""
    rng = random.Random(17)
    isn = [families.symmetric_inverse(n) for n in range(1, 6)]
    samples = isn + [random_brandt(rng), families.subset_meet_semilattice(3),
                families.cyclic_group(12), chain(6),
                adjoin_zero(families.left_zero(3)), from_cayley_table([[0]]),
                from_cayley_table([])]
    for s in samples:
        gens = s.generators
        reached, todo = set(gens), list(gens)
        while todo:
            x = todo.pop()
            for y in gens:
                if s.table[x][y] not in reached:
                    reached.add(s.table[x][y])
                    todo.append(s.table[x][y])
        assert reached == set(range(s.order))
        assert len(set(gens)) == len(gens)
    assert len(isn[-1].generators) <= 8
    assert len(chain(6).generators) == 6


def test_inverse_layer_reads_only_what_it_needs(monkeypatch):
    """A guard against a full-table scan coming back, on IS_5: the table
    entries the inverse search reads and the keys the involution check
    hands to _gather."""
    s = families.symmetric_inverse(5)
    counted, reads = counted_copy(s)
    inv = counted.inverses
    assert all(s.elements[y] == PartialBijection(5, m).inverse().mapping
               for m, y in zip(s.elements, inv))
    # the diagonal and the first law: 2 + 4 reads per element, and 2 for
    # inv[g]*inv[x] at each element off the 3 generators; the 32
    # idempotents' rows and both entries of their 496 pairs; and for each
    # generator x its row, the 1,546 entries it filters, x's entry in each
    # idempotent's row and 3 reads for the one y tried: 18,132 reads.  The
    # budget, met by the H-class search at 18,672, leaves 687 to spare; a
    # search of every x would filter every row, 2.39M entries
    needed = (6 * s.order + 2 * (s.order - 3) + 32 + 2 * 496
              + 3 * (1 + s.order + 32 + 3))
    budget = 18_819
    assert needed == 18_132 and 0 < reads["items"] <= budget
    gens, keys = s.generators, []
    gather = semigroups._gather

    def counted_gather(k):
        keys.append(len(k))
        return gather(k)

    monkeypatch.setattr(semigroups, "_gather", counted_gather)
    keys.clear()
    assert check_involution(s, inv)
    assert 0 < sum(keys) <= (len(gens) + 1) * 1546


def test_inverses_read_no_ideal_layer(monkeypatch):
    """The inverse map reads the table alone: no ideal pass runs and no
    ideal mask is cached, on views and on their bare tuple tables."""
    b3 = families.brandt(families.cyclic_group(2), 3)
    bare = [Semigroup(tuple(families.symmetric_inverse(4).table)),
            Semigroup(tuple(b3.table))]
    fresh = [families.symmetric_inverse(5),
             families.brandt(families.cyclic_group(3), 4)]
    assert all(s.gens is None for s in bare)
    assert all(s.gens is not None for s in fresh)

    def no_pass(*args):
        raise AssertionError("an ideal pass ran")

    monkeypatch.setattr(semigroups, "_reach", no_pass)
    monkeypatch.setattr(semigroups, "_ideals", no_pass)
    for s in fresh + bare:
        assert s.inverses is not None
        assert "left_ideals" not in s.__dict__
        assert "right_ideals" not in s.__dict__
    assert bare[1].inverses == b3.inverses


def test_ideal_passes_read_the_generator_rows_only(monkeypatch, products):
    """A guard against a full-table ideal pass coming back on IS_5: the
    cold left and right passes read the g*x and x*g the view's walk kept,
    computing no product and reading no table entry; the n^2 passes read
    about 2*2.39M.  The zero and the identity are tested against the
    generators only, so they too read the walk: 3 and 593 products when
    each x*g was computed afresh."""
    count = products()
    s = families.symmetric_inverse(5)
    s.left_ideals
    s.right_ideals
    assert families.rank(s.elements[s.zero]) == 0
    assert families.rank(s.elements[s.identity]) == 5
    assert count == Counter(walk=len(s.gens) * s.order)
    expected = s.left_ideals, s.right_ideals
    counted, reads = counted_copy(s)
    assert counted.gens == s.gens and len(s.gens) == 3
    passes = Counter()
    reach = semigroups._reach

    def counted_reach(succ):
        passes["_reach"] += 1
        return reach(succ)

    monkeypatch.setattr(semigroups, "_reach", counted_reach)
    assert (counted.left_ideals, counted.right_ideals) == expected
    assert passes == Counter({"_reach": 2})
    assert reads["items"] == 0


def view_products():
    """IS_1..IS_4 under ``families.compose`` and the Brandt samples, over
    Z_2, Z_3, the Klein four-group and r = 1..3, under the Rees form of
    the Brandt product, each with the product its elements recount by."""
    v4 = from_cayley_table([[x ^ y for y in range(4)] for x in range(4)])
    groups = (families.cyclic_group(2), families.cyclic_group(3), v4)
    return [*((families.symmetric_inverse(n), families.compose)
              for n in range(1, 5)),
            *((families.brandt(g, r), rees_brandt_product(g))
              for r in (1, 2, 3) for g in groups)]


def test_the_left_cayley_graph_is_recounted_by_product(products):
    """Each entry x*g the view hands out for a generator g is read off the
    walk, no product computed, and equals the recounted product; left[x],
    read off the walk's x*g, is the g*x over the generators, and each
    generator's cached row is its row computed one product at a time.
    The Brandt samples include r = 1, where the zero is a generator."""
    count = products()
    samples = view_products()
    # a Brandt semigroup's last triple is (r-1, a, r-1)
    assert all((s.zero in s.gens) == (s.elements[-2][0] == 0)
               for s, _ in samples if s.family == "brandt")
    for s, product in samples:
        t, index = s.table, {e: i for i, e in enumerate(s.elements)}
        assert t.gens == s.gens and len(t.left) == s.order
        walked = [[t[x][g] for g in t.gens] for x in range(s.order)]
        for x, e in enumerate(t.elements):
            assert walked[x] == [index[product(e, t.elements[g])]
                                 for g in t.gens]
            assert t.left[x] == tuple(index[product(t.elements[g], e)]
                                      for g in t.gens)
        assert t.gen_rows.keys() == set(t.gens)
        for g in t.gens:
            assert t[g] is t.gen_rows[g]
            assert t.gen_rows[g] == tuple(
                index[product(t.elements[g], e)] for e in t.elements)
    assert count["after"] == 0 < count["walk"]


def test_view_entries_are_the_products_of_their_elements():
    """Independent of ``rows``: every t[x][y], read along y's word, is the
    index of the product of the element values; a row read by index stops
    at the IndexError past its last entry; and each element's word,
    multiplied out from its first generator, is the element's value."""
    for s, product in view_products():
        t, n = s.table, s.order
        index = {e: i for i, e in enumerate(s.elements)}
        assert all(t[x][y] == index[product(u, v)]
                   for x, u in enumerate(s.elements)
                   for y, v in enumerate(s.elements))
        assert all(len(tuple(t[x])) == n for x in range(n))
        for e, word in zip(s.elements, t.words):
            value = s.elements[t.gens[word[0]]]
            for i in word[1:]:
                value = product(value, s.elements[t.gens[i]])
            assert value == e


def test_check_involution_reads_the_cached_generator_rows(products):
    """On IS_5 the law is checked on the three generator rows, which the
    view holds, against a column per generator.  Two of the columns, of
    the self-inverse (0 1) and partial identity, are generator columns
    the walk holds, and the third is read along the words, so no product
    is computed after the walk: 1,546 when the entries off the walk were
    products, 4,629 when every entry was, 9,276 when the generator rows
    were composed afresh too."""
    count = products()
    s = families.symmetric_inverse(5)
    inv = s.inverses
    assert check_involution(s, inv)
    assert count == Counter(walk=len(s.gens) * s.order)
    assert s.order == 1_546


def test_reach_holds_little_beyond_the_masks():
    # IS_5 has 32 distinct left ideals; the search's lists, the 4,638
    # edges and the masks peak at 0.12-0.21 MB (the first pass in a
    # process holds more), where a mask per edge would take about 0.9 MB
    s = families.symmetric_inverse(5)
    fresh = Semigroup(s.table)
    tracemalloc.start()
    try:
        fresh.left_ideals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fresh.left_ideals == s.left_ideals and peak < 400_000


def test_reach_matches_a_search_per_vertex():
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randrange(40)
        succ = [tuple(rng.randrange(n) for _ in range(rng.randrange(4)))
                for _ in range(n)]
        expected = []
        for x in range(n):
            seen, todo = {x}, [x]
            while todo:
                for y in succ[todo.pop()]:
                    if y not in seen:
                        seen.add(y)
                        todo.append(y)
            expected.append(sum(1 << y for y in seen))
        assert semigroups._reach(succ) == tuple(expected)


def test_adjoin_zero_label_is_fresh_and_round_trips():
    s = adjoin_zero(from_cayley_table([[0, 0], [1, 1]], ["a", "0*"]))
    assert s.labels == ("a", "0*", "0**")
    again = from_json_dict(to_json_dict(s))
    assert again == s and again.labels == s.labels
    assert adjoin_zero(from_cayley_table(C2, ["a", "b"])).labels[-1] == "0*"


def test_from_json_dict_rejects_malformed_documents():
    doc = to_json_dict(families.symmetric_inverse(2))
    with pytest.raises(MalformedDocument):
        from_json_dict(doc["table"])
    with pytest.raises(MalformedDocument):
        from_json_dict({**doc, "table": 7})
    with pytest.raises(SizeMismatch):
        from_json_dict({**doc, "labels": doc["labels"][:3]})
    with pytest.raises(SizeMismatch):
        from_cayley_table(C2, labels=["a"])
    for labels in (5, "ab", ["a", 3], [None, "b"]):
        with pytest.raises(MalformedDocument):
            from_cayley_table(C2, labels=labels)
    for family in (5, True, ["isn"], {"name": "isn"}):
        with pytest.raises(MalformedDocument):
            from_json_dict({**doc, "family": family})
    assert from_json_dict({**doc, "family": None}).family is None
    assert from_json_dict(doc).family == "isn"


def test_from_json_dict_checks_associativity_up_to_order_256():
    def spoiled_left_zero(n):
        # x*y = x except for one product, which breaks associativity
        table = [[x] * n for x in range(n)]
        table[0][1] = 1
        return {"table": table}

    with pytest.raises(AssociativityViolation):
        from_json_dict(spoiled_left_zero(128))
    with pytest.raises(AssociativityViolation):
        from_json_dict(spoiled_left_zero(256))
    assert not from_json_dict(spoiled_left_zero(257)).checked


def test_derived_attributes_come_from_the_table_alone():
    tables = [families.symmetric_inverse(2).table,
              families.brandt(families.cyclic_group(2), 2).table,
              families.subset_meet_semilattice(2).table,
              families.cyclic_group(3).table, families.left_zero(3).table,
              adjoin_zero(families.left_zero(2)).table]
    for t in tables:
        bare, built = Semigroup(t), from_cayley_table(t)
        assert (bare.order, bare.zero, bare.identity) == \
            (built.order, built.zero, built.identity)
        assert bare == built and not bare.checked and built.checked


def view_samples():
    return [*map(families.symmetric_inverse, range(1, 5)),
            *(families.brandt(families.cyclic_group(m), r)
              for m in range(1, 4) for r in range(1, 4))]


def test_view_entries_match_the_walk_table():
    # each entry read along a word, a row's entries read by index up to
    # the IndexError past its last, against the tuple table gathered along
    # the walk, which iteration hands out
    for s in view_samples():
        n = s.order
        assert isinstance(s.table, semigroups._Products) and len(s.table) == n
        rows = tuple(s.table)
        assert all(type(row) is tuple for row in rows)
        assert [tuple(s.table[x]) for x in range(n)] == list(rows)
        assert all(len(s.table[x]) == n for x in range(n))


def test_view_and_tuple_tables_are_equal_and_hash_alike():
    for s in view_samples():
        stored = Semigroup(tuple(s.table), s.labels, s.family)
        assert s == stored and stored == s and hash(s) == hash(stored)
        assert s.table == stored.table and stored.table == s.table
        assert hash(s.table) == hash(stored.table)
    assert families.symmetric_inverse(3) != families.symmetric_inverse(2)
    assert families.symmetric_inverse(2).table != ((0,),)


def test_isn_suite_computes_few_products_in_little_memory(products):
    """IS_5's table would hold 2,390,116 entries in about 20 MB; the suite
    composes 4,638 partial maps, |gens| * order, all in the walk that
    discovers the elements, reads every later entry along a word, and
    peaks under 6 MB.  It composed 12,114 more when the entries off the
    walk were products."""
    count = products()
    tracemalloc.start()
    try:
        assert verify.suite_isn(5).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000
    assert count == Counter(walk=4_638)
