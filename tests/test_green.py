import tracemalloc

import pytest

from pigraphs import families, verify
from pigraphs.green import (
    l_classes,
    principal_left_ideal,
    r_classes,
)
from pigraphs.graphs import VertexMap
from pigraphs.semigroups import Semigroup, adjoin_zero, from_cayley_table


def as_set(bitset):
    return {i for i in range(bitset.bit_length()) if bitset >> i & 1}


def test_semilattice_ideal_is_the_downset():
    s = families.subset_meet_semilattice(3)
    for a in range(s.order):
        downset = {b for b in range(s.order) if b & a == b}
        assert as_set(principal_left_ideal(s, a)) == downset
        assert as_set(s.right_ideals[a]) == downset


def test_brandt_ideals():
    s = families.brandt(families.cyclic_group(1), 2)
    a = s.elements.index((0, 0, 1))
    left = {i for i, t in enumerate(s.elements[:-1]) if t[2] == 1}
    assert as_set(principal_left_ideal(s, a)) == left | {s.zero}
    right = {i for i, t in enumerate(s.elements[:-1]) if t[0] == 0}
    assert as_set(s.right_ideals[a]) == right | {s.zero}


def test_left_zero_right_ideal_is_singleton():
    s = families.left_zero(2)
    assert as_set(s.right_ideals[0]) == {0}


def chain(n, op):
    return from_cayley_table([[op(x, y) for y in range(n)] for x in range(n)],
                             unchecked=True)


def test_ideal_lists_match_one_element_recounts(isn):
    # shapes where ideals repeat (IS_n, Brandt, left zero, cyclic) and
    # where every ideal is distinct (null semigroup, max and min chains);
    # IS_n reads its ideals off its generators' Cayley graphs, and the
    # recounts read the whole table, which iteration hands out
    for s in (*isn.values(), families.symmetric_inverse(5),
              families.brandt(families.cyclic_group(2), 2),
              adjoin_zero(families.left_zero(5)), families.cyclic_group(7),
              chain(9, lambda x, y: 0), chain(9, max), chain(9, min)):
        assert list(s.left_ideals) == [principal_left_ideal(s, a)
                                       for a in range(s.order)]
        assert list(s.right_ideals) == [
            sum(1 << x for x in set(row)) | 1 << a
            for a, row in enumerate(s.table)]


def test_both_ideal_sources_agree(isn):
    """IS_1 to IS_5 and four Brandt semigroups through the Cayley graphs
    of their generators and as bare tables through _ideals: the same
    masks and L/R partitions.  A semigroup on the view keeps the view's
    generators, one on its tuple copy has none, and the two give the same
    zero, identity and inverse map."""
    brandts = (families.brandt(families.cyclic_group(m), r)
               for m, r in ((2, 2), (3, 4), (1, 11), (5, 5)))
    for s in (*isn.values(), families.symmetric_inverse(5), *brandts):
        walked, bare = Semigroup(s.table), Semigroup(tuple(s.table))
        assert s.gens is not None and walked.gens == s.gens
        assert bare.gens is None
        for attr in ("zero", "identity", "inverses"):
            assert getattr(walked, attr) == getattr(bare, attr) \
                == getattr(s, attr)
        assert s.left_ideals == bare.left_ideals
        assert s.right_ideals == bare.right_ideals
        assert l_classes(s).map == l_classes(bare).map
        assert r_classes(s).map == r_classes(bare).map


def test_ideal_lists_hold_only_the_masks():
    # every ideal of a max chain is distinct, so nothing is reused; the
    # masks alone peak near 0.2 MB, a frozenset kept per ideal near 5 MB
    s = chain(400, max)
    tracemalloc.start()
    try:
        s.left_ideals
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_identity_generates_everything(isn):
    s = isn[2]
    assert as_set(principal_left_ideal(s, s.identity)) == set(range(s.order))


def test_isn_classes_by_image_and_domain(isn):
    s = isn[2]
    lp = l_classes(s)
    sizes = sorted(len(c) for c in lp.classes)
    assert sizes == [1, 2, 2, 2]
    for cls in lp.classes:
        assert len({families.image_mask(s.elements[x]) for x in cls}) == 1
    rp = r_classes(s)
    for cls in rp.classes:
        assert len({families.domain_mask(s.elements[x]) for x in cls}) == 1


def test_brandt_classes_by_index():
    s = families.brandt(families.cyclic_group(2), 2)
    lp = l_classes(s)
    nonzero = [c for c in lp.classes if s.zero not in c]
    assert all(len(c) == 4 for c in nonzero) and len(nonzero) == 2
    for cls in nonzero:
        assert len({s.elements[x][2] for x in cls}) == 1
    assert (s.zero,) in lp.classes
    rp = r_classes(s)
    for cls in rp.classes:
        if s.zero not in cls:
            assert len({s.elements[x][0] for x in cls}) == 1


def test_group_is_one_class():
    s = families.cyclic_group(4)
    assert l_classes(s).codomain_order == 1
    assert r_classes(s).codomain_order == 1


def test_partition_consistency():
    for s in (families.symmetric_inverse(2),
              families.brandt(families.cyclic_group(2), 2),
              from_cayley_table([[0, 0], [0, 1]])):
        lp = l_classes(s)
        ideals = [principal_left_ideal(s, a) for a in range(s.order)]
        assert sorted(x for c in lp.classes for x in c) == list(range(s.order))
        for a in range(s.order):
            for b in range(s.order):
                same = lp.map[a] == lp.map[b]
                assert same == (ideals[a] == ideals[b])


def test_unique_idempotent_per_class_in_inverse_semigroups(isn):
    for s in (isn[2], isn[3],
              families.brandt(families.cyclic_group(2), 2)):
        idem = set(s.idempotents)
        for part in (l_classes(s), r_classes(s)):
            for cls in part.classes:
                assert len(idem.intersection(cls)) == 1


def test_idempotent_ideal_intersection_is_product_ideal(isn):
    for s in (isn[2], isn[3],
              families.brandt(families.cyclic_group(2), 2),
              families.subset_meet_semilattice(3)):
        for e in s.idempotents:
            for f in s.idempotents:
                lhs = principal_left_ideal(s, e) & principal_left_ideal(s, f)
                assert lhs == principal_left_ideal(s, s.table[e][f])


def test_suite_green_fails_classes_split_below_ideal_equality(monkeypatch):
    # singleton classes: one ideal per class, but IS_2 has classes that
    # share an ideal, so they are finer than ideal equality
    monkeypatch.setattr(verify, "l_classes", lambda s: VertexMap(
        tuple(range(s.order))))
    result = next(c for c in verify.suite_green().checks
                  if c.name == "classes are exactly ideal-equality classes")
    assert not result.passed


def _result(suite, name):
    return next(c for c in suite.checks if c.name == name)


def _discrete(s):
    return VertexMap(tuple(range(s.order)))


def _one_class(s):
    return VertexMap((0,) * s.order)


@pytest.mark.parametrize("partition", [_discrete, _one_class])
@pytest.mark.parametrize("classes,name", [
    ("l_classes", "left classes grouped by image"),
    ("r_classes", "right classes grouped by domain"),
])
def test_suite_isn_fails_classes_other_than_the_element_data(
        monkeypatch, classes, name, partition):
    monkeypatch.setattr(verify, classes, partition)
    assert not _result(verify.suite_isn(3), name).passed


def test_suite_green_fails_a_class_without_its_idempotent(monkeypatch):
    idempotents = Semigroup.idempotents.func
    monkeypatch.setattr(Semigroup, "idempotents",
                        property(lambda s: idempotents(s)[1:]))
    assert not _result(verify.suite_green(),
                       "each class of an inverse semigroup has one "
                       "idempotent").passed


def test_suite_green_fails_an_idempotent_ideal_missing_one_element(
        monkeypatch):
    # the identity of IS_2 (the only sample of order 7) loses the zero
    # from its ideal, so its meet with the ideal of any idempotent f below
    # it lacks the zero that S*f holds
    def short(s, a):
        ideal = principal_left_ideal(s, a)
        if s.order == 7 and a == s.identity:
            return ideal & ~(1 << s.zero)
        return ideal

    monkeypatch.setattr(verify, "principal_left_ideal", short)
    assert not _result(verify.suite_green(), "ideal intersection of "
                       "idempotents is the product ideal").passed
