"""Named verification suites runnable from the CLI.

Each suite re-derives a batch of structural claims at configurable sizes
and reports one pass/fail line per check; nothing here trusts a formula
without an independent recount.
"""

import random
from dataclasses import dataclass

from . import families, graphs, pig, skeletal, spectral
from .errors import PigError, SizeLimitExceeded
from .green import l_classes, principal_left_ideal, r_classes


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteResult:
    suite: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(checks, name, passed, detail=""):
    checks.append(CheckResult(name, bool(passed), detail))


def _check_runs(checks, name, call, holds=lambda value: True):
    """call's value, passing when holds(value); None, failing with the
    error message, when call raises."""
    try:
        value = call()
    except PigError as exc:
        return _check(checks, name, False, str(exc))
    _check(checks, name, holds(value))
    return value


def suite_isn(n: int = 3) -> SuiteResult:
    checks = []
    s = families.symmetric_inverse(n)
    _check(checks, "cardinality matches binomial-sum oracle",
           s.order == families.partial_bijection_count(n), f"order={s.order}")
    _check(checks, "cardinality differs from (n+1)^n (documented erratum)",
           n < 2 or s.order != (n + 1) ** n,
           f"{s.order} vs {(n + 1) ** n}")
    _check(checks, "idempotent count is 2^n",
           len(s.idempotents) == 1 << n)

    # s caches its ideals and inverses, so each layer is computed once; the
    # three left graphs stay independent recounts (ideals, products of the
    # idempotents inv(x)*x, image masks: nonempty exactly off the zero)
    elems = s.elements
    images = list(map(families.image_mask, elems))
    full = pig.left_pig(s)
    _check(checks, "inverse criterion graph equals ideal-intersection graph",
           s.inverses is not None
           and full.adj == pig.left_pig_inverse_fast(s).adj)
    _check(checks, "image-intersection graph equals ideal-intersection graph",
           full.adj == graphs.mask_intersection_graph(
               [m for m in images if m]).adj)

    # every partition numbers its classes by minimal member
    _check(checks, "left classes grouped by image", l_classes(s).map
           == graphs.partition_by_key(images).map)
    _check(checks, "right classes grouped by domain", r_classes(s).map
           == graphs.partition_by_key(map(families.domain_mask, elems)).map)

    pair = _check_runs(checks, "quotient vertex count is 2^n - 1",
                       lambda: pig.s_left_pig(s, full),
                       lambda got: got[0].order == (1 << n) - 1)
    if pair is None:
        return SuiteResult("isn", tuple(checks))
    quotient, phi = pair
    reps = [elems[cls[0]] for cls in pig.s_pig_class_elements(s, phi)]
    degree = graphs.degree_of_subset_vertex
    _check_runs(checks, "quotient degree formula 2^n - 2^(n-k) - 1",
                lambda: all(quotient.degree(v) == degree(n, families.rank(p))
                            for v, p in enumerate(reps)), bool)
    expected_edges = (((1 << n) - 1) ** 2 - (3 ** n - (1 << n))) // 2
    _check(checks, "quotient edge-count formula",
           graphs.graph_stats(quotient).edge_count == expected_edges,
           f"edges={expected_edges}")

    inter = graphs.intersection_graph(n)
    canonical = tuple(families.image_mask(p) - 1 for p in reps)
    _check(checks, "canonical class-to-image map is an isomorphism",
           sorted(canonical) == list(range(inter.order))
           and skeletal.verify_skeletal(
               quotient, inter, graphs.VertexMap(canonical)).is_skeletal)
    found = graphs.are_isomorphic(quotient, inter)
    _check(checks, "generic search finds the same isomorphism",
           found is not None and skeletal.verify_skeletal(
               quotient, inter, graphs.VertexMap(tuple(found))).is_skeletal)

    _check_runs(checks, "inversion maps the left graph onto the right graph",
                lambda: pig.involution_pig_isomorphism(s, full,
                                                       pig.right_pig(s)))
    _check(checks, "left graph of a monoid is connected",
           graphs.graph_stats(full).is_connected)
    return SuiteResult("isn", tuple(checks))


def suite_brandt(group_order: int = 2, indices: int = 2) -> SuiteResult:
    checks = []
    g = families.cyclic_group(group_order)
    s = families.brandt(g, indices)
    _check(checks, "order is r^2 * |G| + 1",
           s.order == indices * indices * group_order + 1)
    idem = [e for e in s.idempotents if e != s.zero]
    _check(checks, "the nonzero idempotents number r", len(idem) == indices,
           f"r={indices} |G|={group_order} order={s.order}")
    full = pig.left_pig(s)
    comps = graphs.components(full)
    _check(checks, "left graph splits into one component per index",
           comps.codomain_order == indices)
    _check(checks, "each component is complete on |I|*|G| vertices",
           all(full.degree(v) + 1 == len(c) == indices * group_order
               for c in comps.classes for v in c))
    by_right = graphs.partition_by_key(
        [s.elements[x][2] for x in pig.pig_vertices(s)])
    _check(checks, "components are exactly the right-index classes",
           comps.map == by_right.map)
    if _check_runs(checks, "class quotient is a null graph on |I| vertices",
                   lambda: pig.s_left_pig(s, full)[0],
                   lambda quotient: quotient.order == indices
                   and graphs.graph_stats(quotient).is_null) is None:
        return SuiteResult("brandt", tuple(checks))
    _check(checks, "distinct nonzero idempotents multiply to zero",
           all(s.table[e][f] == s.zero
               for e in idem for f in idem if e != f))
    _check_runs(checks, "triple inversion is a left/right graph isomorphism",
                lambda: pig.involution_pig_isomorphism(s, full,
                                                       pig.right_pig(s)))
    return SuiteResult("brandt", tuple(checks))


def suite_semilattice(n: int = 3) -> SuiteResult:
    checks = []
    s = families.subset_meet_semilattice(n)
    _check(checks, "every element is idempotent, 2^n of them",
           len(s.idempotents) == s.order == 1 << n, f"n={n} order={s.order}")
    left, right = pig.left_pig(s), pig.right_pig(s)
    _check(checks, "left and right graphs coincide (commutative)",
           left.adj == right.adj)
    quotient = _check_runs(
        checks, "classes are singletons, so the quotient equals the graph",
        lambda: pig.s_left_pig(s, left)[0],
        lambda quotient: quotient.order == left.order
        and quotient.adj == left.adj)
    if quotient is None:
        return SuiteResult("semilattice", tuple(checks))
    verts = pig.pig_vertices(s)
    subsets = [s.elements[x] for x in verts]
    _check(checks, "adjacency is exactly nonzero meet",
           left.adj == graphs.mask_intersection_graph(subsets).adj)
    comp = graphs.complement(quotient)
    _check(checks, "quotient complement has edges exactly at zero products",
           all(comp.has_edge(u, v) == (s.table[verts[u]][verts[v]] == s.zero)
               for u in range(comp.order) for v in range(u + 1, comp.order)))
    group = families.cyclic_group(3)
    _check(checks, "zero-free inverse semigroup yields a complete graph",
           graphs.graph_stats(pig.left_pig(group)).is_complete)
    return SuiteResult("semilattice", tuple(checks))


def _witness(seed, iteration, g, **verdicts) -> str:
    """A failing random case: enough to rebuild the graph and its verdicts."""
    return "; ".join([f"seed={seed}", f"iteration={iteration}",
                      f"order={g.order}",
                      f"edges={[list(e) for e in g.edges()]}",
                      *(f"{k}={v}" for k, v in verdicts.items())])


def _trials(checks, name, seed, rng, count, draw, judge, also=True):
    """One check over count seeded cases, failed by the first bad case.

    draw(rng) returns a case: its graph "g" and the other drawn values.
    judge(**case) returns (passed, verdicts); a PigError raised while
    judging fails the case with error=<message>.  When every case passes,
    the check passes iff also holds.
    """
    for i in range(count):
        case = draw(rng)
        try:
            passed, verdicts = judge(**case)
        except PigError as exc:
            passed, verdicts = False, {"error": exc}
        if not passed:
            return _check(checks, name, False,
                          _witness(seed, i, **case, **verdicts))
    _check(checks, name, also)


def _blow_up_case(rng, bound) -> dict:
    """A G(m, 1/2) base, 3 <= m < 3 + bound, and fibre sizes in [1, bound)."""
    m = rng.randrange(3, 3 + bound)
    return {"g": graphs.random_graph(m, 0.5, rng),
            "sizes": [rng.randrange(1, bound) for _ in range(m)]}


def _random_tree(order: int, rng) -> graphs.Graph:
    edges = [(rng.randrange(v), v) for v in range(1, order)]
    return graphs.from_edges(order, edges)


def suite_skeletal(seed: int = 0) -> SuiteResult:
    checks = []
    rng = random.Random(seed)

    k4 = graphs.complete_graph(4)
    k2 = graphs.complete_graph(2)
    phi = graphs.VertexMap((0, 0, 0, 1))
    _check(checks, "merging a triangle of K4 onto one end of K2 is skeletal",
           skeletal.verify_skeletal(k4, k2, phi).is_skeletal)

    trees_ok = all(
        skeletal.is_skeleton(t)
        for m in range(3, 9)
        for t in (graphs.path_graph(m), _random_tree(m, rng))
    ) and skeletal.is_skeleton(graphs.from_edges(4, [(0, 1), (0, 2), (0, 3)]))
    _check(checks, "trees on 3..8 vertices are skeletons", trees_ok)
    _check(checks, "cycles on 4..8 vertices are skeletons",
           all(skeletal.is_skeleton(graphs.cycle_graph(m))
               for m in range(4, 9)))
    _check(checks, "K2 and K3 are not skeletons",
           not skeletal.is_skeleton(graphs.complete_graph(2))
           and not skeletal.is_skeleton(graphs.complete_graph(3)))

    def complete_iff_two_block(g):
        complete = graphs.graph_stats(g).is_complete
        two_block = skeletal.has_two_block_skeletal(g)
        return complete == two_block, dict(complete=complete,
                                           two_block_skeletal=two_block)

    _trials(checks, "complete iff a two-vertex skeletal exists", seed, rng,
            60, lambda rng: {"g": graphs.random_graph(
                rng.randrange(3, 8), rng.choice([0.3, 0.6, 0.9]), rng)},
            complete_iff_two_block, all(skeletal.has_two_block_skeletal(
                graphs.complete_graph(m)) for m in range(3, 7)))

    def twin_test(g):
        skeleton = skeletal.is_skeleton(g)
        proper = skeletal.brute_force_has_proper_skeletal(g)
        return skeleton != proper, dict(is_skeleton=skeleton,
                                        brute_force_proper_skeletal=proper)

    _trials(checks, "twin test agrees with the partition brute force", seed,
            rng, 40, lambda rng: {"g": graphs.random_graph(
                rng.randrange(4, 8), rng.choice([0.25, 0.5, 0.75]), rng)},
            twin_test)

    # blow-up witnesses name the base graph and the fibre sizes
    def fibre_cliques(g, sizes):
        big, collapse = skeletal.blow_up(g, sizes)
        collapses = skeletal.verify_skeletal(big, g, collapse).is_skeletal
        cliques = collapses and all(
            skeletal.fibre_subgraph_is_complete(big, collapse, v)
            for v in range(g.order))
        if cliques:
            skeletal.embedded_copy(big, g, collapse)
        return cliques, dict(collapse_skeletal=collapses,
                             fibre_cliques=cliques)

    _trials(checks, "fibre cliques and embedded copies on random blow-ups",
            seed, rng, 30, lambda rng: _blow_up_case(rng, 4), fibre_cliques)

    def stacked_case(rng):
        case = _blow_up_case(rng, 3)
        mid_order = sum(case["sizes"])
        return {**case, "top_sizes": [rng.randrange(1, 3)
                                      for _ in range(mid_order)]}

    def composes(g, sizes, top_sizes):
        mid, phi1 = skeletal.blow_up(g, sizes)
        top, phi2 = skeletal.blow_up(mid, top_sizes)
        composed = skeletal.compose_skeletal(top, mid, g, phi2, phi1)
        ok = skeletal.verify_skeletal(top, g, composed).is_skeletal
        return ok, dict(composed_skeletal=ok)

    _trials(checks, "skeletal maps compose", seed, rng, 20, stacked_case,
            composes)
    return SuiteResult("skeletal", tuple(checks))


def _twin_bounds(g: graphs.Graph) -> tuple:
    """Whether the twin report passes and n x n ranks recount each
    multiplicity it gives, with both verdicts."""
    report = spectral.twin_spectral_report(g)
    mats = [spectral.graph_matrix(g, kind) for kind in "ALQ"]
    recount = all(
        [c.adjacency_multiplicity, c.laplacian_multiplicity,
         c.signless_multiplicity]
        == [spectral.eigen_multiplicity(m, lam) for m, lam
            in zip(mats, (-1, c.degree + 1, c.degree - 1))]
        for c in report.classes)
    return report.all_pass and recount, dict(all_pass=report.all_pass,
                                              recount_agrees=recount)


def suite_spectral(seed: int = 0) -> SuiteResult:
    checks = []
    rng = random.Random(seed)

    named = [
        ("K4", graphs.complete_graph(4)),
        ("two disjoint K2", graphs.from_edges(4, [(0, 1), (2, 3)])),
        ("left graph of the rank-2 partial bijections",
         pig.left_pig(families.symmetric_inverse(2))),
        ("left graph of a Brandt semigroup",
         pig.left_pig(families.brandt(families.cyclic_group(2), 2))),
    ]
    for name, g in named:
        _check(checks, f"twin eigenvalue bounds on {name}",
               _twin_bounds(g)[0])

    _trials(checks, "twin eigenvalue bounds on random blow-ups", seed, rng,
            25, lambda rng: {"g": skeletal.blow_up(
                **_blow_up_case(rng, 4))[0]}, _twin_bounds)

    # K4 onto K2 with a triangle merged: s = 1 is the degree in K2 of the
    # triangle's image, and s+1 should be a Laplacian eigenvalue of K4
    s = graphs.complete_graph(2).degree(0)
    mult = spectral.eigen_multiplicity(
        spectral.graph_matrix(graphs.complete_graph(4), "L"), s + 1)
    _check(checks,
           "quotient-degree constant s+1 fails on the K4/K2 instance "
           "(documented erratum)",
           mult == 0, f"s+1={s + 1} has multiplicity {mult}")
    return SuiteResult("spectral", tuple(checks))


def suite_green() -> SuiteResult:
    checks = []
    # each sample with its L-classes, the one-element ideal recount and
    # its idempotents
    samples = [(s, l_classes(s),
                [principal_left_ideal(s, a) for a in range(s.order)],
                s.idempotents) for s in (
        families.symmetric_inverse(2),
        families.symmetric_inverse(3),
        families.brandt(families.cyclic_group(2), 2),
        families.subset_meet_semilattice(3),
    )]
    _check(checks, "classes are exactly ideal-equality classes",
           all(lp.map == graphs.partition_by_key(ideals).map
               for _, lp, ideals, _ in samples))
    _check(checks, "each class of an inverse semigroup has one idempotent",
           all(sorted(lp.map[e] for e in idem)
               == list(range(lp.codomain_order))
               for _, lp, _, idem in samples))
    _check(checks, "ideal intersection of idempotents is the product ideal",
           all(ideals[e] & ideals[f] == ideals[s.table[e][f]]
               for s, _, ideals, idem in samples
               for e in idem for f in idem))
    return SuiteResult("green", tuple(checks))


# every suite by name, in the order "all" runs them
_RUNNERS = {
    "green": lambda **_: suite_green(),
    "isn": lambda n, **_: suite_isn(n),
    "brandt": lambda group_order, indices, **_: suite_brandt(group_order,
                                                             indices),
    "semilattice": lambda n, **_: suite_semilattice(n),
    "skeletal": lambda seed, **_: suite_skeletal(seed),
    "spectral": lambda seed, **_: suite_spectral(seed),
}
SUITES = ("all", *_RUNNERS)


def run_suite(name: str, *, n: int = 3, group_order: int = 2,
              indices: int = 2, seed: int = 0) -> list:
    """Run one suite (or all of them); returns a list of SuiteResult."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    # before any suite runs: the semilattice's bound is the tightest
    if name == "all" and not 1 <= n <= families.SEMILATTICE_MAX:
        raise SizeLimitExceeded(
            f"suite all supports 1 <= n <= {families.SEMILATTICE_MAX}")
    return [_RUNNERS[k](n=n, group_order=group_order, indices=indices,
                        seed=seed)
            for k in (_RUNNERS if name == "all" else [name])]
