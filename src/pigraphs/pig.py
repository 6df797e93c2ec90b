"""Principal ideal graphs and their L/R-class quotients.

Vertices of the full graph are the nonzero elements in element order;
two are adjacent when their principal (left or right) ideals share a
nonzero element.  The quotient graph has one vertex per nonzero L-class
(or R-class), ordered by minimal representative: the partition quotient
of the full graph by equal ideals, which verify_skeletal certifies
skeletal.  Vertices carry their elements' labels (the index when the
table has none); a quotient vertex is "[x]", x its least member's.
"""

from .errors import EmptyVertexSet, IsomorphismCheckFailed, \
    NotInverseSemigroup
from .graphs import Graph, VertexMap, _trusted_graph, \
    mask_intersection_graph, partition_by_key
from .semigroups import Semigroup, check_involution
from .skeletal import _checked_quotient, verify_skeletal


def pig_vertices(s: Semigroup) -> list:
    """Element indices serving as graph vertices: everything but the zero."""
    verts = [x for x in range(s.order) if x != s.zero]
    if not verts:
        raise EmptyVertexSet("semigroup has no nonzero elements")
    return verts


def _pig(s: Semigroup, ideals) -> Graph:
    verts = pig_vertices(s)
    nonzero = sum(1 << v for v in verts)
    return mask_intersection_graph([ideals[v] & nonzero for v in verts],
                                   tuple(map(s.label, verts)))


def left_pig(s: Semigroup) -> Graph:
    return _pig(s, s.left_ideals)


def right_pig(s: Semigroup) -> Graph:
    return _pig(s, s.right_ideals)


def left_pig_inverse_fast(s: Semigroup) -> Graph:
    """Adjacency via the inverse-semigroup criterion x * inv(y) != zero,
    recounted from the |E|^2 idempotent products (Howie 1995, section 5.1).

    With e = inv(x)*x, f = inv(y)*y: x * inv(y) = x*e*f*inv(y) and e*f =
    inv(x)*(x * inv(y))*y, so x * inv(y) != 0 iff e*f != 0, iff below[e]
    meets below[f], below[e] being the idempotents g = g*e != 0 (each is
    some inv(x)*x): e*f lies in both if nonzero, g in both has g*e*f = g.
    """
    inv = s.inverses
    if inv is None:
        raise NotInverseSemigroup("the criterion needs an inverse semigroup")
    t = s.table
    domains = {x: t[inv[x]][x] for x in pig_vertices(s)}
    below = dict.fromkeys(domains.values(), 0)
    for g in below:
        row = t[g]
        for e in below:
            if row[e] == g:
                below[e] |= 1 << g
    return _pig(s, {x: below[e] for x, e in domains.items()})


def _s_pig(s: Semigroup, keys, graph):
    """graph, the ideal graph on keys, over their partition, checked.

    No table fails it, associative or not: a nonzero vertex b's key
    holds b, or a product r of b's whose key _ideals reuses, and r is
    nonzero (the zero's key is the zero alone; so would b's be, and b
    the zero).  So equal keys meet, their vertices are closed twins,
    and merging closed twins is skeletal (skeletal._blocks_are_skeletal)."""
    verts = pig_vertices(s)
    quotient, phi = _checked_quotient(
        graph, partition_by_key([keys[v] for v in verts]))
    return _trusted_graph(quotient.adj,
                          tuple(f"[{x}]" for x in quotient.labels)), phi


def s_left_pig(s: Semigroup, left):
    """L-class quotient of left = left_pig(s), with the quotient map."""
    return _s_pig(s, s.left_ideals, left)


def s_right_pig(s: Semigroup, right):
    """R-class quotient of right = right_pig(s), with the quotient map."""
    return _s_pig(s, s.right_ideals, right)


def s_pig_class_elements(s: Semigroup, phi: VertexMap) -> list:
    """Element indices per quotient vertex, read off the quotient map phi
    that s_left_pig or s_right_pig returned."""
    verts = pig_vertices(s)
    return [[verts[v] for v in cls] for cls in phi.classes]


def involution_pig_isomorphism(s: Semigroup, left, right) -> list:
    """The verified isomorphism x -> inv(x) from left = left_pig(s) onto
    right = right_pig(s), in vertex positions: entry i is the right
    vertex matching left vertex i."""
    sigma = s.inverses
    if sigma is None:
        raise NotInverseSemigroup("the semigroup is not inverse")
    if not check_involution(s, sigma):
        raise NotInverseSemigroup("the inverse map is not an involution")
    verts = pig_vertices(s)
    pos = {v: i for i, v in enumerate(verts)}
    phi = VertexMap(tuple(pos[sigma[v]] for v in verts))
    if not verify_skeletal(left, right, phi).is_skeletal:
        raise IsomorphismCheckFailed(
            "involution did not carry the left graph onto the right graph")
    return list(phi.map)
