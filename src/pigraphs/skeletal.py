"""Skeletal homomorphisms: verification, twin quotients, skeleton tests.

A surjective vertex map phi: G -> H is skeletal when two vertices of G
are adjacent iff their images are equal or adjacent in H.  Merging is
possible exactly between closed twins (adjacent vertices with the same
closed neighborhood), which gives a polynomial-time skeleton test; the
partition brute force below stays available as the independent oracle.
"""

from dataclasses import dataclass

from .errors import (
    InconsistentQuotient,
    IsomorphismCheckFailed,
    NotSkeletal,
    NotSurjective,
    SizeLimitExceeded,
    SizeMismatch,
)
from .graphs import Graph, bits, induced_subgraph, verify_isomorphism
from .green import Partition, partition_from_groups

BRUTE_MAX_ORDER = 8


@dataclass(frozen=True)
class VertexMap:
    """A surjective vertex map, stored as codomain ids per domain vertex."""

    domain_order: int
    codomain_order: int
    map: tuple

    def __post_init__(self):
        if len(self.map) != self.domain_order:
            raise SizeMismatch("map length differs from domain order")
        if set(self.map) != set(range(self.codomain_order)):
            raise NotSurjective("map does not cover the codomain")

    def __getitem__(self, v: int) -> int:
        return self.map[v]

    def fibre(self, v: int) -> list:
        return [u for u in range(self.domain_order) if self.map[u] == v]


@dataclass(frozen=True)
class SkeletalReport:
    is_skeletal: bool
    witness: tuple | None
    fibre_sizes: tuple


def verify_skeletal(g: Graph, h: Graph, phi: VertexMap) -> SkeletalReport:
    """Check the adjacency-iff condition on every vertex pair of g."""
    if phi.domain_order != g.order or phi.codomain_order != h.order:
        raise SizeMismatch("map does not fit the given graphs")
    sizes = [0] * h.order
    for v in phi.map:
        sizes[v] += 1
    for a in range(g.order):
        pa = phi[a]
        for b in range(a + 1, g.order):
            pb = phi[b]
            expected = pa == pb or h.has_edge(pa, pb)
            if g.has_edge(a, b) != expected:
                return SkeletalReport(False, (a, b), tuple(sizes))
    return SkeletalReport(True, None, tuple(sizes))


def twin_partition(g: Graph) -> Partition:
    """Partition into closed-twin classes (equal closed neighborhoods).

    Equal closed neighborhoods force adjacency, so grouping by the
    closed-neighborhood bit-set is transitive by construction.
    """
    groups = {}
    for v in range(g.order):
        groups.setdefault(g.adj[v] | 1 << v, []).append(v)
    return partition_from_groups(g.order, groups.values())


def quotient_by_partition(g: Graph, partition: Partition):
    """Quotient graph with block adjacency = any cross edge, plus the map.

    The result is only claimed to be skeletal for twin partitions; use
    verify_skeletal to check arbitrary partitions.
    """
    blocks = partition.classes
    adj = [0] * len(blocks)
    for i, bi in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            if any(g.has_edge(u, v) for u in bi for v in blocks[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    labels = None
    if g.labels is not None:
        labels = tuple(g.label(min(b)) for b in blocks)
    h = Graph(len(blocks), tuple(adj), labels)
    phi = VertexMap(g.order, len(blocks), tuple(partition.class_of))
    return h, phi


def max_skeletal(g: Graph):
    """The smallest skeletal of g: the quotient by closed-twin classes."""
    h, phi = quotient_by_partition(g, twin_partition(g))
    report = verify_skeletal(g, h, phi)
    if not report.is_skeletal:
        raise InconsistentQuotient(
            f"twin quotient failed the skeletal check at {report.witness}")
    return h, phi


def is_skeleton(g: Graph) -> bool:
    """True iff no proper skeletal exists, i.e. all twin classes are trivial."""
    return twin_partition(g).size == g.order


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def brute_force_has_proper_skeletal(g: Graph) -> bool:
    """Oracle: search all vertex partitions with a non-trivial block."""
    if g.order > BRUTE_MAX_ORDER:
        raise SizeLimitExceeded(
            f"partition search guarded at order {BRUTE_MAX_ORDER}")
    for blocks in _set_partitions(list(range(g.order))):
        if all(len(b) == 1 for b in blocks):
            continue
        partition = partition_from_groups(g.order, blocks)
        h, phi = quotient_by_partition(g, partition)
        if verify_skeletal(g, h, phi).is_skeletal:
            return True
    return False


def has_two_block_skeletal(g: Graph) -> bool:
    """Whether some surjection onto K2 (one edge, two vertices) is skeletal."""
    if g.order < 2:
        return False
    k2 = Graph(2, (2, 1))
    for mask in range(1, 1 << (g.order - 1)):
        phi = VertexMap(g.order, 2,
                        tuple(mask >> v & 1 for v in range(g.order)))
        if verify_skeletal(g, k2, phi).is_skeletal:
            return True
    return False


def compose_skeletal(g: Graph, h: Graph, k: Graph,
                     phi: VertexMap, psi: VertexMap) -> VertexMap:
    """Compose two verified skeletal maps; the composite is verified too."""
    if not verify_skeletal(g, h, phi).is_skeletal:
        raise NotSkeletal("first map is not skeletal")
    if not verify_skeletal(h, k, psi).is_skeletal:
        raise NotSkeletal("second map is not skeletal")
    composed = VertexMap(g.order, k.order,
                         tuple(psi[phi[v]] for v in range(g.order)))
    if not verify_skeletal(g, k, composed).is_skeletal:
        raise NotSkeletal("composition of skeletals must be skeletal")
    return composed


def embedded_copy(g: Graph, h: Graph, phi: VertexMap):
    """An induced copy of h inside g on minimal fibre representatives.

    Returns (subgraph, bijection) where bijection[i] is the h-vertex of
    the i-th representative (representatives in ascending g order).
    """
    if not verify_skeletal(g, h, phi).is_skeletal:
        raise NotSkeletal("map is not skeletal")
    reps = sorted(min(phi.fibre(v)) for v in range(h.order))
    sub = induced_subgraph(g, reps)
    bijection = [phi[r] for r in reps]
    if not verify_isomorphism(sub, h, bijection):
        raise IsomorphismCheckFailed(
            "representatives do not induce a copy of the codomain")
    return sub, bijection


def fibre_subgraph_is_complete(g: Graph, phi: VertexMap, v: int,
                               h: Graph | None = None) -> bool:
    """Whether the fibre of v induces a complete subgraph of g."""
    if h is not None and not verify_skeletal(g, h, phi).is_skeletal:
        raise NotSkeletal("map is not skeletal")
    fibre = phi.fibre(v)
    return all(g.has_edge(a, b) for i, a in enumerate(fibre)
               for b in fibre[i + 1:])


def blow_up(g: Graph, sizes):
    """Replace vertex v by a clique of sizes[v] vertices with v's links.

    The collapse back onto g is skeletal by construction; used to plant
    twin classes for tests and the spectral suite.
    """
    if len(sizes) != g.order or any(s < 1 for s in sizes):
        raise SizeMismatch("blow_up needs one positive size per vertex")
    owner = []
    for v in range(g.order):
        owner.extend([v] * sizes[v])
    n = len(owner)
    adj = [0] * n
    for a in range(n):
        for b in range(a + 1, n):
            if owner[a] == owner[b] or g.has_edge(owner[a], owner[b]):
                adj[a] |= 1 << b
                adj[b] |= 1 << a
    big = Graph(n, tuple(adj))
    return big, VertexMap(n, g.order, tuple(owner))
