"""Skeletal homomorphisms: verification, twin quotients, skeleton tests.

A surjective vertex map phi: G -> H is skeletal when two vertices of G
are adjacent iff their images are equal or adjacent in H; a bijective
one is an isomorphism, which verify_skeletal thus checks too.  Merging
is possible exactly between closed twins (adjacent vertices with the
same closed neighborhood), which gives a polynomial-time skeleton test.
The independent oracle, brute_force_has_proper_skeletal, is exhaustive:
it tries all Bell(n) - 1 partitions with a non-trivial block (guarded
at order 8; built once per order and shared, none pruned) in closed-row
form: one closed row per block, a union of blocks.
"""

from collections import Counter
from dataclasses import dataclass
from functools import cache

from .errors import (
    InconsistentQuotient,
    IsomorphismCheckFailed,
    NotSkeletal,
    SizeLimitExceeded,
    SizeMismatch,
)
from .graphs import Graph, VertexMap, _trusted_graph, induced_subgraph, \
    partition_by_key

BRUTE_MAX_ORDER = 8


@dataclass(frozen=True)
class SkeletalReport:
    is_skeletal: bool
    witness: tuple | None
    fibre_sizes: tuple


def verify_skeletal(g: Graph, h: Graph, phi: VertexMap) -> SkeletalReport:
    """Check the adjacency-iff condition on every vertex pair of g.

    Row by row: the closed neighbourhood of a must be the preimage of the
    closed neighbourhood of phi(a), pulled back once per distinct closed
    row of h.  The witness, the first failing pair (a, b) with a < b, is
    the lowest differing bit of the first differing row: a failing (c, a)
    with c < a would make row c differ earlier.
    """
    if phi.domain_order != g.order or phi.codomain_order != h.order:
        raise SizeMismatch("map does not fit the given graphs")
    sizes = tuple(map(Counter(phi.map).__getitem__, range(h.order)))
    closed = [row | 1 << p for p, row in enumerate(h.adj)]
    expected = {c: phi.preimage(c) for c in set(closed)}
    for a, p in enumerate(phi.map):
        diff = (g.adj[a] | 1 << a) ^ expected[closed[p]]
        if diff:
            return SkeletalReport(
                False, (a, (diff & -diff).bit_length() - 1), sizes)
    return SkeletalReport(True, None, sizes)


def twin_partition(g: Graph) -> VertexMap:
    """Partition into closed-twin classes (equal closed neighborhoods).

    Equal closed neighborhoods force adjacency, so grouping by the
    closed-neighborhood bit-set is transitive by construction.
    """
    return partition_by_key([row | 1 << v for v, row in enumerate(g.adj)])


def quotient_by_partition(g: Graph, phi: VertexMap) -> Graph:
    """Quotient graph whose blocks are the fibres of phi.

    Block i is adjacent to block j != i when the union of the rows of i's
    members meets j's members (any cross edge).  The result is only
    claimed to be skeletal for twin partitions; use verify_skeletal to
    check arbitrary partitions.
    """
    if phi.domain_order != g.order:
        raise SizeMismatch("map length differs from graph order")
    reach = [0] * phi.codomain_order
    for v, i in enumerate(phi.map):
        reach[i] |= g.adj[v]
    adj = [sum(1 << j for j, m in enumerate(phi.masks) if r & m and j != i)
           for i, r in enumerate(reach)]
    labels = None if g.labels is None else tuple(
        g.label(b[0]) for b in phi.classes)
    return _trusted_graph(tuple(adj), labels)


def _checked_quotient(g: Graph, phi: VertexMap):
    """The partition quotient; InconsistentQuotient unless it is skeletal."""
    h = quotient_by_partition(g, phi)
    witness = verify_skeletal(g, h, phi).witness
    if witness is not None:
        raise InconsistentQuotient(
            f"quotient is not skeletal at the vertex pair {witness}", witness)
    return h, phi


def max_skeletal(g: Graph):
    """The smallest skeletal of g: the quotient by closed-twin classes."""
    return _checked_quotient(g, twin_partition(g))


def is_skeleton(g: Graph) -> bool:
    """True iff no proper skeletal exists, i.e. all twin classes are trivial."""
    return twin_partition(g).codomain_order == g.order


@cache
def _block_partitions(n: int) -> tuple:
    """Every partition of range(n) once, as a tuple of block member masks,
    built once per order and shared (tuples of ints: immutable).  Vertex
    n-1 joins a block of a partition of range(n-1) or opens one, so block
    minima ascend: one growth order per partition."""
    if n == 0:
        return ((),)
    bit = 1 << n - 1
    return tuple(blocks[:i] + (blocks[i] | bit,) + blocks[i + 1:]
                 if i < len(blocks) else blocks + (bit,)
                 for blocks in _block_partitions(n - 1)
                 for i in range(len(blocks) + 1))


def _blocks_are_skeletal(closed, blocks) -> bool:
    """Whether the any-cross-edge quotient by blocks is skeletal: iff each
    block's members share one closed row (closed[a] is a's), a union of
    blocks.  (=>) A block's members are adjacent, and each closed row is
    the preimage of the block's closed row.  (<=) A vertex of another block
    is in that row iff its block is, iff a cross edge joins the two, iff
    they are adjacent.  Shared rows imply the union, but without its test
    the oracle would decide the twin theorem, not the skeletal definition."""
    for members in blocks:
        low = members & -members
        row = closed[low.bit_length() - 1]
        members ^= low
        while members:
            low = members & -members
            if closed[low.bit_length() - 1] != row:
                return False
            members ^= low
        for b in blocks:
            if b & row and b & ~row:
                return False
    return True


def brute_force_has_proper_skeletal(g: Graph) -> bool:
    """Oracle: try every vertex partition with a non-trivial block."""
    if g.order > BRUTE_MAX_ORDER:
        raise SizeLimitExceeded(
            f"partition search guarded at order {BRUTE_MAX_ORDER}")
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    return any(len(blocks) < g.order and _blocks_are_skeletal(closed, blocks)
               for blocks in _block_partitions(g.order))


def has_two_block_skeletal(g: Graph) -> bool:
    """Whether some surjection onto K2 (one edge, two vertices) is skeletal:
    every closed row must then hold both blocks, so iff g is complete with
    order >= 2.  The mask search, guarded at order 8, stays the oracle."""
    if g.order > BRUTE_MAX_ORDER:
        raise SizeLimitExceeded(
            f"two-block mask search guarded at order {BRUTE_MAX_ORDER}")
    closed = [row | 1 << v for v, row in enumerate(g.adj)]
    full = (1 << g.order) - 1
    # n-1 is never in mask; in a skeletal quotient its block shares its closed
    # row, which meets mask iff the blocks are joined (K2, not two vertices)
    return any(closed[-1] & mask
               and _blocks_are_skeletal(closed, (mask, full ^ mask))
               for mask in range(1, (1 << g.order) >> 1))


def compose_skeletal(g: Graph, h: Graph, k: Graph,
                     phi: VertexMap, psi: VertexMap) -> VertexMap:
    """Compose two verified skeletal maps; the composite is verified too."""
    if not verify_skeletal(g, h, phi).is_skeletal:
        raise NotSkeletal("first map is not skeletal")
    if not verify_skeletal(h, k, psi).is_skeletal:
        raise NotSkeletal("second map is not skeletal")
    composed = VertexMap(tuple(psi.map[p] for p in phi.map))
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
    reps = sorted(fibre[0] for fibre in phi.classes)
    sub = induced_subgraph(g, reps)
    copy = VertexMap(tuple(phi.map[r] for r in reps))
    if not verify_skeletal(sub, h, copy).is_skeletal:
        raise IsomorphismCheckFailed(
            "representatives do not induce a copy of the codomain")
    return sub, list(copy.map)


def fibre_subgraph_is_complete(g: Graph, phi: VertexMap, v: int) -> bool:
    """Whether the fibre of v induces a complete subgraph of g."""
    fibre = phi.classes[v]
    return all(g.has_edge(a, b) for i, a in enumerate(fibre)
               for b in fibre[i + 1:])


def blow_up(g: Graph, sizes):
    """Replace vertex v by a clique of sizes[v] vertices with v's links.

    The collapse back onto g is skeletal by construction; used to plant
    twin classes for tests and the spectral suite.
    """
    if len(sizes) != g.order or any(s < 1 for s in sizes):
        raise SizeMismatch("blow_up needs one positive size per vertex")
    owner = [v for v in range(g.order) for _ in range(sizes[v])]
    collapse = VertexMap(tuple(owner))
    # a's closed row is the preimage of v's closed row
    closed = [collapse.preimage(row | 1 << v) for v, row in enumerate(g.adj)]
    adj = [closed[v] & ~(1 << a) for a, v in enumerate(owner)]
    return Graph(tuple(adj)), collapse
