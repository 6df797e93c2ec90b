"""Simple undirected graphs with bit-set adjacency rows, and vertex maps.

Adjacency rows are Python ints used as bit-sets; row v has bit u set iff
u and v are adjacent.  All graphs are simple: symmetric and irreflexive.
A VertexMap's fibres partition its domain, so it also stands for partitions;
its preimage pulls a codomain vertex set back onto the domain.
"""

from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from .errors import IndexOutOfRange, MalformedDocument, NotSimpleGraph, \
    NotSurjective, SizeLimitExceeded, SizeMismatch

ISO_MAX_ORDER = 63
# graphs read or built from edges, and tables read whole: small enough for
# an n x n matrix, above every family but IS_6 (13,327 elements; the others
# have at most 1,546), whose 13,326-vertex graphs stay in memory only
GRAPH_MAX_ORDER = 4096


def bits(mask: int):
    """Yield the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    adj: tuple
    labels: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "order", len(self.adj))
        _check_labels(self.labels, self.order)
        full = (1 << self.order) - 1
        for v, row in enumerate(self.adj):
            if row & ~full:
                raise IndexOutOfRange(f"adjacency bit of row {v} out of range")
            if row >> v & 1:
                raise NotSimpleGraph(f"vertex {v} has a loop")
            for u in bits(row):
                if not self.adj[u] >> v & 1:
                    raise NotSimpleGraph(f"edge {v}-{u} is not symmetric")

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list:
        return [(u, v) for u in range(self.order)
                for v in bits(self.adj[u] & -(2 << u))]

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)


@dataclass(frozen=True)
class VertexMap:
    """A surjection onto range(codomain_order), stored as the codomain id
    of each domain vertex; its fibres partition the domain.  Both orders
    are read off the map: its length and its count of distinct ids."""

    map: tuple

    def __post_init__(self):
        ids = set(self.map)
        if ids != set(range(len(ids))):
            raise NotSurjective("map does not cover the codomain")
        object.__setattr__(self, "domain_order", len(self.map))
        object.__setattr__(self, "codomain_order", len(ids))

    @cached_property
    def masks(self) -> tuple:
        """The fibre over each codomain vertex, as a bit-mask."""
        masks = [0] * self.codomain_order
        for a, p in enumerate(self.map):
            masks[p] |= 1 << a
        return tuple(masks)

    @cached_property
    def classes(self) -> tuple:
        """The fibre over each codomain vertex, as ascending members."""
        return tuple(tuple(bits(m)) for m in self.masks)

    @cached_property
    def _pull(self):
        # character -1 - q of a mask's bit string is bit q; the gathered
        # string is big-endian in the domain
        return itemgetter(*(-1 - p for p in reversed(self.map)))

    def preimage(self, mask: int) -> int:
        """The domain vertices whose images lie in mask, as a bit-mask:
        one gather of mask's bit string, so bit a is bit map[a] of mask."""
        if not self.domain_order:
            return 0
        return int("".join(
            self._pull(format(mask, f"0{self.codomain_order}b"))), 2)


def partition_by_key(keys) -> VertexMap:
    """Vertices u and v share a class iff keys[u] == keys[v].

    Classes are numbered by first occurrence, so by minimal member.
    """
    ids = {}
    class_of = tuple(ids.setdefault(key, len(ids)) for key in keys)
    return VertexMap(class_of)


def _check_labels(labels, n):
    """Accept no labels, or exactly n distinct strings in a list or tuple."""
    if labels is None:
        return
    if not (isinstance(labels, (list, tuple))
            and all(isinstance(x, str) for x in labels)):
        raise MalformedDocument("labels must be a list of strings")
    if len(labels) != n:
        raise SizeMismatch(f"{len(labels)} labels for order {n}")
    if len(set(labels)) != n:
        repeat = next(x for i, x in enumerate(labels) if labels.index(x) < i)
        raise MalformedDocument(f"label {repeat!r} repeats")


def subset_label(mask: int) -> str:
    members = [str(i) for i in range(mask.bit_length()) if mask >> i & 1]
    return "{" + ",".join(members) + "}"


def _trusted_graph(adj: tuple, labels=None) -> Graph:
    """A Graph from rows that are simple by construction, not re-validated."""
    g = object.__new__(Graph)
    g.__dict__.update(adj=adj, labels=labels, order=len(adj))
    return g


def from_edges(order: int, edges, labels=None) -> Graph:
    if type(order) is not int or order < 0:
        raise MalformedDocument(f"order {order!r} is not a natural number")
    if order > GRAPH_MAX_ORDER:
        raise SizeLimitExceeded(f"graph order {order} above {GRAPH_MAX_ORDER}")
    _check_labels(labels, order)
    adj = [0] * order
    for edge in edges:
        if not (isinstance(edge, (list, tuple)) and len(edge) == 2
                and type(edge[0]) is int and type(edge[1]) is int):
            raise MalformedDocument(f"edge {edge!r} is not a pair of integers")
        u, v = edge
        if not (0 <= u < order and 0 <= v < order):
            raise IndexOutOfRange(f"edge ({u}, {v}) not in [0, {order})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(tuple(adj), tuple(labels) if labels is not None else None)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(tuple(full ^ (1 << v) for v in range(n)))


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return from_edges(n, [(v, v + 1) for v in range(n - 1)])


def random_graph(n: int, p: float, rng) -> Graph:
    """Erdos-Renyi graph from a seeded random.Random instance."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    return from_edges(n, edges)


@dataclass(frozen=True)
class GraphStats:
    degrees: tuple
    edge_count: int
    is_connected: bool
    is_complete: bool
    is_null: bool
    components: int


def components(g: Graph) -> VertexMap:
    """Connected components as a vertex partition."""
    component_of = [0] * g.order
    for v in range(g.order):
        if component_of[v]:
            continue
        comp = 0
        frontier = 1 << v
        while frontier:
            comp |= frontier
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
        for u in bits(comp):
            component_of[u] = comp
    return partition_by_key(component_of)


def graph_stats(g: Graph) -> GraphStats:
    degrees = tuple(g.degree(v) for v in range(g.order))
    edge_count = sum(degrees) // 2
    count = components(g).codomain_order
    return GraphStats(
        degrees=degrees,
        edge_count=edge_count,
        is_connected=count <= 1,
        is_complete=all(d == g.order - 1 for d in degrees),
        is_null=edge_count == 0,
        components=count,
    )


def complement(g: Graph) -> Graph:
    full = (1 << g.order) - 1
    return Graph(tuple((full ^ g.adj[v]) & ~(1 << v) for v in range(g.order)),
                 g.labels)


def induced_subgraph(g: Graph, vertices) -> Graph:
    """Subgraph on the given vertices, kept in ascending vertex order."""
    verts = sorted(vertices)
    pos = {v: i for i, v in enumerate(verts)}
    adj = [0] * len(verts)
    for i, v in enumerate(verts):
        for u in bits(g.adj[v]):
            if u in pos:
                adj[i] |= 1 << pos[u]
    labels = tuple(g.label(v) for v in verts) if g.labels else None
    return Graph(tuple(adj), labels)


def mask_intersection_graph(masks, labels=None) -> Graph:
    """Vertex v per bit-mask masks[v]; u ~ v (u != v) iff their masks meet.

    Vertices with equal masks share one row, so only the distinct masks
    are intersected pairwise.  A zero mask leaves its vertex isolated.
    """
    groups = partition_by_key(masks)
    distinct = [masks[cls[0]] for cls in groups.classes]
    rows = [sum(vs for other, vs in zip(distinct, groups.masks) if m & other)
            for m in distinct]
    return _trusted_graph(
        tuple(rows[p] & ~(1 << v) for v, p in enumerate(groups.map)), labels)


def intersection_graph(n: int) -> Graph:
    """Intersection graph of the nonempty subsets of an n-set.

    Vertex k stands for bitmask k+1; labels spell the subsets out.
    """
    if not 1 <= n <= 6:
        raise SizeLimitExceeded("intersection_graph supports 1 <= n <= 6")
    masks = range(1, 1 << n)
    return mask_intersection_graph(masks,
                                   tuple(subset_label(m) for m in masks))


def degree_of_subset_vertex(n: int, k: int) -> int:
    """Closed-form degree 2^n - 2^(n-k) - 1 of a rank-k subset vertex."""
    if not 1 <= k <= n:
        raise IndexOutOfRange(f"subset rank {k} not in [1, {n}]")
    return (1 << n) - (1 << (n - k)) - 1


def are_isomorphic(g: Graph, h: Graph):
    """A vertex bijection preserving (non-)adjacency, or None.

    Degree colours are refined on the disjoint union of g and h (h's
    vertices shifted up by g's order), so both graphs share one set of
    colour ids; then a backtracking search over the colour classes;
    guarded at order ``ISO_MAX_ORDER``.
    """
    if g.order != h.order:
        return None
    if g.order > ISO_MAX_ORDER:
        raise SizeLimitExceeded(
            f"isomorphism search guarded at order {ISO_MAX_ORDER}")
    n = g.order
    adj = g.adj + tuple(row << n for row in h.adj)
    colour, classes = partition_by_key(row.bit_count() for row in adj), 0
    # a round only splits classes; stop after the first that splits none
    while colour.codomain_order > classes:
        classes, c = colour.codomain_order, colour.map
        colour = partition_by_key(
            (c[v], tuple(sorted(c[u] for u in bits(row))))
            for v, row in enumerate(adj))
    cg, ch = colour.map[:n], colour.map[n:]
    if sorted(cg) != sorted(ch):
        return None
    candidates = [[u for u in range(n) if ch[u] == cg[v]] for v in range(n)]
    order = sorted(range(n), key=lambda v: (len(candidates[v]), -g.degree(v)))
    mapping = [-1] * n

    def extend(i, used):
        if i == n:
            return True
        v = order[i]
        for u in candidates[v]:
            if not used >> u & 1 and all(
                    g.has_edge(v, w) == h.has_edge(u, mapping[w])
                    for w in order[:i]):
                mapping[v] = u
                if extend(i + 1, used | 1 << u):
                    return True
        return False

    return mapping if extend(0, 0) else None


def to_json_dict(g: Graph) -> dict:
    return {
        "order": g.order,
        "labels": list(g.labels) if g.labels is not None else None,
        "edges": [[u, v] for u, v in g.edges()],
    }


def from_json_dict(doc: dict) -> Graph:
    if not isinstance(doc, dict):
        raise MalformedDocument("a graph document must be a JSON object")
    for field in ("order", "edges"):
        if field not in doc:
            raise MalformedDocument(f"graph document has no '{field}' field")
    if not isinstance(doc["edges"], list):
        raise MalformedDocument("edges must be a list of pairs")
    return from_edges(doc["order"], doc["edges"], doc.get("labels"))


def _json_list(items, indent="  ") -> str:
    """Rendered JSON items laid out as json.dumps(..., indent=2) lays out a
    list that closes after indent: one a line, "[]" when there are none."""
    body = (",\n  " + indent).join(items)
    return f"[\n  {indent}{body}\n{indent}]" if body else "[]"


def to_json(g: Graph) -> str:
    """json.dumps(to_json_dict(g), indent=2) + "\n", written as text."""
    labels = "null" if g.labels is None else _json_list(
        map(encode_basestring_ascii, g.labels))
    edges = _json_list(f"[\n      {u},\n      {v}\n    ]"
                       for u, v in g.edges())
    return (f'{{\n  "order": {g.order},\n  "labels": {labels},\n'
            f'  "edges": {edges}\n}}\n')


def to_dot(g: Graph) -> str:
    # nodes are named by quoted label; \ goes first, so that the \ put
    # before each " is not doubled
    names = ['"' + g.label(v).replace("\\", "\\\\").replace('"', '\\"') + '"'
             for v in range(g.order)]
    lines = ["graph {"]
    lines += [f"  {names[v]};" for v in range(g.order) if g.adj[v] == 0]
    lines += [f"  {names[u]} -- {names[v]};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_list(g: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in g.edges())
