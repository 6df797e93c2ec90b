"""L/R class partitions and an independent one-element ideal recount.

The principal ideals themselves are cached attributes of the semigroup
(``s.left_ideals``, ``s.right_ideals``), bit-sets over element indices
(Python ints), so equality and intersection tests are single integer
operations.  They come from the generators' Cayley graphs, whose strongly
connected components are these classes, when the semigroup knows its
generators, else from its rows and columns.
"""

from .graphs import VertexMap, partition_by_key
from .semigroups import Semigroup


def principal_left_ideal(s: Semigroup, a: int) -> int:
    """Bit-set of {x*a : x in S} together with a itself, counted one
    product at a time."""
    return sum(1 << x for x in {row[a] for row in s.table}) | 1 << a


def l_classes(s: Semigroup) -> VertexMap:
    """Partition by equality of principal left ideals."""
    return partition_by_key(s.left_ideals)


def r_classes(s: Semigroup) -> VertexMap:
    """Partition by equality of principal right ideals."""
    return partition_by_key(s.right_ideals)
