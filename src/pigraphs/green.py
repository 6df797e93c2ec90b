"""Principal one-sided ideals and the L/R class partitions.

Ideals are bit-sets over element indices (Python ints), so equality and
intersection tests are single integer operations.
"""

from .graphs import VertexMap, partition_by_key
from .semigroups import Semigroup


def _ideal(a: int, products) -> int:
    """Bit-set of the given products together with a itself."""
    return sum(map((1).__lshift__, set(products))) | 1 << a


def principal_left_ideal(s: Semigroup, a: int) -> int:
    """Bit-set of {x*a : x in S} together with a itself."""
    return _ideal(a, (row[a] for row in s.table))


def left_ideals(s: Semigroup) -> list:
    """Every principal left ideal, each read off its column of the table."""
    return [_ideal(a, col) for a, col in enumerate(zip(*s.table))]


def right_ideals(s: Semigroup) -> list:
    """Every principal right ideal, each read off its row of the table."""
    return [_ideal(a, row) for a, row in enumerate(s.table)]


def l_classes(s: Semigroup) -> VertexMap:
    """Partition by equality of principal left ideals."""
    return partition_by_key(left_ideals(s))


def r_classes(s: Semigroup) -> VertexMap:
    """Partition by equality of principal right ideals."""
    return partition_by_key(right_ideals(s))
