"""Principal ideal graphs of finite semigroups, skeletal quotients, and
exact spectral verification."""

from .families import (
    PartialBijection,
    all_partial_bijections,
    brandt,
    cyclic_group,
    left_zero,
    partial_bijection_count,
    subset_meet_semilattice,
    symmetric_inverse,
)
from .graphs import (
    Graph,
    VertexMap,
    are_isomorphic,
    components,
    degree_of_subset_vertex,
    graph_stats,
    intersection_graph,
    verify_isomorphism,
)
from .green import l_classes, principal_left_ideal, r_classes
from .pig import (
    involution_pig_isomorphism,
    isn_left_pig,
    left_pig,
    left_pig_inverse_fast,
    right_pig,
    s_left_pig,
    s_right_pig,
)
from .semigroups import (
    Semigroup,
    adjoin_zero,
    check_involution,
    from_cayley_table,
    idempotents,
    inverses,
)
from .skeletal import (
    SkeletalReport,
    brute_force_has_proper_skeletal,
    compose_skeletal,
    embedded_copy,
    fibre_subgraph_is_complete,
    is_skeleton,
    max_skeletal,
    twin_partition,
    verify_skeletal,
)
from .spectral import (
    eigen_multiplicity,
    graph_matrix,
    integer_rank,
    twin_spectral_report,
)

__version__ = "0.1.0"
