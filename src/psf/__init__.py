"""Exact construction, verification and decomposition of normal pseudomanifolds."""

from .complexes import (
    Complex,
    ComplexError,
    DuplicateVertexInFacet,
    FaceNotPresent,
    MixedDimension,
    OutOfRange,
    Simplex,
    UnknownVertex,
    VertexOverlap,
    from_facets,
    is_isomorphic,
    join,
    simplex,
)
from .enumeration import DimensionTooSmall, FVector, GVector, f_vector, g1, g2, g3, h_vector
from .build import (
    SplitMix64,
    boundary_simplex,
    cone,
    connected_sum,
    check_edge_fold_admissible,
    check_handle_admissible,
    check_vertex_fold_admissible,
    edge_fold,
    facet_subdivision,
    handle_addition,
    one_vertex_suspension,
    stacked_sphere,
    vertex_fold,
)
from .verify import (
    NormalityReport,
    OptimalityResult,
    SingularityVerdict,
    classify_vertex,
    classify_vertices,
    homology_gf2,
    is_normal_pseudomanifold,
    is_pseudomanifold,
    is_pure,
    is_stacked_sphere,
    is_strongly_connected,
    optimality_check,
    singular_vertices,
)
from .separation import (
    MissingFacetClass,
    SeparationReport,
    classify_missing_facet,
    separates_link,
    separates_link_poset,
    separation_report,
    two_sided,
)
from .decompose import (
    DecompositionTree,
    MODE_EDGE,
    MODE_ONE,
    MODE_SUSPENSION,
    decompose,
    edge_unfold,
    inverse_facet_subdivision,
    rebuild,
    recognize_one_vertex_suspension,
    split_connected_sum,
    vertex_unfold,
)

__all__ = [name for name in dir() if not name.startswith("_")]
