"""Commutator presentations of the strand groups of linear trees.

The pipeline: parse a tree with a marked endpoint, read the arm count of
each star (branch vertex) along its spine, enumerate each star's free
basis, and glue the pieces into a presentation whose only relations are
commutators (the data of a defining graph).  An independent
discretized-configuration cube complex with exact integer homology
cross-checks the result.
"""
from .trees import (
    InvalidTreeError,
    NotLinearError,
    ParseError,
    Tree,
    TreeError,
    decompose,
    load_tree,
    make_tree,
    parse_tree,
    subdivide_edges,
    validate_linear,
)
from .stars import (
    StarEdge,
    TypeIVertex,
    TypeIIVertex,
    add_strand,
    basis,
    capacity,
    rank,
    spanning_tree,
    successor,
    type2_vertices,
)
from .presentation import (
    Generator,
    Presentation,
    StabilizationMap,
    assemble,
    commutation_predicate,
    export,
    stabilize,
)
from .cubes import (
    BoundaryMatrix,
    CubeComplex,
    HomologyReport,
    ResourceCapError,
    betti,
    build_complex,
    pi1_presentation,
    raag_clique_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
