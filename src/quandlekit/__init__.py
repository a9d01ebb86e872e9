"""Finite racks/quandles, knot diagram colorings, homology, and cocycle
state-sum invariants."""

from .algebra import (
    AxiomCheck,
    GroupPresentation,
    RackTable,
    RackWord,
    abelian_extension,
    associated_group_presentation,
    check_axioms,
    evaluate_tree,
    evaluate_word,
    find_isomorphism,
    kei_normalize,
    make_alexander,
    make_conjugation,
    make_dihedral,
    make_trivial,
    parse_rack_table,
)
from .coloring import (
    Coloring,
    ShadowColoring,
    SurfaceColoring,
    count_colorings,
    enumerate_colorings,
    enumerate_shadow_colorings,
    enumerate_surface_colorings,
    lift_coloring,
)
from .diagram import (
    BraidWord,
    Crossing,
    CrossingRelation,
    Diagram,
    SurfaceDiagramData,
    braid_closure,
    mirror,
    parse_pd,
    parse_surface,
    presentation,
    regions,
    reverse,
    shadow_surface_data,
    torus_diagram,
)
from .errors import (
    BudgetError,
    DomainError,
    NonCocycleError,
    NonplanarError,
    NotARackError,
    ParseError,
    QuandleKitError,
)
from .homology import (
    AbelianGroup,
    BoundaryMatrix,
    ChainBasis,
    Cochain,
    CochainSpaces,
    boundary_matrix,
    chain_basis,
    coboundary,
    cohomology,
    homology,
    homology_mod,
    homology_with_coefficients,
    is_cocycle,
    parse_cochain,
    structure_report,
    uct_mod_dimension,
)
from .invariant import (
    GroupRingElement,
    state_sum_2,
    state_sum_shadow,
    state_sum_surface,
)

__version__ = "0.1.0"
