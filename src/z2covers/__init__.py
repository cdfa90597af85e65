"""Exact construction and verification of Z2^n covers of P1 x (elliptic curve).

The package builds abelian cover data out of divisor classes on the
product of a rational and an elliptic curve, checks the defining
relations and the combinatorial smoothness criterion, evaluates the
numerical invariants and the degree of the canonical map, and can
re-check every group identity on a concrete elliptic curve over a small
prime field.  All arithmetic is exact.
"""

from .abgroup import GroupElement, GroupSpec, halvings
from .characters import (
    Character,
    CoverElement,
    nontrivial_characters,
    nontrivial_elements,
    pair,
)
from .construction import (
    construct_etale,
    construct_family,
    relations_table,
    render_relations_table,
    single_torsion_mutations,
)
from .cover import (
    BuildingData,
    ConsistencyError,
    Fiber,
    SmoothnessReport,
    VerificationReport,
    branch_class,
    derive_from_generators,
    verify_relations,
    verify_smoothness,
)
from .curve_oracle import (
    Assignment,
    CurveOverFp,
    INFINITY,
    RealizationReport,
    find_assignment,
    realize,
)
from .invariants import (
    CanonicalMapReport,
    CoverInvariants,
    canonical_map_degree,
    compute_invariants,
)
from .picard import (
    MapReport,
    SurfaceClass,
    canonical_class,
    elliptic_fiber_class,
    h0,
    intersect,
    is_base_point_free,
    map_analysis,
)

__all__ = [
    "Assignment",
    "BuildingData",
    "CanonicalMapReport",
    "Character",
    "ConsistencyError",
    "CoverElement",
    "CoverInvariants",
    "CurveOverFp",
    "Fiber",
    "GroupElement",
    "GroupSpec",
    "INFINITY",
    "MapReport",
    "RealizationReport",
    "SmoothnessReport",
    "SurfaceClass",
    "VerificationReport",
    "branch_class",
    "canonical_class",
    "canonical_map_degree",
    "compute_invariants",
    "construct_etale",
    "construct_family",
    "derive_from_generators",
    "elliptic_fiber_class",
    "find_assignment",
    "h0",
    "halvings",
    "intersect",
    "is_base_point_free",
    "map_analysis",
    "nontrivial_characters",
    "nontrivial_elements",
    "pair",
    "realize",
    "relations_table",
    "render_relations_table",
    "single_torsion_mutations",
    "verify_relations",
    "verify_smoothness",
]

__version__ = "0.1.0"
