"""Character variety of the generalized four-holed sphere.

Explicit parabolic representations in cross-ratio coordinates (a, b, c),
the level function kappa = tr CBA, mapping-class involution dynamics with
fundamental-domain reduction, collar-type inequality certificates,
Weil-Petersson volumes, simple-loop growth censuses, and the hyperbolic
cone-metric certificate.
"""

from .charvar import (
    BoundaryData,
    BoundaryKind,
    CbaFixedPoint,
    Component,
    CuspGeometry,
    GeometricPoint,
    InequalityReport,
    ParamTriple,
    PolygonCertificate,
    RepresentationMatrices,
    boundary_data,
    c_from_level,
    cba_fixed_point,
    component_of,
    cusp_geometry,
    inequality_report,
    kappa_of,
    matrices_from_triple,
    polygon_certificate,
    simple_length,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .growth import (
    CensusRow,
    GrowthReport,
    TreeNode,
    bowditch_check,
    expand_tree,
    length_census,
)
from .mcg import (
    Automorphism,
    FreeWord,
    Involution,
    InvolutionWord,
    NAMED_AUTOMORPHISMS,
    PHI_ALPHA,
    PHI_BETA,
    PHI_GAMMA,
    ReductionTrace,
    apply_involution,
    apply_word,
    fixed_locus_report,
    in_fundamental_domain,
    induced_map,
    reduce_to_domain,
)
from .mobius import (
    INF,
    FixedPointKind,
    FixedPointSet,
    IsometryClass,
    IsometryType,
    UnimodularMatrix,
    apply_mobius,
    classify,
    elliptic_real_part_sign,
    fixed_points,
)
from .volume import (
    DarbouxCheck,
    DerivativeRelation,
    FNCoordinates,
    QuadratureConfig,
    SymplecticDensity,
    VolumeResult,
    axis_endpoints,
    darboux_check,
    derivative_relation_check,
    domain_volume,
    fenchel_nielsen,
    moduli_from_domain,
    moduli_volume,
    symplectic_consistency,
    volume_polynomials,
    volume_table,
    wp_density,
)

__version__ = "0.1.0"
