"""Order unit spaces, symmetric cones, Thompson-metric geometry, and
verified recovery of Jordan products from order-reversing gauge maps."""

from .cones import (
    ConeSpec,
    DirectSum,
    Lorentz,
    Orthant,
    OrderUnitSpace,
    SymPSD,
    cone_contains,
    cone_from_json,
    cone_to_json,
    default_unit,
    gauge_M,
    gauge_M_bisect,
    gauge_m,
    gauge_m_bisect,
    make_space,
    membership_slack,
    order_unit_norm,
    order_unit_norm_bisect,
    sample_interior,
    smat,
    svec,
    thompson_distance,
    vector_from_json,
    vector_to_json,
    verify_cone_geometry,
)
from .errors import (
    AssemblyError,
    DerivativeDomainError,
    DimensionMismatchError,
    ExtractionError,
    NotInteriorError,
    NotInvertibleError,
    PipelineInconsistencyError,
    SingularMatrixError,
    SymconeError,
    UnsupportedConeError,
)
from .extremal import (
    ExtremalVector,
    PureState,
    check_order_interval_segment,
    check_state_gauge_identity,
    check_strong_atomicity,
    extremal_for_state,
    pure_states,
    state_extremal_pairs,
)
from .gauge_maps import (
    Compose,
    ComponentwisePower,
    Inversion,
    LinearConjugate,
    Recovered,
    conjugated_inversion,
    identity_map,
    map_from_json,
    map_to_json,
    random_cone_automorphism,
    verify_gauge_preserving,
    verify_gauge_reversing,
)
from .jordan import (
    AlgebraHandle,
    ProductTensor,
    builtin_algebra,
    check_jb_norm_conditions,
    check_qj_axioms,
)
from .linalg import mat_inverse, solve_linear, sym_eig
from .reconstruction import (
    DerivativeAtPoint,
    QuadraticRep,
    assemble_derivative,
    cross_validate,
    extract_product,
    hua_directional_derivative,
    inversion_j,
    quad_rep_full,
    quad_rep_interior,
    symmetry_at,
    verify_reconstruction,
)
from .report import PropertyResult, VerificationReport, canonical_json, merge_reports

__version__ = "0.1.0"
