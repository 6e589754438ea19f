"""Numerical and exact verification toolkit for almost Hermitian geometry.

Given a coordinate patch carrying a metric and an almost complex structure,
the package computes adapted frames, Levi-Civita connection forms, the
Nijenhuis tensor (two independent routes), the pulled-back twistor 2-form
(two equivalent formulas), and the non-degeneracy margin, and it certifies
the inequality chain tying the margin to the squared Nijenhuis norm.  The
pointwise algebraic identities behind the chain are verified separately in
exact arithmetic, on seeded integer samples.
"""

from .errors import (
    BoundaryProximity,
    DegeneratePivot,
    FrameDiscontinuity,
    IncompatibleStructure,
    NotInSigma,
    SingularMetric,
    TwistorcheckError,
    WrongPatch,
)
from .geometry import (
    AdaptedFrame,
    ManifoldPatch,
    PointJet,
    adapt_frame,
    christoffel,
    field_derivative,
    j0_matrix,
    point_jet,
    pointwise,
    random_unitary_rotation,
    rotate_frame,
)
from .connection import (
    FrameFieldJet,
    connection_coefficients,
    connection_derivative,
    curvature_forms,
    frame_field_jet,
    structure_equation_residual,
)
from .nijenhuis import (
    nijenhuis_coordinates,
    nijenhuis_frame,
    nijenhuis_norm,
    nijenhuis_tensor,
    norm_from_coefficients,
    route_gap,
)
from .twistorform import (
    ChainChecks,
    TheoremReport,
    alpha_beta,
    chern_identity_residual,
    critical_constant,
    margin,
    nondegenerate,
    pfaffian_sign,
    phi_formula_gap,
    phi_matrix,
    phi_via_bundle_formula,
    sigma_report,
    structure_coefficients,
    theorem_report,
)
from .algebra import (
    CheckResult,
    RationalCTensor,
    RationalSkewMatrix,
    canonical_j1,
    check_case1_inequality,
    check_case2_identities,
    check_identity_c1,
    check_wedge_identity,
    run_algebra_sweep,
    skew_decompose,
)
from .catalog import (
    CatalogEntry,
    conformal_hermitian,
    default_entries,
    flat_kahler,
    grid_points,
    nearly_kahler_s6,
    perturbed_torus,
    resolve,
    sample_points,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
