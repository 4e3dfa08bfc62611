"""shellmap: a numerical laboratory for normal-ray return dynamics on
convex shells.

A convex core C carries a positive thickness field d; the outer boundary
is the radial graph c + d(c) nu(c).  The return map travels out along the
core normal and back along the shell's inward normal, and this package
computes that map exactly by ray geometry, analyzes its linearization and
expansion residuals, and reconstructs what it can of the thickness field
from black-box observations of the map alone.
"""

from .errors import (
    CurvatureSingularity,
    ImmersionFailure,
    InadmissibleThickness,
    NormalRayMissesCore,
    NotAFixedPoint,
    OffSurface,
    ProjectionFailed,
    ScenarioError,
    ShellmapError,
)
from .surfaces import (
    ConvexCore,
    RayHit,
    SurfacePoint,
    TangentFrame,
    fibonacci_chart_grid,
    frame_at,
    normal_at,
    ray_first_hit,
    retract,
    shape_operator_at,
)
from .fields import (
    ConstantField,
    Fourier2DField,
    ScaledField,
    SumField,
    ThicknessField,
    ZonalLegendreField,
    ZonalProfileField,
    legendre_p2,
)
from .domain import (
    AdmissibilityReport,
    OuterBoundaryPoint,
    RadialDomain,
    admissibility_check,
    outer_tangent_frame,
    radial_map,
)
from .dynamics import (
    BatchOrbitResult,
    OrbitRecord,
    iterate_batch,
    iterate_orbit,
    reciprocal_map,
    return_map,
    return_map_batch,
    settle_batch,
    thickness_step_stats,
)
from .analysis import (
    CLASSICAL_STEP_SCALE,
    MEASURED_STEP_SCALE,
    ExpansionResidualReport,
    FixedPointScan,
    LinearizationReport,
    classify_fixed_point,
    curvature_preconditioner,
    find_fixed_points,
    first_order_residual,
    fit_loglog,
    linearize_analytic,
    linearize_fd,
    normal_expansion_residual,
    preconditioner_determinant,
    preconditioner_series_residual,
    residual_sweep,
    second_order_residual,
    step_operator,
)
from .inverse import (
    BasinLabeling,
    BlackBoxMap,
    EquivalenceVerdict,
    IsotropicReconstruction,
    ReconstructionReport,
    ScalingDiagnostic,
    basin_decomposition,
    detect_fixed_points_blackbox,
    dynamical_equivalence_check,
    estimate_composite_operator,
    reconstruct_hessian_isotropic,
    recover_descent_field,
    run_reconstruction,
    scaling_ambiguity_diagnostic,
)

__version__ = "0.1.0"
