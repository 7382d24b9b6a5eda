"""Length-distortion bounds for univalent disk maps with a pole.

Evaluate, minimize, and cross-verify the bounds on the ratio
``len(f(I1)) / len(f(T-))`` for maps ``f`` univalent on the unit disk with a
simple pole at ``p`` in (0, 1), plus the generalization from the vertical
diameter to arbitrary geodesic/Jordan-arc pairs (restricted here to polyline
arcs). Exact harmonic-measure formulas are cross-checked by an independent
walk-on-spheres Monte Carlo oracle, and the bound inequalities by quadrature
over built-in univalent families.
"""

from .arcs import (
    ArcConstant,
    ArcReport,
    DEFAULT_ANALYTIC_CONSTANT,
    NormalizedInstance,
    PolylineArc,
    arc_constant,
    enclosed_axis_segment,
    load_polyline_instance,
    normalize_to_axis,
    verify_arc_inequality,
    winding_number,
)
from .bounds import (
    ANGLE_BOUND_MIN_P,
    BoundResult,
    DEFAULT_TABLE_P,
    TableRow,
    angle_bound,
    closed_form_bound,
    cot_of_scaled_arccot,
    limit_bound,
    lower_bound,
    measure_bound,
    minimize_over_q,
    scaled_cot_bound,
    table_rows,
)
from .conformal import (
    alpha_from_p,
    cayley,
    omega_to_disk,
    omega1_to_halfplane,
    p_from_alpha,
    vertical_translation,
)
from .errors import (
    DegenerateGeometryError,
    DomainError,
    HypothesisViolationError,
    MinimizationError,
    NumericalConditionWarning,
    PoleBoundsError,
    PoleProximityError,
    QuadratureError,
    WalkCapError,
)
from .harmonic import (
    DEFAULT_SEED,
    DistanceMeasureCheck,
    WosEstimate,
    arccot,
    check_distance_measure_bound,
    hm_halfplane,
    hm_omega1,
    measure_cot_bound,
    wos_harmonic_measure,
)
from .hyperbolic import (
    ExcludedDisk,
    disk_nesting,
    hyp_dist_disk,
    hyp_dist_to_vertical_segment,
    in_omega,
    in_omega1,
)
from .lengths import (
    Curve,
    FAMILIES,
    RatioReport,
    TestFunction,
    image_curve_length,
    koebe_family,
    left_half_circle,
    mobius_family,
    polyline_image_length,
    segment_curve,
    verify_inequality,
    vertical_diameter,
)

__version__ = "0.1.0"
