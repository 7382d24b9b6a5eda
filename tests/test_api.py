"""The public API of the package, pinned by name."""

import types

import polebounds

PUBLIC_NAMES = [
    "ANGLE_BOUND_MIN_P", "ArcConstant", "ArcReport", "BoundResult", "Curve",
    "DEFAULT_ANALYTIC_CONSTANT", "DEFAULT_SEED", "DEFAULT_TABLE_P",
    "DegenerateGeometryError", "DistanceMeasureCheck", "DomainError", "ExcludedDisk",
    "FAMILIES", "HypothesisViolationError", "NormalizedInstance",
    "NumericalConditionWarning", "PoleBoundsError", "PoleProximityError", "PolylineArc",
    "QuadratureError", "RatioReport", "TableRow", "TestFunction", "WalkCapError",
    "WosEstimate", "alpha_from_p", "angle_bound", "arc_constant", "arccot", "cayley",
    "check_distance_measure_bound", "closed_form_bound", "cot_of_scaled_arccot",
    "disk_nesting", "enclosed_axis_segment", "hm_halfplane", "hm_omega1", "hyp_dist_disk",
    "hyp_dist_to_vertical_segment", "image_curve_length", "in_omega", "in_omega1",
    "koebe_family", "left_half_circle", "limit_bound", "load_polyline_instance",
    "lower_bound", "measure_bound", "measure_cot_bound", "minimize_over_q", "mobius_family",
    "normalize_to_axis", "omega1_to_halfplane", "omega_to_disk", "p_from_alpha",
    "polyline_image_length", "scaled_cot_bound", "segment_curve", "table_rows",
    "verify_arc_inequality", "verify_inequality", "vertical_diameter",
    "vertical_translation", "winding_number", "wos_harmonic_measure",
]


def test_public_names_are_pinned():
    # Submodules are left out: importing one (polebounds.cli, say) anywhere in
    # the session binds it as an attribute of the package.
    names = sorted(
        n for n, v in vars(polebounds).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
