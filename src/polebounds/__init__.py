"""Length-distortion bounds for univalent disk maps with a pole.

Evaluate, minimize, and cross-verify the bounds on the ratio
``len(f(I1)) / len(f(T-))`` for maps ``f`` univalent on the unit disk with a
simple pole at ``p`` in (0, 1), plus the generalization from the vertical
diameter to arbitrary geodesic/Jordan-arc pairs (restricted here to polyline
arcs). Exact harmonic-measure formulas are cross-checked by an independent
walk-on-spheres Monte Carlo oracle, and the bound inequalities by quadrature
over built-in univalent families.

The public names load lazily (PEP 562): ``import polebounds`` imports no
submodule and not numpy. The first access to a name imports the submodule
that defines it, and numpy with it where that submodule needs arrays:
``lengths`` and ``arcs`` do, and ``wos_harmonic_measure`` imports it when it
runs; ``bounds``, ``harmonic``, ``conformal``, ``hyperbolic`` and ``errors``
are plain ``math``.
"""

import importlib

#: submodule -> the public names it defines.
_EXPORTS = {
    "arcs": (
        "ArcConstant",
        "ArcReport",
        "DEFAULT_ANALYTIC_CONSTANT",
        "NormalizedInstance",
        "PolylineArc",
        "arc_constant",
        "enclosed_axis_segment",
        "load_polyline_instance",
        "normalize_to_axis",
        "verify_arc_inequality",
        "winding_number",
    ),
    "bounds": (
        "ANGLE_BOUND_MIN_P",
        "BoundResult",
        "DEFAULT_TABLE_P",
        "TableRow",
        "angle_bound",
        "closed_form_bound",
        "cot_of_scaled_arccot",
        "limit_bound",
        "lower_bound",
        "measure_bound",
        "minimize_over_q",
        "scaled_cot_bound",
        "table_rows",
    ),
    "conformal": (
        "alpha_from_p",
        "arccot",
        "cayley",
        "omega_to_disk",
        "omega1_to_halfplane",
        "p_from_alpha",
        "vertical_translation",
    ),
    "errors": (
        "DegenerateGeometryError",
        "DomainError",
        "HypothesisViolationError",
        "NumericalConditionWarning",
        "PoleBoundsError",
        "PoleProximityError",
        "QuadratureError",
        "WalkCapError",
    ),
    "harmonic": (
        "DEFAULT_SEED",
        "DistanceMeasureCheck",
        "WosEstimate",
        "check_distance_measure_bound",
        "hm_halfplane",
        "hm_omega1",
        "measure_cot_bound",
        "wos_harmonic_measure",
    ),
    "hyperbolic": (
        "ExcludedDisk",
        "disk_nesting",
        "hyp_dist_disk",
        "hyp_dist_to_vertical_segment",
        "in_omega",
        "in_omega1",
    ),
    "lengths": (
        "Curve",
        "FAMILIES",
        "RatioReport",
        "TestFunction",
        "image_curve_length",
        "koebe_family",
        "left_half_circle",
        "mobius_family",
        "polyline_image_length",
        "segment_curve",
        "verify_inequality",
        "vertical_diameter",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name`` and keep the value here."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        # an AttributeError lets ``from polebounds import arcs`` import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
