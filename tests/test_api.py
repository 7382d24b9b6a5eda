"""The public API of the package, pinned by name, and what importing it loads."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

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
    # The package resolves its names on first access, so they are read from
    # dir(), each one resolved. Submodules are left out: importing one
    # (polebounds.cli, say) anywhere in the session binds it on the package.
    names = sorted(
        n for n in dir(polebounds)
        if not n.startswith("_") and not isinstance(getattr(polebounds, n), types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    assert polebounds.__all__ == PUBLIC_NAMES


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from polebounds import *", namespace)
    assert sorted(n for n in namespace if n != "__builtins__") == PUBLIC_NAMES


#: Run in a fresh interpreter: what ``import polebounds`` and each subcommand
#: (the argv lists in ``sys.argv[1]``, run in order) load.
_LOADED_PROBE = """
import io, json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "numpy" or m.startswith("polebounds."))

import polebounds
facts = {"import": loaded()}
try:
    polebounds.nonexistent
    facts["unknown"] = "resolved"
except AttributeError:
    facts["unknown"] = "AttributeError"
from polebounds import cli
facts["runs"] = [[cli.main(argv, out=io.StringIO()), loaded()] for argv in json.loads(sys.argv[1])]
print(json.dumps(facts))
"""

_HARMONIC = ["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5"]

#: Subcommands that load no numpy, then the one that loads it last.
_NUMPY_FREE = [
    ["table", "--p", "0.5"],
    ["table"],
    *(["bounds", "--p", "0.5", "--kind", kind] for kind in ("lb", "angle", "closed", "measure")),
    ["bounds", "--p", "1", "--kind", "limit"],
    _HARMONIC,
]


def test_import_loads_no_submodule_and_table_no_quadrature():
    src = str(Path(polebounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    argvs = [*_NUMPY_FREE, [*_HARMONIC, "--wos", "10"]]
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    facts = json.loads(proc.stdout)
    assert facts["import"] == []
    assert facts["unknown"] == "AttributeError"
    *numpy_free, (wos_code, after_wos) = facts["runs"]
    for argv, (code, after) in zip(_NUMPY_FREE, numpy_free):
        assert code == 0, argv
        assert not {"numpy", "polebounds.lengths", "polebounds.arcs"} & set(after), argv
    assert "polebounds.bounds" in numpy_free[0][1]
    assert wos_code == 0 and "numpy" in after_wos
