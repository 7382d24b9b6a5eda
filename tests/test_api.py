"""The public API: its names, what importing it loads, and the routes the benchmark traces."""

import ast
import io
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


#: Run in a fresh interpreter: what ``import polebounds``, ``polebounds.arccot``
#: and each subcommand (the argv lists in ``sys.argv[1]``, run in order) load.
#: It reads and prints Python literals, so that it loads no ``json`` itself.
_LOADED_PROBE = """
import ast, io, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m in ("numpy", "csv", "json") or m.startswith("polebounds."))

import polebounds
facts = {"import": loaded()}
try:
    polebounds.nonexistent
    facts["unknown"] = "resolved"
except AttributeError:
    facts["unknown"] = "AttributeError"
polebounds.arccot
facts["arccot"] = loaded()
from polebounds import cli
facts["runs"] = [[cli.main(argv, out=io.StringIO()), loaded()] for argv in ast.literal_eval(sys.argv[1])]
print(repr(facts))
"""

_HARMONIC = ["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5"]

#: Subcommands that load neither the harmonic-measure modules nor numpy, in text format.
_BOUNDS_ONLY = [
    ["table", "--p", "0.5"],
    ["table"],
    *(["bounds", "--p", "0.5", "--kind", kind] for kind in ("lb", "angle", "closed", "measure")),
    ["bounds", "--p", "1", "--kind", "limit"],
]

_HARMONIC_MODULES = {"polebounds.harmonic", "polebounds.hyperbolic"}


def _probe(argvs):
    """The facts of ``_LOADED_PROBE`` run on ``argvs`` in a fresh interpreter."""
    src = str(Path(polebounds.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "POLEBOUNDS_FORMAT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", _LOADED_PROBE, repr(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    facts = ast.literal_eval(proc.stdout)
    assert facts["import"] == []
    assert facts["unknown"] == "AttributeError"
    assert facts["arccot"] == ["polebounds.conformal", "polebounds.errors"]
    for argv, (code, _) in zip(argvs, facts["runs"]):
        assert code == 0, argv
    return [after for _, after in facts["runs"]]


def test_import_loads_no_submodule_and_table_no_quadrature():
    json_table = ["table", "--p", "0.5", "--format", "json"]
    *bounds_only, after_harmonic, after_json, after_wos = _probe(
        [*_BOUNDS_ONLY, _HARMONIC, json_table, [*_HARMONIC, "--wos", "10"]])
    for argv, after in zip(_BOUNDS_ONLY, bounds_only):
        assert "polebounds.bounds" in after, argv
        assert not {"numpy", "polebounds.lengths", "polebounds.arcs", "csv", "json",
                    *_HARMONIC_MODULES} & set(after), argv
    assert _HARMONIC_MODULES <= set(after_harmonic)
    assert not {"numpy", "csv", "json"} & set(after_harmonic)
    assert "json" in after_json and "csv" not in after_json
    assert "numpy" in after_wos


def test_verify_and_arc_load_no_harmonic_measure(tmp_path):
    # each in its own interpreter, so that no earlier subcommand masks what it loads
    (after_verify,) = _probe([["verify", "--family", "mobius", "--p", "0.5"]])
    assert not {"polebounds.arcs", "csv", "json", *_HARMONIC_MODULES} & set(after_verify)
    path = tmp_path / "inside.txt"
    path.write_text("pole 0.2 0.0\n0.0 -0.5\n-0.45 -0.25\n-0.45 0.25\n0.0 0.5\n")
    (after_arc,) = _probe([["arc", "--file", str(path), "--family", "mobius"]])
    assert "polebounds.arcs" in after_arc
    assert not {"polebounds.harmonic", "csv", "json"} & set(after_arc)


#: The first ``arc_suite`` inputs take one arc of each vertex count, so every
#: vertex bucket of the arc layer fills; two inputs of each other workload.
_ROUTE_INPUTS = {"bound_table": 2, "ratio_verify": 2, "arc_suite": 16, "wos_oracle": 2}


def test_every_benchmark_layer_is_reached(tmp_path, monkeypatch):
    # benchmark/ reports a metric for each traced function and fails a run
    # whose spans leave one unmeasured; this runs its tracer on a few inputs
    # of every workload, so that a change of call routing fails here first.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "benchmark"))
    import tracing
    import workloads
    from polebounds import arcs, bounds, cli, conformal, harmonic, hyperbolic, lengths

    # resolved before the tracer patches the submodules, so that the package
    # caches the originals, which uninstall then puts back
    for name in polebounds.__all__:
        getattr(polebounds, name)
    modules = {"polebounds": polebounds, "bounds": bounds, "lengths": lengths,
               "hyperbolic": hyperbolic, "arcs": arcs, "harmonic": harmonic, "cli": cli,
               "conformal": conformal}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, modules)
    try:
        for wl, n in _ROUTE_INPUTS.items():
            for inp in workloads.generate(wl, 1, tmp_path / wl)[:n]:
                workloads.call(wl, polebounds, inp, tracer.count_derivative)
        assert cli.main(["table", "--p", "0.5", "--format", "json"], out=io.StringIO()) == 0
    finally:
        tracing.uninstall(undo)
    figures = tracing.summarize(tracer.take(), sum(_ROUTE_INPUTS.values()) + 1, 1)
    assert [name for name, value in figures.items() if value is None] == []
    assert tracer.integrand_evals > 0
    assert polebounds.verify_inequality is lengths.verify_inequality
