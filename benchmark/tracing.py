"""Spans around the program's public functions, recorded from the benchmark.

``install`` replaces each traced function, in every ``polebounds`` module
that holds it, by a wrapper that records a span: name, parent span, start,
end, and one extracted figure (evaluations, walks, vertex count, branch).
Calls the program makes between its own modules therefore nest as they run.
``uninstall`` puts the originals back. Nothing here changes the program's
results; spans stay in memory until the worker writes them out.
"""

from __future__ import annotations

import dataclasses
import statistics
from time import perf_counter

#: module -> public functions traced in it. Layers are the module names.
TRACED = {
    "bounds": ("minimize_over_q", "table_rows"),
    "lengths": ("image_curve_length", "polyline_image_length", "verify_inequality"),
    "hyperbolic": ("hyp_dist_to_vertical_segment",),
    "arcs": (
        "load_polyline_instance",
        "normalize_to_axis",
        "enclosed_axis_segment",
        "winding_number",
        "arc_constant",
        "verify_arc_inequality",
    ),
    "harmonic": ("wos_harmonic_measure", "hm_omega1"),
    "cli": ("main",),
}
LAYERS = tuple(TRACED)

#: Vertex-count buckets for ``arcs.PolylineArc`` construction times.
VERTEX_BUCKETS = ((4, 8), (9, 16), (17, 32), (33, 64))

_EXTRACT = {
    "bounds.minimize_over_q": lambda args, res: res.evaluations,
    "bounds.table_rows": lambda args, res: len(res),
    "harmonic.wos_harmonic_measure": lambda args, res: (res.n_walks, res.n_capped),
    "arcs.arc_constant": lambda args, res: res.branch == "inside_hull",
    "arcs.PolylineArc": lambda args, res: len(args[0].vertices),
}

# Span fields.
NAME, PARENT, T0, T1, EXTRA = range(5)


class Tracer:
    """Records spans; ``stack`` holds the index of the open span (-1: none)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.integrand_evals = 0

    def wrap(self, name: str, fn):
        spans, stack, extract = self.spans, self.stack, _EXTRACT.get(name)

        def traced(*args, **kwargs):
            rec = [name, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[T0] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[T1] = perf_counter()
                stack.pop()
            if extract is not None:
                rec[EXTRA] = extract(args, result)
            return result

        return traced

    def count_derivative(self, f):
        """``f`` with a derivative that counts its evaluations (integrand calls)."""
        inner = f.derivative

        def derivative(z):
            self.integrand_evals += 1
            return inner(z)

        return dataclasses.replace(f, derivative=derivative)

    def take(self) -> list[list]:
        """The spans recorded so far; the tracer starts empty again."""
        out = list(self.spans)
        self.spans.clear()
        return out


def install(tracer: Tracer, modules: dict) -> list:
    """Route the traced functions of ``modules`` (name -> module) through ``tracer``.

    Returns what ``uninstall`` needs to restore the originals.
    """
    undo = []
    for layer, names in TRACED.items():
        for fname in names:
            orig = getattr(modules[layer], fname)
            wrapped = tracer.wrap(f"{layer}.{fname}", orig)
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))
    cls = modules["arcs"].PolylineArc
    orig_post = cls.__post_init__
    cls.__post_init__ = tracer.wrap("arcs.PolylineArc", orig_post)
    undo.append((cls, "__post_init__", orig_post))
    return undo


def uninstall(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


def _median(xs):
    return statistics.median(xs) if xs else None


def summarize(spans: list[list], n_roots: int, rounds: int) -> dict:
    """Per-layer figures from one phase's spans; ``None`` where nothing ran.

    Self time of a span is its duration minus that of its direct children;
    a layer's ``self_ms`` is the sum over its spans per root span. Counts are
    per round of inputs.
    """
    child = [0.0] * len(spans)
    by_name: dict[str, list] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    seen = set()
    for rec in spans:
        dur = rec[T1] - rec[T0]
        if rec[PARENT] >= 0:
            child[rec[PARENT]] += dur
        by_name.setdefault(rec[NAME], []).append(rec)
    for i, rec in enumerate(spans):
        layer = rec[NAME].split(".")[0]
        if layer in self_s:
            self_s[layer] += rec[T1] - rec[T0] - child[i]
            seen.add(layer)

    def durs(name, scale):
        return [(r[T1] - r[T0]) * scale for r in by_name.get(name, ())]

    def extras(name):
        return [r[EXTRA] for r in by_name.get(name, ())]

    m = {
        "bounds.minimize_over_q.ms": _median(durs("bounds.minimize_over_q", 1e3)),
        "bounds.minimize_over_q.evals": _median(extras("bounds.minimize_over_q")),
        "bounds.table_rows.ms_per_row": _median(
            [(r[T1] - r[T0]) * 1e3 / r[EXTRA] for r in by_name.get("bounds.table_rows", ())]
        ),
        "lengths.image_curve_length.ms": _median(durs("lengths.image_curve_length", 1e3)),
        "lengths.polyline_image_length.ms": _median(durs("lengths.polyline_image_length", 1e3)),
        "lengths.verify_inequality.ms": _median(durs("lengths.verify_inequality", 1e3)),
        "hyperbolic.hyp_dist_to_vertical_segment.us": _median(
            durs("hyperbolic.hyp_dist_to_vertical_segment", 1e6)
        ),
        "arcs.load_polyline_instance.us": _median(durs("arcs.load_polyline_instance", 1e6)),
        "arcs.PolylineArc.us": _median(durs("arcs.PolylineArc", 1e6)),
        "arcs.normalize_to_axis.us": _median(durs("arcs.normalize_to_axis", 1e6)),
        "arcs.enclosed_axis_segment.us": _median(durs("arcs.enclosed_axis_segment", 1e6)),
        "arcs.winding_number.us": _median(durs("arcs.winding_number", 1e6)),
        "arcs.arc_constant.ms": _median(durs("arcs.arc_constant", 1e3)),
        "harmonic.wos_harmonic_measure.ms": _median(durs("harmonic.wos_harmonic_measure", 1e3)),
        "harmonic.wos.ns_per_walk": _median(
            [(r[T1] - r[T0]) * 1e9 / r[EXTRA][0] for r in by_name.get("harmonic.wos_harmonic_measure", ())]
        ),
        "harmonic.hm_omega1.us": _median(durs("harmonic.hm_omega1", 1e6)),
        "cli.main.ms": _median(durs("cli.main", 1e3)),
    }
    for lo, hi in VERTEX_BUCKETS:
        m[f"arcs.PolylineArc.us.n{lo}-{hi}"] = _median(
            [(r[T1] - r[T0]) * 1e6 for r in by_name.get("arcs.PolylineArc", ()) if lo <= r[EXTRA] <= hi]
        )
    walks = extras("harmonic.wos_harmonic_measure")
    m["harmonic.wos.capped_walks"] = sum(c for _, c in walks) / rounds if walks else None
    branches = extras("arcs.arc_constant")
    m["arcs.branch_inside.count"] = sum(branches) / rounds if branches else None
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_s[layer] * 1e3 / n_roots if layer in seen and n_roots else None
    return m
