"""Polyline Jordan arcs: reflection, hull membership, and the arc-vs-geodesic bound.

Setting: a simple polyline ``J`` inside the unit disk whose endpoints lie on
the vertical diameter, a map ``f`` univalent on the disk with one pole ``s``,
and the geodesic ``gamma`` joining the endpoints (after normalization, the
straight vertical segment). The verified inequality is

    len(f(gamma)) <= constant * len(f(J))

where the constant depends on where ``s`` sits relative to ``J`` and its
mirror image ``J^`` across the imaginary axis:

* ``s`` outside the filled region of ``J + J^``: the analytic-case constant
  applies (default 17.45, the best known value; the self-computed
  ``limit_bound`` minimum ~73.25 is a safe fallback).
* ``s`` inside: the constant is the minimized measure bound at
  ``tau = tanh(dist(s, gamma~))``, where ``gamma~`` is the axis segment
  enclosed by ``J`` (the part of the imaginary axis not reachable from
  outside the disk without crossing ``J``).

Arcs are restricted to polylines so that axis intersections, reflection and
hull membership are exact. Both hull tests are winding numbers of ``J``
closed by the axis chord between its endpoints: about ``s`` it must be 0 for
the standing hypothesis ``s`` outside ``hull(gamma~ + J)`` (which also keeps
``s`` off both curves; an overhang of ``gamma~`` past the endpoints counts
as a degenerate slit), and about ``-conj(s)`` it decides the branch, since
reflection makes that the winding number of ``J + J^`` about ``s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import minimize_over_q
from .conformal import _check_positive, _inside_disk, as_complex
from .errors import (
    DegenerateGeometryError,
    DomainError,
    HypothesisViolationError,
)
from .hyperbolic import hyp_dist_to_vertical_segment
from .lengths import (
    DEFAULT_LENGTH_TOL,
    TestFunction,
    _check_polyline,
    _conservative_verdict,
    _segment_feet,
    polyline_image_length,
)

#: Default numeric stand-in for the analytic-case constant.
DEFAULT_ANALYTIC_CONSTANT = 17.45

#: Tangency / on-curve tolerance for the exact polyline predicates.
GEOMETRY_TOL = 1e-12

_ON_CURVE_TOL = 1e-10

#: Upper bound on the segment pairs the simplicity test holds in memory at once.
_PAIR_BLOCK = 1 << 16


def _orient(a: complex, b: complex, c: complex) -> float:
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def _within(p, q, r):
    """Whether ``r`` lies in the closed bounding box of ``p`` and ``q`` (arrays)."""
    return (
        (np.minimum(p.real, q.real) <= r.real)
        & (r.real <= np.maximum(p.real, q.real))
        & (np.minimum(p.imag, q.imag) <= r.imag)
        & (r.imag <= np.maximum(p.imag, q.imag))
    )


def _segments_meet(a, b, c, d) -> np.ndarray:
    """Whether the closed segments ``ab`` and ``cd`` meet, elementwise over arrays.

    They meet when each straddles the other's line (strict ``> 0`` sign test)
    or when an endpoint of one lies on the other: an exact-zero orientation
    inside the closed bounding box, tested only where such a zero occurs.
    """
    d1, d2 = _orient(c, d, a), _orient(c, d, b)
    d3, d4 = _orient(a, b, c), _orient(a, b, d)
    meet = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    for o, p, q, r in ((d1, c, d, a), (d2, c, d, b), (d3, a, b, c), (d4, a, b, d)):
        on_line = o == 0.0
        if on_line.any():
            meet |= on_line & _within(p, q, r)
    return meet


def _has_crossing(verts: tuple[complex, ...]) -> bool:
    """Whether two non-adjacent segments ``i`` and ``j >= i + 2`` meet.

    When the first vertex equals the last, the first and last segments may
    share it. The pairs are tested as arrays, in blocks of rows that keep
    memory bounded on long polylines.
    """
    z = np.array(verts, dtype=complex)
    n = len(z) - 1
    j = np.arange(n)
    rows = max(1, _PAIR_BLOCK // n)
    for lo in range(0, n, rows):
        pair = j >= np.arange(lo, min(lo + rows, n))[:, None] + 2
        if lo == 0 and verts[0] == verts[-1]:
            pair[0, n - 1] = False
        i, k = np.nonzero(pair)
        i += lo
        if _segments_meet(z[i], z[i + 1], z[k], z[k + 1]).any():
            return True
    return False


@dataclass(frozen=True)
class PolylineArc:
    """A simple polyline inside the open unit disk.

    Construction rejects a vertex on or outside the unit circle, a repeated
    consecutive vertex, and any two non-adjacent segments that meet, touching
    included (only a closed loop's first and last segments may share their
    common vertex). The segment pairs are tested together, as numpy arrays.
    """

    vertices: tuple[complex, ...]

    def __post_init__(self) -> None:
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        _check_polyline(verts, inside_disk=True)
        if _has_crossing(verts):
            raise DomainError("polyline is not simple: segments cross")

    @property
    def endpoints(self) -> tuple[complex, complex]:
        return self.vertices[0], self.vertices[-1]


def enclosed_axis_segment(arc: PolylineArc) -> tuple[float, float]:
    """The axis segment enclosed by an arc whose endpoints lie on the axis.

    Returns ``(y_lo, y_hi)`` for the vertical segment ``[i y_lo, i y_hi]``:
    the span of all points where the arc meets the imaginary axis. Everything
    of the axis outside that span is reachable from outside the disk, so the
    span is exactly the non-reachable part. Tangential contact (an interior
    touch without a sign change, or an interior sub-segment running along the
    axis) is rejected as degenerate; an arc lying entirely on the axis is the
    trivial case and is allowed.
    """
    verts = arc.vertices
    z1, z2 = arc.endpoints
    if abs(z1.real) > GEOMETRY_TOL or abs(z2.real) > GEOMETRY_TOL:
        raise DomainError("arc endpoints must lie on the imaginary axis (normalize first)")
    xs = [v.real for v in verts]
    on = [abs(x) <= GEOMETRY_TOL for x in xs]
    if all(on):
        ys = [v.imag for v in verts]
        return min(ys), max(ys)

    n = len(verts)
    for i in range(n - 1):
        if on[i] and on[i + 1]:
            raise DegenerateGeometryError("arc runs along the imaginary axis")

    ys: list[float] = []
    for i, v in enumerate(verts):
        if not on[i]:
            continue
        if 0 < i < n - 1:
            if xs[i - 1] * xs[i + 1] > 0.0:
                raise DegenerateGeometryError(
                    f"arc touches the imaginary axis tangentially at vertex {v}"
                )
        ys.append(v.imag)
    for i in range(n - 1):
        if on[i] or on[i + 1]:
            continue
        if xs[i] * xs[i + 1] < 0.0:
            t = xs[i] / (xs[i] - xs[i + 1])
            ys.append(verts[i].imag + t * (verts[i + 1].imag - verts[i].imag))
    return min(ys), max(ys)


def winding_number(point: complex, loop: tuple[complex, ...]) -> int:
    """Winding number of a closed polyline about ``point``.

    The loop closes implicitly from the last vertex back to the first. The
    point must not lie on the loop.
    """
    w = 0
    n = len(loop)
    for k in range(n):
        a, b = loop[k], loop[(k + 1) % n]
        if a == b:
            continue
        if a.imag <= point.imag:
            if b.imag > point.imag and _orient(a, b, point) > 0.0:
                w += 1
        elif b.imag <= point.imag and _orient(a, b, point) < 0.0:
            w -= 1
    return w


@dataclass(frozen=True)
class ArcConstant:
    """Branch decision and the applicable constant for an arc instance."""

    branch: str
    constant: float
    tau: float


def arc_constant(
    s: complex, arc: PolylineArc, analytic_constant: float = DEFAULT_ANALYTIC_CONSTANT
) -> ArcConstant:
    """Select the constant bounding ``len(f(gamma)) / len(f(J))`` for a pole at ``s``.

    Requires the standing hypothesis that ``s`` lies outside the filled
    region bounded by the enclosed axis segment and the arc (including both
    curves); raises :class:`HypothesisViolationError` otherwise. The branch
    is inside when the arc closed by its axis chord winds around the
    reflected pole ``-conj(s)``, which is where ``J + J^`` winds around ``s``.
    A pole within ``_ON_CURVE_TOL`` of ``J^`` takes the inside branch.
    ``analytic_constant`` must be positive and finite.
    """
    analytic_constant = _check_positive(
        analytic_constant, "the analytic constant must be positive and finite, got {!r}"
    )
    ss = _inside_disk(s, "the pole must lie strictly inside the unit disk")
    for v in arc.vertices:
        if ss == v:
            raise DomainError("the pole must not coincide with an arc vertex")

    y_lo, y_hi = enclosed_axis_segment(arc)

    verts = np.array(arc.vertices)
    near, mirror = _segment_feet(
        verts[:-1], verts[1:] - verts[:-1], np.array([[ss], [-ss.conjugate()]])
    )[1].min(axis=1)
    if near <= _ON_CURVE_TOL:
        raise HypothesisViolationError("pole lies on the arc")
    if _segment_feet(1j * y_lo, 1j * (y_hi - y_lo), ss)[1] <= _ON_CURVE_TOL:
        raise HypothesisViolationError("pole lies on the enclosed axis segment")
    # Implicit closure of the loop is the axis chord joining the endpoints; the
    # overhang of the axis segment beyond them is a degenerate slit and was
    # covered by the distance check above. An arc within GEOMETRY_TOL of the
    # axis winds around no point that passed that check.
    if winding_number(ss, arc.vertices) != 0:
        raise HypothesisViolationError(
            "pole lies inside the region bounded by the arc and the axis"
        )

    tau = math.tanh(hyp_dist_to_vertical_segment(ss, y_lo, y_hi))
    # Off J^ this is the winding number of J + J^ about s (its part about s is 0
    # here): reflection negates each _orient exactly, and the chord edges cancel.
    # On J^ that number is undefined; the inside constant (the measure minimum,
    # at least 73.25) exceeds the default analytic one, so J^ counts as inside.
    if mirror <= _ON_CURVE_TOL or winding_number(-ss.conjugate(), arc.vertices) != 0:
        if not 0.0 < tau < 1.0:
            raise DegenerateGeometryError(f"tau = {tau!r} outside (0, 1)")
        return ArcConstant(
            branch="inside_hull", constant=minimize_over_q(tau, "measure").value, tau=tau
        )
    return ArcConstant(branch="outside_hull", constant=analytic_constant, tau=tau)


@dataclass(frozen=True)
class ArcReport:
    """Outcome of one arc-vs-geodesic length check."""

    function_id: str
    branch: str
    constant: float
    tau: float
    length_geodesic: float
    length_arc: float
    ratio: float
    passed: bool
    error_geodesic: float
    error_arc: float


def verify_arc_inequality(
    f: TestFunction,
    arc: PolylineArc,
    tol: float = DEFAULT_LENGTH_TOL,
    analytic_constant: float = DEFAULT_ANALYTIC_CONSTANT,
) -> ArcReport:
    """Check ``len(f(gamma)) <= constant * len(f(J))`` for the pole of ``f``.

    ``gamma`` is the vertical segment joining the arc endpoints (their
    hyperbolic geodesic once both lie on the vertical diameter), integrated
    with ``J`` as one panel set. The check passes only if it holds for the
    worst lengths within their quadrature errors; ``ratio`` is the plain
    quotient of the two lengths.
    """
    sel = arc_constant(complex(f.pole), arc, analytic_constant)
    z1, z2 = arc.endpoints
    geodesic = (complex(0.0, z1.imag), complex(0.0, z2.imag))
    (lg, eg), (la, ea) = polyline_image_length(f, (geodesic, arc.vertices), tol)
    return ArcReport(
        function_id=f.id,
        branch=sel.branch,
        constant=sel.constant,
        tau=sel.tau,
        length_geodesic=lg,
        length_arc=la,
        ratio=lg / la,
        passed=_conservative_verdict(lg, eg, la, ea, sel.constant),
        error_geodesic=eg,
        error_arc=ea,
    )


@dataclass(frozen=True)
class NormalizedInstance:
    """A pole/endpoints/arc configuration moved so the endpoints sit on the axis."""

    s: complex
    z1: complex
    z2: complex
    arc: PolylineArc | None


def normalize_to_axis(
    s: complex, z1: complex, z2: complex, arc: PolylineArc | None = None
) -> NormalizedInstance:
    """Apply the disk automorphism sending ``z1``, ``z2`` onto the vertical diameter.

    The map is ``e (z - m) / (1 - conj(m) z)``: the hyperbolic midpoint ``m``
    of the endpoints goes to the origin, and the unimodular ``e`` turns the
    pair onto the imaginary axis, ``z2`` to the upper point. Hyperbolic
    distances are unchanged (automorphisms are isometries). Polyline vertices
    are mapped individually and rejoined by straight segments, and the moved
    arc is validated again; endpoints that already lie on the axis are
    returned through the identity, with the given ``arc`` object itself.
    """
    if z1 == z2:
        raise DomainError("endpoints must be distinct")
    message = "endpoints must lie strictly inside the unit disk"
    z1, z2 = _inside_disk(z1, message), _inside_disk(z2, message)
    # The map's pole lies outside the closed disk, so inside it the division is safe.
    s = _inside_disk(s, "the pole must lie strictly inside the unit disk")

    if z1.real == 0.0 and z2.real == 0.0:
        # The identity; adding 0.0 turns a -0.0 component into 0.0.
        moved = (complex(z.real + 0.0, z.imag + 0.0) for z in (s, z1, z2))
        return NormalizedInstance(*moved, arc=arc)

    # With z1 sent to 0, z2 goes to w and the midpoint to h, which pulls back to m.
    # Sending m to 0 takes z2 to conj(d) / d times a positive multiple of w, so e
    # turns it onto the upper axis; taken from w, not z2 - m, e stays accurate.
    w = (z2 - z1) / (1 - z1.conjugate() * z2)
    r = abs(_inside_disk(w, "endpoints are too close to the unit circle to normalize"))
    h = w / (1.0 + math.sqrt(1.0 - r * r))
    d = 1 + z1.conjugate() * h
    m = (h + z1) / d
    e = 1j * (w.conjugate() / r) * (d / d.conjugate())

    def move(z: complex) -> complex:
        return e * (z - m) / (1 - m.conjugate() * z)

    # straight segments between mapped vertices can cross: validate again
    new_arc = None if arc is None else PolylineArc(tuple(move(v) for v in arc.vertices))
    return NormalizedInstance(s=move(s), z1=move(z1), z2=move(z2), arc=new_arc)


def _parse_point(fields: list[str], where: str, line: str) -> complex:
    try:
        return as_complex(complex(float(fields[0]), float(fields[1])))
    except ValueError:  # the DomainError of a non-finite point is a ValueError too
        raise DomainError(f"{where}: expected two finite numbers, got {line!r}") from None


def load_polyline_instance(path) -> tuple[complex, PolylineArc]:
    """Read a pole and polyline from the plain-text exchange format.

    First non-comment line: ``pole <re> <im>``; every following line one
    vertex as ``<re> <im>``. Blank lines and ``#`` comments are skipped.
    """
    pole: complex | None = None
    vertices: list[complex] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 text ({exc.reason})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if pole is None:
            if len(parts) != 3 or parts[0] != "pole":
                raise DomainError(
                    f"{path}:{lineno}: expected header 'pole <re> <im>', got {line!r}"
                )
            pole = _parse_point(parts[1:], f"{path}:{lineno}", line)
        else:
            if len(parts) != 2:
                raise DomainError(
                    f"{path}:{lineno}: expected a vertex '<re> <im>', got {line!r}"
                )
            vertices.append(_parse_point(parts, f"{path}:{lineno}", line))
    if pole is None:
        raise DomainError(f"{path}: missing 'pole <re> <im>' header")
    return pole, PolylineArc(tuple(vertices))
