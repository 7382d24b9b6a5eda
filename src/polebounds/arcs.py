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
import operator
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

#: Upper bound on the orientation entries, segments times vertices, that the
#: simplicity test computes in one block of segment rows (at least one row).
_PAIR_BLOCK = 1 << 16


def _orient(a: complex, b: complex, c: complex) -> float:
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def _within(p, q, r):
    """Whether each point ``r`` lies in the closed bounding box of ``p`` and ``q``.

    The arguments hold x and y in two rows, one point per column.
    """
    return np.all((np.minimum(p, q) <= r) & (r <= np.maximum(p, q)), axis=0)


def _orient_signs(xy, d, rows, cols):
    """Where ``_orient(z[k], z[k+1], z[j])`` is positive and where it is zero.

    ``k`` runs over the segments in ``rows`` (steps ``d``), ``j`` over the
    vertices in ``cols`` (``xy``). Comparing the two products of
    ``dx*(y_j - y_k) - dy*(x_j - x_k)`` gives its signs and exact zeros.
    """
    t = xy[::-1, None, cols] - xy[::-1, rows, None]
    t *= d[:, rows, None]
    return t[0] > t[1], t[0] == t[1]


def _has_crossing(verts: tuple[complex, ...]) -> bool:
    """Whether two segments meet anywhere but at the vertex that adjacent ones share.

    The test reads the orientation matrix ``o[k, j] = _orient(z[k], z[k+1], z[j])``
    of every segment ``k`` against every vertex ``j``, so it is quadratic in
    the vertices. Segments ``i`` and ``k >= i + 2`` cross when the signs
    ``o > 0`` at the ends of each differ on the other's row: the matrix read
    against its transpose. They also meet when an end of one lies on the
    other: an exact zero of ``o`` off the segment's own two endpoints, boxed
    by ``_within`` only where such a zero occurs. Adjacent segments meet
    elsewhere only when they fold back: ``o[k, k+2] == 0`` and a reversed
    direction. The matrix is built in blocks of segment rows that keep memory
    bounded on long polylines; a later block reads its transposed half from
    a second matrix, all earlier segments against the block's vertices.
    """
    z = np.array(verts, dtype=complex)
    xy = np.array((z.real, z.imag))  # x and y in two rows
    d = xy[:, 1:] - xy[:, :-1]
    n = d.shape[1]
    rows = max(1, _PAIR_BLOCK // (n + 1))
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        left, zero = _orient_signs(xy, d, slice(lo, hi), slice(None))
        # side[k - lo, i] and back[i, k - lo]: the ends of segment i on either
        # side of segment k's line, and the other way round
        side = left[:, :-1] != left[:, 1:]
        back = side[:, lo:hi]
        if lo:
            left = _orient_signs(xy, d, slice(lo), slice(lo, hi + 1))[0]
            back = np.concatenate((left[:, :-1] != left[:, 1:], back))
        cross = side[:, :hi] & back.T
        # i = k is never set; adjacent segments, i = k - 1 and k + 1, sit on the
        # diagonals beside it, and every other pair counts once or twice
        adjacent = np.diagonal(cross, lo - 1), np.diagonal(cross, lo + 1)
        if np.count_nonzero(cross) > sum(map(np.count_nonzero, adjacent)):
            return True
        # zeros beyond each segment's own two endpoints are rare: test only those
        if np.count_nonzero(zero) > 2 * (hi - lo):
            # segment f folds back over f + 1: vertex f + 2 on its line, direction reversed
            dx, dy = d
            f = np.flatnonzero(np.diagonal(zero, lo + 2)) + lo
            if np.count_nonzero(dx[f] * dx[f + 1] + dy[f] * dy[f + 1] < 0.0):
                return True
            # vertex j ends segments j - 1 and j: it counts unless both are k or next to it
            k, j = np.nonzero(zero)
            k += lo
            far = (abs(np.maximum(j - 1, 0) - k) > 1) | (abs(np.minimum(j, n - 1) - k) > 1)
            k, j = k[far], j[far]
            if np.count_nonzero(_within(xy[:, k], xy[:, k + 1], xy[:, j])):
                return True
    return False


@dataclass(frozen=True)
class PolylineArc:
    """A simple polyline inside the open unit disk: a Jordan arc.

    The vertices pass the polylines' one check (at least two, strictly inside
    the unit disk, none equal to the next). Two segments may meet only where
    adjacent ones share a vertex, so touching, crossing, folding back and a
    closed loop are rejected. Every segment is tested against every vertex
    in numpy arrays, so the test is quadratic in the vertices.
    """

    vertices: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", _check_polyline(self.vertices, inside_disk=True))
        if _has_crossing(self.vertices):
            raise DomainError("polyline is not simple: segments cross")

    @property
    def endpoints(self) -> tuple[complex, complex]:
        return self.vertices[0], self.vertices[-1]


def enclosed_axis_segment(arc: PolylineArc) -> tuple[float, float]:
    """The axis segment ``gamma~`` enclosed by an arc whose endpoints lie on the axis.

    Returns ``(y_lo, y_hi)`` for the vertical segment ``[i y_lo, i y_hi]``:
    the span of every point where the arc meets the imaginary axis, that is of
    its two endpoints, its interior vertices on the axis and its crossings of
    the axis. Everything of the axis outside that span is reachable from
    outside the disk, so the span is exactly the non-reachable part. Two
    degenerate contacts are rejected: a sub-segment running along the axis,
    and an interior vertex touching it with both neighbors on one side. An
    arc lying entirely on the axis is the trivial case and is allowed.
    """
    verts = arc.vertices
    z1, z2 = arc.endpoints
    if abs(z1.real) > GEOMETRY_TOL or abs(z2.real) > GEOMETRY_TOL:
        raise DomainError("arc endpoints must lie on the imaginary axis (normalize first)")
    on = [abs(v.real) <= GEOMETRY_TOL for v in verts]
    if all(on):
        ys = [v.imag for v in verts]
        return min(ys), max(ys)
    if any(map(operator.and_, on, on[1:])):
        raise DegenerateGeometryError("arc runs along the imaginary axis")

    # The segments at the endpoints meet the axis only there. Vertices precede
    # crossings, so a tie of 0.0 and -0.0 goes to the vertex in any segment order.
    # Both products below take real parts of off-axis vertices (no two on-axis
    # vertices are adjacent), each above GEOMETRY_TOL: neither underflows to 0.
    ys, crossings = [z1.imag], []
    for u, v, w, on_v, on_w in zip(verts, verts[1:], verts[2:], on[1:], on[2:]):
        if on_v:
            if u.real * w.real > 0.0:
                raise DegenerateGeometryError(
                    f"arc touches the imaginary axis tangentially at vertex {v}"
                )
            ys.append(v.imag)
        elif not on_w and v.real * w.real < 0.0:
            t = v.real / (v.real - w.real)
            crossings.append(v.imag + t * (w.imag - v.imag))
    ys.append(z2.imag)
    ys += crossings
    return min(ys), max(ys)


def winding_number(point: complex, loop: tuple[complex, ...]) -> int:
    """Winding number of a closed polyline about ``point``.

    The loop closes implicitly from the last vertex back to the first. The
    point must not lie on the loop. ``_orient`` is a float determinant, so a
    point within about 1e-15 of an edge can take the wrong sign and be
    miscounted. No verdict depends on that: :func:`arc_constant` asks only
    about points more than ``_ON_CURVE_TOL`` from ``J`` and from the axis
    chord. It rejects a pole that close and sends a mirror pole that close to
    ``J`` to the inside branch before asking; the mirror is as far from the
    chord as the pole, since reflection maps the axis onto itself.
    """
    w = 0
    for a, b in zip(loop, loop[1:] + loop[:1]):
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
    region bounded by the enclosed axis segment and the arc (both curves and
    their vertices included); raises :class:`HypothesisViolationError`
    otherwise. The branch is inside when the arc, closed by its axis chord,
    winds around the reflected pole ``-conj(s)``, just as ``J + J^`` winds around ``s``.
    A pole within ``_ON_CURVE_TOL`` of ``J^`` takes the inside branch.
    ``analytic_constant`` must be positive and finite.
    """
    analytic_constant = _check_positive(
        analytic_constant, "the analytic constant must be positive and finite, got {!r}"
    )
    ss = _inside_disk(s, "the pole must lie strictly inside the unit disk")

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
    (lg, eg), (la, ea) = polyline_image_length(
        f, (geodesic, arc.vertices), tol, labels=("geodesic", "arc")
    )
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
