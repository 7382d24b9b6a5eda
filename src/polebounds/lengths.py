"""Arc-length quadrature of image curves and the built-in univalent test families.

The length of the image of a parametrized curve ``t -> g(t)`` under a map
``f`` is ``integral of |f'(g(t))| |g'(t)| dt``, computed here by adaptive
Gauss-Kronrod quadrature: on every panel the 15-point Kronrod rule (K15) and
its embedded 7-point Gauss rule (G7).

The pole of ``f`` is known before the quadrature starts, so the first panels
are placed for it: every piece of a curve (a polyline segment, a half of
``T-``) is graded geometrically toward its point nearest the pole, each
panel at most :data:`_GRADE` times as wide as its distance to the pole (the
Bernstein-ellipse rate of a panel, Trefethen, *Approximation Theory and
Approximation Practice*, ch. 19; the geometric mesh of Babuska-Guo hp
grading). A piece far from the pole stays one panel. ``T-`` keeps an edge at
``z = -1``, where the Koebe-type derivative vanishes and ``|f'|`` has a kink.
The graded edges are snapped to a dyadic grid, so every panel's midpoint and
half-width, and those of its first quarters, are exact and the panels tile
their curve without gaps or overlaps; each polyline segment has its own
parameter interval [0, 1], so nodes near a pole stay as precise as their
panel is narrow. Most lengths are then resolved in the first round; a panel
whose error is still above its share of the tolerance is replaced by its
four equal quarters.

The curves of one check (``I1`` with ``T-``, a geodesic with its polyline)
are one panel set: each round evaluates all active panels of all curves in
one array call of the integrand, and ``(length, err)`` comes back per curve.
Every curve has a piecewise-constant speed ``|g'(t)|``, held as data, and an
exact nearest-point function, which also rejects pole proximity before any
integrand evaluation.

Error contract: a returned ``(length, err)`` has ``err <= tol``, or
:class:`QuadratureError` is raised. ``err`` sums ``max(|K15 - G7|, floor)``
over the panels, where the roundoff floor is ``4 eps`` times the panel's
integral; ``|K15 - G7|`` is the error of the lower-order rule, so it
overstates the error of the returned K15 value on resolved panels. A panel at
its floor is accepted, since splitting cannot improve it; if the floors alone
leave ``err > tol`` (a tolerance below what double precision resolves for
that length), the quadrature raises.

Two map families are built in, both univalent on the disk with a simple pole
at ``p``:

* ``mobius_family``: ``f(z) = 1 / (z - p)`` -- images of circles and lines are
  again circles or lines, so quadrature results can be cross-checked against
  closed-form arc lengths.
* ``koebe_family``: ``k(z) = p z / ((p - z)(1 - p z))``, the Joukowski-type
  map with ``1/k(z) = z + 1/z - (p + 1/p)``. It sends the unit circle into
  the extended real line and realizes the lower bound exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable

import numpy as np

from .bounds import BoundResult, minimize_over_q
from .conformal import _check_positive, _check_unit_interval, _inside_disk, as_complex
from .errors import DomainError, PoleProximityError, QuadratureError

#: Curves must stay at least this far from the pole of the integrated map.
POLE_GUARD_DISTANCE = 1e-6

#: Default absolute quadrature tolerance per curve.
DEFAULT_LENGTH_TOL = 1e-9

#: Most panels one length may evaluate (15 integrand points each); bounds the
#: work and the memory of a quadrature that cannot converge.
MAX_QUAD_PANELS = 4096

# Gauss-Kronrod 7-15 rule on [-1, 1] (QUADPACK qk15): the non-negative Kronrod
# nodes in descending order, their weights, and the 7-point Gauss weights of
# the odd-indexed nodes and of 0.
_XGK = (
    0.99145537112081264,
    0.94910791234275852,
    0.86486442335976907,
    0.74153118559939444,
    0.58608723546769113,
    0.40584515137739717,
    0.20778495500789847,
    0.0,
)
_WGK = (
    0.022935322010529225,
    0.063092092629978553,
    0.10479001032225018,
    0.14065325971552592,
    0.16900472663926790,
    0.19035057806478541,
    0.20443294007529889,
    0.20948214108472783,
)
_WG = (
    0.12948496616886969,
    0.27970539148927667,
    0.38183005050511894,
    0.41795918367346939,
)

#: The 15 nodes in ascending order, and per node the K15 weight and the G7
#: weight (0 at the Kronrod-only nodes).
_NODES = np.concatenate((np.negative(_XGK), _XGK[6::-1]))
_K15 = np.concatenate((_WGK, _WGK[6::-1]))
_G7 = np.zeros(15)
_G7[1:14:2] = _WG + _WG[2::-1]

#: One matrix product gives each panel's K15 sum and its K15 - G7 difference.
_RULES = np.stack((_K15, _K15 - _G7), axis=1)

#: Roundoff floor of a panel's error, relative to the panel's integral.
_ROUNDOFF_FLOOR = 4.0 * np.finfo(float).eps

#: Least speed in a first edge's quotient, which cannot then overflow; a piece
#: slower than this (a subnormal segment) has its whole span as first edge anyway.
_TINY = np.finfo(float).tiny

#: A failing panel is replaced by this many equal parts; 4 is two bisection
#: levels at once.
_SPLIT = 4

#: First panels: each half-width is at most ``_GRADE`` times the distance
#: from the panel's midpoint to the pole, so a Bernstein ellipse of parameter
#: ~8 around every panel avoids the pole. From a piece's point nearest the
#: pole (its foot, an edge when interior) the first edges lie ``_FIRST *
#: distance / speed`` away, and each further edge ``_RATIO`` times as far.
_GRADE = 0.25
_FIRST = 2.0 * _GRADE / math.sqrt(1.0 - _GRADE * _GRADE)
_RATIO = (1.0 + _GRADE) / (1.0 - _GRADE)

#: Edge offsets from a foot, in units of its first edge, ``-R^k .. -1, 0, 1 ..
#: R^k``, sliced to the ``k`` a panel set needs; past ``R^_GRADES`` the
#: adaptive loop refines what grading left coarse.
_GRADES = 64
_POWERS = _RATIO ** np.arange(_GRADES + 1)
_OFFSETS = np.concatenate((-_POWERS[::-1], [0.0], _POWERS))

#: Graded edges are snapped to multiples of ``1/_GRID`` above their piece's
#: start. On pieces within [-1, 1] (all but the halves of ``T-``), panel
#: midpoints and half-widths are then exact for six levels of quarters, so
#: the panels tile their curve.
_GRID = 2.0**40

#: A panel is one row ``(mid, half, scale, share, piece)``: the midpoint and
#: half-width of its parameter interval, ``half`` times the curve's speed on
#: it, its share of its length's tolerance (proportional to its width), and
#: the index of its piece in its curve. Rows are grouped by length, in order.
#: One matrix product gives the 15 nodes of every panel (``panels @
#: _TO_NODES``), and one the rows of its equal parts, side by side and in
#: place (``panels @ _TO_PARTS``); numpy's broadcasting costs more than either
#: on a few dozen panels.
_COLUMNS = 5
_TO_NODES = np.zeros((_COLUMNS, 15))
_TO_NODES[0] = 1.0
_TO_NODES[1] = _NODES
_TO_PARTS = np.zeros((_COLUMNS, _COLUMNS * _SPLIT))
_TO_PARTS[0, 0::_COLUMNS] = 1.0
_TO_PARTS[1, 0::_COLUMNS] = (2.0 * np.arange(_SPLIT) + 1.0) / _SPLIT - 1.0  # the parts' midpoints
for _col in (1, 2, 3):
    _TO_PARTS[_col, _col::_COLUMNS] = 1.0 / _SPLIT
_TO_PARTS[4, 4::_COLUMNS] = 1.0

#: Rows of ``Curve.pieces``.
_START, _END, _SPEED, _LENGTH, _SHARE = range(5)


@dataclass(frozen=True)
class Curve:
    """A parametrized path ``t -> g(t)`` in pieces, with exact nearest points.

    ``point(t, piece)`` evaluates an array of parameters, each row of ``t``
    inside the piece of that index. ``pieces`` has one column per piece and
    five rows: its start and end parameter, its constant speed ``|g'(t)|``,
    the index of the length it adds to (0 unless the curve joins several
    paths, like the polylines of one check), and ``2 / r`` for the parameter
    range ``r`` of that length. ``nearest(w)`` returns, per piece, the
    parameter of the piece's point nearest ``w`` and the distance between
    the two.
    """

    point: Callable[[np.ndarray, np.ndarray], np.ndarray]
    pieces: np.ndarray
    label: str
    nearest: Callable[[complex], tuple]


def _segment_feet(a, d, w):
    """Per segment ``a + s d``, ``s`` in [0, 1]: the ``s`` nearest to ``w``, and the distance.

    ``a`` and ``d`` may be arrays, one entry per segment; a zero ``d`` is the
    point ``a``.
    """
    dc = d.conjugate()
    norm = (d * dc).real
    s = np.minimum(np.maximum(((w - a) * dc).real / (norm + (norm == 0.0)), 0.0), 1.0)
    return s, abs(w - (a + s * d))


def _check_polyline(verts, inside_disk: bool = False) -> None:
    """At least two vertices, all inside ``D`` if ``inside_disk``, none equal to the next."""
    if len(verts) < 2:
        raise DomainError("a polyline arc needs at least two vertices")
    if inside_disk:
        for v in verts:
            _inside_disk(v, "vertex {} is not strictly inside the unit disk")
    if any(u == v for u, v in zip(verts, verts[1:])):
        raise DomainError("consecutive vertices must be distinct")


def _polyline_curve(polylines, label: str = "polyline") -> Curve:
    """Polylines joined into one curve: their segments in order, each on ``t`` in [0, 1].

    Polyline ``i`` is length ``i``; no segment joins one polyline to the
    next. A parameter local to its segment keeps the nodes of a panel near a
    pole as precise as the panel is narrow.
    """
    for v in polylines:
        _check_polyline(v)
    verts = [np.array(v, dtype=complex) for v in polylines]
    starts = np.concatenate([v[:-1] for v in verts])
    steps = np.concatenate([v[1:] - v[:-1] for v in verts])
    pieces = np.empty((5, len(steps)))
    pieces[_START] = 0.0
    pieces[_END] = 1.0
    np.abs(steps, out=pieces[_SPEED])
    first = 0
    for i, v in enumerate(verts):
        last = first + len(v) - 1
        pieces[_LENGTH, first:last] = i
        pieces[_SHARE, first:last] = 2.0 / (last - first)
        first = last
    start_col, step_col = starts[:, None], steps[:, None]
    return Curve(
        point=lambda t, piece: start_col[piece] + t * step_col[piece],
        pieces=pieces,
        label=label,
        nearest=lambda w: _segment_feet(starts, steps, w),
    )


def segment_curve(z0: complex, z1: complex, label: str = "segment") -> Curve:
    """The straight segment from ``z0`` to ``z1`` on ``t`` in [0, 1]."""
    return _polyline_curve(((z0, z1),), label)


_I1 = segment_curve(-1j, 1j, label="I1")


def vertical_diameter() -> Curve:
    """The vertical diameter of the unit disk, from ``-i`` to ``i`` on ``t`` in [0, 1]."""
    return _I1


#: ``T-`` in two pieces, split at ``z = -1``.
_T_LO, _T_MID, _T_HI = math.pi / 2.0, math.pi, 3.0 * math.pi / 2.0


def _t_minus_nearest(w: complex) -> tuple:
    # |e^{it} - w| grows with the angle between e^{it} and w, so arg w clamped
    # to a piece is its nearest point (an endpoint when Re w >= 0), except on a
    # piece in the quadrant opposite w: that piece is at least 1 away.
    theta = math.atan2(w.imag, w.real) % (2.0 * math.pi)
    t = (min(max(theta, _T_LO), _T_MID), min(max(theta, _T_MID), _T_HI))
    return t, (abs(cmath.exp(1j * t[0]) - w), abs(cmath.exp(1j * t[1]) - w))


_T_MINUS = Curve(
    point=lambda t, piece: np.exp(1j * t),
    pieces=np.array(
        [[_T_LO, _T_MID], [_T_MID, _T_HI], [1.0, 1.0], [0.0, 0.0], [2.0 / math.pi] * 2]
    ),
    label="T-",
    nearest=_t_minus_nearest,
)


def left_half_circle() -> Curve:
    """The left half of the unit circle, ``theta -> e^{i theta}`` on [pi/2, 3pi/2].

    Its two pieces meet at ``z = -1``.
    """
    return _T_MINUS


@dataclass(frozen=True)
class TestFunction:
    """A univalent test map: evaluation, derivative, and its pole location."""

    __test__ = False  # keep pytest from collecting this as a test class

    id: str
    evaluate: Callable[[complex], complex]
    derivative: Callable[[complex], complex]
    pole: complex


def mobius_family(p: complex) -> TestFunction:
    """``f(z) = 1 / (z - p)``: the simplest univalent map with a pole at ``p``."""
    # as_complex first: a non-finite pole is reported as such
    p = _inside_disk(as_complex(p), "the pole must lie inside the unit disk")
    return TestFunction(
        id="mobius",
        evaluate=lambda z: 1.0 / (z - p),
        derivative=lambda z: -1.0 / (z - p) ** 2,
        pole=p,
    )


def koebe_family(p: complex) -> TestFunction:
    """``k(z) = p z / ((p - z)(1 - p z))``, univalent with a simple pole at ``p``.

    The reciprocal is the shifted Joukowski map ``z + 1/z - (p + 1/p)``, which
    is univalent on the disk; the unit circle goes into the extended real
    line, so the image of the left half-circle has finite length.
    """
    message = "the pole must lie inside the unit disk and away from 0"
    p = _inside_disk(as_complex(p), message)
    if p == 0.0:
        raise DomainError(message)
    return TestFunction(
        id="koebe",
        evaluate=lambda z: p * z / ((p - z) * (1.0 - p * z)),
        derivative=lambda z: p * p * (1.0 - z * z) / ((p - z) ** 2 * (1.0 - p * z) ** 2),
        pole=p,
    )


FAMILIES: dict[str, Callable[[complex], TestFunction]] = {
    "mobius": mobius_family,
    "koebe": koebe_family,
}


def _first_panels(curves: tuple[Curve, ...], pole: complex, tol: float):
    """The first panel rows of ``curves``, each piece graded toward ``pole``.

    Returns the rows, grouped by length in order, and the number of rows of
    each length.
    """
    # per piece of every curve: the rows of Curve.pieces, foot, distance, index
    table = np.empty((8, sum(c.pieces.shape[1] for c in curves)))
    start = lengths = 0
    for curve in curves:
        stop = start + curve.pieces.shape[1]
        table[:5, start:stop] = curve.pieces
        table[_LENGTH, start:stop] += lengths
        table[5:7, start:stop] = curve.nearest(pole)
        table[7, start:stop] = np.arange(stop - start)
        gap = table[6, start:stop].min()
        if not gap >= POLE_GUARD_DISTANCE:
            raise PoleProximityError(
                f"curve {curve.label!r} passes within {gap:.3g} of the pole {pole}"
            )
        lengths = int(table[_LENGTH, stop - 1]) + 1
        start = stop
    lo, hi, speed, length, share, foot, dist, piece = table
    span = hi - lo
    first = np.minimum(dist * _FIRST / np.maximum(speed, _TINY), span)
    reach = span / first  # 1 for a piece within its first edge: it stays one panel
    n = min(math.ceil(math.log(reach.max()) / math.log(_RATIO)), _GRADES)
    np.copyto(foot, lo, where=reach <= 1.0)
    foot -= lo
    lo, hi = lo[:, None], hi[:, None]
    edges = first[:, None] * _OFFSETS[_GRADES - n : _GRADES + n + 3]
    edges += foot[:, None]
    edges *= _GRID
    np.rint(edges, out=edges)
    edges /= _GRID
    edges += lo
    np.minimum(np.maximum(edges, lo, out=edges), hi, out=edges)
    half = edges[:, 1:] - edges[:, :-1]
    half *= 0.5
    rows = np.empty(half.shape + (_COLUMNS,))
    np.add(edges[:, :-1], half, out=rows[..., 0])
    rows[..., 1] = half
    np.multiply(half, speed[:, None], out=rows[..., 2])
    np.multiply(half, share[:, None], out=rows[..., 3])
    rows[..., 3] *= tol  # after the share, which is at most 1: no overflow
    rows[..., 4] = piece[:, None]
    keep = half > 0.0  # clipped and coinciding edges leave empty panels
    counts = np.bincount(length.astype(np.intp), keep.sum(axis=1), lengths)
    return rows[keep], counts.astype(np.intp).tolist()


def _gauss_kronrod(
    derivative: Callable[[np.ndarray], np.ndarray],
    curves: tuple[Curve, ...],
    panels: np.ndarray,
    counts: list[int],
    tol: float,
) -> list[tuple[float, float]]:
    """Adaptive G7-K15 lengths ``integral of |derivative(point(t))| speed dt``.

    ``panels`` are the first panel rows of ``curves``, ``counts[i]`` of them
    for length ``i``. Each round evaluates the nodes of every active panel in
    one call of ``derivative``. A panel is accepted when ``|K15 - G7|`` is
    within its share of ``tol`` or within its roundoff floor; the others are
    replaced in place by their :data:`_SPLIT` equal parts, all evaluated
    together in the next round. Returns ``(length, err)`` per length.
    """
    owned = [int(c.pieces[_LENGTH, -1]) + 1 for c in curves]  # lengths per curve
    values, errors, evaluated = [0.0] * len(counts), [0.0] * len(counts), [0] * len(counts)
    while len(panels):
        evaluated = [e + c for e, c in zip(evaluated, counts)]
        if max(evaluated) > MAX_QUAD_PANELS:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod did not converge within {MAX_QUAD_PANELS} panels"
            )
        nodes = panels @ _TO_NODES
        piece = panels[:, 4].astype(np.intp)
        parts, start, first = [], 0, 0
        for curve, m in zip(curves, owned):
            stop = start + sum(counts[first : first + m])
            if stop > start:
                parts.append(curve.point(nodes[start:stop], piece[start:stop]))
            start, first = stop, first + m
        z = parts[0] if len(parts) == 1 else np.concatenate(parts)
        d = derivative(z)
        # a test map's derivative may be a constant
        g = np.abs(d) if np.ndim(d) else np.full(z.shape, abs(d))
        sums = g @ _RULES
        sums *= panels[:, 2:3]
        # the integrand is >= 0: eps * integral of |.|
        floor = _ROUNDOFF_FLOOR * sums[:, 0]
        np.maximum(np.abs(sums[:, 1]), floor, out=sums[:, 1])
        done = sums[:, 1] <= np.maximum(panels[:, 3], floor)
        # per length with panels this round: accepted value and error, panels split
        live = [i for i, c in enumerate(counts) if c]
        offsets = list(accumulate([counts[i] for i in live[:-1]], initial=0))
        sums *= done[:, None]
        split = ~done
        accepted = np.add.reduceat(sums, offsets).tolist()
        for i, (value, err), c in zip(
            live, accepted, np.add.reduceat(split, offsets, dtype=np.intp).tolist()
        ):
            values[i] += value
            errors[i] += err
            counts[i] = _SPLIT * c
        panels = (panels[split] @ _TO_PARTS).reshape(-1, _COLUMNS)
    for err in errors:
        if err > tol:
            raise QuadratureError(
                f"quadrature error {err:.3g} exceeds tol {tol:.3g}: roundoff limits this length"
            )
    return list(zip(values, errors))


def _image_lengths(
    f: TestFunction, curves: tuple[Curve, ...], tol: float
) -> list[tuple[float, float]]:
    tol = _check_positive(tol, "tol must be positive and finite")
    panels, counts = _first_panels(curves, complex(f.pole), tol)
    return _gauss_kronrod(f.derivative, curves, panels, counts, tol)


def image_curve_length(f: TestFunction, curve, tol: float = DEFAULT_LENGTH_TOL):
    """Length of ``f(curve)`` with an absolute error estimate ``err <= tol``.

    ``curve`` may also be a sequence of curves: they are integrated as one
    panel set, and a list with one ``(length, err)`` per curve comes back.
    Rejects curves that approach the pole of ``f`` closer than
    :data:`POLE_GUARD_DISTANCE`; raises :class:`QuadratureError` when the
    quadrature cannot reach ``tol``.
    """
    if isinstance(curve, Curve):
        return _image_lengths(f, (curve,), tol)[0]
    return _image_lengths(f, tuple(curve), tol)


def polyline_image_length(f: TestFunction, vertices, tol: float = DEFAULT_LENGTH_TOL):
    """Image length of a polyline, all segments in one quadrature, ``err <= tol``.

    ``vertices`` may also be a sequence of polylines: they are integrated as
    one panel set, and a list with one ``(length, err)`` per polyline comes
    back.
    """
    if len(vertices) and np.ndim(vertices[0]):
        return _image_lengths(f, (_polyline_curve(vertices),), tol)
    return _image_lengths(f, (_polyline_curve((vertices,)),), tol)[0]


def _conservative_verdict(
    length_num: float, err_num: float, length_den: float, err_den: float, constant: float
) -> bool:
    """``length_num / length_den <= constant`` for the worst lengths within their errors.

    That is ``(length_num + err_num) / (length_den - err_den) <= constant``,
    and false when ``length_den - err_den`` is not positive.
    """
    den = length_den - err_den
    return den > 0.0 and (length_num + err_num) / den <= constant


@dataclass(frozen=True)
class RatioReport:
    """Outcome of one empirical length-distortion check."""

    function_id: str
    p: float
    length_i1: float
    length_tminus: float
    ratio: float
    bound: BoundResult
    passed: bool
    error_i1: float
    error_tminus: float


def verify_inequality(f: TestFunction, p: float, tol: float = DEFAULT_LENGTH_TOL) -> RatioReport:
    """Check ``len(f(I1)) <= bound * len(f(T-))`` for a built-in test map.

    The bound is the minimized measure bound at ``p``. Both lengths come from
    one adaptive quadrature of the two curves at tolerance ``tol`` each; the check passes only if it
    holds for the worst lengths within their error estimates. ``ratio`` is
    the plain quotient of the two lengths.
    """
    p = _check_unit_interval(p, "p")
    if complex(f.pole) != complex(p, 0.0):
        raise DomainError(f"test function pole {f.pole} does not match p={p}")
    (li1, e1), (ltm, e2) = image_curve_length(f, (vertical_diameter(), left_half_circle()), tol)
    bound = minimize_over_q(p, "measure")
    return RatioReport(
        function_id=f.id,
        p=p,
        length_i1=li1,
        length_tminus=ltm,
        ratio=li1 / ltm,
        bound=bound,
        passed=_conservative_verdict(li1, e1, ltm, e2, bound.value),
        error_i1=e1,
        error_tminus=e2,
    )
