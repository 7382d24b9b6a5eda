"""Arc-length quadrature of image curves and the built-in univalent test families.

The length of the image of a parametrized curve ``t -> g(t)`` under a map
``f`` is ``integral of |f'(g(t))| |g'(t)| dt``, computed here by adaptive
Gauss-Kronrod quadrature: on every panel the 15-point Kronrod rule (K15) and
its embedded 7-point Gauss rule (G7). A panel whose error is above its share
of the tolerance is replaced by its four equal quarters, two bisection levels
at once, so a pole's neighbourhood is resolved in half as many rounds. Each
round evaluates all active panels of a curve in one array call of the
integrand; a polyline is one curve whose segments start as separate panels.
Every curve has a piecewise-constant speed ``|g'(t)|``, held as data, and an
exact distance-to-point function so pole proximity can be rejected before any
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

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import BoundResult, minimize_over_q
from .conformal import _check_unit_interval
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

#: A failing panel is replaced by this many equal parts; 4 is two bisection
#: levels at once, so every accepted panel is a dyadic piece of a first panel.
_SPLIT = 4

#: A panel is one row ``(mid, half, scale)``: the midpoint and half-width of
#: its parameter interval, and ``half`` times the curve's speed on it. One
#: matrix product gives the 15 nodes of every panel (``panels @ _TO_NODES``),
#: and one the rows of its equal parts, side by side (``panels @ _TO_PARTS``);
#: numpy's broadcasting costs more than either on a few dozen panels.
_TO_NODES = np.stack((np.ones(15), _NODES, np.zeros(15)))
_TO_PARTS = np.zeros((3, 3 * _SPLIT))
_TO_PARTS[0, 0::3] = 1.0
_TO_PARTS[1, 0::3] = (2.0 * np.arange(_SPLIT) + 1.0) / _SPLIT - 1.0  # the parts' midpoints
_TO_PARTS[1, 1::3] = _TO_PARTS[2, 2::3] = 1.0 / _SPLIT


@dataclass(frozen=True)
class Curve:
    """A parametrized path ``t -> g(t)`` with exact point and distance evaluations.

    ``point`` accepts an array of parameters. ``speed`` is ``|g'(t)|``, which
    is constant for a segment or an arc of the unit circle; a polyline holds
    one speed per segment ``[k, k + 1]``.
    """

    point: Callable[[np.ndarray], np.ndarray]
    speed: float | np.ndarray
    t0: float
    t1: float
    label: str
    distance_to: Callable[[complex], float]


def _segment_distance(z0: complex, z1: complex, w: complex) -> float:
    d = z1 - z0
    denom = abs(d) ** 2
    if denom == 0.0:
        return abs(w - z0)
    t = max(0.0, min(1.0, ((w - z0) * d.conjugate()).real / denom))
    return abs(w - (z0 + t * d))


def _polyline_distance(vertices: tuple[complex, ...], w: complex) -> float:
    return min(_segment_distance(z0, z1, w) for z0, z1 in zip(vertices, vertices[1:]))


def segment_curve(z0: complex, z1: complex, label: str = "segment") -> Curve:
    """The straight segment from ``z0`` to ``z1`` on ``t`` in [0, 1]."""
    if z0 == z1:
        raise DomainError("segment endpoints must be distinct")
    d = z1 - z0
    return Curve(
        point=lambda t: z0 + t * d,
        speed=abs(d),
        t0=0.0,
        t1=1.0,
        label=label,
        distance_to=lambda w: _segment_distance(z0, z1, w),
    )


def _polyline_curve(vertices: tuple[complex, ...]) -> Curve:
    """The polyline through ``vertices``, segment ``k`` on ``t`` in [k, k + 1]."""
    verts = np.array(vertices, dtype=complex)
    steps = np.diff(verts)
    if not steps.all():
        raise DomainError("segment endpoints must be distinct")
    last = len(steps) - 1

    def point(t):
        # t >= 0 truncates to its segment; a node of a tiny panel may round
        # onto the end t = len(steps)
        k = np.minimum(t.astype(np.intp), last)
        return verts[k] + (t - k) * steps[k]

    return Curve(
        point=point,
        speed=np.abs(steps),
        t0=0.0,
        t1=float(len(steps)),
        label="polyline",
        distance_to=lambda w: _polyline_distance(vertices, w),
    )


def vertical_diameter() -> Curve:
    """The vertical diameter of the unit disk, ``t -> it`` on [-1, 1]."""
    return Curve(
        point=lambda t: 1j * t,
        speed=1.0,
        t0=-1.0,
        t1=1.0,
        label="I1",
        distance_to=lambda w: _segment_distance(-1j, 1j, w),
    )


def left_half_circle() -> Curve:
    """The left half of the unit circle, ``theta -> e^{i theta}`` on [pi/2, 3pi/2]."""

    def dist(w: complex) -> float:
        r = abs(w)
        if r == 0.0:
            return 1.0
        theta = math.atan2(w.imag, w.real)
        if abs(theta) > math.pi / 2.0:
            return abs(r - 1.0)
        # Nearest arc point is one of the endpoints +-i.
        return min(abs(w - 1j), abs(w + 1j))

    return Curve(
        point=lambda t: np.exp(1j * t),
        speed=1.0,
        t0=math.pi / 2.0,
        t1=3.0 * math.pi / 2.0,
        label="T-",
        distance_to=dist,
    )


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
    p = complex(p)
    if abs(p) >= 1.0:
        raise DomainError("the pole must lie inside the unit disk")
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
    p = complex(p)
    if not 0.0 < abs(p) < 1.0:
        raise DomainError("the pole must lie inside the unit disk and away from 0")
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


def _gauss_kronrod(
    integrand: Callable[[np.ndarray], np.ndarray],
    edges: np.ndarray,
    speed: float | np.ndarray,
    tol: float,
) -> tuple[float, float]:
    """Adaptive G7-K15 integral of ``speed * integrand`` over ``[edges[0], edges[-1]]``.

    The consecutive ``edges`` are the first panels; ``speed`` is a constant
    factor, one for all panels or one per first panel, and ``integrand`` is
    non-negative. A panel is accepted when ``|K15 - G7|`` is within its share
    of ``tol`` (proportional to its width) or within its roundoff floor; the
    others are replaced by their :data:`_SPLIT` equal parts, all evaluated
    together in the next round.
    """
    half = 0.5 * np.diff(edges)
    panels = np.stack((edges[:-1] + half, half, half * speed), axis=1)
    allowed = 2.0 * tol / (edges[-1] - edges[0])  # per unit of half-width
    value = err = 0.0
    evaluated = 0
    while len(panels):
        evaluated += len(panels)
        if evaluated > MAX_QUAD_PANELS:
            raise QuadratureError(
                f"adaptive Gauss-Kronrod did not converge within {MAX_QUAD_PANELS} panels"
            )
        sums = integrand(panels @ _TO_NODES) @ _RULES
        sums *= panels[:, 2:]
        kronrod = sums[:, 0]
        diff = np.abs(sums[:, 1])
        floor = _ROUNDOFF_FLOOR * kronrod  # the integrand is >= 0: eps * integral of |.|
        done = diff <= np.maximum(allowed * panels[:, 1], floor)
        value += kronrod[done].sum()
        err += np.maximum(diff, floor)[done].sum()
        panels = (panels[~done] @ _TO_PARTS).reshape(-1, 3)
    if err > tol:
        raise QuadratureError(
            f"quadrature error {err:.3g} exceeds tol {tol:.3g}: roundoff limits this length"
        )
    return float(value), float(err)


def _image_length(
    f: TestFunction, curve: Curve, edges: np.ndarray, tol: float
) -> tuple[float, float]:
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    gap = curve.distance_to(complex(f.pole))
    if gap < POLE_GUARD_DISTANCE:
        raise PoleProximityError(
            f"curve {curve.label!r} passes within {gap:.3g} of the pole {f.pole}"
        )

    def integrand(t: np.ndarray) -> np.ndarray:
        d = f.derivative(curve.point(t))
        # a test map's derivative may be a constant
        return np.abs(d) if np.ndim(d) else np.broadcast_to(abs(d), t.shape)

    return _gauss_kronrod(integrand, edges, curve.speed, tol)


def image_curve_length(
    f: TestFunction, curve: Curve, tol: float = DEFAULT_LENGTH_TOL
) -> tuple[float, float]:
    """Length of ``f(curve)`` with an absolute error estimate ``err <= tol``.

    Rejects curves that approach the pole of ``f`` closer than
    :data:`POLE_GUARD_DISTANCE`; raises :class:`QuadratureError` when the
    quadrature cannot reach ``tol``.
    """
    return _image_length(f, curve, np.array([curve.t0, curve.t1]), tol)


def polyline_image_length(
    f: TestFunction, vertices: tuple[complex, ...], tol: float = DEFAULT_LENGTH_TOL
) -> tuple[float, float]:
    """Image length of a polyline, all segments in one quadrature, ``err <= tol``."""
    if len(vertices) < 2:
        raise DomainError("a polyline needs at least two vertices")
    return _image_length(f, _polyline_curve(vertices), np.arange(float(len(vertices))), tol)


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
    adaptive quadrature at tolerance ``tol``; the check passes only if it
    holds for the worst lengths within their error estimates. ``ratio`` is
    the plain quotient of the two lengths.
    """
    p = _check_unit_interval(p, "p")
    if complex(f.pole) != complex(p, 0.0):
        raise DomainError(f"test function pole {f.pole} does not match p={p}")
    li1, e1 = image_curve_length(f, vertical_diameter(), tol)
    ltm, e2 = image_curve_length(f, left_half_circle(), tol)
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
