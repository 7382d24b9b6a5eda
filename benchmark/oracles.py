"""Independent oracles for the benchmark's output checks.

Nothing here imports ``polebounds``: every reference value is computed from
the paper's formulas or from elementary geometry, in mpmath where float64
roundoff would blur the comparison.

* ``mp_minimum``        -- the measure and angle bounds minimized over ``q``
                           by an mpmath scan plus golden-section search.
* ``mobius_image_length`` -- exact image length of a segment or circular arc
                           under ``1/(z - s)``, from three image points.
* ``koebe_i1_length`` / ``koebe_tminus_length`` -- closed-form image lengths
                           of ``I1`` and ``T-`` under the Joukowski-type family.
* ``quad_image_length`` -- QUADPACK (scipy) length of a segment image, for the
                           Joukowski-type family where no closed form exists.
* ``tau_closed_form``   -- ``tanh`` of the hyperbolic distance from a point to
                           a vertical segment, via the perpendicular foot.
* ``point_in_polygon``  -- even-odd ray casting.
* ``wos_limit``         -- the Bernstein deviation limit for a binomial mean.
"""

from __future__ import annotations

import math

import mpmath as mp

#: Working precision of every mpmath computation here.
MP_DPS = 30

ANGLE_MIN_P = math.sqrt(2.0) - 1.0
EPS = 2.0**-52

# The scan brackets the minimum in t = log(q - 1); the same range as the
# program's grid would hide a shared blind spot, so this one is wider.
_SCAN_T = (-9.0 * math.log(10.0), 9.0 * math.log(10.0))
_SCAN_POINTS = 55
# The minimum is flat: an argmin off by 1e-12 in t moves the value by ~1e-24.
_GOLDEN_WIDTH = mp.mpf("1e-12")


def _measure(p, q):
    m = (q + 1) / (q - 1) + (1 - p * p) ** 2 * (1 + q * q) / (
        2 * p * (q - 1) * (4 * p * mp.sqrt(q) + (1 + q) * (1 + p * p))
    )
    return (1 + p * p) * mp.log(q) / (2 * p) * mp.cot(mp.acot(m) / 4) ** 2


def _angle_terms(p, q):
    first = mp.atan((q - 1) / (q + 1))
    return first, first - mp.atan((1 - p * p) * (q - 1) / (2 * p * (q + 1)))


def _angle(p, q):
    theta = _angle_terms(p, q)[1]
    return (1 + p * p) * mp.log(q) / (2 * p) * mp.cot(theta / 4) ** 2


def mp_minimum(p: float, kind: str) -> tuple[float, float, float]:
    """``(value, q_star, condition)`` of ``min_q bound(p, q)`` for ``kind``.

    ``condition`` is the relative float64 roundoff amplification of the
    program's formula at ``q_star``: 1 for the measure bound, and for the
    angle bound the cancellation factor ``atan(.) / theta`` of its angle
    difference, which grows without limit as ``p -> sqrt(2) - 1``.
    """
    with mp.workdps(MP_DPS):
        P = mp.mpf(p)
        fn = {"measure": _measure, "angle": _angle}[kind]
        g = lambda t: fn(P, 1 + mp.exp(t))
        lo, hi = _SCAN_T
        ts = [mp.mpf(lo) + (hi - lo) * mp.mpf(k) / (_SCAN_POINTS - 1) for k in range(_SCAN_POINTS)]
        vals = [g(t) for t in ts]
        i = min(range(len(vals)), key=vals.__getitem__)
        if i in (0, len(vals) - 1):
            raise ArithmeticError(f"mpmath scan minimum at the edge (p={p!r}, kind={kind})")
        a, b = ts[i - 1], ts[i + 1]
        r = (mp.sqrt(5) - 1) / 2
        c, d = b - r * (b - a), a + r * (b - a)
        fc, fd = g(c), g(d)
        while b - a > _GOLDEN_WIDTH:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - r * (b - a)
                fc = g(c)
            else:
                a, c, fc = c, d, fd
                d = a + r * (b - a)
                fd = g(d)
        t = (a + b) / 2
        q = 1 + mp.exp(t)
        cond = 1.0
        if kind == "angle":
            first, theta = _angle_terms(P, q)
            cond = float(abs(first) / theta)
        return float(g(t)), float(q), cond


def min_value_tolerance(condition: float) -> float:
    """Relative tolerance between a float64 bound minimum and the mpmath one.

    The minimum is flat, so an argmin that is off by the float search width
    costs only roundoff in the value: a few ulps of each factor, amplified by
    ``condition``. 512 ulps leaves a margin of about 250 over the largest
    difference seen on the measure bound.
    """
    return 512.0 * EPS * (1.0 + condition)


def lower_bound(p: float) -> float:
    with mp.workdps(MP_DPS):
        P = mp.mpf(p)
        return float((1 + P) ** 2 * mp.pi / (4 * P))


def closed_form_bound(p: float) -> float:
    with mp.workdps(MP_DPS):
        P = mp.mpf(p)
        return float((1 + P * P) / P * (1 + mp.sqrt(2) + 20 / (3 * P)) ** 2 * mp.log(2))


def _mpc(z: complex):
    return mp.mpc(z.real, z.imag)


def _arc_through(w0, wm, w1):
    """Length of the circular arc (or segment) from ``w0`` through ``wm`` to ``w1``.

    With ``beta`` the angle between the chord and the arc at ``w0`` (pi minus
    the inscribed angle at ``wm``), the length is ``chord * beta / sin beta``;
    the form stays exact as the arc straightens (``beta -> 0``).
    """
    u, v = w0 - wm, w1 - wm
    cross = abs(u.real * v.imag - u.imag * v.real)
    dot = u.real * v.real + u.imag * v.imag
    beta = mp.atan2(cross, -dot)
    chord = abs(w1 - w0)
    return chord if beta == 0 else chord * beta / mp.sin(beta)


def mobius_image_length(s: complex, z0: complex, zm: complex, z1: complex) -> float:
    """Length of the image under ``1/(z - s)`` of the circle arc or segment
    from ``z0`` through ``zm`` to ``z1``; the arc must not pass through ``s``.

    Moebius maps send circles and lines to circles and lines, so the image is
    the arc through the three image points.
    """
    with mp.workdps(MP_DPS):
        S = _mpc(s)
        w0, wm, w1 = (1 / (_mpc(z) - S) for z in (z0, zm, z1))
        return float(_arc_through(w0, wm, w1))


def mobius_polyline_length(s: complex, vertices) -> float:
    """Exact image length of a polyline under ``1/(z - s)``, segment by segment."""
    with mp.workdps(MP_DPS):
        S = _mpc(s)
        total = mp.mpf(0)
        for a, b in zip(vertices, vertices[1:]):
            za, zb = _mpc(a), _mpc(b)
            w0, wm, w1 = (1 / (z - S) for z in (za, (za + zb) / 2, zb))
            total += _arc_through(w0, wm, w1)
        return float(total)


def mobius_i1_length(p: float) -> float:
    return mobius_image_length(complex(p, 0.0), -1j, 0j, 1j)


def mobius_tminus_length(p: float) -> float:
    return mobius_image_length(complex(p, 0.0), 1j, -1 + 0j, -1j)


def koebe_i1_length(p: float) -> float:
    """``k(I1)`` is the full circle of diameter ``p / (1 + p^2)``."""
    with mp.workdps(MP_DPS):
        P = mp.mpf(p)
        return float(mp.pi * P / (1 + P * P))


def koebe_tminus_length(p: float) -> float:
    """``k`` maps ``T-`` onto a real interval traversed out and back."""
    with mp.workdps(MP_DPS):
        P = mp.mpf(p)
        return float(2 * P / (1 + P * P) - 2 * P / (1 + P) ** 2)


def koebe_derivative_abs(s: complex, z: complex) -> float:
    """``|k'(z)|`` for ``k(z) = s z / ((s - z)(1 - s z))``."""
    return abs(s * s * (1.0 - z * z) / ((s - z) ** 2 * (1.0 - s * z) ** 2))


def quad_image_length(deriv_abs, z0: complex, z1: complex) -> tuple[float, float]:
    """QUADPACK length of the image of the segment ``[z0, z1]``: ``(value, abserr)``."""
    from scipy.integrate import quad

    d = z1 - z0
    speed = abs(d)
    value, err = quad(
        lambda t: deriv_abs(z0 + t * d) * speed, 0.0, 1.0, epsabs=1e-15, epsrel=1e-13, limit=200
    )
    return value, err


def tau_closed_form(s: complex, y1: float, y2: float) -> float:
    """``tanh`` of the hyperbolic distance from ``s`` to ``[i y1, i y2]``.

    The geodesic through ``s`` perpendicular to the imaginary axis is the
    circle centred at ``i c``, ``c = (1 + |s|^2) / (2 Im s)``, orthogonal to
    the unit circle; it meets the axis at ``i (c - sign(c) sqrt(c^2 - 1))``.
    The distance along the axis grows away from that foot, so the nearest
    point of the segment is the foot clamped to ``[y1, y2]``, and
    ``tanh(d(s, w)) = |s - w| / |1 - s conj(w)|``.
    """
    with mp.workdps(MP_DPS):
        S = _mpc(s)
        if s.imag == 0.0:
            foot = mp.mpf(0)
        else:
            c = (1 + abs(S) ** 2) / (2 * S.imag)
            foot = c - mp.sign(c) * mp.sqrt(c * c - 1)
        y = min(max(foot, mp.mpf(y1)), mp.mpf(y2))
        w = mp.mpc(0, y)
        return float(abs(S - w) / abs(1 - S * mp.conj(w)))


def point_in_polygon(point: complex, polygon) -> bool:
    """Even-odd ray casting; the polygon closes from its last vertex to its first."""
    x, y = point.real, point.imag
    inside = False
    n = len(polygon)
    for k in range(n):
        a, b = polygon[k], polygon[(k + 1) % n]
        if (a.imag > y) != (b.imag > y):
            x_cross = a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag)
            if x < x_cross:
                inside = not inside
    return inside


#: Probability with which one WoS query may exceed its limit on correct code.
WOS_FALSE_ALARM = 1e-9


def wos_limit(omega: float, n: int, delta: float = WOS_FALSE_ALARM) -> float:
    """Deviation ``t`` with ``P(|mean - omega| >= t) <= delta`` for ``n`` walks.

    Bernstein's inequality for a mean of ``n`` Bernoulli(``omega``) scores,
    ``2 exp(-n t^2 / (2 v + 2 t / 3)) = delta`` with ``v = omega (1 - omega)``,
    solved for ``t``. Unlike a Gaussian z limit it holds for rare events too.
    """
    L = math.log(2.0 / delta)
    v = omega * (1.0 - omega)
    return (L / 3.0 + math.sqrt(L * L / 9.0 + 2.0 * n * L * v)) / n
