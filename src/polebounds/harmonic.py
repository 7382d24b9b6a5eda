"""Harmonic measure of real-axis segments, exactly and by Monte Carlo.

Exact evaluation on the upper half-plane uses the subtended-angle formula;
on Omega1 it pulls back through the conformal map ``psi`` of
:func:`polebounds.conformal.omega1_to_halfplane`, which sends positive-axis
segments to positive-axis segments; each is one ``atan2`` in which nothing
cancels. The walk-on-spheres estimator is an independent stochastic oracle
for the same quantities: it never touches the exact formulas. It is the only
part that needs numpy, and imports it when it runs; the rest is ``math``.

``measure_cot_bound`` is the closed-form upper bound for ``cot(pi * omega)``
on the vertical segment ``[ia, ib]``; together with the half-plane comparison
it sandwiches the Omega1 measure:

    arccot(measure_cot_bound(p, b/a)) / pi  <=  omega(z, [a, b], Omega1)  <=  1/2

for ``z`` on ``[ia, ib]``. ``arccot`` (``atan2(1, x)``, with values in
(0, pi)) and the unchecked cotangent formula come from
:mod:`polebounds.conformal`, which ``bounds`` shares, so that ``bounds``
never loads this module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .conformal import (
    _as_real,
    _check_positive,
    _check_unit_interval,
    _checked_at_q,
    _measure_cot,
    arccot,
    as_complex,
)
from .errors import DomainError, WalkCapError
from .hyperbolic import ExcludedDisk, in_omega1

#: Default seed for every stochastic routine; fixed so runs are reproducible.
DEFAULT_SEED = 1729

#: Default absorption layer width for walk-on-spheres.
DEFAULT_WOS_EPS = 1e-6

#: Per-walk step cap; capped walks are discarded and reported.
WOS_STEP_CAP = 10**6

#: Most walks one estimate may take: ten times the largest run in the README.
WOS_MAX_WALKS = 10**7


def _check_measure(w: float) -> float:
    if not 0.0 < w < 1.0:
        # e.g. z = 1e-300j or z = 1e300j: the angle rounds to 0 or pi.
        raise DomainError(
            f"subtended angle rounds to 0 or pi (w={w!r}): "
            "z is too close to the real axis or too far from the segment"
        )
    return w


def _endpoints(a: float, b: float) -> tuple[float, float]:
    """The segment's endpoints as floats; a non-real one raises DomainError naming it."""
    message = "{1} must be a real number, got {0!r}"
    return _as_real(a, message, "a"), _as_real(b, message, "b")


def hm_halfplane(z: complex, a: float, b: float) -> float:
    """Harmonic measure of the segment ``[a, b]`` seen from ``z`` in ``H``.

    Equals ``1/pi`` times the angle subtended by the segment at ``z``;
    additive over adjacent segments. The angle's sine and cosine are divided
    by ``|z - a| |z - b|`` factor by factor, so no finite input overflows.
    """
    zz = as_complex(z)
    a, b = _endpoints(a, b)
    if zz.imag <= 0.0:
        raise DomainError("z must lie in the open upper half-plane")
    if not -math.inf < a < b < math.inf:
        raise DomainError("need finite a < b")
    # A quarter of each input keeps every difference finite; the angle is scale-free.
    s = 0.25 if max(abs(zz.real), zz.imag, -a, b) > 2.0**1020 else 1.0
    x, y, a, b = s * zz.real, s * zz.imag, s * a, s * b
    if not y:  # Im z below 2e-323 next to an input beyond 1e307: the angle is 0 or pi
        return _check_measure(0.0)
    xa, xb = x - a, x - b
    ra, rb = math.hypot(xa, y), math.hypot(xb, y)
    sine = (b - a) / max(ra, rb) * (y / min(ra, rb))
    cosine = xa / ra * (xb / rb) + y / ra * (y / rb)
    return _check_measure(math.atan2(sine, cosine) / math.pi)


def hm_omega1(z: complex, a: float, b: float, p: float) -> float:
    """Harmonic measure of ``[a, b]`` seen from ``z`` in Omega1.

    Exact by conformal invariance: ``psi = r^2``, ``r(x) = (x + p) / (x + 1/p)``,
    maps Omega1 onto ``H`` and the segment onto ``[psi(a), psi(b)]``. So the
    measure is ``arg(1 + (psi(a) - psi(b)) / (psi(z) - psi(a))) / pi``, or minus
    that with ``a, b`` swapped, whichever has the shorter ``psi(z) - psi(.)``.
    ``psi(z)`` rounds to 1 far away, so ``psi(z) - psi(x) = (r(z) - r(x)) (r(z) + r(x))``,
    with ``r(z) - r(x) = k / (x + 1/p) * (z - x) / (z + 1/p)`` near and far, ``k = 1/p - p``.
    It resolves ``p`` down to about 1e-100 (at ``z = 2i`` within 4.3e-16 of mpmath from
    1e-10 on); below about 1e-110 products of size ``p`` underflow, and the message it
    raises blames ``z`` ("rounds to 0 or pi", "too close to an endpoint").
    """
    zz = as_complex(z)
    a, b = _endpoints(a, b)
    if not 0.0 < a < b < math.inf:
        raise DomainError("need 0 < a < b")
    if not in_omega1(zz, p):
        raise DomainError("z must lie in Omega1")
    inv = 1.0 / p
    k = inv - p
    # Re r(z) from the quotient, Im r(z) = k Im z / |z + 1/p|^2: neither cancels
    m = math.hypot(zz.real + inv, zz.imag)
    rz = complex(((zz + p) / (zz + inv)).real, k / m * (zz.imag / m))

    def psi_from(x):  # psi(z) - psi(x) and r(x), with r(z) - r(x) as one quotient
        rx = (x + p) / (x + inv)
        diff = k / (x + inv) * ((zz - x) / (zz + inv))
        return complex(diff.real * (rz.real + rx) - rz.imag * rz.imag, 2.0 * rz.real * rz.imag), rx

    (wa, ra), (wb, rb) = psi_from(a), psi_from(b)
    # hypot, as abs() of a complex raises OverflowError
    shorter = math.hypot(wa.real, wa.imag) <= math.hypot(wb.real, wb.imag)
    w, sign = (-wa, 1.0) if shorter else (wb, -1.0)
    if not w:
        raise DomainError("z is too close to an endpoint of the segment to resolve the measure")
    # (psi(b) - psi(a)) / w, with its small factor last so that nothing underflows early
    delta = (ra + rb) / w * ((b - a) / (b + inv)) * (k / (a + inv))
    return _check_measure(sign * math.atan2(delta.imag, 1.0 + delta.real) / math.pi)


def measure_cot_bound(p: float, q: float) -> float:
    """Closed-form bound for ``cot(pi * omega)`` on the vertical segment.

    For a segment with endpoint ratio ``q = b/a``:

        (q+1)/(q-1) + (1-p^2)^2 (1+q^2) / (2p (q-1) (4p sqrt(q) + (1+q)(1+p^2)))

    Strictly positive; tends to ``(q+1)/(q-1)`` as ``p -> 1``. Raises
    :class:`DomainError` where the double overflows (``q`` above ~1e154).
    """
    return _checked_at_q(_measure_cot, _check_unit_interval(p, "p"), q, "cot bound")


@dataclass(frozen=True)
class WosEstimate:
    """Result of a walk-on-spheres run: mean, binomial standard error, counts."""

    mean: float
    stderr: float
    n_walks: int
    n_used: int
    n_capped: int


def _wos_jump(rng, dist):
    """Per walk, in order, ``dist * e^{2i theta}`` with ``theta = pi (u - 1/2)``, ``u`` uniform.

    With ``v = tan(theta)`` the step is ``dist * ((1 - v^2) + 2iv) / (1 + v^2)``.
    The unit vector is formed before ``dist`` scales it, so no tiny ``dist``
    underflows; ``1 + v^2 >= 1``, and ``|v| <= 1.7e16`` at both ends of [0, 1).
    Four doubles per walk: ``v``, ``v^2`` and the complex step.
    """
    import numpy as np

    v = rng.random(dist.size)
    v -= 0.5
    v *= math.pi
    np.tan(v, out=v)
    t = v * v
    step = np.empty(dist.size, dtype=np.complex128)
    re = step.real
    np.subtract(1.0, t, out=re)
    t += 1.0
    re /= t
    re *= dist
    v += v
    v /= t
    np.multiply(v, dist, out=step.imag)
    return step


def _check_index(value, name: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def wos_harmonic_measure(
    z: complex,
    a: float,
    b: float,
    p: float,
    n_walks: int,
    eps: float = DEFAULT_WOS_EPS,
    seed: int = DEFAULT_SEED,
) -> WosEstimate:
    """Walk-on-spheres estimate of the harmonic measure of ``[a, b]``.

    The domain is Omega1 for ``p`` in (0, 1). At ``p = 1`` the excluded disk
    is the point ``-1``, whose distance never falls below ``Im z``: the walk
    sees the full half-plane, and any ``a < b`` is allowed (useful for
    validating against :func:`hm_halfplane`). Each step jumps to a uniform
    point on the largest inscribed circle at the current position, of radius
    ``dist``: one uniform ``u`` gives ``v = tan(pi (u - 1/2))`` and the step
    ``dist * ((1 - v^2) + 2iv) / (1 + v^2) = dist * e^{2i theta}``, whose angle
    ``2 theta`` is uniform on [-pi, pi); no draw makes a step nan. A walk is
    absorbed once within ``eps`` of the boundary and scores 1 when its nearest
    boundary point lies in ``[a, b]`` on the real axis, or as a miss once a
    step overflows; ``eps`` must be positive and below the start's distance
    to the boundary, ``n_walks`` an integer in [1, WOS_MAX_WALKS] and ``seed``
    a non-negative integer; ``a``, ``b`` and ``p`` are real numbers, not strings.
    Walks exceeding the step cap are discarded and reported in ``n_capped``.

    All walks advance in lockstep on a single seeded generator, each live
    walk taking the next uniform in order, so a given ``(inputs, seed)`` pair
    always reproduces the same estimate. An absorbed walk leaves the lockstep
    arrays at once; the absorbed walks are scored together, once, after the
    loop, which changes no estimate, and a capped walk is never scored.
    """
    import numpy as np

    zz = as_complex(z)
    n_walks = _check_index(n_walks, "n_walks")
    seed = _check_index(seed, "seed")
    if n_walks < 1:
        raise DomainError("n_walks must be at least 1")
    if n_walks > WOS_MAX_WALKS:
        raise DomainError(f"n_walks must be at most {WOS_MAX_WALKS}, got {n_walks}")
    eps = _check_positive(eps, "eps must be positive and finite, got {!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed!r}")
    a, b = _endpoints(a, b)
    p = _as_real(p, "p must be a real number, got {!r}")
    if not a < b:
        raise DomainError("need a < b")
    if p != 1.0 and not 0.0 < a:
        raise DomainError("need 0 < a < b for an Omega1 query")
    disk = ExcludedDisk(p=1.0, center=1.0, radius=0.0) if p == 1.0 else ExcludedDisk.from_pole(p)
    start = zz.imag if p == 1.0 else min(zz.imag, disk.boundary_gap(-zz.conjugate()))
    if not start > 0.0:
        raise DomainError(
            "z must lie in the open upper half-plane" if p == 1.0 else "z must lie in Omega1"
        )
    if not eps < start:
        raise DomainError(
            f"eps={eps!r} must be below the start's distance {start!r} to the boundary"
        )
    # |z + c| - r loses about r 2^-52 to cancellation; where that is not far below eps
    # (at eps = 1e-6, for p below about 1e-4) the steps take the exact gap instead
    exact = disk.radius > eps * 2.0**32

    # an overflowing walk is a miss
    with np.errstate(over="ignore", invalid="ignore"):
        # pts holds the live walks only, in their original order, so each draws
        # the same uniform as it would in a walk-indexed array
        rng = np.random.default_rng(seed)
        pts = np.full(n_walks, complex(zz), dtype=np.complex128)
        # absorbed walks and their distances, scored after the loop; fresh empty
        # arrays, as a view of pts would keep the first n_walks-long array alive
        done, done_dist = [np.empty(0, complex)], [np.empty(0)]
        capped = 0

        for _ in range(WOS_STEP_CAP):
            gap = disk.boundary_gap(-pts.conj()) if exact else abs(pts + disk.center) - disk.radius
            dist = np.minimum(pts.imag, gap, out=gap)
            keep = dist >= eps  # a nan walk overflowed: absorbed, scores 0
            live = np.count_nonzero(keep)
            if live < pts.size:
                absorb = ~keep
                done.append(pts[absorb])
                done_dist.append(dist[absorb])
                if not live:
                    break
                pts, dist = pts[keep], dist[keep]
            pts += _wos_jump(rng, dist)
        else:
            capped = int(pts.size)

    zdone = np.concatenate(done)
    x = zdone.real
    # nearest boundary point on the axis; never for nan
    hits = int(np.count_nonzero((zdone.imag == np.concatenate(done_dist)) & (x >= a) & (x <= b)))
    n_used = n_walks - capped
    if n_used == 0:
        raise WalkCapError("all walks hit the step cap")
    mean = hits / n_used
    stderr = math.sqrt(mean * (1.0 - mean) / n_used)
    return WosEstimate(mean=mean, stderr=stderr, n_walks=n_walks, n_used=n_used, n_capped=capped)


@dataclass(frozen=True)
class DistanceMeasureCheck:
    """Both sides of the boundary-distance inequality, plus the verdict."""

    delta: float
    bound: float
    measure: float
    passed: bool


def check_distance_measure_bound(
    a: float,
    b: float,
    w: complex,
    d: float,
    w0: complex,
    p: float | None = None,
) -> DistanceMeasureCheck:
    """Check ``delta_D(w) <= d * cot^2(pi * omega(w, [a, b], D) / 4)``.

    Both sides are exactly computable for ``D`` = Omega1, given the pole
    parameter ``p``, and for the upper half-plane, without it. The segment
    ``[a, b]`` must lie on the boundary and inside the closed disk of positive
    finite radius ``d`` around ``w0``, with ``w0`` outside ``D``.
    """
    ww, w0c = as_complex(w), as_complex(w0)
    a, b = _endpoints(a, b)
    if not a < b:
        raise DomainError("need a < b")
    d = _check_positive(d, "d must be positive and finite, got {!r}")
    if max(abs(complex(a, 0.0) - w0c), abs(complex(b, 0.0) - w0c)) > d * (1.0 + 1e-12):
        raise DomainError("segment [a, b] is not contained in the disk B(w0, d)")

    if p is None:
        if w0c.imag > 0.0:
            raise DomainError("w0 must lie outside the open upper half-plane")
        delta = ww.imag
        measure = hm_halfplane(ww, a, b)
    else:
        if in_omega1(w0c, p):
            raise DomainError("w0 must lie outside Omega1")
        delta = min(ww.imag, ExcludedDisk.from_pole(p).boundary_gap(-ww.conjugate()))
        measure = hm_omega1(ww, a, b, p)

    # below a measure of about 1e-154 the square underflows, and the bound exceeds every double
    tan2 = math.tan(math.pi * measure / 4.0) ** 2
    bound = d / tan2 if tan2 else math.inf
    return DistanceMeasureCheck(
        delta=delta, bound=bound, measure=measure, passed=delta <= bound + 1e-12
    )
