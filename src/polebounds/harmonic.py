"""Harmonic measure of real-axis segments, exactly and by Monte Carlo.

Exact evaluation on the upper half-plane uses the subtended-angle formula;
on Omega1 it pulls back through the conformal map ``psi`` of
:func:`polebounds.conformal.omega1_to_halfplane`, which sends positive-axis
segments to positive-axis segments. The walk-on-spheres estimator is an
independent stochastic oracle for the same quantities: it never touches the
exact formulas.

``measure_cot_bound`` is the closed-form upper bound for ``cot(pi * omega)``
on the vertical segment ``[ia, ib]``; together with the half-plane comparison
it sandwiches the Omega1 measure:

    arccot(measure_cot_bound(p, b/a)) / pi  <=  omega(z, [a, b], Omega1)  <=  1/2

for ``z`` on ``[ia, ib]``. The arccot convention everywhere is
``arccot x = atan2(1, x)``, with values in (0, pi).
"""

from __future__ import annotations

import math
from cmath import phase
from dataclasses import dataclass

import numpy as np

from .conformal import as_complex, omega1_to_halfplane, _check_unit_interval
from .errors import DomainError, UnsupportedDomainError, WalkCapError
from .hyperbolic import ExcludedDisk, in_omega1

#: Default seed for every stochastic routine; fixed so runs are reproducible.
DEFAULT_SEED = 1729

#: Default absorption layer width for walk-on-spheres.
DEFAULT_WOS_EPS = 1e-6

#: Per-walk step cap; capped walks are discarded and reported.
WOS_STEP_CAP = 10**6


def arccot(x: float) -> float:
    """Arc-cotangent with values in (0, pi): ``atan2(1, x)``."""
    return math.atan2(1.0, x)


def hm_halfplane(z: complex, a: float, b: float) -> float:
    """Harmonic measure of the segment ``[a, b]`` seen from ``z`` in ``H``.

    Equals ``1/pi`` times the angle subtended by the segment at ``z``;
    additive over adjacent segments.
    """
    zz = as_complex(z)
    if zz.imag <= 0.0:
        raise DomainError("z must lie in the open upper half-plane")
    if not a < b:
        raise DomainError("need a < b")
    # Both z-a and z-b lie in H, so the phase difference is already in (0, pi).
    w = (phase(zz - b) - phase(zz - a)) / math.pi
    if not 0.0 < w < 1.0:
        # e.g. z = 1e-300j or z = 1e300j: the angle rounds to 0 or pi.
        raise DomainError(
            f"subtended angle rounds to 0 or pi (w={w!r}): "
            "z is too close to the real axis or too far from the segment"
        )
    return w


def hm_omega1(z: complex, a: float, b: float, p: float) -> float:
    """Harmonic measure of ``[a, b]`` seen from ``z`` in Omega1.

    Exact by conformal invariance: ``psi`` maps Omega1 onto ``H`` and the
    segment onto ``[psi(a), psi(b)]``.
    """
    zz = as_complex(z)
    if not 0.0 < a < b:
        raise DomainError("need 0 < a < b")
    if not in_omega1(zz, p):
        raise DomainError("z must lie in Omega1")
    pa = omega1_to_halfplane(complex(a, 0.0), p).real
    pb = omega1_to_halfplane(complex(b, 0.0), p).real
    return hm_halfplane(omega1_to_halfplane(zz, p), pa, pb)


def _measure_cot(p, q):
    """The formula of :func:`measure_cot_bound`, unchecked; ``q`` may be an array."""
    first = (q + 1.0) / (q - 1.0)
    second = (1.0 - p * p) ** 2 * (1.0 + q * q) / (
        2.0 * p * (q - 1.0) * (4.0 * p * np.sqrt(q) + (1.0 + q) * (1.0 + p * p))
    )
    return first + second


def measure_cot_bound(p: float, q: float) -> float:
    """Closed-form bound for ``cot(pi * omega)`` on the vertical segment.

    For a segment with endpoint ratio ``q = b/a``:

        (q+1)/(q-1) + (1-p^2)^2 (1+q^2) / (2p (q-1) (4p sqrt(q) + (1+q)(1+p^2)))

    Strictly positive; tends to ``(q+1)/(q-1)`` as ``p -> 1``. Raises
    :class:`DomainError` where the double overflows (``q`` above ~1e154).
    """
    p = _check_unit_interval(p, "p")
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q!r}")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        value = float(_measure_cot(p, q))
    if not math.isfinite(value):
        raise DomainError(f"the cot bound overflows at p={p!r}, q={q!r}")
    return value


@dataclass(frozen=True)
class WosEstimate:
    """Result of a walk-on-spheres run: mean, binomial standard error, counts."""

    mean: float
    stderr: float
    n_walks: int
    n_used: int
    n_capped: int


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
    point on the largest inscribed circle at the current position; a walk is
    absorbed once within ``eps`` of the boundary and scores 1 when its nearest
    boundary point lies in ``[a, b]`` on the real axis; ``eps`` must be
    positive and below the start's distance to the boundary.
    Walks exceeding the step cap are discarded and reported in ``n_capped``.

    All walks advance in lockstep on a single seeded generator, so a given
    ``(inputs, seed)`` pair always reproduces the same estimate.
    """
    zz = as_complex(z)
    if n_walks < 1:
        raise DomainError("n_walks must be at least 1")
    if not 0.0 < eps < math.inf:
        raise DomainError(f"eps must be positive and finite, got {eps!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed!r}")
    if not a < b:
        raise DomainError("need a < b")
    if p == 1.0:
        if zz.imag <= 0.0:
            raise DomainError("z must lie in the open upper half-plane")
        center, radius = 1.0, 0.0
    else:
        if not 0.0 < a:
            raise DomainError("need 0 < a < b for an Omega1 query")
        if not in_omega1(zz, p):
            raise DomainError("z must lie in Omega1")
        disk = ExcludedDisk.from_pole(p)
        center, radius = disk.center, disk.radius
    start = min(zz.imag, abs(zz + center) - radius)
    if not eps < start:
        raise DomainError(
            f"eps={eps!r} must be below the start's distance {start!r} to the boundary"
        )

    # pts holds the live walks only, in their original order, so each draws
    # the same variates as it would in a walk-indexed array
    rng = np.random.default_rng(seed)
    pts = np.full(n_walks, complex(zz), dtype=np.complex128)
    hits = capped = 0

    for _ in range(WOS_STEP_CAP):
        if pts.size == 0:
            break
        dist = np.minimum(pts.imag, np.abs(pts + center) - radius)
        absorb = dist < eps
        if absorb.any():
            zdone = pts[absorb]
            nearest_on_axis = zdone.imag <= np.abs(zdone + center) - radius
            x = zdone.real
            hits += int(np.count_nonzero(nearest_on_axis & (x >= a) & (x <= b)))
            keep = ~absorb
            pts = pts[keep]
            dist = dist[keep]
        if pts.size:
            theta = rng.uniform(0.0, 2.0 * math.pi, pts.size)
            pts += dist * np.exp(1j * theta)
    else:
        capped = int(pts.size)

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
    domain: str,
    a: float,
    b: float,
    w: complex,
    d: float,
    w0: complex,
    p: float | None = None,
) -> DistanceMeasureCheck:
    """Check ``delta_D(w) <= d * cot^2(pi * omega(w, [a, b], D) / 4)``.

    Supported domains are the two where both sides are exactly computable:
    ``"halfplane"`` and ``"omega1"`` (the latter needs ``p``). The segment
    ``[a, b]`` must lie on the boundary and inside the closed disk of radius
    ``d`` around ``w0``, with ``w0`` outside the domain.
    """
    ww, w0c = as_complex(w), as_complex(w0)
    if not a < b:
        raise DomainError("need a < b")
    if d <= 0.0:
        raise DomainError("d must be positive")
    if max(abs(complex(a, 0.0) - w0c), abs(complex(b, 0.0) - w0c)) > d * (1.0 + 1e-12):
        raise DomainError("segment [a, b] is not contained in the disk B(w0, d)")

    if domain == "halfplane":
        if w0c.imag > 0.0:
            raise DomainError("w0 must lie outside the open upper half-plane")
        delta = ww.imag
        measure = hm_halfplane(ww, a, b)
    elif domain == "omega1":
        if p is None:
            raise DomainError("omega1 queries need the pole parameter p")
        if in_omega1(w0c, p):
            raise DomainError("w0 must lie outside Omega1")
        disk = ExcludedDisk.from_pole(p)
        delta = min(ww.imag, abs(ww + disk.center) - disk.radius)
        measure = hm_omega1(ww, a, b, p)
    else:
        raise UnsupportedDomainError(
            f"domain {domain!r} not supported; use 'halfplane' or 'omega1'"
        )

    bound = d / math.tan(math.pi * measure / 4.0) ** 2
    return DistanceMeasureCheck(
        delta=delta, bound=bound, measure=measure, passed=delta <= bound + 1e-12
    )
