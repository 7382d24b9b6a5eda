"""Hyperbolic distances, the excluded disk, and the domain predicates.

The metric convention is curvature -4: the disk distance is
``d(z, w) = artanh |(z - w) / (1 - z conj(w))|``.

The excluded disk ``Delta(p)`` attached to a pole location ``p`` is the
closed disk with real diameter ``[p, 1/p]``; its boundary circle meets ``D``
in the separating geodesic through ``p``, symmetric about the real axis,
with ideal endpoints ``alpha +- i sqrt(1 - alpha^2)``. The Cayley image of
that circle has the real diameter ``[-1/p, -p]``. ``Omega`` is the side of
the geodesic containing the origin, ``Omega1`` its Cayley image in ``H``
containing ``i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .conformal import _check_unit_interval, _inside_disk, as_complex
from .errors import DomainError


@dataclass(frozen=True)
class ExcludedDisk:
    """``Delta(p)``: the closed disk with real diameter ``[p, 1/p]``, cut off by the geodesic."""

    p: float
    center: float
    radius: float

    @classmethod
    def from_pole(cls, p: float) -> "ExcludedDisk":
        """The disk of a pole ``p`` in (0, 1) whose ``1/p`` is finite (``p`` above ~5.6e-309)."""
        p = _check_unit_interval(p, "p")
        if not 1.0 / p < math.inf:
            raise DomainError(f"the excluded disk overflows at p={p!r}: 1/p is not finite")
        return cls(p, (1.0 + p * p) / (2.0 * p), (1.0 - p * p) / (2.0 * p))

    def boundary_gap(self, z: complex) -> float:
        """Signed distance to the boundary circle (positive outside); Omega1's is at ``-conj(z)``.

        ``|z - c| - r = (|z - c|^2 - r^2) / d``, ``d = |z - c| + r``: with ``c^2 - r^2 = 1``
        and ``2c = p + 1/p`` the numerator is ``(x - p)(x - 1/p) + y^2``, which does not
        cancel when ``c`` and ``r`` are both about ``1/(2p)``, and is exactly 0 at ``z = p``.
        Its factors are divided by ``d`` before they multiply, all at half scale, so nothing
        overflows for any finite ``z`` and ``1/p``. A numpy array ``z`` is taken unchecked.
        """
        zz = z if getattr(z, "ndim", 0) else as_complex(z)
        x, y = zz.real, zz.imag
        half_d = abs(0.5 * zz - 0.5 * self.center) + 0.5 * self.radius
        return (x - self.p) * ((0.5 * x - 0.5 / self.p) / half_d) + y * (0.5 * y / half_d)


def hyp_dist_disk(z: complex, w: complex) -> float:
    """Hyperbolic distance between two points of the open unit disk.

    Returns ``inf`` when the pseudo-distance ratio rounds to 1, which happens
    once both points sit within roughly 1e-13 of the unit circle: the true
    distance then exceeds what doubles can resolve (about 18.4).
    """
    message = "hyp_dist_disk needs points strictly inside the unit disk"
    zz, ww = _inside_disk(z, message), _inside_disk(w, message)
    t = abs((zz - ww) / (1.0 - zz * ww.conjugate()))
    return math.inf if t >= 1.0 else math.atanh(t)


def in_omega(z: complex, p: float) -> bool:
    """Strict membership in Omega: inside ``D`` and outside the excluded disk.

    Boundary points return ``False``.
    """
    zz = as_complex(z)
    disk = ExcludedDisk.from_pole(p)
    return abs(zz) < 1.0 and disk.boundary_gap(zz) > 0.0


def in_omega1(z: complex, p: float) -> bool:
    """Strict membership in Omega1, the Cayley image of Omega in ``H``; checks ``p`` first."""
    zz = as_complex(z)
    disk = ExcludedDisk.from_pole(p)
    return zz.imag > 0.0 and disk.boundary_gap(-zz.conjugate()) > 0.0


def disk_nesting(p1: float, p2: float) -> bool:
    """Whether the excluded disk of ``p2`` sits inside the one of ``p1``.

    Requires ``p1 <= p2``. The disks are centred on the real axis, so this holds
    exactly when ``[p2, 1/p2]`` lies in ``[p1, 1/p1]``. A rounded ``1/p`` is monotone
    in ``p``: the comparison is exact, and True for every pair, as the lemma says.
    """
    p1 = _check_unit_interval(p1, "p1")
    p2 = _check_unit_interval(p2, "p2")
    if p1 > p2:
        raise DomainError("disk_nesting expects p1 <= p2")
    return 1.0 / p2 <= 1.0 / p1


def hyp_dist_to_vertical_segment(s: complex, y1: float, y2: float) -> float:
    """Hyperbolic distance from ``s`` to the segment ``[i y1, i y2]`` of the
    closed vertical diameter.

    The geodesic through ``s`` orthogonal to the diameter is orthogonal to both
    the unit circle and the imaginary axis, so its circle has its centre ``i c``
    on the axis, with ``c = (1 + |s|^2) / (2 Im s)``. It meets the axis at the
    foot ``i y*``, ``y* = c - sign(c) sqrt(c^2 - 1)``, the nearest point of the
    whole diameter; the distance grows monotonically away from the foot in each
    direction, so the nearest point of the segment is the foot clamped to it.
    Because ``(1 + |s|^2)^2 - 4 (Im s)^2 = |s - i|^2 |s + i|^2``, the foot is
    computed as ``y* = 2 Im s / (1 + |s|^2 + |s - i| |s + i|)``, which neither
    overflows nor cancels, and is ``0`` when ``Im s = 0``. The ideal endpoints
    ``+-i`` are at infinite distance, so the clamp stays ``1e-12`` inside them.
    """
    ss = _inside_disk(s, "s must lie strictly inside the unit disk")
    if not (-1.0 <= y1 < y2 <= 1.0):
        raise DomainError("need -1 <= y1 < y2 <= 1")
    if ss.real == 0.0 and y1 <= ss.imag <= y2:
        return 0.0

    foot = 2.0 * ss.imag / (1.0 + abs(ss) ** 2 + abs(ss - 1j) * abs(ss + 1j))
    y = min(max(foot, y1, -1.0 + 1e-12), y2, 1.0 - 1e-12)
    return hyp_dist_disk(ss, complex(0.0, y))
