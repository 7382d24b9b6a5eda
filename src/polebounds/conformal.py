"""The conformal maps the rest of the package builds on, as plain complex functions.

Geometry vocabulary used throughout:

* ``D`` is the open unit disk, ``H`` the open upper half-plane.
* ``I1`` is the vertical diameter of ``D`` (from ``-i`` to ``i``) and ``T-``
  the left half of the unit circle.
* ``p`` in (0, 1) is the pole location of the maps under study, and
  ``alpha = 2p / (1 + p^2)`` the point whose hyperbolic midpoint with the
  origin is ``p``.
* ``Omega`` is the part of ``D`` outside the excluded disk attached to ``p``
  (the side containing the origin), and ``Omega1`` its image in ``H`` under
  the Cayley map (the side containing ``i``).

Every map is applied only where it is finite, so each is one formula on a
``complex`` (or elementwise on a numpy array of them), undefined at its pole.

The module also holds what ``bounds`` and ``harmonic`` share, so that neither
imports the other: the input checks, ``arccot``, the unchecked cotangent
formula ``_measure_cot`` and its checked evaluation ``_checked_at_q``.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError


def as_complex(z: complex) -> complex:
    """Coerce to a ``complex`` with finite components and a modulus that does not overflow.

    Raises :class:`DomainError` otherwise.
    """
    try:
        z = complex(z)
    except (TypeError, ValueError):
        raise DomainError(f"point {z!r} is not a complex number") from None
    if not cmath.isfinite(z):
        raise DomainError(f"point {z!r} has a non-finite component")
    try:
        abs(z)
    except OverflowError:
        raise DomainError(f"point {z!r} has a modulus that overflows") from None
    return z


def _inside_disk(z: complex, message: str) -> complex:
    """``complex(z)`` strictly inside the unit disk, else ``DomainError(message.format(z))``.

    Testing the components first keeps the modulus from overflowing and rejects nan.
    """
    z = complex(z)
    if not (abs(z.real) < 1.0 and abs(z.imag) < 1.0 and abs(z) < 1.0):
        raise DomainError(message.format(z))
    return z


def _as_real(x: float, message: str, *args) -> float:
    """``float(x)`` for a real number ``x``, else ``DomainError(message.format(x, *args))``.

    A string is refused, although ``float`` would parse it, and so is a complex
    number, whose comparisons raise a bare ``TypeError``. The checks below call
    it only for a value that is not already a ``float``, which saves the call
    on every hot path.
    """
    if isinstance(x, (str, bytes, bytearray, complex)):
        raise DomainError(message.format(x, *args))
    try:
        return float(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(message.format(x, *args)) from None


def _check_positive(x: float, message: str, *args) -> float:
    """``float(x)`` for a positive finite ``x``, else ``DomainError(message.format(x, *args))``."""
    if type(x) is not float:
        x = _as_real(x, message, *args)
    if not 0.0 < x < math.inf:
        raise DomainError(message.format(x, *args))
    return x


def _check_unit_interval(x: float, name: str) -> float:
    if type(x) is not float:
        x = _as_real(x, "{1} must be a real number, got {0!r}", name)
    if not 0.0 < x < 1.0:
        raise DomainError(f"{name} must lie in the open interval (0, 1), got {x!r}")
    return x


def alpha_from_p(p: float) -> float:
    """``alpha = 2p / (1 + p^2)`` for a pole location ``p`` in (0, 1)."""
    p = _check_unit_interval(p, "p")
    return 2.0 * p / (1.0 + p * p)


def p_from_alpha(alpha: float) -> float:
    """Inverse of :func:`alpha_from_p` on (0, 1).

    Uses the cancellation-free branch ``p = alpha / (1 + sqrt(1 - alpha^2))``.
    """
    alpha = _check_unit_interval(alpha, "alpha")
    return alpha / (1.0 + math.sqrt(1.0 - alpha * alpha))


def cayley(z: complex) -> complex:
    """Involutive Cayley transform ``g(z) = i (1 + iz) / (1 - iz)`` between ``D`` and ``H``.

    ``g`` maps ``D`` onto ``H`` with ``g(0) = i``; the vertical diameter goes
    to the positive imaginary axis and the left half-circle to the positive
    real axis. ``g(g(z)) = z`` away from the pole ``z = -i``.
    """
    return (1j - z) / (1 - 1j * z)


def omega_to_disk(z: complex, alpha: float) -> complex:
    """Map ``z (1 - alpha z) / (z - alpha)``, conformal from Omega onto D.

    Normalized so the origin is fixed and the derivative there is
    ``-1/alpha``. The formula is evaluated wherever it is defined; membership
    of ``z`` in Omega is the caller's concern (see ``hyperbolic.in_omega``).
    """
    alpha = _check_unit_interval(alpha, "alpha")
    return z * (1.0 - alpha * z) / (z - alpha)


def omega1_to_halfplane(z: complex, p: float) -> complex:
    """Map ``((z + p) / (z + 1/p))^2``, conformal from Omega1 onto H.

    Restricted to the positive real axis it is real, positive and strictly
    increasing, so it sends a segment ``[a, b]`` of the positive axis to the
    real segment ``[psi(a), psi(b)]``. Its pole ``-1/p`` lies outside Omega1.
    """
    p = _check_unit_interval(p, "p")
    q = (z + p) / (z + 1.0 / p)
    return q * q


def vertical_translation(z: complex, a: float) -> complex:
    """Disk automorphism ``(z + ia) / (1 - i a z)`` for ``-1 < a < 1``.

    A hyperbolic translation along the vertical diameter: it maps D onto D
    and fixes the diameter as a set.
    """
    if not -1.0 < a < 1.0:
        raise DomainError(f"a must lie in (-1, 1), got {a!r}")
    return (z + 1j * a) / (1 - 1j * a * z)


def arccot(x: float) -> float:
    """Arc-cotangent with values in (0, pi): ``atan2(1, x)``."""
    return math.atan2(1.0, x)


def _measure_cot(p, q):
    """The formula of :func:`polebounds.harmonic.measure_cot_bound`, unchecked."""
    first = (q + 1.0) / (q - 1.0)
    second = (1.0 - p * p) ** 2 * (1.0 + q * q) / (
        2.0 * p * (q - 1.0) * (4.0 * p * math.sqrt(q) + (1.0 + q) * (1.0 + p * p))
    )
    return first + second


def _checked_at_q(formula, p: float, q: float, what: str) -> float:
    """``formula(p, q)`` at ``q > 1``: a positive finite float, else DomainError.

    A formula that divides by zero or overflows a ``**`` has overflowed the
    double, so that is a DomainError too.
    """
    if type(q) is not float:
        q = _as_real(q, "q must be a real number, got {!r}")
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q!r}")
    try:
        value = formula(p, q)
    except (ZeroDivisionError, OverflowError):
        value = math.inf
    return _check_positive(value, "the {1} overflows at p={2!r}, q={3!r}", what, p, q)
