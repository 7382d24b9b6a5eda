"""Upper and lower bounds for the length-distortion constant, and their minimization.

For a pole location ``p`` in (0, 1), the constant of interest is the best
possible ``A`` in ``len(f(I1)) <= A * len(f(T-))`` over univalent maps with a
simple pole at ``p`` that extend continuously to the left half-circle. ``A``
itself is not computable; this module evaluates the known bounds:

* ``lower_bound``        -- ``(1+p)^2 pi / (4p)``, attained by the built-in
                            Joukowski-type family.
* ``angle_bound``        -- one-parameter upper bound via the difference of two
                            subtended-angle terms; valid only for
                            ``p > sqrt(2) - 1``.
* ``measure_bound``      -- one-parameter upper bound routed through the
                            harmonic-measure cotangent estimate; valid on all
                            of (0, 1) and uniformly sharper in practice.
* ``closed_form_bound``  -- explicit bound ``(1+p^2)/p * (1+sqrt(2)+20/(3p))^2 * log 2``,
                            a relaxation of ``measure_bound`` at ``q = 4``.
* ``limit_bound``        -- the ``p -> 1`` limit of ``measure_bound``, the
                            bound for the no-pole (analytic) case.

``minimize_over_q`` scans a geometric grid in ``q - 1``, zooms twice around
the grid argmin and ends at a parabola vertex, all in array calls;
unimodality in ``q`` is not assumed, which is why the global scan comes first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from .conformal import _check_unit_interval
from .errors import DomainError, MinimizationError, NumericalConditionWarning
from .harmonic import _measure_cot, arccot

#: Validity threshold for :func:`angle_bound`.
ANGLE_BOUND_MIN_P = math.sqrt(2.0) - 1.0

#: The eleven pole locations of the reference table.
DEFAULT_TABLE_P = (0.999, 0.99, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)

#: The public scalar bounds warn when their condition number in ``q``, to
#: leading order ``q / (q - 1)``, exceeds this.
CONDITION_WARN_THRESHOLD = 1e6


@dataclass(frozen=True)
class BoundResult:
    """A bound evaluation: the value, and minimizer diagnostics when applicable."""

    p: float
    kind: str
    value: float
    q_star: float | None = None
    evaluations: int = 0
    bracket: tuple[float, float] | None = None


def lower_bound(p: float) -> float:
    """``(1+p)^2 pi / (4p)``: no valid constant can be smaller.

    It overflows a double for ``p`` below about 4.4e-309: :class:`DomainError` there.
    """
    p = _check_unit_interval(p, "p")
    value = (1.0 + p) ** 2 * math.pi / (4.0 * p)
    if value == math.inf:
        raise DomainError(f"the lower bound overflows at p={p!r}")
    return value


def _scaled_cot_sq(p, q, theta):
    """``(1+p^2) log(q) / (2p) * cot^2(theta/4)``: the shape of both upper bounds."""
    return (1.0 + p * p) * np.log(q) / (2.0 * p) * (1.0 / np.tan(theta / 4.0) ** 2)


def _angle_formula(p, q):
    """The formula of :func:`angle_bound`, unchecked; ``q`` may be an array."""
    theta = np.arctan((q - 1.0) / (q + 1.0)) - np.arctan(
        (1.0 - p * p) * (q - 1.0) / (2.0 * p * (q + 1.0))
    )
    return _scaled_cot_sq(p, q, theta)


def _measure_formula(p, q):
    """The formula of :func:`measure_bound`, unchecked; ``q`` may be an array.

    At ``p = 1`` it is :func:`limit_bound` exactly: the second term of the
    cotangent bound is ``0.0`` and the prefactor ``(1+p^2)/(2p)`` is ``1.0``.
    """
    return _scaled_cot_sq(p, q, np.arctan2(1.0, _measure_cot(p, q)))


def _check_angle_p(p: float) -> float:
    p = _check_unit_interval(p, "p")
    if p <= ANGLE_BOUND_MIN_P:
        raise DomainError(
            f"angle_bound needs p in (sqrt(2)-1, 1) ~ ({ANGLE_BOUND_MIN_P:.6f}, 1), got {p!r}"
        )
    return p


#: kind -> (check of ``p``, returning the ``p`` to evaluate at; array formula).
_KINDS = {
    "angle": (_check_angle_p, _angle_formula),
    "measure": (lambda p: _check_unit_interval(p, "p"), _measure_formula),
    "limit": (lambda p: 1.0, _measure_formula),
}

#: Kinds accepted by :func:`minimize_over_q`.
MINIMIZABLE_KINDS = tuple(_KINDS)


def _checked_bound(kind: str, p: float, q: float) -> float:
    """One bound at one ``q > 1``: checked, finite, and warned about when ill-conditioned.

    The warning names the caller of the public wrapper, which calls this directly.
    """
    check, formula = _KINDS[kind]
    p = check(p)
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q!r}")
    with np.errstate(all="ignore"):
        value = float(formula(p, q))
    if not math.isfinite(value):
        raise DomainError(f"the {kind} bound overflows at p={p!r}, q={q!r}")
    # Near q = 1 the bound is ~ c / (q - 1), so d log B / d log q ~ -q / (q - 1).
    condition = q / (q - 1.0)
    if condition > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"{kind}_bound: condition number {condition:.3g} in q exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; the bound is badly conditioned in q",
            NumericalConditionWarning,
            stacklevel=3,
        )
    return value


def angle_bound(p: float, q: float) -> float:
    """Upper bound from the difference of two subtended-angle terms.

    Defined for ``p > sqrt(2) - 1`` only: below that threshold the factor
    ``(1 - p^2) / (2p)`` reaches 1 and the cotangent argument is no longer
    positive.
    """
    return _checked_bound("angle", p, q)


def measure_bound(p: float, q: float) -> float:
    """Upper bound routed through the harmonic-measure cotangent estimate."""
    return _checked_bound("measure", p, q)


def limit_bound(q: float) -> float:
    """The ``p -> 1`` limit of :func:`measure_bound`: the analytic-case bound."""
    return _checked_bound("limit", 1.0, q)


def scaled_cot_bound(p: float) -> float:
    """``6p`` times the cotangent bound at ``q = 4``, as a ratio of polynomials.

    Equals ``(17p^4 + 50p^3 + 46p^2 + 50p + 17) / (5p^2 + 8p + 5)``;
    increasing on (0, 1] with supremum 10 at ``p = 1``, which is what makes
    the closed-form relaxation work.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    num = (((17.0 * p + 50.0) * p + 46.0) * p + 50.0) * p + 17.0
    den = (5.0 * p + 8.0) * p + 5.0
    return num / den


def closed_form_bound(p: float) -> float:
    """Explicit upper bound ``(1+p^2)/p * (1 + sqrt(2) + 20/(3p))^2 * log 2``.

    It overflows a double for ``p`` below about 6.3e-103: :class:`DomainError` there.
    """
    p = _check_unit_interval(p, "p")
    try:
        value = (1.0 + p * p) / p * (1.0 + math.sqrt(2.0) + 20.0 / (3.0 * p)) ** 2 * math.log(2.0)
    except OverflowError:
        value = math.inf
    if value == math.inf:
        raise DomainError(f"the closed-form bound overflows at p={p!r}")
    return value


def cot_of_scaled_arccot(x: float, k: float) -> float:
    """``cot(k * arccot(x))`` for ``x > 0`` and ``0 < k < 1``.

    Strictly convex and increasing in ``x``, with the linear sandwich

        cot(k pi/2) + k x / sin^2(k pi/2)  <  value  <  cot(k pi/2) + x / k.
    """
    if not x > 0.0:
        raise DomainError(f"x must be positive, got {x!r}")
    if not 0.0 < k < 1.0:
        raise DomainError(f"k must lie in (0, 1), got {k!r}")
    return 1.0 / math.tan(k * arccot(x))


#: Geometric grid in ``q - 1`` spanning 1e-6 .. 1e8 at 64 points per decade.
_Q_GRID = 1.0 + np.geomspace(1e-6, 1e8, 64 * 14 + 1)

#: Offsets of one zoom round, in half-widths: 65 points linear in ``t = log(q - 1)``.
_ZOOM = np.linspace(-1.0, 1.0, 65)
_ZOOM_ROUNDS = 2


def minimize_over_q(p: float, kind: str) -> BoundResult:
    """Minimize one of the ``q``-parameterized bounds over ``q`` in (1, inf).

    One array call scans the fixed geometric grid, whose minimum must be
    interior; two zoom rounds of 65 points, linear in ``t = log(q - 1)`` over
    the two cells around the previous argmin, take one array call each.
    ``q_star`` is the vertex of the parabola through the last round's best
    three points, clamped to their bracket; ``value`` is the formula there,
    or at the best sampled point when that is lower. ``q_star`` lies far
    from the ill-conditioned ``q -> 1`` corner, so nothing here warns; a scan
    minimum that overflows (measure bound at ``p`` below ~2.7e-103) raises
    :class:`DomainError`.

    The value is accurate to roundoff. ``q_star`` agrees with a 40-digit
    mpmath argmin to 1.6e-10 relative for the measure bound on ``p`` in
    (1e-3, 0.999), and to 2e-10 for the angle bound at ``p >= 0.43``. Near
    ``sqrt(2) - 1`` the angle difference cancels and the flat minimum blurs
    (1.3e-9 off at ``p = sqrt(2) - 1 + 1e-3``, 1e-6 at ``+ 1e-6``).
    ``evaluations`` counts the grid, both rounds and the vertex.
    """
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {MINIMIZABLE_KINDS}, got {kind!r}")
    check, formula = _KINDS[kind]
    p = check(p)

    # The scan sweeps the ill-conditioned q -> 1 corner unwarned; the minimum is interior.
    grid = _Q_GRID
    f = formula(p, grid)
    i = int(np.argmin(f))
    if not math.isfinite(f[i]):
        raise DomainError(f"the {kind} bound overflows at p={p!r}")
    if i == 0 or i == len(grid) - 1:
        raise MinimizationError(f"grid minimum sits at the bracket edge (kind={kind!r}, p={p!r})")
    lo, hi = float(grid[i - 1]), float(grid[i + 1])

    # Each round spans the two cells around the previous argmin: centre c, half-width h.
    a, b = math.log(lo - 1.0), math.log(hi - 1.0)
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    for _ in range(_ZOOM_ROUNDS):
        t = c + h * _ZOOM
        f = formula(p, 1.0 + np.exp(t))
        # An argmin on the round's edge keeps its inner neighbour's two cells.
        k = min(max(int(np.argmin(f)), 1), len(_ZOOM) - 2)
        c, h = float(t[k]), 2.0 * h / (len(_ZOOM) - 1)

    f0, f1, f2 = f[k - 1], f[k], f[k + 1]
    curvature = f0 - 2.0 * f1 + f2
    shift = 0.5 * h * (f0 - f2) / curvature if curvature > 0.0 else 0.0
    q_best = 1.0 + math.exp(c)
    q_star = 1.0 + math.exp(c + min(max(shift, -h), h))
    value, best = float(formula(p, q_star)), float(formula(p, q_best))
    if value > best:
        # The parabola missed a non-parabolic wiggle: keep the sampled point.
        q_star, value = q_best, best
    return BoundResult(
        p=p,
        kind=kind,
        value=value,
        q_star=q_star,
        evaluations=len(grid) + _ZOOM_ROUNDS * len(_ZOOM) + 1,
        bracket=(lo, hi),
    )


@dataclass(frozen=True)
class TableRow:
    """One row of the four-bound comparison table (full precision)."""

    p: float
    lower: float
    angle_min: float | None
    closed_form: float
    measure_min: float


def table_rows(p_list=DEFAULT_TABLE_P) -> list[TableRow]:
    """Evaluate all four bounds on each pole location.

    The angle-bound column is ``None`` for ``p <= sqrt(2) - 1``, where that
    bound is undefined.
    """
    rows = []
    for p in p_list:
        angle_min = (
            minimize_over_q(p, "angle").value if p > ANGLE_BOUND_MIN_P else None
        )
        rows.append(
            TableRow(
                p=p,
                lower=lower_bound(p),
                angle_min=angle_min,
                closed_form=closed_form_bound(p),
                measure_min=minimize_over_q(p, "measure").value,
            )
        )
    return rows


def round_half_up(x: float, ndigits: int = 3) -> float:
    """Round half away from zero, matching the table presentation."""
    quantum = Decimal(1).scaleb(-ndigits)
    # 400 digits hold any finite double to 3 decimals; the default 28 do not.
    return float(Decimal(repr(x)).quantize(quantum, ROUND_HALF_UP, Context(prec=400)))
