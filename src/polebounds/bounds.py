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

``minimize_over_q`` samples the bracket ``q`` in [2.5, 6.5] in three zooming
rounds, all in array calls; outside it every bound is monotone in ``q``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal

import numpy as np

from .conformal import _check_positive, _check_unit_interval
from .errors import DomainError, NumericalConditionWarning
from .harmonic import _checked_at_q, _measure_cot, arccot

#: Validity threshold for :func:`angle_bound`: the largest double below sqrt(2) - 1.
ANGLE_BOUND_MIN_P = 0.41421356237309504

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
    return _check_positive(value, "the lower bound overflows at p={1!r}", p)


def _scaled_cot_sq(p, q, theta):
    """``(1+p^2) log(q) / (2p) * cot^2(theta/4)``: the shape of both upper bounds."""
    return (1.0 + p * p) * np.log(q) / (2.0 * p) * (1.0 / np.tan(theta / 4.0) ** 2)


def _angle_formula(p, q):
    """The formula of :func:`angle_bound`, unchecked; ``q`` may be an array.

    ``atan(x) - atan(k x)``, ``x = (q-1)/(q+1)``, as ``atan((1-k) x / (1 + k x^2))``
    with ``1 - k = (p - sqrt(2) + 1)(p + sqrt(2) + 1) / (2p)``: nothing cancels near sqrt(2) - 1.
    """
    x = (q - 1.0) / (q + 1.0)
    k = (1.0 - p * p) / (2.0 * p)
    # sqrt(2) - 1 is ANGLE_BOUND_MIN_P plus a residual, so p - (sqrt(2) - 1) keeps its digits
    one_minus_k = (p - ANGLE_BOUND_MIN_P - 1.4349369327986523e-17) * (p + 1.0 + math.sqrt(2.0))
    one_minus_k /= 2.0 * p
    return _scaled_cot_sq(p, q, np.arctan(one_minus_k * x / (1.0 + k * x * x)))


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


def _check_p_up_to_one(p: float) -> float:
    if not 0.0 < p <= 1.0:
        raise DomainError(f"p must lie in (0, 1], got {p!r}")
    return float(p)


#: kind -> (check of ``p``, returning the ``p`` to evaluate at; array formula).
_KINDS = {
    "angle": (_check_angle_p, _angle_formula),
    "measure": (lambda p: _check_unit_interval(p, "p"), _measure_formula),
    # The limit is the bound at p = 1, for any pole in (0, 1].
    "limit": (lambda p: _check_p_up_to_one(p) and 1.0, _measure_formula),
}

#: Kinds accepted by :func:`minimize_over_q`.
MINIMIZABLE_KINDS = tuple(_KINDS)


def _checked_bound(kind: str, p: float, q: float) -> float:
    """One bound at one ``q > 1``: checked, finite, and warned about when ill-conditioned.

    The warning names the caller of the public wrapper, which calls this directly.
    """
    check, formula = _KINDS[kind]
    value = _checked_at_q(formula, check(p), q, f"{kind} bound")
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
    p = _check_p_up_to_one(p)
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
    return _check_positive(value, "the closed-form bound overflows at p={1!r}", p)


def cot_of_scaled_arccot(x: float, k: float) -> float:
    """``cot(k * arccot(x))`` for finite ``x > 0`` and ``0 < k < 1``.

    Strictly convex and increasing in ``x``, with the linear sandwich

        cot(k pi/2) + k x / sin^2(k pi/2)  <  value  <  cot(k pi/2) + x / k.

    It overflows where ``k * arccot(x)`` is tiny, as at ``x = 1e308, k = 0.25``: DomainError.
    """
    _check_positive(x, "x must be positive and finite, got {!r}")
    if not 0.0 < k < 1.0:
        raise DomainError(f"k must lie in (0, 1), got {k!r}")
    t = math.tan(k * arccot(x))  # 0.0 where k * arccot(x) underflows
    value = 1.0 / t if t else math.inf
    return _check_positive(value, "cot(k * arccot(x)) overflows at x={1!r}, k={2!r}", x, k)


#: The bracket of every minimum in ``t = log(q - 1)``: ``q`` in [2.5, 6.5].
_T_BRACKET = (math.log(1.5), math.log(5.5))

#: Offsets of one round, in half-widths: 65 points linear in ``t = log(q - 1)``.
_ROUND = np.linspace(-1.0, 1.0, 65)
_ROUNDS = 3


@np.errstate(all="ignore")
def minimize_over_q(p: float, kind: str) -> BoundResult:
    """Minimize one of the ``q``-parameterized bounds over ``q`` in (1, inf).

    Three rounds of 65 points, linear in ``t = log(q - 1)``, take one array
    call each: the first spans the bracket ``q`` in [2.5, 6.5], each later one
    the two cells around the previous argmin (an edge argmin keeps its inner
    neighbour's). ``q_star`` is the vertex of the parabola through the last
    round's best three points, or that best point when its value is lower.
    ``bracket`` is the first round's two cells around its argmin.

    Proven (``S = d log B / dt`` in ``mpmath.iv``, ``tests/test_bounds.py``):
    for every pole of every kind, ``S < 0`` on [1 + 1e-6, 2.5] and ``S > 0``
    on [6.5, 1 + 1e8]. Assumed: the minimum lies in the two cells around the
    first round's argmin. numpy is silenced, whatever the caller's state;
    a minimum that overflows (measure, ``p`` below ~2.7e-103) is a DomainError.

    The value is accurate to roundoff, and ``q_star`` within 2e-10 of a
    40-digit mpmath argmin for the measure bound at ``p`` in [1e-100, 0.999]
    and the angle bound at ``p >= sqrt(2) - 1 + 1e-6``.
    """
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {MINIMIZABLE_KINDS}, got {kind!r}")
    check, formula = _KINDS[kind]
    p = check(p)

    a, b = _T_BRACKET
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    for i in range(_ROUNDS):
        t = c + h * _ROUND
        f = formula(p, 1.0 + np.exp(t))
        k = min(max(int(np.argmin(f)), 1), len(_ROUND) - 2)
        if i == 0:
            bracket = (1.0 + math.exp(t[k - 1]), 1.0 + math.exp(t[k + 1]))
        c, h = float(t[k]), 2.0 * h / (len(_ROUND) - 1)

    # Relative to the middle value, so that the curvature cannot overflow.
    f0, f1, f2 = f[k - 1 : k + 2] / f[k]
    curvature = f0 - 2.0 * f1 + f2
    shift = 0.5 * h * (f0 - f2) / curvature if curvature > 0.0 else 0.0
    q_best = 1.0 + math.exp(c)
    q_star = 1.0 + math.exp(c + min(max(shift, -h), h))
    value, best = float(formula(p, q_star)), float(formula(p, q_best))
    if not value <= best:
        # The parabola missed a non-parabolic wiggle, or overflowed: keep the sampled point.
        q_star, value = q_best, best
    return BoundResult(
        p=p,
        kind=kind,
        value=_check_positive(value, "the {1} bound overflows at p={2!r}", kind, p),
        q_star=q_star,
        evaluations=_ROUNDS * len(_ROUND) + 1,
        bracket=bracket,
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
