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

``minimize_over_q`` scans a geometric grid in ``q - 1`` and refines by
golden-section; unimodality in ``q`` is not assumed, which is why the global
scan comes first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from .conformal import _check_unit_interval
from .errors import DomainError, MinimizationError, NumericalConditionWarning
from .harmonic import _measure_cot, arccot

#: Validity threshold for :func:`angle_bound`.
ANGLE_BOUND_MIN_P = math.sqrt(2.0) - 1.0

#: The eleven pole locations of the reference table.
DEFAULT_TABLE_P = (0.999, 0.99, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)

#: Kinds accepted by :func:`minimize_over_q`.
MINIMIZABLE_KINDS = ("angle", "measure", "limit")

#: arccot arguments beyond this make cot^2 evaluation badly conditioned.
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
    """``(1+p)^2 pi / (4p)``: no valid constant can be smaller."""
    p = _check_unit_interval(p, "p")
    return (1.0 + p) ** 2 * math.pi / (4.0 * p)


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
    return _measure_from_cot(p, q, _measure_cot(p, q))


def _measure_from_cot(p, q, cot):
    """The measure bound from its cotangent bound ``cot = _measure_cot(p, q)``."""
    return _scaled_cot_sq(p, q, np.arctan2(1.0, cot))


def _checked_measure(p: float, q: float, where: str) -> float:
    """The measure bound at a checked ``p``, warning when ``cot^2`` is ill-conditioned."""
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q!r}")
    x = _measure_cot(p, q)
    if x > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"{where}: arccot argument {x:.3g} exceeds {CONDITION_WARN_THRESHOLD:.0e}; "
            "cot^2 evaluation is badly conditioned",
            NumericalConditionWarning,
            stacklevel=3,
        )
    return float(_measure_from_cot(p, q, x))


def _check_angle_p(p: float) -> float:
    p = _check_unit_interval(p, "p")
    if p <= ANGLE_BOUND_MIN_P:
        raise DomainError(
            f"angle_bound needs p in (sqrt(2)-1, 1) ~ ({ANGLE_BOUND_MIN_P:.6f}, 1), got {p!r}"
        )
    return p


def angle_bound(p: float, q: float) -> float:
    """Upper bound from the difference of two subtended-angle terms.

    Defined for ``p > sqrt(2) - 1`` only: below that threshold the factor
    ``(1 - p^2) / (2p)`` reaches 1 and the cotangent argument is no longer
    positive.
    """
    p = _check_angle_p(p)
    if not q > 1.0:
        raise DomainError(f"q must exceed 1, got {q!r}")
    return float(_angle_formula(p, q))


def measure_bound(p: float, q: float) -> float:
    """Upper bound routed through the harmonic-measure cotangent estimate."""
    return _checked_measure(_check_unit_interval(p, "p"), q, "measure_bound")


def limit_bound(q: float) -> float:
    """The ``p -> 1`` limit of :func:`measure_bound`: the analytic-case bound."""
    return _checked_measure(1.0, q, "limit_bound")


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
    """Explicit upper bound ``(1+p^2)/p * (1 + sqrt(2) + 20/(3p))^2 * log 2``."""
    p = _check_unit_interval(p, "p")
    return (1.0 + p * p) / p * (1.0 + math.sqrt(2.0) + 20.0 / (3.0 * p)) ** 2 * math.log(2.0)


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


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

#: Geometric grid in ``q - 1`` spanning 1e-6 .. 1e8 at 64 points per decade.
_Q_GRID = 1.0 + np.geomspace(1e-6, 1e8, 64 * 14 + 1)


def minimize_over_q(p: float, kind: str) -> BoundResult:
    """Minimize one of the ``q``-parameterized bounds over ``q`` in (1, inf).

    Evaluates the bound on the whole fixed geometric grid in one array call,
    requires the grid minimum to be interior, then refines the bracketing
    interval by golden-section in ``log(q - 1)`` on the scalar bound until
    the bracket is narrower than 1e-10 relative in ``q``. The returned value
    is never above the scanned grid minimum and is accurate to roundoff.

    ``q_star`` is only determined to about 1e-7 relative: the minimum is
    flat, so bounds within roundoff of the minimum span a range of ``q``
    some ``sqrt(eps)`` wide (an mpmath argmin differs by up to 4e-8 at
    ``p = 0.999``). The 1e-10 is the width of the search bracket, not the
    accuracy of ``q_star``.
    """
    if kind == "angle":
        _check_angle_p(p)
        formula, fn = _angle_formula, lambda q: angle_bound(p, q)
    elif kind == "measure":
        _check_unit_interval(p, "p")
        formula, fn = _measure_formula, lambda q: measure_bound(p, q)
    elif kind == "limit":
        p = 1.0
        formula, fn = _measure_formula, limit_bound
    else:
        raise DomainError(f"kind must be one of {MINIMIZABLE_KINDS}, got {kind!r}")

    # The scan sweeps the ill-conditioned q -> 1 corner without the scalar
    # wrapper's warning; the certified minimum is interior.
    grid = _Q_GRID
    evaluations = len(grid)
    i = int(np.argmin(formula(p, grid)))
    if i == 0 or i == evaluations - 1:
        raise MinimizationError(f"grid minimum sits at the bracket edge (kind={kind!r}, p={p!r})")
    grid_min = fn(float(grid[i]))
    lo, hi = float(grid[i - 1]), float(grid[i + 1])

    a, b = math.log(lo - 1.0), math.log(hi - 1.0)
    g = lambda t: fn(1.0 + math.exp(t))
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = g(c), g(d)
    evaluations += 2
    while True:
        q_lo, q_hi = 1.0 + math.exp(a), 1.0 + math.exp(b)
        if q_hi - q_lo <= 1e-10 * (1.0 + 0.5 * (q_lo + q_hi)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = g(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = g(d)
        evaluations += 1

    q_star = 1.0 + math.exp(0.5 * (a + b))
    value = fn(q_star)
    if value > grid_min:
        # Refinement failed to beat the scan (non-unimodal wiggle): keep the grid point.
        q_star, value = float(grid[i]), grid_min
    return BoundResult(
        p=p,
        kind=kind,
        value=value,
        q_star=q_star,
        evaluations=evaluations + 1,
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
    return float(Decimal(repr(x)).quantize(quantum, rounding=ROUND_HALF_UP))
