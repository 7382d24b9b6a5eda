"""Bound functions, their minimization over q, and the comparison table."""

import functools
import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from polebounds import (
    ANGLE_BOUND_MIN_P,
    DomainError,
    NumericalConditionWarning,
    angle_bound,
    closed_form_bound,
    cot_of_scaled_arccot,
    limit_bound,
    lower_bound,
    measure_bound,
    measure_cot_bound,
    minimize_over_q,
    scaled_cot_bound,
    table_rows,
)
from polebounds.bounds import _KINDS, _Q_BRACKET, round_half_up
from polebounds.conformal import _checked_at_q

RNG = np.random.default_rng(123)


# ----------------------------------------------------------------- lower bound


@pytest.mark.parametrize("p,expect", [(0.5, 3.534), (0.1, 9.503)])
def test_lower_bound_reference_values(p, expect):
    assert lower_bound(p) == pytest.approx(expect, abs=5e-4)


def test_lower_bound_tends_to_pi():
    assert lower_bound(1 - 1e-9) == pytest.approx(math.pi, abs=1e-8)


def test_lower_bound_domain():
    with pytest.raises(DomainError):
        lower_bound(1.0)


def test_lower_bound_overflow_is_a_domain_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            lower_bound(5e-324)  # gave inf
    assert math.isfinite(lower_bound(1e-300))


# ----------------------------------------------------------------- angle bound


def test_angle_bound_minimum_reference_values():
    assert minimize_over_q(0.9, "angle").value == pytest.approx(95.491, abs=5e-3)
    # flat minimum; tolerance absorbs the table rounding
    assert minimize_over_q(0.5, "angle").value == pytest.approx(1984.431, abs=0.5)


def test_angle_bound_guard_below_threshold():
    with pytest.raises(DomainError):
        angle_bound(0.41, 4.0)
    assert ANGLE_BOUND_MIN_P == pytest.approx(math.sqrt(2) - 1, abs=1e-15)
    angle_bound(ANGLE_BOUND_MIN_P + 1e-6, 4.0)  # just inside: defined


@pytest.mark.parametrize("p", [0.4142135623730951, 0.41421356237309515])
def test_angle_bound_takes_the_two_doubles_just_above_the_threshold(p):
    # both lie above sqrt(2) - 1, and both were rejected when the threshold was
    # the double nearest to it, 0.41421356237309515
    assert math.isfinite(angle_bound(p, 4.0))
    assert math.isfinite(minimize_over_q(p, "angle").value)
    assert table_rows([p])[0].angle_min is not None


def test_angle_bound_threshold_is_the_largest_double_below_sqrt2_minus_1():
    with mp.workdps(40):
        assert ANGLE_BOUND_MIN_P < mp.sqrt(2) - 1 < math.nextafter(ANGLE_BOUND_MIN_P, 1.0)
    with pytest.raises(DomainError):
        angle_bound(0.41421356237309503, 4.0)
    assert table_rows([0.41421356237309503])[0].angle_min is None


# --------------------------------------------------------------- measure bound


def test_measure_bound_minimum_reference_values():
    assert minimize_over_q(0.5, "measure").value == pytest.approx(124.383, abs=5e-3)
    assert minimize_over_q(0.999, "measure").value == pytest.approx(73.251, abs=5e-3)


def test_measure_bound_at_q4_below_closed_form():
    for p in np.linspace(0.02, 0.98, 49):
        assert measure_bound(p, 4.0) < closed_form_bound(p)


def test_measure_bound_warns_when_ill_conditioned():
    with pytest.warns(NumericalConditionWarning):
        measure_bound(0.5, 1.0 + 1e-7)


def test_condition_warning_points_at_the_caller():
    # the warning names this file; the minimizer, whose q* lies in [2.97, 5.56],
    # does not warn even where the arccot argument is 6.28e9
    with pytest.warns(NumericalConditionWarning) as direct:
        measure_bound(0.5, 1.0 + 1e-7)
    assert [w.filename for w in direct] == [__file__]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minimize_over_q(1e-10, "measure")


def test_angle_and_limit_bounds_warn_when_ill_conditioned():
    with pytest.warns(NumericalConditionWarning) as caught:
        angle_bound(0.7, 1.0 + 1e-7)
        limit_bound(1.0 + 1e-7)
    assert [w.filename for w in caught] == [__file__] * 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        angle_bound(0.7, 1.0 + 1e-5)  # condition number 1e5: below the threshold


def test_condition_rule_matches_mpmath():
    # the warning's condition number q / (q - 1) against |q B'(q) / B(q)| at 30 digits:
    # never below it, and within 1e-4 of it at q - 1 = 1e-4
    cases = [(_mp_measure_bound, p) for p in ("1e-10", "1e-3", "0.5", "0.999", "1")]
    cases += [(_mp_angle_bound, p) for p in ("0.4143", "0.7", "0.999")]
    with mp.workdps(30):
        for bound, p in cases:
            p = mp.mpf(p)
            for k in range(-12, 17):
                q = 1 + mp.mpf(10) ** (mp.mpf(k) / 2)
                exact = abs(q * mp.diff(lambda x: bound(p, x), q) / bound(p, q))
                ratio = exact / (q / (q - 1))
                assert ratio <= 1, (bound.__name__, p, k)
                if k == -8:
                    assert ratio >= 0.9999, (bound.__name__, p)


def test_formula_overflow_and_zero_division_are_domain_errors():
    # math raises where numpy warned: a ** that overflows, a division by zero
    with pytest.raises(DomainError, match="overflows"):
        _checked_at_q(lambda p, q: q**2000.0, 0.5, 2.0, "test bound")
    with pytest.raises(DomainError, match="overflows"):
        _checked_at_q(lambda p, q: 1.0 / (q - q), 0.5, 2.0, "test bound")
    # tan(theta/4)^2 underflows to 0.0 in the measure formula, and 1 / 0.0 raises
    with pytest.raises(DomainError, match="overflows"):
        measure_bound(1e-200, 3.0)


@pytest.mark.parametrize(
    "fn,args",
    [
        (measure_bound, (0.5, 1e300)),  # each gave nan
        (limit_bound, (1e300,)),
        (angle_bound, (0.5, math.inf)),
        (measure_bound, (1e-200, 3.0)),  # gave inf
    ],
)
def test_scalar_bounds_raise_where_they_overflow(fn, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="overflows"):
            fn(*args)


def test_minimize_overflow_is_a_domain_error():
    # the scan minimum overflows below p ~ 2.7e-103; it reported a grid edge
    with pytest.raises(DomainError, match="overflows"):
        minimize_over_q(1e-160, "measure")
    assert math.isfinite(minimize_over_q(1e-100, "measure").value)


#: Each bound function at the edge where its double overflows: DomainError,
#: or the finite value just inside the edge.
_OVERFLOW_EDGES = [
    pytest.param(lambda: lower_bound(1e-309), DomainError, id="lower_bound"),
    pytest.param(lambda: closed_form_bound(1e-103), DomainError, id="closed_form_bound"),
    pytest.param(lambda: scaled_cot_bound(5e-324), 3.4, id="scaled_cot_bound"),
    pytest.param(lambda: cot_of_scaled_arccot(1e308, 0.25), DomainError, id="cot_of_scaled_arccot"),
    # k * arccot(x) underflows to 0: it raised ZeroDivisionError
    pytest.param(
        lambda: cot_of_scaled_arccot(1e308, 5e-324), DomainError, id="cot_of_scaled_arccot-zero"
    ),
    pytest.param(lambda: angle_bound(0.5, math.inf), DomainError, id="angle_bound"),
    pytest.param(lambda: measure_bound(1e-200, 3.0), DomainError, id="measure_bound"),
    pytest.param(lambda: limit_bound(1e300), DomainError, id="limit_bound"),
    pytest.param(lambda: measure_cot_bound(0.5, 1e155), DomainError, id="measure_cot_bound"),
    # 40-digit mpmath minima: 3.43298777098082996e306 and 1.27147695221512196e308
    pytest.param(
        lambda: minimize_over_q(1e-102, "measure").value,
        3.432987770980831e306,
        id="minimize_over_q-finite",
    ),
    pytest.param(
        lambda: minimize_over_q(3e-103, "measure").value,
        1.2714769522151217e308,
        id="minimize_over_q-largest",
    ),
    pytest.param(
        lambda: minimize_over_q(1e-105, "measure"), DomainError, id="minimize_over_q-overflow"
    ),
    pytest.param(
        lambda: table_rows([1e-102])[0].measure_min,
        3.432987770980831e306,
        id="table_rows-finite",
    ),
    pytest.param(lambda: table_rows([1e-105]), DomainError, id="table_rows-overflow"),
]


@pytest.mark.parametrize("numpy_state", [{}, {"all": "raise"}], ids=["numpy-warn", "numpy-raise"])
@pytest.mark.parametrize("call,expect", _OVERFLOW_EDGES)
def test_overflow_edge_ignores_the_callers_numpy_state(call, expect, numpy_state):
    # minimize_over_q and table_rows leaked numpy's overflow warnings, or raised
    # FloatingPointError; cot_of_scaled_arccot returned inf
    with warnings.catch_warnings(), np.errstate(**numpy_state):
        warnings.simplefilter("error")
        if expect is DomainError:
            with pytest.raises(DomainError, match="overflows"):
                call()
        else:
            assert call() == expect


@pytest.mark.parametrize("p", [math.nan, math.inf, 5.0, -1.0, 0.0])
def test_limit_kind_checks_its_pole(p):
    # any p gave the p = 1 minimum
    with pytest.raises(DomainError, match=r"\(0, 1\]"):
        minimize_over_q(p, "limit")
    assert minimize_over_q(0.5, "limit") == minimize_over_q(1.0, "limit")


# ----------------------------------------------------------------- closed form


@pytest.mark.parametrize(
    "p,expect,tol",
    [(0.5, 429.726, 5e-3), (0.9, 134.471, 5e-3), (0.1, 33408.930, 5e-2)],
)
def test_closed_form_reference_values(p, expect, tol):
    assert closed_form_bound(p) == pytest.approx(expect, abs=tol)


@pytest.mark.parametrize("p", [1e-300, 1e-120])
def test_closed_form_overflow_is_a_domain_error(p):
    # 1e-300 raised OverflowError from the square, 1e-120 gave inf
    with pytest.raises(DomainError, match="overflows"):
        closed_form_bound(p)
    assert math.isfinite(closed_form_bound(1e-100))


# ------------------------------------------------------------ rational function


def test_scaled_cot_bound_is_ten_at_one():
    assert scaled_cot_bound(1.0) == 10.0


def test_scaled_cot_bound_below_ten():
    for p in np.linspace(1e-4, 1.0 - 1e-4, 10_000):
        assert scaled_cot_bound(p) < 10.0


def test_scaled_cot_bound_value_and_factorization():
    # independent evaluation of numerator and denominator at p = 1/2
    num = 17 * 0.5**4 + 50 * 0.5**3 + 46 * 0.5**2 + 50 * 0.5 + 17
    den = 5 * 0.5**2 + 8 * 0.5 + 5
    assert scaled_cot_bound(0.5) == pytest.approx(num / den, abs=1e-14)
    assert scaled_cot_bound(0.5) == pytest.approx(5.932926829268292, abs=1e-13)
    # it is 6p times the cotangent bound at q = 4
    for p in (0.2, 0.5, 0.8):
        assert scaled_cot_bound(p) == pytest.approx(6 * p * measure_cot_bound(p, 4.0), rel=1e-13)


# ------------------------------------------------------- cot of scaled arccot


def test_cot_arccot_limit_at_zero():
    assert cot_of_scaled_arccot(1e-14, 0.25) == pytest.approx(1 + math.sqrt(2), rel=1e-12)


@pytest.mark.parametrize("k", [0.25, 0.5, 0.75])
def test_cot_arccot_sandwich_and_convexity(k):
    xs = np.linspace(1e-3, 100.0, 2000)
    vals = np.array([cot_of_scaled_arccot(x, k) for x in xs])
    lo = 1 / math.tan(k * math.pi / 2) + k * xs / math.sin(k * math.pi / 2) ** 2
    hi = 1 / math.tan(k * math.pi / 2) + xs / k
    assert np.all(lo < vals) and np.all(vals < hi)
    second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
    assert second.min() >= -1e-9


def test_cot_arccot_domain_errors():
    with pytest.raises(DomainError):
        cot_of_scaled_arccot(-1.0, 0.25)
    with pytest.raises(DomainError):
        cot_of_scaled_arccot(1.0, 1.0)
    for x in (0.0, math.nan, math.inf):  # inf raised ZeroDivisionError
        with pytest.raises(DomainError, match="positive and finite"):
            cot_of_scaled_arccot(x, 0.25)


# ------------------------------------------------------------------- minimizer


def test_minimize_reference_values():
    assert minimize_over_q(0.2, "measure").value == pytest.approx(775.275, abs=5e-3)
    assert minimize_over_q(0.7, "angle").value == pytest.approx(221.807, abs=5e-3)


def test_minimize_result_invariants():
    # the bracket is the last bisection bracket: two adjacent doubles, q_star one of them
    res = minimize_over_q(0.4, "measure")
    lo, hi = res.bracket
    assert lo <= res.q_star <= hi and res.q_star in (lo, hi)
    assert math.nextafter(lo, math.inf) == hi
    assert measure_bound(0.4, res.q_star) == res.value
    assert res.evaluations in (53, 54)


def test_minimize_certificate_in_bracket():
    # no q of the whole bracket [2.5, 6.5] gives a smaller bound
    res = minimize_over_q(0.6, "measure")
    qs = RNG.uniform(*_Q_BRACKET, 1000)
    assert all(res.value <= measure_bound(0.6, q) * (1 + 1e-15) for q in qs)


def test_minimize_perturbed_grid_invariance():
    # independent re-minimization from a grid offset by 1.01, refined by
    # trisection: the certified value should be stable to 1e-8 relative
    import warnings

    for p, fn in ((0.35, measure_bound), (0.75, angle_bound)):
        ref = minimize_over_q(p, "measure" if fn is measure_bound else "angle").value
        qs = 1.0 + 1.01 * np.geomspace(1e-6, 1e8, 64 * 14 + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NumericalConditionWarning)
            vals = [fn(p, q) for q in qs]
        i = int(np.argmin(vals))
        lo, hi = qs[i - 1], qs[i + 1]
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3, hi - (hi - lo) / 3
            if fn(p, m1) < fn(p, m2):
                hi = m2
            else:
                lo = m1
        alt = fn(p, 0.5 * (lo + hi))
        assert abs(alt - ref) <= 1e-8 * ref


def _mp_measure_bound(p, q):
    m = (q + 1) / (q - 1) + (1 - p * p) ** 2 * (1 + q * q) / (
        2 * p * (q - 1) * (4 * p * mp.sqrt(q) + (1 + q) * (1 + p * p))
    )
    return (1 + p * p) * mp.log(q) / (2 * p) * mp.cot(mp.acot(m) / 4) ** 2


@pytest.mark.parametrize("p", [0.999, 0.5, 0.1, 0.01, 1e-4])
def test_measure_minimum_matches_mpmath(p):
    # mpmath at 40 digits: coarse scan in q - 1, then the root of the derivative
    with mp.workdps(40):
        f = lambda q: _mp_measure_bound(mp.mpf(p), q)
        start = min((1 + mp.mpf(10) ** (mp.mpf(k) / 8) for k in range(-48, 65)), key=f)
        q_min = mp.findroot(lambda q: mp.diff(f, q), start)
        expect = f(q_min)
    res = minimize_over_q(p, "measure")
    assert abs(res.value / expect - 1) <= 1e-15
    assert abs(res.q_star / q_min - 1) <= 1e-14


def _mp_angle_bound(p, q):
    theta = mp.atan((q - 1) / (q + 1)) - mp.atan((1 - p * p) * (q - 1) / (2 * p * (q + 1)))
    return (1 + p * p) * mp.log(q) / (2 * p) * mp.cot(theta / 4) ** 2


@pytest.mark.parametrize(
    "kind,p",
    [("measure", p) for p in (0.999, 0.5, 0.1, 0.01, 1e-4, 1e-10, 1e-100)]
    + [("angle", p) for p in (0.999, 0.7, 0.5, ANGLE_BOUND_MIN_P + 1e-3)],
)
def test_q_star_matches_mpmath_argmin(kind, p):
    # the mpmath argmin is the root of the derivative of log B in t = log(q - 1), from a
    # 1/16 scan in t; the log keeps the root's tolerance relative at p = 1e-100
    bound = {"measure": _mp_measure_bound, "angle": _mp_angle_bound}[kind]
    with mp.workdps(40):
        g = lambda t: mp.log(bound(mp.mpf(p), 1 + mp.exp(t)))
        start = min((mp.mpf(k) / 16 for k in range(-224, 304)), key=g)
        q_min = 1 + mp.exp(mp.findroot(lambda t: mp.diff(g, t), start))
    res = minimize_over_q(p, kind)
    assert abs(res.q_star / q_min - 1) <= 1e-14


#: kind -> (public bound at (p, q), its 30-digit mpmath form); the limit is the measure at p = 1.
_BOUNDS = {
    "measure": (measure_bound, _mp_measure_bound),
    "angle": (angle_bound, _mp_angle_bound),
    "limit": (lambda p, q: limit_bound(q), lambda p, q: _mp_measure_bound(1, q)),
}


@pytest.mark.parametrize(
    "kind,p",
    [("measure", p) for p in (1e-3, 0.1, 0.4, 0.42, 0.7, 0.999)]
    + [("angle", p) for p in (ANGLE_BOUND_MIN_P + 1e-3, 0.5, 0.8, 0.999)]
    + [("limit", 1.0)],
)
def test_scalar_bounds_match_mpmath_on_grid(kind, p):
    # 113 points of q - 1 in [1e-6, 1e8], log-spaced; the worst is 1.4e-15 (angle, p = 0.999)
    scalar, exact = _BOUNDS[kind]
    grid = 1.0 + np.geomspace(1e-6, 1e8, 113)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericalConditionWarning)
        values = [scalar(p, float(q)) for q in grid]
    with mp.workdps(30):
        ref = [exact(mp.mpf(p), mp.mpf(float(q))) for q in grid]
    for q, got, want in zip(grid, values, ref):
        assert abs(got / want - 1) <= 2e-15, (q, got, want)
    assert np.argmin(values) == min(range(len(ref)), key=ref.__getitem__)


@pytest.mark.parametrize("kind,p", [("measure", 0.5), ("angle", 0.7), ("limit", 1.0)])
def test_minimize_bisects_the_slope_then_evaluates_once(monkeypatch, kind, p):
    # each slope call halves the bracket until the midpoint is an end; then one
    # value call at q_star, and no public wrapper
    import polebounds.bounds as bounds_mod

    check, value, slope = bounds_mod._KINDS[kind]
    slope_qs, value_qs = [], []

    def counted_slope(p, q):
        slope_qs.append(q)
        return slope(p, q)

    def counted_value(p, q):
        value_qs.append(q)
        return value(p, q)

    def forbidden(*args):
        raise AssertionError(f"public wrapper called with {args}")

    monkeypatch.setitem(bounds_mod._KINDS, kind, (check, counted_value, counted_slope))
    for name in ("angle_bound", "measure_bound", "limit_bound", "_checked_bound"):
        monkeypatch.setattr(bounds_mod, name, forbidden)
    res = minimize_over_q(p, kind)
    assert slope_qs[0] == 4.5 and all(2.5 < q < 6.5 for q in slope_qs)
    assert len(set(slope_qs)) == len(slope_qs) == res.evaluations - 1 in (52, 53)
    assert value_qs == [res.q_star]


@pytest.mark.parametrize(
    "kind,p",
    [("measure", p) for p in (1e-100, 1e-10, 1e-3, 0.3, 0.5, 0.9, 0.999)]
    + [("angle", p) for p in (ANGLE_BOUND_MIN_P + 1e-3, 0.5, 0.7, 0.999)]
    + [("limit", 1.0)],
)
def test_float_slope_is_the_derivative_of_log_bound(kind, p):
    # the slope that minimize_over_q bisects, against mpmath's derivative of
    # log B in t = log(q - 1) at 30 digits, over the bracket and beyond it
    # (the worst is 5.3e-16)
    bound = {"angle": _mp_angle_bound}.get(kind, _mp_measure_bound)
    check, _, slope = _KINDS[kind]
    p = check(p)
    for q in (1.001, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5, 6.0, 6.5, 10.0, 1e6):
        with mp.workdps(30):
            exact = mp.diff(lambda t: mp.log(bound(mp.mpf(p), 1 + mp.exp(t))), mp.log(q - 1))
        assert abs(slope(p, q) - exact) <= 2e-15 * (1 + abs(exact)), (q, slope(p, q), exact)


def _iv_measure_bound(p, q):
    # trig-free: cot(arccot(x)/4) = y + sqrt(1+y^2) with y = x + sqrt(1+x^2) = cot(arccot(x)/2)
    iv = mp.iv
    p, q = iv.mpf(p), iv.mpf(q)
    x = (q + 1) / (q - 1) + (1 - p * p) ** 2 * (1 + q * q) / (
        2 * p * (q - 1) * (4 * p * iv.sqrt(q) + (1 + q) * (1 + p * p))
    )
    y = x + iv.sqrt(1 + x * x)
    cot = y + iv.sqrt(1 + y * y)
    return (1 + p * p) * iv.log(q) / (2 * p) * cot * cot


def test_table_measure_minima_are_certified_by_interval_enclosures():
    # any q > 1 gives a valid bound, so an enclosure at q_star proves the reported minimum
    dps = mp.iv.dps
    mp.iv.dps = 30
    try:
        for row in table_rows():
            enclosure = _iv_measure_bound(row.p, minimize_over_q(row.p, "measure").q_star)
            assert enclosure.delta < 1e-25, row.p
            assert abs((mp.iv.mpf(row.measure_min) - enclosure) / enclosure) < 1e-15, row.p
    finally:
        mp.iv.dps = dps


def test_minimize_rejects_unknown_kind():
    with pytest.raises(DomainError):
        minimize_over_q(0.5, "nonsense")


def test_minimize_propagates_domain_error():
    with pytest.raises(DomainError):
        minimize_over_q(0.3, "angle")  # below the validity threshold


# ---------------------------------------------------------------- p -> 1 limit


def test_limit_bound_spot_value():
    assert limit_bound(5.55465) == pytest.approx(73.2502105, abs=1e-6)


def test_limit_bound_minimum_close_to_spot():
    assert minimize_over_q(1.0, "limit").value <= 73.2502105 + 1e-6


@pytest.mark.parametrize("q", [2.0, 4.0, 8.0])
def test_measure_bound_converges_to_limit(q):
    assert abs(measure_bound(0.999999, q) - limit_bound(q)) < 1e-3


def test_limit_bound_domain():
    with pytest.raises(DomainError):
        limit_bound(1.0)


# --------------------------------------------------------------------- orderings


def test_bound_ordering_chain_spot_checks():
    for p in (0.15, 0.5, 0.85):
        mm = minimize_over_q(p, "measure").value
        assert lower_bound(p) <= mm <= closed_form_bound(p)
    for p in (0.45, 0.7, 0.95):
        assert minimize_over_q(p, "measure").value <= minimize_over_q(p, "angle").value


# ------------------------------------------------------------------------ table


def test_table_reference_rows():
    rows = {r.p: r for r in table_rows([0.99, 0.6, 0.3])}
    r = rows[0.99]
    assert (r.lower, r.angle_min, r.closed_form, r.measure_min) == (
        pytest.approx(3.141, abs=5e-3),
        pytest.approx(74.995, abs=5e-3),
        pytest.approx(116.025, abs=5e-3),
        pytest.approx(73.259, abs=5e-3),
    )
    r = rows[0.6]
    assert (r.lower, r.angle_min, r.closed_form, r.measure_min) == (
        pytest.approx(3.351, abs=5e-3),
        pytest.approx(471.016, abs=5e-3),
        pytest.approx(287.415, abs=5e-3),
        pytest.approx(98.455, abs=5e-3),
    )
    r = rows[0.3]
    assert r.angle_min is None
    assert r.measure_min == pytest.approx(310.577, abs=5e-3)


def test_table_custom_p_is_internally_consistent():
    row = table_rows([0.45])[0]
    assert row.lower <= row.measure_min <= row.closed_form


def test_round_half_up():
    assert round_half_up(3.1415) == 3.142
    assert round_half_up(2.0005) == 2.001
    assert round_half_up(-1.2345) == -1.235
    assert round_half_up(1.0) == 1.0


def test_round_half_up_keeps_large_values():
    # 28 significant digits, the default decimal precision, raised InvalidOperation here
    for x in (1.2345678901234567e25, 3.4329877709808314e114, 1.7976931348623157e308):
        assert round_half_up(x) == x


# ------------------------------------------------- where the minima lie (certificate)
#
# Each upper bound is B = c log(q) cot^2(theta/4), theta = atan(s), where s is a
# function of x = (q - 1)/(q + 1) and of the pole. With t = log(q - 1) and
# S = d log B / dt,
#
#     S = A + tail,    A = (q - 1)/(q log q) = 2x / ((1 + x) log((1 + x)/(1 - x))),
#     tail = -(1 - x) g sqrt(2r(r + 1)) / (1 + s^2),  g = x s'(x) / s,  r = sqrt(1 + s^2).
#
# The angle bound has s = (1 - k) x / (1 + k x^2), k = (1 - p^2)/(2p). The measure
# bound has s = 1 / cot bound, which in a = 2p/(1 + p^2) and y = sqrt(1 - x^2) is
#
#     s = 2ax(1 + ay) / (1 + 2a - a^2 + (1 - a^2) x^2 + 2a^2 y).
#
# bounds.py evaluates S with these expressions in floats. Both tails are smooth
# on closed pole ranges: the measure tail in a on [0, 1] (a = 1 is p = 1, the
# limit kind), the angle tail in k on [0, 1], which is p on [sqrt(2) - 1, 1].
# A is decreasing (its derivative has the sign of log q - (q - 1) < 0), so on
# [x0, x1] it lies between A(x1) and A(x0). Each tail is computed as y times
# tail / y: 1 - x = y^2/(1 + x), and the measure g has terms in 1/y that
# (1 - x)/y = y/(1 + x) cancels, so tail / y stays finite up to x = 1. Each
# function below takes mpmath.iv intervals, or _Dual numbers over them.


class _Dual:
    """``v + d dx`` over ``mpmath.iv`` intervals: a value and its derivative in ``x``."""

    def __init__(self, v, d=0):
        self.v, self.d = v, d

    def __add__(self, o):
        o = _as_dual(o)
        return _Dual(self.v + o.v, self.d + o.d)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.v, -self.d)

    def __sub__(self, o):
        return self + -_as_dual(o)

    def __rsub__(self, o):
        return _as_dual(o) + -self

    def __mul__(self, o):
        o = _as_dual(o)
        return _Dual(self.v * o.v, self.d * o.v + self.v * o.d)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _as_dual(o)
        return _Dual(self.v / o.v, (self.d * o.v - self.v * o.d) / (o.v * o.v))

    def __rtruediv__(self, o):
        return _as_dual(o) / self


def _as_dual(x):
    return x if isinstance(x, _Dual) else _Dual(mp.iv.mpf(x))


def _sqrt(x):
    if isinstance(x, _Dual):
        r = mp.iv.sqrt(x.v)
        return _Dual(r, x.d / (2 * r))
    return mp.iv.sqrt(x)


def _log(x):
    if isinstance(x, _Dual):
        return _Dual(mp.iv.log(x.v), x.d / x.v)
    return mp.iv.log(x)


def _iv_first_term(x):
    return 2 * x / ((1 + x) * _log((1 + x) / (1 - x)))


def _iv_tail_over_y(s, h):
    """``tail / y`` from ``s`` and ``h = (1 - x) g / y``."""
    r = _sqrt(1 + s * s)
    return -h * _sqrt(2 * r * (r + 1)) / (1 + s * s)


def _iv_measure_tail_over_y(a, x, y):
    # g has two terms in 1/y; (1 - x)/y = y/(1 + x) leaves none in h
    aa, x2 = a * a, x * x
    den = 1 + 2 * a - aa + (1 - aa) * x2 + 2 * aa * y
    s = 2 * a * x * (1 + a * y) / den
    h = (y - a * x2 / (1 + a * y) - 2 * x2 * ((1 - aa) * y - aa) / den) / (1 + x)
    return _iv_tail_over_y(s, h)


def _iv_angle_tail_over_y(k, x, y):
    kx2 = k * x * x
    return _iv_tail_over_y((1 - k) * x / (1 + kx2), y / (1 + x) * (1 - kx2) / (1 + kx2))


def _times_y(tail_over_y):
    """The tail itself: ``y`` times ``tail_over_y`` at ``y = sqrt(1 - x^2)``."""

    def tail(pole, x):
        y = _sqrt(1 - x * x)
        return y * tail_over_y(pole, x, y)

    return tail


def _x_of(e):
    """``x = 1 - 2/(2 + e)`` at ``e = q - 1``, as a narrow interval."""
    return 1 - 2 / (2 + mp.iv.mpf(e))


def _sign_certified(tail, sign, poles, e_range, max_boxes):
    """Boxes it took to prove ``sign * S > 0`` on ``poles x e_range``; None past ``max_boxes``.

    Every enclosure is an ``mpmath.iv`` one. A box that fails is split at the
    geometric mean of its ``e`` range and, unless its pole range is a point,
    at the middle of that.
    """
    boxes = [(*poles, *e_range)]
    done = 0
    while boxes:
        if done == max_boxes:
            return None
        done += 1
        p0, p1, e0, e1 = boxes.pop()
        x0, x1 = _x_of(e0), _x_of(e1)
        x = mp.iv.mpf([x0.a, x1.b])
        s = _iv_first_term(x1 if sign > 0 else x0) + tail(mp.iv.mpf([p0, p1]), x)
        if (s.a > 0) if sign > 0 else (s.b < 0):
            continue
        em = mp.sqrt(e0 * e1)
        halves = [(p0, p1)] if p0 == p1 else [(p0, (p0 + p1) / 2), ((p0 + p1) / 2, p1)]
        boxes += [(*h, *es) for h in halves for es in ((e0, em), (em, e1))]
    return done


def _slope_monotone(tail, sign, poles, x_range, max_boxes):
    """Boxes it took to prove ``sign * dS/dx > 0`` on ``poles x x_range``; None past ``max_boxes``.

    ``dS/dx`` is the derivative part of ``S`` evaluated on ``_Dual`` numbers.
    A box that fails is split at the middle of both its ranges.
    """
    boxes = [(*poles, *x_range)]
    done = 0
    while boxes:
        if done == max_boxes:
            return None
        done += 1
        p0, p1, x0, x1 = boxes.pop()
        x = _Dual(mp.iv.mpf([x0, x1]), 1)
        slope = (_iv_first_term(x) + tail(_Dual(mp.iv.mpf([p0, p1])), x)).d
        if (slope.a > 0) if sign > 0 else (slope.b < 0):
            continue
        pm, xm = (p0 + p1) / 2, (x0 + x1) / 2
        boxes += [(*ps, *xs) for ps in ((p0, pm), (pm, p1)) for xs in ((x0, xm), (xm, x1))]
    return done


def _pole_parameter(kind, p):
    """The pole as its tail takes it: ``a`` for the measure bound, ``k`` for the angle bound."""
    return 2 * p / (1 + p * p) if kind == "measure" else (1 - p * p) / (2 * p)


_TAILS_OVER_Y = {"measure": _iv_measure_tail_over_y, "angle": _iv_angle_tail_over_y}
_TAILS = {kind: _times_y(tail_over_y) for kind, tail_over_y in _TAILS_OVER_Y.items()}

#: q - 1 where each bound falls (1e-6 rounded down) and where it rises: the
#: range of the former global scan, outside the minimizer's bracket [2.5, 6.5].
_FALLS = (mp.mpf(mp.iv.mpf("1e-6").a), mp.mpf(1.5))
_RISES = (mp.mpf(5.5), mp.mpf(10) ** 8)

#: x = (q - 1)/(q + 1) on the bracket q in [2.5, 6.5]: [3/7, 11/15], rounded outward.
_BRACKET_X = ((mp.iv.mpf(3) / 7).a, (mp.iv.mpf(11) / 15).b)


@pytest.mark.parametrize("kind", ["measure", "angle"])
@pytest.mark.parametrize("sign,e_range", [(-1, _FALLS), (1, _RISES)], ids=["falls", "rises"])
def test_every_bound_falls_below_and_rises_above_the_bracket(kind, sign, e_range):
    # a proof over every pole: a in [0, 1] (p in [0, 1]) for the measure and
    # limit kinds, k in [0, 1] (p in [sqrt(2) - 1, 1]) for the angle kind
    poles = (mp.mpf(0), mp.mpf(1))
    assert _sign_certified(_TAILS[kind], sign, poles, e_range, max_boxes=20_000) is not None


#: x on q - 1 in (0, 1e-6], from 0 to where _FALLS starts, rounded outward.
_NEAR_X = mp.iv.mpf([0, _x_of(_FALLS[0]).b])

#: Eight boxes covering the poles [0, 1].
_POLE_BOXES = [mp.iv.mpf([mp.mpf(k) / 8, mp.mpf(k + 1) / 8]) for k in range(8)]


def _one_plus_tail_negative(tail, x):
    """Whether ``1 + tail < 0`` on ``x`` for every pole box.

    Then ``S < 0`` there wherever the first term is at most 1.
    """
    return all((1 + tail(poles, x)).b < 0 for poles in _POLE_BOXES)


@pytest.mark.parametrize("kind", ["measure", "angle"])
def test_every_bound_falls_next_to_q_equal_1(kind):
    # at x = 0 the first term x / ((1 + x) atanh x) is 0/0 and has no finite
    # enclosure, but atanh x >= x makes it at most 1 / (1 + x) <= 1, so
    # S <= 1 + tail; with _FALLS this proves S < 0 on all of q in (1, 2.5]
    assert _iv_first_term(_NEAR_X).b == mp.inf
    assert _one_plus_tail_negative(_TAILS[kind], _NEAR_X)
    # the same enclosures prove nothing where S > 0, at q - 1 in [1e3, 1e4]
    rising = mp.iv.mpf([_x_of(1e3).a, _x_of(1e4).b])
    assert not _one_plus_tail_negative(_TAILS[kind], rising)


#: x on q - 1 in [1e8, inf), from where _RISES ends up to 1, rounded outward.
_FAR_X = mp.iv.mpf([_x_of(_RISES[1]).a, 1])


def _y_log_q(x, y):
    """An enclosure of ``y log q = y log((1 + x)^2 / y^2)`` on ``x``, ``y = sqrt(1 - x^2)``.

    Where ``y`` reaches 0 (at ``x = 1``) so does the product, and it rises with
    ``y`` while ``y < (1 + x)/e``: it lies between 0 and its value at the largest ``y``.
    """
    if y.a > 0:
        return y * _log((1 + x) ** 2 / (y * y))
    assert y.b < (1 + x.a) / mp.e
    top = mp.iv.mpf(y.b)
    return mp.iv.mpf([0, (top * _log((1 + x) ** 2 / (top * top))).b])


def _log_q_times_slope_lows(tail_over_y, poles, x):
    """Per pole box, the lower end of ``log(q) S = (q - 1)/q + y log(q) tail / y`` on ``x``."""
    y = _sqrt(1 - x * x)
    return [(2 * x / (1 + x) + _y_log_q(x, y) * tail_over_y(box, x, y)).a for box in poles]


@pytest.mark.parametrize(
    "kind,pole,q_range",
    [("measure", 0.8, (4, 5)), ("angle", 0.75, (3, 4))],  # p = 0.5, as below
    ids=["measure", "angle"],
)
def test_every_bound_rises_to_q_infinity(kind, pole, q_range):
    # near x = 1 both terms of S go to 0, the first like 1/log q, so no box up
    # to x = 1 signs S itself; log(q) S has the first term (q - 1)/q, near 1,
    # and a tail that goes to 0 with y log q. With _RISES this proves S > 0 on
    # all of q in [6.5, inf)
    tail_over_y = _TAILS_OVER_Y[kind]
    assert min(_log_q_times_slope_lows(tail_over_y, _POLE_BOXES, _FAR_X)) > 0
    # the same enclosure proves nothing on a q range around the minimum at p = 0.5
    x = mp.iv.mpf([_x_of(q_range[0] - 1).a, _x_of(q_range[1] - 1).b])
    assert _log_q_times_slope_lows(tail_over_y, [mp.iv.mpf(pole)], x)[0] <= 0


@pytest.mark.parametrize("kind", ["measure", "angle"])
def test_slope_increases_across_the_bracket(kind):
    # dS/dx > 0, and dx/dq = 2/(q + 1)^2 > 0, so S rises through [2.5, 6.5] and
    # its one sign change there, the root minimize_over_q bisects for, is the
    # minimum over all q > 1; a proof over every pole, as above
    poles = (mp.mpf(0), mp.mpf(1))
    assert _slope_monotone(_TAILS[kind], 1, poles, _BRACKET_X, max_boxes=2_000) is not None
    # the same enclosures do not prove the opposite sign
    assert _slope_monotone(_TAILS[kind], -1, poles, _BRACKET_X, max_boxes=50) is None


@pytest.mark.parametrize(
    "kind,pole,q_range",
    [("measure", 0.8, (4, 5)), ("angle", 0.75, (3, 4))],  # a = 0.8 and k = 0.75 are p = 0.5
)
def test_certificate_fails_on_a_box_around_the_minimum(kind, pole, q_range):
    # at p = 0.5 the minima lie at q* = 4.74 (measure) and 3.38 (angle), where S
    # changes sign: neither sign is provable on a q range around them
    poles, e_range = (mp.mpf(pole),) * 2, tuple(mp.mpf(q - 1) for q in q_range)
    for sign in (-1, 1):
        assert _sign_certified(_TAILS[kind], sign, poles, e_range, max_boxes=300) is None


@pytest.mark.parametrize(
    "kind,p,q",
    [("measure", p, q) for p in ("1e-6", "0.3", "0.999") for q in ("1.001", "2", "7", "1e6")]
    + [("angle", p, q) for p in ("0.4143", "0.7", "1") for q in ("1.001", "2", "7", "1e6")],
)
def test_certified_slope_is_the_derivative_of_log_bound(kind, p, q):
    # the closed forms above against mpmath's derivative of log B in t, at 30 digits
    bound = {"measure": _mp_measure_bound, "angle": _mp_angle_bound}[kind]
    with mp.workdps(30):
        p, q = mp.mpf(p), mp.mpf(q)
        exact = mp.diff(lambda t: mp.log(bound(p, 1 + mp.exp(t))), mp.log(q - 1))
    x = _x_of(q - 1)
    s = _iv_first_term(x) + _TAILS[kind](mp.iv.mpf(_pole_parameter(kind, p)), x)
    assert abs(s.mid - exact) <= 1e-12 * (1 + abs(exact))


# ------------------------------------------------------ the paper's table, certified


def _iv_angle_bound(p, q):
    # theta = atan(s), s = (1 - k) x / (1 + k x^2), as in the certificate above
    iv = mp.iv
    p, q = iv.mpf(p), iv.mpf(q)
    k, x = (1 - p * p) / (2 * p), (q - 1) / (q + 1)
    theta = iv.atan2((1 - k) * x / (1 + k * x * x), 1)
    return (1 + p * p) * iv.log(q) / (2 * p) * iv.cot(theta / 4) ** 2


_IV_BOUNDS = {"measure": _iv_measure_bound, "angle": _iv_angle_bound}


def _iv_minimum(kind, p, pole):
    """An enclosure of the least bound over all q > 1 at the decimal ``pole``, near ``p``.

    The upper end is the bound at the library's ``q_star``. Around it, on
    ``[q_lo, q_hi]`` inside the bracket [2.5, 6.5], ``S`` is certified ``< 0``
    at ``q_lo`` and ``> 0`` at ``q_hi``. The certificate above makes ``S``
    negative below the bracket, rising across it and positive above it, so the
    minimum over all q > 1 lies in ``[q_lo, q_hi]``: the lower end is the
    least bound there.
    """
    q_star = minimize_over_q(p, kind).q_star
    q_lo, q_hi = q_star * (1 - 1e-12), q_star * (1 + 1e-12)  # q_star is good to 1e-14
    assert 2.5 <= q_lo < q_hi <= 6.5
    for q, sign in ((q_lo, -1), (q_hi, 1)):
        x = 1 - 2 / (1 + mp.iv.mpf(q))
        s = _iv_first_term(x) + _TAILS[kind](_pole_parameter(kind, pole), x)
        assert (s.a > 0) if sign > 0 else (s.b < 0), (kind, p, q)
    bound = _IV_BOUNDS[kind]
    return mp.iv.mpf([bound(pole, [q_lo, q_hi]).a, bound(pole, q_star).b])


@functools.cache
def _paper_table_enclosures():
    """``(p, cell name) -> mpmath.iv`` enclosure of the true value, at the paper's decimal p."""
    from test_acceptance import EXPECTED_TABLE

    iv = mp.iv
    dps = iv.dps
    iv.dps = 30
    try:
        enclosures = {}
        for p, cells in EXPECTED_TABLE.items():
            pole = iv.mpf(repr(p))
            enclosures[p, "lower"] = (1 + pole) ** 2 * iv.pi / (4 * pole)
            enclosures[p, "closed_form"] = (
                (1 + pole**2) / pole * (1 + iv.sqrt(2) + 20 / (3 * pole)) ** 2 * iv.log(2)
            )
            enclosures[p, "measure_min"] = _iv_minimum("measure", p, pole)
            if cells[1] is not None:
                enclosures[p, "angle_min"] = _iv_minimum("angle", p, pole)
    finally:
        iv.dps = dps
    return enclosures


def _outward_excess(table):
    """``(p, cell name) -> units of 1e-3`` by which each cell exceeds its outward rounding.

    The whole enclosure of the true value is rounded: ``lower`` down, the three
    upper bounds up. An enclosure that straddles a rounding boundary fails.
    """
    excess = {}
    for p, cells in table.items():
        for name, cell in zip(("lower", "angle_min", "closed_form", "measure_min"), cells):
            if cell is None:
                continue
            enclosure = _paper_table_enclosures()[p, name]
            rounded = mp.floor if name == "lower" else mp.ceil
            ends = {int(rounded(1000 * mp.mpf(end))) for end in (enclosure.a, enclosure.b)}
            assert len(ends) == 1, (p, name, enclosure)
            excess[p, name] = round(1000 * cell) - ends.pop()
    return excess


#: The paper's cells that exceed the outward rounding of their true value, by
#: this many units of the last place. Each is the bound at some q near q_star,
#: rounded up: a valid bound, but not the minimum.
_PAPER_CELL_EXCESS = {(0.6, "angle_min"): 1, (0.5, "angle_min"): 2, (0.4, "measure_min"): 1}


def test_paper_table_rounds_each_cell_outward():
    # every true value in an mpmath.iv enclosure at most 4e-8 wide: the closed
    # forms directly, each minimum over all q > 1 by _iv_minimum; the nearest
    # rounding boundary is 2.9e-6 away (closed_form at p = 0.2)
    from test_acceptance import EXPECTED_TABLE

    excess = _outward_excess(EXPECTED_TABLE)
    assert len(excess) == 40
    assert {cell: units for cell, units in excess.items() if units} == _PAPER_CELL_EXCESS


@pytest.mark.parametrize("units", [-1, 1])
def test_paper_table_check_fails_on_a_cell_moved_by_one_unit(units):
    # control: the check above rejects each of the 40 cells moved by one unit
    from test_acceptance import EXPECTED_TABLE

    for p, cells in EXPECTED_TABLE.items():
        for j, cell in enumerate(cells):
            if cell is None:
                continue
            moved = list(cells)
            moved[j] = round(cell + units / 1000, 3)
            excess = _outward_excess({**EXPECTED_TABLE, p: tuple(moved)})
            assert {c: u for c, u in excess.items() if u} != _PAPER_CELL_EXCESS, (p, j)
