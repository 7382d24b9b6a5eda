"""Bound functions, their minimization over q, and the comparison table."""

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
from polebounds.bounds import _angle_formula, _measure_formula, round_half_up

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
        3.43298777098083e306,
        id="minimize_over_q-finite",
    ),
    # the parabola's curvature would overflow at this finite minimum
    pytest.param(
        lambda: minimize_over_q(3e-103, "measure").value,
        1.2714769522151221e308,
        id="minimize_over_q-largest",
    ),
    pytest.param(
        lambda: minimize_over_q(1e-105, "measure"), DomainError, id="minimize_over_q-overflow"
    ),
    pytest.param(
        lambda: table_rows([1e-102])[0].measure_min,
        3.43298777098083e306,
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
    res = minimize_over_q(0.4, "measure")
    assert res.bracket[0] < res.q_star < res.bracket[1]
    assert measure_bound(0.4, res.q_star) == pytest.approx(res.value, abs=1e-12)
    assert res.evaluations > 0


def test_minimize_certificate_in_bracket():
    res = minimize_over_q(0.6, "measure")
    qs = RNG.uniform(res.bracket[0], res.bracket[1], 1000)
    assert all(res.value <= measure_bound(0.6, q) + 1e-12 for q in qs)


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


#: kind -> (array formula, scalar wrapper); the limit bound is the measure formula at p = 1.
_FORMULAS = {
    "measure": (_measure_formula, measure_bound),
    "angle": (_angle_formula, angle_bound),
    "limit": (_measure_formula, lambda p, q: limit_bound(q)),
}


@pytest.mark.parametrize(
    "kind,p",
    [("measure", p) for p in (1e-3, 0.1, 0.4, 0.42, 0.7, 0.999)]
    + [("angle", p) for p in (ANGLE_BOUND_MIN_P + 1e-3, 0.5, 0.8, 0.999)]
    + [("limit", 1.0)],
)
def test_array_formula_matches_scalar_wrapper_on_grid(kind, p):
    formula, scalar = _FORMULAS[kind]
    grid = 1.0 + np.geomspace(1e-6, 1e8, 64 * 14 + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NumericalConditionWarning)
        ref = np.array([scalar(p, float(q)) for q in grid])
    values = formula(p, grid)
    np.testing.assert_allclose(values, ref, rtol=1e-12, atol=0.0)
    assert np.argmin(values) == np.argmin(ref)


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
    assert abs(res.value / expect - 1) <= 1e-13
    # a loose check; test_q_star_matches_mpmath_argmin holds q_star to 1e-9
    assert res.q_star == pytest.approx(float(q_min), rel=1e-6)


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
    assert abs(res.q_star / q_min - 1) <= 1e-9


@pytest.mark.parametrize("kind,p", [("measure", 0.5), ("angle", 0.7), ("limit", 1.0)])
def test_minimize_makes_three_array_calls_and_at_most_two_scalar_calls(monkeypatch, kind, p):
    # three array calls and then two scalar calls of the same formula, and no public wrapper
    import polebounds.bounds as bounds_mod

    check, formula = bounds_mod._KINDS[kind]
    sizes = []

    def counted_formula(p, q):
        sizes.append(np.size(q) if np.ndim(q) else "scalar")
        return formula(p, q)

    def forbidden(*args):
        raise AssertionError(f"public wrapper called with {args}")

    monkeypatch.setitem(bounds_mod._KINDS, kind, (check, counted_formula))
    for name in ("angle_bound", "measure_bound", "limit_bound", "_checked_bound"):
        monkeypatch.setattr(bounds_mod, name, forbidden)
    res = minimize_over_q(p, kind)
    assert sizes == [65, 65, 65, "scalar", "scalar"]
    assert res.evaluations == 196


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
# With t = log(q - 1), e = q - 1 and S = d log B / dt, each bound has
#
#     S = A(e) + tail,    A(e) = e / (q log q),
#
# where the tail depends on the pole. Both tails are written so that they are
# smooth on closed pole ranges: the measure tail in p on [0, 1] (p = 1 is the
# limit kind), the angle tail in k = (1 - p^2) / (2p) on [0, 1], which is
# p on [sqrt(2) - 1, 1]. A is decreasing (its derivative has the sign of
# log q - (q - 1) < 0), so on [e0, e1] it lies between A(e1) and A(e0).


def _iv_first_term(e):
    e = mp.iv.mpf(e)
    q = 1 + e
    return e / (q * mp.iv.log(q))


def _iv_measure_tail(p, e):
    # With c = p * e * cot bound (finite at e = 0 and at p = 0) and R = sqrt(p^2 e^2 + c^2),
    # the tail is (e c' - c) sqrt(2R(R + c)) / R^2, and e c' - c = (1-p^2)^2 N / (2D^2) - 2p.
    iv = mp.iv
    q = 1 + e
    sq, pp = iv.sqrt(q), p * p
    d = 4 * p * sq + (1 + q) * (1 + pp)
    w = (1 - pp) ** 2
    c = p * (q + 1) + w * (1 + q * q) / (2 * d)
    n = 2 * p * (q + 1) * (q * q - 4 * q + 1) / sq - 4 * (1 + pp) * q
    r2 = pp * e * e + c * c
    r = iv.sqrt(r2)
    return (w * n / (2 * d * d) - 2 * p) * iv.sqrt(2 * r * (r + c)) / r2


def _iv_angle_tail(k, e):
    # theta = atan(s) with s = (1-k) x / (1 + k x^2) and x = e / (2 + e);
    # theta' / sin(theta/2) has 1 - k divided out, so k = 1 is smooth.
    iv = mp.iv
    x = e / (2 + e)
    kx2 = k * x * x
    s2 = ((1 - k) * x / (1 + kx2)) ** 2
    r = iv.sqrt(1 + s2)
    return -2 * (1 - kx2) / ((2 + e) * (1 + kx2)) * iv.sqrt(2 * r * (r + 1)) / (1 + s2)


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
        s = _iv_first_term(e1 if sign > 0 else e0) + tail(mp.iv.mpf([p0, p1]), mp.iv.mpf([e0, e1]))
        if (s.a > 0) if sign > 0 else (s.b < 0):
            continue
        em = mp.sqrt(e0 * e1)
        halves = [(p0, p1)] if p0 == p1 else [(p0, (p0 + p1) / 2), ((p0 + p1) / 2, p1)]
        boxes += [(*h, *es) for h in halves for es in ((e0, em), (em, e1))]
    return done


_TAILS = {"measure": _iv_measure_tail, "angle": _iv_angle_tail}

#: q - 1 where each bound falls (1e-6 rounded down) and where it rises: the
#: range of the former global scan, outside the minimizer's bracket [2.5, 6.5].
_FALLS = (mp.mpf(mp.iv.mpf("1e-6").a), mp.mpf(1.5))
_RISES = (mp.mpf(5.5), mp.mpf(10) ** 8)


@pytest.mark.parametrize("kind", ["measure", "angle"])
@pytest.mark.parametrize("sign,e_range", [(-1, _FALLS), (1, _RISES)], ids=["falls", "rises"])
def test_every_bound_falls_below_and_rises_above_the_bracket(kind, sign, e_range):
    # a proof over every pole: p in [0, 1] for the measure and limit kinds,
    # k in [0, 1] (p in [sqrt(2) - 1, 1]) for the angle kind
    poles = (mp.mpf(0), mp.mpf(1))
    assert _sign_certified(_TAILS[kind], sign, poles, e_range, max_boxes=20_000) is not None


@pytest.mark.parametrize(
    "kind,pole,q_range",
    [("measure", 0.5, (4, 5)), ("angle", 0.75, (3, 4))],  # k = 0.75 is p = 0.5
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
    pole = p if kind == "measure" else (1 - p * p) / (2 * p)
    e = mp.iv.mpf(q - 1)
    s = _iv_first_term(e) + _TAILS[kind](mp.iv.mpf(pole), e)
    assert abs(s.mid - exact) <= 1e-12 * (1 + abs(exact))
