"""Quadrature of image-curve lengths and the built-in test families."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polebounds import (
    DomainError,
    PolylineArc,
    PoleProximityError,
    QuadratureError,
    TestFunction,
    image_curve_length,
    koebe_family,
    left_half_circle,
    lower_bound,
    mobius_family,
    polyline_image_length,
    segment_curve,
    verify_arc_inequality,
    verify_inequality,
    vertical_diameter,
)
from polebounds import lengths
from polebounds.lengths import _G7, _K15, _NODES, _conservative_verdict

RNG = np.random.default_rng(99)

IDENTITY = TestFunction(
    id="identity", evaluate=lambda z: z, derivative=lambda z: 1.0, pole=complex(5.0, 5.0)
)


def rand_disk(n, rmax=0.999):
    r = np.sqrt(RNG.uniform(0, 1, n)) * rmax
    th = RNG.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * th)


# ------------------------------------------------- closed-form circle oracle


def circumcenter(z1: complex, z2: complex, z3: complex) -> complex:
    ax, ay, bx, by, cx, cy = z1.real, z1.imag, z2.real, z2.imag, z3.real, z3.imag
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = (
        (ax * ax + ay * ay) * (by - cy)
        + (bx * bx + by * by) * (cy - ay)
        + (cx * cx + cy * cy) * (ay - by)
    ) / d
    uy = (
        (ax * ax + ay * ay) * (cx - bx)
        + (bx * bx + by * by) * (ax - cx)
        + (cx * cx + cy * cy) * (bx - ax)
    ) / d
    return complex(ux, uy)


def arc_length_through(z1: complex, zmid: complex, z3: complex) -> float:
    """Exact length of the circular arc from z1 to z3 passing through zmid."""
    c = circumcenter(z1, zmid, z3)
    r = abs(z1 - c)
    a1 = math.atan2((z1 - c).imag, (z1 - c).real)
    am = math.atan2((zmid - c).imag, (zmid - c).real)
    a3 = math.atan2((z3 - c).imag, (z3 - c).real)
    ccw = (a3 - a1) % (2 * math.pi)
    mid_rel = (am - a1) % (2 * math.pi)
    sweep = ccw if mid_rel <= ccw else 2 * math.pi - ccw
    return r * sweep


# ------------------------------------------------------------------ quadrature


def test_identity_lengths_of_reference_curves():
    li, ei = image_curve_length(IDENTITY, vertical_diameter())
    lt, et = image_curve_length(IDENTITY, left_half_circle())
    assert li == pytest.approx(2.0, abs=1e-9)
    assert lt == pytest.approx(math.pi, abs=1e-9)
    assert ei < 1e-9 and et < 1e-9


@pytest.mark.parametrize("p", [0.1, 0.35, 0.5, 0.8])
def test_mobius_image_lengths_match_circle_oracle(p):
    f = mobius_family(p)
    ev = f.evaluate
    li, _ = image_curve_length(f, vertical_diameter())
    exact_i = arc_length_through(ev(-1j), ev(0.0), ev(1j))
    assert li == pytest.approx(exact_i, rel=1e-8)
    lt, _ = image_curve_length(f, left_half_circle())
    exact_t = arc_length_through(ev(1j), ev(-1.0), ev(-1j))
    assert lt == pytest.approx(exact_t, rel=1e-8)


def test_quadrature_consistency_when_halving_tol():
    f = mobius_family(0.4)
    for curve in (vertical_diameter(), left_half_circle()):
        l1, e1 = image_curve_length(f, curve, tol=1e-7)
        l2, _ = image_curve_length(f, curve, tol=5e-8)
        assert abs(l1 - l2) < max(e1, 1e-15)


def test_pole_proximity_guard():
    f = mobius_family(1e-7)
    with pytest.raises(PoleProximityError):
        image_curve_length(f, vertical_diameter())
    g = mobius_family(0.5)
    with pytest.raises(PoleProximityError):
        image_curve_length(g, segment_curve(0.0, 0.5 + 1e-9j))


def test_depth_cap_raises_on_unresolvable_spike():
    # pole just past the proximity guard: len f(I1) is ~3.1e6, so the roundoff
    # floors of its panels alone exceed tol 1e-9 (the panel cap is not reached)
    from polebounds import QuadratureError

    f = mobius_family(complex(1.0000001e-6, 0.0))
    with pytest.raises(QuadratureError):
        image_curve_length(f, vertical_diameter())


def test_polyline_length_sums_segments():
    verts = (0.1 + 0.1j, -0.2 + 0.3j, -0.2 - 0.3j)
    total, err = polyline_image_length(IDENTITY, verts)
    expect = abs(verts[1] - verts[0]) + abs(verts[2] - verts[1])
    assert total == pytest.approx(expect, abs=1e-9)
    assert err < 1e-9


def test_constant_speed_polyline_is_one_array_call():
    # every segment starts as one panel, all evaluated together; a constant
    # integrand is resolved by the first round
    shapes = []

    def derivative(z):
        shapes.append(np.shape(z))
        return 1.0

    ident = TestFunction(id="identity", evaluate=lambda z: z, derivative=derivative, pole=5 + 5j)
    verts = tuple(complex(z) for z in 0.9 * rand_disk(11))
    total, err = polyline_image_length(ident, verts)
    assert shapes == [(10, 15)]
    assert total == pytest.approx(sum(abs(b - a) for a, b in zip(verts, verts[1:])), rel=1e-14)
    assert err <= 1e-9


def _counting(f):
    calls = []

    def derivative(z):
        calls.append(np.shape(z))
        return f.derivative(z)

    return TestFunction(id=f.id, evaluate=f.evaluate, derivative=derivative, pole=f.pole), calls


@pytest.mark.parametrize("p, tol, rounds", [(0.05, 1e-9, 1), (0.02, 1e-12, 2)])
def test_pole_depth_is_reached_in_few_rounds(p, tol, rounds):
    # the first panels are graded toward the pole (bisection took 7 and 10
    # rounds, quarter splits from one panel 4 and 6)
    f, calls = _counting(mobius_family(p))
    value, err = image_curve_length(f, vertical_diameter(), tol)
    assert len(calls) <= rounds
    exact = arc_length_through(f.evaluate(-1j), f.evaluate(0.0), f.evaluate(1j))
    assert value == pytest.approx(exact, rel=1e-12) and err <= tol


@st.composite
def polyline_and_pole(draw):
    n = draw(st.integers(2, 8))
    unit = st.floats(-0.65, 0.65)
    xs = sorted(set(draw(st.lists(unit, min_size=n, max_size=n))))
    assume(len(xs) >= 2)
    verts = tuple(complex(x, draw(unit)) for x in xs)  # x-monotone, so simple
    r = draw(st.floats(0.05, 0.95))
    pole = complex(r * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi))))
    assume(lengths._polyline_curve((verts,)).nearest(pole)[1].min() > 0.02)
    return verts, pole, draw(st.sampled_from([mobius_family, koebe_family]))


@settings(max_examples=60, deadline=None)
@given(polyline_and_pole(), st.sampled_from([1e-9, 1e-12]))
# a subnormal segment overflowed the first edge's quotient (a numpy RuntimeWarning)
@example(case=((0j, 2.2250738585e-313 + 0j), 0.5 + 0j, mobius_family), tol=1e-9)
def test_polyline_length_equals_sum_of_segment_lengths(case, tol):
    verts, pole, family = case
    f = family(pole)
    total, err = polyline_image_length(f, verts, tol)
    parts = [image_curve_length(f, segment_curve(a, b), tol) for a, b in zip(verts, verts[1:])]
    assert abs(total - sum(v for v, _ in parts)) <= err + sum(e for _, e in parts)
    assert err <= tol


def test_polyline_rejects_repeated_vertex():
    with pytest.raises(DomainError):
        polyline_image_length(IDENTITY, (0.1j, 0.2 + 0.1j, 0.2 + 0.1j, 0.5j))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: polyline_image_length(IDENTITY, (0.1j,)), "needs at least two vertices"),
        (lambda: polyline_image_length(IDENTITY, ((0.1j, 0.5j), (0.2,))), "at least two"),
        (lambda: segment_curve(0.3j, 0.3j), "consecutive vertices must be distinct"),
        (lambda: PolylineArc((0.1j,)), "needs at least two vertices"),
        (lambda: PolylineArc((0.1j, 0.1j)), "consecutive vertices must be distinct"),
    ],
)
def test_polylines_and_polyline_arcs_share_their_shape_rules(build, message):
    # one check, worded as the arc CLI prints it, serves curves and arcs alike
    with pytest.raises(DomainError, match=message):
        build()


def test_polyline_arc_reports_an_outside_vertex_before_a_repeat_and_after_a_count():
    with pytest.raises(DomainError, match="at least two"):
        PolylineArc((2.0,))
    with pytest.raises(DomainError, match="unit disk"):
        PolylineArc((0.5, 0.5, 2.0))


# ------------------------------------------------------ Gauss-Kronrod G7-K15


def _monomial_errors(weights):
    return [
        abs(weights @ _NODES**k - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) for k in range(25)
    ]


def test_kronrod_rule_has_degree_22_and_gauss_rule_degree_13():
    k15, g7 = _monomial_errors(_K15), _monomial_errors(_G7)
    assert max(k15[:23]) <= 4 * 2.0**-52 and k15[24] > 1e-9
    assert max(g7[:14]) <= 4 * 2.0**-52 and g7[14] > 1e-5
    assert np.count_nonzero(_G7) == 7


def exact_lengths(f, p):
    """Closed-form lengths of ``f(I1)`` and ``f(T-)`` for the built-in families."""
    if f.id == "koebe":
        return math.pi * p / (1 + p * p), 4 * p * p / ((1 + p * p) * (1 + p) ** 2)
    ev = f.evaluate
    return (
        arc_length_through(ev(-1j), ev(0.0), ev(1j)),
        arc_length_through(ev(1j), ev(-1.0), ev(-1j)),
    )


def test_error_estimate_covers_true_error_and_meets_tol():
    # mobius oracle: 40-digit circular arcs (the double-precision circumcenter
    # is 2.4e-15 off on T- at p = 0.99, above some error estimates)
    curves = (vertical_diameter(), left_half_circle())
    for p in np.geomspace(0.02, 0.99, 40):
        p = float(p)
        for f in (mobius_family(p), koebe_family(p)):
            if f.id == "koebe":
                exact = exact_lengths(f, p)
            else:
                with mp.workdps(40):
                    ev = lambda z: 1 / (mp.mpc(z) - p)
                    exact = [_mp_arc_length(ev(a), ev(m), ev(b)) for a, m, b in MP_ARCS]
            for tol in (1e-9, 1e-11, 1e-12):
                for curve, length in zip(curves, exact):
                    value, err = image_curve_length(f, curve, tol)
                    assert abs(value - length) <= err <= tol, (f.id, p, tol, curve.label)


# Independent 40-digit oracles: the koebe family's closed forms, and for the
# mobius family the circular-arc length chord * beta / sin(beta), where beta is
# half the arc's central angle, pi minus the inscribed angle at a third point.


def _mp_arc_length(a, m, b):
    """Length of the circular arc from ``a`` through ``m`` to ``b``."""
    beta = mp.pi - abs(mp.arg((a - m) / (b - m)))
    return abs(b - a) * beta / mp.sin(beta)


#: Start, a middle point and end of ``I1`` and ``T-``.
MP_ARCS = ((-1j, 0.0, 1j), (1j, -1.0, -1j))


@pytest.mark.parametrize("p", [0.01, 0.05, 0.3, 0.6, 0.9, 0.99])
def test_koebe_lengths_match_mpmath_closed_forms(p):
    with mp.workdps(40):
        P = mp.mpf(p)
        exact = {
            "I1": mp.pi * P / (1 + P * P),
            "T-": 2 * P / (1 + P * P) - 2 * P / (1 + P) ** 2,
        }
        for curve in (vertical_diameter(), left_half_circle()):
            value, err = image_curve_length(koebe_family(p), curve, tol=1e-12)
            assert abs(value - exact[curve.label]) <= err <= 1e-12, curve.label


@pytest.mark.parametrize("pole", [0.05, 0.5, 0.9, 0.3 + 0.4j, -0.2 - 0.5j])
def test_mobius_lengths_match_mpmath_circular_arcs(pole):
    curves = {
        "I1": (vertical_diameter(), (-1j, 0.0, 1j)),
        "T-": (left_half_circle(), (1j, -1.0, -1j)),
        "segment": (segment_curve(0.6 - 0.7j, -0.5 + 0.1j), (0.6 - 0.7j, 0.05 - 0.3j, -0.5 + 0.1j)),
    }
    with mp.workdps(40):
        ev = lambda z: 1 / (mp.mpc(z) - mp.mpc(pole))
        for label, (curve, (a, m, b)) in curves.items():
            exact = _mp_arc_length(ev(a), ev(m), ev(b))
            value, err = image_curve_length(mobius_family(pole), curve, tol=1e-12)
            assert abs(value - exact) <= err <= 1e-12, label


def test_koebe_t_minus_keeps_an_edge_at_minus_one():
    # koebe's f' vanishes at z = -1, so |f'| has a kink at t = pi: no first
    # panel may straddle it, or the error estimate misses the kink
    panels, counts = lengths._first_panels((left_half_circle(),), 0.033 + 0j, 1e-9)
    left, right = panels[:, 0] - panels[:, 1], panels[:, 0] + panels[:, 1]
    assert counts == [len(panels)]
    assert np.all((right <= math.pi + 1e-15) | (left >= math.pi - 1e-15))
    assert np.any(np.abs(right - math.pi) <= 1e-15)
    with mp.workdps(40):
        P = mp.mpf(0.033)
        exact = 2 * P / (1 + P * P) - 2 * P / (1 + P) ** 2
        value, err = image_curve_length(koebe_family(0.033), left_half_circle(), tol=1e-9)
        assert abs(value - exact) <= err <= 1e-9


def _star_polyline(rng, n):
    """A simple polyline from -i h to i h' through n - 2 vertices left of the axis."""
    h_lo, h_hi = rng.uniform(0.3, 0.8, 2)
    k = np.arange(n - 2)
    theta = 1.5 * np.pi - np.pi * (k + rng.uniform(0.1, 0.9, n - 2)) / (n - 2)
    r = 0.9 * rng.uniform(0.3, 0.95, n - 2)
    return (-1j * h_lo, *(complex(z) for z in r * np.exp(1j * theta)), 1j * h_hi)


def test_polyline_lengths_match_mpmath_circular_arcs():
    # seeded star polylines with the pole 0.05 to 0.2 from the nearest segment,
    # the clearances of the benchmark's arc instances; every segment's image is
    # a circular arc. Closer to a segment, the rounding of the curve points,
    # which the roundoff floor does not model, can push the true error past
    # err at tol 1e-12 (seen from 0.015) or stop the quadrature at its panel
    # cap (below ~0.01).
    rng = np.random.default_rng(20261018)
    checked = 0
    while checked < 240:
        verts = _star_polyline(rng, int(rng.integers(4, 33)))
        pole = complex(0.9 * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform()))
        if not 0.05 <= lengths._polyline_curve((verts,)).nearest(pole)[1].min() <= 0.2:
            continue
        with mp.workdps(30):
            s = mp.mpc(pole)
            ev = lambda z: 1 / (mp.mpc(z) - s)
            exact = sum(
                _mp_arc_length(ev(a), ev((mp.mpc(a) + mp.mpc(b)) / 2), ev(b))
                for a, b in zip(verts, verts[1:])
            )
            for tol in (1e-9, 1e-12):
                value, err = polyline_image_length(mobius_family(pole), verts, tol)
                assert abs(value - exact) <= err <= tol, (verts, pole, tol)
                checked += 1


@pytest.mark.parametrize("pole", [0.3 - 0.2j, -0.05 + 0.1j, 0.001 + 0.6j])
def test_first_panels_tile_each_piece_exactly(pole):
    # graded edges are snapped to a dyadic grid, so every panel's ends are
    # exact and meet its neighbours' ends: no gap or overlap near the pole
    polyline = lengths._polyline_curve([_star_polyline(np.random.default_rng(7), 40)])
    curves = (vertical_diameter(), polyline)
    panels, counts = lengths._first_panels(curves, pole, 1e-12)
    assert len(counts) == 2 and sum(counts) == len(panels) > 39 + 1
    left, right = panels[:, 0] - panels[:, 1], panels[:, 0] + panels[:, 1]
    first = 0
    for curve, count in zip(curves, counts):
        rows = slice(first, first + count)
        for k, (start, end) in enumerate(curve.pieces[:2].T):
            piece = np.flatnonzero(panels[rows, 4] == k) + first
            assert left[piece[0]] == start and right[piece[-1]] == end
            assert np.array_equal(right[piece[:-1]], left[piece[1:]])
        first += count


def test_a_check_makes_one_integrand_call_per_round():
    # I1 with T-, and a geodesic with its polyline, are one panel set: the
    # check takes as many rounds as its slower curve alone, and each length
    # equals the one computed alone
    for f in (mobius_family(0.02), koebe_family(0.3)):
        counted, calls = _counting(f)
        rep = verify_inequality(counted, f.pole.real, 1e-12)
        alone = []
        for curve in (vertical_diameter(), left_half_circle()):
            counted_alone, calls_alone = _counting(f)
            alone.append(image_curve_length(counted_alone, curve, 1e-12))
            alone.append(len(calls_alone))
        assert len(calls) == max(alone[1], alone[3])
        assert (rep.length_i1, rep.error_i1) == alone[0]
        assert (rep.length_tminus, rep.error_tminus) == alone[2]

    arc = PolylineArc((-0.6j, -0.5 - 0.3j, -0.55 + 0.35j, 0.7j))
    for pole in (0.3 + 0.05j, -0.8 + 0.1j):
        counted, calls = _counting(mobius_family(pole))
        rep = verify_arc_inequality(counted, arc, 1e-12)
        geodesic = (-0.6j, 0.7j)
        rounds = []
        for verts in (geodesic, arc.vertices):
            counted_alone, calls_alone = _counting(mobius_family(pole))
            polyline_image_length(counted_alone, verts, 1e-12)
            rounds.append(calls_alone)
        assert len(calls) == max(map(len, rounds))
        # the first call holds the first panels of both curves
        assert calls[0][0] == rounds[0][0][0] + rounds[1][0][0]


def test_tol_below_roundoff_raises():
    # len f(I1) ~ 155: its roundoff floor alone exceeds 1e-14
    with pytest.raises(QuadratureError):
        image_curve_length(mobius_family(0.02), vertical_diameter(), tol=1e-14)


def test_panel_cap_raises(monkeypatch):
    monkeypatch.setattr(lengths, "MAX_QUAD_PANELS", 8)
    with pytest.raises(QuadratureError):
        image_curve_length(mobius_family(0.02), vertical_diameter())


def test_conservative_verdict_accounts_for_errors():
    assert _conservative_verdict(1.0, 0.0, 1.0, 0.0, 1.0)
    assert not _conservative_verdict(1.0, 0.1, 1.0, 0.0, 1.05)
    assert not _conservative_verdict(1.0, 0.0, 1.0, 0.1, 1.05)
    assert not _conservative_verdict(1.0, 0.0, 1.0, 1.0, 1e300)


# -------------------------------------------------------------------- families


def test_mobius_family_injective_spot_check():
    f = mobius_family(0.3)
    zs = rand_disk(20_000)
    w = np.array([f.evaluate(complex(z)) for z in zs])
    for i in range(0, 20_000, 2):
        if zs[i] != zs[i + 1]:
            assert w[i] != w[i + 1]


def test_koebe_reciprocal_identity():
    # 1/k(z) - (z + 1/z) + p + 1/p == 0
    for p in (0.2, 0.5, 0.9):
        k = koebe_family(p).evaluate
        for z in rand_disk(1000):
            z = complex(z)
            if abs(z) < 1e-3 or abs(z - p) < 1e-3:
                continue
            resid = 1.0 / k(z) - (z + 1.0 / z) + p + 1.0 / p
            assert abs(resid) < 1e-12 * (1 + abs(1 / z))


def test_koebe_family_injective_spot_check():
    k = koebe_family(0.6)
    zs = rand_disk(20_000)
    for i in range(0, 20_000, 2):
        z1, z2 = complex(zs[i]), complex(zs[i + 1])
        if abs(z1 - 0.6) < 1e-3 or abs(z2 - 0.6) < 1e-3 or z1 == z2:
            continue
        assert k.evaluate(z1) != k.evaluate(z2)


@pytest.mark.parametrize("family", [mobius_family, koebe_family])
def test_derivative_matches_finite_differences(family):
    f = family(0.45)
    h = 1e-6
    for z in rand_disk(200, rmax=0.95):
        z = complex(z)
        if abs(z - 0.45) < 1e-2 or abs(abs(z) - 1) < 2 * h:
            continue
        fd = (f.evaluate(z + h) - f.evaluate(z - h)) / (2 * h)
        fd += (f.evaluate(z + 1j * h) - f.evaluate(z - 1j * h)) / (2j * h)
        assert abs(fd / 2 - f.derivative(z)) <= 1e-6 * max(1.0, abs(f.derivative(z)))


def test_pole_blows_up():
    for fam in (mobius_family, koebe_family):
        f = fam(0.5)
        mags = [abs(f.evaluate(0.5 + 10.0 ** (-k))) for k in (2, 4, 6)]
        assert mags == sorted(mags)
        assert mags[-1] > 1e5


def test_family_pole_validation():
    with pytest.raises(DomainError):
        mobius_family(1.2)
    with pytest.raises(DomainError):
        koebe_family(0.0)
    # nan passed the mobius check, and abs() raised OverflowError on both
    for family in (mobius_family, koebe_family):
        for pole in (math.nan, complex(0.5, math.inf), 1.7e308 + 1.7e308j):
            with pytest.raises(DomainError):
                family(pole)


# ---------------------------------------------------------------- verification


def test_verify_inequality_mobius():
    rep = verify_inequality(mobius_family(0.5), 0.5)
    assert rep.passed
    assert rep.ratio == rep.length_i1 / rep.length_tminus
    assert (rep.length_i1 + rep.error_i1) / (rep.length_tminus - rep.error_tminus) <= rep.bound.value
    assert rep.bound.kind == "measure"


def test_verify_inequality_koebe():
    rep = verify_inequality(koebe_family(0.3), 0.3)
    assert rep.passed


def test_koebe_ratio_attains_lower_bound():
    # the Joukowski-type family realizes the lower bound exactly:
    # image of I1 is a full circle of diameter 1/(p + 1/p), image of T- a
    # doubly-traversed real segment
    for p in (0.15, 0.5, 0.85):
        rep = verify_inequality(koebe_family(p), p, tol=1e-10)
        c = p + 1.0 / p
        exact = (math.pi / c) / (2.0 * (1.0 / c - 1.0 / (2.0 + c)))
        assert rep.ratio == pytest.approx(exact, rel=1e-9)
        assert exact == pytest.approx(lower_bound(p), rel=1e-13)


def test_mobius_ratio_matches_closed_form_ratio():
    for p in (0.2, 0.5, 0.7):
        f = mobius_family(p)
        rep = verify_inequality(f, p)
        ev = f.evaluate
        exact = arc_length_through(ev(-1j), ev(0.0), ev(1j)) / arc_length_through(
            ev(1j), ev(-1.0), ev(-1j)
        )
        assert rep.ratio == pytest.approx(exact, rel=1e-8)


def test_verify_rejects_mismatched_pole():
    with pytest.raises(DomainError):
        verify_inequality(mobius_family(0.4), 0.5)
