"""Exact harmonic measure, the cotangent bound, the Monte Carlo oracle."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polebounds import (
    DomainError,
    ExcludedDisk,
    WosEstimate,
    arccot,
    check_distance_measure_bound,
    hm_halfplane,
    hm_omega1,
    in_omega1,
    measure_cot_bound,
    wos_harmonic_measure,
)

RNG = np.random.default_rng(7)


def rand_omega1_point(p, rng=RNG):
    disk = ExcludedDisk.from_pole(p)
    while True:
        z = complex(rng.uniform(-4, 4), rng.uniform(1e-3, 4))
        if abs(z + disk.center) - disk.radius > 1e-9:
            return z


# ------------------------------------------------------------------ half-plane


def test_right_angle_at_i():
    assert hm_halfplane(1j, -1.0, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_measure_vanishes_far_away():
    for scale in (1e3, 1e6, 1e9):
        w = hm_halfplane(complex(scale, scale), -1.0, 1.0)
        assert 0.0 < w < 2.0 / scale


def test_fixed_query_frozen_value():
    # value frozen from the subtended-angle computation; the Monte Carlo
    # cross-check of the same query runs in the acceptance suite
    assert hm_halfplane(2 + 2j, 1.0, 3.0) == pytest.approx(0.2951672353008666, abs=1e-14)


@given(
    st.floats(min_value=-5, max_value=5),
    st.floats(min_value=0.01, max_value=5),
    st.floats(min_value=-4, max_value=2),
    st.floats(min_value=0.01, max_value=3),
    st.floats(min_value=0.01, max_value=3),
)
@settings(max_examples=200)
def test_additivity_over_adjacent_segments(x, y, a, d1, d2):
    z = complex(x, y)
    b, c = a + d1, a + d1 + d2
    whole = hm_halfplane(z, a, c)
    parts = hm_halfplane(z, a, b) + hm_halfplane(z, b, c)
    assert whole == pytest.approx(parts, abs=1e-12)


def test_full_boundary_normalization():
    for z in (1j, 3 + 0.5j, -2 + 4j):
        r = 1e6 * (1 + abs(z))
        assert hm_halfplane(z, -r, r) >= 1.0 - 1e-3


def test_halfplane_domain_errors():
    with pytest.raises(DomainError):
        hm_halfplane(1 - 1j, 0.0, 1.0)
    with pytest.raises(DomainError):
        hm_halfplane(1j, 2.0, 1.0)


# ---------------------------------------------------------------------- omega1


def test_carleman_domain_extension():
    for _ in range(1000):
        p = RNG.uniform(0.05, 0.99)
        z = rand_omega1_point(p)
        a = math.exp(RNG.uniform(-2, 1))
        b = a * math.exp(RNG.uniform(0.01, 3))
        assert hm_omega1(z, a, b, p) <= hm_halfplane(z, a, b) + 1e-12


def test_upper_half_on_vertical_segment():
    for _ in range(300):
        p = RNG.uniform(0.05, 0.99)
        a = math.exp(RNG.uniform(-2, 1))
        b = a * math.exp(RNG.uniform(0.01, 4))
        y = RNG.uniform(a, b)
        assert hm_omega1(complex(0, y), a, b, p) <= 0.5 + 1e-12


def test_omega1_frozen_value():
    assert hm_omega1(2j, 1.0, 4.0, 0.5) == pytest.approx(0.18716704181099877, abs=1e-14)


@pytest.mark.parametrize(
    "z, a, b, p, expect",
    [
        (2j, 1.0, 4.0, 0.5, "0.18716704181099886"),
        (0.3 + 0.7j, 0.25, 3.0, 0.2, "0.3418066265007929"),
        (complex(-0.0, 1.5), 1.0, 2.0, 0.9, "0.10772879106635092"),
        (-1.5 + 2.5j, 0.5, 9.0, 0.6, "0.19285452085275911"),
    ],
)
def test_omega1_is_bit_identical_to_recorded_values(z, a, b, p, expect):
    # recorded when psi(z) - psi(a) became a product of differences; against 60-digit
    # mpmath each moved closer: 2.24e-16 -> 2.21e-16, 2.45e-16 -> 8.3e-17,
    # 3.84e-16 -> 2.7e-18 and 3.59e-16 -> 7.1e-17
    assert repr(hm_omega1(z, a, b, p)) == expect


def _mp_halfplane(z, a, b):
    z, a, b = mp.mpc(z), mp.mpf(a), mp.mpf(b)
    return (mp.arg(z - b) - mp.arg(z - a)) / mp.pi


def _mp_omega1(z, a, b, p):
    z, a, b, p = mp.mpc(z), mp.mpf(a), mp.mpf(b), mp.mpf(p)
    psi = lambda x: ((x + p) / (x + 1 / p)) ** 2
    return (mp.arg(psi(z) - psi(b)) - mp.arg(psi(z) - psi(a))) / mp.pi


#: Points from |z| = 1 to 1e300 in five directions, and segments from 1e-300 to 1e300 long.
_FAR_Z = [
    m * d
    for m in (1.0, 1e9, 1e16, 1e20, 1e100, 1e300)
    for d in (1 + 1j, 1j, -1 + 1j, 0.3 + 1j, 1 + 1e-3j)
]
_SEGMENTS = [
    (1.0, 2.0), (0.5, 9.0), (1e-300, 2e-300), (1.0, 1.0 + 2**-40), (1e300, 2e300), (1e-300, 1e300)
]


@pytest.mark.parametrize("a,b", _SEGMENTS)
def test_harmonic_measures_match_mpmath_far_from_the_segment(a, b):
    # within 1e-15 wherever the measure is a normal double, DomainError where it
    # underflows. The phase difference lost 11% at 1e15(1+i), and psi(z) rounded to 1
    # from |z| ~ 1e16 on; mpmath needs 700 digits, as psi(z) - 1 reaches 1e-300.
    with mp.workdps(700):
        for z in _FAR_Z:
            cases = [(hm_halfplane, (z, a, b), _mp_halfplane(z, a, b))]
            cases += [
                (hm_omega1, (z, a, b, p), _mp_omega1(z, a, b, p))
                for p in (0.1, 0.5, 0.9, 1e-6)
                if in_omega1(z, p)
            ]
            for fn, args, exact in cases:
                if exact < 1e-330:  # below half the least subnormal
                    with pytest.raises(DomainError, match="rounds to 0"):
                        fn(*args)
                elif exact > 1e-300:
                    assert abs(fn(*args) / exact - 1) <= 1e-15, (fn.__name__, args)


def test_omega1_rejects_outside_points():
    with pytest.raises(DomainError):
        hm_omega1(-1 + 0.1j, 1.0, 2.0, 0.5)  # inside the excluded disk's image
    with pytest.raises(DomainError):
        hm_omega1(1 - 1j, 1.0, 2.0, 0.5)


# -------------------------------------------------------------- cotangent bound


def test_cot_bound_collapses_as_p_to_one():
    q = 3.7
    assert measure_cot_bound(1 - 1e-9, q) == pytest.approx((q + 1) / (q - 1), rel=1e-12)


def test_cot_bound_independent_arithmetic():
    # granular evaluation of the closed form at p=1/2, q=4
    first = 5.0 / 3.0
    second = (0.75**2) * 17.0 / (2.0 * 0.5 * 3.0 * (4.0 * 0.5 * 2.0 + 5.0 * 1.25))
    assert measure_cot_bound(0.5, 4.0) == pytest.approx(first + second, abs=1e-15)
    assert measure_cot_bound(0.5, 4.0) == pytest.approx(1.9776422764227644, abs=1e-13)


def test_cot_bound_sandwiches_the_measure():
    # lower bound of the sandwich on a modest random grid (full version in acceptance)
    for _ in range(50):
        p = RNG.uniform(0.05, 0.99)
        a = math.exp(RNG.uniform(-2, 2))
        b = a * math.exp(RNG.uniform(0.05, math.log(100)))
        lo = arccot(measure_cot_bound(p, b / a)) / math.pi
        for frac in np.linspace(0.02, 0.98, 25):
            y = a * (b / a) ** frac
            w = hm_omega1(complex(0, y), a, b, p)
            assert lo - 1e-12 <= w <= 0.5 + 1e-12


def test_cot_bound_domain_errors():
    with pytest.raises(DomainError):
        measure_cot_bound(0.5, 1.0)
    with pytest.raises(DomainError):
        measure_cot_bound(1.2, 4.0)


def test_cot_bound_overflow_raises():
    # q * q overflows above ~1.3e154, and the bound came out nan
    assert math.isfinite(measure_cot_bound(0.5, 1e150))
    for q in (1e155, 1e308):
        with pytest.raises(DomainError, match="overflows"):
            measure_cot_bound(0.5, q)


# ------------------------------------------------------------- walk on spheres


def test_wos_degenerate_halfplane_target():
    est = wos_harmonic_measure(1j, -1.0, 1.0, p=1.0, n_walks=100_000, seed=11)
    assert est.n_capped == 0
    assert abs(est.mean - 0.5) <= 3.0 * est.stderr


def test_wos_agrees_with_exact_omega1():
    for seed in (1, 2, 3, 4, 5):
        p = RNG.uniform(0.2, 0.9)
        z = rand_omega1_point(p)
        a = math.exp(RNG.uniform(-1, 0.5))
        b = a * math.exp(RNG.uniform(0.3, 2))
        exact = hm_omega1(z, a, b, p)
        est = wos_harmonic_measure(z, a, b, p, n_walks=20_000, seed=seed)
        assert abs(est.mean - exact) <= 3.0 * max(est.stderr, 1e-4)


def test_wos_far_segment_scores_near_zero():
    est = wos_harmonic_measure(1j, 500.0, 501.0, p=0.5, n_walks=5_000, seed=3)
    assert est.mean < 0.005


def test_wos_reproducible_for_fixed_seed():
    kw = dict(z=2j, a=1.0, b=4.0, p=0.5, n_walks=5_000)
    e1 = wos_harmonic_measure(seed=99, **kw)
    e2 = wos_harmonic_measure(seed=99, **kw)
    e3 = wos_harmonic_measure(seed=100, **kw)
    assert e1 == e2
    assert e1.mean != e3.mean


def test_wos_point_disk_and_omega1_estimates_are_pinned():
    # p = 1 runs the Omega1 walk with the excluded disk shrunk to the point -1;
    # both estimates are the ones the separate half-plane walk gave
    assert wos_harmonic_measure(0.5 + 1j, -1.0, 2.0, p=1.0, n_walks=2000, seed=11) == (
        WosEstimate(mean=0.6205, stderr=0.010850800661702343, n_walks=2000, n_used=2000,
                    n_capped=0)
    )
    assert wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=2000, seed=5) == WosEstimate(
        mean=0.1765, stderr=0.008524897360085926, n_walks=2000, n_used=2000, n_capped=0
    )


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_wos_rejects_non_finite_eps(eps):
    # inf absorbed every walk where it started; nan never absorbed one
    with pytest.raises(DomainError, match="eps"):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, eps=eps)


@pytest.mark.parametrize(
    "z, p, eps", [(2j, 0.5, 1e300), (2j, 0.5, 1.7), (3j, 0.5, 2.5), (0.5 + 1j, 1.0, 1.0)]
)
def test_wos_rejects_eps_not_below_start_distance(z, p, eps):
    # such an eps absorbed every walk where it started, and the mean read 0
    with pytest.raises(DomainError, match="start's distance"):
        wos_harmonic_measure(z, 1.0, 4.0, p=p, n_walks=10, eps=eps)


def test_wos_accepts_eps_just_below_start_distance():
    # from 2j the nearest boundary point is on the excluded disk, 1.608 away
    est = wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, eps=1.6)
    assert est.n_used == 10


def _walk_indexed_wos(z, a, b, center, radius, n_walks, eps, seed):
    """The walk loop over a full walk-indexed array, as a reference."""
    rng = np.random.default_rng(seed)
    pts = np.full(n_walks, complex(z), dtype=np.complex128)
    active = np.arange(n_walks)
    hit = np.zeros(n_walks, dtype=bool)
    while active.size:
        cur = pts[active]
        dist = np.minimum(cur.imag, np.abs(cur + center) - radius)
        absorb = dist < eps
        done = active[absorb]
        x = pts[done].real
        hit[done] = (pts[done].imag <= np.abs(pts[done] + center) - radius) & (x >= a) & (x <= b)
        active, dist = active[~absorb], dist[~absorb]
        if active.size:
            pts[active] += dist * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, active.size))
    return int(hit.sum())


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_wos_matches_walk_indexed_reference(seed):
    rng = np.random.default_rng(seed)
    p = float(rng.uniform(0.1, 0.95))
    z = rand_omega1_point(p, rng)
    a = math.exp(rng.uniform(-1.0, 1.0))
    b = a * math.exp(rng.uniform(0.3, 3.0))
    disk = ExcludedDisk.from_pole(p)
    est = wos_harmonic_measure(z, a, b, p, n_walks=400, seed=seed)
    hits = _walk_indexed_wos(z, a, b, disk.center, disk.radius, 400, 1e-6, seed)
    assert est.n_capped == 0 and est.mean == hits / 400


def test_wos_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, seed=-1)


def test_wos_input_validation():
    with pytest.raises(DomainError):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=0)
    with pytest.raises(DomainError):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, eps=-1.0)
    with pytest.raises(DomainError):
        wos_harmonic_measure(-1 + 0.1j, 1.0, 4.0, p=0.5, n_walks=10)
    with pytest.raises(DomainError):
        wos_harmonic_measure(2j, -1.0, 4.0, p=0.5, n_walks=10)


def test_wos_rejects_more_walks_than_the_cap():
    # raised before any array is built; numpy could not allocate this many
    with pytest.raises(DomainError, match="at most"):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10**18)


def test_wos_walk_that_overflows_is_absorbed_as_a_miss():
    # the first step overflows to nan; the walk spun to the step cap, with
    # numpy RuntimeWarnings, and the estimate raised WalkCapError
    est = wos_harmonic_measure(1.7e308j, 0.5, 4.0, p=0.3, n_walks=1, seed=1)
    assert (est.mean, est.n_used, est.n_capped) == (0.0, 1, 0)


# -------------------------------------------------- distance vs measure bound


def test_distance_bound_halfplane_closed_form():
    chk = check_distance_measure_bound(-1.0, 1.0, 1j, d=1.0, w0=0.0)
    assert chk.measure == pytest.approx(0.5, abs=1e-15)
    assert chk.delta == pytest.approx(1.0)
    assert chk.bound == pytest.approx((1 + math.sqrt(2)) ** 2, rel=1e-12)
    assert chk.passed


def test_distance_bound_omega1_random_queries():
    for _ in range(200):
        p = RNG.uniform(0.1, 0.9)
        w = rand_omega1_point(p)
        a = math.exp(RNG.uniform(-1, 1))
        b = a * math.exp(RNG.uniform(0.1, 2))
        w0 = complex(0.5 * (a + b), 0.0)
        d = 0.5 * (b - a)
        chk = check_distance_measure_bound(a, b, w, d=d, w0=w0, p=p)
        assert chk.passed


def test_distance_bound_near_boundary_limit():
    for eps in (1e-1, 1e-3, 1e-5):
        chk = check_distance_measure_bound(1.0, 3.0, complex(2, eps), d=1.0, w0=2.0)
        assert chk.passed
        assert chk.measure > 0.9


def test_distance_bound_rejects_bad_setups():
    with pytest.raises(DomainError):
        # segment pokes out of B(w0, d)
        check_distance_measure_bound(-1.0, 5.0, 1j, d=1.0, w0=0.0)
    with pytest.raises(DomainError):
        # w0 inside the domain
        check_distance_measure_bound(-1.0, 1.0, 1j, d=2.0, w0=0.5j)
    with pytest.raises(DomainError):
        # w0 inside Omega1
        check_distance_measure_bound(1.0, 2.0, 1.5j, d=2.0, w0=1.5 + 1j, p=0.5)
    # nan gave bound=nan, passed=False; inf gave passed=True
    for d in (math.nan, math.inf, 0.0, -1.0):
        for p in (None, 0.5):
            with pytest.raises(DomainError, match="d must be positive and finite"):
                check_distance_measure_bound(1.0, 2.0, 1.5j, d=d, w0=1.5, p=p)


def test_distance_bound_domain_follows_p():
    # no p: the half-plane, where delta is Im w; with p: Omega1, where the
    # excluded circle is nearer than the real axis
    w = -0.3 + 0.5j
    half = check_distance_measure_bound(0.5, 1.0, w, d=0.25, w0=0.75)
    omega1 = check_distance_measure_bound(0.5, 1.0, w, d=0.25, w0=0.75, p=0.5)
    assert half.delta == w.imag
    assert half.measure == hm_halfplane(w, 0.5, 1.0)
    assert omega1.delta < w.imag
    assert omega1.measure == hm_omega1(w, 0.5, 1.0, 0.5)
