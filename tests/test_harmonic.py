"""Exact harmonic measure, the cotangent bound, the Monte Carlo oracle."""

import cmath
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polebounds import (
    DomainError,
    PoleBoundsError,
    ExcludedDisk,
    WalkCapError,
    WosEstimate,
    arccot,
    check_distance_measure_bound,
    hm_halfplane,
    hm_omega1,
    in_omega1,
    measure_cot_bound,
    wos_harmonic_measure,
)
from polebounds import harmonic
from polebounds.harmonic import _wos_jump

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
    # a quarter of Im z rounds to 0 next to inputs beyond 2**1020
    with pytest.raises(DomainError, match="rounds to 0 or pi"):
        hm_halfplane(complex(0, 5e-324), -1e308, 1e308)


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


def _seeded_omega1_queries(per_kind=20, seed=20261021):
    """Seeded ``(z, a, b, p)`` in Omega1, each with its own segment in [1e-3, 1e6].

    ``per_kind`` of each: ``|z|`` from 1e3 to 1e300 with ``p`` from 1e-9 to
    0.99; ``z`` next to either endpoint, 1e-10 to 1 of it away; and ``z`` in
    the box of ``rand_omega1_point`` beside a pole from 1e-9 to 1e-6.
    """
    rng = np.random.default_rng(seed)
    kinds = [[], [], []]
    while min(map(len, kinds)) < per_kind:
        a = 10 ** rng.uniform(-3, 3)
        b = a * (1 + 10 ** rng.uniform(-6, 3))
        p = 0.99 * 10 ** rng.uniform(-9, 0)
        x = (a, b)[len(kinds[1]) % 2]
        side = cmath.rect(10 ** rng.uniform(-10, 0), rng.uniform(0, math.pi))
        tiny = 10 ** rng.uniform(-9, -6)
        drawn = (
            (cmath.rect(10 ** rng.uniform(3, 300), rng.uniform(0, math.pi)), a, b, p),
            (x + x * side, a, b, p),
            (complex(rng.uniform(-4, 4), rng.uniform(1e-3, 4)), a, b, tiny),
        )
        for kind, query in zip(kinds, drawn):
            if len(kind) < per_kind and in_omega1(query[0], query[3]):
                kind.append(query)
    return [query for kind in kinds for query in kind]


#: Omega1 query sets and their relative error bounds; ``small_poles`` is 2i above
#: poles that the cancelling Omega1 gap put outside Omega1.
_OMEGA1_QUERIES = {
    "seeded": (_seeded_omega1_queries(), 1.5e-15),
    "small_poles": (
        [
            (2j, a, b, p)
            for p in (1e-10, 1e-30, 1e-60, 1e-100)
            for a, b in ((1.0, 2.0), (1.0, 4.0), (0.5, 4.0), (0.1, 10.0))
        ],
        1e-15,
    ),
}


@pytest.mark.parametrize(
    "a,b", _SEGMENTS + [pytest.param(name, None, id=name) for name in _OMEGA1_QUERIES]
)
def test_harmonic_measures_match_mpmath_far_from_the_segment(a, b):
    # within 1e-15 wherever the measure is a normal double, DomainError where it
    # underflows. The phase difference lost 11% at 1e15(1+i), and psi(z) rounded to 1
    # from |z| ~ 1e16 on; mpmath needs 800 digits, as psi(z) - 1 reaches 1e-300.
    # The seeded Omega1 queries hold within 1.5e-15, with one form of psi(z) - psi(x)
    # from next to an endpoint out to 1e300. The small poles raised "z must lie in Omega1".
    with mp.workdps(800):
        if b is None:
            queries, bound = _OMEGA1_QUERIES[a]
            cases = [(hm_omega1, q, _mp_omega1(*q), bound) for q in queries]
        else:
            cases = [(hm_halfplane, (z, a, b), _mp_halfplane(z, a, b), 1e-15) for z in _FAR_Z]
            cases += [
                (hm_omega1, (z, a, b, p), _mp_omega1(z, a, b, p), 1e-15)
                for z in _FAR_Z
                for p in (0.1, 0.5, 0.9, 1e-6)
                if in_omega1(z, p)
            ]
        for fn, args, exact, bound in cases:
            if exact < 1e-330:  # below half the least subnormal
                with pytest.raises(DomainError, match="rounds to 0"):
                    fn(*args)
            elif exact > 1e-300:
                assert abs(fn(*args) / exact - 1) <= bound, (fn.__name__, args)


def test_omega1_rejects_outside_points():
    with pytest.raises(DomainError):
        hm_omega1(-1 + 0.1j, 1.0, 2.0, 0.5)  # inside the excluded disk's image
    with pytest.raises(DomainError):
        hm_omega1(1 - 1j, 1.0, 2.0, 0.5)
    # inside Omega1, but psi(z) - psi(a) rounds to 0 one subnormal above the endpoint
    with pytest.raises(DomainError, match="too close to an endpoint"):
        hm_omega1(1 + 5e-324j, 1.0, 2.0, 0.5)


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
    # the seed fixes each step's uniform u, whose direction is 2 pi (u - 1/2)
    # through the tangent half-angle map (exact 0.62567 and 0.18717)
    assert wos_harmonic_measure(0.5 + 1j, -1.0, 2.0, p=1.0, n_walks=2000, seed=11) == (
        WosEstimate(mean=0.6375, stderr=0.010749273231246846, n_walks=2000, n_used=2000,
                    n_capped=0)
    )
    assert wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=2000, seed=5) == WosEstimate(
        mean=0.1745, stderr=0.008486747021091178, n_walks=2000, n_used=2000, n_capped=0
    )


@pytest.mark.parametrize(
    "cap, n_used, mean, stderr",
    [
        (10, 168, 0.20833333333333334, 0.03133256289157491),
        (30, 1428, 0.18627450980392157, 0.010302712269732974),
        (60, 1971, 0.17554540842212074, 0.00856909180427495),
    ],
)
def test_wos_partly_capped_estimates_are_pinned(monkeypatch, cap, n_used, mean, stderr):
    # walks still live at the cap are discarded, never scored: each mean counts the
    # hits of the absorbed walks only, over n_used
    monkeypatch.setattr(harmonic, "WOS_STEP_CAP", cap)
    assert wos_harmonic_measure(2j, 1.0, 4.0, 0.5, n_walks=2000, seed=5) == WosEstimate(
        mean=mean, stderr=stderr, n_walks=2000, n_used=n_used, n_capped=2000 - n_used
    )


def test_wos_exact_gap_estimate_with_capped_walks_is_pinned(monkeypatch):
    # at p = 1e-12 the steps take the exact gap to the excluded circle
    monkeypatch.setattr(harmonic, "WOS_STEP_CAP", 40)
    est = wos_harmonic_measure(0.3 + 0.5j, 0.5, 2.0, 1e-12, n_walks=500, eps=1e-7, seed=5)
    assert est == WosEstimate(
        mean=0.18444444444444444, stderr=0.01828324620811965, n_walks=500, n_used=450,
        n_capped=50,
    )


def test_wos_pinned_estimates_hold_under_masked_dispatch(run_masked, monkeypatch):
    # (z, a, b, p, n_walks, eps, seed, step cap) of the three pinned estimates above
    runs = [
        (0.5 + 1j, -1.0, 2.0, 1.0, 2000, 1e-6, 11, 10**6),
        (2j, 1.0, 4.0, 0.5, 2000, 1e-6, 5, 10**6),
        (0.3 + 0.5j, 0.5, 2.0, 1e-12, 500, 1e-7, 5, 40),
    ]
    code = (
        "import ast, sys\nfrom polebounds import harmonic\n"
        "for *args, cap in ast.literal_eval(sys.stdin.read()):\n"
        "    harmonic.WOS_STEP_CAP = cap\n"
        "    print(repr(harmonic.wos_harmonic_measure(*args)))"
    )
    expected = ""
    for *args, cap in runs:
        monkeypatch.setattr(harmonic, "WOS_STEP_CAP", cap)
        expected += f"{harmonic.wos_harmonic_measure(*args)!r}\n"
    assert run_masked(code, stdin=repr(runs)) == expected


def test_wos_memory_per_walk_stays_bounded():
    # about 66 bytes per walk: the points, their distances and one step's draws; a
    # list of absorbed walks that held a view of the first points array read 82
    tracemalloc.start()
    try:
        wos_harmonic_measure(2j, 1.0, 4.0, 0.5, n_walks=200_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 200_000 <= 70.0


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


def test_wos_jump_lands_on_its_circle_at_a_uniform_angle():
    n = 100_000
    dist = np.geomspace(1e-7, 1e3, n)
    step = _wos_jump(np.random.default_rng(2026), dist)
    assert np.all(np.abs(np.abs(step) - dist) <= 4.0 * np.spacing(dist))
    # Kolmogorov-Smirnov against the uniform angle; 1.9495 / sqrt(n) is the
    # asymptotic critical value at level 0.1%
    u = np.sort(np.angle(step)) / (2.0 * math.pi) + 0.5
    ranks = np.arange(1, n + 1) / n
    ks = max(np.max(ranks - u), np.max(u - (ranks - 1.0 / n)))
    assert ks < 1.9495 / math.sqrt(n)


@pytest.mark.parametrize("u", [0.0, 1.0 - 2.0**-53])
def test_wos_jump_at_the_ends_of_the_uniform_range_is_finite(u):
    # tan(pi (u - 1/2)) is -1.6e16 and 2.0e15 there, so v^2 reaches 2.7e32; the
    # unit vector is formed before dist scales it, so even dist = 1e-300 keeps
    # its length, and nothing overflows, underflows to 0 or warns
    class Ends:
        def random(self, size):
            return np.full(size, u)

    dist = np.array([1e-300, 1e-6, 1.0, 1e300])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        step = _wos_jump(Ends(), dist)
    assert np.all(np.isfinite(step))
    assert np.all(np.abs(np.abs(step) - dist) <= 4.0 * np.spacing(dist))


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
            # dist * e^{2i theta}, theta = pi (u - 1/2), through v = tan(theta)
            v = np.tan((rng.random(active.size) - 0.5) * math.pi)
            t = v * v
            pts[active] += (1.0 - t) / (1.0 + t) * dist + 1j * ((v + v) / (1.0 + t) * dist)
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


def test_wos_draws_one_uniform_per_live_walk_per_step(monkeypatch):
    # the reference draws rng.random(number of live walks) at each step; a
    # generator with no other method would raise on any other draw
    class Counting:
        def __init__(self, seed):
            self.rng, self.sizes = default_rng(seed), []

        def random(self, size):
            self.sizes.append(size)
            return self.rng.random(size)

    default_rng, made = np.random.default_rng, []

    def counting_rng(seed):
        made.append(Counting(seed))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    disk = ExcludedDisk.from_pole(0.5)
    est = wos_harmonic_measure(2j, 1.0, 4.0, 0.5, n_walks=300, seed=8)
    hits = _walk_indexed_wos(2j, 1.0, 4.0, disk.center, disk.radius, 300, 1e-6, 8)
    lockstep, reference = made
    assert est.mean == hits / 300
    assert lockstep.sizes == reference.sizes
    assert lockstep.sizes[0] == 300 and len(lockstep.sizes) > 10


def test_wos_rejects_negative_seed():
    with pytest.raises(DomainError, match="seed"):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, seed=-1)


def test_wos_input_validation():
    with pytest.raises(DomainError):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=0)
    with pytest.raises(DomainError):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, eps=-1.0)
    with pytest.raises(DomainError, match="z must lie in Omega1"):
        wos_harmonic_measure(-1 + 0.1j, 1.0, 4.0, p=0.5, n_walks=10)
    # on the excluded circle: the start distance is exactly 0.0
    with pytest.raises(DomainError, match="z must lie in Omega1"):
        wos_harmonic_measure(-1.25 + 0.75j, 1.0, 4.0, p=0.5, n_walks=10)
    with pytest.raises(DomainError):
        wos_harmonic_measure(2j, -1.0, 4.0, p=0.5, n_walks=10)
    with pytest.raises(DomainError, match="need a < b"):
        wos_harmonic_measure(1j, 2.0, 1.0, 0.5, n_walks=10)
    with pytest.raises(DomainError, match="z must lie in the open upper half-plane"):
        wos_harmonic_measure(-1j, 0.0, 1.0, 1.0, n_walks=10)
    # at p = 1 the point disk -1 is never nearer than the axis; its gap at z = -1 divides by 0
    with pytest.raises(DomainError, match="^z must lie in the open upper half-plane$"):
        wos_harmonic_measure(-1 + 0j, -1.0, 1.0, 1.0, n_walks=10)
    # numpy raised a bare TypeError for a non-integer count or seed
    with pytest.raises(DomainError, match="n_walks must be an integer"):
        wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=2.5)
    for seed in (1.5, -0.5):
        with pytest.raises(DomainError, match="seed must be an integer"):
            wos_harmonic_measure(2j, 1.0, 4.0, p=0.5, n_walks=10, seed=seed)


@pytest.mark.parametrize("p", [1e-310, 5e-324])
def test_pole_whose_inverse_overflows_raises(p):
    # both called 2i outside Omega1; a nan start gap would also pass the walk's
    # one start test, as min(Im z, nan) is Im z
    with pytest.raises(DomainError, match="overflows"):
        hm_omega1(2j, 1.0, 4.0, p)
    with pytest.raises(DomainError, match="overflows"):
        wos_harmonic_measure(2j, 1.0, 4.0, p, n_walks=10)


@pytest.mark.parametrize("z", [-1j, 0j])
@pytest.mark.parametrize("p", [2.0, math.nan])
def test_pole_off_the_unit_interval_is_named_below_the_axis(z, p):
    # hm_omega1 said "z must lie in Omega1" here, where the walk named p
    message = r"^p must lie in the open interval \(0, 1\)"
    with pytest.raises(DomainError, match=message):
        hm_omega1(z, 1.0, 4.0, p)
    with pytest.raises(DomainError, match=message):
        wos_harmonic_measure(z, 1.0, 4.0, p, n_walks=10)


def test_wos_starts_above_a_small_pole(monkeypatch):
    # the cancelling Omega1 gap put this start outside Omega1
    est = wos_harmonic_measure(1e-5 + 2j, 1.0, 4.0, 1e-12, n_walks=2000, eps=1e-7, seed=5)
    assert est.n_used == 2000
    # the measure here is 1.9e-6, so the mean is 0 either way; but |z + c| - r read 0
    # at the first step and absorbed every walk there, where the exact gap of 1e-5 keeps
    # each walk going
    monkeypatch.setattr(harmonic, "WOS_STEP_CAP", 1)
    with pytest.raises(WalkCapError):
        wos_harmonic_measure(1e-5 + 2j, 1.0, 4.0, 1e-12, n_walks=2000, eps=1e-7, seed=5)


@pytest.mark.parametrize("p", [1e-12, 1e-16, 1e-100])
def test_wos_steps_resolve_the_circle_at_small_poles(p):
    # from p = 1e-16 on, the steps' |z + c| - r read 0 at 0.3 + 0.5i: each walk was
    # absorbed at its first step, and the estimate read 0.0 with stderr 0.0
    est = wos_harmonic_measure(0.3 + 0.5j, 0.5, 2.0, p, n_walks=2000, eps=1e-7, seed=5)
    assert est.stderr > 0
    assert abs(est.mean - hm_omega1(0.3 + 0.5j, 0.5, 2.0, p)) <= 4 * est.stderr


def test_wos_start_and_in_omega1_agree_on_membership(omega1_points, monkeypatch):
    # only the start test is checked here, so each walk stops after its first step
    monkeypatch.setattr(harmonic, "WOS_STEP_CAP", 1)
    for z, p, member, clear in omega1_points:
        if member and not clear:
            continue
        try:
            wos_harmonic_measure(z, 1.0, 4.0, p, n_walks=1, eps=1e-7)
            started = True
        except WalkCapError:  # started, and still walking after its one step
            started = True
        except DomainError as err:
            assert str(err) == "z must lie in Omega1", (z, p)
            started = False
        assert started == in_omega1(z, p), (z, p)


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
    with pytest.raises(DomainError, match="need a < b"):
        check_distance_measure_bound(2.0, 1.0, 1j, 1.0, 0j)
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


# ------------------------------------------------------------- input contract

#: One strategy for every argument: nan, infinities, extremes, plain values that
#: reach the formulas, complex numbers, strings, None and lists
ANY_ARG = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0, 4.0, 2j, 0.5 + 1j, 1e-12, 0.999, -1.0]),
    st.floats(),
    st.sampled_from([0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.integers(-(2**70), 2**70),
    st.complex_numbers(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.floats(0.1, 2.0), max_size=2),
)


@pytest.mark.parametrize(
    "func, args",
    [
        (hm_halfplane, [ANY_ARG] * 3),
        (hm_omega1, [ANY_ARG] * 4),
        (wos_harmonic_measure, [ANY_ARG] * 4 + [st.integers(1, 20), ANY_ARG, ANY_ARG]),
        (measure_cot_bound, [ANY_ARG] * 2),
        (check_distance_measure_bound, [ANY_ARG] * 6),
    ],
    ids=lambda v: getattr(v, "__name__", ""),
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_public_functions_return_or_raise_a_package_error(func, args, data):
    # a complex p, a or eps, a string or None raised a bare TypeError from a comparison
    drawn = data.draw(st.tuples(*args))
    try:
        func(*drawn)
    except PoleBoundsError:
        pass


def test_distance_bound_beyond_the_double_is_infinite():
    # the measure of [1e200, 2e200] from i is 1.6e-201: tan^2 underflowed to 0, and
    # the bound raised ZeroDivisionError
    chk = check_distance_measure_bound(1e200, 2e200, 1j, d=1e200, w0=1.5e200)
    assert (chk.bound, chk.passed) == (math.inf, True)
    assert 0.0 < chk.measure < 1e-200


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda v: wos_harmonic_measure(2j, 1.0, 4.0, v, n_walks=10), "p"),
        (lambda v: wos_harmonic_measure(2j, v, 4.0, 0.5, n_walks=10), "a"),
        (lambda v: wos_harmonic_measure(2j, 1.0, 4.0, 0.5, n_walks=10, eps=v), "eps"),
        (lambda v: hm_omega1(2j, 1.0, 4.0, v), "p"),
        (lambda v: hm_omega1(2j, v, 4.0, 0.5), "a"),
        (lambda v: hm_halfplane(2j, v, 4.0), "a"),
        (lambda v: measure_cot_bound(v, 4.0), "p"),
    ],
)
@pytest.mark.parametrize("value", [0.5 + 0j, 1 + 0j, "0.5", None])
def test_non_real_arguments_are_named(call, name, value):
    # each raised a bare TypeError from a comparison, or ran the half-plane walk at
    # p = 1 + 0j; float() would parse the string
    with pytest.raises(DomainError, match=f"^{name} must be"):
        call(value)
