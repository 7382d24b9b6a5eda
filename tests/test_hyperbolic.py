"""Distances, the excluded disk and its geodesic, domain predicates, and disk nesting."""

import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polebounds import (
    DomainError,
    ExcludedDisk,
    alpha_from_p,
    cayley,
    disk_nesting,
    hyp_dist_disk,
    hyp_dist_to_vertical_segment,
    in_omega,
    in_omega1,
    vertical_translation,
)

RNG = np.random.default_rng(42)


def rand_disk(n, rmax=0.999):
    r = np.sqrt(RNG.uniform(0, 1, n)) * rmax
    th = RNG.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * th)


# -------------------------------------------------------------------- distance


def test_distance_from_origin_is_artanh():
    for x in np.linspace(0.0, 0.99, 34):
        assert hyp_dist_disk(0.0, complex(x, 0)) == pytest.approx(math.atanh(x), abs=1e-15)


def test_pole_is_hyperbolic_midpoint():
    for p in np.linspace(0.05, 0.95, 19):
        a = alpha_from_p(p)
        assert hyp_dist_disk(0.0, p) == pytest.approx(hyp_dist_disk(p, a), abs=1e-12)


def test_moebius_invariance_of_distance():
    for _ in range(300):
        z, w = (complex(v) for v in rand_disk(2))
        a = RNG.uniform(-0.95, 0.95)
        tz = vertical_translation(z, a)
        tw = vertical_translation(w, a)
        assert hyp_dist_disk(tz, tw) == pytest.approx(hyp_dist_disk(z, w), abs=1e-11, rel=1e-11)


def test_triangle_inequality():
    for _ in range(500):
        a, b, c = (complex(v) for v in rand_disk(3))
        assert hyp_dist_disk(a, c) <= hyp_dist_disk(a, b) + hyp_dist_disk(b, c) + 1e-12


def test_distance_symmetry_and_zero():
    z, w = 0.3 + 0.2j, -0.1 + 0.7j
    assert hyp_dist_disk(z, w) == hyp_dist_disk(w, z)
    assert hyp_dist_disk(z, z) == 0.0


@pytest.mark.parametrize("bad", [1.0 + 0j, 2j, -1.5])
def test_distance_rejects_points_outside_disk(bad):
    with pytest.raises(DomainError):
        hyp_dist_disk(bad, 0.0)


def test_distance_saturates_to_inf_at_double_resolution():
    # both points representable inside the disk, but the ratio rounds to 1
    s = 1 - 1e-13
    assert hyp_dist_disk(s, s * 1j) == math.inf
    # one point deep inside: still finite
    assert hyp_dist_disk(0.0, s) == pytest.approx(math.atanh(s))


def test_cayley_is_isometry_via_pullback():
    # d_D(z, w) equals the half-plane distance of the images, computed by
    # pulling the image pair back through the (involutive) map itself.
    for _ in range(200):
        z, w = (complex(v) for v in rand_disk(2, rmax=0.99))
        gz, gw = cayley(z), cayley(w)
        back = hyp_dist_disk(cayley(gz), cayley(gw))
        assert back == pytest.approx(hyp_dist_disk(z, w), abs=1e-10, rel=1e-10)


# ------------------------------------------------------------------- geodesics


@pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_excluded_disk_circle_shape(p):
    d = ExcludedDisk.from_pole(p)
    a = alpha_from_p(p)
    h = math.sqrt(1 - a * a)
    # p lies on the circle; the circle is orthogonal to the unit circle
    assert abs(d.boundary_gap(complex(p, 0))) < 1e-12
    assert d.center**2 - d.radius**2 == pytest.approx(1.0, abs=1e-12)
    # it meets the unit circle at the ideal endpoints alpha +- i sqrt(1 - alpha^2)
    for e in (complex(a, h), complex(a, -h)):
        assert abs(abs(e) - 1.0) < 1e-14
        assert abs(d.boundary_gap(e)) < 1e-14


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
def test_halfplane_geodesic_endpoints_and_cayley_image(p):
    # the Cayley image of the circle has center -c and radius r, and meets the
    # real axis at -p and -1/p
    d = ExcludedDisk.from_pole(p)
    ends = (-d.center + d.radius, -d.center - d.radius)
    assert abs(ends[0] - (-p)) < 1e-14
    assert abs(ends[1] - (-1.0 / p)) < 1e-13
    assert ends[0] * ends[1] == pytest.approx(1.0, rel=1e-13)
    for theta in np.linspace(-1.2, 1.2, 50):
        z = d.center + d.radius * cmath.exp(1j * theta)
        if abs(z) >= 1.0:
            continue
        w = cayley(z)
        assert abs(abs(w + d.center) - d.radius) < 1e-10


def test_excluded_disk_invariants():
    for p in (0.1, 0.5, 0.9):
        d = ExcludedDisk.from_pole(p)
        assert abs(d.boundary_gap(complex(p, 0))) < 1e-12  # p on the boundary circle
        assert d.center > d.radius  # disjoint from the closed left half-disk


@pytest.mark.parametrize("p", [1e-9, 1e-7])
def test_boundary_gap_matches_mpmath_at_small_p(p):
    # |z - c| - r cancelled, with c and r both about 1/(2p): the gap of 0.5i
    # read 0.0 at p = 1e-9, so in_omega called it a boundary point, and it
    # was 1.6e-3 off, relative, at p = 1e-7
    d = ExcludedDisk.from_pole(p)
    with mpmath.workdps(60):  # the reference cancels 18 digits at p = 1e-9
        P = mpmath.mpf(p)
        center, radius = (1 + P * P) / (2 * P), (1 - P * P) / (2 * P)
        for z in (0.5j, 0.3 + 0.4j, -0.9 + 0j, complex(2 * p, p), complex(p, 0.0)):
            exact = abs(mpmath.mpc(z) - center) - radius
            assert abs(d.boundary_gap(z) - exact) <= 4e-16 * abs(exact), z
    assert in_omega(0.5j, p)
    assert not in_omega(complex(p, 0.0), p)


@pytest.mark.parametrize("p", [1e-310, 5e-324])
def test_excluded_disk_of_a_pole_whose_inverse_overflows_raises(p):
    # center and radius were inf, so the gap was nan and 0.5i read as outside Omega
    for call in (ExcludedDisk.from_pole, lambda p: in_omega(0.5j, p), lambda p: in_omega1(1j, p)):
        with pytest.raises(DomainError, match="overflows"):
            call(p)


@pytest.mark.parametrize("z", [-1j, 0j, 2 - 0.5j])
@pytest.mark.parametrize("p", [2.0, 0.0, math.nan])
def test_omega1_membership_checks_the_pole_below_the_axis(z, p):
    # below the axis the half-plane test returned False before the pole was read
    for call in (in_omega, in_omega1):
        with pytest.raises(DomainError, match=r"^p must lie in the open interval \(0, 1\)"):
            call(z, p)


def test_excluded_disk_at_the_least_pole_with_finite_inverse():
    p = 5.56268464626801e-309  # the next double down has 1/p = inf
    assert math.isfinite(1.0 / p) and not math.isfinite(1.0 / math.nextafter(p, 0.0))
    assert in_omega(0.5j, p)


# ------------------------------------------------------------------ membership


@pytest.mark.parametrize("p", [0.05, 0.3, 0.6, 0.95])
def test_origin_and_i_memberships(p):
    assert in_omega(0.0, p)
    assert in_omega1(1j, p)
    assert not in_omega(complex(p, 0), p)  # boundary point
    assert abs(ExcludedDisk.from_pole(p).boundary_gap(complex(p, 0))) <= 1e-10


def test_omega1_is_cayley_image_of_omega():
    p = 0.45
    disk = ExcludedDisk.from_pole(p)
    pts = rand_disk(1000, rmax=0.995)
    pts = pts[np.abs(np.abs(pts - disk.center) - disk.radius) > 1e-9]
    for z in pts:
        z = complex(z)
        assert in_omega(z, p) == in_omega1(cayley(z), p)


# --------------------------------------------------------------------- nesting


def test_disk_nesting_examples():
    assert disk_nesting(0.3, 0.7)
    assert disk_nesting(0.5, 0.5)  # degenerate: identical disks
    with pytest.raises(DomainError):
        disk_nesting(0.7, 0.3)


@given(st.floats(min_value=0.01, max_value=0.98), st.floats(min_value=1e-6, max_value=0.01))
def test_disk_nesting_random_pairs(p1, gap):
    assert disk_nesting(p1, min(p1 + gap, 0.999))


#: Poles drawn log-uniformly in [1e-300, 1).
_LOG_UNIFORM_P = (
    st.floats(math.log(1e-300), 0.0, exclude_max=True).map(math.exp).filter(lambda p: p < 1.0)
)


@given(pair=st.lists(_LOG_UNIFORM_P, min_size=2, max_size=2).map(sorted))
# the centre/radius test with a 1e-12 slack returned False here
@example(pair=[8.265483267018253e-12, 2.90286377631546e-11])
def test_disk_nesting_holds_for_every_ordered_pair(pair):
    assert disk_nesting(*pair)


def test_disk_nesting_boundary_sampling_oracle():
    for _ in range(50):
        p1 = RNG.uniform(0.02, 0.97)
        p2 = RNG.uniform(p1, 0.99)
        d1, d2 = ExcludedDisk.from_pole(p1), ExcludedDisk.from_pole(p2)
        assert disk_nesting(p1, p2)
        for theta in np.linspace(0, 2 * math.pi, 100, endpoint=False):
            z = d2.center + d2.radius * cmath.exp(1j * theta)
            assert d1.boundary_gap(z) <= 1e-12


# --------------------------------------------------- distance to axis segment


def test_segment_distance_from_real_point():
    assert hyp_dist_to_vertical_segment(0.5, -1.0, 1.0) == pytest.approx(
        math.atanh(0.5), abs=1e-10
    )


def test_segment_distance_zero_on_segment():
    assert hyp_dist_to_vertical_segment(0.3j, 0.0, 0.9) == 0.0


def test_segment_distance_matches_brute_force_grid():
    # frozen value from a 1e6-point grid scan (refined locally to 2e6 points)
    got = hyp_dist_to_vertical_segment(0.3 + 0.4j, 0.0, 0.9)
    assert got == pytest.approx(0.3663341280227053, abs=1e-8)


def test_segment_distance_unimodality_oracle():
    # the closed-form perpendicular foot matches an independent dense scan on random cases
    for _ in range(25):
        s = complex(rand_disk(1, rmax=0.98)[0])
        y1 = RNG.uniform(-0.95, 0.5)
        y2 = RNG.uniform(y1 + 0.05, 0.99)
        got = hyp_dist_to_vertical_segment(s, y1, y2)
        ys = np.linspace(y1, y2, 100_001)
        brute = np.arctanh(np.abs((s - 1j * ys) / (1 - s * np.conj(1j * ys)))).min()
        assert got <= brute + 1e-12
        assert got == pytest.approx(brute, abs=1e-7)


def test_segment_distance_on_the_real_axis():
    # Im s = 0: the foot is the origin, or the segment end nearest to it
    assert hyp_dist_to_vertical_segment(-0.5, -0.3, 0.4) == pytest.approx(math.atanh(0.5), abs=1e-15)
    assert hyp_dist_to_vertical_segment(0.5, 0.2, 0.7) == hyp_dist_disk(0.5, 0.2j)


@pytest.mark.parametrize("im", [1e-300, -1e-300])
def test_segment_distance_at_tiny_imaginary_part(im):
    # the centre (1 + |s|^2) / (2 Im s) of the perpendicular overflows here
    got = hyp_dist_to_vertical_segment(complex(0.5, im), -0.5, 0.5)
    assert got == pytest.approx(math.atanh(0.5), abs=1e-15)


def test_segment_distance_foot_clamped_to_each_end():
    s = 0.3 + 0.6j  # the foot of the perpendicular is near 0.53i
    assert hyp_dist_to_vertical_segment(s, -0.5, 0.0) == hyp_dist_disk(s, 0.0)
    assert hyp_dist_to_vertical_segment(s, 0.8, 0.95) == hyp_dist_disk(s, 0.8j)
    assert hyp_dist_to_vertical_segment(s, 0.0, 0.95) < hyp_dist_disk(s, 0.53j)


def _mp_dist_to_axis_segment(s, y1, y2):
    """Dense scan of the distance along the segment at 40 digits, then zoom scans."""
    with mpmath.workdps(40):
        ss = mpmath.mpc(s.real, s.imag)

        def dist(y):
            w = mpmath.mpc(0, y)
            return mpmath.atanh(abs((ss - w) / (1 - ss * mpmath.conj(w))))

        lo, hi, m = mpmath.mpf(y1), mpmath.mpf(y2), 100
        for _ in range(10):
            ys = [lo + (hi - lo) * k / m for k in range(m + 1)]
            vals = [dist(y) for y in ys]
            k = vals.index(min(vals))
            lo, hi, m = ys[max(k - 1, 0)], ys[min(k + 1, m)], 20
        return float(min(vals))


def test_segment_distance_matches_mpmath_scan():
    rng = np.random.default_rng(4711)
    for _ in range(50):
        r, th = 0.95 * math.sqrt(rng.uniform()), rng.uniform(0, 2 * math.pi)
        s = cmath.rect(r, th)
        y1 = rng.uniform(-0.95, 0.85)
        y2 = rng.uniform(y1 + 0.05, 0.95)
        assert hyp_dist_to_vertical_segment(s, y1, y2) == pytest.approx(
            _mp_dist_to_axis_segment(s, y1, y2), abs=1e-13
        )


def test_segment_distance_domain_errors():
    with pytest.raises(DomainError):
        hyp_dist_to_vertical_segment(1.2, -0.5, 0.5)
    with pytest.raises(DomainError):
        hyp_dist_to_vertical_segment(0.1, 0.5, 0.5)
