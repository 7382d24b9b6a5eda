"""The conformal maps of the construction, as plain complex functions."""

import cmath
import math

import numpy as np
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polebounds import (
    DomainError,
    PolylineArc,
    alpha_from_p,
    arc_constant,
    cayley,
    hyp_dist_disk,
    hyp_dist_to_vertical_segment,
    koebe_family,
    mobius_family,
    normalize_to_axis,
    omega_to_disk,
    omega1_to_halfplane,
    p_from_alpha,
    vertical_translation,
)
from polebounds.conformal import as_complex
from polebounds.hyperbolic import ExcludedDisk

RNG = np.random.default_rng(20250808)

open_unit = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)


def rand_disk_points(n, rng=RNG):
    r = np.sqrt(rng.uniform(0, 1, n)) * (1 - 1e-9)
    th = rng.uniform(0, 2 * np.pi, n)
    return r * np.exp(1j * th)


# ------------------------------------------------------------------ as_complex


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf), complex(math.nan, 0.0)])
def test_as_complex_rejects_non_finite(bad):
    with pytest.raises(DomainError):
        as_complex(bad)


@pytest.mark.parametrize("bad", [complex(1.7e308, 1.7e308), complex(-1.7e308, 1.3e308)])
def test_as_complex_rejects_an_overflowing_modulus(bad):
    # abs(bad) raised OverflowError
    with pytest.raises(DomainError, match="modulus that overflows"):
        as_complex(bad)


_ARC = PolylineArc((-0.5j, -0.3 + 0j, 0.5j))

#: Every entry that takes a point of the open unit disk, fed the point ``z``.
_DISK_ENTRIES = {
    "PolylineArc": lambda z: PolylineArc((-0.5j, z, 0.5j)),
    "normalize_to_axis pole": lambda z: normalize_to_axis(z, -0.5j, 0.5j),
    "normalize_to_axis endpoint": lambda z: normalize_to_axis(0.1 + 0j, z, 0.5j),
    "arc_constant": lambda z: arc_constant(z, _ARC),
    "hyp_dist_disk first": lambda z: hyp_dist_disk(z, 0.0),
    "hyp_dist_disk second": lambda z: hyp_dist_disk(0.0, z),
    "hyp_dist_to_vertical_segment": lambda z: hyp_dist_to_vertical_segment(z, -0.5, 0.5),
    "mobius_family": mobius_family,
    "koebe_family": koebe_family,
}


@pytest.mark.parametrize("entry", sorted(_DISK_ENTRIES))
@pytest.mark.parametrize("z", [math.nan, 1.7e308 + 1.7e308j, 1.0, -1j, 0.8 + 0.7j])
def test_every_disk_entry_rejects_a_point_off_the_open_disk(entry, z):
    # 0.8 + 0.7j has both components inside (-1, 1) and its modulus outside
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            _DISK_ENTRIES[entry](z)


def test_as_complex_keeps_a_large_finite_modulus():
    z = complex(1e308, -1.2e308)
    assert as_complex(z) == z


# ------------------------------------------------------------- pole parameter


def test_alpha_from_p_direct_substitution():
    assert alpha_from_p(0.5) == pytest.approx(0.8, abs=1e-15)


def test_alpha_tends_to_one():
    # alpha = 1 - (1-p)^2/2 + O((1-p)^3): approaches 1 from below
    vals = [alpha_from_p(1 - e) for e in (1e-2, 1e-4, 1e-6)]
    assert vals == sorted(vals)
    assert all(v < 1.0 for v in vals)
    assert vals[-1] == pytest.approx(1.0, abs=1e-11)


def test_alpha_at_09_independent_arithmetic():
    assert alpha_from_p(0.9) == pytest.approx(1.8 / 1.81, abs=1e-15)
    a = alpha_from_p(0.9)
    assert (1 - math.sqrt(1 - a * a)) / a == pytest.approx(0.9, abs=1e-12)


def test_p_from_alpha_inverse_of_example():
    assert p_from_alpha(0.8) == pytest.approx(0.5, abs=1e-15)


def test_p_from_alpha_small_alpha_expansion():
    assert p_from_alpha(1e-8) == pytest.approx(0.5e-8, rel=1e-8)


def test_p_from_alpha_against_bisection_oracle():
    alpha = 0.6
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 2 * mid / (1 + mid * mid) < alpha:
            lo = mid
        else:
            hi = mid
    assert p_from_alpha(alpha) == pytest.approx(0.5 * (lo + hi), abs=1e-14)


@given(st.floats(min_value=1e-6, max_value=0.99))
def test_round_trip_p_alpha(p):
    # the rounding of alpha carried through dp/dalpha = p / (alpha sqrt(1 - alpha^2));
    # the error is at most 1.66 eps p / sqrt(1 - alpha^2) on a 400,001-point grid
    alpha = alpha_from_p(p)
    bound = 4.0 * np.finfo(float).eps * p / math.sqrt(1.0 - alpha * alpha)
    assert abs(p_from_alpha(alpha) - p) <= bound


def test_round_trip_degrades_gracefully_near_one():
    # the inverse is ill-conditioned as p -> 1 (error ~ eps / (1 - p))
    for p in (0.995, 0.999, 0.9999):
        assert abs(p_from_alpha(alpha_from_p(p)) - p) <= 1e-12 / (1.0 - p) * 1e-3


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, math.nan])
def test_pole_domain_errors(bad):
    with pytest.raises(DomainError):
        alpha_from_p(bad)
    with pytest.raises(DomainError):
        p_from_alpha(bad)


# ---------------------------------------------------------------------- cayley


def test_cayley_fixes_reference_points():
    assert abs(cayley(0) - 1j) < 1e-15
    p = 0.5
    a = alpha_from_p(p)
    assert abs(cayley(p) - complex(-a, math.sqrt(1 - a * a))) < 1e-15


def test_cayley_involution_on_sphere_sample():
    pts = rand_disk_points(1000) * 10.0
    pts = pts[np.abs(pts + 1j) > 1e-3]  # stay away from the pole at -i
    for z in pts:
        z = complex(z)
        assert abs(cayley(cayley(z)) - z) <= 1e-12


def test_cayley_boundary_correspondence():
    # the left half-circle maps into the real axis
    for theta in np.linspace(math.pi / 2 + 1e-2, 3 * math.pi / 2 - 1e-2, 100):
        w = cayley(cmath.exp(1j * theta))
        assert w.real > 0.0
        assert abs(w.imag) <= 1e-12 * (1.0 + abs(w))


def test_cayley_sends_diameter_to_positive_imaginary_axis():
    for t in np.linspace(-0.999, 0.999, 41):
        w = cayley(complex(0.0, t))
        assert abs(w.real) < 1e-14
        assert w.imag > 0.0


# ----------------------------------------------------------------- phi / psi


def test_omega_to_disk_normalization():
    assert omega_to_disk(0.0, 0.8) == 0.0
    h = 1e-5
    for alpha in (0.3, 0.8):
        d = (omega_to_disk(h, alpha) - omega_to_disk(-h, alpha)) / (2 * h)
        assert abs(d - (-1.0 / alpha)) < 1e-8


def test_omega_to_disk_pole():
    # a plain formula: undefined where z - alpha vanishes
    with pytest.raises(ZeroDivisionError):
        omega_to_disk(0.8 + 0j, 0.8)


def test_omega_to_disk_modulus_tends_to_one_on_geodesic():
    # approach a point of the separating geodesic from the Omega side
    p = 0.5
    a = alpha_from_p(p)
    disk = ExcludedDisk.from_pole(p)
    target = disk.center + disk.radius * cmath.exp(1j * 2.6)  # a point of the arc in D
    assert abs(target) < 1.0
    mods = []
    for eps in (1e-2, 1e-4, 1e-6, 1e-8):
        z = target + eps * (target - disk.center) / abs(target - disk.center)
        mods.append(abs(omega_to_disk(z, a)))
    assert abs(mods[-1] - 1.0) < 1e-6
    assert all(abs(m2 - 1) <= abs(m1 - 1) for m1, m2 in zip(mods, mods[1:]))


def test_omega1_map_zero_and_pole():
    assert omega1_to_halfplane(complex(-0.5, 0), 0.5) == 0.0
    with pytest.raises(ZeroDivisionError):
        omega1_to_halfplane(complex(-2.0, 0), 0.5)


def test_omega1_map_monotone_on_positive_axis():
    p = 0.37
    xs = np.sort(np.exp(RNG.uniform(-3, 3, 200)))
    vals = [omega1_to_halfplane(complex(x, 0), p).real for x in xs]
    assert all(v > 0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    # the formula also runs elementwise on an array (numpy divides complex
    # numbers its own way, so the values agree to rounding)
    assert omega1_to_halfplane(xs + 0j, p).real.tolist() == pytest.approx(vals, rel=1e-14)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("y", [0.1, 1.0, 7.3])
def test_omega1_map_modulus_on_imaginary_axis(p, y):
    got = abs(omega1_to_halfplane(complex(0, y), p))
    expect = p * p * (p * p + y * y) / (1 + p * p * y * y)
    assert got == pytest.approx(expect, rel=1e-13)


# --------------------------------------------------------- vertical translation


def test_translation_identity_at_zero():
    for z in rand_disk_points(20):
        assert abs(vertical_translation(complex(z), 0.0) - z) < 1e-15


def test_translation_preserves_diameter():
    ys = RNG.uniform(-0.999, 0.999, 100)
    for a in (-0.7, 0.2, 0.9):
        for y in ys:
            w = vertical_translation(complex(0, y), a)
            assert abs(w.real) <= 1e-15
            assert abs(w.imag) < 1.0


def test_translation_moves_excluded_disk_to_documented_circle():
    p, a = 0.5, 0.3
    alpha = alpha_from_p(p)
    disk = ExcludedDisk.from_pole(p)
    new_center = complex((1 - a * a) / (alpha * (1 + a * a)), 2 * a / (1 + a * a))
    new_radius = math.sqrt(1 / alpha**2 - 1) * (1 - a * a) / (1 + a * a)
    for theta in np.linspace(0, 2 * math.pi, 100, endpoint=False):
        z = disk.center + disk.radius * cmath.exp(1j * theta)
        w = vertical_translation(z, a)
        assert abs(abs(w - new_center) - new_radius) < 1e-12


@pytest.mark.parametrize("a", [1.0, -1.0, 1.5, math.nan])
def test_translation_rejects_a_outside_the_open_interval(a):
    with pytest.raises(DomainError, match=r"a must lie in \(-1, 1\)"):
        vertical_translation(0.1, a)


@given(st.floats(min_value=-0.99, max_value=0.99), open_unit)
@settings(max_examples=50)
def test_translation_is_disk_automorphism(a, r):
    z = r * cmath.exp(1j * (a * 7.0))
    assert abs(vertical_translation(z, a)) < 1.0
