"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``criterion NN ...: PASS/FAIL`` line (visible with
``pytest -s``); the assertions carry the same conditions.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from polebounds import (
    ExcludedDisk,
    PolylineArc,
    arc_constant,
    arccot,
    closed_form_bound,
    cot_of_scaled_arccot,
    hm_omega1,
    hyp_dist_to_vertical_segment,
    koebe_family,
    limit_bound,
    lower_bound,
    measure_cot_bound,
    minimize_over_q,
    mobius_family,
    scaled_cot_bound,
    table_rows,
    verify_arc_inequality,
    verify_inequality,
    wos_harmonic_measure,
)
from polebounds.bounds import ANGLE_BOUND_MIN_P

# reference values: p -> (lower, angle_min, closed_form, measure_min)
EXPECTED_TABLE = {
    0.999: (3.141, 73.421, 114.486, 73.251),
    0.99: (3.141, 74.995, 116.025, 73.259),
    0.9: (3.150, 95.491, 134.471, 74.212),
    0.8: (3.180, 135.733, 164.134, 77.634),
    0.7: (3.242, 221.807, 210.271, 84.837),
    0.6: (3.351, 471.016, 287.415, 98.455),
    0.5: (3.534, 1984.431, 429.726, 124.383),
    0.4: (3.848, None, 731.847, 178.045),
    0.3: (4.424, None, 1528.574, 310.577),
    0.2: (5.654, None, 4605.973, 775.275),
    0.1: (9.503, None, 33408.930, 4608.760),
}

INSIDE_ARC = PolylineArc((-0.5j, -0.45 - 0.25j, -0.45 + 0.25j, 0.5j))
AXIS_ARC = PolylineArc((-0.5j, 0.5j))


def report(num: int, label: str, ok: bool) -> None:
    print(f"criterion {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_reference_table():
    t0 = time.perf_counter()
    rows = {r.p: r for r in table_rows(sorted(EXPECTED_TABLE, reverse=True))}
    elapsed = time.perf_counter() - t0
    ok = True
    for p, (lb, ang, closed, meas) in EXPECTED_TABLE.items():
        r = rows[p]
        ok &= abs(r.lower - lb) <= 5e-3
        ok &= abs(r.measure_min - meas) <= 5e-3
        ok &= abs(r.closed_form - closed) <= (5e-2 if p == 0.1 else 5e-3)
        if ang is None:
            ok &= r.angle_min is None and p <= ANGLE_BOUND_MIN_P
        else:
            ok &= abs(r.angle_min - ang) <= (0.5 if p == 0.5 else 5e-3)
    ok &= elapsed < 5.0
    report(1, f"reference table reproduction ({elapsed:.2f} s)", ok)
    assert ok


def test_criterion_02_limit_spot_value():
    spot = limit_bound(5.55465)
    best = minimize_over_q(1.0, "limit").value
    ok = abs(spot - 73.2502105) <= 1e-6 and best <= 73.2502105 + 1e-6
    report(2, "analytic-case limit value at q = 5.55465", ok)
    assert ok


def test_criterion_03_measure_sandwich():
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(200):
        p = rng.uniform(0.05, 0.99)
        a = math.exp(rng.uniform(-2.0, 2.0))
        q = math.exp(rng.uniform(1e-3, math.log(100.0)))
        b = a * q
        lo = arccot(measure_cot_bound(p, q)) / math.pi
        for frac in np.geomspace(1.0, q, 52)[1:-1]:
            w = hm_omega1(complex(0.0, a * frac), a, b, p)
            if not (lo - 1e-12 <= w <= 0.5 + 1e-12):
                violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 10.0
    report(3, f"harmonic-measure sandwich, 200x50 queries ({elapsed:.2f} s)", ok)
    assert ok


def test_criterion_04_monte_carlo_oracle():
    rng = np.random.default_rng(31337)
    t0 = time.perf_counter()
    within = 0
    for i in range(20):
        p = rng.uniform(0.1, 0.95)
        disk = ExcludedDisk.from_pole(p)
        while True:
            z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0))
            if abs(z + disk.center) - disk.radius > 1e-3:
                break
        a = math.exp(rng.uniform(-1.0, 1.0))
        b = a * math.exp(rng.uniform(0.3, 3.0))
        exact = hm_omega1(z, a, b, p)
        est = wos_harmonic_measure(z, a, b, p, n_walks=100_000, eps=1e-6, seed=1729 + i)
        if abs(est.mean - exact) <= 3.0 * est.stderr:
            within += 1
    elapsed = time.perf_counter() - t0
    ok = within >= 19 and elapsed < 60.0
    report(4, f"walk-on-spheres within 3 sigma on {within}/20 queries ({elapsed:.1f} s)", ok)
    assert ok


def test_criterion_05_cot_function_suite():
    xs = np.linspace(100.0 / 10_000, 100.0, 10_000)
    ok = True
    for k in (0.25, 0.5, 0.75):
        vals = np.array([cot_of_scaled_arccot(x, k) for x in xs])
        lo = 1.0 / math.tan(k * math.pi / 2) + k * xs / math.sin(k * math.pi / 2) ** 2
        hi = 1.0 / math.tan(k * math.pi / 2) + xs / k
        ok &= bool(np.all(lo < vals) and np.all(vals < hi))
        second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
        ok &= bool(second.min() >= -1e-9)
    report(5, "cot(k arccot x) sandwich and convexity on 3x10^4 grid", ok)
    assert ok


def test_criterion_06_rational_function_bound():
    grid = np.linspace(1.0 / 10_001, 1.0 - 1.0 / 10_001, 10_000)
    ok = all(scaled_cot_bound(p) < 10.0 for p in grid)
    exact = Fraction(180, 18)
    ok &= exact == 10 and scaled_cot_bound(1.0) == float(exact)
    report(6, "rational bound below 10 on 10^4 grid, equal at 1", ok)
    assert ok


def test_criterion_07_length_ratio_verification():
    t0 = time.perf_counter()
    ok = True
    poles = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99]
    for p in poles:
        ok &= verify_inequality(mobius_family(p), p).passed
        ok &= verify_inequality(koebe_family(p), p).passed
    # quadrature against exact circular-arc lengths for the mobius family
    from test_lengths import arc_length_through
    from polebounds import image_curve_length, left_half_circle, vertical_diameter

    for p in poles:
        f = mobius_family(p)
        ev = f.evaluate
        li, _ = image_curve_length(f, vertical_diameter())
        lt, _ = image_curve_length(f, left_half_circle())
        ok &= abs(li / arc_length_through(ev(-1j), ev(0.0), ev(1j)) - 1.0) <= 1e-8
        ok &= abs(lt / arc_length_through(ev(1j), ev(-1.0), ev(-1j)) - 1.0) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    report(7, f"length-ratio verification for both families ({elapsed:.2f} s)", ok)
    assert ok


def test_criterion_08_bound_orderings():
    ok = True
    for p in np.linspace(0.01, 0.99, 100):
        meas = minimize_over_q(p, "measure").value
        ok &= lower_bound(p) <= meas <= closed_form_bound(p)
    for p in np.linspace(ANGLE_BOUND_MIN_P + 1e-6, 1.0 - 1e-6, 100):
        ok &= minimize_over_q(p, "measure").value <= minimize_over_q(p, "angle").value
    report(8, "bound orderings on 100-point grids", ok)
    assert ok


def test_criterion_09_disk_nesting():
    from polebounds import disk_nesting

    rng = np.random.default_rng(908)
    ok = True
    thetas = np.linspace(0.0, 2.0 * math.pi, 100, endpoint=False)
    for _ in range(1000):
        p1 = rng.uniform(0.01, 0.98)
        p2 = rng.uniform(p1, 0.99)
        ok &= disk_nesting(p1, p2)
        d1, d2 = ExcludedDisk.from_pole(p1), ExcludedDisk.from_pole(p2)
        boundary = d2.center + d2.radius * np.exp(1j * thetas)
        ok &= bool(np.all(np.abs(boundary - d1.center) <= d1.radius + 1e-12))
    report(9, "disk nesting, 1000 pairs x 100 boundary samples", ok)
    assert ok


def test_criterion_10_arc_desk_suite():
    ok = True
    # outside-branch, inside-branch, and arc-equals-geodesic instances
    instances = [(0.7, INSIDE_ARC, "outside_hull"), (0.2, INSIDE_ARC, "inside_hull"),
                 (0.5, AXIS_ARC, "outside_hull")]
    for pole, arc, branch in instances:
        for family in (mobius_family, koebe_family):
            rep = verify_arc_inequality(family(pole), arc)
            ok &= rep.passed and rep.branch == branch
        # closed-form tau (perpendicular geodesic foot) against a 1e6-point brute-force grid
        from polebounds.arcs import enclosed_axis_segment

        y_lo, y_hi = enclosed_axis_segment(arc)
        sel = arc_constant(complex(pole, 0.0), arc)
        ys = np.linspace(y_lo, y_hi, 1_000_001)
        w = 1j * ys
        brute = np.tanh(
            np.arctanh(np.abs((pole - w) / (1.0 - pole * np.conj(w)))).min()
        )
        ok &= abs(sel.tau - brute) <= 1e-8
    report(10, "arc desk suite: three instances, two families, brute-force tau", ok)
    assert ok
