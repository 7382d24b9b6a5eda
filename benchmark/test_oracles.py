"""Tests of the benchmark's own oracles and input generators.

Run with ``python -m pytest benchmark -q`` from the repository root. Each
oracle is checked against a brute-force or high-precision computation that
shares no code with it; nothing here imports ``polebounds``.
"""

import math
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import oracles
import workloads


def _mp_length(deriv, z0, z1):
    """Arc length of the image of ``[z0, z1]`` by mpmath quadrature."""
    z0, z1 = mp.mpc(z0), mp.mpc(z1)
    d = z1 - z0
    return mp.quad(lambda t: abs(deriv(z0 + t * d)) * abs(d), [0, 0.5, 1])


@pytest.mark.parametrize("p", [1e-3, 0.1, 0.5, 0.9])
def test_mp_minimum_beats_a_dense_grid(p):
    value, q_star, cond = oracles.mp_minimum(p, "measure")
    assert cond == 1.0
    with mp.workdps(30):
        grid = [oracles._measure(mp.mpf(p), 1 + mp.mpf(10) ** (k / 200.0)) for k in range(-600, 601)]
    assert value <= float(min(grid)) * (1 + 1e-15)
    assert value >= float(min(grid)) * (1 - 1e-3)
    assert 2.0 < q_star < 10.0


def test_mp_minimum_angle_conditioning_grows_near_threshold():
    _, _, far = oracles.mp_minimum(0.9, "angle")
    _, _, near = oracles.mp_minimum(oracles.ANGLE_MIN_P + 1e-4, "angle")
    assert 1.0 <= far < 10.0 < near


def test_mobius_lengths_match_quadrature():
    s = complex(0.3, 0.2)
    deriv = lambda z: -1 / (z - mp.mpc(s.real, s.imag)) ** 2
    for z0, z1 in [(-0.5j, 0.5j), (-0.4 - 0.2j, 0.1 + 0.6j), (0.5 + 0j, 0.8 + 0.1j)]:
        exact = oracles.mobius_image_length(s, z0, (z0 + z1) / 2, z1)
        assert exact == pytest.approx(float(_mp_length(deriv, z0, z1)), rel=1e-14)
    # I1 and T- for a real pole: the quarter-circle parametrisation of T-.
    p = 0.3
    deriv = lambda z: -1 / (z - p) ** 2
    t_minus = mp.quad(lambda t: abs(deriv(mp.expj(t))), [mp.pi / 2, mp.pi, 3 * mp.pi / 2])
    assert oracles.mobius_tminus_length(p) == pytest.approx(float(t_minus), rel=1e-14)
    assert oracles.mobius_i1_length(p) == pytest.approx(float(_mp_length(deriv, -1j, 1j)), rel=1e-14)


def test_mobius_polyline_is_the_sum_of_its_segments():
    s = complex(0.2, -0.1)
    verts = [-0.5j, -0.3 - 0.2j, -0.4 + 0.3j, 0.5j]
    total = oracles.mobius_polyline_length(s, verts)
    parts = sum(oracles.mobius_image_length(s, a, (a + b) / 2, b) for a, b in zip(verts, verts[1:]))
    assert total == pytest.approx(parts, rel=1e-15)


@pytest.mark.parametrize("p", [0.02, 0.3, 0.95])
def test_koebe_closed_forms_match_quadrature(p):
    P = mp.mpf(p)
    deriv = lambda z: P * P * (1 - z * z) / ((P - z) ** 2 * (1 - P * z) ** 2)
    i1 = mp.quad(lambda t: abs(deriv(mp.mpc(0, t))), [-1, -P, 0, P, 1])
    tm = mp.quad(lambda t: abs(deriv(mp.expj(t))), [mp.pi / 2, mp.pi, 3 * mp.pi / 2])
    assert oracles.koebe_i1_length(p) == pytest.approx(float(i1), rel=1e-13)
    assert oracles.koebe_tminus_length(p) == pytest.approx(float(tm), rel=1e-13)
    # The family attains the lower bound.
    ratio = oracles.koebe_i1_length(p) / oracles.koebe_tminus_length(p)
    assert ratio == pytest.approx(oracles.lower_bound(p), rel=1e-14)


def test_quad_image_length_matches_mpmath():
    s = complex(0.4, 0.3)
    fd = lambda z: oracles.koebe_derivative_abs(s, z)
    S = mp.mpc(s.real, s.imag)
    deriv = lambda z: S * S * (1 - z * z) / ((S - z) ** 2 * (1 - S * z) ** 2)
    value, err = oracles.quad_image_length(fd, -0.3 - 0.5j, 0.2 + 0.4j)
    assert value == pytest.approx(float(_mp_length(deriv, -0.3 - 0.5j, 0.2 + 0.4j)), rel=1e-12)
    assert err < 1e-12


def test_tau_matches_a_brute_force_grid():
    rng = np.random.default_rng(5)
    for _ in range(50):
        s = complex(*rng.uniform(-0.7, 0.7, 2))
        y1, y2 = sorted(rng.uniform(-0.9, 0.9, 2))
        ys = np.linspace(y1, y2, 200_001)
        w = 1j * ys
        brute = np.min(np.abs((s - w) / (1 - s * np.conj(w))))
        assert oracles.tau_closed_form(s, y1, y2) == pytest.approx(brute, abs=1e-9)


def test_point_in_polygon():
    square = [0j, 1 + 0j, 1 + 1j, 1j]
    assert oracles.point_in_polygon(0.5 + 0.5j, square)
    assert not oracles.point_in_polygon(1.5 + 0.5j, square)
    notch = [0j, 2 + 0j, 2 + 2j, 1 + 0.5j, 2j]
    assert not oracles.point_in_polygon(1 + 1.5j, notch)
    assert oracles.point_in_polygon(0.2 + 1.5j, notch)


def test_wos_limit_covers_a_binomial_tail():
    n, omega = 5000, 0.3
    t = oracles.wos_limit(omega, n, delta=1e-3)
    draws = np.random.default_rng(1).binomial(n, omega, 20_000) / n
    assert np.mean(np.abs(draws - omega) >= t) < 1e-3
    # Close to a Gaussian limit of sqrt(2 log(2/delta)) sigma for common events.
    sigma = math.sqrt(omega * (1 - omega) / n)
    assert 3.5 < t / sigma < 4.5


def test_is_simple_detects_crossings():
    assert workloads._is_simple([0j, 1 + 0j, 1 + 1j, 2 + 1j])
    assert not workloads._is_simple([0j, 1 + 1j, 1 + 0j, 0 + 1j])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_depend_only_on_the_seed(workload, tmp_path):
    a = workloads.generate(workload, 3, tmp_path / "a")
    b = workloads.generate(workload, 3, tmp_path / "b")
    c = workloads.generate(workload, 4, tmp_path / "c")
    strip = lambda inputs: [{k: v for k, v in inp.items() if k != "file"} for inp in inputs]
    assert strip(a) == strip(b) != strip(c)


def test_arc_instances_have_the_intended_geometry(tmp_path):
    inputs = workloads.generate("arc_suite", 7, tmp_path)
    assert [inp["n"] for inp in inputs[:16]] == list(workloads.ARC_VERTEX_COUNTS)
    for i, inp in enumerate(inputs):
        verts = [complex(*v) for v in inp["vertices"]]
        s = complex(*inp["pole"])
        assert workloads._is_simple(verts)
        assert verts[0] == complex(0.0, inp["y_lo"]) and verts[-1] == complex(0.0, inp["y_hi"])
        assert all(v.real < 0 for v in verts[1:-1])
        assert oracles.point_in_polygon(-s.conjugate(), verts) == (i % 2 == 0)
        assert not oracles.point_in_polygon(s, verts)
        lines = Path(inp["file"]).read_text().splitlines()
        assert len(lines) == len(verts) + 1 and lines[0].startswith("pole ")
        file_verts = [complex(*map(float, line.split())) for line in lines[1:]]
        assert workloads._is_simple(file_verts)
        assert (file_verts[0].real != 0.0) == inp["off_axis"]
