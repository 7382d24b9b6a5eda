"""Polyline arcs: axis segments, hull branches, constants, normalization."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from polebounds import arcs
from polebounds.lengths import _segment_feet
from polebounds import (
    DegenerateGeometryError,
    DomainError,
    HypothesisViolationError,
    PolylineArc,
    arc_constant,
    enclosed_axis_segment,
    hyp_dist_to_vertical_segment,
    koebe_family,
    load_polyline_instance,
    minimize_over_q,
    mobius_family,
    normalize_to_axis,
    verify_arc_inequality,
    vertical_translation,
    winding_number,
)

RNG = np.random.default_rng(5150)


def distance_to(arc, w):
    """The distance from ``w`` to the polyline ``arc``."""
    z = np.array(arc.vertices)
    return _segment_feet(z[:-1], z[1:] - z[:-1], w)[1].min()


# desk instances: a left-bulging arc between -i/2 and i/2, and its users
J_LEFT = PolylineArc((-0.5j, -0.45 - 0.25j, -0.45 + 0.25j, 0.5j))
J_AXIS = PolylineArc((-0.5j, 0.5j))


def even_odd_inside(pt: complex, loop) -> bool:
    """Independent ray-casting parity test (rightward ray)."""
    inside = False
    n = len(loop)
    for k in range(n):
        a, b = loop[k], loop[(k + 1) % n]
        if (a.imag > pt.imag) != (b.imag > pt.imag):
            x_at = a.real + (pt.imag - a.imag) * (b.real - a.real) / (b.imag - a.imag)
            if x_at > pt.real:
                inside = not inside
    return inside


# ----------------------------------------------------------------- PolylineArc


def test_polyline_validation():
    with pytest.raises(DomainError):
        PolylineArc((0.1 + 0j,))
    with pytest.raises(DomainError):
        PolylineArc((0.1, 1.2))  # vertex outside the disk
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(DomainError):
            PolylineArc((-0.5j, bad, 0.5j))  # abs(bad) >= 1.0 is False for nan
    with pytest.raises(DomainError):
        PolylineArc((-0.5j, complex(1.7e308, 1.7e308), 0.5j))  # abs overflowed
    with pytest.raises(DomainError):
        PolylineArc((0.1, 0.1, 0.2j))  # repeated vertex
    with pytest.raises(DomainError):
        PolylineArc((-0.5j, 0.5 + 0.5j, 0.5 - 0.5j, -0.2 + 0.6j))  # self-crossing


def _orient_scalar(a, b, c):
    return (b.real - a.real) * (c.imag - a.imag) - (b.imag - a.imag) * (c.real - a.real)


def _segments_cross_scalar(a, b, c, d):
    """The pairwise segment predicate the array simplicity test replaced."""
    d1 = _orient_scalar(c, d, a)
    d2 = _orient_scalar(c, d, b)
    d3 = _orient_scalar(a, b, c)
    d4 = _orient_scalar(a, b, d)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on(a, b, c):
        return (
            _orient_scalar(a, b, c) == 0.0
            and min(a.real, b.real) <= c.real <= max(a.real, b.real)
            and min(a.imag, b.imag) <= c.imag <= max(a.imag, b.imag)
        )

    return on(c, d, a) or on(c, d, b) or on(a, b, c) or on(a, b, d)


def _is_simple_scalar(verts):
    n = len(verts) - 1
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1 and verts[0] == verts[n]:
                continue
            if _segments_cross_scalar(verts[i], verts[i + 1], verts[j], verts[j + 1]):
                return False
    return True


def _is_simple(verts):
    try:
        PolylineArc(verts)
    except DomainError as exc:
        assert "not simple" in str(exc)
        return False
    return True


@pytest.mark.parametrize("pair_block", [None, 5])
def test_array_simplicity_matches_pairwise_loop_on_lattice(monkeypatch, pair_block):
    # a coarse integer grid makes collinear, touching and overlapping segments
    # common; points on a sloped line make orientation signs come from rounding
    if pair_block is not None:
        monkeypatch.setattr(arcs, "_PAIR_BLOCK", pair_block)
    rng = np.random.default_rng(2024)
    seen = {True: 0, False: 0}
    for k in range(1500):
        m = int(rng.integers(2, 10))
        if k % 3 == 0:
            pts = [complex(x, 0.1 + 0.3 * x) for x in rng.integers(-9, 10, m) / 10]
        else:
            g = int(rng.integers(2, 5))
            pts = [complex(x, y) / 8 for x, y in rng.integers(-g, g + 1, (m, 2))]
        if k % 4 == 0:
            pts.append(pts[0])
        verts = tuple(v for i, v in enumerate(pts) if i == 0 or v != pts[i - 1])
        if len(verts) < 2:
            continue
        expected = _is_simple_scalar(verts)
        assert _is_simple(verts) == expected, verts
        seen[expected] += 1
    assert min(seen.values()) > 200


@pytest.mark.parametrize(
    "verts",
    [
        (-0.5j, 0.4 + 0.2j, 0.4 - 0.2j, -0.3 + 0.3j),  # X crossing
        (-0.5j, 0.5j, 0.4 + 0.5j, 0.4, 0.0),  # a vertex touches an earlier segment
        (-0.5j, 0.4 - 0.5j, 0.4 + 0.5j, 0.4 + 0.2j, 0.4 - 0.2j),  # collinear overlap
        (-0.4 - 0.4j, 0.4 + 0.4j, 0.4 - 0.4j, -0.4 + 0.4j, -0.4 - 0.4j),  # closed bow tie
    ],
    ids=["x_crossing", "vertex_on_segment", "collinear_overlap", "closed_loop"],
)
def test_non_simple_polylines_rejected(verts):
    assert not _is_simple_scalar(verts)
    with pytest.raises(DomainError, match="not simple"):
        PolylineArc(verts)


def test_closed_loop_may_share_its_first_vertex():
    square = (-0.5j, 0.4 - 0.5j, 0.4 + 0.5j, 0.5j, -0.5j)
    assert PolylineArc(square).vertices == square


def test_normalize_returns_an_axis_arc_itself():
    assert normalize_to_axis(0.3 + 0j, -0.5j, 0.5j, J_LEFT).arc is J_LEFT


# ------------------------------------------------------------ axis enclosure


def test_right_bulge_gives_endpoint_segment():
    arc = PolylineArc((-0.3j, 0.35 + 0j, 0.2j))
    assert enclosed_axis_segment(arc) == (-0.3, 0.2)


def test_interior_crossing_extends_segment():
    # four-vertex polyline crossing the axis at y = 0.45, above the endpoint 0.2
    arc = PolylineArc((-0.3j, 0.4 + 0.3j, -0.4 + 0.6j, 0.2j))
    y_lo, y_hi = enclosed_axis_segment(arc)
    assert y_lo == pytest.approx(-0.3)
    assert y_hi == pytest.approx(0.45, abs=1e-15)


def test_symmetric_arc_gives_symmetric_segment():
    arc = PolylineArc((-0.5j, 0.4 + 0j, 0.5j))  # invariant under conjugation
    y_lo, y_hi = enclosed_axis_segment(arc)
    assert y_lo == -y_hi


def test_axis_collinear_arc_is_its_own_segment():
    assert enclosed_axis_segment(J_AXIS) == (-0.5, 0.5)


def test_tangential_touch_is_degenerate():
    with pytest.raises(DegenerateGeometryError):
        # touches the axis at 0.3i with both neighbors on the right
        enclosed_axis_segment(PolylineArc((-0.3j, 0.4 + 0j, 0.3j, 0.4 + 0.4j, 0.55j)))
    with pytest.raises(DegenerateGeometryError):
        # interior sub-segment running along the axis
        enclosed_axis_segment(PolylineArc((-0.3j, 0.3 + 0j, 0.1j, 0.3j, 0.2 + 0.4j, 0.5j)))


def test_unnormalized_endpoints_rejected():
    with pytest.raises(DomainError):
        enclosed_axis_segment(PolylineArc((0.1 + 0j, 0.5j)))


# ------------------------------------------------------------- winding number


def test_winding_of_square():
    square = (0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j)
    assert winding_number(0.0, square) == 1
    assert winding_number(0.9 + 0j, square) == 0
    assert winding_number(0.0, tuple(reversed(square))) == -1


@pytest.mark.parametrize("arc", [J_LEFT, PolylineArc((-0.4j, -0.3 - 0.1j, -0.55 + 0.2j, 0.3j))])
def test_winding_agrees_with_even_odd(arc):
    loop = arc.vertices + tuple(-v.conjugate() for v in reversed(arc.vertices))[1:-1]
    hits = 0
    for _ in range(1000):
        pt = complex(RNG.uniform(-0.9, 0.9), RNG.uniform(-0.9, 0.9))
        if distance_to(arc, pt) < 1e-9:
            continue
        wound = winding_number(pt, loop) != 0
        assert wound == even_odd_inside(pt, loop)
        hits += wound
    assert 0 < hits < 1000  # the sample saw both sides


# --------------------------------------------------------------- arc constant


def test_outside_branch_real_pole():
    sel = arc_constant(0.7 + 0j, J_LEFT, analytic_constant=17.45)
    assert sel.branch == "outside_hull"
    assert sel.constant == 17.45
    assert sel.tau == pytest.approx(0.7, abs=1e-12)
    # independent parity check at the pole
    loop = J_LEFT.vertices + tuple(-v.conjugate() for v in reversed(J_LEFT.vertices))[1:-1]
    assert not even_odd_inside(0.7 + 0j, loop)


@pytest.mark.parametrize("constant", [math.inf, math.nan, 0.0, -5.0])
@pytest.mark.parametrize("pole", [0.7 + 0j, 0.2 + 0j])
def test_arc_constant_rejects_an_analytic_constant_not_positive_and_finite(constant, pole):
    # inf was returned as the outside constant, so every check passed
    with pytest.raises(DomainError, match="analytic constant"):
        arc_constant(pole, J_LEFT, analytic_constant=constant)
    with pytest.raises(DomainError, match="analytic constant"):
        verify_arc_inequality(mobius_family(pole), J_LEFT, analytic_constant=constant)


def test_inside_branch_real_pole():
    sel = arc_constant(0.2 + 0j, J_LEFT)
    assert sel.branch == "inside_hull"
    assert sel.tau == pytest.approx(0.2, abs=1e-12)
    assert sel.constant == pytest.approx(minimize_over_q(0.2, "measure").value, rel=1e-12)
    loop = J_LEFT.vertices + tuple(-v.conjugate() for v in reversed(J_LEFT.vertices))[1:-1]
    assert even_odd_inside(0.2 + 0j, loop)


def test_tau_monotone_in_distance():
    taus = [arc_constant(complex(x, 0), J_LEFT).tau for x in (0.5, 0.6, 0.8, 0.9)]
    assert taus == sorted(taus)


def test_hypothesis_violations():
    with pytest.raises(HypothesisViolationError):
        arc_constant(-0.2 + 0j, J_LEFT)  # inside hull(axis segment + arc)
    with pytest.raises(HypothesisViolationError):
        arc_constant(0.0 + 0.1j, J_LEFT)  # on the enclosed axis segment
    with pytest.raises(HypothesisViolationError):
        arc_constant(-0.45 + 0.1j, J_LEFT)  # on the arc itself
    with pytest.raises(DomainError):
        arc_constant(-0.45 - 0.25j, J_LEFT)  # coincides with a vertex


def mirror_loop_winds(s: complex, arc: PolylineArc) -> bool:
    """The branch test restated with the loop of the arc and its mirror image."""
    back = [-v.conjugate() for v in reversed(arc.vertices)]
    return winding_number(s, arc.vertices + tuple(back[1:-1])) != 0


def star_instance(rng):
    """A seeded star-shaped polyline with endpoints on the axis, and a pole.

    Half the polylines have lattice vertices (exact zeros in the predicates);
    vertices past the axis make interior crossings. Poles are drawn on the
    axis, on the lattice, near the mirror of the arc's region, or anywhere.
    """
    n = int(rng.integers(2, 12))
    yc = rng.uniform(-0.4, 0.4)
    side = rng.choice([-1.0, 1.0])
    th = np.sort(rng.uniform(-0.3, math.pi + 0.3, n))
    r = rng.uniform(0.05, 0.95 - abs(yc), n)
    verts = side * r * np.sin(th) + 1j * (yc - r * np.cos(th))
    if rng.uniform() < 0.5:
        verts = (np.round(verts.real * 16) + 1j * np.round(verts.imag * 16)) / 16
    verts[[0, -1]] = 1j * verts[[0, -1]].imag
    mode = rng.integers(4)
    if mode == 0:
        s = 1j * rng.uniform(-0.95, 0.95)
    elif mode == 1:
        s = complex(*np.round(rng.uniform(-0.9, 0.9, 2) * 16) / 16)
    elif mode == 2:
        rho, t = rng.uniform(0.0, 0.3), rng.uniform(0.0, math.pi)
        s = complex(-side * rho * math.sin(t), yc - rho * math.cos(t))
    else:
        s = 0.98 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    try:
        return PolylineArc(tuple(verts)), s
    except DomainError:
        return None, s


def test_reflected_pole_branch_matches_mirror_loop():
    rng = np.random.default_rng(909)
    branches = {"inside_hull": 0, "outside_hull": 0}
    on_axis_poles = 0
    for _ in range(1000):
        arc, s = star_instance(rng)
        # The two tests agree for s off the mirror image J^. On J^ (the
        # boundary of the filled region) neither winding number is defined.
        if arc is None or distance_to(arc, -s.conjugate()) <= 1e-10:
            continue
        try:
            sel = arc_constant(s, arc)
        except (DomainError, HypothesisViolationError, DegenerateGeometryError):
            continue
        assert (sel.branch == "inside_hull") == mirror_loop_winds(s, arc)
        branches[sel.branch] += 1
        on_axis_poles += s.real == 0.0
    assert min(branches.values()) >= 100 and on_axis_poles >= 60


# a lattice arc; the mirror of each pole lies exactly on it (edge or vertex)
_LATTICE_ARC = PolylineArc(
    (-0.25j, -0.125 + 0.0625j, -0.3125 + 0.0625j, -0.5 + 0.1875j, -0.5 + 0.5625j, 0.4375j)
)


@pytest.mark.parametrize(
    "s", [0.5 + 0.5625j, 0.25 + 0.5j, 0.375 + 0.53125j, 0.3125 + 0.0625j, 0.5 + 0.375j]
)
def test_pole_on_mirror_image_takes_inside_branch(s):
    # the winding number about -conj(s) is undefined there; the crossing rule
    # alone gave outside for the first three
    assert distance_to(_LATTICE_ARC, -s.conjugate()) == 0.0
    sel = arc_constant(s, _LATTICE_ARC)
    assert sel.branch == "inside_hull"
    assert sel.constant == minimize_over_q(sel.tau, "measure").value


def test_arc_on_the_axis_encloses_no_pole():
    # vertices within GEOMETRY_TOL of the axis; poles down to 2e-10 from it
    rng = np.random.default_rng(31)
    for _ in range(200):
        ys = np.sort(rng.uniform(-0.9, 0.9, int(rng.integers(2, 8))))
        xs = rng.uniform(-1e-12, 1e-12, ys.size) * (rng.uniform() < 0.5)
        arc = PolylineArc(tuple(xs + 1j * ys))
        for x in (2e-10, -3e-10, 1e-3, -0.5):
            s = complex(x, rng.uniform(-0.85, 0.85))
            try:
                sel = arc_constant(s, arc)
            except HypothesisViolationError as exc:
                assert "enclosed axis segment" in str(exc)
                continue
            assert sel.branch == "outside_hull"


# ---------------------------------------------------------------- verification


@pytest.mark.parametrize("family", [mobius_family, koebe_family])
def test_verify_outside_branch(family):
    rep = verify_arc_inequality(family(0.7), J_LEFT, analytic_constant=17.45)
    assert rep.branch == "outside_hull"
    assert rep.constant == 17.45
    assert rep.passed
    assert rep.ratio < 17.45


@pytest.mark.parametrize("family", [mobius_family, koebe_family])
def test_verify_inside_branch(family):
    rep = verify_arc_inequality(family(0.2), J_LEFT)
    assert rep.branch == "inside_hull"
    assert rep.passed


@pytest.mark.parametrize("family", [mobius_family, koebe_family])
def test_verify_arc_equal_to_geodesic(family):
    rep = verify_arc_inequality(family(0.5), J_AXIS)
    assert rep.branch == "outside_hull"
    assert rep.ratio == pytest.approx(1.0, rel=1e-12)
    assert rep.passed


def test_verify_with_self_computed_fallback_constant():
    fallback = minimize_over_q(1.0, "limit").value
    rep = verify_arc_inequality(mobius_family(0.7), J_LEFT, analytic_constant=fallback)
    assert rep.constant == pytest.approx(73.2502104, abs=1e-6)
    assert rep.passed


# --------------------------------------------------------------- normalization


def test_normalize_identity_when_already_on_axis():
    inst = normalize_to_axis(0.3 + 0j, -0.4j, 0.6j, J_LEFT)
    assert (inst.s, inst.z1, inst.z2) == (0.3 + 0j, -0.4j, 0.6j)
    assert inst.arc is J_LEFT


def test_normalize_lands_endpoints_on_axis():
    for _ in range(50):
        r = np.sqrt(RNG.uniform(0, 1, 2)) * 0.95
        th = RNG.uniform(0, 2 * np.pi, 2)
        z1, z2 = (complex(rr * np.cos(tt), rr * np.sin(tt)) for rr, tt in zip(r, th))
        if abs(z1 - z2) < 1e-3:
            continue
        inst = normalize_to_axis(0.0, z1, z2)
        assert abs(inst.z1.real) < 1e-10
        assert abs(inst.z2.real) < 1e-10
        assert inst.z2.imag > inst.z1.imag  # z2 lands above z1
        assert abs(inst.z1) < 1 and abs(inst.z2) < 1


def test_normalize_preserves_tau():
    s0, y1, y2 = 0.3 + 0.1j, -0.4, 0.6
    tau0 = math.tanh(hyp_dist_to_vertical_segment(s0, y1, y2))
    # scramble the normalized configuration by a known automorphism
    def t(z):
        return cmath.exp(0.8j) * vertical_translation(z, 0.35)

    inst = normalize_to_axis(t(s0), t(complex(0, y1)), t(complex(0, y2)))
    lo, hi = sorted((inst.z1.imag, inst.z2.imag))
    tau1 = math.tanh(hyp_dist_to_vertical_segment(inst.s, lo, hi))
    assert tau1 == pytest.approx(tau0, abs=1e-10)


# repr of each result; signed zeros included (the identity path turns -0.0
# into 0.0). The three moved configurations were restated when the map became
# one automorphism: each lies at least as close to a 50-digit mpmath
# evaluation of the map as the value recorded before (worst distance of a
# point 2.13e-16 -> 1.32e-16, 1.84e-16 -> 5.72e-17, 1.90e-16 -> 1.51e-16).
_NORMALIZED = [
    ((0.2 + 0.1j, -0.3 - 0.4j, 0.5 + 0.2j, (-0.3 - 0.4j, -0.6 + 0.0j, 0.5 + 0.2j)),
     "((-0.07728142758884177+0.19320572982081832j), (3.1207325297715755e-17-0.5082158643476735j), "
     "(7.484677412303493e-17+0.5082158643476734j), ((3.1207325297715755e-17-0.5082158643476735j), "
     "(-0.4664048203669544-0.4625659980186078j), (7.484677412303493e-17+0.5082158643476734j)))"),
    ((-0.45 + 0.3j, 0.7 - 0.1j, -0.2 + 0.6j, None),
     "((-0.34614097579518255+0.5408439574073302j), (-3.1300291499363e-17-0.6290159310351968j), "
     "(5.70093244453173e-17+0.6290159310351968j), None)"),
    ((complex(0.35, -0.0), complex(-0.0, -0.5), 0.25 + 0.5j,
      (complex(-0.0, -0.5), -0.4 + 0.1j, 0.25 + 0.5j)),
     "((0.2532560954470587+0.043924161023330785j), (-1.0293199962036881e-17-0.5220958866337441j), "
     "(-2.1504120224281558e-17+0.5220958866337443j), ((-1.0293199962036881e-17-0.5220958866337441j), "
     "(-0.4877332000015179-0.04907843299605075j), (-2.1504120224281558e-17+0.5220958866337443j)))"),
    ((complex(-0.0, 0.2), -0.4j, complex(-0.0, 0.6), None), "(0.2j, -0.4j, 0.6j, None)"),
]


@pytest.mark.parametrize("config, expect", _NORMALIZED)
def test_normalize_is_bit_identical_to_recorded_values(config, expect):
    s, z1, z2, verts = config
    inst = normalize_to_axis(s, z1, z2, None if verts is None else PolylineArc(verts))
    assert repr((inst.s, inst.z1, inst.z2, None if inst.arc is None else inst.arc.vertices)) == expect


def _normalize_exact(z1, z2, z):
    """The normalizing automorphism at ``z``, in 50-digit mpmath."""
    with mpmath.workdps(50):
        z1, z2, z = (mpmath.mpc(v.real, v.imag) for v in (z1, z2, z))
        w = (z2 - z1) / (1 - mpmath.conj(z1) * z2)
        h = w / (1 + mpmath.sqrt(1 - abs(w) ** 2))
        m = (h + z1) / (1 + mpmath.conj(z1) * h)
        u = (z2 - m) / (1 - mpmath.conj(m) * z2)
        return 1j * mpmath.conj(u) / abs(u) * (z - m) / (1 - mpmath.conj(m) * z)


def test_normalize_matches_mpmath():
    # 400 configurations in the disk of radius 0.9; every fourth has endpoints
    # 1e-12 to 1e-3 apart, where the rotation must still come out right
    rng = np.random.default_rng(1931)
    errors = []
    for k in range(400):
        r, t = np.sqrt(rng.uniform(0.0, 1.0, 3)) * 0.9, rng.uniform(0.0, 2.0 * math.pi, 3)
        s, z1, z2 = (complex(cmath.rect(a, b)) for a, b in zip(r, t))
        if k % 4 == 0:
            z2 = z1 + 10.0 ** rng.uniform(-12.0, -3.0) * cmath.exp(1j * rng.uniform(0.0, 6.0))
        inst = normalize_to_axis(s, z1, z2)
        for z, got in zip((s, z1, z2), (inst.s, inst.z1, inst.z2)):
            errors.append(float(abs(mpmath.mpc(got.real, got.imag) - _normalize_exact(z1, z2, z))))
    assert max(errors) <= 1e-14
    assert np.mean(errors) <= 4e-16


def test_normalize_takes_endpoints_one_ulp_apart():
    z1 = 0.21223016181186816 + 0.4042126915897184j
    z2 = complex(math.nextafter(z1.real, 1.0), math.nextafter(z1.imag, 1.0))
    inst = normalize_to_axis(0.1j, z1, z2, PolylineArc((z1, -0.3 + 0.1j, z2)))
    # the midpoint rounds onto z2, which lands on 0; the exact images are +-3.9e-17 i
    assert max(abs(inst.z1.real), abs(inst.z2.real)) <= 1e-30
    assert -1e-16 < inst.z1.imag < inst.z2.imag < 1e-16
    assert abs(inst.arc.vertices[1] - complex(_normalize_exact(z1, z2, -0.3 + 0.1j))) <= 1e-15


def test_normalize_rejects_bad_endpoints():
    with pytest.raises(DomainError):
        normalize_to_axis(0.0, 0.5, 0.5)
    with pytest.raises(DomainError):
        normalize_to_axis(0.0, 0.5, 1.5)
    with pytest.raises(DomainError):
        normalize_to_axis(0.0, complex(math.nan, 0.0), 0.5j)
    with pytest.raises(DomainError):
        normalize_to_axis(0.0, complex(1.7e308, 1.7e308), 0.5j)  # abs overflowed


@pytest.mark.parametrize(
    "s", [complex(math.nan, 0.2), complex(0.1, math.inf), 1.0 + 0j, 0.6 - 0.9j, 1.7e308 + 1.7e308j]
)
@pytest.mark.parametrize("z1, z2", [(-0.5j, 0.5j), (-0.3 - 0.4j, 0.5 + 0.2j)])
def test_normalize_rejects_a_pole_off_the_open_disk(s, z1, z2):
    # checked before anything is mapped: the division has no tagged infinity to fall back on
    with pytest.raises(DomainError, match="pole"):
        normalize_to_axis(s, z1, z2)


@pytest.mark.parametrize(
    "z1, z2",
    [
        # |image of z2| rounds to 1 (this raised a degenerate-map error) ...
        (0.5855794960167322 - 0.8106149849617666j, 0.3033775719525831 + 0.9528702383116855j),
        # ... or above 1 (this took the square root of a negative number)
        (0.5467041046394294 - 0.8372610385006396j, -0.8312151664824113 - 0.5559508494548926j),
    ],
)
def test_normalize_rejects_endpoints_that_round_onto_the_circle(z1, z2):
    # no hyperbolic midpoint exists for a pair whose image lies on the unit circle
    with pytest.raises(DomainError, match="unit circle"):
        normalize_to_axis(0.1j, z1, z2)


# ------------------------------------------------------------------- file I/O


def test_polyline_file_roundtrip(tmp_path):
    path = tmp_path / "instance.txt"
    path.write_text(
        "# demo instance\n"
        "pole 0.2 0.0\n"
        "0.0 -0.5\n"
        "-0.45 -0.25\n"
        "-0.45 0.25\n"
        "0.0 0.5\n"
    )
    pole, arc = load_polyline_instance(path)
    assert pole == 0.2 + 0j
    assert arc.vertices == J_LEFT.vertices


def test_polyline_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0.0 -0.5\n0.0 0.5\n")
    with pytest.raises(DomainError):
        load_polyline_instance(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(DomainError):
        load_polyline_instance(empty)
