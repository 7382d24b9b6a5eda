"""The four workloads: seeded inputs, the operation, its CLI form, and its checks.

An operation is what one CLI call does for one input. Every workload is a
fixed-size *round* of inputs drawn from the seed; a run repeats whole rounds,
so every run attempts the same operations in the same proportions.

Inputs are stratified (one draw per stratum, fixed strata) so that the cost
of a round depends little on the seed: the seed moves each input inside its
stratum, not the mix of cheap and expensive operations.

The parent process (``run.py``) generates inputs and checks outputs and never
imports ``polebounds``; the worker process (``worker.py``) runs the operations.
"""

from __future__ import annotations

import math
from dataclasses import asdict
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import numpy as np

import oracles

WORKLOADS = ("bound_table", "ratio_verify", "arc_suite", "wos_oracle")

#: The reference table of the paper: p -> (lower, angle_min, closed_form, measure_min).
REFERENCE_TABLE = {
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

#: Seeded poles of ``bound_table`` below / above sqrt(2)-1. With the eleven
#: published poles, 24 of 96 rows lack the angle column: the latency median
#: falls a third of the way into the rows that minimize twice, away from the
#: step between the two costs, and p90 near their top.
TABLE_BELOW, TABLE_ABOVE = 20, 65

RATIO_FAMILIES = ("mobius", "koebe")
RATIO_TOLS = (1e-9, 1e-11, 1e-12)
RATIO_STRATA = 24
RATIO_P_RANGE = (0.02, 0.99)

#: Vertex counts of ``arc_suite``, one per instance, cycled: 4 .. 64, geometric.
ARC_VERTEX_COUNTS = (4, 5, 6, 7, 8, 10, 12, 14, 17, 21, 25, 30, 36, 44, 53, 64)
ARC_ROUND = 192
ARC_FAMILIES = ("mobius", "koebe")
#: Strata of the pole's clearance (its distance to the arc, the mirror arc and
#: the axis segment), one per instance, cycled. The clearance sets how peaked
#: the integrands are, so it sets most of an instance's quadrature cost.
ARC_CLEARANCE_EDGES = (0.05, 0.063, 0.079, 0.1, 0.126, 0.159, 0.2)
#: The analytic-case constant, the best known value, applied on the outside branch.
ARC_ANALYTIC_CONSTANT = 17.45

WOS_ROUND = 96
WOS_WALKS = 5_000
WOS_EPS = 1e-6

#: Fresh-process CLI calls per run; the median is ``cli_call_ms``.
CLI_CALLS = 11

#: A quadrature result passes when it is within this many requested
#: tolerances of the exact length. The program's own error estimate is not
#: used as the limit: it is exceeded on about 0.4% of poles (see the README).
LENGTH_GATE = 1000.0

#: ``q_star`` is only determined to about 4e-8 relative (the minimum is flat).
Q_STAR_RTOL = 1e-6

#: Limit on the mean squared z-score over one round of WoS queries.
WOS_MEAN_Z2_LIMIT = 4.0


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _stratified(rng, lo: float, hi: float, n: int, log: bool = False) -> list[float]:
    if log:
        lo, hi = math.log(lo), math.log(hi)
    w = (hi - lo) / n
    xs = lo + w * (np.arange(n) + rng.uniform(0.0, 1.0, n))
    if log:
        xs = np.exp(xs)
    # Ten decimals survive the CLI's --grid parser unchanged.
    return [round(float(x), 10) for x in xs]


def _c(z) -> list[float]:
    return [float(z.real), float(z.imag)]


def _z(pair) -> complex:
    return complex(pair[0], pair[1])


# --------------------------------------------------------------------------
# Input generation (parent)


def generate(workload: str, seed: int, run_dir: Path) -> list[dict]:
    """The round of inputs for ``workload`` at ``seed``; writes instance files."""
    rng = _rng(seed, workload)
    if workload == "bound_table":
        below = _stratified(rng, 1e-3, oracles.ANGLE_MIN_P, TABLE_BELOW, log=True)
        above = _stratified(rng, oracles.ANGLE_MIN_P, 0.999, TABLE_ABOVE)
        return [{"p": p} for p in list(REFERENCE_TABLE) + below + above]
    if workload == "ratio_verify":
        inputs = []
        for family in RATIO_FAMILIES:
            for p in _stratified(rng, *RATIO_P_RANGE, RATIO_STRATA, log=True):
                inputs += [{"family": family, "p": p, "tol": tol} for tol in RATIO_TOLS]
        return inputs
    if workload == "arc_suite":
        run_dir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for i in range(ARC_ROUND):
            stratum = (i // 2) % (len(ARC_CLEARANCE_EDGES) - 1)
            inp = _arc_instance(
                rng,
                n=ARC_VERTEX_COUNTS[i % len(ARC_VERTEX_COUNTS)],
                inside=i % 2 == 0,
                off_axis=i % 3 == 0,
                clearance=ARC_CLEARANCE_EDGES[stratum : stratum + 2],
            )
            inp["family"] = ARC_FAMILIES[(i // 2) % 2]
            inp["file"] = str(run_dir / f"instance_{i:02d}.txt")
            with open(inp["file"], "w", encoding="utf-8") as fh:
                fh.write(inp.pop("text"))
            inputs.append(inp)
        return inputs
    if workload == "wos_oracle":
        return [_wos_query(rng) for _ in range(WOS_ROUND)]
    raise ValueError(f"unknown workload {workload!r}")


def _wos_query(rng) -> dict:
    # Drawn like the Monte Carlo acceptance criterion.
    p = float(rng.uniform(0.1, 0.95))
    center, radius = (1.0 + p * p) / (2.0 * p), (1.0 - p * p) / (2.0 * p)
    while True:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.2, 3.0))
        if abs(z + center) - radius > 1e-3:
            break
    a = math.exp(rng.uniform(-1.0, 1.0))
    b = a * math.exp(rng.uniform(0.3, 3.0))
    return {"z": _c(z), "a": a, "b": b, "p": p, "seed": int(rng.integers(1, 2**31))}


def _is_simple(verts) -> bool:
    """No two non-adjacent segments of the polyline meet (orientation tests)."""
    v = np.asarray(verts, dtype=complex)
    a, b = v[:-1], v[1:]

    def orient(p, q, r):
        return (q.real - p.real) * (r.imag - p.imag) - (q.imag - p.imag) * (r.real - p.real)

    A, B = a[:, None], b[:, None]
    C, D = a[None, :], b[None, :]
    d1, d2 = orient(C, D, A), orient(C, D, B)
    d3, d4 = orient(A, B, C), orient(A, B, D)
    cross = (d1 * d2 <= 0.0) & (d3 * d4 <= 0.0)
    n = len(a)
    i, j = np.indices((n, n))
    return not bool(np.any(cross & (j >= i + 2)))


def _arc_instance(rng, n: int, inside: bool, off_axis: bool, clearance: tuple) -> dict:
    """A star-shaped simple polyline from the bottom to the top of the axis.

    The vertices sit at strictly decreasing angles in (pi/2, 3 pi/2) around a
    centre on the axis, so the polyline is simple and lies left of the axis
    except at its endpoints. Inside-branch poles are mirror images of points
    inside the star region; outside-branch poles lie beyond the polyline or
    beyond its mirror image. The pole's distance to the arc, the mirror arc
    and the axis segment falls in ``clearance``. Off-axis instances are moved
    by a random disk automorphism; their endpoints are symmetric about 0 so
    the program's normalization maps them back onto the generated geometry.
    """
    while True:
        yc = float(rng.uniform(-0.1, 0.1))
        c = complex(0.0, yc)
        h_lo = float(rng.uniform(0.35, 0.8))
        h_hi = h_lo if off_axis else float(rng.uniform(0.35, 0.8))
        rmax = 0.92 - abs(yc)
        k = np.arange(n - 2)
        thetas = 1.5 * math.pi - math.pi * (k + rng.uniform(0.1, 0.9, n - 2)) / (n - 2)
        radii = rmax * rng.uniform(0.3, 0.95, n - 2)
        verts = [complex(0.0, -h_lo)]
        verts += [complex(c + r * complex(math.cos(t), math.sin(t))) for r, t in zip(radii, thetas)]
        verts.append(complex(0.0, h_hi))
        mirror = [-v.conjugate() for v in verts]
        pole = _arc_pole(rng, verts, mirror, c, h_lo, h_hi, inside, clearance)
        if pole is None:
            continue
        file_pole, file_verts = pole, verts
        if off_axis:
            moved = _move_off_axis(rng, pole, verts)
            if moved is None:
                continue
            file_pole, file_verts = moved
        lines = [f"pole {file_pole.real!r} {file_pole.imag!r}"]
        lines += [f"{v.real!r} {v.imag!r}" for v in file_verts]
        return {
            "n": n,
            "off_axis": off_axis,
            "pole": _c(pole),
            "vertices": [_c(v) for v in verts],
            "y_lo": -h_lo,
            "y_hi": h_hi,
            "text": "\n".join(lines) + "\n",
        }


def _arc_pole(rng, verts, mirror, c, h_lo, h_hi, inside, clearance):
    """A pole on the requested branch whose clearance lies in ``clearance``, or None."""
    lo, hi = clearance
    segments = [(a, b) for path in (verts, mirror) for a, b in zip(path, path[1:])]
    segments.append((complex(0.0, -h_lo), complex(0.0, h_hi)))
    a = np.array([seg[0] for seg in segments])[None, :]
    d = np.array([seg[1] - seg[0] for seg in segments])[None, :]
    v = np.array(verts)
    for _ in range(8):
        k = rng.integers(0, len(verts) - 1, 64)
        on_arc = v[k] + rng.uniform(0.0, 1.0, 64) * (v[k + 1] - v[k])
        if inside:
            s = -np.conj(c + rng.uniform(0.25, 0.8, 64) * (on_arc - c))
        else:
            s = c + rng.uniform(1.15, 1.8, 64) * (on_arc - c)
            s = np.where(rng.uniform(size=64) < 0.5, -np.conj(s), s)
        w = s[:, None]
        t = np.clip(((w - a) * np.conj(d)).real / np.abs(d) ** 2, 0.0, 1.0)
        clear = np.abs(w - (a + t * d)).min(axis=1)
        ok = np.flatnonzero((np.abs(s) < 0.9) & (clear >= lo) & (clear < hi))
        if ok.size:
            return complex(s[ok[0]])
    return None


def _move_off_axis(rng, pole, verts):
    a = float(rng.uniform(0.1, 0.35)) * complex(*_unit(rng))
    rot = complex(*_unit(rng))
    phi = lambda z: rot * (z - a) / (1.0 - a.conjugate() * z)
    moved = [phi(v) for v in verts]
    if not _is_simple(moved):
        return None
    return phi(pole), moved


def _unit(rng):
    t = float(rng.uniform(0.0, 2.0 * math.pi))
    return math.cos(t), math.sin(t)


# --------------------------------------------------------------------------
# The operation (worker)


def call(workload: str, pb, inp: dict, wrap_family=None):
    """One operation: the library calls that one CLI call makes for ``inp``.

    ``wrap_family`` (traced runs only) replaces the test function that the
    operation passes to the program, to count its derivative evaluations.
    """
    if workload == "bound_table":
        return pb.table_rows([inp["p"]])[0]
    if workload == "ratio_verify":
        f = pb.FAMILIES[inp["family"]](inp["p"])
        if wrap_family:
            f = wrap_family(f)
        return pb.verify_inequality(f, inp["p"], inp["tol"])
    if workload == "arc_suite":
        pole, arc = pb.load_polyline_instance(inp["file"])
        z1, z2 = arc.endpoints
        inst = pb.normalize_to_axis(pole, z1, z2, arc)
        f = pb.FAMILIES[inp["family"]](inst.s)
        if wrap_family:
            f = wrap_family(f)
        return inst, pb.verify_arc_inequality(f, inst.arc)
    if workload == "wos_oracle":
        z = _z(inp["z"])
        est = pb.wos_harmonic_measure(
            z, inp["a"], inp["b"], inp["p"], n_walks=WOS_WALKS, eps=WOS_EPS, seed=inp["seed"]
        )
        return est, pb.hm_omega1(z, inp["a"], inp["b"], inp["p"])
    raise ValueError(f"unknown workload {workload!r}")


def to_record(workload: str, result) -> dict:
    """The operation's result as plain JSON data."""
    if workload == "bound_table":
        return asdict(result)
    if workload == "ratio_verify":
        rec = asdict(result)
        rec["bound"] = result.bound.value
        rec["q_star"] = result.bound.q_star
        rec["evaluations"] = result.bound.evaluations
        return rec
    if workload == "arc_suite":
        inst, rep = result
        rec = asdict(rep)
        rec["s"] = _c(inst.s)
        rec["vertices"] = [_c(v) for v in inst.arc.vertices]
        return rec
    est, value = result
    rec = asdict(est)
    rec["value"] = value
    return rec


# --------------------------------------------------------------------------
# The CLI form of an operation


def cli_argv(workload: str, inp: dict) -> list[str]:
    if workload == "bound_table":
        return ["table", "--p", repr(inp["p"]), "--format", "json"]
    if workload == "ratio_verify":
        p = repr(inp["p"])
        return ["verify", "--family", inp["family"], f"--grid={p}:{p}:1",
                "--tol", repr(inp["tol"]), "--format", "json"]
    if workload == "arc_suite":
        return ["arc", "--file", inp["file"], "--family", inp["family"], "--format", "json"]
    z = inp["z"]
    return ["harmonic", f"--z={z[0]!r},{z[1]!r}", "--a", repr(inp["a"]), "--b", repr(inp["b"]),
            "--p", repr(inp["p"]), "--wos", str(WOS_WALKS), "--eps", repr(WOS_EPS),
            "--seed", str(inp["seed"]), "--format", "json"]


def cli_inputs(inputs: list[dict]) -> list[int]:
    """Indices of the inputs used for CLI calls: spread evenly over the round."""
    return [k * len(inputs) // CLI_CALLS for k in range(CLI_CALLS)]


def _round3(x):
    if x is None:
        return None
    return float(Decimal(repr(x)).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP))


def expected_cli_record(workload: str, inp: dict, rec: dict) -> dict:
    """What the CLI's JSON output must hold, built from the library record."""
    if workload == "bound_table":
        return {"p": rec["p"], "lower": _round3(rec["lower"]), "angle_min": _round3(rec["angle_min"]),
                "closed_form": _round3(rec["closed_form"]), "measure_min": _round3(rec["measure_min"])}
    if workload == "ratio_verify":
        keys = ("p", "length_i1", "length_tminus", "ratio", "bound", "passed")
        return {"family": rec["function_id"], **{k: rec[k] for k in keys}}
    if workload == "arc_suite":
        keys = ("branch", "constant", "tau", "length_geodesic", "length_arc", "ratio", "passed")
        return {"family": rec["function_id"], "pole_re": rec["s"][0], "pole_im": rec["s"][1],
                **{k: rec[k] for k in keys}}
    return {"z_re": inp["z"][0], "z_im": inp["z"][1], "a": inp["a"], "b": inp["b"], "p": inp["p"],
            "value": rec["value"], "wos_mean": rec["mean"], "wos_stderr": rec["stderr"],
            "wos_used": rec["n_used"], "wos_capped": rec["n_capped"]}


# --------------------------------------------------------------------------
# Checks against the oracles (parent)


class Checker:
    """Collects failed checks and the quadrature-estimate underruns of one round."""

    def __init__(self):
        self.failures: list[str] = []
        self.estimate_exceeded = 0
        self.inside_branch = 0
        self.wos_z2: list[float] = []
        self._minima: dict = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def minimum(self, p: float, kind: str):
        key = (p, kind)
        if key not in self._minima:
            self._minima[key] = oracles.mp_minimum(p, kind)
        return self._minima[key]

    def length(self, got: float, err: float, exact: float, tol: float, what: str) -> None:
        diff = abs(got - exact)
        self.expect(diff <= LENGTH_GATE * tol, f"{what}: |{got!r} - {exact!r}| > {LENGTH_GATE:g} tol")
        if diff > err + 64.0 * oracles.EPS * exact:
            self.estimate_exceeded += 1

    def bound_min(self, got: float, p: float, kind: str, what: str) -> None:
        value, _, cond = self.minimum(p, kind)
        rel = abs(got - value) / value
        self.expect(rel <= oracles.min_value_tolerance(cond), f"{what}: {kind} min {got!r} vs mpmath {value!r}")


def check(workload: str, inputs: list[dict], records: list[dict]) -> Checker:
    ck = Checker()
    one = {"bound_table": _check_bound_table, "ratio_verify": _check_ratio_verify,
           "arc_suite": _check_arc_suite, "wos_oracle": _check_wos_oracle}[workload]
    for inp, rec in zip(inputs, records):
        if rec is not None:  # None: the operation failed every time (counted as failed)
            one(ck, inp, rec)
    if workload == "wos_oracle":
        mean_z2 = sum(ck.wos_z2) / len(ck.wos_z2)
        ck.expect(mean_z2 <= WOS_MEAN_Z2_LIMIT, f"wos: mean z^2 {mean_z2:.3f} > {WOS_MEAN_Z2_LIMIT}")
    return ck


def _check_bound_table(ck: Checker, inp: dict, rec: dict) -> None:
    p = inp["p"]
    what = f"table p={p!r}"
    ck.expect(rec["p"] == p, f"{what}: wrong p")
    ref = REFERENCE_TABLE.get(p)
    if ref is not None:
        lb, ang, closed, meas = ref
        ck.expect(abs(rec["lower"] - lb) <= 5e-3, f"{what}: lower vs paper")
        ck.expect(abs(rec["measure_min"] - meas) <= 5e-3, f"{what}: measure vs paper")
        ck.expect(abs(rec["closed_form"] - closed) <= (5e-2 if p == 0.1 else 5e-3), f"{what}: closed vs paper")
        if ang is None:
            ck.expect(rec["angle_min"] is None, f"{what}: angle column should be empty")
        else:
            ck.expect(abs(rec["angle_min"] - ang) <= (0.5 if p == 0.5 else 5e-3), f"{what}: angle vs paper")
    ck.expect(rec["lower"] <= rec["measure_min"] <= rec["closed_form"], f"{what}: ordering lower/measure/closed")
    ck.expect(abs(rec["lower"] / oracles.lower_bound(p) - 1.0) <= 16 * oracles.EPS, f"{what}: lower bound")
    ck.expect(abs(rec["closed_form"] / oracles.closed_form_bound(p) - 1.0) <= 16 * oracles.EPS,
              f"{what}: closed form")
    ck.bound_min(rec["measure_min"], p, "measure", what)
    if p > oracles.ANGLE_MIN_P:
        ck.expect(rec["angle_min"] is not None, f"{what}: angle column missing")
        if rec["angle_min"] is not None:
            ck.expect(rec["measure_min"] <= rec["angle_min"], f"{what}: measure > angle")
            ck.bound_min(rec["angle_min"], p, "angle", what)
    else:
        ck.expect(rec["angle_min"] is None, f"{what}: angle column below sqrt(2)-1")


def _check_ratio_verify(ck: Checker, inp: dict, rec: dict) -> None:
    p, tol, family = inp["p"], inp["tol"], inp["family"]
    what = f"verify {family} p={p!r} tol={tol:g}"
    if family == "mobius":
        ei, et = oracles.mobius_i1_length(p), oracles.mobius_tminus_length(p)
    else:
        ei, et = oracles.koebe_i1_length(p), oracles.koebe_tminus_length(p)
    ck.length(rec["length_i1"], rec["error_i1"], ei, tol, f"{what}: len f(I1)")
    ck.length(rec["length_tminus"], rec["error_tminus"], et, tol, f"{what}: len f(T-)")
    ratio = rec["ratio"]
    ck.expect(ratio == rec["length_i1"] / rec["length_tminus"], f"{what}: ratio is not the length quotient")
    if family == "koebe":
        # This family attains the lower bound; the ratio may miss it by what
        # the two length gates allow, propagated to first order.
        lb = oracles.lower_bound(p)
        slack = ratio * LENGTH_GATE * tol * (1.0 / rec["length_i1"] + 1.0 / rec["length_tminus"])
        ck.expect(abs(ratio - lb) <= slack, f"{what}: ratio {ratio!r} vs lower bound {lb!r}")
    value, q_star, _ = ck.minimum(p, "measure")
    ck.bound_min(rec["bound"], p, "measure", what)
    ck.expect(abs(rec["q_star"] / q_star - 1.0) <= Q_STAR_RTOL, f"{what}: q* {rec['q_star']!r} vs {q_star!r}")
    ck.expect(rec["passed"] is True, f"{what}: verdict failed")
    ck.expect(rec["passed"] == (ei / et <= value), f"{what}: verdict differs from the exact one")


def _check_arc_suite(ck: Checker, inp: dict, rec: dict) -> None:
    what = f"arc {Path(inp['file']).name} {inp['family']}"
    s = _z(inp["pole"])
    verts = [_z(v) for v in inp["vertices"]]
    got_verts = [_z(v) for v in rec["vertices"]]
    got_s = _z(rec["s"])
    moved = max(abs(a - b) for a, b in zip(verts + [s], got_verts + [got_s]))
    ck.expect(len(got_verts) == len(verts) and moved <= 1e-12, f"{what}: normalization moved by {moved:.3g}")

    inside = oracles.point_in_polygon(-s.conjugate(), verts)
    ck.inside_branch += inside
    ck.expect(rec["branch"] == ("inside_hull" if inside else "outside_hull"), f"{what}: branch {rec['branch']}")
    tau = oracles.tau_closed_form(s, inp["y_lo"], inp["y_hi"])
    ck.expect(abs(rec["tau"] - tau) <= 1e-10, f"{what}: tau {rec['tau']!r} vs {tau!r}")
    if inside:
        ck.bound_min(rec["constant"], rec["tau"], "measure", what)
    else:
        ck.expect(rec["constant"] == ARC_ANALYTIC_CONSTANT, f"{what}: outside constant {rec['constant']!r}")

    tol = 1e-9
    y1, y2 = got_verts[0].imag, got_verts[-1].imag
    if inp["family"] == "mobius":
        lg = oracles.mobius_image_length(got_s, 1j * y1, 0.5j * (y1 + y2), 1j * y2)
        la = oracles.mobius_polyline_length(got_s, got_verts)
    else:
        fd = lambda z: oracles.koebe_derivative_abs(got_s, z)
        lg = oracles.quad_image_length(fd, 1j * y1, 1j * y2)[0]
        la = sum(oracles.quad_image_length(fd, a, b)[0] for a, b in zip(got_verts, got_verts[1:]))
    ck.length(rec["length_geodesic"], rec["error_geodesic"], lg, tol, f"{what}: len f(gamma)")
    ck.length(rec["length_arc"], rec["error_arc"], la, tol, f"{what}: len f(J)")
    ck.expect(rec["ratio"] == rec["length_geodesic"] / rec["length_arc"], f"{what}: ratio")
    ck.expect(rec["passed"] is True, f"{what}: verdict failed")
    ck.expect(rec["passed"] == (lg / la <= rec["constant"]), f"{what}: verdict differs from the exact one")


def _check_wos_oracle(ck: Checker, inp: dict, rec: dict) -> None:
    what = f"wos z={inp['z']} p={inp['p']:.4f}"
    omega, n = rec["value"], rec["n_used"]
    ck.expect(0.0 < omega < 1.0, f"{what}: exact measure {omega!r} outside (0, 1)")
    ck.expect(rec["n_capped"] == 0 and n == WOS_WALKS, f"{what}: {rec['n_capped']} capped walks")
    ck.expect(rec["n_walks"] == WOS_WALKS, f"{what}: wrong walk count")
    sigma = math.sqrt(omega * (1.0 - omega) / n)
    z = (rec["mean"] - omega) / sigma
    ck.wos_z2.append(z * z)
    limit = oracles.wos_limit(omega, n) / sigma
    ck.expect(abs(z) <= limit, f"{what}: z = {z:.2f} beyond limit {limit:.2f}")
