"""Command-line front-end: bound evaluation, the comparison table, verification runs.

Subcommands
-----------
* ``bounds``    -- evaluate one bound at one pole location.
* ``table``     -- the four-bound comparison table over a list of poles.
* ``verify``    -- empirical length-ratio checks for the built-in families.
* ``arc``       -- arc-vs-geodesic check for a polyline instance from a file.
* ``harmonic``  -- harmonic-measure queries, optionally with the Monte Carlo oracle.

Output is ``text``, ``json`` or ``csv`` (flag ``--format``, default from the
``POLEBOUNDS_FORMAT`` environment variable). Exit codes: 0 success, 1 a
verification failed, 2 usage or domain error.

Each subcommand imports the modules it runs when it runs. ``bounds`` and
``table`` load ``bounds`` (with ``conformal`` and ``errors``); ``verify``
loads ``lengths`` on top of those, and ``arc`` ``arcs`` and ``hyperbolic``
as well; ``harmonic`` loads ``harmonic`` and ``hyperbolic`` but not
``bounds``. Numpy comes with ``verify``, ``arc`` and ``harmonic --wos``
alone, and ``emit`` imports ``json`` or ``csv`` for its format alone. The
defaults of ``--tol``, ``--a1-value``, ``--eps`` and ``--seed`` are
constants of those modules, so the subcommand fills them in, not the parser.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DomainError, PoleBoundsError

FORMAT_ENV_VAR = "POLEBOUNDS_FORMAT"
FORMATS = ("text", "json", "csv")
#: ``sorted(lengths.FAMILIES)``, written out so that the parser needs no numpy.
FAMILY_NAMES = ("koebe", "mobius")

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2

#: Most points a ``--grid`` may hold, so that the list it builds stays small.
_MAX_GRID_POINTS = 10_000


def parse_complex(text: str) -> complex:
    """Accept ``RE,IM`` or any Python complex literal such as ``1+2j``."""
    if "," in text:
        re_s, im_s = text.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(text.replace(" ", ""))


def parse_grid(text: str) -> list[float]:
    """Parse ``start:stop:step`` into an inclusive list of at most ``_MAX_GRID_POINTS`` values."""
    try:
        start, stop, step = (float(v) for v in text.split(":"))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: use start:stop:step") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: need start <= stop, step > 0")
    steps = (stop - start) / step
    if steps >= _MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: more than {_MAX_GRID_POINTS} points")
    # start + k*step never decreases in k, so the kept values are a prefix; a
    # step below the rounding of start repeats a value, which is kept once.
    grid = (start + k * step for k in range(int(steps) + 2))
    return list(dict.fromkeys(round(v, 12) for v in grid if v <= stop + 1e-12))


def emit(records: list[dict], fmt: str, out) -> None:
    """Write a list of flat records, which share one key order, in the requested format.

    A missing value (``None``) is written as ``---`` in text, as an empty cell
    in CSV and as ``null`` in JSON.
    """
    if fmt == "json":
        import json

        out.write(json.dumps(records, sort_keys=True))
        out.write("\n")
    elif fmt == "csv":
        import csv

        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(records[0])
        writer.writerows(rec.values() for rec in records)
    else:
        for rec in records:
            out.write("  ".join(f"{k}={'---' if v is None else v}" for k, v in rec.items()))
            out.write("\n")


def _bound_record(res) -> dict:
    return {
        "p": res.p,
        "kind": res.kind,
        "value": res.value,
        "q_star": res.q_star,
        "evaluations": res.evaluations,
        "bracket_lo": None if res.bracket is None else res.bracket[0],
        "bracket_hi": None if res.bracket is None else res.bracket[1],
    }


def cmd_bounds(args, out) -> int:
    from . import bounds

    if args.kind == "lb":
        res = bounds.BoundResult(p=args.p, kind="lower", value=bounds.lower_bound(args.p))
    elif args.kind == "closed":
        res = bounds.BoundResult(p=args.p, kind="closed", value=bounds.closed_form_bound(args.p))
    else:
        res = bounds.minimize_over_q(args.p, args.kind)
    emit([_bound_record(res)], args.format, out)
    return EXIT_OK


def cmd_table(args, out) -> int:
    from . import bounds

    p_list = args.p if args.p else list(bounds.DEFAULT_TABLE_P)
    records = [
        {
            "p": r.p,
            "lower": bounds.round_half_up(r.lower),
            "angle_min": None if r.angle_min is None else bounds.round_half_up(r.angle_min),
            "closed_form": bounds.round_half_up(r.closed_form),
            "measure_min": bounds.round_half_up(r.measure_min),
        }
        for r in bounds.table_rows(p_list)
    ]
    if args.format != "text":
        emit(records, args.format, out)
        return EXIT_OK
    lines = [list(records[0])]
    for rec in records:
        p, *values = rec.values()
        lines.append([f"{p:g}", *("---" if v is None else f"{v:.3f}" for v in values)])
    # a column widens past its default so that one space precedes its widest cell
    widths = [
        max(w, max(len(line[j]) for line in lines) + (j > 0))
        for j, w in enumerate((6, 10, 12, 12, 12))
    ]
    for line in lines:
        out.write("".join(c.rjust(w) for c, w in zip(line, widths)) + "\n")
    return EXIT_OK


def cmd_verify(args, out) -> int:
    from . import lengths

    family = lengths.FAMILIES[args.family]
    p_values = args.grid if args.grid else [args.p]
    tol = lengths.DEFAULT_LENGTH_TOL if args.tol is None else args.tol
    records = []
    all_passed = True
    for p in p_values:
        rep = lengths.verify_inequality(family(p), p, tol)
        all_passed &= rep.passed
        records.append(
            {
                "family": rep.function_id,
                "p": rep.p,
                "length_i1": rep.length_i1,
                "length_tminus": rep.length_tminus,
                "ratio": rep.ratio,
                "bound": rep.bound.value,
                "passed": rep.passed,
            }
        )
    emit(records, args.format, out)
    return EXIT_OK if all_passed else EXIT_VERIFICATION_FAILED


def cmd_arc(args, out) -> int:
    from . import arcs, lengths

    tol = lengths.DEFAULT_LENGTH_TOL if args.tol is None else args.tol
    a1_value = arcs.DEFAULT_ANALYTIC_CONSTANT if args.a1_value is None else args.a1_value
    pole, arc = arcs.load_polyline_instance(args.file)
    z1, z2 = arc.endpoints
    inst = arcs.normalize_to_axis(pole, z1, z2, arc)
    f = lengths.FAMILIES[args.family](inst.s)
    rep = arcs.verify_arc_inequality(f, inst.arc, tol, a1_value)
    emit(
        [
            {
                "family": rep.function_id,
                "pole_re": inst.s.real,
                "pole_im": inst.s.imag,
                "branch": rep.branch,
                "constant": rep.constant,
                "tau": rep.tau,
                "length_geodesic": rep.length_geodesic,
                "length_arc": rep.length_arc,
                "ratio": rep.ratio,
                "passed": rep.passed,
            }
        ],
        args.format,
        out,
    )
    return EXIT_OK if rep.passed else EXIT_VERIFICATION_FAILED


def cmd_harmonic(args, out) -> int:
    from . import harmonic

    z = args.z
    value = harmonic.hm_omega1(z, args.a, args.b, args.p)
    rec = {
        "z_re": z.real,
        "z_im": z.imag,
        "a": args.a,
        "b": args.b,
        "p": args.p,
        "value": value,
    }
    if z.real == 0.0 and args.a <= z.imag <= args.b:
        try:
            cot = harmonic.measure_cot_bound(args.p, args.b / args.a)
        except DomainError:  # the bound overflows a double: the record of an off-segment z
            pass
        else:
            rec["sandwich_lo"] = harmonic.arccot(cot) / math.pi
            rec["sandwich_hi"] = 0.5
    if args.wos:
        eps = harmonic.DEFAULT_WOS_EPS if args.eps is None else args.eps
        seed = harmonic.DEFAULT_SEED if args.seed is None else args.seed
        est = harmonic.wos_harmonic_measure(
            z, args.a, args.b, args.p, n_walks=args.wos, eps=eps, seed=seed
        )
        rec["wos_mean"] = est.mean
        rec["wos_stderr"] = est.stderr
        rec["wos_used"] = est.n_used
        rec["wos_capped"] = est.n_capped
    emit([rec], args.format, out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polebounds",
        description="Length-distortion bounds for univalent disk maps with a pole.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=FORMATS,
            default=os.environ.get(FORMAT_ENV_VAR, "text"),
            help=f"output format (default from ${FORMAT_ENV_VAR}, else text)",
        )

    p_bounds = sub.add_parser("bounds", help="evaluate one bound at one pole location")
    p_bounds.add_argument("--p", type=float, required=True)
    p_bounds.add_argument(
        "--kind", choices=("lb", "angle", "closed", "measure", "limit"), required=True
    )
    add_format(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_table = sub.add_parser("table", help="four-bound comparison table")
    p_table.add_argument("--p", type=float, nargs="*", default=None)
    add_format(p_table)
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="length-ratio checks for a built-in family")
    p_verify.add_argument("--family", choices=FAMILY_NAMES, required=True)
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--p", type=float)
    group.add_argument("--grid", type=parse_grid, help="pole grid as start:stop:step")
    p_verify.add_argument("--tol", type=float)
    add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_arc = sub.add_parser("arc", help="arc-vs-geodesic check for a polyline file")
    p_arc.add_argument("--file", required=True)
    p_arc.add_argument("--family", choices=FAMILY_NAMES, required=True)
    p_arc.add_argument("--a1-value", type=float, help="analytic-case constant for the outside branch")
    p_arc.add_argument("--tol", type=float)
    add_format(p_arc)
    p_arc.set_defaults(func=cmd_arc)

    p_hm = sub.add_parser("harmonic", help="harmonic-measure query in Omega1")
    p_hm.add_argument("--z", type=parse_complex, required=True, help="point as RE,IM or 1+2j")
    p_hm.add_argument("--a", type=float, required=True)
    p_hm.add_argument("--b", type=float, required=True)
    p_hm.add_argument("--p", type=float, required=True)
    p_hm.add_argument("--wos", type=int, default=0, help="add a Monte Carlo estimate with N walks")
    p_hm.add_argument("--eps", type=float)
    p_hm.add_argument("--seed", type=int)
    add_format(p_hm)
    p_hm.set_defaults(func=cmd_harmonic)

    return parser


def main(argv=None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if args.format not in FORMATS:
        # argparse checks an explicit --format, not the default from the environment.
        print(f"error: ${FORMAT_ENV_VAR} must be one of {FORMATS}, got {args.format!r}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args, out)
    except (PoleBoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
