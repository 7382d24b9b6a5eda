"""Command-line interface: formats, exit codes, reproducibility."""

import argparse
import contextlib
import io
import json
import re
import shlex
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from polebounds import arcs, harmonic, lengths
from polebounds.cli import FAMILY_NAMES, main, parse_complex, parse_grid


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


#: How text, csv and json spell a non-finite float.
_NON_FINITE = re.compile(r"\b(nan|inf|NaN|Infinity)\b")


# -------------------------------------------------------------------- parsing


def test_parse_complex_forms():
    assert parse_complex("0,2") == 2j
    assert parse_complex("1+2j") == 1 + 2j
    assert parse_complex("-0.5,-0.25") == complex(-0.5, -0.25)


def test_parse_grid():
    assert parse_grid("0.1:0.9:0.1") == [pytest.approx(v) for v in
                                         (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
    # the end test's slack of 1e-12 once set the count: 1e288 points, refused
    assert parse_grid("0.5:0.5:1e-300") == [0.5]
    with pytest.raises(argparse.ArgumentTypeError, match="more than 10000 points"):
        parse_grid("0:1:1e-5")


@pytest.mark.parametrize(
    "grid",
    ["0.5:0.6:1e-300", "0:inf:0.5", "nan:1:0.1", "0:1:inf",
     "0.1:0.5", "a:b:c", "0.9:0.1:0.1", "0.1:0.9:0", "0.1:0.9:-0.1"],
)
def test_runaway_grid_exits_2(grid, capsys):
    # the first four looped forever, ran out of memory or gave [nan] before the
    # checks; the rest are malformed or run backwards
    code, text = run(["verify", "--family", "mobius", "--grid", grid])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "bad grid" in err and "Traceback" not in err


# --------------------------------------------------------------------- bounds


def test_bounds_measure_value():
    code, text = run(["bounds", "--p", "0.5", "--kind", "measure", "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert rec["value"] == pytest.approx(124.383, abs=5e-3)
    assert rec["q_star"] is not None


def test_bounds_lower_value():
    code, text = run(["bounds", "--p", "0.5", "--kind", "lb", "--format", "json"])
    assert code == 0
    assert json.loads(text)[0]["value"] == pytest.approx(3.534, abs=5e-4)


def test_bounds_angle_guard_exits_2(capsys):
    code, _ = run(["bounds", "--p", "0.3", "--kind", "angle"])
    assert code == 2
    assert "(sqrt(2)-1, 1)" in capsys.readouterr().err


def test_bounds_domain_error_names_range(capsys):
    code, _ = run(["bounds", "--p", "1.5", "--kind", "lb"])
    assert code == 2
    assert "(0, 1)" in capsys.readouterr().err


@pytest.mark.parametrize("p,kind", [("1e-160", "measure"), ("5e-324", "lb")])
def test_bounds_overflow_exits_2(p, kind, capsys):
    # 1e-160 blamed the bracket edge after numpy warnings; 5e-324 printed value=inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _assert_usage_error(["bounds", "--p", p, "--kind", kind], capsys)
    assert err.count("\n") == 1 and "overflows" in err


@pytest.mark.parametrize("p", ["nan", "inf", "5", "-1", "0"])
def test_bounds_limit_outside_unit_interval_exits_2(p, capsys):
    # each printed the p = 1 row and exited 0
    code, text = run(["bounds", "--p", p, "--kind", "limit"])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "(0, 1]" in err


@pytest.mark.parametrize("p", ["1", "0.5"])
def test_bounds_limit_row_is_pinned(p):
    # 40-digit mpmath: value 73.25021041897515431, q_star 5.5546494688013769
    code, text = run(["bounds", "--p", p, "--kind", "limit"])
    assert code == 0
    assert text == (
        "p=1.0  kind=limit  value=73.25021041897516  q_star=5.554649468801376  "
        "evaluations=53  bracket_lo=5.554649468801375  bracket_hi=5.554649468801376\n"
    )


def test_bounds_at_small_p_writes_nothing_to_stderr(capsys):
    # it warned of an arccot argument of 6.28e9, yet the value is accurate to 1.3e-16
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(["bounds", "--p", "1e-10", "--kind", "measure"])
    assert code == 0 and "value=3.43" in text
    assert capsys.readouterr().err == ""


# ---------------------------------------------------------------------- table


TABLE_TEXT = """\
     p     lower   angle_min closed_form measure_min
 0.999     3.142      73.421     114.485      73.250
  0.99     3.142      74.994     116.025      73.259
   0.9     3.150      95.491     134.471      74.211
   0.8     3.181     135.732     164.134      77.634
   0.7     3.243     221.806     210.271      84.836
   0.6     3.351     471.015     287.414      98.455
   0.5     3.534    1984.429     429.726     124.383
   0.4     3.848         ---     731.847     178.044
   0.3     4.424         ---    1528.574     310.576
   0.2     5.655         ---    4605.972     775.275
   0.1     9.503         ---   33408.930    4608.759
"""


def test_table_default_text_is_pinned():
    assert run(["table"]) == (0, TABLE_TEXT)


def test_table_default_text():
    code, text = run(["table"])
    assert code == 0
    lines = text.strip().splitlines()
    assert len(lines) == 12  # header + 11 rows
    assert "73.250" in lines[1]  # p = 0.999 measure column (unrounded: 73.25030)
    assert "---" in text  # angle column absent below threshold


@pytest.mark.parametrize("ps", [["0.01"], ["0.003", "0.5"], ["0.0001"]])
def test_table_text_keeps_cells_apart_at_small_p(ps):
    # the closed-form cells outgrow their default width below p ~ 0.02
    code, text = run(["table", "--p", *ps])
    assert code == 0
    lines = text.splitlines()
    header, rows = lines[0].split(), [line.split() for line in lines[1:]]
    assert header == ["p", "lower", "angle_min", "closed_form", "measure_min"]
    assert all(len(row) == 5 for row in rows)
    assert len({len(line) for line in lines}) == 1  # columns stay aligned


def test_table_csv_shape():
    code, text = run(["table", "--format", "csv"])
    assert code == 0
    lines = text.strip().splitlines()
    assert lines[0] == "p,lower,angle_min,closed_form,measure_min"
    assert len(lines) == 12
    assert all(line.count(",") == 4 for line in lines)


def test_table_json_round_trips():
    code, text = run(["table", "--p", "0.5", "0.3", "--format", "json"])
    assert code == 0
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True) == text.strip()
    assert parsed[0]["measure_min"] == pytest.approx(124.383, abs=5e-3)
    assert parsed[1]["angle_min"] is None


# --------------------------------------------------------------------- verify


def test_verify_single_pole():
    code, text = run(["verify", "--family", "mobius", "--p", "0.5", "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert rec["passed"] is True


def test_verify_grid_runs_all():
    code, text = run(["verify", "--family", "koebe", "--grid", "0.1:0.9:0.1",
                      "--format", "json"])
    assert code == 0
    recs = json.loads(text)
    assert len(recs) == 9
    assert all(r["passed"] for r in recs)


def test_verify_bad_family_exits_2():
    code, _ = run(["verify", "--family", "cubic", "--p", "0.5"])
    assert code == 2


# ------------------------------------------------------------------------ arc


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inside.txt"
    path.write_text(
        "pole 0.2 0.0\n0.0 -0.5\n-0.45 -0.25\n-0.45 0.25\n0.0 0.5\n"
    )
    return str(path)


def test_arc_inside_branch(instance_file):
    code, text = run(["arc", "--file", instance_file, "--family", "mobius",
                      "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert rec["branch"] == "inside_hull"
    assert rec["tau"] == pytest.approx(0.2, abs=1e-10)
    assert rec["passed"] is True


def test_arc_a1_override(tmp_path):
    path = tmp_path / "outside.txt"
    path.write_text("pole 0.7 0.0\n0.0 -0.5\n-0.45 -0.25\n-0.45 0.25\n0.0 0.5\n")
    code, text = run(["arc", "--file", str(path), "--family", "koebe",
                      "--a1-value", "20.0", "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert rec["branch"] == "outside_hull"
    assert rec["constant"] == 20.0


@pytest.mark.parametrize("value", ["inf", "nan", "0", "-5"])
def test_arc_a1_value_not_positive_and_finite_exits_2(tmp_path, capsys, value):
    # inf exited 0 with constant=inf passed=True; nan, 0 and -5 exited 1
    path = tmp_path / "outside.txt"
    path.write_text("pole 0.7 0.0\n0.0 -0.5\n-0.45 -0.25\n-0.45 0.25\n0.0 0.5\n")
    err = _assert_usage_error(
        ["arc", "--file", str(path), "--family", "mobius", "--a1-value", value], capsys
    )
    assert err.count("\n") == 1 and "analytic constant" in err


def test_arc_pole_near_the_arc_names_the_arc(tmp_path, capsys):
    path = tmp_path / "near.txt"
    path.write_text("pole 0.3000004 -0.1\n0.0 -0.5\n0.3 -0.1\n0.0 0.5\n")
    code, text = run(["arc", "--file", str(path), "--family", "mobius"])
    assert (code, text) == (2, "")
    assert capsys.readouterr().err == (
        "error: curve 'arc' passes within 4e-07 of the pole (0.3000004-0.1j)\n"
    )


def test_arc_missing_file_exits_2():
    code, _ = run(["arc", "--file", "/nonexistent.txt", "--family", "mobius"])
    assert code == 2



# ------------------------------------------------------------ verify/arc pins

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "scripts" / "instances"

#: ``verify`` and ``arc`` JSON at full precision, on the desk instances. A
#: change that moves a length in its last digits restates these on purpose.
#: 40-digit mpmath minima: 4608.7590452290840932 (p = 0.1) and
#: 775.27497316454439677 (the arc constant at tau = 0.20000000000000004).
PINNED_JSON = {
    ("verify", "mobius", "0.1"): (
        '[{"bound": 4608.759045229085, "family": "mobius", '
        '"length_i1": 29.42255348607469, "length_tminus": 2.7706242864900457, "p": 0.1, '
        '"passed": true, "ratio": 10.619467110550934}]\n'
    ),
    ("verify", "mobius", "0.5"): (
        '[{"bound": 124.38291845348793, "family": "mobius", '
        '"length_i1": 4.4285948711763625, "length_tminus": 1.7160029567820916, "p": 0.5, '
        '"passed": true, "ratio": 2.5807617951201074}]\n'
    ),
    ("verify", "mobius", "0.9"): (
        '[{"bound": 74.21105667429246, "family": "mobius", '
        '"length_i1": 1.8621805000186444, "length_tminus": 1.1070118233882467, "p": 0.9, '
        '"passed": true, "ratio": 1.6821685737005432}]\n'
    ),
    ("verify", "koebe", "0.1"): (
        '[{"bound": 4608.759045229085, "family": "koebe", '
        '"length_i1": 0.31104877758314786, "length_tminus": 0.03273054578185092, '
        '"p": 0.1, "passed": true, "ratio": 9.503317777109123}]\n'
    ),
    ("verify", "koebe", "0.5"): (
        '[{"bound": 124.38291845348793, "family": "koebe", '
        '"length_i1": 1.2566370614359175, "length_tminus": 0.35555555555555546, "p": 0.5, '
        '"passed": true, "ratio": 3.534291735288519}]\n'
    ),
    ("verify", "koebe", "0.9"): (
        '[{"bound": 74.21105667429246, "family": "koebe", '
        '"length_i1": 1.5621178940501734, "length_tminus": 0.4958601796727934, "p": 0.9, '
        '"passed": true, "ratio": 3.1503192998497656}]\n'
    ),
    ("arc", "mobius", "inside_branch"): (
        '[{"branch": "inside_hull", "constant": 775.2749731645442, "family": "mobius", '
        '"length_arc": 4.211401675981149, "length_geodesic": 11.902899496825315, '
        '"passed": true, "pole_im": 0.0, "pole_re": 0.2, "ratio": 2.8263510376393257, '
        '"tau": 0.20000000000000004}]\n'
    ),
    ("arc", "mobius", "outside_branch"): (
        '[{"branch": "outside_hull", "constant": 17.45, "family": "mobius", '
        '"length_arc": 1.417771868955329, "length_geodesic": 1.7721413885223471, '
        '"passed": true, "pole_im": 0.0, "pole_re": 0.7, "ratio": 1.2499481949998994, '
        '"tau": 0.7}]\n'
    ),
    ("arc", "koebe", "inside_branch"): (
        '[{"branch": "inside_hull", "constant": 775.2749731645442, "family": "koebe", '
        '"length_arc": 0.15741995587324714, "length_geodesic": 0.4961379239129591, '
        '"passed": true, "pole_im": 0.0, "pole_re": 0.2, "ratio": 3.1516837948579024, '
        '"tau": 0.20000000000000004}]\n'
    ),
    ("arc", "koebe", "outside_branch"): (
        '[{"branch": "outside_hull", "constant": 17.45, "family": "koebe", '
        '"length_arc": 0.5087109538247091, "length_geodesic": 0.8991235084009181, '
        '"passed": true, "pole_im": 0.0, "pole_re": 0.7, "ratio": 1.767454586226065, '
        '"tau": 0.7}]\n'
    ),
}


@pytest.mark.parametrize("command, family, arg", list(PINNED_JSON))
def test_verify_and_arc_json_are_pinned(command, family, arg, capsys):
    where = ["--p", arg] if command == "verify" else ["--file", str(INSTANCES / f"{arg}.txt")]
    code, text = run([command, "--family", family, *where, "--format", "json"])
    assert (code, text) == (0, PINNED_JSON[command, family, arg])
    assert capsys.readouterr().err == ""


# --------------------------------------------------------- text and csv pins

_INSIDE = str(INSTANCES / "inside_branch.txt")

#: Text and CSV bytes of one invocation per record shape: a missing value
#: (``---`` in text, an empty CSV cell), booleans, several rows, and the
#: harmonic record with the sandwich keys or with the walk keys.
PINNED_TEXT_CSV = [
    (["table", "--p", "0.3", "0.5", "--format", "csv"],
     "p,lower,angle_min,closed_form,measure_min\n"
     "0.3,4.424,,1528.574,310.576\n"
     "0.5,3.534,1984.429,429.726,124.383\n"),
    (["table", "--p", "0.3", "0.5", "--format", "text"],
     "     p     lower   angle_min closed_form measure_min\n"
     "   0.3     4.424         ---    1528.574     310.576\n"
     "   0.5     3.534    1984.429     429.726     124.383\n"),
    (["bounds", "--p", "0.5", "--kind", "lb", "--format", "csv"],
     "p,kind,value,q_star,evaluations,bracket_lo,bracket_hi\n"
     "0.5,lower,3.5342917352885173,,0,,\n"),
    (["bounds", "--p", "0.5", "--kind", "measure", "--format", "text"],
     "p=0.5  kind=measure  value=124.38291845348793  q_star=4.741121240615474  "
     "evaluations=53  bracket_lo=4.741121240615473  bracket_hi=4.741121240615474\n"),
    (["verify", "--family", "koebe", "--grid", "0.3:0.5:0.2", "--format", "csv"],
     "family,p,length_i1,length_tminus,ratio,bound,passed\n"
     "koebe,0.3,0.8646585285109523,0.1954291297975137,4.4244096538056255,"
     "310.5761529406248,True\n"
     "koebe,0.5,1.2566370614359175,0.35555555555555546,3.534291735288519,"
     "124.38291845348793,True\n"),
    (["arc", "--file", _INSIDE, "--family", "mobius", "--format", "csv"],
     "family,pole_re,pole_im,branch,constant,tau,length_geodesic,length_arc,ratio,passed\n"
     "mobius,0.2,0.0,inside_hull,775.2749731645442,0.20000000000000004,"
     "11.902899496825315,4.211401675981149,2.8263510376393257,True\n"),
    (["arc", "--file", _INSIDE, "--family", "mobius", "--format", "text"],
     "family=mobius  pole_re=0.2  pole_im=0.0  branch=inside_hull  "
     "constant=775.2749731645442  tau=0.20000000000000004  "
     "length_geodesic=11.902899496825315  length_arc=4.211401675981149  "
     "ratio=2.8263510376393257  passed=True\n"),
    (["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5", "--format", "csv"],
     "z_re,z_im,a,b,p,value,sandwich_lo,sandwich_hi\n"
     "0.0,2.0,1.0,4.0,0.5,0.18716704181099886,0.1490197886876318,0.5\n"),
    # the default seed fixes the uniform behind each walk step's direction
    (["harmonic", "--z", "0.3,2", "--a", "1", "--b", "4", "--p", "0.5", "--wos", "300",
      "--format", "csv"],
     "z_re,z_im,a,b,p,value,wos_mean,wos_stderr,wos_used,wos_capped\n"
     "0.3,2.0,1.0,4.0,0.5,0.21962802782261506,0.21333333333333335,0.023651795014489014,"
     "300,0\n"),
]


@pytest.mark.parametrize(
    "argv, expect", PINNED_TEXT_CSV,
    ids=["table-csv", "table-text", "bounds-lb-csv", "bounds-measure-text", "verify-csv",
         "arc-csv", "arc-text", "harmonic-sandwich-csv", "harmonic-wos-csv"],
)
def test_text_and_csv_are_pinned(argv, expect, capsys):
    assert run(argv) == (0, expect)
    assert capsys.readouterr().err == ""


# ------------------------------------------------------- options and defaults


def test_family_choices_are_the_built_in_families():
    # written out in the parser, which loads no quadrature
    assert FAMILY_NAMES == tuple(sorted(lengths.FAMILIES))


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (["verify", "--family", "mobius", "--p", "0.5"],
         ["--tol", repr(lengths.DEFAULT_LENGTH_TOL)]),
        (["arc", "--file", str(INSTANCES / "outside_branch.txt"), "--family", "koebe"],
         ["--a1-value", repr(arcs.DEFAULT_ANALYTIC_CONSTANT),
          "--tol", repr(lengths.DEFAULT_LENGTH_TOL)]),
        (["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5", "--wos", "200"],
         ["--eps", repr(harmonic.DEFAULT_WOS_EPS), "--seed", str(harmonic.DEFAULT_SEED)]),
    ],
    ids=["verify", "arc", "harmonic"],
)
def test_omitted_options_take_the_module_defaults(argv, defaults):
    for fmt in ("text", "json"):
        assert run([*argv, "--format", fmt]) == run([*argv, *defaults, "--format", fmt])


# ------------------------------------------------------------------- harmonic


def test_harmonic_exact_with_sandwich():
    code, text = run(["harmonic", "--z", "0,2", "--a", "1", "--b", "4",
                      "--p", "0.5", "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert rec["value"] == pytest.approx(0.18716704181099877, abs=1e-12)
    assert rec["sandwich_lo"] <= rec["value"] <= rec["sandwich_hi"]


def test_harmonic_with_wos_estimate():
    code, text = run(["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5",
                      "--wos", "20000", "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert abs(rec["wos_mean"] - rec["value"]) <= 3 * rec["wos_stderr"]


def test_harmonic_at_a_small_pole():
    # the cancelling Omega1 gap put 2i outside Omega1 and exited 2
    code, text = run(["harmonic", "--z", "0,2", "--a", "1", "--b", "4",
                      "--p", "1e-10", "--format", "json"])
    assert code == 0
    rec = json.loads(text)[0]
    assert (rec["value"], rec["sandwich_lo"]) == (9.549296583603863e-11, 5.617233284842936e-11)


def test_harmonic_off_axis_point_has_no_sandwich():
    code, text = run(["harmonic", "--z", "1,1", "--a", "1", "--b", "4",
                      "--p", "0.5", "--format", "json"])
    assert code == 0
    assert "sandwich_lo" not in json.loads(text)[0]


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_harmonic_non_finite_eps_exits_2(eps, capsys):
    # eps=inf absorbed every walk at its start and printed wos_mean=0.0
    code, text = run(["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5",
                      "--wos", "50", "--eps", eps])
    assert code == 2 and text == ""
    assert "eps must be positive and finite" in capsys.readouterr().err


def test_harmonic_eps_above_start_distance_exits_2(capsys):
    # a finite eps this large absorbed every walk at its start: wos_mean=0.0
    code, text = run(["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5",
                      "--wos", "10", "--eps", "1e300"])
    err = capsys.readouterr().err
    assert code == 2 and text == ""
    assert "start's distance" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "y, a, b", [("2", "1", "1e308"), ("1", "1e-300", "2"), ("1", "1e-310", "2")]
)
def test_harmonic_overflowing_sandwich_is_left_out(y, a, b, capsys):
    # b/a overflowed the cot bound, which printed sandwich_lo=nan, and later
    # exited 2 on a query whose measure is a normal double; the record is now
    # that of an off-segment z
    code, text = run(["harmonic", "--z", f"0,{y}", "--a", a, "--b", b, "--p", "0.5",
                      "--format", "json"])
    assert code == 0 and capsys.readouterr().err == ""
    rec = json.loads(text)[0]
    assert rec["value"] == harmonic.hm_omega1(complex(0.0, float(y)), float(a), float(b), 0.5)
    assert "sandwich_lo" not in rec and "sandwich_hi" not in rec


def test_harmonic_overflowing_modulus_exits_2(capsys):
    # abs(z) overflowed in the Omega1 membership test
    err = _assert_usage_error(
        ["harmonic", "--z", "1.7e308,1.7e308", "--a", "1", "--b", "2", "--p", "0.5"], capsys
    )
    assert err.count("\n") == 1 and "modulus that overflows" in err


def test_harmonic_pole_whose_inverse_overflows_exits_2(capsys):
    # 1/p overflowed in the excluded disk, which put z = 2i outside Omega1
    err = _assert_usage_error(
        ["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "1e-310"], capsys
    )
    assert err.count("\n") == 1 and "overflows at p=1e-310" in err


@pytest.mark.parametrize("p", ["2", "nan"])
def test_harmonic_pole_off_the_unit_interval_exits_2_naming_p(p, capsys):
    # a point below the axis was reported as "z must lie in Omega1"
    err = _assert_usage_error(
        ["harmonic", "--z", "0,-1", "--a", "1", "--b", "4", "--p", p], capsys
    )
    assert err == f"error: p must lie in the open interval (0, 1), got {float(p)!r}\n"


def test_arc_overflowing_modulus_exits_2(tmp_path, capsys):
    # abs(v) overflowed in the vertex check of PolylineArc
    path = tmp_path / "big.txt"
    path.write_text("pole 0.2 0.1\n0.0 -0.5\n1.7e308 1.7e308\n0.0 0.5\n")
    err = _assert_usage_error(["arc", "--family", "mobius", "--file", str(path)], capsys)
    assert err.count("\n") == 1 and f"{path}:3:" in err


def test_arc_closed_loop_exits_2(tmp_path, capsys):
    # a closed loop was accepted as simple, then rejected by the normalization
    # with "endpoints must be distinct"
    path = tmp_path / "loop.txt"
    path.write_text("pole 0.2 0.0\n0.0 -0.5\n-0.4 -0.2\n-0.4 0.2\n0.0 -0.5\n")
    err = _assert_usage_error(["arc", "--family", "mobius", "--file", str(path)], capsys)
    assert err == "error: polyline is not simple: segments cross\n"


def test_harmonic_lower_halfplane_exits_2():
    code, _ = run(["harmonic", "--z", "1,-1", "--a", "1", "--b", "4", "--p", "0.5"])
    assert code == 2


# -------------------------------------------------------------- reproducibility


def test_identical_invocations_are_byte_identical():
    argv = ["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5",
            "--wos", "5000", "--seed", "123", "--format", "json"]
    _, first = run(argv)
    _, second = run(argv)
    assert first == second


@pytest.mark.parametrize(
    "argv, expect",
    [
        (["--z", "0,2", "--p", "0.5", "--wos", "5000", "--seed", "123", "--format", "json"],
         '[{"a": 1.0, "b": 4.0, "p": 0.5, "sandwich_hi": 0.5, "sandwich_lo": 0.1490197886876318, '
         '"value": 0.18716704181099886, "wos_capped": 0, "wos_mean": 0.1792, '
         '"wos_stderr": 0.005423787606461005, "wos_used": 5000, "z_im": 2.0, "z_re": 0.0}]\n'),
        (["--z", "0.5,1.5", "--p", "0.3", "--wos", "3000"],
         "z_re=0.5  z_im=1.5  a=1.0  b=4.0  p=0.3  value=0.22970987344274257  "
         "wos_mean=0.23566666666666666  wos_stderr=0.007748717934576637  wos_used=3000  "
         "wos_capped=0\n"),
    ],
    ids=["json-on-axis", "text-off-axis"],
)
def test_harmonic_wos_output_is_pinned(argv, expect):
    # the walk imports numpy when it runs; a seed fixes the uniform behind each
    # step's direction, and so the output
    assert run(["harmonic", "--a", "1", "--b", "4", *argv]) == (0, expect)


def _readme_commands():
    """The one-line ``polebounds ...`` commands in the README's CLI and Scripts code blocks.

    Indented lines, such as the body of a shell ``for`` loop, are not one-line
    commands and are left out.
    """
    text = (ROOT / "README.md").read_text()
    commands = []
    for section in ("## CLI", "## Scripts"):
        body = text.split(f"\n{section}\n", 1)[1].split("\n## ", 1)[0]
        commands += [
            (section, shlex.split(line.split("#", 1)[0])[1:])
            for block in body.split("```")[1::2]
            for line in block.splitlines()
            if line.startswith("polebounds ")
        ]
    return commands


def test_readme_examples_exit_0(monkeypatch):
    # a renamed flag or a moved instance file fails here before a reader hits it
    commands = _readme_commands()
    assert {section for section, _ in commands} == {"## CLI", "## Scripts"}
    monkeypatch.chdir(ROOT)
    for _, argv in commands:
        assert run(argv)[0] == 0, argv


def test_format_env_var_default(monkeypatch):
    monkeypatch.setenv("POLEBOUNDS_FORMAT", "json")
    code, text = run(["bounds", "--p", "0.5", "--kind", "lb"])
    assert code == 0
    json.loads(text)  # parses: the env default applied


def test_format_env_var_rejects_unknown_value(monkeypatch, capsys):
    monkeypatch.setenv("POLEBOUNDS_FORMAT", "xml")
    code, text = run(["bounds", "--p", "0.5", "--kind", "lb"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err.startswith("error: $POLEBOUNDS_FORMAT")


# ------------------------------------------------- bad input: exit 2, no traceback


def _assert_usage_error(argv, capsys):
    code, _ = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_arc_non_numeric_header_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("pole a b\n0.0 -0.5\n-0.45 0.0\n0.0 0.5\n")
    err = _assert_usage_error(["arc", "--family", "mobius", "--file", str(path)], capsys)
    assert f"{path}:1:" in err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["pole", "vertex"])
@pytest.mark.parametrize("ends", [("0.0 -0.5", "0.0 0.5"), ("0.3 -0.4", "-0.2 0.6")])
def test_arc_non_finite_coordinate_exits_2(tmp_path, capsys, bad, where, ends):
    # a nan vertex of an on-axis instance reached "passes within nan of the
    # pole"; a nan pole named an internal class. The message is the parse error.
    pole = f"pole {bad} 0.1" if where == "pole" else "pole 0.2 0.1"
    vertex = f"-0.45 {bad}" if where == "vertex" else "-0.45 0.0"
    path = tmp_path / "bad.txt"
    path.write_text(f"{pole}\n{ends[0]}\n{vertex}\n{ends[1]}\n")
    err = _assert_usage_error(["arc", "--family", "mobius", "--file", str(path)], capsys)
    line, text = (1, pole) if where == "pole" else (3, vertex)
    assert err == f"error: {path}:{line}: expected two finite numbers, got {text!r}\n"


def test_arc_directory_exits_2(tmp_path, capsys):
    _assert_usage_error(["arc", "--family", "mobius", "--file", str(tmp_path)], capsys)


def test_arc_binary_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"pole 0.2 0.0\n\xd0\xff\n")
    _assert_usage_error(["arc", "--family", "mobius", "--file", str(path)], capsys)


def test_harmonic_unresolvable_angle_exits_2(capsys):
    # the measure is 1.0e-501, below every double; z = 1e-300j with [1, 4] exited 2 here
    # too, though its measure 1.99e-301 is a double (see test_harmonic_extreme_queries)
    _assert_usage_error(
        ["harmonic", "--z", "0,1e-300", "--a", "1e200", "--b", "2e200", "--p", "0.5"], capsys
    )


@pytest.mark.parametrize(
    "z,a,b,expect",
    [
        ("0,1e-300", "1", "4", 1.9894367886486917e-301),
        # psi(z) rounded to a real number: "z must lie in the open upper half-plane"
        ("1e20,1e20", "1", "2", 1.4691225516174954e-21),
        # psi(a) == psi(b) in double: "need a < b"
        ("0,1e-300", "1e-300", "2e-300", 0.10241638234956673),
    ],
)
def test_harmonic_extreme_queries(z, a, b, expect):
    # each exited 2; expect is mpmath's value at 700 digits
    code, text = run(["harmonic", "--z", z, "--a", a, "--b", b, "--p", "0.5", "--format", "json"])
    assert code == 0
    assert json.loads(text)[0]["value"] == pytest.approx(expect, rel=1e-14)


def test_harmonic_all_walks_capped_exits_2(monkeypatch, capsys):
    from polebounds import harmonic

    monkeypatch.setattr(harmonic, "WOS_STEP_CAP", 1)
    _assert_usage_error(
        ["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5", "--wos", "10"], capsys
    )


def test_harmonic_too_many_walks_exits_2(capsys):
    # numpy's "array is too big" ValueError escaped as a traceback (exit 1)
    err = _assert_usage_error(
        ["harmonic", "--z", "0,2", "--a", "1", "--b", "4", "--p", "0.5",
         "--wos", "1000000000000000000"], capsys
    )
    assert err.count("error:") == 1 and "at most" in err


_ARG = st.one_of(
    st.floats(-2.0, 2.0).map(repr),
    st.sampled_from(["0", "1", "0.5", "0.4142", "1e-300", "5e-324", "1e300", "1.7e308", "nan",
                     "inf", "-inf", "x", ""]),
)
_NUMBER = st.one_of(
    st.integers(-9, 9).map(lambda k: repr(k / 10)),
    st.floats(-1.5, 1.5).map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "1.7e308", "-0.0", "5e-324", "1_0", "0x1", "x"]),
)
_VERTEX = st.one_of(st.tuples(_NUMBER, _NUMBER).map(" ".join), st.just("1.7e308 1.7e308"))
_JUNK = st.one_of(
    st.sampled_from(["", "# comment", "pole", "pole 0.1", "1 2 3", "\t"]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
)
# mostly parseable files with endpoints on the axis, so the geometry runs too
_INSTANCE = st.tuples(
    st.tuples(st.just("pole"), _NUMBER, _NUMBER).map(" ".join),
    st.sampled_from(["0 -0.5", "0.0 -0.9", "0.3 -0.4"]),
    st.lists(st.one_of(_VERTEX, _JUNK), max_size=6),
    st.sampled_from(["0 0.5", "0.0 0.9", "-0.2 0.6"]),
).map(lambda t: [t[0], t[1], *t[2], t[3]])
# the desk arc with a pole on its outside branch (0.7) or inside it (0.2): these exit 0 or 1
_DESK = ["0.0 -0.5", "-0.45 -0.25", "-0.45 0.25", "0.0 0.5"]
_DESK_INSTANCE = st.sampled_from(["pole 0.7 0.0", "pole 0.2 0.0"]).map(lambda h: [h, *_DESK])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.one_of(_INSTANCE, _DESK_INSTANCE, st.lists(st.one_of(_VERTEX, _JUNK), max_size=6)),
       family=st.sampled_from(["mobius", "koebe"]),
       a1=st.one_of(st.just([]), _ARG.map(lambda v: ["--a1-value", v])),
       tol=st.one_of(st.just([]), _ARG.map(lambda v: ["--tol", v])))
# an infinite analytic constant was printed as constant=inf with exit 0
@example(lines=["pole 0.7 0.0", *_DESK], family="mobius", a1=["--a1-value", "inf"], tol=[])
def test_arc_file_fuzz_exits_cleanly(tmp_path, lines, family, a1, tol):
    path = tmp_path / "instance.txt"
    path.write_text("\n".join(lines), encoding="utf-8")
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["arc", "--family", family, "--file", str(path), *a1, *tol], out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 0 or not _NON_FINITE.search(out.getvalue())


_STEP = st.sampled_from(["0.1", "0.25", "0.5", "0", "-0.1", "1e-300", "inf", "nan"])
_FORMAT = st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]])
_BOUNDS = st.tuples(_ARG, st.sampled_from(["lb", "angle", "closed", "measure", "limit", "x"])).map(
    lambda t: ["bounds", "--p", t[0], "--kind", t[1]]
)
_TABLE = st.lists(_ARG, max_size=3).map(lambda ps: ["table", "--p", *ps])
_VERIFY = st.tuples(
    st.sampled_from(["mobius", "koebe"]),
    st.one_of(_ARG.map(lambda p: ["--p", p]),
              st.tuples(_ARG, _ARG, _STEP).map(lambda g: ["--grid", ":".join(g)])),
    st.one_of(st.just([]), st.sampled_from(["1e-9", "1e-300", "0", "-1", "nan", "inf"])
              .map(lambda t: ["--tol", t])),
).map(lambda t: ["verify", "--family", t[0], *t[1], *t[2]])
_HARMONIC = st.tuples(
    st.one_of(st.sampled_from(["0,2", "1+1j", "-2,0.5", "1.7e308,1.7e308"]),
              st.tuples(_ARG, _ARG).map(",".join)),
    st.one_of(st.sampled_from(["0.5", "1"]), _ARG),
    st.one_of(st.sampled_from(["4", "20"]), _ARG),
    st.one_of(st.sampled_from(["0.3", "0.5", "0.9"]), _ARG),
    st.integers(-2, 50).map(str),
    st.sampled_from(["1e-6", "1e-3", "0.5", "0", "-1", "5e-324", "nan", "inf"]),
    st.integers(-2, 2**64).map(str),
).map(lambda t: ["harmonic", "--z", t[0], "--a", t[1], "--b", t[2], "--p", t[3],
                 "--wos", t[4], "--eps", t[5], "--seed", t[6]])


@settings(max_examples=150, deadline=None)
@given(argv=st.one_of(_BOUNDS, _TABLE, _VERIFY, _HARMONIC), fmt=_FORMAT)
# the first step overflowed to nan: the walk spun for 20 s to the step cap and exited 2
@example(argv=["harmonic", "--z", "0.0,1.7e308", "--a", "0.5", "--b", "4", "--p", "0.3",
               "--wos", "1", "--eps", "1e-6", "--seed", "1"], fmt=[])
def test_cli_fuzz_exits_cleanly(argv, fmt):
    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + fmt, out=out)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert code != 0 or not _NON_FINITE.search(out.getvalue())
