"""Printed trig values against the plain-integer Taylor oracle.

The oracle (conftest.trig_floor and conftest.sin_round) shares no code
with madhava.  The contract it checks: the printed value is f(theta_t)
truncated toward zero at the scale, where theta_t is the angle the CLI
builds.  For --radians that is the given value; for --degrees it is
degrees * pi, with pi floored at scale + 2*ANGLE_DIGITS, over 180,
floored at scale + ANGLE_DIGITS.  A sine-table entry is sin(theta_t)
rounded half away from zero at the table scale, with theta_t built the
same way.

`trig addrule` prints sin or cos of theta_t(x) +- theta_t(y), the value
its rule equals, and `trig shift` the three-term formula on the exact
sin and cos of theta_t(u) and the exact --h, each truncated at the
scale.

The digest keys with rational exact values (sin 30, cos 60, sin^2 45
and the like) are checked with a wide oracle guard: theta_t sits just
below the exact angle, so f(theta_t) lies a hair off the rational value
and its truncation can end in ...999.  The strict xfails below (reason
"ROADMAP item 8") are outputs that break this contract today.
"""

import json
from fractions import Fraction
from functools import cache
from math import floor
from pathlib import Path

import pytest

from madhava import cli, trig_series
from madhava.bigfixed import BigNat, FixedDec
from madhava.cli import main
from madhava.pi_series import GUARD
from madhava.trig_series import ANGLE_DIGITS, SINE_TABLE_SIZE, Angle, build_sine_table
from conftest import as_fraction, machin_pi_floor, sin_round, taylor_bracket, trig_floor

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text(encoding="utf-8"))
IRRATIONAL = {
    "sin": {"15", "22.5", "45", "60", "75"},
    "cos": {"15", "22.5", "30", "45", "75"},
    "sinsq": {"15", "22.5", "75"},
}


def degree_key(fn: str, degrees: str, scale: int) -> str:
    return f"trig eval --fn {fn} --degrees {degrees} --scale {scale}"


TRIG_KEYS = sorted(key for key in DIGESTS if key.startswith("trig eval --fn "))
DEGREE_KEYS = [key for key in TRIG_KEYS if key.split()[5] in IRRATIONAL[key.split()[3]]]
# cos 60 at scales 35 and 40 is test_cos_sixty_degrees below
COS_SIXTY_XFAILS = (35, 40)
EXACT_KEYS = [key for key in TRIG_KEYS if key not in DEGREE_KEYS and key not in
              {degree_key("cos", "60", scale) for scale in COS_SIXTY_XFAILS}]
# printed as the exact value where the contract truncates to ...999
EXACT_XFAILS = {
    degree_key(fn, degrees, scale)
    for fn, degrees, scales in (("sin", "30", (25, 30)), ("sin", "90", (20, 25, 30)),
                                ("sinsq", "45", (10,)), ("sinsq", "60", (10, 25)),
                                ("sinsq", "90", (10, 25)))
    for scale in scales}

RADIANS = ("0.5", "1", "2", "3")
RADIANS_SCALES = (10, 20, 40)
RADIANS_XFAILS = (
    {("2", "sinsq", s) for s in RADIANS_SCALES} | {("2", "sin", 40), ("2", "cos", 40)}
    | {("3", fn, s) for fn in ("sin", "cos", "sinsq") for s in RADIANS_SCALES})

TABLE_SCALES = (10, 13, 40, 47, 89, 100, 131, 140, 141, 167, 200, 211, 233, 259, 281, 300,
                500, 1000)

ITEM_8 = pytest.mark.xfail(strict=True, reason="ROADMAP item 8")


def cli_degrees_angle(degrees, scale: int) -> Fraction:
    ws = scale + ANGLE_DIGITS
    pi = Fraction(machin_pi_floor(ws + ANGLE_DIGITS), 10 ** (ws + ANGLE_DIGITS))
    return Fraction(floor(Fraction(degrees) * pi / 180 * 10**ws), 10**ws)


def fixed(q: int, scale: int) -> str:
    """The decimal string of q * 10**-scale, as fd_to_string prints it."""
    sign, q = ("-" if q < 0 else ""), abs(q)
    return f"{sign}{q // 10**scale}.{q % 10**scale:0{scale}d}"


def truncation(fn: str, theta: Fraction, scale: int, guard: int = 30) -> str:
    """f(theta) truncated toward zero at the scale.  Below zero that is
    the floor plus one ulp: every negative value checked here is
    irrational, so never a whole number of ulps."""
    q = trig_floor(fn, theta, scale, guard)
    return fixed(q + 1 if q < 0 else q, scale)


def printed(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out.rstrip("\n")


def test_every_degree_key_is_checked():
    assert (len(DEGREE_KEYS), len(EXACT_KEYS), len(TRIG_KEYS)) == (91, 54, 147)
    assert EXACT_XFAILS < set(EXACT_KEYS)


@pytest.mark.parametrize("key", DEGREE_KEYS)
def test_degrees_print_the_truncation_at_the_cli_angle(key, capsys):
    argv = key.split()
    fn, degrees, scale = argv[3], argv[5], int(argv[7])
    assert printed(capsys, argv) == truncation(fn, cli_degrees_angle(degrees, scale), scale)


@pytest.mark.parametrize(
    "key", [pytest.param(key, marks=ITEM_8) if key in EXACT_XFAILS else key
            for key in EXACT_KEYS])
def test_exact_degrees_print_the_truncation_at_the_cli_angle(key, capsys):
    # f(theta_t) is within about 10**-(2 * scale + 20) of the rational
    # value at 90 degrees, so the oracle needs guard digits past that
    argv = key.split()
    fn, degrees, scale = argv[3], argv[5], int(argv[7])
    expected = truncation(fn, cli_degrees_angle(degrees, scale), scale, guard=3 * scale + 40)
    assert printed(capsys, argv) == expected


@ITEM_8
@pytest.mark.parametrize("scale", COS_SIXTY_XFAILS)
def test_cos_sixty_degrees(scale, capsys):
    # cos 60 = 1/2 and cos of the truncated angle, just above 1/2, both
    # truncate to 0.5000...; the program prints 0.4999...
    argv = ["trig", "eval", "--fn", "cos", "--degrees", "60", "--scale", str(scale)]
    assert printed(capsys, argv) == truncation("cos", cli_degrees_angle("60", scale), scale)


@pytest.mark.parametrize("theta, fn, scale", [
    pytest.param(*case, marks=ITEM_8) if case in RADIANS_XFAILS else case
    for case in ((theta, fn, scale) for theta in RADIANS
                 for fn in ("sin", "cos", "sinsq") for scale in RADIANS_SCALES)])
def test_radians_print_the_truncation(theta, fn, scale, capsys):
    argv = ["trig", "eval", "--fn", fn, "--radians", theta, "--scale", str(scale)]
    assert printed(capsys, argv) == truncation(fn, Fraction(theta), scale)


@cache
def sine_table(scale: int) -> dict[int, str]:
    return {k: str(value) for k, value in build_sine_table(scale).entries}


@pytest.mark.parametrize("scale, k", [
    (scale, k) for scale in TABLE_SCALES for k in range(1, SINE_TABLE_SIZE + 1)])
def test_sine_table_rounds_sin_at_the_table_angle(scale, k):
    # entry k is k * 3.75 degrees, built like a --degrees angle at the scale
    q = sin_round(cli_degrees_angle(Fraction(15 * k, 4), scale), scale)
    assert sine_table(scale)[k] == fixed(q, scale)


def test_sine_table_ninety_degrees_lands_on_one():
    k, value = build_sine_table(150).entries[-1]
    assert (k, str(value)) == (24, "1." + "0" * 150)


def test_verify_sums_the_sine_series_at_the_table_angles(monkeypatch):
    # verify's independent check of each entry sums the series at the
    # entry's own theta_t for scale 20
    seen = []
    series = cli.odd_power_series
    monkeypatch.setattr(cli, "odd_power_series",
                        lambda x, *rest: seen.append(x) or series(x, *rest))
    assert cli._check_sine_table().passed
    assert [as_fraction(x) for x in seen] == [
        cli_degrees_angle(Fraction(15 * k, 4), 20) for k in range(1, SINE_TABLE_SIZE + 1)]


@pytest.mark.parametrize("scale", (10, 40, 141, 300))
def test_second_difference_sines_within_their_drift_bound(scale):
    # s_k against floor(sin(theta_k) * 10**ws): the bound must cover the
    # recurrence's real drift, which reaches a few hundred ulp at k = 24,
    # on the table's grid and on the tie rerun's step theta_k / k.  The
    # wide guard settles the floor at 30 and 90 degrees, where
    # sin(theta_k) lies a hair below 1/2 and 1
    def angle(theta: Fraction, ws: int) -> Angle:
        return Angle(FixedDec(1, BigNat.from_int(floor(theta * 10**ws)), ws))

    ws = scale + GUARD
    grid = trig_series._second_difference_sines(
        angle(cli_degrees_angle(Fraction(15, 4), scale), ws), SINE_TABLE_SIZE, ws)
    assert [s.scale for s in grid] == [ws] * (SINE_TABLE_SIZE + 1)
    for k in range(1, SINE_TABLE_SIZE + 1):
        theta = cli_degrees_angle(Fraction(15 * k, 4), scale)
        rerun = trig_series._second_difference_sines(angle(theta / k, ws + GUARD), k, ws + GUARD)
        for value in (grid[k], rerun[k]):
            low = trig_floor("sin", theta, value.scale, guard=2 * value.scale + 40)
            margin = trig_series._drift_ulp(k)
            assert low - margin + 1 < value.mantissa.to_int() < low + margin, k


@pytest.mark.parametrize("scale", (10, 40, 100))
def test_tie_fallback_gives_the_same_table(scale, monkeypatch):
    # a margin of 10**GUARD ulp covers every residue at the table's
    # working scale, so every entry reruns the recurrence once, GUARD
    # digits wider, where the same margin clears the tie
    table = build_sine_table(scale)
    calls = []
    rule = trig_series._second_difference_sines
    monkeypatch.setattr(trig_series, "_drift_ulp", lambda k: 10**GUARD)
    monkeypatch.setattr(trig_series, "_second_difference_sines",
                        lambda *a: calls.append(a) or rule(*a))
    assert build_sine_table(scale) == table
    assert [count for _, count, _ in calls] == [SINE_TABLE_SIZE, *range(1, SINE_TABLE_SIZE + 1)]


# sin(50 + 35), cos(41 + 37), sin(80 - 13), cos(89 - 1): irrational, so
# the oracle settles every truncation
ADDRULE_CASES = (("sin-sum", "50", "35"), ("sin-diff", "80", "13"),
                 ("cos-sum", "41", "37"), ("cos-diff", "89", "1"))
SHIFT_CASES = (("sin", "35", "0.11"), ("cos", "89", "-0.2"))
RULE_SCALES = (20, 60, 200, 400)
RULE_XFAILS = {("cos-diff", 200), ("cos-diff", 400), ("sin-diff", 400), ("cos", 200), ("cos", 400)}


def rule_params(cases):
    return [pytest.param(*case, scale, marks=ITEM_8) if (case[0], scale) in RULE_XFAILS
            else (*case, scale) for case in cases for scale in RULE_SCALES]


@pytest.mark.parametrize("rule, x, y, scale", rule_params(ADDRULE_CASES))
def test_addrule_prints_the_truncation_of_its_rule(rule, x, y, scale, capsys):
    tx, ty = cli_degrees_angle(x, scale), cli_degrees_angle(y, scale)
    theta = tx + ty if rule.endswith("sum") else tx - ty
    argv = ["trig", "addrule", "--rule", rule, "--x-degrees", x, "--y-degrees", y,
            "--scale", str(scale)]
    assert printed(capsys, argv) == truncation(rule[:3], theta, scale)


@pytest.mark.parametrize("fn, u, h, scale", rule_params(SHIFT_CASES))
def test_shift_prints_the_truncation_of_the_three_term_formula(fn, u, h, scale, capsys):
    # a + h*b - h**2/2 * a, with (a, b) = (sin u, cos u) or (cos u, -sin u),
    # bracketed from the oracle's ends; |h| <= 0.5 keeps 1 - h**2/2 positive
    work = scale + 30
    s, c = (taylor_bracket(cli_degrees_angle(u, scale), f, work) for f in ("sin", "cos"))
    (a_lo, a_hi), (b_lo, b_hi) = (s, c) if fn == "sin" else (c, (-s[1], -s[0]))
    step = Fraction(h)
    keep = 1 - step * step / 2
    moves = sorted((step * b_lo, step * b_hi))
    low, high = (int((keep * a + move) * 10**scale / 10**work)
                 for a, move in ((a_lo, moves[0]), (a_hi, moves[1])))
    assert low == high, f"the oracle does not settle the shift at scale {scale}"
    argv = ["trig", "shift", "--fn", fn, "--u-degrees", u, "--h", h, "--scale", str(scale)]
    assert printed(capsys, argv) == fixed(low, scale)
