"""Printed trig values against the plain-integer Taylor oracle.

The oracle (conftest.trig_floor) shares no code with madhava.  It reads
the CLI's angle the way the CLI builds it for --degrees: degrees * pi,
with pi floored at scale + 2*GUARD, over 180, floored at scale + GUARD.
The printed value must be the oracle's truncation at that angle.

The digest keys with rational exact values (sin 30, cos 60, sin^2 45 and
the like) are left out: there the last printed digit flips between
...999 and ...000 from one scale to the next, and which of the two is
right is the open contract question of ROADMAP item 8.  The strict
xfails below are outputs that are wrong under either reading.
"""

import json
from fractions import Fraction
from math import floor
from pathlib import Path

import pytest

from madhava.cli import main
from madhava.pi_series import GUARD
from madhava.trig_series import build_sine_table
from conftest import machin_pi_floor, trig_floor

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text(encoding="utf-8"))
IRRATIONAL = {
    "sin": {"15", "22.5", "45", "60", "75"},
    "cos": {"15", "22.5", "30", "45", "75"},
    "sinsq": {"15", "22.5", "75"},
}
DEGREE_KEYS = sorted(
    key for key in DIGESTS
    if key.startswith("trig eval --fn ") and key.split()[5] in IRRATIONAL[key.split()[3]])


def cli_degrees_angle(degrees: str, scale: int) -> Fraction:
    ws = scale + GUARD
    pi = Fraction(machin_pi_floor(ws + GUARD), 10 ** (ws + GUARD))
    return Fraction(floor(Fraction(degrees) * pi / 180 * 10**ws), 10**ws)


def truncation(fn: str, theta: Fraction, scale: int) -> str:
    q = trig_floor(fn, theta, scale)  # every value checked here is positive
    return f"{q // 10**scale}.{q % 10**scale:0{scale}d}"


def printed(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out.rstrip("\n")


def test_every_irrational_degree_key_is_checked():
    assert len(DEGREE_KEYS) == 91


@pytest.mark.parametrize("key", DEGREE_KEYS)
def test_degrees_print_the_truncation_at_the_cli_angle(key, capsys):
    argv = key.split()
    fn, degrees, scale = argv[3], argv[5], int(argv[7])
    assert printed(capsys, argv) == truncation(fn, cli_degrees_angle(degrees, scale), scale)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
@pytest.mark.parametrize("scale", (35, 40))
def test_cos_sixty_degrees(scale, capsys):
    # cos 60 = 1/2 and cos of the truncated angle, just above 1/2, both
    # truncate to 0.5000...; the program prints 0.4999...
    argv = ["trig", "eval", "--fn", "cos", "--degrees", "60", "--scale", str(scale)]
    assert printed(capsys, argv) == truncation("cos", cli_degrees_angle("60", scale), scale)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_sin_three_radians(capsys):
    argv = ["trig", "eval", "--fn", "sin", "--radians", "3", "--scale", "20"]
    assert printed(capsys, argv) == truncation("sin", Fraction(3), 20)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8")
def test_sine_table_ninety_degrees_lands_on_one():
    k, value = build_sine_table(150).entries[-1]
    assert (k, str(value)) == (24, "1." + "0" * 150)
