"""Circumradius formula vs the constructive inscribed-quadrilateral oracle
(conftest.inscribed_sides)."""

import random
import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest

from madhava.bigfixed import (
    BigNat,
    FixedDec,
    fd_from_string,
    fd_isqrt,
    fd_mul,
    fd_to_string,
)
from madhava.cli import main
from madhava.geometry import NotCyclicError, circumradius
from conftest import as_fraction, inscribed_sides


def fd(s):
    return fd_from_string(s)


def quad(*sides):
    return tuple(fd(s) for s in sides)


def random_angles(rng, scale=6):
    # four strictly increasing angles in [0, 2*pi) with a minimum gap,
    # exact FixedDec values by construction
    while True:
        raw = sorted(rng.randrange(0, 6_283_100) for _ in range(4))
        gaps = [b - a for a, b in zip(raw, raw[1:])] + [6_283_100 - (raw[3] - raw[0])]
        if min(gaps) >= 60_000:  # keep every chord well away from degenerate
            return [FixedDec(1, BigNat.from_int(v), scale) for v in raw]


class TestCircumradius:
    def test_unit_square(self):
        v = circumradius(quad("1", "1", "1", "1"), 12)
        root_half = fd_isqrt(fd("0.5"), 12)
        assert fd_to_string(v) == fd_to_string(root_half)

    def test_rectangle_3_4(self):
        v = circumradius(quad("3", "4", "3", "4"), 12)
        assert fd_to_string(v) == "2.500000000000"

    def test_cyclic_rotation_invariance(self):
        base = quad("2.1", "3.7", "1.9", "4.25")
        rotations = [
            quad("3.7", "1.9", "4.25", "2.1"),
            quad("1.9", "4.25", "2.1", "3.7"),
            quad("4.25", "2.1", "3.7", "1.9"),
        ]
        expected = fd_to_string(circumradius(base, 15))
        for q in rotations:
            assert fd_to_string(circumradius(q, 15)) == expected

    def test_reversal_invariance(self):
        a = quad("2.1", "3.7", "1.9", "4.25")
        b = quad("4.25", "1.9", "3.7", "2.1")
        assert fd_to_string(circumradius(a, 15)) == fd_to_string(circumradius(b, 15))

    def test_scale_covariance(self):
        base = quad("2", "3", "2.5", "3.5")
        r = as_fraction(circumradius(base, 16))
        doubled = quad("4", "6", "5", "7")
        r2 = as_fraction(circumradius(doubled, 16))
        assert abs(r2 - 2 * r) <= Fraction(10, 10**16)
        third = tuple(fd_mul(s, fd("0.333333333333333333")) for s in base)
        r3 = as_fraction(circumradius(third, 16))
        assert abs(r3 - r / 3) <= Fraction(10, 10**12)

    def test_non_positive_side_rejected(self):
        with pytest.raises(ValueError):
            circumradius(quad("0", "1", "1", "1"), 10)
        with pytest.raises(ValueError):
            circumradius(quad("-1", "1", "1", "1"), 10)

    def test_quadrilateral_inequality_rejected(self):
        with pytest.raises(NotCyclicError):
            circumradius(quad("10", "1", "1", "1"), 10)
        # bracket exactly zero
        with pytest.raises(NotCyclicError):
            circumradius(quad("3", "1", "1", "1"), 10)


class TestOracle:
    def test_square_on_unit_circle(self):
        half_pi = fd("1.5707963267948966192")
        angles = [fd("0"), half_pi,
                  fd("3.1415926535897932384"), fd("4.7123889803846898576")]
        q = inscribed_sides(angles, fd("1"), 18)
        root_two = Fraction(14142135623730950488, 10**19)
        for side in q:
            assert abs(as_fraction(side) - root_two) <= Fraction(1, 10**17)
        # scaling linearity
        q2 = inscribed_sides(angles, fd("2"), 18)
        for s1, s2 in zip(q, q2):
            assert abs(as_fraction(s2) - 2 * as_fraction(s1)) <= Fraction(1, 10**17)

    def test_round_trip_recovers_radius(self):
        rng = random.Random(1754)
        radius = fd("1.75")
        for _ in range(20):
            q = inscribed_sides(random_angles(rng), radius, 20)
            recovered = circumradius(q, 16)
            assert abs(as_fraction(recovered) - Fraction(7, 4)) <= Fraction(1, 10**16)


def random_sides(rng):
    """Four decimal lengths in 0.1..10 with at most three decimals, every
    bracket (three sides less the fourth) above 1, so no admitted scale
    refuses them."""
    while True:
        places = [rng.randint(0, 3) for _ in range(4)]
        sides = [str(Decimal(rng.randint(max(1, 10**p // 10), 10 ** (p + 1))).scaleb(-p))
                 for p in places]
        exact = [Fraction(t) for t in sides]
        if all(sum(exact) - 2 * t > 1 for t in exact):
            return sides


def radius_floor(sides, scale):
    """floor(R * 10**scale) from the closed form in exact Fractions:
    R**2 = (ab+cd)(ac+bd)(ad+bc) / ((b+c+d-a)(a+c+d-b)(a+b+d-c)(a+b+c-d)),
    and floor(R * 10**scale) is isqrt of floor(R**2 * 10**(2 * scale))."""
    a, b, c, d = (Fraction(t) for t in sides.split(","))
    perimeter = a + b + c + d
    r2 = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
    for t in (a, b, c, d):
        r2 /= perimeter - 2 * t
    return isqrt(r2.numerator * 10 ** (2 * scale) // r2.denominator)


def printed_radius(sides, scale, capsys):
    """`quad radius` stdout as an integer count of 10**-scale."""
    assert main(["quad", "radius", "--sides", sides, "--scale", str(scale)]) == 0
    out = capsys.readouterr().out.rstrip("\n")
    assert len(out.partition(".")[2]) == scale
    return int(out.replace(".", ""))


def decimal_str(units, places):
    """units * 10**-places as a decimal string with `places` decimals."""
    digits = str(units).rjust(places + 1, "0")
    return f"{digits[:-places]}.{digits[-places:]}" if places else digits


@pytest.mark.parametrize("scale, draw", [
    (scale, draw) for scale in (0, 1, 12, 40, 200, 1000, 2000) for draw in range(8)])
def test_quad_radius_prints_the_floor_of_the_exact_radius(scale, draw, capsys):
    sides = ",".join(random_sides(random.Random(1000 * scale + draw)))
    assert printed_radius(sides, scale, capsys) == radius_floor(sides, scale)


@pytest.mark.parametrize("sides, scale", [
    # one bracket a small multiple of 10**-scale: R**2 divides by it
    ("3,1,1,1.00000000011", 10),
    ("3,1,1,1.00000000000000000002", 20),
    ("3,1,1,1." + "0" * 39 + "2", 40),
    ("3,1,1,1." + "0" * 199 + "3", 200),
    ("3,1,1,1.00000000010000000001", 10),
    # sides finer than scale + 10 decimals whose bracket b + c + d - a is
    # 10**-scale + 10**-(scale + 15), or 10**-10 + 10**-21
    *((f"3,1,1,{decimal_str(10 ** (scale + 15) + 10**15 + 1, scale + 15)}", scale)
      for scale in (0, 10, 40)),
    ("3,1,1,1.000000000100000000001", 10),
    *((f"1.5,0.5,2.5,{decimal_str(5 * 10 ** (scale - 1) + 3, scale)}", scale)
      for scale in (10, 20, 40, 200)),
], ids=lambda v: re.sub(r"0{8,}", lambda m: f"0{{{len(m[0])}}}", str(v)))
def test_ill_conditioned_sides_print_the_exact_floor(sides, scale, capsys):
    assert printed_radius(sides, scale, capsys) == radius_floor(sides, scale)


NOT_CYCLIC = ("not a cyclic-quadrilateral side set: "
              "a three-side sum does not exceed the fourth side")


def refusal(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("scale", [0, 10, 40])
def test_bracket_of_exactly_one_ulp_is_refused(scale, capsys):
    sides = f"3,1,1,{decimal_str(10**scale + 1, scale)}"  # b + c + d - a == 10**-scale
    err = refusal(["quad", "radius", "--sides", sides, "--scale", str(scale)], capsys)
    assert err.rstrip("\n").endswith(f"error: {NOT_CYCLIC}")


@pytest.mark.parametrize("sides", ["-1,1,1,1", "0,1,1,1", "1,1,0.0,1"])
def test_non_positive_side_is_refused(sides, capsys):
    err = refusal(["quad", "radius", f"--sides={sides}", "--scale", "10"], capsys)
    assert err.rstrip("\n").endswith("error: sides must all be positive")
