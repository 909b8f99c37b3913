"""Circumradius of a cyclic quadrilateral from its four sides.

The formula:

    R = sqrt( (ab+cd)(ac+bd)(ad+bc)
              / ((b+c+d-a)(a+c+d-b)(a+b+d-c)(a+b+c-d)) )

It is evaluated in exact integers: the sides are read as multiples of
10**-e (e the largest side scale), R**2 is floored once at twice the
output scale and its floor square root is R floored at that scale.  The
three numerator pair-sums and the four denominator brackets permute
among themselves under cyclic rotation and reversal of the sides, so no
canonicalization is needed.

circumradius_oracle is the constructive inverse used for testing: place
four points on a circle of known radius at given angles, return the chord
lengths.  Feeding those sides back through circumradius must recover the
radius.
"""

from __future__ import annotations

from typing import Sequence

from .bigfixed import (
    FixedDec,
    fd_divn,
    fd_from_ratio,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_sub,
)
from .pi_series import GUARD, pi_reference
from .trig_series import full_domain_terms, sin_series


class NotCyclicError(ValueError):
    """The four lengths cannot be the sides of a cyclic quadrilateral."""


def circumradius(q: Sequence[FixedDec], scale: int) -> FixedDec:
    """Circumradius floored at the given scale, from four side lengths
    in cyclic order.

    Rejects non-positive sides and side sets where any bracket
    (sum of three sides minus the fourth) is at most 10**-scale:
    dividing by a near-zero is meaningless at fixed scale.
    """
    e = max(s.scale for s in q)  # sides in units of 10**-e
    a, b, c, d = sides = [s.sign * s.mantissa.to_int() * 10 ** (e - s.scale)
                          for s in q]
    if any(s <= 0 for s in sides):
        raise ValueError("sides must all be positive")
    brackets = [a + b + c + d - 2 * s for s in sides]
    if any(br * 10**scale <= 10**e for br in brackets):
        raise NotCyclicError("not a cyclic-quadrilateral side set: "
                             "a three-side sum does not exceed the fourth side")
    num = (a * b + c * d) * (a * c + b * d) * (a * d + b * c)
    den = brackets[0] * brackets[1] * brackets[2] * brackets[3]
    # floor(sqrt(floor(x))) == floor(sqrt(x)), so both floors are R's own
    return fd_isqrt(fd_from_ratio(num, den * 10 ** (2 * e), 1, 2 * scale), scale)


def circumradius_oracle(angles: Sequence[FixedDec], radius: FixedDec,
                        scale: int) -> tuple[FixedDec, ...]:
    """Sides of the quadrilateral inscribed at four strictly increasing
    angles (radians, spanning less than a full turn) on a circle of the
    given radius: side_k = 2 R sin(gap_k / 2)."""
    if len(angles) != 4:
        raise ValueError("need exactly four angles")
    ws = scale + GUARD
    two_pi = fd_mul(pi_reference(ws), FixedDec.from_int(2))
    pts = [fd_rescale(t, ws) for t in angles]
    zero = FixedDec.from_int(0, ws)
    if pts[0] < zero or pts[3] >= two_pi:
        raise ValueError("angles must lie in [0, 2*pi)")
    for lo, hi in zip(pts, pts[1:]):
        if hi <= lo:
            raise ValueError("angles must be strictly increasing")
    gaps = [fd_sub(hi, lo) for lo, hi in zip(pts, pts[1:])]
    gaps.append(fd_sub(two_pi, fd_sub(pts[3], pts[0])))
    terms = full_domain_terms(ws)
    two_r = fd_mul(fd_rescale(radius, ws), FixedDec.from_int(2))
    return tuple(fd_rescale(fd_mul(two_r, sin_series(fd_divn(g, 2), terms, ws)), scale)
                 for g in gaps)
