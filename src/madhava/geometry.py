"""Circumradius of a cyclic quadrilateral from its four sides.

The formula:

    R = sqrt( (ab+cd)(ac+bd)(ad+bc)
              / ((b+c+d-a)(a+c+d-b)(a+b+d-c)(a+b+c-d)) )

It is evaluated literally as printed; the three numerator pair-sums and
the four denominator brackets permute among themselves under cyclic
rotation and reversal of the sides, so no canonicalization is needed.

circumradius_oracle is the constructive inverse used for testing: place
four points on a circle of known radius at given angles, return the chord
lengths.  Feeding those sides back through circumradius must recover the
radius.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .bigfixed import (
    FixedDec,
    fd_add,
    fd_div,
    fd_divn,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_sub,
)
from .pi_series import GUARD, pi_reference
from .trig_series import Angle, sin_series, sin_terms_for


class NotCyclicError(ValueError):
    """The four lengths cannot be the sides of a cyclic quadrilateral."""


class QuadSides(NamedTuple):
    """Side lengths in consistent cyclic order."""

    a: FixedDec
    b: FixedDec
    c: FixedDec
    d: FixedDec

    def as_tuple(self) -> tuple[FixedDec, FixedDec, FixedDec, FixedDec]:
        return (self.a, self.b, self.c, self.d)


def circumradius(q: QuadSides, scale: int) -> FixedDec:
    """Circumradius at the given scale (truncating contract).

    Rejects non-positive sides and side sets where any bracket
    (sum of three sides minus the fourth) is zero within 10**-scale:
    dividing by a truncated near-zero is meaningless at fixed scale.
    """
    ws = scale + GUARD
    zero = FixedDec.from_int(0, ws)
    sides = [fd_rescale(s, ws) for s in q.as_tuple()]
    if any(s <= zero for s in sides):
        raise ValueError("sides must all be positive")
    a, b, c, d = sides
    perimeter = fd_add(fd_add(a, b), fd_add(c, d))
    brackets = [fd_sub(perimeter, fd_add(s, s)) for s in sides]
    threshold = FixedDec(1, 1, scale)  # 10**-scale
    for br in brackets:
        if br <= threshold:
            raise NotCyclicError("not a cyclic-quadrilateral side set: "
                                 "a three-side sum does not exceed the fourth side")
    num = fd_mul(fd_mul(fd_add(fd_mul(a, b), fd_mul(c, d)),
                        fd_add(fd_mul(a, c), fd_mul(b, d))),
                 fd_add(fd_mul(a, d), fd_mul(b, c)))
    den = fd_mul(fd_mul(brackets[0], brackets[1]), fd_mul(brackets[2], brackets[3]))
    ratio = fd_div(num, den, ws)
    return fd_rescale(fd_isqrt(ratio, ws), scale)


def circumradius_oracle(angles: Sequence[FixedDec], radius: FixedDec, scale: int) -> QuadSides:
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
    terms = sin_terms_for(ws, 3142)
    two_r = fd_mul(fd_rescale(radius, ws), FixedDec.from_int(2))
    sides = [fd_rescale(fd_mul(two_r, sin_series(Angle(fd_divn(g, 2)), terms, ws)), scale)
             for g in gaps]
    return QuadSides(*sides)
