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
"""

from __future__ import annotations

from typing import Sequence

from .bigfixed import FixedDec, fd_from_ratio, fd_isqrt


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
    return fd_isqrt(fd_from_ratio(num, den * 10 ** (2 * e), 2 * scale), scale)

