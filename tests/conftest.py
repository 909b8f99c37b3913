"""Shared oracle helpers.

Tests check the limb/FixedDec implementation against independent models:
Python ints for the natural-number ring and fractions.Fraction for exact
rational values.  Neither shares any code with the package internals.
"""

from fractions import Fraction

from madhava.bigfixed import FixedDec


def as_fraction(x: FixedDec) -> Fraction:
    return Fraction(x.sign * x.mantissa.to_int(), 10**x.scale)


def frac_close(x: FixedDec, target: Fraction, tol: Fraction) -> bool:
    return abs(as_fraction(x) - target) <= tol


PI_50 = Fraction(
    31415926535897932384626433832795028841971693993751,
    10**49,
)  # pi to 50 significant digits, for oracle-side comparisons only


def machin_pi_floor(scale: int, guard: int = 30) -> int:
    """floor(pi * 10**scale) from Machin's formula, pi = 16 atan(1/5) -
    4 atan(1/239), in plain integers.

    Each arctangent term is one exact floor, so it is off by under one
    unit at scale + guard, and the omitted tail is under one unit too.
    The floor is returned only when the whole error interval settles it.
    """
    one = 10 ** (scale + guard)

    def atan_inv(x):  # (signed sum of floored terms, terms summed + 1)
        total, power, k = 0, one // x, 1
        while power:
            term = power // (2 * k - 1)
            total += term if k % 2 else -term
            power //= x * x
            k += 1
        return total, k

    a5, n5 = atan_inv(5)
    a239, n239 = atan_inv(239)
    pi = 16 * a5 - 4 * a239
    slack = 16 * n5 + 4 * n239
    low, high = (pi - slack) // 10**guard, (pi + slack) // 10**guard
    assert low == high, f"{guard} guard digits do not settle pi at scale {scale}"
    return low


def _taylor_bracket(theta: Fraction, fn: str, work: int) -> tuple[int, int]:
    """Integers lo <= f(theta) * 10**work <= hi for f = sin or cos, from
    the Taylor series in plain integers.

    Each term is the previous one times x**2 / ((2k)(2k+1)) for sin or
    x**2 / ((2k-1)(2k)) for cos, floored; err bounds how far the floored
    term is from the exact one and grows by the same ratio plus one unit
    per floor.  Flooring theta itself costs one more unit, as sin and cos
    are 1-Lipschitz.  The loop stops at a zero term once the ratio is
    below one, so the omitted alternating tail is under that term's err.
    """
    if theta < 0:  # sin is odd, cos even; the loop floors non-negative terms
        lo, hi = _taylor_bracket(-theta, fn, work)
        return (-hi, -lo) if fn == "sin" else (lo, hi)
    one = 10**work
    x, rest = divmod(theta.numerator * one, theta.denominator)
    x2, term = x * x, (x if fn == "sin" else one)
    total, err, slack, k = term, 0, (1 if rest else 0), 0
    while True:
        k += 1
        den = (2 * k) * (2 * k + 1 if fn == "sin" else 2 * k - 1) * one * one
        term = term * x2 // den
        err = -(-err * x2 // den) + 1
        total += -term if k % 2 else term
        slack += err
        if term == 0 and x2 <= den:
            return total - slack - err, total + slack + err


def trig_floor(fn: str, theta: Fraction, scale: int, guard: int = 30) -> int:
    """floor(f(theta) * 10**scale) for f = sin, cos or sinsq (sin**2).

    Like machin_pi_floor, the floor is returned only when the oracle's
    whole error interval at scale + guard settles it.
    """
    work = scale + guard
    lo, hi = _taylor_bracket(theta, "sin" if fn == "sinsq" else fn, work)
    drop = guard
    if fn == "sinsq":  # the squares sit at scale 2 * work
        squares = (lo * lo, hi * hi)
        lo, hi = (0 if lo <= 0 <= hi else min(squares)), max(squares)
        drop += work
    low, high = lo // 10**drop, hi // 10**drop
    assert low == high, f"{guard} guard digits do not settle {fn} at scale {scale}"
    return low
