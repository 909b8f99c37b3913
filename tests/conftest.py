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
