"""Output checks that share no code with madhava.

* pi_digits: pi from Machin's formula in plain integers.
* check_pi: a ``pi --series sqrt12`` output against that pi and its own
  printed error bound.
* check_converge: a ``converge`` CSV against exact rational partial sums
  (fractions.Fraction) written out from the series definitions.
* check_digest: stdout bytes against a SHA-256 digest recorded from the
  seed commit.

Each check returns None when the output is right and a short reason
when it is not.  This module must not import madhava.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import isqrt
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")
GUARD = 10  # the working-scale guard digits the CLI adds to every request


def _arctan_inv(x: int, unity: int) -> int:
    """unity * arctan(1/x), each term truncated; off by at most one unit per term."""
    total = term = unity // x
    x2 = x * x
    k = 1
    while term:
        term //= x2
        k += 2
        total += -(term // k) if k % 4 == 3 else term // k
    return total


def pi_digits(digits: int) -> int:
    """floor(pi * 10**digits), from pi = 16 atan(1/5) - 4 atan(1/239).

    The Machin sum is formed twenty digits further out, where its summed
    truncation error (a few units per term) stays below 10**6 units."""
    unity = 10 ** (digits + 20)
    approx = 16 * _arctan_inv(5, unity) - 4 * _arctan_inv(239, unity)
    low, high = divmod(approx, 10**20)
    if not 10**6 < high < 10**20 - 10**6:
        raise ArithmeticError(f"pi digits too close to a boundary at {digits}")
    return low


def _parse_decimal(text: str) -> tuple[int, int] | None:
    """(signed integer mantissa, scale) of [-]digits[.digits], else None."""
    sign = -1 if text.startswith("-") else 1
    body = text[1:] if sign < 0 else text
    whole, dot, frac = body.partition(".")
    if not whole.isdigit() or (dot and not frac.isdigit()):
        return None
    return sign * int(whole + frac), len(frac)


def _format(mantissa: int, scale: int) -> str:
    digits = str(abs(mantissa)).rjust(scale + 1, "0")
    body = digits[:-scale] + "." + digits[-scale:] if scale else digits
    return ("-" if mantissa < 0 else "") + body


def check_pi(output: str, digits: int) -> str | None:
    """The value is a truncation to `digits` of an approximation within
    its printed error bound of pi, so
    pi - bound - 10**-digits < value <= pi + bound."""
    lines = output.splitlines()
    if len(lines) != 2 or not lines[1].startswith("error-bound "):
        return f"expected a value and an error-bound line, got {len(lines)} lines"
    value = _parse_decimal(lines[0])
    bound = _parse_decimal(lines[1][len("error-bound "):])
    if value is None or value[1] != digits:
        return f"value is not a decimal with {digits} digits"
    if bound is None or bound[0] < 0:
        return "error-bound is not a non-negative decimal"
    scale = max(digits, bound[1]) + 2
    v = value[0] * 10 ** (scale - digits)
    b = bound[0] * 10 ** (scale - bound[1])
    pi = pi_digits(scale)  # floor, so pi <= true pi < pi + 1 unit
    if v > pi + 1 + b:
        return "value is above pi + error-bound"
    if v < pi - b - 10 ** (scale - digits):
        return "value is below pi - error-bound - 10**-digits"
    return None


def _alt(k: int) -> int:
    """Sign of term k >= 1 of an alternating series."""
    return 1 if k % 2 else -1


def _series_terms(series_id: str):
    """(multiplier, leading constant, term(k)) for the rational series."""
    if series_id == "leibniz":
        return 4, Fraction(0), lambda k: Fraction(_alt(k), 2 * k - 1)
    if series_id == "aux-a":
        return 4, Fraction(3, 4), lambda k: Fraction(_alt(k), (2 * k + 1) ** 3 - (2 * k + 1))
    if series_id == "aux-b":
        return 8, Fraction(0), lambda k: Fraction(1, (4 * k - 2) ** 2 - 1)
    if series_id == "aux-c":
        return 4, Fraction(0), lambda k: Fraction(4 * _alt(k), (2 * k - 1) ** 5 + 4 * (2 * k - 1))
    if series_id == "aux-d":
        return 4, Fraction(1, 2), lambda k: Fraction(_alt(k), (2 * k) ** 2 - 1)
    if series_id == "sqrt12":
        return 1, Fraction(0), lambda k: Fraction(_alt(k), (2 * k - 1) * 3 ** (k - 1))
    raise ValueError(f"unknown series {series_id!r}")


def _corrections(n: int) -> dict[str, Fraction]:
    return {"f1": Fraction(1, 4 * n),
            "f2": Fraction(n, 4 * n * n + 1),
            "f3": Fraction(n * n + 1, n * (4 * n * n + 5))}


def _exact_rows(series_id: str, n_max: int, scale: int, with_corrections: bool):
    """Yield (correction, n, exact value) in the CLI's row order."""
    mult, lead, term = _series_terms(series_id)
    partial, sums = lead, []
    for k in range(1, n_max + 1):
        partial += term(k)
        sums.append(partial)
    if series_id == "sqrt12":
        # sqrt(12) to scale + 20 digits; far below the tolerance used
        m = scale + 20
        mult = Fraction(isqrt(12 * 10 ** (2 * m)), 10**m)
    modes = ("none", "f1", "f2", "f3") if with_corrections else ("none",)
    for mode in modes:
        for n, s in enumerate(sums, start=1):
            if mode != "none":
                corr = _corrections(n)[mode]
                s = s + corr if n % 2 == 0 else s - corr
            yield mode, n, mult * s


def check_converge(output: str, series: list[str], n_max: int, scale: int) -> str | None:
    """Every row's value is the exact partial sum truncated at `scale`,
    within the working-scale drift (each of the n terms and the final
    scaling truncated at scale + 10); every abs_error is exactly
    |value - pi truncated at scale|."""
    lines = output.splitlines()
    if not lines or lines[0] != "series,correction,n,value,abs_error":
        return "missing CSV header"
    rows = lines[1:]
    pi_s = pi_digits(scale)
    unit = Fraction(1, 10**scale)
    i = 0
    for series_id in series:
        for mode, n, exact in _exact_rows(series_id, n_max, scale, series_id == "leibniz"):
            if i >= len(rows):
                return "too few rows"
            fields = rows[i].split(",")
            i += 1
            if len(fields) != 5 or fields[:3] != [series_id, mode, str(n)]:
                return f"row {i} is {rows[i - 1]!r}, expected {series_id},{mode},{n}"
            value = _parse_decimal(fields[3])
            if value is None or value[1] != scale:
                return f"row {i}: value is not a decimal at scale {scale}"
            drift = Fraction(8 * (n + 6), 10 ** (scale + GUARD))
            v = Fraction(value[0], 10**scale)
            if not exact - drift - unit < v <= exact + drift:
                return f"row {i}: value {fields[3]} is not the truncated partial sum"
            if fields[4] != _format(abs(value[0] - pi_s), scale):
                return f"row {i}: abs_error {fields[4]} is not |value - pi|"
    if i != len(rows):
        return "too many rows"
    return None


def load_digests() -> dict[str, dict[str, str]]:
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def check_digest(output: bytes, expected: str) -> str | None:
    got = digest(output)
    return None if got == expected else f"stdout sha256 {got[:12]} != recorded {expected[:12]}"
