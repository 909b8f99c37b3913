"""Sine and cosine power series, nested polynomial evaluation, the
24-entry sine table, second-order shift formulas and angle-addition rules.

The evaluation scheme: sin, cos and sin^2 each have a coefficient table,
precomputed once per (purpose, terms, scale), and share one evaluation as
a polynomial in theta**2 by innermost-first nesting, one multiply and one
add per coefficient (then times theta for sin, theta**2 for sin^2).  A
table is built from exact integer ratios and truncated once, so repeated
calls share identical coefficients.

Angles are FixedDec radians.  Degree construction converts through
pi_reference with ten guard digits.  The series contracts hold for
|theta| <= pi; use reduce_angle first for anything wider.

Every public operation takes a target scale and truncates its result to
it.  The series and reduce_angle work at scale + GUARD.  The sine table,
the shift formulas and the addition rules work at scale + GUARD and ask
the series for that scale, so their series run at scale + 2*GUARD.  The one
exception to truncate-everywhere is the final quantization of sine-table
entries, which rounds half-away so that exact values (sin 30 = 0.5,
sin 90 = 1) survive at table scale.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from typing import Callable, NamedTuple

from .bigfixed import (
    FixedDec,
    fd_add,
    fd_divn,
    fd_from_ratio,
    fd_mul,
    fd_rescale,
    fd_round,
    fd_sub,
)
from .pi_series import GUARD, pi_reference

SIN = "sin"
COS = "cos"
SINSQ = "sinsq"

SIN_SUM = "sin-sum"
SIN_DIFF = "sin-diff"
COS_SUM = "cos-sum"
COS_DIFF = "cos-diff"
ADDITION_RULES = (SIN_SUM, SIN_DIFF, COS_SUM, COS_DIFF)

SINE_TABLE_SIZE = 24  # one twenty-fourth of a quadrant: 3.75 degree steps


class Angle(NamedTuple):
    """An angle in radians (FixedDec)."""

    radians: FixedDec

    @classmethod
    def from_degrees(cls, degrees: FixedDec, scale: int) -> "Angle":
        """degrees * pi / 180, truncated at the given scale."""
        pi = pi_reference(scale + GUARD)
        prod = fd_mul(fd_rescale(degrees, scale + GUARD), pi)
        return cls(fd_divn(prod, 180, scale))


# Coefficient k in x = theta**2 is (-1)**k * num / den, (num, den) = term(k).
# sin^2's 2**(2k+1) / (2k+2)! is exactly its running-product form 1 / D_{k+1}.
_COEFFICIENT_TERMS: dict[str, Callable[[int], tuple[int, int]]] = {
    SIN: lambda k: (1, factorial(2 * k + 1)),
    COS: lambda k: (1, factorial(2 * k)),
    SINSQ: lambda k: (2 ** (2 * k + 1), factorial(2 * k + 2)),
}


class CoeffTable(NamedTuple):
    """Signed coefficients (-1)**k * num / den of one series in
    x = theta**2, each truncated once at the table's scale."""

    purpose: str
    coefficients: tuple[FixedDec, ...]
    count: int


@lru_cache(maxsize=None)
def coeff_table(purpose: str, terms: int, scale: int) -> CoeffTable:
    if purpose not in _COEFFICIENT_TERMS:
        raise ValueError(f"table purpose must be sin, cos or sinsq, got {purpose!r}")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    term = _COEFFICIENT_TERMS[purpose]
    coeffs = tuple(fd_from_ratio(*term(k), (-1) ** k, scale) for k in range(terms))
    return CoeffTable(purpose=purpose, coefficients=coeffs, count=terms)


def nested_eval(table: CoeffTable, theta: Angle, scale: int) -> FixedDec:
    """Evaluate the table's polynomial at x = theta**2 by nesting:
    (((c_N x + c_{N-1}) x + ...) x + c_0), one multiply and one add per
    coefficient; then times theta for sin and theta**2 for sin^2."""
    if table.count == 0:
        raise ValueError("empty coefficient table")
    th = fd_rescale(theta.radians, scale)
    x = fd_mul(th, th)
    acc = fd_rescale(table.coefficients[-1], scale)
    for c in reversed(table.coefficients[:-1]):
        acc = fd_add(fd_mul(acc, x), fd_rescale(c, scale))
    if table.purpose == SIN:
        acc = fd_mul(acc, th)
    elif table.purpose == SINSQ:
        acc = fd_mul(acc, x)
    return acc


def _check_domain(theta: Angle, limit: FixedDec, what: str) -> None:
    # two ulp of slack so boundary angles built from truncated pi pass
    slack = FixedDec(1, 2, limit.scale)
    if abs(fd_rescale(theta.radians, limit.scale)) > fd_add(limit, slack):
        raise ValueError(f"angle out of range: |theta| must be <= {what}")


def _power_series(purpose: str, theta: Angle, terms: int, scale: int) -> FixedDec:
    ws = scale + GUARD
    _check_domain(theta, pi_reference(ws), "pi")
    table = coeff_table(purpose, terms, ws)
    return fd_rescale(nested_eval(table, theta, ws), scale)


def sin_series(theta: Angle, terms: int, scale: int) -> FixedDec:
    """Partial sum theta - theta^3/3! + theta^5/5! - ... via nested
    evaluation.  Requires |theta| <= pi (reduce first)."""
    return _power_series(SIN, theta, terms, scale)


def cos_series(theta: Angle, terms: int, scale: int) -> FixedDec:
    """Partial sum 1 - theta^2/2! + theta^4/4! - ... via nested
    evaluation.  Requires |theta| <= pi."""
    return _power_series(COS, theta, terms, scale)


def sin_sq_series(theta: Angle, terms: int, scale: int) -> FixedDec:
    """Direct series for sin**2: theta^2 - theta^4/D_2 + theta^6/D_3 - ...
    with D_k the running product of (j^2 - j/2) for j = 2..k; each 1/D_k
    is the exact rational 2**(2k-1) / (2k)!, truncated once."""
    return _power_series(SINSQ, theta, terms, scale)


def sin_terms_for(digits: int, theta_bound_milli: int = 1571) -> int:
    """Smallest term count whose Lagrange bound theta**(2N+1)/(2N+1)! is
    below 10**-digits for |theta| <= theta_bound_milli/1000.

    Defaults to 1.571, an upper bound for pi/2; pass 3142 for the full
    [-pi, pi] domain.  Exact integer comparison throughout; both sides
    are running products, so the search is linear in the answer.
    """
    n = 1
    lhs = theta_bound_milli**3 * 10**digits  # theta**(2n+1) * 10**digits
    rhs = 6 * 1000**3  # (2n+1)! * 1000**(2n+1)
    while lhs >= rhs:
        n += 1
        lhs *= theta_bound_milli**2
        rhs *= 2 * n * (2 * n + 1) * 1000**2
    return n


class SineTable(NamedTuple):
    """24 pairs (k, sin(k * 3.75 degrees)) at a fixed decimal scale."""

    entries: tuple[tuple[int, FixedDec], ...]
    scale: int


def build_sine_table(scale: int) -> SineTable:
    """Sine values on the traditional 3.75-degree grid up to 90 degrees.

    Term count comes from the Lagrange bound two digits past the table
    scale; entries are evaluated with guard digits and rounded half-away
    at the end, so the exact grid points (30 and 90 degrees) land on
    0.5 and 1 at table scale.
    """
    if scale < 10:
        raise ValueError("sine table needs scale >= 10")
    ws = scale + GUARD
    terms = sin_terms_for(scale + 2)
    entries = []
    for k in range(1, SINE_TABLE_SIZE + 1):
        degrees = fd_from_ratio(15 * k, 4, 1, ws)  # k * 3.75 held exactly
        angle = Angle.from_degrees(degrees, ws)
        value = sin_series(angle, terms, ws)
        entries.append((k, fd_round(value, scale)))
    return SineTable(entries=tuple(entries), scale=scale)


def _half_pi(ws: int) -> FixedDec:
    """pi/2 truncated at ws.  floor(floor(x) / 2) = floor(x / 2), so any
    pi_reference scale >= ws gives it; ws + GUARD is the one _power_series
    at ws has already memoised."""
    return fd_divn(pi_reference(ws + GUARD), 2, ws)


def _sin_cos(u: Angle, ws: int) -> tuple[FixedDec, FixedDec]:
    terms = sin_terms_for(ws)
    return sin_series(u, terms, ws), cos_series(u, terms, ws)


def taylor_shift_sin(u: Angle, h: FixedDec, scale: int) -> FixedDec:
    """The three-term shift sin(u) + h*cos(u) - h^2/2 * sin(u).

    This is the second-order approximation itself, not the true
    sin(u + h); the cubic remainder is about |h|**3/6.
    """
    return _taylor_shift(u, h, scale, SIN)


def taylor_shift_cos(u: Angle, h: FixedDec, scale: int) -> FixedDec:
    """The three-term shift cos(u) - h*sin(u) - h^2/2 * cos(u); the
    second-order approximation to cos(u + h)."""
    return _taylor_shift(u, h, scale, COS)


def _taylor_shift(u: Angle, h: FixedDec, scale: int, which: str) -> FixedDec:
    ws = scale + GUARD
    _check_domain(u, _half_pi(ws), "pi/2")
    if abs(fd_rescale(h, ws)) > fd_from_ratio(1, 2, 1, ws):
        raise ValueError("shift step must satisfy |h| <= 0.5")
    s, c = _sin_cos(u, ws)
    hw = fd_rescale(h, ws)
    h2_half = fd_divn(fd_mul(hw, hw), 2)
    # a + h*b - h^2/2 * a, with (a, b) = (sin u, cos u) or (cos u, -sin u)
    a, b = (s, c) if which == SIN else (c, -s)
    out = fd_sub(fd_add(a, fd_mul(hw, b)), fd_mul(h2_half, a))
    return fd_rescale(out, scale)


def angle_add(x: Angle, y: Angle, which: str, scale: int) -> FixedDec:
    """Right-hand side of the mutual-sine rules:

    * sin-sum   sin x cos y + cos x sin y
    * sin-diff  sin x cos y - cos x sin y
    * cos-sum   cos x cos y - sin x sin y
    * cos-diff  cos x cos y + sin x sin y

    Requires |x|, |y| and the combined angle within pi/2.
    """
    if which not in ADDITION_RULES:
        raise ValueError(f"unknown addition rule {which!r}")
    ws = scale + GUARD
    half_pi = _half_pi(ws)
    _check_domain(x, half_pi, "pi/2")
    _check_domain(y, half_pi, "pi/2")
    xw, yw = fd_rescale(x.radians, ws), fd_rescale(y.radians, ws)
    combined = fd_add(xw, yw) if which.endswith("sum") else fd_sub(xw, yw)
    _check_domain(Angle(combined), half_pi, "pi/2")
    sx, cx = _sin_cos(x, ws)
    sy, cy = _sin_cos(y, ws)
    if which.startswith(SIN):
        first, second = fd_mul(sx, cy), fd_mul(cx, sy)
    else:
        first, second = fd_mul(cx, cy), fd_mul(sx, sy)
    out = fd_add(first, second if which in (SIN_SUM, COS_DIFF) else -second)
    return fd_rescale(out, scale)


def reduce_angle(theta: Angle, scale: int) -> Angle:
    """Bring an angle into [-pi, pi] by subtracting whole turns."""
    ws = scale + GUARD
    pi = pi_reference(ws)
    two_pi = fd_mul(pi, FixedDec.from_int(2))
    t = fd_rescale(theta.radians, ws)
    shifted = fd_add(t, pi)
    # floor((t + pi) / 2pi): both mantissas sit at ws and 2pi is positive
    k = shifted.sign * shifted.mantissa.to_int() // two_pi.mantissa.to_int()
    out = fd_sub(t, fd_mul(FixedDec.from_int(k), two_pi))
    return Angle(fd_rescale(out, scale))
