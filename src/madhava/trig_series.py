"""Sine and cosine power series, nested polynomial evaluation, the
24-entry sine table, second-order shift formulas and angle-addition rules.

The evaluation scheme: sin, cos and sin^2 each have a coefficient table,
precomputed once per (purpose, terms, scale), and share one evaluation as
a polynomial in theta**2 by innermost-first nesting, one multiply and one
add per coefficient (then times theta for sin, theta**2 for sin^2).  A
table is built from exact integer ratios and truncated once, so repeated
calls share identical coefficients.

Angles are FixedDec radians.  Angle.for_scale(degrees, scale) is
theta_t, the angle a degree argument names for a result at scale:
degrees * pi / 180 floored at scale + ANGLE_DIGITS, with pi floored at
scale + 2*ANGLE_DIGITS.  The pi/2 limit of the shift formulas and
addition rules is theta_t of 90 degrees, and the series' pi limit is pi
floored at scale + ANGLE_DIGITS.  ANGLE_DIGITS is part of what the CLI
prints.  The series contracts hold for |theta| <= pi; use reduce_angle
first for anything wider.

The sine table runs the second-difference rule s_{k+1} = 2 cos(h) s_k -
s_{k-1} over h = 3.75 degrees from one sin h and one cos h.  Where
bigfixed.settled finds that an entry's drift bound reaches a rounding
tie, the rule is rerun for that entry alone at GUARD more digits until
the bound clears it, so the table prints the same digits for any
GUARD >= 1.

Every public operation takes a target scale and truncates its result to
it.  GUARD says only where the kernels start: the series and
reduce_angle work at scale + GUARD, and the sine table, the shift
formulas and the addition rules work at scale + GUARD and ask the series
for that scale, so their series run at scale + 2*GUARD.  The one
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
    settled,
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
_TABLE_STEP_MILLI = 66  # 3.75 degrees is below 0.066 rad
_RIGHT_ANGLE = FixedDec.from_int(90)
# theta_t's extra digits: a degree argument's angle for a result at
# scale is floored at scale + ANGLE_DIGITS from pi floored ANGLE_DIGITS
# further; the pi and pi/2 domain limits read the same digits.
ANGLE_DIGITS = 10


class Angle(NamedTuple):
    """An angle in radians (FixedDec)."""

    radians: FixedDec

    @classmethod
    def from_degrees(cls, degrees: FixedDec, scale: int) -> "Angle":
        """degrees * pi / 180, truncated at the given scale, with pi
        floored ANGLE_DIGITS further."""
        pi = pi_reference(scale + ANGLE_DIGITS)
        prod = fd_mul(fd_rescale(degrees, scale + ANGLE_DIGITS), pi)
        return cls(fd_divn(prod, 180, scale))

    @classmethod
    def for_scale(cls, degrees: FixedDec, scale: int) -> "Angle":
        """theta_t, a degree argument's angle for a result at scale."""
        return cls.from_degrees(degrees, scale + ANGLE_DIGITS)


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
    _check_domain(theta, pi_reference(scale + ANGLE_DIGITS), "pi")
    ws = scale + GUARD
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

    Defaults to 1.571, an upper bound for pi/2; full_domain_terms
    covers [-pi, pi].  Exact integer comparison throughout; both sides
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


def full_domain_terms(digits: int) -> int:
    """sin_terms_for on the series' whole domain |theta| <= pi."""
    return sin_terms_for(digits, 3142)


TRIG_TERM_CAP = 488  # full_domain_terms(SCALE_CAP + ANGLE_DIGITS), stored for a cheap import


def table_degrees(k: int) -> FixedDec:
    """Sine-table entry k's angle, k * 3.75 degrees, exact at scale 2."""
    return fd_from_ratio(15 * k, 4, 1, 2)


class SineTable(NamedTuple):
    """24 pairs (k, sin(k * 3.75 degrees)) at a fixed decimal scale."""

    entries: tuple[tuple[int, FixedDec], ...]
    scale: int


def build_sine_table(scale: int) -> SineTable:
    """Sine values on the traditional 3.75-degree grid up to 90 degrees.

    Entry k is the second-difference sine s_k rounded half-away at the
    table scale, so the exact grid points (30 and 90 degrees) land on 0.5
    and 1.  Where s_k +- _drift_ulp(k) do not settle to one rounding,
    the recurrence is rerun for entry k alone with step theta_k / k,
    GUARD more digits at a time, until they do; sin(theta_k) of a
    nonzero rational theta_k is never a tie, so the loop ends.
    """
    if scale < 10:
        raise ValueError("sine table needs scale >= 10")
    h = Angle.for_scale(table_degrees(1), scale)
    entries = []
    for k, value in enumerate(_second_difference_sines(h, SINE_TABLE_SIZE, scale + GUARD)[1:], 1):
        while True:
            drift = FixedDec(1, _drift_ulp(k), value.scale)
            entry = settled(fd_sub(value, drift), fd_add(value, drift), scale, fd_round)
            if entry is not None:
                break
            ws = value.scale + GUARD
            theta = Angle.for_scale(table_degrees(k), scale)
            value = _second_difference_sines(Angle(fd_divn(theta.radians, k, ws)), k, ws)[k]
        entries.append((k, entry))
    return SineTable(entries=tuple(entries), scale=scale)


def _second_difference_sines(h: Angle, count: int, ws: int) -> list[FixedDec]:
    """s_0 .. s_count at ws by the second-difference rule
    s_{k+1} = 2 cos(h) s_k - s_{k-1}, with s_0 = 0; sin h and cos h come
    from the series with the sine's term count for |h| below 3.75
    degrees.  cos h sums one term more: its remainder after N + 1 terms
    is |h| / (2N + 2) times the sine's after N."""
    terms = sin_terms_for(ws + GUARD, _TABLE_STEP_MILLI)
    two_cos_h = fd_mul(FixedDec.from_int(2), cos_series(h, terms + 1, ws))
    sines = [FixedDec.from_int(0, ws), sin_series(h, terms, ws)]
    while len(sines) <= count:
        sines.append(fd_sub(fd_mul(two_cos_h, sines[-1]), sines[-2]))
    return sines


def _drift_ulp(k: int) -> int:
    """A bound, in ulp at the recurrence's working scale, on
    |s_k - sin(theta_k)|, theta_k the table entry's own theta_t, for a
    step h with theta_k - k*h in [0, k-1] ulp: h theta_t of 3.75 degrees,
    or theta_k / k truncated at a wider scale.

    sin h and cos h are each within 2 ulp (one for the final truncation;
    the series' remainder, below 10**-GUARD ulp for both, and the
    rounding of its GUARD extra digits lie below the other), so every step
    adds under 1 + 2 * 2 * |s_k| < 6 ulp: the truncated product and the
    error of cos h.  The recurrence carries an error made at step j into
    s_k times U_{k-1-j}(cos h) = sin((k-j) h) / sin h, at most k - j in
    size: 2k + 3k(k-1) ulp in all.  sin is 1-Lipschitz, so the gap
    between k*h and theta_k makes 3k**2 - 1.
    """
    return 3 * k * k


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
    _check_domain(u, Angle.for_scale(_RIGHT_ANGLE, scale).radians, "pi/2")
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
    half_pi = Angle.for_scale(_RIGHT_ANGLE, scale).radians
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
