"""Sine and cosine power series, nested polynomial evaluation, the
24-entry sine table, second-order shift formulas and angle-addition rules.

Two nested schemes.  trig eval's sin, cos and sin^2 share one loop that
sums the series as a polynomial in theta**2, innermost first, flooring
each exact coefficient ratio at the working scale as it goes.  _sin_cos,
the sine-cosine pair behind the sine table, the shift formulas and the
addition rules, runs Madhava's ratio form u(1 - u**2/(2*3)(1 - u**2/(4*5)
(...))) on plain ints and floors no coefficient.

Every angle is FixedDec radians.  theta_t(degrees, scale) is the angle a
degree argument names for a result at scale: degrees * pi / 180
floored at scale + ANGLE_DIGITS, with pi floored at
scale + 2*ANGLE_DIGITS.  The pi/2 limit of the shift formulas and
addition rules is theta_t of 90 degrees, and the series' pi limit is pi
floored at scale + ANGLE_DIGITS.  ANGLE_DIGITS is part of what the CLI
prints.  The series contracts hold for |theta| <= pi.
full_domain_terms(digits, fn) is the term count for that domain; the
cosine sums one term more than the sine, as in _sin_cos.

The sine table runs the second-difference rule s_{k+1} = 2 cos(h) s_k -
s_{k-1} on ints over h = 3.75 degrees from one sin h and one cos h, and
reads each entry off bigfixed.widen_until_settled, so it prints the same
digits for any GUARD >= 1.

Every public operation takes a target scale and truncates its result to
it.  GUARD says only where the kernels start: the series work at
scale + GUARD, and the sine table, the shift formulas and the addition
rules work at scale + GUARD and ask _sin_cos for that scale, so the pair
runs at scale + 2*GUARD.  The one exception to truncate-everywhere is
the final quantization of sine-table entries, which rounds half-away so
that exact values (sin 30 = 0.5, sin 90 = 1) survive at table scale.
"""

from __future__ import annotations

from math import factorial
from typing import Callable

from .bigfixed import (
    GUARD,
    FixedDec,
    fd_add,
    fd_divn,
    fd_from_ratio,
    fd_mul,
    fd_rescale,
    fd_sub,
    widen_until_settled,
)
from .pi_series import pi_reference

SIN = "sin"
COS = "cos"
SINSQ = "sinsq"

SIN_SUM = "sin-sum"
SIN_DIFF = "sin-diff"
COS_SUM = "cos-sum"
COS_DIFF = "cos-diff"
ADDITION_RULES = (SIN_SUM, SIN_DIFF, COS_SUM, COS_DIFF)

SINE_TABLE_SIZE = 24  # one twenty-fourth of a quadrant: 3.75 degree steps
_RIGHT_ANGLE = FixedDec.from_int(90)
# theta_t's extra digits: a degree argument's angle for a result at
# scale is floored at scale + ANGLE_DIGITS from pi floored ANGLE_DIGITS
# further; the pi and pi/2 domain limits read the same digits.
ANGLE_DIGITS = 10


def theta_t(degrees: FixedDec, scale: int) -> FixedDec:
    """A degree argument's angle for a result at scale: degrees * pi /
    180 floored at scale + ANGLE_DIGITS, with pi floored ANGLE_DIGITS
    further."""
    ws = scale + ANGLE_DIGITS
    prod = fd_mul(fd_rescale(degrees, ws + ANGLE_DIGITS), pi_reference(ws + ANGLE_DIGITS))
    return fd_divn(prod, 180, ws)


# Coefficient k in x = theta**2 is (-1)**k * num / den, (num, den) = term(k).
# sin^2's 2**(2k+1) / (2k+2)! is exactly its running-product form 1 / D_{k+1}.
_COEFFICIENT_TERMS: dict[str, Callable[[int], tuple[int, int]]] = {
    SIN: lambda k: (1, factorial(2 * k + 1)),
    COS: lambda k: (1, factorial(2 * k)),
    SINSQ: lambda k: (2 ** (2 * k + 1), factorial(2 * k + 2)),
}


def _check_domain(theta: FixedDec, limit: FixedDec, what: str) -> None:
    # two ulp of slack so boundary angles built from truncated pi pass
    slack = FixedDec(1, 2, limit.scale)
    if abs(fd_rescale(theta, limit.scale)) > fd_add(limit, slack):
        raise ValueError(f"angle out of range: |theta| must be <= {what}")


def _power_series(fn: str, theta: FixedDec, terms: int, scale: int) -> FixedDec:
    """fn's first terms terms at theta, summed at ws = scale + GUARD as a
    polynomial in x = theta**2 by nesting, (((c_N x + c_{N-1}) x + ...) x
    + c_0), each coefficient floored at ws; then times theta for sin and
    x for sin^2, truncated to scale."""
    _check_domain(theta, pi_reference(scale + ANGLE_DIGITS), "pi")
    if terms < 1:
        raise ValueError("terms must be >= 1")
    ws = scale + GUARD
    th = fd_rescale(theta, ws)
    x = fd_mul(th, th)
    term, one = _COEFFICIENT_TERMS[fn], 10**ws
    acc = FixedDec.from_int(0, ws)
    for k in reversed(range(terms)):
        num, den = term(k)
        acc = fd_add(fd_mul(acc, x), FixedDec((-1) ** k, num * one // den, ws))
    if fn == SIN:
        acc = fd_mul(acc, th)
    elif fn == SINSQ:
        acc = fd_mul(acc, x)
    return fd_rescale(acc, scale)


def sin_series(theta: FixedDec, terms: int, scale: int) -> FixedDec:
    """Partial sum theta - theta^3/3! + theta^5/5! - ... via nested
    evaluation.  Requires |theta| <= pi."""
    return _power_series(SIN, theta, terms, scale)


def cos_series(theta: FixedDec, terms: int, scale: int) -> FixedDec:
    """Partial sum 1 - theta^2/2! + theta^4/4! - ... via nested
    evaluation.  Requires |theta| <= pi."""
    return _power_series(COS, theta, terms, scale)


def sin_sq_series(theta: FixedDec, terms: int, scale: int) -> FixedDec:
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


def full_domain_terms(digits: int, fn: str = SIN) -> int:
    """Terms for fn (sin, cos or sinsq) on the series' whole domain
    |theta| <= pi: sin_terms_for there, and one term more for cos, as in
    _sin_cos.  sin^2 keeps the sine's count until ROADMAP item 8."""
    return sin_terms_for(digits, 3142) + (fn == COS)


TRIG_TERM_CAP = 488  # full_domain_terms(SCALE_CAP + ANGLE_DIGITS), stored for a cheap import


def table_degrees(k: int) -> FixedDec:
    """Sine-table entry k's angle, k * 3.75 degrees, exact at scale 2."""
    return fd_from_ratio(15 * k, 4, 2)


def build_sine_table(scale: int) -> tuple[tuple[int, FixedDec], ...]:
    """The 24 pairs (k, sin(k * 3.75 degrees)) of the traditional grid up
    to 90 degrees.

    Entry k is sin(theta_k) rounded half-away at the table scale, so the
    exact grid points (30 and 90 degrees) land on 0.5 and 1.  Its bracket
    is s_k +- _drift_ulp(k), half an ulp up so its floor rounds: first off
    the shared recurrence, then, GUARD digits wider each time, off the
    recurrence for entry k alone with step theta_k / k.  sin(theta_k) of a
    nonzero rational theta_k is never a tie, so the widening ends.
    """
    if scale < 10:
        raise ValueError("sine table needs scale >= 10")
    start = scale + GUARD
    shared = _second_difference_sines(theta_t(table_degrees(1), scale), SINE_TABLE_SIZE, start)
    def bracket(k: int, ws: int) -> tuple[int, int]:
        value = shared[k] if ws == start else _second_difference_sines(
            fd_divn(theta_t(table_degrees(k), scale), k, ws), k, ws)[k]
        mid, drift = value + 5 * 10 ** (ws - scale - 1), _drift_ulp(k)
        return mid - drift, mid + drift
    return tuple((k, widen_until_settled(lambda ws: bracket(k, ws), scale, start))
                 for k in range(1, SINE_TABLE_SIZE + 1))


def _second_difference_sines(h: FixedDec, count: int, ws: int) -> list[int]:
    """s_0 .. s_count in ulp at ws by the second-difference rule s_{k+1} =
    2 cos(h) s_k - s_{k-1} from s_0 = 0 and _sin_cos's sin h and cos h,
    for h > 0 and count * h <= pi/2: every s_k is positive, so each
    floored product is the truncated one."""
    sin_h, cos_h = (v.mantissa.to_int() for v in _sin_cos(h, ws))
    two_cos_h, one = 2 * cos_h, 10**ws
    sines = [0, sin_h]
    while len(sines) <= count:
        sines.append(two_cos_h * sines[-1] // one - sines[-2])
    return sines


def _drift_ulp(k: int) -> int:
    """A bound, in ulp at the recurrence's working scale, on
    |s_k - sin(theta_k)|, theta_k the table entry's own theta_t, for a
    step h with theta_k - k*h in [0, k-1] ulp: h theta_t of 3.75 degrees,
    or theta_k / k truncated at a wider scale.

    sin h and cos h are each within 2 ulp (one for the final truncation;
    every nested factor is below 0.003 as h < 0.066 rad, so the rest is
    under 3 ulp at GUARD >= 1 more digits, below the other), so every step
    adds under 1 + 2 * 2 * |s_k| < 6 ulp: the truncated product and the
    error of cos h.  The recurrence carries an error made at step j into
    s_k times U_{k-1-j}(cos h) = sin((k-j) h) / sin h, at most k - j in
    size: 2k + 3k(k-1) ulp in all.  sin is 1-Lipschitz, so the gap
    between k*h and theta_k makes 3k**2 - 1.
    """
    return 3 * k * k


def _sin_cos(u: FixedDec, ws: int) -> tuple[FixedDec, FixedDec]:
    """sin u and cos u at ws for |u| <= pi/2, by Madhava's nesting in x =
    u**2 on ints at ws + GUARD: sin u = u(1 - x/(2*3)(1 - x/(4*5)(...)))
    to N = sin_terms_for(ws + GUARD, ceil(1000|u|)) terms, cos u = 1 -
    x/(1*2)(1 - x/(3*4)(...)) to N + 1.  One floor a step; every factor
    but cos's first (x/2 < 1.24) is below 1, so they stay within a few
    ulp there.  Each result is truncated toward zero at ws."""
    work = ws + GUARD
    one, cut = 10**work, 10**GUARD
    m = fd_rescale(abs(u), work).mantissa.to_int()
    terms = sin_terms_for(work, -(-1000 * m // one))
    x = m * m // one
    s = c = one
    for k in range(terms - 1, 0, -1):
        s = one - x * s // (2 * k * (2 * k + 1) * one)
    for k in range(terms, 0, -1):
        c = one - x * c // ((2 * k - 1) * 2 * k * one)
    cos_u = FixedDec(1 if c >= 0 else -1, abs(c) // cut, ws)
    return FixedDec(u.sign, m * s // (one * cut), ws), cos_u


def taylor_shift(u: FixedDec, h: FixedDec, fn: str, scale: int) -> FixedDec:
    """The three-term shift, the second-order approximation to fn(u + h):

    * sin  sin(u) + h*cos(u) - h^2/2 * sin(u)
    * cos  cos(u) - h*sin(u) - h^2/2 * cos(u)

    This is not the true fn(u + h); the cubic remainder is about
    |h|**3/6.  Requires |u| <= pi/2 and |h| <= 0.5.
    """
    if fn not in (SIN, COS):
        raise ValueError(f"shift function must be sin or cos, got {fn!r}")
    ws = scale + GUARD
    _check_domain(u, theta_t(_RIGHT_ANGLE, scale), "pi/2")
    if abs(h) > FixedDec(1, 5, 1):  # 0.5, compared with h as given
        raise ValueError("shift step must satisfy |h| <= 0.5")
    s, c = _sin_cos(u, ws)
    hw = fd_rescale(h, ws)
    h2_half = fd_divn(fd_mul(hw, hw), 2)
    # a + h*b - h^2/2 * a, with (a, b) = (sin u, cos u) or (cos u, -sin u)
    a, b = (s, c) if fn == SIN else (c, -s)
    out = fd_sub(fd_add(a, fd_mul(hw, b)), fd_mul(h2_half, a))
    return fd_rescale(out, scale)


def angle_add(x: FixedDec, y: FixedDec, which: str, scale: int) -> FixedDec:
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
    half_pi = theta_t(_RIGHT_ANGLE, scale)
    _check_domain(x, half_pi, "pi/2")
    _check_domain(y, half_pi, "pi/2")
    xw, yw = fd_rescale(x, ws), fd_rescale(y, ws)
    combined = fd_add(xw, yw) if which.endswith("sum") else fd_sub(xw, yw)
    _check_domain(combined, half_pi, "pi/2")
    sx, cx = _sin_cos(x, ws)
    sy, cy = _sin_cos(y, ws)
    if which.startswith(SIN):
        first, second = fd_mul(sx, cy), fd_mul(cx, sy)
    else:
        first, second = fd_mul(cx, cy), fd_mul(sx, sy)
    out = fd_add(first, second if which in (SIN_SUM, COS_DIFF) else -second)
    return fd_rescale(out, scale)

