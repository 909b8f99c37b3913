"""Infinite-series approximations of pi with correction-term acceleration.

Series implemented (full-pi normalization in all return values):

* ``leibniz``   4 * (1 - 1/3 + 1/5 - 1/7 + ...)
* ``aux-a``     4 * (3/4 + 1/(3^3-3) - 1/(5^3-5) + ...)
* ``aux-b``     8 * (1/(2^2-1) + 1/(6^2-1) + 1/(10^2-1) + ...)
* ``aux-c``     4 * (4/(1^5+4*1) - 4/(3^5+4*3) + ...)
* ``aux-d``     4 * (1/2 + 1/(2^2-1) - 1/(4^2-1) + 1/(6^2-1) - ...)
* ``sqrt12``    sqrt(12) * (1 - 1/(3*3) + 1/(5*3^2) - 1/(7*3^3) + ...)

plus the end-correction terms F1, F2, F3 appended after n Leibniz terms,
the classical 13-digit fraction 2,827,433,388,233 / 9e11, and the
circumference cross-check for a circle of diameter 9e11.

Each series is one ``SeriesDef`` entry in ``SERIES`` (a constant
numerator, the k-th denominator, an optional geometric ratio,
multiplier, signs, a lead never counted in n, tail bound) that summation,
``error_bound`` and ``terms_for_digits`` all read, so adding a series is
one entry.  The F1-F3 formulas are the ``CORRECTION_TERMS`` table.
sqrt12 is the odd reciprocal 1/(2k-1) with ratio 3, so its k-th term is
1/((2k-1) * 3**(k-1)).

Summation is one running-sum kernel, ``_running_sums``, that yields the
partial sum after each term; a single n-term value is its last item.
The kernel shifts the numerator to the scale once and divides that
shared value by each term's denominator times the ratio powers not yet
divided out of it; only when that divisor would outgrow one limb does it
divide the shared value by those powers (for sqrt12 once every 12 to 17
terms).  So sqrt12 divides only by one limb and a term costs one O(scale)
pass rather than a multi-limb division by a scale-digit denominator; the
mantissas are those of the full quotient, bit for bit.
``leibniz_sweep`` reads the same kernel once to give the plain and the
F1-F3 corrected Leibniz values for every n up to a bound in O(n) terms,
each bit-identical to ``leibniz_partial`` / ``leibniz_corrected``.

``pi_reference`` is the one source of pi, computed once per scale and
memoised; every module that needs pi reads it.  It does not use the
truncated kernel: it brackets pi between sqrt(12) times two consecutive
exact sqrt12 partial sums.  Exact sums are plain ints: ``_exact_sum``
takes any series' by binary splitting, and ``_floor_times_m`` floors m
times one (a root multiplier by squares) for ``pi_reference``,
``_exact_floor`` and ``terms_for_digits``.

Numerical contract: the kernel floors each term at its working scale;
``_value_bracket`` bounds, in ints, its drift from m times the exact sum
S.  ``evaluate``, the one printed pi value of ``pi`` and ``converge``,
returns floor(m * S * 10**d) off bigfixed.widen_until_settled, its third
bracket ``_exact_floor``; ``error_bound``, the bound ``pi`` prints beside
it, is taken at d + BOUND_DIGITS (n + 4 ulp of drift).  GUARD sets no
printed digit.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .bigfixed import (
    BASE,
    GUARD,
    BigNat,
    FixedDec,
    fd_add,
    fd_from_ratio,
    fd_isqrt,
    fd_mul,
    fd_round,
    widen_until_settled,
)

LEIBNIZ = "leibniz"
AUX_A = "aux-a"
AUX_B = "aux-b"
AUX_C = "aux-c"
AUX_D = "aux-d"
SQRT12 = "sqrt12"

NO_CORRECTION = "none"
F1 = "f1"
F2 = "f2"
F3 = "f3"

# The extra digits of pi's printed error bound: the bound for d digits
# is taken at d + BOUND_DIGITS.
BOUND_DIGITS = 10


class SeriesDef(NamedTuple):
    """pi ~ multiplier * (lead + sum_{k=1..n} sign_k * num / (den(k) *
    ratio**(k-1))), with sign_k = (-1)**(k-1) when alternating and the
    multiplier's square root when root is set.  The numerator is one
    constant, so a ratio above 1 is a geometric factor the kernel can
    divide out one step at a time.  tail(n) bounds the omitted terms; the
    default, the first omitted term, suits alternating series with
    decreasing terms."""

    den: Callable[[int], int]
    multiplier: int
    num: int = 1
    root: bool = False
    alternating: bool = True
    lead: tuple[int, int] | None = None
    tail: Callable[[int], tuple[int, int]] | None = None
    ratio: int = 1

    def exact_term(self, k: int) -> tuple[int, int]:
        """The k-th term as one exact (num, den), the geometric factor
        folded into den."""
        return self.num, self.den(k) * self.ratio ** (k - 1)

    def tail_bound(self, n: int) -> tuple[int, int]:
        return self.tail(n) if self.tail else self.exact_term(n + 1)


SERIES: dict[str, SeriesDef] = {
    LEIBNIZ: SeriesDef(lambda k: 2 * k - 1, 4),
    AUX_A: SeriesDef(lambda k: (2 * k + 1) ** 3 - (2 * k + 1), 4, lead=(3, 4)),
    # all terms positive; 1/((4k-3)(4k-1)) <= 1/(8k-6) - 1/(8k+2) telescopes
    AUX_B: SeriesDef(lambda k: (4 * k - 2) ** 2 - 1, 8, alternating=False,
                     tail=lambda n: (1, 8 * n + 2)),
    AUX_C: SeriesDef(lambda k: (2 * k - 1) ** 5 + 4 * (2 * k - 1), 4, num=4),
    AUX_D: SeriesDef(lambda k: (2 * k) ** 2 - 1, 4, lead=(1, 2)),
    # Leibniz's odd reciprocals with ratio 3: arctan(1/sqrt(3)) = pi/6
    SQRT12: SeriesDef(lambda k: 2 * k - 1, 12, root=True, ratio=3),
}
SERIES_IDS = tuple(SERIES)

# End-corrections after n Leibniz terms, as (numerator, denominator).
CORRECTION_TERMS: dict[str, Callable[[int], tuple[int, int]]] = {
    F1: lambda n: (1, 4 * n),
    F2: lambda n: (n, 4 * n * n + 1),
    F3: lambda n: (n * n + 1, n * (4 * n * n + 5)),
}
CORRECTIONS = (NO_CORRECTION, *CORRECTION_TERMS)


def corrections_for(series_id: str) -> tuple[str, ...]:
    """The correction modes a series admits: F1-F3 are Leibniz's only."""
    return CORRECTIONS if series_id == LEIBNIZ else (NO_CORRECTION,)


# Attributed circumference of a circle of diameter 9e11, and that diameter.
MADHAVA_CIRCUMFERENCE = 2_827_433_388_233
CIRCLE_DIAMETER = 9 * 10**11

DEFAULT_TERM_CAP = 1_000_000
# Largest --scale / --digits the CLI accepts; bounds the work of one command.
SCALE_CAP = 2000


class TermCountError(ValueError):
    """Requested digit count needs more terms than the configured cap."""


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

def _series(series_id: str) -> SeriesDef:
    try:
        return SERIES[series_id]
    except KeyError:
        raise ValueError(f"unknown series id {series_id!r}") from None


def _running_sums(series: SeriesDef, n: int, scale: int) -> Iterator[FixedDec]:
    """lead + sum_{k=1..m} sign_k * exact_term(k) for m = 1..n, each
    quotient truncated at scale.

    The kernel carries scaled = floor(num * 10**scale / ratio**(k-1-e))
    and pending = ratio**e, the ratio powers not yet divided out of it, and
    takes the k-th mantissa as scaled // (den(k) * pending).  Only when
    pending > 1 and den(k) * pending no longer fits one limb does it divide
    scaled by pending and reset pending to 1; a ratio-1 series, whose den
    may outgrow one limb (aux-c's from k = 33), never does.  Since
    floor(floor(x / a) / b) = floor(x / (a * b)) for positive integers,
    every mantissa equals fd_from_ratio(*exact_term(k), scale).  For
    sqrt12 every divisor fits one limb, so a term costs one O(scale) pass,
    plus the division of scaled by pending every 12 to 17 terms, instead of a
    division by an O(scale)-digit denominator; every series is spared the
    per-term shift.
    """
    acc = fd_from_ratio(*series.lead, scale) if series.lead else FixedDec.from_int(0, scale)
    step = -1 if series.alternating else 1
    sign = 1
    pending = 1
    scaled = BigNat.from_int(series.num).shift10(scale)
    for k in range(1, n + 1):
        den = series.den(k)
        if pending > 1 and den * pending >= BASE:
            scaled //= BigNat.from_int(pending)
            pending = 1
        acc = fd_add(acc, FixedDec(sign, scaled // BigNat.from_int(den * pending), scale))
        pending *= series.ratio
        sign *= step
        yield acc


def _partial_sum(series: SeriesDef, n: int, scale: int) -> FixedDec:
    """The n-th running sum (n >= 1)."""
    return deque(_running_sums(series, n, scale), maxlen=1).pop()


def _multiplier(series: SeriesDef, scale: int) -> FixedDec:
    """The multiplier; a root is truncated at scale."""
    m = FixedDec.from_int(series.multiplier)
    return fd_isqrt(m, scale) if series.root else m


def _series_value(series: SeriesDef, n: int, scale: int) -> FixedDec:
    _check_terms(n)
    return fd_mul(_partial_sum(series, n, scale), _multiplier(series, scale))


def leibniz_partial(n: int, scale: int) -> FixedDec:
    """4 * sum_{k=1..n} (-1)**(k-1) / (2k-1).

    Error vs pi is within 4/(2n+1) + n * 10**-scale.
    """
    return _series_value(SERIES[LEIBNIZ], n, scale)


def correction_term(n: int, variant: str, scale: int) -> FixedDec:
    """End-correction after n terms: F1 = 1/(4n), F2 = n/(4n^2+1),
    F3 = (n^2+1)/(n(4n^2+5)).  Exact formula value truncated at scale."""
    _check_terms(n)
    if variant not in CORRECTION_TERMS:
        raise ValueError(f"unknown correction variant {variant!r}")
    num, den = CORRECTION_TERMS[variant](n)
    return fd_from_ratio(num, den, scale)


def _corrected(partial: FixedDec, n: int, corr: FixedDec) -> FixedDec:
    """4 * (partial + (-1)**n * corr) for the n-term Leibniz partial sum.

    The correction sign follows the series: it continues the alternation
    after the n-th term.
    """
    s = fd_add(partial, corr if n % 2 == 0 else -corr)
    return fd_mul(s, _multiplier(SERIES[LEIBNIZ], partial.scale))


def leibniz_corrected(n: int, variant: str, scale: int) -> FixedDec:
    """4 * (n-term Leibniz sum + (-1)**n * F_variant(n))."""
    corr = correction_term(n, variant, scale)
    return _corrected(_partial_sum(SERIES[LEIBNIZ], n, scale), n, corr)


def leibniz_sweep(n_max: int, scale: int) -> Iterator[tuple[int, dict[str, FixedDec]]]:
    """(n, {mode: value}) for n = 1..n_max and every mode in CORRECTIONS,
    from one pass over the Leibniz terms.  Each value is bit-identical to
    leibniz_partial(n, scale) or leibniz_corrected(n, mode, scale).
    n_max is checked against the term cap when iteration starts."""
    _check_terms(n_max)
    series = SERIES[LEIBNIZ]
    multiplier = _multiplier(series, scale)
    for n, partial in enumerate(_running_sums(series, n_max, scale), 1):
        values = {NO_CORRECTION: fd_mul(partial, multiplier)}
        for variant in CORRECTION_TERMS:
            values[variant] = _corrected(partial, n, correction_term(n, variant, scale))
        yield n, values


def aux_series(series_id: str, n: int, scale: int) -> FixedDec:
    """One of the four auxiliary series, normalized to approximate pi.

    n counts summed terms after any leading constant; the leading 3/4 of
    aux-a and 1/2 of aux-d are always included.
    """
    if series_id not in (AUX_A, AUX_B, AUX_C, AUX_D):
        raise ValueError(f"not an auxiliary series id: {series_id!r}")
    return _series_value(SERIES[series_id], n, scale)


def pi_sqrt12(n: int, scale: int) -> FixedDec:
    """sqrt(12) times the n-term sum 1 - 1/(3*3) + 1/(5*3^2) - ...

    Analytic error within sqrt(12) / ((2n+1) * 3**n).
    """
    return _series_value(SERIES[SQRT12], n, scale)


def madhava_pi_value(scale: int) -> FixedDec:
    """The attributed fraction 2,827,433,388,233 / 9e11, truncated at scale.

    Correct to the 10th decimal place; the 11th differs from pi.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    return fd_from_ratio(MADHAVA_CIRCUMFERENCE, CIRCLE_DIAMETER, scale)


@lru_cache(maxsize=None)
def pi_reference(scale: int) -> FixedDec:
    """pi truncated at the given scale, proven by an exact bracket.

    The sqrt12 terms alternate and shrink, so pi lies between sqrt(12)
    times the exact partial sums S_n and S_{n+1} = S_n + exact_term(n +
    1), n the analytic bound's count for ws digits, each end floored at
    ws, from ws two past the scale.  The widening ends because pi is
    irrational.  Memoised."""
    if scale < 0:
        raise ValueError("scale must be >= 0")
    series = SERIES[SQRT12]
    def bracket(ws: int) -> list[int]:
        n = terms_for_digits(SQRT12, ws)
        num, den = _exact_sum(series, n)
        t_num, t_den = series.exact_term(n + 1)
        ends = (num, den), (num * t_den + (-1) ** n * t_num * den, den * t_den)
        return sorted(_floor_times_m(series, *end, ws) for end in ends)
    return widen_until_settled(bracket, scale, scale + 2)


def circumference_check() -> int:
    """The circumference of the diameter-9e11 circle, recomputed to
    compare with the attributed 2,827,433,388,233.

    The product of pi_reference(20) and the diameter is within 9e11 *
    10**-20, well under one unit, of the true circumference; it is then
    rounded to the nearest integer (half away from zero).
    """
    product = fd_mul(pi_reference(20), FixedDec.from_int(CIRCLE_DIAMETER))
    return fd_round(product, 0).mantissa.to_int()


# ---------------------------------------------------------------------------
# a-priori bounds, term selection and one-call evaluation
# ---------------------------------------------------------------------------

def terms_for_digits(series_id: str, digits: int) -> int:
    """Smallest n whose analytic bound, error_bound without the drift,
    drops below 10**-digits, that is whose _floor_times_m at digits is 0,
    under a doubling search and a bisection.  leibniz and aux-b shrink
    only like 1/n, so their n grows like 10**digits; requests that need
    more than DEFAULT_TERM_CAP terms are refused."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    series = _series(series_id)

    def below(n: int) -> bool:
        return _floor_times_m(series, *series.tail_bound(n), digits) == 0

    lo, hi = 0, 1  # below(lo) fails (or lo is 0); hi is the candidate
    while not below(hi):
        if hi >= DEFAULT_TERM_CAP:
            raise TermCountError(
                f"{series_id} needs more than {DEFAULT_TERM_CAP} terms for {digits} digits")
        lo, hi = hi, min(2 * hi, DEFAULT_TERM_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def error_bound(series_id: str, terms: int, correction: str, digits: int) -> FixedDec | None:
    """The bound printed beside evaluate's value: a-priori on |value - pi|,
    the multiplier, ceiled, times the series' tail bound, floored, plus
    the truncation drift, at digits + BOUND_DIGITS.  None where no closed
    form is carried (the corrected Leibniz variants)."""
    if correction != NO_CORRECTION:
        return None
    series = _series(series_id)
    scale = digits + BOUND_DIGITS
    num, den = series.tail_bound(terms)
    # drift: n per-term truncations plus a couple for the final scaling
    return FixedDec(1, _ceil_multiplier(series, scale) * num // den + terms + 4, scale)


def _ceil_multiplier(series: SeriesDef, scale: int) -> int:
    """ceil(m * 10**scale), m the multiplier; a root's by squares."""
    if series.root:
        return math.isqrt(series.multiplier * 10 ** (2 * scale) - 1) + 1
    return series.multiplier * 10**scale


def _value(series_id: str, terms: int, correction: str, scale: int) -> FixedDec:
    """The kernel value at scale, for a request evaluate has checked."""
    if series_id == LEIBNIZ:
        if correction == NO_CORRECTION:
            return leibniz_partial(terms, scale)
        return leibniz_corrected(terms, correction, scale)
    if series_id == SQRT12:
        return pi_sqrt12(terms, scale)
    return aux_series(series_id, terms, scale)


def _value_bracket(series_id: str, terms: int, correction: str, ws: int) -> tuple[int, int]:
    """The kernel value V at ws -+ its drift from m * S, in ulp at ws, S
    the exact sum with its signed correction and m the multiplier.  The
    kernel's sum S' floors the n terms, the lead and the correction, so
    |S - S'| < n + 2 ulp, which m scales by at most ceil(m).  For sqrt12,
    S' <= 1 times the floored root adds under one ulp, and the truncated
    product one more: the drift is under ceil(m) * (n + 2) + 2 ulp."""
    value = _value(series_id, terms, correction, ws)
    mantissa = value.sign * value.mantissa.to_int()
    drift = _ceil_multiplier(SERIES[series_id], 0) * (terms + 2) + 2
    return mantissa - drift, mantissa + drift


def _exact_sum(series: SeriesDef, n: int) -> tuple[int, int]:
    """sum_{k=1..n} sign_k * exact_term(k) for n >= 1, no lead, as plain
    ints (num, den) by binary splitting (Haible & Papanikolaou, 1998):
    split(a, b) is t, d = prod den(k) and q = ratio**(b - a), with t / (d *
    q) the sum over a <= k < b of sign_k / (den(k) * ratio**(k - a + 1))."""
    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a == 1:
            return -1 if series.alternating and a % 2 == 0 else 1, series.den(a), series.ratio
        t1, d1, q1 = split(a, (a + b) // 2)
        t2, d2, q2 = split((a + b) // 2, b)
        return t1 * d2 * q2 + t2 * d1, d1 * d2, q1 * q2
    t, d, q = split(1, n + 1)
    return series.num * t, d * q // series.ratio


def _floor_times_m(series: SeriesDef, num: int, den: int, digits: int) -> int:
    """floor(m * num / den * 10**digits) for num / den >= 0, m the
    multiplier; a root multiplier's is the isqrt of the floored square."""
    power = 1 + series.root
    floor = series.multiplier * (num * 10**digits) ** power // den**power
    return math.isqrt(floor) if series.root else floor


def _exact_floor(series_id: str, terms: int, correction: str, digits: int) -> int:
    """floor(m * S * 10**digits) on plain ints, S > 0 the _exact_sum plus
    the lead and the signed correction."""
    series = SERIES[series_id]
    num, den = _exact_sum(series, terms)
    lead_num, lead_den = series.lead or (0, 1)
    num, den = num * lead_den + lead_num * den, den * lead_den
    if correction != NO_CORRECTION:
        c_num, c_den = CORRECTION_TERMS[correction](terms)
        num, den = num * c_den + (-1) ** terms * c_num * den, den * c_den
    return _floor_times_m(series, num, den, digits)


def evaluate(series_id: str, terms: int, correction: str, digits: int) -> FixedDec:
    """The printed pi value: floor(m * S * 10**digits) for the exact n-term
    value m * S, end-correction included, read off _value_bracket at ws =
    digits + GUARD and digits + 2 * GUARD, then off _exact_floor, for a
    value that no widening separates (leibniz's 4 at n = 1).  Equal
    arguments give bit-identical results."""
    _series(series_id)
    if terms < 1:
        raise ValueError("terms must be >= 1")
    if correction not in CORRECTIONS:
        raise ValueError(f"unknown correction {correction!r}")
    if correction not in corrections_for(series_id):
        raise ValueError("corrections apply to the leibniz series only")
    if digits < 0:
        raise ValueError("digits must be >= 0")
    def bracket(ws: int) -> tuple[int, int]:
        if ws > digits + 2 * GUARD:
            return (_exact_floor(series_id, terms, correction, ws),) * 2
        return _value_bracket(series_id, terms, correction, ws)
    return widen_until_settled(bracket, digits, digits + GUARD)


def _check_terms(n: int) -> None:
    if n < 1:
        raise ValueError("term count must be >= 1")
    if n > DEFAULT_TERM_CAP:
        raise TermCountError(f"term count {n} is above the cap of {DEFAULT_TERM_CAP}")
