"""Infinite-series approximations of pi with correction-term acceleration.

Series implemented (full-pi normalization in all return values):

* ``leibniz``   4 * (1 - 1/3 + 1/5 - 1/7 + ...)
* ``aux-a``     4 * (3/4 + 1/(3^3-3) - 1/(5^3-5) + ...)
* ``aux-b``     8 * (1/(2^2-1) + 1/(6^2-1) + 1/(10^2-1) + ...)
* ``aux-c``     4 * (4/(1^5+4*1) - 4/(3^5+4*3) + ...)
* ``aux-d``     4 * (1/2 + 1/(2^2-1) - 1/(4^2-1) + 1/(6^2-1) - ...)
* ``sqrt12``    sqrt(12) * (1 - 1/(3*3) + 1/(5*3^2) - 1/(7*3^3) + ...)

plus the arctangent power series (x - x^3/3 + x^5/5 - ...) from which the
sqrt12 form arises at x = 1/sqrt(3), the end-correction terms F1, F2, F3
appended after n Leibniz terms, the classical 13-digit fraction
2,827,433,388,233 / 9e11, and the circumference cross-check for a circle
of diameter 9e11.  The arctangent is summed by ``odd_power_series``, the
one term-by-term loop over alternating odd powers; the sine series is
the same loop with factorial denominators.

Each series is one ``SeriesDef`` entry in ``SERIES`` (a constant
numerator, the k-th denominator, an optional geometric ratio,
multiplier, signs, lead constant, tail bound) that summation,
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
exact sqrt12 partial sums, held as integers, and returns the floor both
ends share, as ``bigfixed.settled`` decides.

Numerical contract: a call with working scale s sums reciprocals that are
individually truncated at s, so the result carries the analytic series
error plus a truncation drift: each term loses under 10**-s, alternating
signs cancel about half of that, and the multiplier scales the rest, so
sqrt12 drifts by at most (1.74n + 4) * 10**-s (``error_bound`` reports
only n + 4).  ``evaluate_digits`` holds the printed convention: d digits
are computed at s = d + BOUND_DIGITS, the value truncated to d and the
bound printed at s.

Two constants of the same value say different things.  BOUND_DIGITS is
part of what ``pi`` prints.  GUARD is only where a kernel starts and how
far a settle retry widens: ``pi_reference`` prints the same digits for
any GUARD >= 1.

The leading constants in aux-a (3/4) and aux-d (1/2) are always included
and never counted in n.  Term denominators are constructed as exact
Python integers and immediately wrapped; all accumulation in the series
kernels is FixedDec.  ``pi_reference`` alone accumulates plain ints.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Callable, Iterator, NamedTuple

from .bigfixed import (
    BASE,
    BigNat,
    FixedDec,
    fd_add,
    fd_divn,
    fd_from_ratio,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_round,
    settled,
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

# Where the kernels start past the requested scale, and how many more
# digits a settle retry asks for; no printed digit depends on it.
GUARD = 10
# The extra digits of pi's printed error bound: d digits are evaluated
# at d + BOUND_DIGITS.  Until each value is proven by its own bracket,
# this scale also carries the value's precision.
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


# NamedTuple bodies may not define __new__, so the subclass below validates
class _SeriesSpec(NamedTuple):
    series_id: str
    terms: int
    correction: str = NO_CORRECTION
    scale: int = 20


class SeriesSpec(_SeriesSpec):
    """Selects one pi series evaluation: id, term count, optional
    end-correction (Leibniz only) and working scale."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.series_id not in SERIES_IDS:
            raise ValueError(f"unknown series id {self.series_id!r}")
        if self.terms < 1:
            raise ValueError("terms must be >= 1")
        if self.correction not in CORRECTIONS:
            raise ValueError(f"unknown correction {self.correction!r}")
        if self.correction not in corrections_for(self.series_id):
            raise ValueError("corrections apply to the leibniz series only")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")
        return self


class PiResult(NamedTuple):
    value: FixedDec
    terms_used: int
    error_bound: FixedDec | None


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
    every mantissa equals fd_from_ratio(*exact_term(k)).  For sqrt12 every
    divisor fits one limb, so a term costs one O(scale) pass, plus the
    division of scaled by pending every 12 to 17 terms, instead of a
    division by an O(scale)-digit denominator; every series is spared the
    per-term shift.
    """
    acc = fd_from_ratio(*series.lead, 1, scale) if series.lead else FixedDec.from_int(0, scale)
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
    return fd_from_ratio(num, den, 1, scale)


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


def arctan_series(x: FixedDec, n: int, scale: int) -> FixedDec:
    """n-term arctangent series x - x^3/3 + x^5/5 - ...

    Requires |x| <= 1 (the series diverges beyond).  For |x| < 1 the
    analytic error is within |x|**(2n+1) / (2n+1).
    """
    _check_terms(n)
    if abs(x) > FixedDec.from_int(1, x.scale):
        raise ValueError("arctan series needs |x| <= 1")
    return odd_power_series(x, n, scale, lambda k: 2 * k + 1)


def odd_power_series(x: FixedDec, terms: int, scale: int, den: Callable[[int], int]) -> FixedDec:
    """sum_{k < terms} (-1)**k * x**(2k+1) / den(k), term by term, each
    power and each quotient truncated at scale: the arctangent series
    with den(k) = 2k+1, the sine series with den(k) = (2k+1)!."""
    xw = fd_rescale(x, scale)
    x2 = fd_mul(xw, xw)
    acc = FixedDec.from_int(0, scale)
    power = xw
    for k in range(terms):
        term = fd_divn(power, den(k))
        acc = fd_add(acc, -term if k % 2 else term)
        if k + 1 < terms:
            power = fd_mul(power, x2)
    return acc


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
    return fd_from_ratio(MADHAVA_CIRCUMFERENCE, CIRCLE_DIAMETER, 1, scale)


@lru_cache(maxsize=None)
def pi_reference(scale: int) -> FixedDec:
    """pi truncated at the given scale, proven by an exact bracket.

    The sqrt12 terms alternate and shrink, so pi lies between sqrt(12)
    times the exact partial sums S_n and S_{n+1}.  S_m is a plain integer
    over common * 3**(m-1), common the lcm of the odd denominators, and
    each end is floored at the scale by math.isqrt.  When settled finds
    the two floors equal they are pi's; otherwise n becomes the analytic
    bound's count for GUARD more digits and it retries, which ends
    because pi is irrational.  The first n is that count two digits past
    the request.  Memoised by scale, so every caller at one scale shares
    one computation."""
    if scale < 0:
        raise ValueError("scale must be >= 0")
    digits = scale + 2
    while True:
        n = terms_for_digits(SQRT12, digits)
        common = math.lcm(*range(1, 2 * n + 2, 2))
        ends = []
        acc = 0  # after term m: S_m * common * 3**(m-1)
        for k in range(1, n + 2):
            term = common // (2 * k - 1)
            acc = 3 * acc + (term if k % 2 else -term)
            if k >= n:
                den = common * 3 ** (k - 1)
                floor = math.isqrt(12 * acc * acc * 100**scale // (den * den))
                ends.append(FixedDec(1, floor, scale))
        pi = settled(*ends, scale)
        if pi is not None:
            return pi
        digits += GUARD


class CircumferenceReport(NamedTuple):
    madhava: BigNat
    computed: BigNat
    delta: int


def circumference_check(scale: int = 20) -> CircumferenceReport:
    """Recompute the circumference of the diameter-9e11 circle and compare
    with the attributed 2,827,433,388,233.

    The product of pi_reference(scale) and the diameter is within
    9e11 * 10**-scale, well under one unit, of the true circumference; it
    is then rounded to the nearest integer (half away from zero).
    """
    if scale < 20:
        raise ValueError("circumference check needs scale >= 20")
    product = fd_mul(pi_reference(scale), FixedDec.from_int(CIRCLE_DIAMETER))
    computed = fd_round(product, 0).mantissa
    madhava = BigNat.from_int(MADHAVA_CIRCUMFERENCE)
    return CircumferenceReport(
        madhava=madhava,
        computed=computed,
        delta=madhava.to_int() - computed.to_int(),
    )


# ---------------------------------------------------------------------------
# a-priori bounds, term selection and one-call evaluation
# ---------------------------------------------------------------------------

def terms_for_digits(series_id: str, digits: int, cap: int = DEFAULT_TERM_CAP) -> int:
    """Smallest n whose analytic bound, error_bound without the drift,
    drops below 10**-digits: an exact-integer test (squared for a root
    multiplier) under a doubling search and a bisection.  leibniz and
    aux-b shrink only like 1/n, so their n grows like 10**digits;
    requests that need more than cap terms are refused."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    series = _series(series_id)
    p = 10**digits
    power = 2 if series.root else 1

    def below(n: int) -> bool:
        num, den = series.tail_bound(n)
        return series.multiplier * (num * p) ** power < den**power

    lo, hi = 0, 1  # below(lo) fails (or lo is 0); hi is the candidate
    while not below(hi):
        if hi >= cap:
            raise TermCountError(
                f"{series_id} needs more than {cap} terms for {digits} digits")
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if below(mid):
            hi = mid
        else:
            lo = mid
    return hi


def error_bound(series_id: str, n: int, scale: int, correction: str = NO_CORRECTION) -> FixedDec | None:
    """A-priori bound on |value - pi|: the multiplier times the series'
    tail bound, plus the truncation drift.  None where no closed form is
    carried (the corrected Leibniz variants)."""
    if correction != NO_CORRECTION:
        return None
    series = _series(series_id)
    multiplier = _multiplier(series, scale)
    if series.root:
        # ceil the root so the bound stays an upper bound
        multiplier = fd_add(multiplier, FixedDec(1, 1, scale))
    num, den = series.tail_bound(n)
    analytic = fd_divn(fd_mul(multiplier, FixedDec.from_int(num)), den, scale)
    # drift: n per-term truncations plus a couple for the final scaling
    return fd_add(analytic, FixedDec(1, n + 4, scale))


def evaluate(spec: SeriesSpec) -> PiResult:
    """Evaluate a SeriesSpec at its working scale.  Deterministic: equal
    specs give bit-identical results."""
    if spec.series_id == LEIBNIZ:
        if spec.correction == NO_CORRECTION:
            value = leibniz_partial(spec.terms, spec.scale)
        else:
            value = leibniz_corrected(spec.terms, spec.correction, spec.scale)
    elif spec.series_id == SQRT12:
        value = pi_sqrt12(spec.terms, spec.scale)
    else:
        value = aux_series(spec.series_id, spec.terms, spec.scale)
    bound = error_bound(spec.series_id, spec.terms, spec.scale, spec.correction)
    return PiResult(value=value, terms_used=spec.terms, error_bound=bound)


def evaluate_digits(series_id: str, terms: int, correction: str, digits: int) -> PiResult:
    """The printed convention in one place: evaluate at digits +
    BOUND_DIGITS and truncate the value to digits; the bound stays at
    that scale, as ``pi`` prints it."""
    result = evaluate(SeriesSpec(series_id, terms, correction, digits + BOUND_DIGITS))
    return result._replace(value=fd_rescale(result.value, digits))


def _check_terms(n: int) -> None:
    if n < 1:
        raise ValueError("term count must be >= 1")
    if n > DEFAULT_TERM_CAP:
        raise TermCountError(f"term count {n} is above the cap of {DEFAULT_TERM_CAP}")
