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
of diameter 9e11.

Each series is one ``SeriesDef`` entry in ``SERIES`` (exact terms,
multiplier, signs, lead constant, tail bound) that summation,
``error_bound`` and ``terms_for_digits`` all read, so adding a series is
one entry.  The F1-F3 formulas are the ``CORRECTION_TERMS`` table.

Numerical contract: a call with working scale s sums reciprocals that are
individually truncated at s, so the result carries the analytic series
error plus at most (n + a few) * 10**-s of truncation drift.  Callers
wanting d trustworthy digits follow the guard-digit convention: compute
at s = d + GUARD and truncate the result to d.

The leading constants in aux-a (3/4) and aux-d (1/2) are always included
and never counted in n.  Term denominators are constructed as exact
Python integers and immediately wrapped; all accumulation is FixedDec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bigfixed import (
    BigNat,
    FixedDec,
    fd_add,
    fd_divn,
    fd_from_ratio,
    fd_from_string,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_round,
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

# Guard digits: d requested digits are computed at scale d + GUARD.
GUARD = 10


@dataclass(frozen=True)
class SeriesDef:
    """pi ~ multiplier * (lead + sum_{k=1..n} sign_k * term(k)), with
    term(k) = (num, den) for k >= 1, sign_k = (-1)**(k-1) when alternating,
    and the multiplier's square root when root is set.  tail(n) bounds the
    omitted terms; the default, the first omitted term, suits alternating
    series with decreasing terms."""

    term: Callable[[int], tuple[int, int]]
    multiplier: int
    root: bool = False
    alternating: bool = True
    lead: tuple[int, int] | None = None
    tail: Callable[[int], tuple[int, int]] | None = None

    def tail_bound(self, n: int) -> tuple[int, int]:
        return self.tail(n) if self.tail else self.term(n + 1)


SERIES: dict[str, SeriesDef] = {
    LEIBNIZ: SeriesDef(lambda k: (1, 2 * k - 1), 4),
    AUX_A: SeriesDef(lambda k: (1, (2 * k + 1) ** 3 - (2 * k + 1)), 4, lead=(3, 4)),
    # all terms positive; 1/((4k-3)(4k-1)) <= 1/(8k-6) - 1/(8k+2) telescopes
    AUX_B: SeriesDef(lambda k: (1, (4 * k - 2) ** 2 - 1), 8, alternating=False,
                     tail=lambda n: (1, 8 * n + 2)),
    AUX_C: SeriesDef(lambda k: (4, (2 * k - 1) ** 5 + 4 * (2 * k - 1)), 4),
    AUX_D: SeriesDef(lambda k: (1, (2 * k) ** 2 - 1), 4, lead=(1, 2)),
    SQRT12: SeriesDef(lambda k: (1, (2 * k - 1) * 3 ** (k - 1)), 12, root=True),
}
SERIES_IDS = tuple(SERIES)

# End-corrections after n Leibniz terms, as (numerator, denominator).
CORRECTION_TERMS: dict[str, Callable[[int], tuple[int, int]]] = {
    F1: lambda n: (1, 4 * n),
    F2: lambda n: (n, 4 * n * n + 1),
    F3: lambda n: (n * n + 1, n * (4 * n * n + 5)),
}
CORRECTIONS = (NO_CORRECTION, *CORRECTION_TERMS)

# pi truncated to 30 decimals.  Never trusted blindly: the test suite
# re-derives it from pi_sqrt12 at n=70, where the a-priori bound is far
# below 1e-30.
PI_REF_30 = "3.141592653589793238462643383279"

# Attributed circumference of a circle of diameter 9e11, and that diameter.
MADHAVA_CIRCUMFERENCE = 2_827_433_388_233
CIRCLE_DIAMETER = 9 * 10**11

DEFAULT_TERM_CAP = 1_000_000


class TermCountError(ValueError):
    """Requested digit count needs more terms than the configured cap."""


@dataclass(frozen=True)
class SeriesSpec:
    """Selects one pi series evaluation: id, term count, optional
    end-correction (Leibniz only) and working scale."""

    series_id: str
    terms: int
    correction: str = NO_CORRECTION
    scale: int = 20

    def __post_init__(self):
        if self.series_id not in SERIES_IDS:
            raise ValueError(f"unknown series id {self.series_id!r}")
        if self.terms < 1:
            raise ValueError("terms must be >= 1")
        if self.correction not in CORRECTIONS:
            raise ValueError(f"unknown correction {self.correction!r}")
        if self.correction != NO_CORRECTION and self.series_id != LEIBNIZ:
            raise ValueError("corrections apply to the leibniz series only")
        if self.scale < 1:
            raise ValueError("scale must be >= 1")


@dataclass(frozen=True)
class PiResult:
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


def _partial_sum(series: SeriesDef, n: int, scale: int) -> FixedDec:
    """lead + sum_{k=1..n} sign_k * term(k), each quotient truncated at scale."""
    acc = fd_from_ratio(*series.lead, 1, scale) if series.lead else FixedDec.from_int(0, scale)
    step = -1 if series.alternating else 1
    sign = 1
    for k in range(1, n + 1):
        num, den = series.term(k)
        acc = fd_add(acc, fd_from_ratio(num, den, sign, scale))
        sign *= step
    return acc


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


def leibniz_corrected(n: int, variant: str, scale: int) -> FixedDec:
    """4 * (n-term Leibniz sum + (-1)**n * F_variant(n)).

    The correction sign follows the series: it continues the alternation
    after the n-th term.
    """
    corr = correction_term(n, variant, scale)
    series = SERIES[LEIBNIZ]
    s = fd_add(_partial_sum(series, n, scale), corr if n % 2 == 0 else -corr)
    return fd_mul(s, _multiplier(series, scale))


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
    one = FixedDec.from_int(1, x.scale)
    if abs(x) > one:
        raise ValueError("arctan series needs |x| <= 1")
    xw = fd_rescale(x, scale)
    x2 = fd_mul(xw, xw)
    acc = FixedDec.from_int(0, scale)
    power = xw
    for k in range(1, n + 1):
        term = fd_divn(power, 2 * k - 1)
        acc = fd_add(acc, term if k % 2 == 1 else -term)
        if k < n:
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


def pi_reference(scale: int) -> FixedDec:
    """Reference pi at the given scale.

    Up to 30 digits this truncates a stored constant (itself re-derived
    from pi_sqrt12 by the test suite); beyond that it is computed fresh
    from the sqrt12 series with a bound two digits past the request.
    """
    if scale < 0:
        raise ValueError("scale must be >= 0")
    intpart, frac = PI_REF_30.split(".")
    if scale <= len(frac):
        return fd_from_string(intpart + "." + frac[:scale] if scale else intpart)
    n = terms_for_digits(SQRT12, scale + 2)
    return fd_rescale(pi_sqrt12(n, scale + GUARD), scale)


@dataclass(frozen=True)
class CircumferenceReport:
    madhava: BigNat
    computed: BigNat
    delta: int


def circumference_check(scale: int = 20) -> CircumferenceReport:
    """Recompute the circumference of the diameter-9e11 circle and compare
    with the attributed 2,827,433,388,233.

    The reference pi comes from the sqrt12 series with its bound below
    1e-18, so the product is certain to within well under one unit; the
    product is then rounded to the nearest integer (half away from zero).
    """
    if scale < 20:
        raise ValueError("circumference check needs scale >= 20")
    n = terms_for_digits(SQRT12, 18)
    pi_val = pi_sqrt12(n, scale)
    product = fd_mul(pi_val, FixedDec.from_int(CIRCLE_DIAMETER))
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
        multiplier = fd_add(multiplier, FixedDec(1, BigNat.from_int(1), scale))
    num, den = series.tail_bound(n)
    analytic = fd_divn(fd_mul(multiplier, FixedDec.from_int(num)), den, scale)
    # drift: n per-term truncations plus a couple for the final scaling
    return fd_add(analytic, FixedDec(1, BigNat.from_int(n + 4), scale))


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


def _check_terms(n: int) -> None:
    if n < 1:
        raise ValueError("term count must be >= 1")
    if n > DEFAULT_TERM_CAP:
        raise TermCountError(f"term count {n} is above the cap of {DEFAULT_TERM_CAP}")
