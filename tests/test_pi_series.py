"""Pi series: frozen oracle values, a-priori bounds, invariants.

Expected values marked "rational oracle" were computed with
fractions.Fraction sums; truncation-model values follow the documented
semantics (each reciprocal floored at the working scale) re-modelled in
plain ints.
"""

import random
from fractions import Fraction
from math import isqrt

import pytest

from madhava import pi_series
from madhava.bigfixed import BigNat, FixedDec, fd_rescale, fd_to_string
from madhava.pi_series import (
    AUX_A,
    AUX_B,
    AUX_C,
    AUX_D,
    BOUND_DIGITS,
    DEFAULT_TERM_CAP,
    F1,
    F2,
    F3,
    GUARD,
    LEIBNIZ,
    MADHAVA_CIRCUMFERENCE,
    NO_CORRECTION,
    SERIES,
    SERIES_IDS,
    SQRT12,
    SeriesDef,
    _exact_sum,
    _partial_sum,
    _running_sums,
    _value,
    _value_bracket,
    TermCountError,
    aux_series,
    circumference_check,
    correction_term,
    error_bound,
    evaluate,
    leibniz_corrected,
    leibniz_partial,
    madhava_pi_value,
    pi_reference,
    pi_sqrt12,
    terms_for_digits,
)
from conftest import PI_50, as_fraction, machin_pi_floor


def ulp(scale):
    return Fraction(1, 10**scale)


class TestLeibniz:
    def test_single_term(self):
        assert fd_to_string(leibniz_partial(1, 6)) == "4.000000"

    def test_two_terms(self):
        # 4 * (1 - trunc(1/3)): truncating the negative term lands just above 8/3
        v = leibniz_partial(2, 12)
        assert abs(as_fraction(v) - Fraction(8, 3)) < 2 * ulp(12)

    def test_five_terms_rational_oracle(self):
        v = leibniz_partial(5, 12)
        assert abs(as_fraction(v) - Fraction(1052, 315)) <= 5 * ulp(12)
        # the truncation model is exact and deterministic
        model = 4 * sum((-1) ** (k - 1) * (10**12 // (2 * k - 1)) for k in range(1, 6))
        assert v.mantissa.to_int() == model

    def test_alternating_error_bound(self):
        for n in (1, 3, 10, 40):
            v = leibniz_partial(n, 30)
            bound = Fraction(4, 2 * n + 1) + n * ulp(30)
            assert abs(as_fraction(v) - PI_50) <= bound


class TestCorrections:
    def test_formula_values(self):
        assert fd_to_string(correction_term(1, F1, 2)) == "0.25"
        assert fd_to_string(correction_term(1, F2, 1)) == "0.2"
        assert abs(as_fraction(correction_term(2, F3, 12)) - Fraction(5, 42)) < ulp(12)
        with pytest.raises(ValueError):
            correction_term(5, "f4", 10)

    def test_corrected_small_cases(self):
        assert fd_to_string(leibniz_corrected(1, F2, 6)) == "3.200000"
        v = leibniz_corrected(1, F3, 12)
        assert abs(as_fraction(v) - Fraction(28, 9)) <= 2 * ulp(12)

    def test_f3_at_20_agrees_to_nine_digits(self):
        # oracle run: |4(L20 + F3(20)) - pi| = 4.301e-10
        v = fd_rescale(leibniz_corrected(20, F3, 40), 30)
        assert abs(as_fraction(v) - PI_50) < Fraction(1, 10**9)

    def test_hierarchy_strict_2_to_50(self):
        scale = 40
        pi_ref = as_fraction(pi_reference(scale))
        for n in range(2, 51):
            errs = [abs(as_fraction(leibniz_partial(n, scale)) - pi_ref)]
            for variant in (F1, F2, F3):
                errs.append(abs(as_fraction(leibniz_corrected(n, variant, scale)) - pi_ref))
            assert errs[3] < errs[2] < errs[1] < errs[0], f"hierarchy broken at n={n}"

    @pytest.mark.parametrize("scale", [6, 18, 40])
    def test_matches_int_oracle(self, scale):
        for n, values in truncation_oracle(60, scale):
            assert parts(leibniz_partial(n, scale)) == (values[NO_CORRECTION], scale), n
            for variant in (F1, F2, F3):
                got = parts(leibniz_corrected(n, variant, scale))
                assert got == (values[variant], scale), (n, variant)

    def test_term_count_checked(self):
        for call in (lambda n: leibniz_partial(n, 6),
                     lambda n: leibniz_corrected(n, F2, 6)):
            with pytest.raises(ValueError):
                call(0)
            with pytest.raises(TermCountError):
                call(DEFAULT_TERM_CAP + 1)


def truncation_oracle(n_max, scale):
    """Plain-int model of leibniz_partial and leibniz_corrected:
    (n, {mode: signed mantissa}), each quotient floored at the scale
    before its sign is applied."""
    unit = 10**scale
    formulas = {F1: lambda n: (1, 4 * n), F2: lambda n: (n, 4 * n * n + 1),
                F3: lambda n: (n * n + 1, n * (4 * n * n + 5))}
    total = 0
    for n in range(1, n_max + 1):
        sign = 1 if n % 2 else -1  # sign of the n-th term; the correction's is -sign
        total += sign * (unit // (2 * n - 1))
        values = {NO_CORRECTION: 4 * total}
        for mode, formula in formulas.items():
            num, den = formula(n)
            values[mode] = 4 * (total - sign * (num * unit // den))
        yield n, values


def parts(x):
    return x.sign * x.mantissa.to_int(), x.scale


@pytest.fixture
def divisor_limbs(monkeypatch):
    """The limb count of every divisor BigNat.__divmod__ sees."""
    log = []
    divmod_ = BigNat.__divmod__

    def recording(self, other):
        log.append(len(other.limbs))
        return divmod_(self, other)

    monkeypatch.setattr(BigNat, "__divmod__", recording)
    return log


class TestAuxSeries:
    def test_aux_b_single_term(self):
        v = aux_series(AUX_B, 1, 10)
        assert abs(as_fraction(v) - Fraction(8, 3)) <= 8 * ulp(10)

    def test_aux_c_two_terms_rational_oracle(self):
        v = aux_series(AUX_C, 2, 12)
        assert abs(as_fraction(v) - Fraction(160, 51)) <= 8 * ulp(12)

    def test_aux_a_three_terms_rational_oracle(self):
        v = aux_series(AUX_A, 3, 12)
        assert abs(as_fraction(v) - Fraction(1321, 420)) <= 8 * ulp(12)

    def test_aux_b_monotone_below_pi(self):
        prev = None
        for n in range(1, 40):
            v = as_fraction(aux_series(AUX_B, n, 25))
            assert v < PI_50
            if prev is not None:
                assert v > prev
            prev = v

    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            aux_series(LEIBNIZ, 3, 10)


class TestSqrt12:
    def test_first_terms(self):
        assert fd_to_string(pi_sqrt12(1, 12)) == "3.464101615137"
        v = pi_sqrt12(2, 12)
        # sqrt(12) * 8/9 = 3.0792014356...
        assert fd_to_string(v).startswith("3.07920143567")

    def test_n28_matches_pi_to_14_digits(self):
        v = pi_sqrt12(28, 20)
        assert abs(as_fraction(v) - PI_50) < Fraction(1, 10**14)
        # and agrees with the fraction through its 10 good decimals
        assert fd_to_string(fd_rescale(v, 10)) == fd_to_string(madhava_pi_value(10))

    def test_exact_term_folds_in_the_ratio(self):
        for k in range(1, 61):
            assert SERIES[SQRT12].exact_term(k) == (1, (2 * k - 1) * 3 ** (k - 1))


def sqrt12_oracle(n, scale):
    """Plain-int model of pi_sqrt12: each term floored at the scale with
    its full denominator, the sum times the floored root of 12."""
    unit = 10**scale
    total = sum((-1) ** (k - 1) * (unit // ((2 * k - 1) * 3 ** (k - 1)))
                for k in range(1, n + 1))
    return isqrt(12 * unit * unit) * total // unit


class TestSqrt12Kernel:
    @pytest.mark.parametrize("scale", [5, 40, 310, 610])
    def test_matches_int_oracle(self, scale):
        # the last n runs past the term where 3**(k-1) exceeds 10**scale
        # and the running numerator reaches zero
        past_zero = 21 * scale // 10 + 3
        assert 3 ** (past_zero - 1) > 10**scale
        for n in (1, 2, terms_for_digits(SQRT12, scale), past_zero):
            assert parts(pi_sqrt12(n, scale)) == (sqrt12_oracle(n, scale), scale)

    def test_divides_by_one_limb_only(self, divisor_limbs):
        # a full-denominator division would cost O(scale**2) per term
        _partial_sum(SERIES[SQRT12], 1300, 620)
        assert len(divisor_limbs) >= 1300
        assert set(divisor_limbs) == {1}

    def test_one_division_per_term(self, divisor_limbs):
        # powers of 3 ride in the one-limb divisor and are divided out of
        # the numerator only when they would overflow it: one division per
        # term plus one by the held powers every 12 to 17 terms, not two
        # per term
        _partial_sum(SERIES[SQRT12], 1300, 620)
        assert len(divisor_limbs) <= 1.1 * 1300
        assert set(divisor_limbs) == {1}


class TestRatioFold:
    # (series, how often the kernel divides the pending ratio powers out of
    # its numerator): never (ratio 1), on some terms, or on every term after
    # the first (den(k) * ratio no longer fits one limb)
    CASES = {
        "ratio1-wide-den": (SeriesDef(lambda k: 10**9 + k, 1), "never"),
        "ratio2-const": (SeriesDef(lambda k: 1, 1, alternating=False, ratio=2), "some"),
        "ratio7-odd": (SeriesDef(lambda k: 2 * k - 1, 1, num=4, ratio=7), "some"),
        "ratio7-square": (SeriesDef(lambda k: k * k, 1, alternating=False, ratio=7), "some"),
        "ratio30011-odd": (SeriesDef(lambda k: 2 * k - 1, 1, ratio=30011), "some"),
        "ratio11-one-limb-den": (SeriesDef(lambda k: 10**8 + k, 1, ratio=11), "every"),
        "ratio2-wide-den": (SeriesDef(lambda k: 10**9 + k, 1, num=5, ratio=2), "every"),
    }

    @pytest.mark.parametrize("scale", [9, 37, 120])
    @pytest.mark.parametrize("case", CASES)
    def test_running_sums_match_int_oracle(self, case, scale):
        series, _ = self.CASES[case]
        unit, total = 10**scale, 0
        for k, acc in enumerate(_running_sums(series, 80, scale), 1):
            sign = (-1) ** (k - 1) if series.alternating else 1
            total += sign * (series.num * unit // (series.den(k) * series.ratio ** (k - 1)))
            assert parts(acc) == (total, scale)

    @pytest.mark.parametrize("case", CASES)
    def test_each_case_reaches_its_fold_regime(self, divisor_limbs, case):
        # m mantissa divisions, plus one per fold
        series, folds = self.CASES[case]
        m = 80
        _partial_sum(series, m, 37)
        if folds == "never":
            assert len(divisor_limbs) == m
        elif folds == "every":
            assert len(divisor_limbs) == 2 * m - 1
        else:
            assert m < len(divisor_limbs) < 2 * m - 1


class TestRunningSums:
    @pytest.mark.parametrize("series_id", SERIES_IDS)
    def test_every_series_matches_int_oracle(self, series_id):
        # each running sum is the lead plus the full-denominator quotients
        # num * 10**scale // exact_term den, signed, at every m
        series, scale = SERIES[series_id], 37
        unit = 10**scale
        total = series.lead[0] * unit // series.lead[1] if series.lead else 0
        for k, acc in enumerate(_running_sums(series, 90, scale), 1):
            num, den = series.exact_term(k)
            sign = (-1) ** (k - 1) if series.alternating else 1
            total += sign * (num * unit // den)
            assert parts(acc) == (total, scale)

    @pytest.mark.parametrize("series_id", SERIES_IDS)
    def test_multiplier(self, series_id):
        # an integer multiplier stays at scale 0, so the product with a
        # running sum needs no rescale; a root is floored at the scale
        series, scale = SERIES[series_id], 2010
        got = parts(pi_series._multiplier(series, scale))
        if series.root:
            assert got == (isqrt(series.multiplier * 10 ** (2 * scale)), scale)
        else:
            assert got == (series.multiplier, 0)


class TestMadhavaFraction:
    def test_ten_decimals(self):
        assert fd_to_string(madhava_pi_value(10)) == "3.1415926535"

    def test_fourteen_decimals(self):
        assert fd_to_string(madhava_pi_value(14)) == "3.14159265359222"

    def test_scale_zero(self):
        assert fd_to_string(madhava_pi_value(0)) == "3"
        with pytest.raises(ValueError):
            madhava_pi_value(-1)

    def test_eleventh_decimal_departs_from_pi(self):
        assert fd_to_string(madhava_pi_value(11))[-1] != fd_to_string(pi_reference(11))[-1]


class TestCircumference:
    def test_report(self):
        computed = circumference_check()
        assert MADHAVA_CIRCUMFERENCE == 2_827_433_388_233
        assert computed == 2_827_433_388_231
        assert MADHAVA_CIRCUMFERENCE - computed == 2

    def test_takes_no_scale(self):
        with pytest.raises(TypeError):
            circumference_check(20)


class TestTermSelection:
    def test_leibniz_one_digit(self):
        assert terms_for_digits(LEIBNIZ, 1) == 20

    def test_sqrt12_ten_digits(self):
        n = terms_for_digits(SQRT12, 10)
        assert n == 19  # exact bound evaluation; comfortably <= 22
        assert n <= 22

    def test_frozen_eight_digit_counts(self, monkeypatch):
        assert terms_for_digits(AUX_A, 8) == 367
        assert terms_for_digits(AUX_C, 8) == 35
        assert terms_for_digits(AUX_D, 8) == 10000
        # digits 1..12, recorded from the closed forms that preceded the search:
        # leibniz 2*10**d, aux-b 10**d, the others integer roots of the bound
        frozen = {
            LEIBNIZ: [2 * 10**d for d in range(1, 13)],
            AUX_A: [1, 3, 7, 16, 36, 78, 170, 367, 793, 1709, 3683, 7936],
            AUX_B: [10**d for d in range(1, 13)],
            AUX_C: [1, 2, 3, 5, 9, 14, 22, 35, 55, 87, 138, 219],
            AUX_D: [3, 10, 31, 100, 316, 1000, 3162, 10000, 31622, 100000, 316227, 1000000],
            SQRT12: [2, 4, 6, 8, 9, 11, 13, 15, 17, 19, 21, 23],
        }
        monkeypatch.setattr(pi_series, "DEFAULT_TERM_CAP", 10**13)
        for series, counts in frozen.items():
            got = [terms_for_digits(series, d) for d in range(1, 13)]
            assert got == counts, series

    def test_minimality(self):
        cases = ((LEIBNIZ, 3), (AUX_A, 6), (AUX_B, 4), (AUX_C, 9), (AUX_D, 5),
                 (SQRT12, 12), (SQRT12, 30))
        for series, digits in cases:
            n = terms_for_digits(series, digits)
            # the bound is taken BOUND_DIGITS past the digits asked for
            bound_n = as_fraction(error_bound(series, n, NO_CORRECTION, 40 - BOUND_DIGITS))
            bound_prev = (as_fraction(error_bound(series, n - 1, NO_CORRECTION, 40 - BOUND_DIGITS))
                          if n > 1 else None)
            drift = Fraction(n + 4, 10**40)
            assert bound_n - drift < Fraction(1, 10**digits)
            if bound_prev is not None:
                assert bound_prev - drift >= Fraction(1, 10**digits)

    @pytest.mark.parametrize("digits", (1, 3, 6))
    def test_a_bound_equal_to_the_target_is_not_below_it(self, digits, monkeypatch):
        # tail 1/(10n) equals 10**-digits at n = 10**(digits-1); the
        # smallest n strictly below it is one more
        monkeypatch.setitem(SERIES, "tenth", SeriesDef(lambda k: k, 1, alternating=False,
                                                       tail=lambda n: (1, 10 * n)))
        assert terms_for_digits("tenth", digits) == 10 ** (digits - 1) + 1

    def test_slow_series_refused(self, monkeypatch):
        with pytest.raises(TermCountError):
            terms_for_digits(LEIBNIZ, 12)
        with pytest.raises(TermCountError):
            terms_for_digits(AUX_B, 8)
        # a raised cap turns the refusal into a (huge) answer
        monkeypatch.setattr(pi_series, "DEFAULT_TERM_CAP", 10**9)
        assert terms_for_digits(AUX_B, 8) == 100_000_000

    def test_bad_requests_refused(self):
        with pytest.raises(ValueError):
            terms_for_digits(SQRT12, 0)
        with pytest.raises(ValueError):
            terms_for_digits("machin", 5)


class TestInvariants:
    def test_alternating_bracketing(self):
        scale = 30
        cases = {
            LEIBNIZ: lambda n: leibniz_partial(n, scale),
            AUX_A: lambda n: aux_series(AUX_A, n, scale),
            AUX_C: lambda n: aux_series(AUX_C, n, scale),
            AUX_D: lambda n: aux_series(AUX_D, n, scale),
            SQRT12: lambda n: pi_sqrt12(n, scale),
        }
        for name, fn in cases.items():
            values = [as_fraction(fn(n)) for n in range(1, 13)]
            for a, b, c in zip(values, values[1:], values[2:]):
                assert abs(a - b) >= abs(b - c), name
            for a, b in zip(values, values[1:]):
                lo, hi = min(a, b), max(a, b)
                assert lo <= PI_50 <= hi, name

    @pytest.mark.parametrize("digits", (0, 1, 12, 25, 40))
    def test_error_bound_invariant(self, digits):
        # |value - pi| <= bound + 1 ulp for every series: the printed value
        # is a floor, one ulp at most below m * S
        specs = [(LEIBNIZ, 30), (AUX_A, 12), (AUX_B, 40), (AUX_C, 6), (AUX_D, 25), (SQRT12, 10)]
        for series_id, terms in specs:
            value = evaluate(series_id, terms, NO_CORRECTION, digits)
            bound = error_bound(series_id, terms, NO_CORRECTION, digits)
            assert bound is not None
            assert abs(as_fraction(value) - PI_50) <= as_fraction(bound) + ulp(digits), series_id

    def test_corrected_has_no_bound(self):
        assert error_bound(LEIBNIZ, 10, F3, 20) is None

    def test_determinism(self):
        a, b = evaluate(SQRT12, 22, NO_CORRECTION, 25), evaluate(SQRT12, 22, NO_CORRECTION, 25)
        assert fd_to_string(a) == fd_to_string(b)
        assert a.scale == b.scale

    # each refusal is the first of the five checks that its arguments
    # fail, in the order evaluate makes them
    @pytest.mark.parametrize("args, kwargs, message", [
        (("machin", 5, "none", 20), {}, "unknown series id 'machin'"),
        ((), {"series_id": "machin", "terms": 0, "correction": "f4", "digits": -1},
         "unknown series id 'machin'"),
        (("leibniz", 0, "none", 20), {}, "terms must be >= 1"),
        (("leibniz", 0, "f4", -1), {}, "terms must be >= 1"),
        (("aux-a", 5, "f1", 20), {}, "corrections apply to the leibniz series only"),
        (("aux-a", 5), {"correction": "f1", "digits": -1}, "corrections apply to the leibniz series only"),
        (("leibniz", 5, "f4", 20), {}, "unknown correction 'f4'"),
        (("aux-a", 5, "f4", -1), {}, "unknown correction 'f4'"),
        (("leibniz", 5, "none", -1), {}, "digits must be >= 0"),
        ((), {"series_id": "leibniz", "terms": 5, "correction": "none", "digits": -1},
         "digits must be >= 0"),
    ])
    def test_evaluate_refuses(self, args, kwargs, message):
        with pytest.raises(ValueError) as exc:
            evaluate(*args, **kwargs)
        assert str(exc.value) == message


class TestPiReference:
    def test_constant_revalidated_by_series(self):
        # never trust the stored literal: re-derive it
        derived = fd_rescale(pi_sqrt12(70, 40), 30)
        assert fd_to_string(derived) == fd_to_string(pi_reference(30))

    def test_truncates_independent_oracle(self):
        # every scale the 50-digit oracle settles
        for s in range(48):
            expected = Fraction(int(PI_50 * 10**s), 10**s)
            assert as_fraction(pi_reference(s)) == expected
            assert pi_reference(s).scale == s

    # the scales up to SCALE_CAP where an unchecked truncation of the
    # guard-digit value lands one ulp off: at each, the digits of pi after
    # position s start with 99 or 00, so the value lies within its bound
    # of a 10**-s boundary
    @pytest.mark.parametrize("scale", (359, 458, 600, 601, 761, 854, 855,
                                       1358, 1476, 1607, 1980, 1999))
    def test_truncates_machin_near_digit_boundaries(self, scale):
        v = pi_reference(scale)
        assert v.scale == scale
        assert v.mantissa.to_int() == machin_pi_floor(scale)

    def test_truncates_machin_every_scale_to_400(self):
        # covers 78 and 359, where the first bracket straddles a digit
        for s in range(401):
            assert pi_reference(s) == FixedDec(1, machin_pi_floor(s), s)

    def test_independent_of_the_truncated_kernel(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact routine must not read the kernel it referees")

        for name in ("pi_sqrt12", "error_bound", "_running_sums", "_value"):
            monkeypatch.setattr(pi_series, name, refuse)
        for s in (0, 78, 359):
            assert pi_reference.__wrapped__(s).mantissa.to_int() == machin_pi_floor(s)
        # nor may evaluate's exact fallback
        for series_id, correction in PRINTED_MODES:
            for n in (1, 2, 17):
                s = exact_sum(series_id, correction, n)
                got = pi_series.exact_floor(series_id, n, correction, 40)
                assert got == exact_floor(series_id, s, 40), (series_id, n)

    def test_memoised_by_scale(self):
        assert pi_reference(33) is pi_reference(33)

    def test_negative_scale_refused(self):
        with pytest.raises(ValueError):
            pi_reference(-1)

    def test_extends_beyond_constant(self):
        v = pi_reference(35)
        assert fd_to_string(v) == "3.14159265358979323846264338327950288"

    def test_cross_series_consistency_at_8_digits(self):
        # every feasible series route lands within 1e-8 of the reference
        pi_ref = as_fraction(pi_reference(30))
        routes = [
            leibniz_corrected(50, F3, 18),
            aux_series(AUX_A, terms_for_digits(AUX_A, 8), 18),
            aux_series(AUX_C, terms_for_digits(AUX_C, 8), 18),
            aux_series(AUX_D, terms_for_digits(AUX_D, 8), 18),
            pi_sqrt12(22, 18),
        ]
        for v in routes:
            assert abs(as_fraction(v) - pi_ref) < Fraction(1, 10**8)


# pi ~ multiplier * (lead + sum_k term(k)), the square root of the
# multiplier for sqrt12; every partial sum here is positive, so int()
# floors it
EXACT_SERIES = {
    LEIBNIZ: (4, Fraction(0), lambda k: Fraction((-1) ** (k - 1), 2 * k - 1)),
    AUX_A: (4, Fraction(3, 4), lambda k: Fraction((-1) ** (k - 1), (2 * k + 1) ** 3 - (2 * k + 1))),
    AUX_B: (8, Fraction(0), lambda k: Fraction(1, (4 * k - 2) ** 2 - 1)),
    AUX_C: (4, Fraction(0), lambda k: Fraction(4 * (-1) ** (k - 1), (2 * k - 1) ** 5 + 4 * (2 * k - 1))),
    AUX_D: (4, Fraction(1, 2), lambda k: Fraction((-1) ** (k - 1), (2 * k) ** 2 - 1)),
    SQRT12: (12, Fraction(0), lambda k: Fraction((-1) ** (k - 1), (2 * k - 1) * 3 ** (k - 1))),
}
EXACT_CORRECTIONS = {
    F1: lambda n: Fraction(1, 4 * n),
    F2: lambda n: Fraction(n, 4 * n * n + 1),
    F3: lambda n: Fraction(n * n + 1, n * (4 * n * n + 5)),
}
# every series with its admitted corrections, as pi and converge print them
PRINTED_MODES = [*((series_id, NO_CORRECTION) for series_id in SERIES_IDS),
                 *((LEIBNIZ, correction) for correction in (F1, F2, F3))]


def exact_sum(series_id, correction, n):
    """The exact n-term partial sum plus its signed correction."""
    _, lead, term = EXACT_SERIES[series_id]
    s = lead + sum(term(k) for k in range(1, n + 1))
    if correction != NO_CORRECTION:
        s += (-1) ** n * EXACT_CORRECTIONS[correction](n)
    return s


def exact_floor(series_id, s, digits):
    """floor(multiplier * s * 10**digits) for s > 0, by squares for sqrt12."""
    multiplier = EXACT_SERIES[series_id][0]
    if series_id == SQRT12:
        return isqrt(int(multiplier * s * s * 10 ** (2 * digits)))
    return int(multiplier * s * 10**digits)


class TestExactSum:
    @pytest.mark.parametrize("series_id", SERIES_IDS)
    def test_split_is_the_fraction_sum(self, series_id):
        # odd n splits into uneven halves; sqrt12's ratio 3 makes the join
        # carry the right half's ratio power
        lead = EXACT_SERIES[series_id][1]
        for n in (1, 2, 3, 17, 60, 200, 1000, 1001):
            want = exact_sum(series_id, NO_CORRECTION, n) - lead
            assert Fraction(*_exact_sum(SERIES[series_id], n)) == want, n

    @pytest.mark.parametrize("series_id, correction", ((LEIBNIZ, F2), (AUX_B, NO_CORRECTION)))
    def test_exact_floor_at_4000_terms(self, series_id, correction):
        s = exact_sum(series_id, correction, 4000)
        for digits in (0, 40, 2000):
            got = pi_series.exact_floor(series_id, 4000, correction, digits)
            assert got == exact_floor(series_id, s, digits), digits


class TestEvaluateDigits:
    # first in the class: an evaluate that never reads the exact floor
    # hangs on the terminating values in the tests below, and this test
    # stops it first
    @pytest.mark.parametrize("series_id, correction", PRINTED_MODES)
    def test_two_straddled_brackets_fall_back_to_the_exact_floor(
            self, series_id, correction, monkeypatch):
        # a whole unit more on each end straddles every try, so each value
        # takes two kernel brackets and then the exact floor; a third
        # kernel bracket means evaluate never reads the exact floor
        bracket, seen = pi_series._value_bracket, []

        def straddled(*args):
            seen.append(args[-1])
            assert len(seen) <= 2, "a third kernel bracket: the exact floor never ran"
            lo, hi = bracket(*args)
            one = 10 ** args[-1]
            return lo - one, hi + one

        monkeypatch.setattr(pi_series, "_value_bracket", straddled)
        for n in (1, 2, 17, 60):
            s = exact_sum(series_id, correction, n)
            for digits in (0, 1, 12, 40):
                seen.clear()
                got = evaluate(series_id, n, correction, digits)
                assert seen == [digits + GUARD, digits + 2 * GUARD]
                want = exact_floor(series_id, s, digits)
                assert (got.sign, got.mantissa.to_int(), got.scale) == (1, want, digits), (n, digits)

    @pytest.mark.parametrize("series_id, correction", PRINTED_MODES)
    def test_value_bracket_encloses_the_exact_value(self, series_id, correction):
        # lo < multiplier * S < hi; sqrt12 compares squares, 12 * S**2
        multiplier = EXACT_SERIES[series_id][0]
        for n in (1, 2, 3, 17, 60, 200):
            s = exact_sum(series_id, correction, n)
            for ws in (11, 25, 50):
                lo, hi = (Fraction(end, 10**ws) for end in _value_bracket(series_id, n, correction, ws))
                if series_id == SQRT12:
                    square = multiplier * s * s
                    assert hi > 0 and square < hi * hi and (lo <= 0 or lo * lo < square), (n, ws)
                else:
                    assert lo < multiplier * s < hi, (n, ws)

    @pytest.mark.parametrize("series_id, correction", PRINTED_MODES)
    @pytest.mark.parametrize("digits", (1, 12, 40))
    def test_is_evaluate_at_bound_digits_truncated(self, series_id, correction, digits):
        def bits(x):
            return None if x is None else (x.sign, x.mantissa.to_int(), x.scale)

        # the bound restated from error_bound's docstring: ceil(m) (the
        # root floored plus one ulp) times the tail bound, floored, plus n
        # + 4 ulp, all at digits + BOUND_DIGITS
        ws = digits + BOUND_DIGITS
        series = SERIES[series_id]
        m = isqrt(series.multiplier * 10 ** (2 * ws)) + 1 if series.root else series.multiplier * 10**ws
        for n in (1, 2, 17, 60):
            want = fd_rescale(_value(series_id, n, correction, ws), digits)
            assert bits(evaluate(series_id, n, correction, digits)) == bits(want)
            num, den = series.tail_bound(n)
            bound = None if correction != NO_CORRECTION else (1, m * num // den + n + 4, ws)
            assert bits(error_bound(series_id, n, correction, digits)) == bound

    @pytest.mark.parametrize("series_id, correction", PRINTED_MODES)
    @pytest.mark.parametrize("digits", (1, 12, 40))
    def test_value_is_the_exact_floor(self, series_id, correction, digits):
        # the printed value is floor(multiplier * S * 10**digits) for the
        # exact Fraction partial sum S (plus the signed correction); the
        # terms are restated here from the series definitions
        _, lead, term = EXACT_SERIES[series_id]
        rng = random.Random(10)
        ns = sorted({1, 2, 3, 200, *(rng.randint(1, 200) for _ in range(12))})
        exact, k = lead, 0
        for n in ns:
            while k < n:
                k += 1
                exact += term(k)
            s = exact
            if correction != NO_CORRECTION:
                s += (-1) ** n * EXACT_CORRECTIONS[correction](n)
            want = exact_floor(series_id, s, digits)
            got = evaluate(series_id, n, correction, digits)
            assert (got.sign, got.mantissa.to_int(), got.scale) == (1, want, digits), n

