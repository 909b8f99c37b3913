"""Pi series: frozen oracle values, a-priori bounds, invariants.

Expected values marked "rational oracle" were computed with
fractions.Fraction sums; truncation-model values follow the documented
semantics (each reciprocal floored at the working scale) re-modelled in
plain ints.
"""

from fractions import Fraction

import pytest

from madhava.bigfixed import FixedDec, fd_from_string, fd_mul, fd_rescale, fd_to_string
from madhava.pi_series import (
    AUX_A,
    AUX_B,
    AUX_C,
    AUX_D,
    F1,
    F2,
    F3,
    LEIBNIZ,
    SQRT12,
    SeriesSpec,
    TermCountError,
    arctan_series,
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
from conftest import PI_50, as_fraction


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


class TestArctan:
    def test_zero(self):
        v = arctan_series(fd_from_string("0.0"), 5, 10)
        assert v.is_zero()

    def test_x_one_is_quarter_leibniz(self):
        for n in (1, 2, 7):
            lhs = fd_mul(arctan_series(FixedDec.from_int(1), n, 18), FixedDec.from_int(4))
            assert fd_to_string(lhs) == fd_to_string(leibniz_partial(n, 18))

    def test_half_eight_terms_rational_oracle(self):
        x = Fraction(1, 2)
        oracle = sum(Fraction((-1) ** (k - 1), 1) * x ** (2 * k - 1) / (2 * k - 1)
                     for k in range(1, 9))
        v = arctan_series(fd_from_string("0.5"), 8, 14)
        assert abs(as_fraction(v) - oracle) <= 20 * ulp(14)

    def test_half_agrees_with_high_n_within_bound(self):
        ref = arctan_series(fd_from_string("0.5"), 60, 30)
        v = arctan_series(fd_from_string("0.5"), 8, 30)
        bound = Fraction(1, 2) ** 17 / 17 + Fraction(30, 10**30)
        assert abs(as_fraction(v) - as_fraction(ref)) <= bound

    def test_divergent_argument_rejected(self):
        with pytest.raises(ValueError):
            arctan_series(fd_from_string("1.5"), 3, 10)


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


class TestMadhavaFraction:
    def test_ten_decimals(self):
        assert fd_to_string(madhava_pi_value(10)) == "3.1415926535"

    def test_fourteen_decimals(self):
        assert fd_to_string(madhava_pi_value(14)) == "3.14159265359222"

    def test_scale_zero(self):
        assert fd_to_string(madhava_pi_value(0)) == "3"

    def test_eleventh_decimal_departs_from_pi(self):
        assert fd_to_string(madhava_pi_value(11))[-1] != fd_to_string(pi_reference(11))[-1]


class TestCircumference:
    def test_report(self):
        rep = circumference_check(20)
        assert rep.madhava.to_int() == 2_827_433_388_233
        assert rep.computed.to_int() == 2_827_433_388_231
        assert rep.delta == 2

    def test_scale_precondition(self):
        with pytest.raises(ValueError):
            circumference_check(10)


class TestTermSelection:
    def test_leibniz_one_digit(self):
        assert terms_for_digits(LEIBNIZ, 1) == 20

    def test_sqrt12_ten_digits(self):
        n = terms_for_digits(SQRT12, 10)
        assert n == 19  # exact bound evaluation; comfortably <= 22
        assert n <= 22

    def test_frozen_eight_digit_counts(self):
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
        for series, counts in frozen.items():
            got = [terms_for_digits(series, d, cap=10**13) for d in range(1, 13)]
            assert got == counts, series

    def test_minimality(self):
        cases = ((LEIBNIZ, 3), (AUX_A, 6), (AUX_B, 4), (AUX_C, 9), (AUX_D, 5),
                 (SQRT12, 12), (SQRT12, 30))
        for series, digits in cases:
            n = terms_for_digits(series, digits)
            bound_n = as_fraction(error_bound(series, n, 40))
            bound_prev = as_fraction(error_bound(series, n - 1, 40)) if n > 1 else None
            drift = Fraction(n + 4, 10**40)
            assert bound_n - drift < Fraction(1, 10**digits)
            if bound_prev is not None:
                assert bound_prev - drift >= Fraction(1, 10**digits)

    def test_slow_series_refused(self):
        with pytest.raises(TermCountError):
            terms_for_digits(LEIBNIZ, 12)
        with pytest.raises(TermCountError):
            terms_for_digits(AUX_B, 8)
        # a raised cap turns the refusal into a (huge) answer
        assert terms_for_digits(AUX_B, 8, cap=10**9) == 100_000_000


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

    def test_arctan_bracketing(self):
        scale = 30
        x = fd_from_string("0.7")
        ref = as_fraction(arctan_series(x, 80, scale))
        values = [as_fraction(arctan_series(x, n, scale)) for n in range(1, 11)]
        for a, b, c in zip(values, values[1:], values[2:]):
            assert abs(a - b) >= abs(b - c)
        for a, b in zip(values, values[1:]):
            assert min(a, b) - ulp(scale) <= ref <= max(a, b) + ulp(scale)

    def test_error_bound_invariant(self):
        # |value - pi_ref| <= bound + 10 ulp for every series
        scale = 25
        specs = [
            SeriesSpec(LEIBNIZ, 30, scale=scale),
            SeriesSpec(AUX_A, 12, scale=scale),
            SeriesSpec(AUX_B, 40, scale=scale),
            SeriesSpec(AUX_C, 6, scale=scale),
            SeriesSpec(AUX_D, 25, scale=scale),
            SeriesSpec(SQRT12, 10, scale=scale),
        ]
        for spec in specs:
            res = evaluate(spec)
            assert res.error_bound is not None
            assert abs(as_fraction(res.value) - PI_50) <= as_fraction(res.error_bound) + 10 * ulp(scale)

    def test_corrected_has_no_bound(self):
        res = evaluate(SeriesSpec(LEIBNIZ, 10, F3, 20))
        assert res.error_bound is None
        assert res.terms_used == 10

    def test_determinism(self):
        spec = SeriesSpec(SQRT12, 22, scale=25)
        a, b = evaluate(spec), evaluate(spec)
        assert fd_to_string(a.value) == fd_to_string(b.value)
        assert a.value.scale == b.value.scale

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SeriesSpec(AUX_A, 5, F1, 20)
        with pytest.raises(ValueError):
            SeriesSpec(LEIBNIZ, 0)
        with pytest.raises(ValueError):
            SeriesSpec("machin", 5)


class TestPiReference:
    def test_constant_revalidated_by_series(self):
        # never trust the stored literal: re-derive it
        derived = fd_rescale(pi_sqrt12(70, 40), 30)
        assert fd_to_string(derived) == fd_to_string(pi_reference(30))

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
