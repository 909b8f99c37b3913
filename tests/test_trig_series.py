"""Trig series: nested-evaluation equivalence, table invariants,
shift-formula error order, angle-addition identities."""

import random
from fractions import Fraction
from math import factorial, floor

import pytest

from madhava.bigfixed import (
    BigNat,
    FixedDec,
    fd_add,
    fd_from_string,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_round,
    fd_sub,
    fd_to_string,
)
from madhava.pi_series import GUARD, pi_reference
from madhava.trig_series import (
    ANGLE_DIGITS,
    COS,
    COS_DIFF,
    COS_SUM,
    SIN,
    SIN_DIFF,
    SIN_SUM,
    SINSQ,
    Angle,
    CoeffTable,
    angle_add,
    build_sine_table,
    coeff_table,
    cos_series,
    nested_eval,
    reduce_angle,
    sin_series,
    sin_sq_series,
    sin_terms_for,
    taylor_shift_cos,
    taylor_shift_sin,
)
from conftest import as_fraction


def ulp(scale):
    return Fraction(1, 10**scale)


def deg(s, scale=30):
    return Angle.from_degrees(fd_from_string(s), scale)


def rand_angle(rng, scale, max_milli=1570):
    # uniform FixedDec angle in [0, max_milli/1000], exact by construction
    m = rng.randrange(0, max_milli * 10 ** (scale - 3) + 1)
    return Angle(FixedDec(1, BigNat.from_int(m), scale))


class TestCoeffTable:
    def test_signs_and_decrease(self):
        for purpose in (SIN, COS):
            table = coeff_table(purpose, 10, 30)
            assert table.count == 10
            for k, c in enumerate(table.coefficients):
                assert c.sign == (1 if k % 2 == 0 else -1)
            mags = [abs(c) for c in table.coefficients]
            for a, b in zip(mags, mags[1:]):
                assert b < a

    def test_cached(self):
        assert coeff_table(SIN, 8, 25) is coeff_table(SIN, 8, 25)

    def test_refusals(self):
        with pytest.raises(ValueError):
            coeff_table("tan", 3, 10)
        with pytest.raises(ValueError):
            coeff_table(SIN, 0, 10)
        with pytest.raises(ValueError):
            nested_eval(CoeffTable(SIN, (), 0), Angle(fd_from_string("0.5")), 10)

    def test_single_coefficient(self):
        # constant polynomial: cos table of one term is exactly 1
        t = coeff_table(COS, 1, 12)
        v = nested_eval(t, Angle(fd_from_string("0.73")), 12)
        assert fd_to_string(v) == "1.000000000000"
        # sin path with one term reduces to theta itself
        t = coeff_table(SIN, 1, 12)
        v = nested_eval(t, Angle(fd_from_string("0.5")), 12)
        assert fd_to_string(v) == "0.500000000000"

    def test_sin_sq_matches_running_product_oracle(self):
        # coefficient k is (-1)**k / D_{k+1}, with D_1 = 1 and
        # D_k = D_{k-1} * (k^2 - k/2), each truncated once at the scale
        scale = 30
        table = coeff_table(SINSQ, 12, scale)
        d = Fraction(1)
        for k, c in enumerate(table.coefficients):
            if k > 0:
                d *= Fraction((k + 1) ** 2) - Fraction(k + 1, 2)
            assert c.sign == (-1) ** k
            assert abs(as_fraction(c)) == Fraction(int(10**scale / d), 10**scale)


class TestNestedEval:
    def test_matches_term_by_term_oracle(self):
        # oracle: exact rational summation of the same truncated
        # coefficients at the same truncated x = theta**2
        rng = random.Random(2024)
        scale = 20
        ws = scale + 6
        for _ in range(25):
            theta = rand_angle(rng, ws)
            terms = rng.randrange(1, 14)
            for purpose in (SIN, COS):
                table = coeff_table(purpose, terms, ws)
                got = fd_rescale(nested_eval(table, theta, ws), scale)
                th = as_fraction(theta.radians)
                x_m = (theta.radians.mantissa.to_int() ** 2) // 10**ws
                x = Fraction(x_m, 10**ws)
                acc = sum(as_fraction(c) * x**k for k, c in enumerate(table.coefficients))
                if purpose == SIN:
                    acc *= th
                assert abs(as_fraction(got) - acc) <= 5 * ulp(scale)


class TestSinCos:
    def test_zero(self):
        zero = Angle(fd_from_string("0.0"))
        assert sin_series(zero, 5, 10).is_zero()
        assert fd_to_string(cos_series(zero, 5, 10)) == "1.0000000000"

    def test_thirty_degrees(self):
        v = sin_series(deg("30"), 10, 12)
        assert abs(as_fraction(v) - Fraction(1, 2)) <= 2 * ulp(12)

    def test_forty_five_degrees(self):
        v = sin_series(deg("45"), 10, 12)
        root_half = fd_isqrt(fd_from_string("0.5"), 12)
        assert abs(as_fraction(v) - as_fraction(root_half)) <= 2 * ulp(12)

    def test_cos_sixty(self):
        v = cos_series(deg("60"), 10, 12)
        assert abs(as_fraction(v) - Fraction(1, 2)) <= 2 * ulp(12)

    def test_cos_equals_sin_at_forty_five(self):
        s = sin_series(deg("45"), 10, 12)
        c = cos_series(deg("45"), 10, 12)
        assert abs(as_fraction(s) - as_fraction(c)) <= Fraction(1, 10**11)

    def test_unreduced_angle_rejected(self):
        with pytest.raises(ValueError):
            sin_series(Angle(fd_from_string("3.2")), 8, 10)
        with pytest.raises(ValueError):
            cos_series(Angle(fd_from_string("-3.2")), 8, 10)

    def test_pythagorean_random(self):
        rng = random.Random(515)
        scale = 18
        terms = sin_terms_for(scale)
        one = Fraction(1)
        for _ in range(50):
            theta = rand_angle(rng, scale)
            s = sin_series(theta, terms, scale)
            c = cos_series(theta, terms, scale)
            total = as_fraction(s) ** 2 + as_fraction(c) ** 2
            assert abs(total - one) <= 10 * ulp(scale)


class TestSinSquared:
    def test_zero(self):
        assert sin_sq_series(Angle(fd_from_string("0.0")), 5, 10).is_zero()

    def test_exact_values(self):
        v = sin_sq_series(deg("45"), 10, 12)
        assert abs(as_fraction(v) - Fraction(1, 2)) <= Fraction(1, 10**10)
        v = sin_sq_series(deg("30"), 10, 12)
        assert abs(as_fraction(v) - Fraction(1, 4)) <= Fraction(1, 10**10)

    def test_matches_square_of_sin(self):
        rng = random.Random(9119)
        scale = 18
        terms = sin_terms_for(scale)
        # the squared series runs in powers of (2 theta), so its own
        # Lagrange bound needs roughly the term count of sin at pi
        sq_terms = sin_terms_for(scale, 3142)
        for _ in range(50):
            theta = rand_angle(rng, scale)
            direct = sin_sq_series(theta, sq_terms, scale)
            squared = fd_mul(sin_series(theta, terms, scale),
                             sin_series(theta, terms, scale))
            assert abs(as_fraction(direct) - as_fraction(squared)) <= 10 * ulp(scale)

    def test_denominator_structure(self):
        # D_2 = 3 and D_3 = 22.5: theta^4/3, theta^6/22.5 with alternating signs
        theta = Angle(fd_from_string("1.0"))
        v = sin_sq_series(theta, 3, 20)
        oracle = Fraction(1) - Fraction(1, 3) + Fraction(2, 45)
        assert abs(as_fraction(v) - oracle) <= 5 * ulp(20)


class TestSineTable:
    def test_invariants(self):
        table = build_sine_table(10)
        assert len(table.entries) == 24
        values = [v for _, v in table.entries]
        for a, b in zip(values, values[1:]):
            assert a < b
        assert fd_to_string(values[7]) == "0.5000000000"   # 30 degrees
        assert fd_to_string(values[23]) == "1.0000000000"  # 90 degrees

    def test_eight_digit_values(self):
        # frozen from a 50-digit independent computation
        table = build_sine_table(10)
        frozen = {1: "0.06540313", 8: "0.50000000", 12: "0.70710678", 24: "1.00000000"}
        for k, value in table.entries:
            if k in frozen:
                assert fd_to_string(fd_round(value, 8)) == frozen[k]

    def test_scale_precondition(self):
        with pytest.raises(ValueError):
            build_sine_table(8)

    def test_minimal_lagrange_terms_recorded(self):
        # (pi/2)^(2N+1)/(2N+1)! first drops below 1e-9 at N = 7, so the
        # table's eight-digit claim needs 7 terms (11 comfortably suffice)
        assert sin_terms_for(9) == 7
        assert sin_terms_for(12) == 9

    @pytest.mark.parametrize("theta_bound_milli", [1, 100, 1571, 3142, 5000])
    def test_terms_match_direct_search(self, theta_bound_milli):
        # the search with every power and factorial recomputed per step
        def direct(digits):
            n = 1
            while (theta_bound_milli ** (2 * n + 1) * 10**digits
                   >= factorial(2 * n + 1) * 1000 ** (2 * n + 1)):
                n += 1
            return n

        for digits in range(0, 401, 4):
            assert sin_terms_for(digits, theta_bound_milli) == direct(digits)


class TestTaylorShift:
    def test_zero_shift_collapses(self):
        u = deg("25")
        shifted = taylor_shift_sin(u, fd_from_string("0.0"), 20)
        direct = sin_series(u, sin_terms_for(30), 20)
        assert abs(as_fraction(shifted) - as_fraction(direct)) <= 2 * ulp(20)

    def test_at_zero_base_point(self):
        h = fd_from_string("0.01")
        assert fd_to_string(taylor_shift_sin(Angle(fd_from_string("0")), h, 10)) == "0.0100000000"
        assert fd_to_string(taylor_shift_cos(Angle(fd_from_string("0")), h, 10)) == "0.9999500000"

    def test_shift_near_direct_series(self):
        u = deg("30")
        h = fd_from_string("0.01")
        shifted = taylor_shift_sin(u, h, 20)
        target = Angle(fd_add(fd_rescale(u.radians, 30), fd_rescale(h, 30)))
        direct = sin_series(target, sin_terms_for(30), 20)
        assert abs(as_fraction(shifted) - as_fraction(direct)) <= Fraction(2, 10**7)

    def test_cubic_error_ratio(self):
        u = deg("30")
        errs = {}
        for h_str in ("0.02", "0.01"):
            h = fd_from_string(h_str)
            shifted = taylor_shift_sin(u, h, 25)
            target = Angle(fd_add(fd_rescale(u.radians, 35), fd_rescale(h, 35)))
            direct = sin_series(target, sin_terms_for(35), 25)
            errs[h_str] = abs(as_fraction(shifted) - as_fraction(direct))
        ratio = errs["0.02"] / errs["0.01"]
        assert Fraction(6) <= ratio <= Fraction(10)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            taylor_shift_sin(deg("120"), fd_from_string("0.1"), 15)
        with pytest.raises(ValueError):
            taylor_shift_sin(deg("30"), fd_from_string("0.6"), 15)


class TestAngleAdd:
    def test_y_zero_is_sin(self):
        x = deg("37")
        v = angle_add(x, Angle(fd_from_string("0")), SIN_SUM, 15)
        direct = sin_series(x, sin_terms_for(25), 15)
        assert abs(as_fraction(v) - as_fraction(direct)) <= 2 * ulp(15)

    def test_thirty_plus_fifteen(self):
        v = angle_add(deg("30"), deg("15"), SIN_SUM, 20)
        root_half = fd_isqrt(fd_from_string("0.5"), 20)
        assert abs(as_fraction(v) - as_fraction(root_half)) <= 2 * ulp(20)

    def test_double_angle_chain(self):
        # cos(2x) = 1 - 2 sin^2 x
        x = deg("20")
        lhs = angle_add(x, x, COS_SUM, 18)
        sq = sin_sq_series(x, sin_terms_for(28), 18)
        rhs = fd_sub(FixedDec.from_int(1, 18), fd_mul(FixedDec.from_int(2), sq))
        assert abs(as_fraction(lhs) - as_fraction(rhs)) <= 10 * ulp(18)

    def test_identities_on_grid(self):
        scale = 16
        terms = sin_terms_for(scale + 12)
        xs = ("5", "18", "31", "44", "57")
        ys = ("3", "11", "23", "29")
        for xd in xs:
            for yd in ys:
                x, y = deg(xd), deg(yd)
                for rule in (SIN_SUM, SIN_DIFF, COS_SUM, COS_DIFF):
                    got = angle_add(x, y, rule, scale)
                    sum_angle = fd_add(fd_rescale(x.radians, 30), fd_rescale(y.radians, 30))
                    diff_angle = fd_sub(fd_rescale(x.radians, 30), fd_rescale(y.radians, 30))
                    combined = Angle(sum_angle if rule.endswith("sum") else diff_angle)
                    series = sin_series if rule.startswith("sin") else cos_series
                    direct = series(combined, terms, scale)
                    assert abs(as_fraction(got) - as_fraction(direct)) <= 10 * ulp(scale), (xd, yd, rule)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            angle_add(deg("80"), deg("80"), SIN_SUM, 12)  # combined angle too wide
        with pytest.raises(ValueError):
            angle_add(deg("100"), deg("1"), SIN_SUM, 12)
        with pytest.raises(ValueError):
            angle_add(deg("10"), deg("10"), "tan-sum", 12)


class TestHalfPiBoundary:
    # angles built as the CLI builds them: degrees at scale + ANGLE_DIGITS
    @pytest.mark.parametrize("scale", range(61))
    def test_ninety_degrees_admitted(self, scale):
        ws = scale + ANGLE_DIGITS
        right, half, zero = deg("90", ws), deg("45", ws), deg("0", ws)
        h = fd_from_string("0")
        taylor_shift_sin(right, h, scale)
        taylor_shift_cos(right, h, scale)
        angle_add(half, half, SIN_SUM, scale)
        angle_add(right, zero, COS_SUM, scale)

    @pytest.mark.parametrize("scale", range(61))
    def test_past_ninety_degrees_refused(self, scale):
        past = deg("90.0001", scale + ANGLE_DIGITS)
        for shift in (taylor_shift_sin, taylor_shift_cos):
            with pytest.raises(ValueError):
                shift(past, fd_from_string("0"), scale)


class TestDomainSlack:
    # a limit truncated from pi admits two ulp past it and no more
    @pytest.mark.parametrize("scale", (0, 7, 30))
    def test_series_admit_two_ulp_past_pi(self, scale):
        ws = scale + ANGLE_DIGITS
        pi = pi_reference(ws).mantissa.to_int()
        for fn in (sin_series, cos_series, sin_sq_series):
            for sign in (1, -1):
                fn(Angle(FixedDec(sign, BigNat.from_int(pi + 2), ws)), 3, scale)
                with pytest.raises(ValueError):
                    fn(Angle(FixedDec(sign, BigNat.from_int(pi + 3), ws)), 3, scale)

    @pytest.mark.parametrize("scale", (0, 7, 30))
    def test_shifts_and_rules_admit_two_ulp_past_half_pi(self, scale):
        ws = scale + ANGLE_DIGITS
        right = Angle.for_scale(FixedDec.from_int(90), scale).radians.mantissa.to_int()
        zero = Angle(FixedDec.from_int(0, ws))
        h = fd_from_string("0")
        for past, admitted in ((2, True), (3, False)):
            u = Angle(FixedDec(1, BigNat.from_int(right + past), ws))
            calls = (lambda: taylor_shift_sin(u, h, scale),
                     lambda: taylor_shift_cos(u, h, scale),
                     lambda: angle_add(u, zero, SIN_SUM, scale),
                     lambda: angle_add(zero, u, COS_SUM, scale))
            for call in calls:
                if admitted:
                    call()
                else:
                    with pytest.raises(ValueError):
                        call()


class TestReduceAngle:
    def test_round_trips(self):
        rng = random.Random(808)
        scale = 20
        pi = pi_reference(scale)
        two_pi = fd_mul(pi, FixedDec.from_int(2))
        for _ in range(40):
            theta = rand_angle(rng, scale, 3141)
            if rng.random() < 0.5:
                theta = Angle(-theta.radians)
            k = rng.randrange(-3, 4)
            shifted = fd_add(fd_rescale(theta.radians, scale),
                             fd_mul(FixedDec.from_int(k), two_pi))
            reduced = reduce_angle(Angle(shifted), scale)
            assert abs(as_fraction(reduced.radians) - as_fraction(theta.radians)) <= 5 * ulp(scale)
            assert abs(as_fraction(reduced.radians)) <= as_fraction(pi) + 5 * ulp(scale)

    def test_within_range_is_stable(self):
        v = reduce_angle(Angle(fd_from_string("1.5")), 15)
        assert fd_to_string(v.radians) == "1.500000000000000"

    @pytest.mark.parametrize("scale", (0, 3, 20, 41))
    def test_odd_multiples_of_pi_and_their_neighbours(self, scale):
        # t = (2j + 1) * pi at the working scale, and one ulp to either
        # side: the turn count k = floor((t + pi) / 2pi) flips right there
        ws = scale + GUARD
        pi_m = pi_reference(ws).mantissa.to_int()
        pi = Fraction(pi_m, 10**ws)
        for j in (-40, -3, -2, -1, 0, 1, 2, 39):
            for offset in (-1, 0, 1):
                m = (2 * j + 1) * pi_m + offset
                t = Fraction(m, 10**ws)
                theta = Angle(FixedDec(1 if m >= 0 else -1, BigNat.from_int(abs(m)), ws))
                k = floor((t + pi) / (2 * pi))
                expected = Fraction(int((t - 2 * pi * k) * 10**scale), 10**scale)
                got = reduce_angle(theta, scale).radians
                assert got.scale == scale
                assert as_fraction(got) == expected, (j, offset)


class TestAngleConstruction:
    def test_degrees_to_radians(self):
        a = deg("180", 25)
        assert abs(as_fraction(a.radians) - as_fraction(pi_reference(25))) <= 2 * ulp(25)

    def test_grid_step_exact(self):
        a = deg("3.75", 25)
        b = Angle.from_degrees(fd_from_string("3.750000"), 25)
        assert fd_to_string(a.radians) == fd_to_string(b.radians)


class TestAngleForScale:
    def test_is_from_degrees_at_the_angle_digits_scale(self):
        for text in ("0", "3.75", "-45.5", "90", "1000.125"):
            degrees = fd_from_string(text)
            assert Angle.for_scale(degrees, 25) == Angle.from_degrees(degrees, 25 + ANGLE_DIGITS)

    @pytest.mark.parametrize("scale", range(61))
    def test_right_angle_is_half_of_the_floored_pi(self, scale):
        # the pi/2 limit of the shift formulas and the addition rules
        pi = pi_reference(scale + 2 * ANGLE_DIGITS).mantissa.to_int()
        got = Angle.for_scale(FixedDec.from_int(90), scale).radians
        assert (got.sign, got.mantissa.to_int(), got.scale) == (
            1, pi // (2 * 10**ANGLE_DIGITS), scale + ANGLE_DIGITS)
