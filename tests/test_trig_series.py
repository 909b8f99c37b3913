"""Trig series: the coefficient identities and the nested loop against
an exact-rational model, the sine-cosine pair against the Taylor
bracket, table invariants, shift-formula error order, angle-addition
identities."""

import random
from fractions import Fraction
from math import factorial

import pytest

from madhava import trig_series
from madhava.bigfixed import (
    BigNat,
    FixedDec,
    fd_add,
    fd_from_string,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_sub,
    fd_to_string,
)
from madhava.pi_series import GUARD, pi_reference
from madhava.trig_series import (
    _COEFFICIENT_TERMS,
    _sin_cos,
    ANGLE_DIGITS,
    COS,
    COS_DIFF,
    COS_SUM,
    SIN,
    SIN_DIFF,
    SIN_SUM,
    SINE_TABLE_SIZE,
    SINSQ,
    angle_add,
    build_sine_table,
    cos_series,
    full_domain_terms,
    sin_series,
    sin_sq_series,
    sin_terms_for,
    table_degrees,
    taylor_shift,
    theta_t,
)
from conftest import as_fraction, machin_pi_floor, taylor_bracket, trig_floor


def ulp(scale):
    return Fraction(1, 10**scale)


def deg(s, scale=30):
    # the angle floored at scale, from pi floored ANGLE_DIGITS further
    return theta_t(fd_from_string(s), scale - ANGLE_DIGITS)


def rand_angle(rng, scale, max_milli=1570):
    # uniform FixedDec angle in [0, max_milli/1000], exact by construction
    m = rng.randrange(0, max_milli * 10 ** (scale - 3) + 1)
    return FixedDec(1, BigNat.from_int(m), scale)


SERIES = {SIN: sin_series, COS: cos_series, SINSQ: sin_sq_series}


def test_coefficient_identities():
    # (num, den) = term(k) is the coefficient's exact magnitude: 1/(2k+1)!,
    # 1/(2k)!, and for sin^2 1/D_{k+1}, with D_1 = 1 and
    # D_k = D_{k-1} * (k^2 - k/2)
    d = Fraction(1)
    for k in range(40):
        if k > 0:
            d *= Fraction((k + 1) ** 2) - Fraction(k + 1, 2)
        assert Fraction(*_COEFFICIENT_TERMS[SIN](k)) == Fraction(1, factorial(2 * k + 1))
        assert Fraction(*_COEFFICIENT_TERMS[COS](k)) == Fraction(1, factorial(2 * k))
        assert Fraction(*_COEFFICIENT_TERMS[SINSQ](k)) == 1 / d


class TestNestedLoop:
    @pytest.mark.parametrize("fn", (SIN, COS, SINSQ))
    def test_zero_terms_refused(self, fn):
        with pytest.raises(ValueError, match="terms must be >= 1"):
            SERIES[fn](fd_from_string("0.5"), 0, 10)

    def test_single_term(self):
        # the constant coefficient 1, times theta for sin, theta**2 for sin^2
        theta = fd_from_string("0.73")
        assert fd_to_string(cos_series(theta, 1, 12)) == "1.000000000000"
        assert fd_to_string(sin_series(theta, 1, 12)) == "0.730000000000"
        assert fd_to_string(sin_sq_series(theta, 1, 12)) == "0.532900000000"

    @pytest.mark.parametrize("fn", (SIN, COS, SINSQ))
    def test_matches_exact_rational_model(self, fn):
        # model: the exact rational sum of the same coefficients, each
        # floored at ws, at the same truncated x = theta**2, times theta
        # for sin and x for sin^2; one ulp for the final truncation, and
        # the nesting's own floors at ws lie far below the other
        rng = random.Random(2024)
        scale = 20
        ws = scale + GUARD
        for _ in range(25):
            theta = rand_angle(rng, ws)
            terms = rng.randrange(1, 14)
            got = SERIES[fn](theta, terms, scale)
            x = Fraction(theta.mantissa.to_int() ** 2 // 10**ws, 10**ws)
            acc = Fraction(0)
            for k in range(terms):
                num, den = _COEFFICIENT_TERMS[fn](k)
                acc += (-1) ** k * Fraction(num * 10**ws // den, 10**ws) * x**k
            acc *= {SIN: as_fraction(theta), COS: 1, SINSQ: x}[fn]
            assert abs(as_fraction(got) - acc) <= 2 * ulp(scale), (fn, terms)


class TestSinCos:
    def test_zero(self):
        zero = fd_from_string("0.0")
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
            sin_series(fd_from_string("3.2"), 8, 10)
        with pytest.raises(ValueError):
            cos_series(fd_from_string("-3.2"), 8, 10)

    @pytest.mark.parametrize("u", ("1.570796", "-1.570796", "1.5", "1.2"))
    def test_pair_cos_within_one_ulp(self, u):
        # the pair's cos sums one term more than its sin
        ws = 30
        _, c = _sin_cos(fd_from_string(u), ws)
        assert abs(c.sign * c.mantissa.to_int() - trig_floor("cos", Fraction(u), ws)) <= 1

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


class TestSinCosPair:
    """_sin_cos's nested loop against the plain-integer Taylor bracket,
    for angles up to pi/2 floored at ws."""

    @staticmethod
    def angles(ws):
        half_pi = machin_pi_floor(ws) // 2  # floor(pi/2 * 10**ws)
        return [FixedDec(sign, m, ws) for m in (0, 10 ** (ws - 3), 10**ws // 2, 10**ws, half_pi)
                for sign in (1, -1)]

    @staticmethod
    def within_two_ulp(value, fn, u, ws):
        lo, hi = taylor_bracket(as_fraction(u), fn, ws + 30)
        got = value.sign * value.mantissa.to_int() * 10**30
        return value.scale == ws and lo - 2 * 10**30 <= got <= hi + 2 * 10**30

    @pytest.mark.parametrize("ws", (10, 40, 200, 1000))
    @pytest.mark.parametrize("guard", (GUARD, 1))
    def test_within_two_ulp_of_the_bracket(self, ws, guard, monkeypatch):
        monkeypatch.setattr(trig_series, "GUARD", guard)
        for u in self.angles(ws):
            s, c = _sin_cos(u, ws)
            assert self.within_two_ulp(s, "sin", u, ws), (str(u), "sin")
            assert self.within_two_ulp(c, "cos", u, ws), (str(u), "cos")
            assert s.sign == u.sign and c.sign == 1
            assert s.is_zero() == u.is_zero()

    @pytest.mark.parametrize("scale", (10, 40, 200, 1000))
    def test_table_step_count(self, scale, monkeypatch):
        # the table's h, theta_t of 3.75 degrees, is below 0.066 rad
        ws = scale + GUARD
        calls = []
        monkeypatch.setattr(trig_series, "sin_terms_for",
                            lambda *args: calls.append(args) or sin_terms_for(*args))
        _sin_cos(theta_t(table_degrees(1), scale), ws)
        assert calls == [(ws + GUARD, 66)]


class TestSinSquared:
    def test_zero(self):
        assert sin_sq_series(fd_from_string("0.0"), 5, 10).is_zero()

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
        theta = fd_from_string("1.0")
        v = sin_sq_series(theta, 3, 20)
        oracle = Fraction(1) - Fraction(1, 3) + Fraction(2, 45)
        assert abs(as_fraction(v) - oracle) <= 5 * ulp(20)


class TestSineTable:
    def test_invariants(self):
        table = build_sine_table(10)
        assert len(table) == 24
        values = [v for _, v in table]
        for a, b in zip(values, values[1:]):
            assert a < b
        assert fd_to_string(values[7]) == "0.5000000000"   # 30 degrees
        assert fd_to_string(values[23]) == "1.0000000000"  # 90 degrees

    def test_eight_digit_values(self):
        # frozen from a 50-digit independent computation
        table = build_sine_table(10)
        frozen = {1: "0.06540313", 8: "0.50000000", 12: "0.70710678", 24: "1.00000000"}
        for k, value in table:
            if k in frozen:
                # half up to 8 digits, in ints: every entry is positive
                rounded = FixedDec(1, (value.mantissa.to_int() + 50) // 100, 8)
                assert fd_to_string(rounded) == frozen[k]

    # at table scale 10, every s_k is 0.1234567890 + offset * 10**-20 -+
    # drift ulp at the working scale 10 + GUARD = 20; a rerun GUARD digits
    # wider gives the same value
    @pytest.mark.parametrize("offset, drift, want", [
        (5 * 10**9 - 8, 7, "0.1234567890"),  # the whole bracket below the half
        (5 * 10**9 + 7, 7, "0.1234567891"),  # the whole bracket from the half up
        (5 * 10**9, 0, "0.1234567891"),      # an exact half rounds away
        (5 * 10**9 - 3, 7, "0.1234567890"),  # straddles the half; the rerun settles
    ])
    def test_entries_round_half_away(self, offset, drift, want, monkeypatch):
        calls = []

        def sines(h, count, ws):
            calls.append(ws)
            return [(1234567890 * 10**10 + offset) * 10 ** (ws - 20)] * (count + 1)

        monkeypatch.setattr(trig_series, "_second_difference_sines", sines)
        monkeypatch.setattr(trig_series, "_drift_ulp", lambda k: drift)
        assert {fd_to_string(v) for _, v in build_sine_table(10)} == {want}
        assert len(calls) == (SINE_TABLE_SIZE + 1 if offset == 5 * 10**9 - 3 else 1)

    def test_scale_precondition(self):
        with pytest.raises(ValueError):
            build_sine_table(8)

    def test_minimal_lagrange_terms_recorded(self):
        # (pi/2)^(2N+1)/(2N+1)! first drops below 1e-9 at N = 7, so the
        # table's eight-digit claim needs 7 terms (11 comfortably suffice)
        assert sin_terms_for(9) == 7
        assert sin_terms_for(12) == 9

    @pytest.mark.parametrize("fn", (SIN, COS))
    @pytest.mark.parametrize("scale", (10, 20, 40, 200, 1000, 2000))
    def test_full_domain_remainder_below_one_ulp(self, fn, scale):
        # the Lagrange remainder after N terms on |theta| <= 3.142,
        # theta**p / p! with p = 2N + 1 for sin and 2N for cos, below
        # 10**-scale in exact integers
        terms = full_domain_terms(scale, fn)
        p = 2 * terms + (fn == SIN)
        assert 3142**p * 10**scale < factorial(p) * 1000**p

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
        shifted = taylor_shift(u, fd_from_string("0.0"), SIN, 20)
        direct = sin_series(u, sin_terms_for(30), 20)
        assert abs(as_fraction(shifted) - as_fraction(direct)) <= 2 * ulp(20)

    def test_at_zero_base_point(self):
        h = fd_from_string("0.01")
        assert fd_to_string(taylor_shift(fd_from_string("0"), h, SIN, 10)) == "0.0100000000"
        assert fd_to_string(taylor_shift(fd_from_string("0"), h, COS, 10)) == "0.9999500000"

    def test_shift_near_direct_series(self):
        u = deg("30")
        h = fd_from_string("0.01")
        shifted = taylor_shift(u, h, SIN, 20)
        target = fd_add(fd_rescale(u, 30), fd_rescale(h, 30))
        direct = sin_series(target, sin_terms_for(30), 20)
        assert abs(as_fraction(shifted) - as_fraction(direct)) <= Fraction(2, 10**7)

    def test_cubic_error_ratio(self):
        u = deg("30")
        errs = {}
        for h_str in ("0.02", "0.01"):
            h = fd_from_string(h_str)
            shifted = taylor_shift(u, h, SIN, 25)
            target = fd_add(fd_rescale(u, 35), fd_rescale(h, 35))
            direct = sin_series(target, sin_terms_for(35), 25)
            errs[h_str] = abs(as_fraction(shifted) - as_fraction(direct))
        ratio = errs["0.02"] / errs["0.01"]
        assert Fraction(6) <= ratio <= Fraction(10)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            taylor_shift(deg("120"), fd_from_string("0.1"), SIN, 15)
        with pytest.raises(ValueError):
            taylor_shift(deg("30"), fd_from_string("0.6"), SIN, 15)

    def test_unknown_function_refused(self):
        with pytest.raises(ValueError):
            taylor_shift(deg("30"), fd_from_string("0.1"), SINSQ, 15)


class TestAngleAdd:
    def test_y_zero_is_sin(self):
        x = deg("37")
        v = angle_add(x, fd_from_string("0"), SIN_SUM, 15)
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
                    sum_angle = fd_add(fd_rescale(x, 30), fd_rescale(y, 30))
                    diff_angle = fd_sub(fd_rescale(x, 30), fd_rescale(y, 30))
                    combined = sum_angle if rule.endswith("sum") else diff_angle
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
        taylor_shift(right, h, SIN, scale)
        taylor_shift(right, h, COS, scale)
        angle_add(half, half, SIN_SUM, scale)
        angle_add(right, zero, COS_SUM, scale)

    @pytest.mark.parametrize("scale", range(61))
    def test_past_ninety_degrees_refused(self, scale):
        past = deg("90.0001", scale + ANGLE_DIGITS)
        for fn in (SIN, COS):
            with pytest.raises(ValueError):
                taylor_shift(past, fd_from_string("0"), fn, scale)


class TestDomainSlack:
    # a limit truncated from pi admits two ulp past it and no more
    @pytest.mark.parametrize("scale", (0, 7, 30))
    def test_series_admit_two_ulp_past_pi(self, scale):
        ws = scale + ANGLE_DIGITS
        pi = pi_reference(ws).mantissa.to_int()
        for fn in (sin_series, cos_series, sin_sq_series):
            for sign in (1, -1):
                fn(FixedDec(sign, BigNat.from_int(pi + 2), ws), 3, scale)
                with pytest.raises(ValueError):
                    fn(FixedDec(sign, BigNat.from_int(pi + 3), ws), 3, scale)

    @pytest.mark.parametrize("scale", (0, 7, 30))
    def test_shifts_and_rules_admit_two_ulp_past_half_pi(self, scale):
        ws = scale + ANGLE_DIGITS
        right = theta_t(FixedDec.from_int(90), scale).mantissa.to_int()
        zero = FixedDec.from_int(0, ws)
        h = fd_from_string("0")
        for past, admitted in ((2, True), (3, False)):
            u = FixedDec(1, BigNat.from_int(right + past), ws)
            calls = (lambda: taylor_shift(u, h, SIN, scale),
                     lambda: taylor_shift(u, h, COS, scale),
                     lambda: angle_add(u, zero, SIN_SUM, scale),
                     lambda: angle_add(zero, u, COS_SUM, scale))
            for call in calls:
                if admitted:
                    call()
                else:
                    with pytest.raises(ValueError):
                        call()


class TestAngleConstruction:
    def test_degrees_to_radians(self):
        a = deg("180", 25)
        assert abs(as_fraction(a) - as_fraction(pi_reference(25))) <= 2 * ulp(25)

    def test_grid_step_exact(self):
        a = deg("3.75", 25)
        b = theta_t(fd_from_string("3.750000"), 25 - ANGLE_DIGITS)
        assert fd_to_string(a) == fd_to_string(b)


class TestAngleForScale:
    @pytest.mark.parametrize("scale", range(61))
    def test_right_angle_is_half_of_the_floored_pi(self, scale):
        # the pi/2 limit of the shift formulas and the addition rules
        pi = pi_reference(scale + 2 * ANGLE_DIGITS).mantissa.to_int()
        got = theta_t(FixedDec.from_int(90), scale)
        assert (got.sign, got.mantissa.to_int(), got.scale) == (
            1, pi // (2 * 10**ANGLE_DIGITS), scale + ANGLE_DIGITS)
