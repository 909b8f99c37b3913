"""Arithmetic core: limb ring vs the Python-int oracle, truncation
contracts, string round trips."""

import math
import operator
import random

import pytest
from fractions import Fraction

from madhava.bigfixed import (
    BASE,
    GUARD,
    BigNat,
    FixedDec,
    ScaleMismatchError,
    fd_add,
    fd_divn,
    fd_floor_int,
    fd_from_ratio,
    fd_from_string,
    fd_isqrt,
    fd_mul,
    fd_rescale,
    fd_round,
    fd_sub,
    fd_to_string,
    widen_until_settled,
)
from conftest import as_fraction


def rand_nat(rng, max_digits=64):
    digits = rng.randrange(0, max_digits + 1)
    return rng.randrange(0, 10**digits) if digits else 0


def truncated(q: Fraction, scale: int) -> Fraction:
    """q truncated toward zero at the scale (int() truncates a Fraction)."""
    return Fraction(int(q * 10**scale), 10**scale)


def assert_canonical(x: FixedDec):
    limbs = x.mantissa.limbs
    assert type(limbs) is tuple
    assert all(type(l) is int and 0 <= l < BASE for l in limbs)
    assert not limbs or limbs[-1] != 0


class TestBigNatRing:
    def test_identity_and_carry(self):
        assert (BigNat.from_int(0) + BigNat.from_int(0)).to_int() == 0
        assert (BigNat.from_int(999_999_999_999) + BigNat.from_int(1)).to_int() == 10**12
        assert (BigNat.from_int(2_827_433_388_231) + BigNat.from_int(2)).to_int() == 2_827_433_388_233

    def test_mul_examples(self):
        assert (BigNat.from_int(0) * BigNat.from_int(12345)).to_int() == 0
        assert (BigNat.from_int(10**6) * BigNat.from_int(10**6)).to_int() == 10**12
        assert (BigNat.from_int(3141592653589793) * BigNat.from_int(9)).to_int() == 28274333882308137

    def test_divrem_examples(self):
        q, r = divmod(BigNat.from_int(7), BigNat.from_int(3))
        assert (q.to_int(), r.to_int()) == (2, 1)
        a = BigNat.from_int(987654321987654321)
        q, r = divmod(a, BigNat.from_int(1))
        assert (q.to_int(), r.to_int()) == (a.to_int(), 0)
        q, r = divmod(BigNat.from_int(2_827_433_388_233 * 10**13),
                      BigNat.from_int(9 * 10**11))
        assert str(q).startswith("31415926535922")

    def test_divide_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(BigNat.from_int(1), BigNat.from_int(0))

    def test_ring_axioms_randomized(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(1000):
            a, b, c = (rand_nat(rng) for _ in range(3))
            A, B, C = map(BigNat.from_int, (a, b, c))
            assert (A + B).to_int() == a + b
            assert (A + B == B + A)
            assert ((A + B) + C == A + (B + C))
            assert (A * B).to_int() == a * b
            assert (A * B == B * A)
            assert ((A * B) * C == A * (B * C))
            assert (A * (B + C) == A * B + A * C)
            if b:
                q, r = divmod(A, B)
                assert q * B + r == A
                assert r.to_int() < b

    def test_divrem_vs_oracle_shapes(self):
        rng = random.Random(7042)
        for _ in range(4000):
            nb = rng.randrange(1, 6)
            b = rng.randrange(BASE ** (nb - 1), BASE**nb) if nb > 1 else rng.randrange(1, BASE)
            a = rng.randrange(0, b * BASE ** rng.randrange(0, 4) + 1)
            q, r = divmod(BigNat.from_int(a), BigNat.from_int(b))
            assert (q.to_int(), r.to_int()) == divmod(a, b)

    def test_divrem_addback_branch(self):
        # shaped so the trial quotient digit is one too large and the
        # rare add-back correction executes
        half = BASE // 2
        a = (half - 1) * BASE**3 + half * BASE**2
        b = half * BASE**2 + 1
        q, r = divmod(BigNat.from_int(a), BigNat.from_int(b))
        assert (q.to_int(), r.to_int()) == divmod(a, b)

    def test_refusals(self):
        with pytest.raises(ValueError):
            BigNat.from_int(-1)
        with pytest.raises(ArithmeticError):
            BigNat.from_int(5) - BigNat.from_int(6)
        with pytest.raises(ValueError):
            BigNat.from_int(5).shift10(-1)
        with pytest.raises(ValueError):
            BigNat.from_int(5).unshift10(-1)
        with pytest.raises(AttributeError):
            BigNat.from_int(5).limbs = (6,)

    def test_canonical_form(self):
        assert BigNat.from_int(0).limbs == ()
        assert BigNat.from_int(BASE).limbs == (0, 1)
        n = BigNat.from_int(5 * BASE) - BigNat.from_int(5 * BASE)
        assert n.limbs == ()
        assert BigNat.from_str("000123").to_int() == 123
        # the constructor drops high zero limbs from any sequence
        for limbs, value in (((0,), 0), ([5, 0, 0], 5), ((0, 0), 0)):
            n, twin = BigNat(limbs), BigNat.from_int(value)
            assert n.limbs == twin.limbs
            assert n == twin and hash(n) == hash(twin)
            assert n.is_zero() == twin.is_zero() == (value == 0)
            assert str(n) == str(twin) == str(value)

    def test_shift10_exactness(self):
        rng = random.Random(31)
        for _ in range(500):
            a = rand_nat(rng, 40)
            k = rng.randrange(0, 30)
            assert BigNat.from_int(a).shift10(k).to_int() == a * 10**k
            assert BigNat.from_int(a).unshift10(k).to_int() == a // 10**k


def limb_value(limbs):
    return sum(l * BASE**i for i, l in enumerate(limbs))


class TestCarryChains:
    # add and subtract walk the shorter operand, then carry or borrow only
    # as far as the chain runs; these shapes make the chain cross every
    # high limb of the longer operand
    def assert_sum_and_differences(self, a, b):
        A, B = BigNat.from_int(a), BigNat.from_int(b)
        for s in (A + B, B + A):
            assert s.to_int() == a + b
            assert s.limbs == BigNat.from_int(a + b).limbs
        hi, lo = (A, B) if a >= b else (B, A)
        d = hi - lo
        assert d.to_int() == abs(a - b)
        assert d.limbs == BigNat.from_int(abs(a - b)).limbs

    @pytest.mark.parametrize("k", range(1, 7))
    def test_carry_runs_off_the_top(self, k):
        self.assert_sum_and_differences(BASE**k - 1, 1)
        assert (BigNat.from_int(BASE**k - 1) + BigNat.from_int(1)).limbs == (0,) * k + (1,)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_borrow_runs_to_the_top(self, k):
        assert (BigNat.from_int(BASE**k) - BigNat.from_int(1)).limbs == (BASE - 1,) * k
        d = BigNat.from_int(BASE**k + 5) - BigNat.from_int(7)
        assert d.to_int() == BASE**k - 2
        self.assert_sum_and_differences(BASE**k + 5, 7)

    def test_runs_of_full_and_empty_limbs(self):
        rng = random.Random(0x5EED)
        for _ in range(2000):
            long = [rng.choice((0, BASE - 1)) for _ in range(rng.randrange(1, 9))]
            long.append(rng.choice((1, BASE - 1)))
            short = [rng.choice((0, 1, BASE - 1, rng.randrange(BASE)))
                     for _ in range(rng.randrange(0, len(long) + 1))]
            self.assert_sum_and_differences(limb_value(long), limb_value(short))


class TestFixedDec:
    def test_from_ratio_examples(self):
        assert fd_to_string(fd_from_ratio(1, 3, 5)) == "0.33333"
        assert fd_to_string(fd_from_ratio(1, 1, 10)) == "1.0000000000"
        assert fd_to_string(fd_from_ratio(2827433388233, 9 * 10**11, 14)) == "3.14159265359222"

    def test_from_ratio_truncation_bound(self):
        rng = random.Random(55)
        for _ in range(800):
            n = rng.randrange(0, 10**12)
            d = rng.randrange(1, 10**9)
            s = rng.randrange(0, 25)
            v = fd_from_ratio(n, d, s)
            err = Fraction(n, d) - as_fraction(v)
            assert 0 <= err < Fraction(1, 10**s)
            # the mantissa is exactly the floor model
            assert v.mantissa.to_int() == n * 10**s // d

    def test_add_sub_mul_contracts(self):
        a = fd_from_string("0.50000")
        b = fd_from_string("0.25000")
        assert fd_to_string(fd_add(a, b)) == "0.75000"
        assert fd_to_string(fd_mul(fd_from_string("0.33333"), fd_from_string("3.00000"))) == "0.99999"
        z = fd_sub(a, a)
        assert z.sign == 1 and z.is_zero()

    def test_constructor_refusals(self):
        with pytest.raises(ValueError):
            FixedDec(0, 1, 0)
        with pytest.raises(ValueError):
            FixedDec(1, 1, -1)
        with pytest.raises(TypeError):
            FixedDec(1, 1.5, 0)
        with pytest.raises(AttributeError):
            FixedDec(1, 1, 0).scale = 2

    def test_scale_mismatch_rejected(self):
        with pytest.raises(ScaleMismatchError):
            fd_add(fd_from_string("1.00"), fd_from_string("1.000"))

    def test_mul_truncates_to_larger_scale(self):
        rng = random.Random(90)
        for _ in range(500):
            sa, sb = rng.randrange(0, 12), rng.randrange(0, 12)
            ma, mb = rng.randrange(0, 10**10), rng.randrange(0, 10**10)
            a = FixedDec(1, BigNat.from_int(ma), sa)
            b = FixedDec(1, BigNat.from_int(mb), sb)
            out = fd_mul(a, b)
            assert out.scale == max(sa, sb)
            assert out.mantissa.to_int() == ma * mb // 10 ** min(sa, sb)

    def test_divn_truncates(self):
        v = fd_divn(fd_from_string("1.0"), 3, 6)
        assert fd_to_string(v) == "0.333333"
        v = fd_divn(fd_from_string("-1.0"), 3, 6)
        assert fd_to_string(v) == "-0.333333"
        with pytest.raises(ZeroDivisionError):
            fd_divn(fd_from_string("1.0"), 0, 6)

    def test_isqrt_examples(self):
        assert fd_to_string(fd_isqrt(fd_from_string("0"), 6)) == "0.000000"
        assert fd_to_string(fd_isqrt(FixedDec.from_int(4), 6)) == "2.000000"
        assert fd_to_string(fd_isqrt(FixedDec.from_int(12), 12)) == "3.464101615137"
        with pytest.raises(ValueError):
            fd_isqrt(fd_from_string("-1.0"), 6)

    def test_isqrt_floor_bracket(self):
        rng = random.Random(4242)
        for _ in range(400):
            m = rng.randrange(0, 10**20)
            s_in = rng.randrange(0, 10)
            s_out = rng.randrange(0, 15)
            a = FixedDec(1, BigNat.from_int(m), s_in)
            r = fd_isqrt(a, s_out)
            fa, fr = as_fraction(a), as_fraction(r)
            ulp = Fraction(1, 10**s_out)
            assert fr * fr <= fa < (fr + ulp) * (fr + ulp)

    def test_string_round_trip(self):
        assert fd_to_string(fd_from_string("3.1415926535")) == "3.1415926535"
        v = fd_from_string("-0.5")
        assert v.sign == -1 and v.mantissa.to_int() == 5 and v.scale == 1
        v = fd_from_string("2827433388233")
        assert v.scale == 0 and v.mantissa.to_int() == 2827433388233
        rng = random.Random(717)
        for _ in range(1000):
            s = rng.randrange(0, 20)
            m = rng.randrange(0, 10**24)
            sign = rng.choice((1, -1))
            v = FixedDec(sign, BigNat.from_int(m), s)
            assert fd_from_string(fd_to_string(v)) == v
            assert fd_to_string(fd_from_string(fd_to_string(v))) == fd_to_string(v)

    def test_malformed_strings(self):
        for bad in ("", "1.2.3", "1e5", ".5", "1.", "--2", "0x12", " 1", "3\n"):
            with pytest.raises(ValueError):
                fd_from_string(bad)

    def test_non_ascii_digits_refused(self):
        # Arabic-Indic 3.14 and 3, fullwidth 7, superscript 2: str.isdigit
        # and int() accept the first three, so the parsers must not use them
        for bad in ("\u0663.\u0661\u0664", "\u0663", "\uff17", "3.1\u00b2"):
            with pytest.raises(ValueError, match="malformed decimal"):
                fd_from_string(bad)
        for bad in ("\u0663", "1\uff17", "\u00b2"):
            with pytest.raises(ValueError):
                BigNat.from_str(bad)
        assert BigNat.from_str("0123").to_int() == 123

    def test_zero_is_canonically_positive(self):
        v = fd_from_string("-0.000")
        assert v.sign == 1
        assert fd_to_string(v) == "0.000"
        v = FixedDec(-1, BigNat((0,)), 3)
        assert v.sign == 1
        assert fd_to_string(v) == "0.000"
        assert v == FixedDec.from_int(0, 3)
        assert fd_isqrt(v, 3) == FixedDec.from_int(0, 3)

    def test_rescale_and_round(self):
        assert fd_to_string(fd_rescale(fd_from_string("1.23"), 5)) == "1.23000"
        assert fd_to_string(fd_rescale(fd_from_string("1.23999"), 2)) == "1.23"
        assert fd_to_string(fd_round(fd_from_string("0.99999999993"), 8)) == "1.00000000"
        assert fd_to_string(fd_round(fd_from_string("0.49999999996"), 10)) == "0.5000000000"
        assert fd_to_string(fd_round(fd_from_string("0.49999999991"), 10)) == "0.4999999999"
        assert fd_to_string(fd_round(fd_from_string("-2.5"), 0)) == "-3"

    def test_floor_int(self):
        assert fd_floor_int(fd_from_string("2233206.569")) == 2233206
        assert fd_floor_int(fd_from_string("-2.5")) == -3
        assert fd_floor_int(fd_from_string("-2.0")) == -2

    @pytest.mark.parametrize("scale", (0, 1, 5, 9, 10, 18, 30))
    def test_floor_int_matches_fraction(self, scale):
        rng = random.Random(1000 + scale)
        whole = 10**scale
        mantissas = [0, 1, whole, 7 * whole, whole - 1, whole + 1]
        mantissas += [rand_nat(rng, scale + 12) for _ in range(200)]
        for m in mantissas:
            for sign in (1, -1):
                v = FixedDec(sign, BigNat.from_int(m), scale)
                assert fd_floor_int(v) == math.floor(as_fraction(v)), fd_to_string(v)
        # -10**-s and the negative whole numbers
        assert fd_floor_int(FixedDec(-1, 1, scale)) == -1
        for n in (1, 2, 9, 10, 10**12):
            assert fd_floor_int(FixedDec.from_int(-n, scale)) == -n

    def test_value_comparison_across_scales(self):
        assert fd_from_string("0.50") == fd_from_string("0.5000")
        assert fd_from_string("0.5") < fd_from_string("0.51")
        assert fd_from_string("-0.5") < fd_from_string("0.1")
        # every pair of the five comparisons against Fraction: zero, two
        # negatives, equal values and one-ulp neighbours at scales 0 to 40
        # apart, and random values
        rng = random.Random(29)
        values = [fd_from_string(s) for s in ("0", "-0.5", "-12", "12", "0.5")]
        for v in list(values):
            for k in (1, 17, 40):
                values.append(fd_rescale(v, v.scale + k))
                values.append(fd_add(values[-1], FixedDec(1, 1, v.scale + k)))
        for _ in range(40):
            values.append(FixedDec(rng.choice((1, -1)), rand_nat(rng, 50), rng.randrange(41)))
        ops = (operator.eq, operator.lt, operator.le, operator.gt, operator.ge)
        for a in values:
            for b in values:
                fa, fb = as_fraction(a), as_fraction(b)
                assert [op(a, b) for op in ops] == [op(fa, fb) for op in ops], (a, b)


class Straddled(Exception):
    """A second bracket asked for, past the one a test gives."""


def read_once(lo: int, hi: int, scale: int, ws: int) -> str | None:
    """What widen_until_settled reads at scale off the one bracket (lo,
    hi) at ws, or None when it asks for another."""
    asked = []

    def bracket(w):
        if asked:
            raise Straddled
        asked.append(w)
        assert w == ws
        return lo, hi

    try:
        return fd_to_string(widen_until_settled(bracket, scale, ws))
    except Straddled:
        return None


class TestSettled:
    """The settle rule: both ends of an int bracket at ws, floored at the
    scale, give the value, or the driver widens."""

    def test_common_floor_or_widen(self):
        assert read_once(314159, 314161, 3, 5) == "3.141"
        assert read_once(314099, 314101, 3, 5) is None
        assert read_once(9, 9, 0, 1) == "0"
        # a floored end at the scale itself: ends one ulp apart never settle
        assert read_once(2000, 2000, 3, 3) == "2.000"
        assert read_once(2000, 2001, 3, 3) is None
        # ends are floored, not truncated: a negative end straddles zero
        assert read_once(0, 9, 3, 4) == "0.000"
        assert read_once(-9, 9, 3, 4) is None

    def test_negative_floor_refused(self):
        # x >= 0: a bracket that floors below zero at both ends is a bug
        # in its caller, which FixedDec refuses rather than print
        with pytest.raises(ValueError):
            read_once(-19, -11, 0, 1)

    def test_matches_fraction(self):
        # ends around x * 10**ws for a random x >= 0: the driver settles
        # exactly when both floors at the scale agree, on the Fraction
        # floor of x
        rng = random.Random(2024)
        for _ in range(400):
            scale, wide = rng.randrange(0, 8), rng.randrange(0, 4)
            ws = scale + wide
            x = Fraction(rng.randrange(0, 10**12), rng.randrange(1, 10**6))
            mid = math.floor(x * 10**ws)
            lo, hi = mid - rng.randrange(0, 10**wide), mid + rng.randrange(0, 10**wide)
            want = {math.floor(Fraction(end, 10**wide)) for end in (lo, hi)}
            got = read_once(lo, hi, scale, ws)
            if len(want) == 2:
                assert got is None
            else:
                assert want == {math.floor(x * 10**scale)}
                assert got == fd_to_string(FixedDec(1, want.pop(), scale))


class TestWidenUntilSettled:
    @staticmethod
    def recording(ends):
        """A bracket that records each ws it is asked for, and refuses a
        fifth call, so a driver that does not widen fails, not hangs."""
        seen = []

        def bracket(ws):
            seen.append(ws)
            assert len(seen) <= 4, f"asked for {seen}: the driver does not widen"
            return ends(ws)

        return bracket, seen

    def test_widens_by_guard_until_the_ends_agree(self):
        # 2/3 -+ 10**-(1 + retries): 0.1 and 0.01 straddle at scale 2, 0.001 settles
        def ends(ws):
            mid, half = 2 * 10**ws // 3, 10 ** (ws - 1 - (ws - 5) // GUARD)
            return mid - half, mid + half

        bracket, seen = self.recording(ends)
        got = widen_until_settled(bracket, 2, 5)
        assert (got.sign, got.mantissa.to_int(), got.scale) == (1, 66, 2)
        assert seen == [5, 5 + GUARD, 5 + 2 * GUARD]

    def test_an_exact_floor_settles_a_terminating_value(self):
        # 1 -+ one ulp straddles 1 at scale 0 at every ws; a bracket whose
        # ends are both the exact floor, as evaluate's third one, settles it
        def ends(ws):
            one = 10**ws
            return (one, one) if ws > 3 + GUARD else (one - 1, one + 1)

        bracket, seen = self.recording(ends)
        assert fd_to_string(widen_until_settled(bracket, 0, 3)) == "1"
        assert seen == [3, 3 + GUARD, 3 + 2 * GUARD]


class TestLargeOperands:
    """The FixedDec contracts at up to about 2000 digits, where products,
    multi-limb divisions and roots leave the limb loops: every result is
    the exact truncation of its Fraction value and keeps canonical limbs."""

    @staticmethod
    def rand_fd(rng, min_digits=0, max_digits=2000):
        digits = rng.randrange(min_digits, max_digits + 1)
        mant = rng.randrange(10 ** (digits - 1), 10**digits) if digits else 0
        return FixedDec(rng.choice((1, -1)), BigNat.from_int(mant), rng.randrange(0, 1000))

    def test_mul(self):
        rng = random.Random(2000)
        for _ in range(150):
            a, b = self.rand_fd(rng), self.rand_fd(rng)
            out = fd_mul(a, b)
            assert out.scale == max(a.scale, b.scale)
            assert as_fraction(out) == truncated(as_fraction(a) * as_fraction(b), out.scale)
            assert_canonical(out)

    def test_divn_by_multi_limb_bignats(self):
        rng = random.Random(2001)
        for _ in range(150):
            a, n = self.rand_fd(rng), self.rand_fd(rng, min_digits=10).mantissa
            scale = rng.randrange(0, 1500)
            out = fd_divn(a, n, scale)
            assert out.scale == scale
            assert as_fraction(out) == truncated(as_fraction(a) / n.to_int(), scale)
            assert_canonical(out)

    def test_divn_by_multi_limb_naturals(self):
        rng = random.Random(2002)
        for _ in range(150):
            a = self.rand_fd(rng)
            n = rng.randrange(BASE, 10 ** rng.randrange(10, 1000))
            scale = rng.choice((None, rng.randrange(0, 1500)))
            out = fd_divn(a, n, scale)
            assert out.scale == (a.scale if scale is None else scale)
            assert as_fraction(out) == truncated(as_fraction(a) / n, out.scale)
            assert_canonical(out)

    def test_from_ratio(self):
        rng = random.Random(2003)
        for _ in range(150):
            num = rng.randrange(0, 10 ** rng.randrange(1, 2000))
            den = rng.randrange(BASE, 10 ** rng.randrange(10, 2000))
            sign, scale = rng.choice((1, -1)), rng.randrange(0, 1500)
            out = fd_from_ratio(num, den, scale)
            out = out if sign > 0 else -out
            assert as_fraction(out) == truncated(Fraction(sign * num, den), scale)
            assert_canonical(out)

    def test_isqrt_floor_bracket(self):
        rng = random.Random(2004)
        for _ in range(150):
            a = abs(self.rand_fd(rng))
            scale = rng.randrange(0, 1200)
            r = fd_isqrt(a, scale)
            fa, fr = as_fraction(a), as_fraction(r)
            ulp = Fraction(1, 10**scale)
            assert r.scale == scale and r.sign == 1
            assert fr * fr <= fa < (fr + ulp) * (fr + ulp)
            assert_canonical(r)
