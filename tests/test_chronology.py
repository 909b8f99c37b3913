"""Kali-day and Julian-calendar arithmetic against almanac anchors."""

import random

import pytest

from madhava.bigfixed import FixedDec, fd_from_string, fd_to_string
from madhava.chronology import (
    ANOMALISTIC_MONTH_DAYS,
    KALI_EPOCH_JD,
    jd_to_date,
    kali_to_julian_day,
    venvaroha_epoch_check,
)


class TestKaliToJd:
    def test_epoch(self):
        assert fd_to_string(kali_to_julian_day(fd_from_string("0"))) == "588465.5"

    def test_one_day(self):
        assert fd_to_string(kali_to_julian_day(fd_from_string("1"))) == "588466.5"

    def test_fractional(self):
        jd = kali_to_julian_day(fd_from_string("1644740.7"))
        assert fd_to_string(jd) == "2233206.2"

    def test_negative_rejected(self):
        for negative in (fd_from_string("-1"), fd_from_string("-0.5")):
            with pytest.raises(ValueError, match="kali_day must be non-negative"):
                kali_to_julian_day(negative)
            with pytest.raises(ValueError, match="kali_day must be non-negative"):
                kali_to_julian_day(kali_day=negative)

    def test_negative_zero_admitted(self):
        assert (kali_to_julian_day(fd_from_string("-0.0"))
                == kali_to_julian_day(kali_day=FixedDec.from_int(0, 1)))


class TestJdToDate:
    def test_epoch_lands_in_3102_bce(self):
        # astronomical year -3101 is 3102 BCE
        d = jd_to_date(fd_from_string("588465.5"))
        assert (d.year, d.month, d.day) == (-3101, 2, 18)

    def test_reform_anchor(self):
        # JD 2299159.5 begins 4 Oct 1582 (Julian), the calendar's last day
        d = jd_to_date(fd_from_string("2299159.5"))
        assert (d.year, d.month, d.day) == (1582, 10, 4)
        d = jd_to_date(fd_from_string("2299160.0"))
        assert (d.year, d.month, d.day) == (1582, 10, 4)

    def test_day_number_zero_anchor(self):
        # JDN 0 is 1 January -4712 (second independent anchor)
        d = jd_to_date(fd_from_string("0.1"))
        assert (d.year, d.month, d.day) == (-4712, 1, 1)

    def test_venvaroha_neighborhood(self):
        d = jd_to_date(fd_from_string("2233206.2"))
        assert (d.year, d.month) == (1402, 3)
        assert abs(d.day - 10) <= 1

    def test_julian_year_step(self):
        # +365 inside a common year advances the date by exactly one year
        d0 = jd_to_date(fd_from_string("2233206.0"))
        d1 = jd_to_date(fd_from_string("2233571.0"))
        assert (d1.year, d1.month, d1.day) == (d0.year + 1, d0.month, d0.day)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            jd_to_date(fd_from_string("0"))


# days before the first of each month in a common year
MONTH_STARTS = (0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334)


def julian_day_number(year, month, day):
    """Day number of a proleptic Julian date counted from 1 January -4712
    (day 0): whole years since then, every fourth one a leap year from
    -4712 itself, then the month's start and the day."""
    years = year + 4712
    leap_day = years % 4 == 0 and month > 2
    return (1461 * years + 3) // 4 + MONTH_STARTS[month - 1] + leap_day + day - 1


class TestRoundTrip:
    def test_thousand_random_days(self):
        rng = random.Random(1402)
        for _ in range(1000):
            jdn = rng.randrange(588465, 2_500_000)
            date = jd_to_date(FixedDec.from_int(jdn, 1))
            assert julian_day_number(date.year, date.month, date.day) == jdn

    def test_monotone(self):
        rng = random.Random(99)
        for _ in range(300):
            jdn = rng.randrange(588465, 2_499_000)
            a = jd_to_date(FixedDec.from_int(jdn, 1))
            b = jd_to_date(FixedDec.from_int(jdn + rng.randrange(0, 400), 1))
            assert (a.year, a.month, a.day) <= (b.year, b.month, b.day)


class TestEpochCheck:
    def test_constants(self):
        assert fd_to_string(KALI_EPOCH_JD) == "588465.5"
        assert fd_to_string(ANOMALISTIC_MONTH_DAYS) == "27.554550"

    def test_report(self):
        rep = venvaroha_epoch_check()
        # 1,502,008 + 5180 * 27.554550 = 1,644,740.569 kali days
        assert fd_to_string(rep.jd) == "2233206.069000"
        assert rep.date.year == 1402 and rep.date.month == 3
        assert abs(rep.date.day - 10) <= 2
        assert rep.matches_paper
