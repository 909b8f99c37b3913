"""Kali-day arithmetic and Julian-calendar conversion.

Reproduces the dating argument for the lunar-epoch constants: kali day
1,502,008 plus 5180 anomalistic months lands on (or within two days of)
10 March 1402 in the Julian calendar.

Pinned constants:

* KALI_EPOCH_JD = 588465.5 -- Julian Date of the midnight Kali epoch,
  17/18 February 3102 BCE (astronomical year -3101).  Standard value;
  the sunrise convention would differ by a quarter day.
* ANOMALISTIC_MONTH_DAYS = 27.554550 -- mean perigee-to-perigee period
  of the Moon, fixed at six decimals.

The +/-2 day acceptance window absorbs the epoch-convention ambiguity
(midnight vs sunrise, local vs Greenwich reckoning).

Calendar arithmetic is the classic integer Julian-day-number algorithm,
proleptic for dates before 8 CE, astronomical year numbering (year 0
exists).  Gregorian dates are out of scope: everything here predates the
1582 reform.
"""

from __future__ import annotations

from typing import NamedTuple

from .bigfixed import FixedDec, fd_add, fd_floor_int, fd_from_string, fd_mul, fd_rescale

KALI_EPOCH_JD = fd_from_string("588465.5")
ANOMALISTIC_MONTH_DAYS = fd_from_string("27.554550")

VENVAROHA_KALI_OFFSET = 1_502_008
VENVAROHA_CYCLES = 5180
EPOCH_TARGET = (1402, 3, 10)
EPOCH_TOLERANCE_DAYS = 2


class CalendarDate(NamedTuple):
    """A Julian-calendar date."""

    year: int  # astronomical numbering
    month: int
    day: int

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}-{self.day:02d}"


def _julian_to_jdn(year: int, month: int, day: int) -> int:
    a = (14 - month) // 12
    y = year + 4800 - a
    m = month + 12 * a - 3
    return day + (153 * m + 2) // 5 + 365 * y + y // 4 - 32083


def _jdn_to_julian(jdn: int) -> tuple[int, int, int]:
    c = jdn + 32082
    d = (4 * c + 3) // 1461
    e = c - (1461 * d) // 4
    m = (5 * e + 2) // 153
    day = e - (153 * m + 2) // 5 + 1
    month = m + 3 - 12 * (m // 10)
    year = d - 4800 + m // 10
    return year, month, day


def kali_to_julian_day(kali_day: FixedDec) -> FixedDec:
    """JD = KALI_EPOCH_JD + kali_day (exact at the common scale); the
    day counts from the Kali epoch, fractions allowed, and may not be
    negative."""
    if kali_day.sign < 0:
        raise ValueError("kali_day must be non-negative")
    s = max(kali_day.scale, KALI_EPOCH_JD.scale)
    return fd_add(fd_rescale(kali_day, s), fd_rescale(KALI_EPOCH_JD, s))


def jd_to_date(jd: FixedDec) -> CalendarDate:
    """Civil Julian-calendar date of the day containing noon of this JD.

    The civil day with Julian day number z runs from JD z-0.5 to z+0.5.
    """
    if jd.sign < 0 or jd.is_zero():
        raise ValueError("jd must be positive")
    s = max(jd.scale, 1)
    half = fd_from_string("0.5")
    jdn = fd_floor_int(fd_add(fd_rescale(jd, s), fd_rescale(half, s)))
    year, month, day = _jdn_to_julian(jdn)
    return CalendarDate(year=year, month=month, day=day)


class EpochReport(NamedTuple):
    jd: FixedDec
    date: CalendarDate
    matches_paper: bool


def venvaroha_epoch_check() -> EpochReport:
    """Kali day 1,502,008 + 5180 anomalistic months, converted to a date;
    matches_paper is true when it falls within two days of 10 March 1402."""
    cycles = fd_mul(ANOMALISTIC_MONTH_DAYS, FixedDec.from_int(VENVAROHA_CYCLES))
    kali = fd_add(cycles, FixedDec.from_int(VENVAROHA_KALI_OFFSET, cycles.scale))
    jd = kali_to_julian_day(kali)
    date = jd_to_date(jd)
    target = _julian_to_jdn(*EPOCH_TARGET)
    jdn = _julian_to_jdn(date.year, date.month, date.day)
    return EpochReport(jd=jd, date=date,
                       matches_paper=abs(jdn - target) <= EPOCH_TOLERANCE_DAYS)
