"""The frozen records: immutability, construction, validation and equality,
and what importing the CLI pulls in."""

import subprocess
import sys
from pathlib import Path

import pytest

import madhava
from madhava.bigfixed import FixedDec, fd_from_string
from madhava.chronology import CalendarDate, EpochReport, KaliInstant, venvaroha_epoch_check
from madhava.cli import VerifyCheck, VerifyReport
from madhava.geometry import QuadSides
from madhava.pi_series import (
    SERIES,
    CircumferenceReport,
    PiResult,
    SeriesDef,
    SeriesSpec,
    circumference_check,
    evaluate,
)
from madhava.trig_series import CoeffTable, coeff_table, theta_t


def _check(passed=True):
    return VerifyCheck("name", "expected", "computed", "exact", passed)


def _records():
    sides = [FixedDec.from_int(n) for n in (3, 4, 3, 4)]
    return [
        KaliInstant(fd_from_string("1.5")),
        CalendarDate(1402, 3, 10),
        venvaroha_epoch_check(),
        _check(),
        VerifyReport((_check(),)),
        QuadSides(*sides),
        SERIES["leibniz"],
        SeriesSpec("leibniz", 5),
        evaluate(SeriesSpec("leibniz", 5)),
        circumference_check(),
        coeff_table("sin", 3, 10),
    ]


def test_every_record_is_listed():
    kinds = {type(r) for r in _records()}
    assert kinds == {KaliInstant, CalendarDate, EpochReport, VerifyCheck, VerifyReport,
                     QuadSides, SeriesDef, SeriesSpec, PiResult, CircumferenceReport,
                     CoeffTable}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_refuses_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__, subclasses included


class TestValidation:
    @pytest.mark.parametrize("args, kwargs", [
        (("machin", 5), {}),
        ((), {"series_id": "machin", "terms": 5}),
        (("leibniz", 0), {}),
        ((), {"series_id": "leibniz", "terms": 0}),
        (("aux-a", 5, "f1"), {}),
        (("aux-a", 5), {"correction": "f1"}),
        (("leibniz", 5, "f4"), {}),
        (("leibniz", 5, "none", 0), {}),
        ((), {"series_id": "leibniz", "terms": 5, "scale": 0}),
    ])
    def test_series_spec_refuses(self, args, kwargs):
        with pytest.raises(ValueError):
            SeriesSpec(*args, **kwargs)

    def test_series_spec_defaults_and_spellings_agree(self):
        spec = SeriesSpec("leibniz", 5)
        assert (spec.correction, spec.scale) == ("none", 20)
        assert spec == SeriesSpec(series_id="leibniz", terms=5, correction="none", scale=20)
        assert spec == SeriesSpec("leibniz", terms=5, scale=20)

    def test_kali_instant_refuses_negative(self):
        negative = fd_from_string("-0.5")
        with pytest.raises(ValueError):
            KaliInstant(negative)
        with pytest.raises(ValueError):
            KaliInstant(kali_day=negative)

    def test_kali_instant_admits_zero(self):
        assert KaliInstant(fd_from_string("-0.0")) == KaliInstant(kali_day=FixedDec.from_int(0, 1))


class TestBehaviour:
    def test_calendar_date(self):
        date = CalendarDate(1402, 3, 10)
        assert date._fields == ("year", "month", "day")
        assert date == CalendarDate(year=1402, month=3, day=10)
        assert str(date) == "1402-03-10"
        assert str(CalendarDate(5, 1, 2)) == "0005-01-02"

    def test_evaluate_equal_for_equal_specs(self):
        spec = SeriesSpec("sqrt12", 20, scale=25)
        assert evaluate(spec) == evaluate(spec)
        assert evaluate(spec) != evaluate(SeriesSpec("sqrt12", 21, scale=25))

    def test_methods(self):
        sides = [FixedDec.from_int(n) for n in (2, 3, 4, 5)]
        assert tuple(QuadSides(*sides)) == tuple(sides)
        assert VerifyReport((_check(), _check())).overall_pass
        assert not VerifyReport((_check(), _check(False))).overall_pass
        assert str(theta_t(FixedDec.from_int(180), 0)) == "3.1415926535"


def test_import_cli_skips_dataclasses():
    # -S keeps site and its imports out, so only madhava's own imports count
    src = Path(madhava.__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import madhava.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
