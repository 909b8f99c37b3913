"""The frozen records: immutability, construction and equality, and what
importing the CLI, geometry or chronology pulls in."""

import subprocess
import sys
from pathlib import Path

import pytest

import madhava
from madhava.bigfixed import FixedDec
from madhava.chronology import CalendarDate, EpochReport, venvaroha_epoch_check
from madhava.cli import VerifyCheck
from madhava.pi_series import SERIES, SeriesDef, evaluate
from madhava.trig_series import theta_t


def _records():
    return [
        CalendarDate(1402, 3, 10),
        venvaroha_epoch_check(),
        VerifyCheck("name", "expected", "computed", "exact", True),
        SERIES["leibniz"],
    ]


def test_every_record_is_listed():
    kinds = {type(r) for r in _records()}
    assert kinds == {CalendarDate, EpochReport, VerifyCheck, SeriesDef}


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_refuses_assignment(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__, subclasses included


class TestBehaviour:
    def test_calendar_date(self):
        date = CalendarDate(1402, 3, 10)
        assert date._fields == ("year", "month", "day")
        assert date == CalendarDate(year=1402, month=3, day=10)
        assert str(date) == "1402-03-10"
        assert str(CalendarDate(5, 1, 2)) == "0005-01-02"

    def test_evaluate_equal_for_equal_arguments(self):
        assert evaluate("sqrt12", 20, "none", 25) == evaluate("sqrt12", 20, "none", 25)
        assert evaluate("sqrt12", 20, "none", 25) != evaluate("sqrt12", 21, "none", 25)

    def test_methods(self):
        assert str(theta_t(FixedDec.from_int(180), 0)) == "3.1415926535"


def _fresh_import(module: str, report: str) -> str:
    """What report prints in a fresh process that has imported module;
    -S keeps site and its imports out, so only madhava's own imports
    count."""
    src = Path(madhava.__file__).resolve().parent.parent
    code = f"import sys; sys.path.insert(0, sys.argv[1]); import {module}; print({report})"
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_cli_skips_dataclasses():
    # json loads in the --format json branches only.  Every library module
    # loads with the CLI, as bench/tracer.py wraps each one through
    # sys.modules, where a lazily imported module would be missing
    report = ("sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)), "
              "sorted(m for m in sys.modules if m.partition('.')[0] == 'madhava')")
    modules = ["madhava", *(f"madhava.{m}" for m in (
        "bigfixed", "chronology", "cli", "geometry", "pi_series", "trig_series"))]
    assert _fresh_import("madhava.cli", report) == f"[] {modules}\n"


@pytest.mark.parametrize("module", ("madhava.geometry", "madhava.chronology"))
def test_module_imports_only_bigfixed(module):
    # no series module behind the quadrilateral or the epoch check, so a
    # trig or pi change cannot move them
    report = "sorted(m for m in sys.modules if m.partition('.')[0] == 'madhava')"
    assert _fresh_import(module, report) == f"{sorted(('madhava', 'madhava.bigfixed', module))}\n"


@pytest.mark.parametrize("name, homes", [
    (".mantissa", {"bigfixed.py"}),
    ("BigNat", {"bigfixed.py", "pi_series.py"}),
])
def test_fixeddec_layout_stays_in_bigfixed(name, homes):
    # every other module reads a FixedDec through fd_to_int; the pi kernel
    # alone still divides BigNat values
    package = Path(madhava.__file__).resolve().parent
    readers = {p.name for p in package.glob("*.py") if name in p.read_text(encoding="utf-8")}
    assert readers == homes
