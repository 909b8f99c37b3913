"""GUARD sets where a kernel starts, never a settled digit.

pi_reference, build_sine_table and pi_series.evaluate decide every digit
they return through bigfixed.widen_until_settled, which widens by GUARD
digits until the two ends of a bracket agree, so any GUARD >= 1 must
give the bytes that the shipped GUARD = 10 gives.  That covers what
``pi`` and ``converge`` print: each series value is the exact floor
whatever GUARD is, the four terminating values below (4, 3, 3.2 and
3.2, which no widening separates) through evaluate's exact
fallback, and the errors converge prints are taken against
pi_reference.  GUARD is moved in every module that binds it, and the
pi memo is cleared around each run, so nothing computed at one GUARD is
read at another.
"""

import io
import sys
from contextlib import contextmanager, redirect_stdout
from functools import cache

import pytest

import madhava.cli  # imports every module of the package
from madhava import bigfixed, pi_series, trig_series
from madhava.pi_series import pi_reference
from madhava.trig_series import build_sine_table

BINDERS = tuple(module for name, module in sorted(sys.modules.items())
                if name.startswith("madhava.") and hasattr(module, "GUARD"))
PI_SCALES = (*range(61), 500, 2000)
TABLE_SCALES = (10, 47, 141, 200)


CLI_RUNS = (
    ("pi", "--series", "sqrt12", "--terms", "10", "--digits", "12"),
    ("pi", "--series", "sqrt12", "--terms", "120", "--digits", "60"),
    *(("pi", "--series", "leibniz", "--terms", "50", "--correction", c) for c in ("f1", "f2", "f3")),
    # terminating values: both tries straddle and the exact fallback runs
    *(("pi", "--series", "leibniz", "--terms", "1", "--correction", c) for c in ("none", "f1", "f2")),
    ("pi", "--series", "aux-c", "--terms", "1"),
    ("converge", "--series", "leibniz,sqrt12", "--corrections", "all", "--n-max", "20"),
)


@contextmanager
def guard_at(guard: int):
    with pytest.MonkeyPatch.context() as patch:
        for module in BINDERS:
            patch.setattr(module, "GUARD", guard)
        pi_reference.cache_clear()
        try:
            yield
        finally:
            pi_reference.cache_clear()


def settled_digits(guard: int, table_scales: tuple[int, ...]) -> tuple[list[str], list[str]]:
    with guard_at(guard):
        return ([str(pi_reference(s)) for s in PI_SCALES],
                [str(v) for s in table_scales for _, v in build_sine_table(s)])


@cache
def cli_stdout(guard: int) -> list[str]:
    out = []
    with guard_at(guard):
        for argv in CLI_RUNS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                assert madhava.cli.main(list(argv)) == 0
            out.append(buf.getvalue())
    return out


@cache
def shipped(table_scales: tuple[int, ...]) -> tuple[list[str], list[str]]:
    return settled_digits(10, table_scales)


def test_every_binder_is_moved():
    assert {bigfixed, pi_series, trig_series} <= set(BINDERS)


@pytest.mark.parametrize("guard, table_scales", [
    (1, TABLE_SCALES), (2, TABLE_SCALES), (5, (*TABLE_SCALES, 1000)), (30, (*TABLE_SCALES, 1000))])
def test_settled_digits_do_not_depend_on_guard(guard, table_scales):
    assert settled_digits(guard, table_scales) == shipped(table_scales)


@pytest.mark.parametrize("guard", (1, 2, 5, 30))
def test_pi_and_converge_stdout_do_not_depend_on_guard(guard):
    assert cli_stdout(guard) == cli_stdout(10)
