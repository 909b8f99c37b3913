"""GUARD sets where a kernel starts, never a settled digit.

pi_reference and build_sine_table decide every digit they return
through bigfixed.settled and widen by GUARD digits until it answers, so
any GUARD >= 1 must give the bytes that the shipped GUARD = 10 gives.
GUARD is moved in every module that binds it, and the pi and
coefficient memos are cleared around each run, so nothing computed at
one GUARD is read at another.
"""

import sys
from functools import cache

import pytest

import madhava.cli  # imports every module of the package
from madhava import pi_series, trig_series
from madhava.pi_series import pi_reference
from madhava.trig_series import build_sine_table, coeff_table

BINDERS = tuple(module for name, module in sorted(sys.modules.items())
                if name.startswith("madhava.") and hasattr(module, "GUARD"))
PI_SCALES = (*range(61), 500, 2000)
TABLE_SCALES = (10, 47, 141, 200)


def settled_digits(guard: int, table_scales: tuple[int, ...]) -> tuple[list[str], list[str]]:
    with pytest.MonkeyPatch.context() as patch:
        for module in BINDERS:
            patch.setattr(module, "GUARD", guard)
        pi_reference.cache_clear()
        coeff_table.cache_clear()
        try:
            return ([str(pi_reference(s)) for s in PI_SCALES],
                    [str(v) for s in table_scales for _, v in build_sine_table(s).entries])
        finally:
            pi_reference.cache_clear()
            coeff_table.cache_clear()


@cache
def shipped(table_scales: tuple[int, ...]) -> tuple[list[str], list[str]]:
    return settled_digits(10, table_scales)


def test_every_binder_is_moved():
    assert {pi_series, trig_series} <= set(BINDERS)


@pytest.mark.parametrize("guard, table_scales", [
    (1, TABLE_SCALES), (2, TABLE_SCALES), (5, (*TABLE_SCALES, 1000)), (30, (*TABLE_SCALES, 1000))])
def test_settled_digits_do_not_depend_on_guard(guard, table_scales):
    assert settled_digits(guard, table_scales) == shipped(table_scales)
