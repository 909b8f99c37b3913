"""Property tests against the Fraction/int oracles, drawn by hypothesis.

Skipped where hypothesis is not installed.  Every suite is derandomized
and bounded, so a run is fast and draws the same examples each time.
"""

from fractions import Fraction

import pytest

from madhava.bigfixed import BigNat, FixedDec
from madhava.geometry import circumradius
from conftest import as_fraction, inscribed_sides

hypothesis = pytest.importorskip("hypothesis")
given, st = hypothesis.given, hypothesis.strategies
PROPERTY = hypothesis.settings(derandomize=True, database=None, max_examples=100, deadline=None)


def fixed(mantissa: int, scale: int) -> FixedDec:
    return FixedDec(-1 if mantissa < 0 else 1, BigNat.from_int(abs(mantissa)), scale)


# four strictly increasing angles in [0, 2*pi) as millionths of a radian,
# every gap (the wrap-around one too) at least 0.06 rad so no chord degenerates
TURN, MIN_GAP = 6_283_100, 60_000


@st.composite
def inscribed_angles(draw):
    # each gap leaves room for the gaps still to come, so nothing is filtered
    spans = []
    for left in (3, 2, 1):
        spans.append(draw(st.integers(MIN_GAP, TURN - sum(spans) - left * MIN_GAP)))
    start = draw(st.integers(0, TURN - sum(spans) - MIN_GAP))
    points = [start]
    for span in spans:
        points.append(points[-1] + span)
    return [fixed(p, 6) for p in points]


@PROPERTY
@given(angles=inscribed_angles(), radius=st.integers(10**3, 10**6))
def test_circumradius_recovers_the_oracle_radius(angles, radius):
    r = fixed(radius, 4)  # 0.1 .. 100
    recovered = circumradius(inscribed_sides(angles, r, 20), 16)
    assert abs(as_fraction(recovered) - as_fraction(r)) <= Fraction(1, 10**16)
