"""The worst admitted case of each command, as README's table states it.

    python tests/worst_cases.py            # time each case, print the table
    python tests/worst_cases.py --quick    # no timings: check README's table

For each command the script builds the argument vector that maximises
work under the caps (SCALE_CAP, DEFAULT_TERM_CAP, TRIG_TERM_CAP and the
largest --n-max whose sweep stays under DEFAULT_TERM_CAP), states its
work in its arguments and times it as a cold process (the median of
RUNS fresh `python -m madhava.cli` runs, stdout discarded).  limbs(s)
is the length of a scale-s mantissa in base 10**9 limbs.

The two heaviest vectors are not run: `pi` at the term cap and
`converge` at the --n-max edge take minutes.  Each is timed at two
reduced sizes instead, and its cold time is extrapolated linearly in
terms (pi) or in the summed terms sum(n) (converge), which the table
says.

--quick prints the argument vectors and formulas only and exits 1 when
README's table rows differ from them in those two columns, so the
documented caps cannot drift from the code.  pytest does not collect
this file, as its name does not match test_*.py.
"""

from __future__ import annotations

import argparse
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from madhava.bigfixed import GUARD, LIMB_DIGITS  # noqa: E402
from madhava.pi_series import (  # noqa: E402
    DEFAULT_TERM_CAP,
    SCALE_CAP,
    SERIES_IDS,
    corrections_for,
)
from madhava.trig_series import (  # noqa: E402
    SINE_TABLE_SIZE,
    TRIG_TERM_CAP,
    sin_terms_for,
)

README = ROOT / "README.md"
HEADING = "## Worst admitted cases"
RUNS = 3
# a --sides length of SCALE_CAP digits, shown as S in the table
SIDE = "0." + "7" * (SCALE_CAP - 1)


def limbs(scale: int) -> int:
    return -(-scale // LIMB_DIGITS)


def n_max_edge() -> int:
    """The largest --n-max whose sweep, n_max(n_max+1)/2 terms per
    series and mode, stays within DEFAULT_TERM_CAP."""
    n = 1
    while (n + 1) * (n + 2) // 2 <= DEFAULT_TERM_CAP:
        n += 1
    return n


class Case(NamedTuple):
    argv: tuple[str, ...]
    formula: str
    # two reduced vectors and their sizes, timed in place of argv; the
    # time is extrapolated linearly in size to full_size
    reduced: tuple[tuple[int, tuple[str, ...]], ...] = ()
    full_size: int = 0

    def shown(self) -> str:
        return " ".join(self.argv).replace(SIDE, "S")


def cases() -> list[Case]:
    d, n = str(SCALE_CAP), n_max_edge()
    summed = limbs(SCALE_CAP + GUARD)  # pi and converge terms, at a value's first try
    nested = limbs(SCALE_CAP + GUARD)  # trig eval's series
    series = limbs(SCALE_CAP + 2 * GUARD)  # table, shift and addrule series
    # _sin_cos's count at its working scale, for the table's h (below
    # 0.066 rad) and for the rules' angles (up to pi/2)
    table_terms = sin_terms_for(SCALE_CAP + 2 * GUARD, 66)
    rule_terms = sin_terms_for(SCALE_CAP + 2 * GUARD, 1571)
    modes = sum(len(corrections_for(s)) for s in SERIES_IDS)
    swept = n * (n + 1) // 2

    def pi(terms: int) -> tuple[str, ...]:
        return ("pi", "--series", "aux-c", "--terms", str(terms), "--digits", d)

    def converge(n_max: int) -> tuple[str, ...]:
        return ("converge", "--series", ",".join(SERIES_IDS), "--n-max", str(n_max),
                "--corrections", "all", "--scale", d)

    return [
        Case(pi(DEFAULT_TERM_CAP), f"terms × limbs = {DEFAULT_TERM_CAP} × {summed}",
             ((1000, pi(1000)), (2000, pi(2000))), DEFAULT_TERM_CAP),
        Case(converge(n), f"Σn × modes × limbs = {swept} × {modes} × {summed}",
             ((20 * 21 // 2, converge(20)), (40 * 41 // 2, converge(40))), swept),
        Case(("trig", "eval", "--fn", "sinsq", "--degrees", "180", "--terms", str(TRIG_TERM_CAP),
              "--scale", d), f"terms × limbs² = {TRIG_TERM_CAP} × {nested}²"),
        Case(("trig", "table", "--scale", d),
             f"(steps + 2 × terms) × limbs² = ({SINE_TABLE_SIZE} + 2 × {table_terms}) × {series}²"),
        Case(("trig", "shift", "--fn", "cos", "--u-degrees", "90", "--h", "0.5", "--scale", d),
             f"2 × terms × limbs² = 2 × {rule_terms} × {series}²"),
        Case(("trig", "addrule", "--rule", "cos-diff", "--x-degrees", "89", "--y-degrees", "1",
              "--scale", d), f"4 × terms × limbs² = 4 × {rule_terms} × {series}²"),
        Case(("quad", "radius", "--sides", ",".join([SIDE] * 4), "--scale", d),
             f"4 × limbs(S)² + limbs(2 × scale)² = 4 × {limbs(SCALE_CAP - 1)}² "
             f"+ {limbs(2 * SCALE_CAP)}²"),
        Case(("verify",), "fixed"),
        Case(("chrono", "check"), "fixed"),
    ]


def cold_seconds(argv: tuple[str, ...]) -> float:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "madhava.cli", *argv], cwd=ROOT, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(argv)[:80]} exited {proc.returncode}: {proc.stderr}")
    return statistics.median(times)


def timing(case: Case) -> str:
    if not case.reduced:
        return f"{cold_seconds(case.argv):.2f} s"
    (size1, argv1), (size2, argv2) = case.reduced
    t1, t2 = cold_seconds(argv1), cold_seconds(argv2)
    full = t1 + (t2 - t1) / (size2 - size1) * (case.full_size - size1)
    at = next(i for i, (a, b) in enumerate(zip(argv1, argv2)) if a != b)  # the reduced value
    return (f"≈ {full / 60:.0f} min (extrapolated: {t1:.2f} s at {argv1[at - 1]} {argv1[at]}, "
            f"{t2:.2f} s at {argv2[at]})")


def row(case: Case, time_cell: str) -> str:
    return f"| `{case.shown()}` | {case.formula} | {time_cell} |"


def readme_rows() -> list[str]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADING)
    rows = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("| `"):
            rows.append(line)
    return rows


def columns(line: str) -> str:
    """A table row's argument vector and formula cells."""
    return "|".join(line.split("|")[1:3])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="no timings: print the rows and check README's table")
    args = parser.parse_args()
    if args.quick:
        want = [row(case, "") for case in cases()]
        print("\n".join(want))
        have = readme_rows()
        if [columns(r) for r in have] != [columns(r) for r in want]:
            print(f"README.md's '{HEADING}' table differs in its argv or work column:",
                  *have, sep="\n")
            return 1
        return 0
    print(f"Python {platform.python_version()}, {platform.machine()}, "
          f"medians of {RUNS} cold runs\n")
    print("| worst admitted argv | work | cold time |\n|---|---|---|")
    for case in cases():
        print(row(case, timing(case)), flush=True)
    print(f"\nS = {SIDE[:6]}… ({SCALE_CAP} digits)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
