"""Standing mutants that the tests must kill.

    python tests/mutants.py

Each entry names a source file under src/madhava, an exact snippet that
occurs there once, its replacement, and the test files that must catch
it.  For each mutant the script copies src/ to a temporary directory,
applies the replacement in the copy, and runs pytest on those files with
PYTHONPATH on the copy; a mutant is killed when a test fails.  First it
runs the same files on an unmutated copy, which must pass.

The script exits 1 if a snippet no longer occurs exactly once (a
refactor must update its entry), if the unmutated copy fails, or if a
mutant survives.  A survivor means a test is missing: add the test,
never drop or weaken the mutant.  pytest does not collect this file, as
its name does not match test_*.py.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "madhava"

BIGFIXED = "tests/test_bigfixed.py"
PI_SERIES = "tests/test_pi_series.py"
TRIG = "tests/test_trig_series.py"
TRIG_ORACLE = "tests/test_trig_oracle.py"
CLI = "tests/test_cli.py"
GEOMETRY = "tests/test_geometry.py"
GUARD = "tests/test_guard.py"


class Mutant(NamedTuple):
    name: str
    source: str  # file name under src/madhava
    snippet: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # limb arithmetic
    Mutant("add-carry-tail", "bigfixed.py",
           "    while carry and i < len(a):", "    while False:", (BIGFIXED,)),
    Mutant("sub-borrow-tail", "bigfixed.py",
           "    while borrow:", "    while False:", (BIGFIXED,)),
    Mutant("floor-int-truncates", "bigfixed.py",
           "return a.sign * a.mantissa.to_int() // 10**a.scale",
           "return a.sign * (a.mantissa.to_int() // 10**a.scale)", (BIGFIXED,)),
    Mutant("round-half-low", "bigfixed.py",
           "half = BigNat.from_int(5 * 10 ** (drop - 1))",
           "half = BigNat.from_int(4 * 10 ** (drop - 1))", (BIGFIXED,)),
    Mutant("decimal-prefix-match", "bigfixed.py",
           "_FD_PATTERN.fullmatch(s)", "_FD_PATTERN.match(s)", (BIGFIXED,)),
    # the settle rule: its callers' tests must catch these, not only its own
    Mutant("settled-one-ulp-apart", "bigfixed.py",
           "return low if low == high else None",
           "return low if abs(fd_sub(high, low)) <= FixedDec(1, 1, scale) else None",
           (PI_SERIES, TRIG_ORACLE, GUARD)),
    Mutant("settled-reads-lo", "bigfixed.py",
           "low, high = rounding(lo, scale), rounding(hi, scale)",
           "low, high = rounding(lo, scale), rounding(lo, scale)", (PI_SERIES, TRIG_ORACLE, GUARD)),
    # series kernels
    Mutant("pending-never-resets", "pi_series.py",
           "            scaled //= BigNat.from_int(pending)\n            pending = 1\n",
           "            scaled //= BigNat.from_int(pending)\n", (PI_SERIES,)),
    Mutant("fold-past-one-limb", "pi_series.py",
           "if pending > 1 and den * pending >= BASE:",
           "if pending > 1 and den * pending >= BASE * BASE:", (PI_SERIES,)),
    Mutant("terms-for-digits-not-strict", "pi_series.py",
           "return series.multiplier * (num * p) ** power < den**power",
           "return series.multiplier * (num * p) ** power <= den**power", (PI_SERIES,)),
    Mutant("pi-bracket-unchecked", "pi_series.py",
           "pi = settled(*ends, scale)", "pi = ends[0]", (PI_SERIES,)),
    Mutant("correction-sign-flipped", "pi_series.py",
           "s = fd_add(partial, corr if n % 2 == 0 else -corr)",
           "s = fd_add(partial, -corr if n % 2 == 0 else corr)", (PI_SERIES,)),
    Mutant("odd-power-sign-flipped", "pi_series.py",
           "acc = fd_add(acc, -term if k % 2 else term)",
           "acc = fd_add(acc, term if k % 2 else -term)", (PI_SERIES,)),
    Mutant("evaluate-digits-no-guard", "pi_series.py",
           "evaluate(SeriesSpec(series_id, terms, correction, digits + BOUND_DIGITS))",
           "evaluate(SeriesSpec(series_id, terms, correction, digits))", (PI_SERIES,)),
    Mutant("corrections-for-every-series", "pi_series.py",
           "return CORRECTIONS if series_id == LEIBNIZ else (NO_CORRECTION,)",
           "return CORRECTIONS", (PI_SERIES, CLI)),
    # trig
    Mutant("domain-slack-narrowed", "trig_series.py",
           "slack = FixedDec(1, 2, limit.scale)", "slack = FixedDec(1, 1, limit.scale)", (TRIG,)),
    Mutant("reduce-angle-truncates", "trig_series.py",
           "k = shifted.sign * shifted.mantissa.to_int() // two_pi.mantissa.to_int()",
           "k = shifted.sign * (shifted.mantissa.to_int() // two_pi.mantissa.to_int())",
           (TRIG,)),
    Mutant("for-scale-no-guard", "trig_series.py",
           "return cls.from_degrees(degrees, scale + ANGLE_DIGITS)",
           "return cls.from_degrees(degrees, scale)", (TRIG,)),
    Mutant("recurrence-factor-one", "trig_series.py",
           "fd_mul(FixedDec.from_int(2), cos_series(h, terms + 1, ws))",
           "fd_mul(FixedDec.from_int(1), cos_series(h, terms + 1, ws))", (TRIG,)),
    Mutant("table-cos-sine-count", "trig_series.py",
           "cos_series(h, terms + 1, ws)", "cos_series(h, terms, ws)", (GUARD,)),
    Mutant("drift-margin-linear", "trig_series.py",
           "return 3 * k * k", "return 3 * k", (TRIG_ORACLE,)),
    Mutant("tie-fallback-never", "trig_series.py",
           "FixedDec(1, _drift_ulp(k), value.scale)", "FixedDec(1, 0 * _drift_ulp(k), value.scale)",
           (TRIG_ORACLE,)),
    Mutant("full-domain-half-pi", "trig_series.py",
           "sin_terms_for(digits, 3142)", "sin_terms_for(digits, 1571)", (TRIG_ORACLE, CLI)),
    Mutant("table-step-four-degrees", "trig_series.py",
           "fd_from_ratio(15 * k, 4, 1, 2)", "fd_from_ratio(16 * k, 4, 1, 2)", (TRIG_ORACLE,)),
    # geometry
    Mutant("bracket-admits-one-ulp", "geometry.py",
           "br * 10**scale <= 10**e", "br * 10**scale < 10**e", (GEOMETRY,)),
    Mutant("radius-squared-units-once", "geometry.py",
           "den * 10 ** (2 * e)", "den * 10**e", (GEOMETRY,)),
    Mutant("zero-side-admitted", "geometry.py",
           "if any(s <= 0 for s in sides):", "if any(s < 0 for s in sides):", (GEOMETRY,)),
    # command line
    Mutant("converge-cap-raised", "cli.py",
           "if terms > DEFAULT_TERM_CAP:", "if terms > DEFAULT_TERM_CAP + 1000:", (CLI,)),
    Mutant("verify-angle-narrowed", "cli.py",
           "Angle.for_scale(table_degrees(k), 20)", "Angle.for_scale(table_degrees(k), 10)",
           (TRIG_ORACLE,)),
)


def pytest_exit(src: Path, tests: tuple[str, ...]) -> tuple[int, str]:
    """pytest's exit code and output for the test files, importing
    madhava from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def copy_src(tmp: Path, name: str) -> Path:
    src = tmp / name / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    stale = [m.name for m in MUTANTS
             if (ROOT / PACKAGE / m.source).read_text(encoding="utf-8").count(m.snippet) != 1]
    if stale:
        print(f"snippet not found exactly once: {', '.join(stale)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="madhava-mutants-") as tmp:
        src = copy_src(Path(tmp), "unmutated")
        probe = subprocess.run([sys.executable, "-c", "import madhava; print(madhava.__file__)"],
                               cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(src)),
                               capture_output=True, text=True)
        if not probe.stdout.startswith(str(src)):
            print(f"madhava does not import from the copy: {probe.stdout}{probe.stderr}")
            return 1
        files = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
        code, out = pytest_exit(src, files)
        if code != 0:
            print(f"the unmutated copy fails {' '.join(files)}:\n{out}")
            return 1
        survivors = []
        for m in MUTANTS:
            start = time.perf_counter()
            src = copy_src(Path(tmp), m.name)
            path = src / "madhava" / m.source
            path.write_text(path.read_text(encoding="utf-8").replace(m.snippet, m.replacement),
                            encoding="utf-8")
            code, out = pytest_exit(src, m.tests)
            verdict = {0: "SURVIVED", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{m.name:32} {verdict:10} {time.perf_counter() - start:5.1f} s", flush=True)
            if code != 1:
                survivors.append(m.name)
                if code != 0:
                    print(out)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
