"""Standing mutants that the tests must kill.

    python tests/mutants.py

Each entry names a source file under src/madhava, an exact snippet that
occurs there once, its replacement, and the test files that must catch
it.  For each mutant the script copies src/ to a temporary directory,
applies the replacement in the copy, and runs pytest on those files with
PYTHONPATH on the copy; a mutant is killed when a test fails.  First it
runs the same files on an unmutated copy, which must pass.

Each pytest run is stopped after TIMEOUT_S seconds, and a mutant that
makes a test hang counts as not killed, so a hang fails the script
instead of stalling it.  The script exits 1 if a snippet no longer
occurs exactly once (a refactor must update its entry), if the
unmutated copy fails, or if a mutant survives.  A survivor means a test
is missing: add the test, never drop or weaken the mutant.  pytest does
not collect this file, as its name does not match test_*.py.
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
TIMEOUT_S = 600

BIGFIXED = "tests/test_bigfixed.py"
PI_SERIES = "tests/test_pi_series.py"
TRIG = "tests/test_trig_series.py"
TRIG_ORACLE = "tests/test_trig_oracle.py"
CLI = "tests/test_cli.py"
CLI_GOLDEN = "tests/test_cli_golden.py"
GEOMETRY = "tests/test_geometry.py"
GUARD = "tests/test_guard.py"
CHRONOLOGY = "tests/test_chronology.py"


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
    Mutant("divmod-two-limbs-small", "bigfixed.py",
           "if len(other.limbs) == 1:", "if len(other.limbs) <= 2:", (BIGFIXED,)),
    # the one int view: a comparison aligns through its raising branch
    Mutant("compare-unaligned", "bigfixed.py",
           "a.sign * a.mantissa.to_int() * 10 ** (scale - a.scale)", "a.sign * a.mantissa.to_int()",
           (BIGFIXED,)),
    Mutant("to-int-floors-negatives", "bigfixed.py",
           "return a.sign * (a.mantissa.to_int() // 10 ** (a.scale - scale))",
           "return a.sign * a.mantissa.to_int() // 10 ** (a.scale - scale)", (BIGFIXED,)),
    Mutant("decimal-prefix-match", "bigfixed.py",
           "_FD_PATTERN.fullmatch(s)", "_FD_PATTERN.match(s)", (BIGFIXED,)),
    # the settle rule: its callers' tests must catch these, not only its own
    Mutant("settled-one-ulp-apart", "bigfixed.py",
           "if low == high:", "if abs(high - low) <= 1:", (PI_SERIES, TRIG_ORACLE, GUARD)),
    Mutant("settled-reads-lo", "bigfixed.py",
           "low, high = (end // 10 ** (ws - scale) for end in bracket(ws))",
           "low, high = [bracket(ws)[0] // 10 ** (ws - scale)] * 2",
           (PI_SERIES, TRIG_ORACLE, GUARD)),
    # the widening driver: its own tests stop a step-0 driver, which never ends
    Mutant("widen-step-zero", "bigfixed.py", "ws += GUARD", "ws += 0", (BIGFIXED,)),
    # series kernels
    Mutant("pending-never-resets", "pi_series.py",
           "            scaled //= BigNat.from_int(pending)\n            pending = 1\n",
           "            scaled //= BigNat.from_int(pending)\n", (PI_SERIES,)),
    Mutant("fold-past-one-limb", "pi_series.py",
           "if pending > 1 and den * pending >= BASE:",
           "if pending > 1 and den * pending >= BASE * BASE:", (PI_SERIES,)),
    Mutant("terms-for-digits-not-strict", "pi_series.py",
           "_floor_times_m(series, *series.tail_bound(n), digits) == 0",
           "_floor_times_m(series, *series.tail_bound(n), digits) <= 1", (PI_SERIES,)),
    Mutant("pi-bracket-unchecked", "pi_series.py",
           "ends = (num, den), (num * t_den + (-1) ** n * t_num * den, den * t_den)",
           "ends = (num, den), (num, den)", (PI_SERIES,)),
    Mutant("split-join-drops-ratio", "pi_series.py",
           "t1 * d2 * q2 + t2 * d1", "t1 * d2 + t2 * d1", (PI_SERIES,)),
    Mutant("correction-sign-flipped", "pi_series.py",
           "corr if n % 2 == 0 else -corr)", "-corr if n % 2 == 0 else corr)", (PI_SERIES,)),
    # the rounded circumference floors a bracket shifted half a unit up
    Mutant("circumference-floors", "pi_series.py", "10**ws // 2", "0", (PI_SERIES,)),
    Mutant("value-drift-zero", "pi_series.py",
           "drift = _ceil_multiplier(SERIES[series_id], 0) * (terms + 2) + 2", "drift = 0",
           (PI_SERIES,)),
    # never reading the exact floor hangs on a terminating value; the
    # straddle test stops it first
    Mutant("fallback-never", "pi_series.py",
           "if ws > digits + 2 * GUARD:", "if False:", (PI_SERIES,)),
    # the printed bound is taken BOUND_DIGITS past the printed digits
    Mutant("bound-at-printed-digits", "pi_series.py",
           "scale = digits + BOUND_DIGITS", "scale = digits", (CLI_GOLDEN,)),
    Mutant("evaluate-admits-any-correction", "pi_series.py",
           "    if correction not in corrections_for(series_id):\n"
           "        raise ValueError(\"corrections apply to the leibniz series only\")\n",
           "", (PI_SERIES,)),
    Mutant("corrections-for-every-series", "pi_series.py",
           "return CORRECTIONS if series_id == LEIBNIZ else (NO_CORRECTION,)",
           "return CORRECTIONS", (PI_SERIES, CLI)),
    # trig
    Mutant("coefficient-sign-constant", "trig_series.py",
           "FixedDec((-1) ** k, num * one // den, ws)", "FixedDec(1, num * one // den, ws)",
           (TRIG,)),
    Mutant("sin-sq-times-theta", "trig_series.py",
           "acc = fd_mul(acc, x)", "acc = fd_mul(acc, th)", (TRIG,)),
    Mutant("domain-slack-narrowed", "trig_series.py",
           "slack = FixedDec(1, 2, limit.scale)", "slack = FixedDec(1, 1, limit.scale)", (TRIG,)),
    Mutant("for-scale-no-guard", "trig_series.py",
           "ws = scale + ANGLE_DIGITS", "ws = scale", (TRIG,)),
    Mutant("recurrence-factor-one", "trig_series.py",
           "two_cos_h, one = 2 * cos_h, 10**ws", "two_cos_h, one = 1 * cos_h, 10**ws", (TRIG,)),
    Mutant("table-cos-sine-count", "trig_series.py",
           "for k in range(terms, 0, -1):", "for k in range(terms - 1, 0, -1):", (GUARD, TRIG)),
    Mutant("pair-sine-divisor-cosine", "trig_series.py",
           "2 * k * (2 * k + 1) * one", "2 * k * (2 * k - 1) * one", (TRIG,)),
    Mutant("eval-cos-sine-count", "trig_series.py",
           "sin_terms_for(digits, 3142) + (fn == COS)", "sin_terms_for(digits, 3142)", (TRIG,)),
    Mutant("shift-h-truncated", "trig_series.py",
           "if abs(h) > FixedDec(1, 5, 1):", "if abs(fd_rescale(h, ws)) > FixedDec(1, 5, 1):",
           (CLI,)),
    Mutant("drift-margin-linear", "trig_series.py",
           "return 3 * k * k", "return 3 * k", (TRIG_ORACLE,)),
    Mutant("tie-fallback-never", "trig_series.py",
           "drift = value + 5 * 10 ** (ws - scale - 1), _drift_ulp(k)",
           "drift = value + 5 * 10 ** (ws - scale - 1), 0 * _drift_ulp(k)", (TRIG_ORACLE,)),
    # the table's bracket sits half an ulp up, so its floor rounds half away
    Mutant("table-half-low", "trig_series.py",
           "value + 5 * 10 ** (ws - scale - 1)", "value + 4 * 10 ** (ws - scale - 1)",
           (TRIG, TRIG_ORACLE)),
    Mutant("full-domain-half-pi", "trig_series.py",
           "sin_terms_for(digits, 3142)", "sin_terms_for(digits, 1571)", (TRIG_ORACLE, CLI)),
    Mutant("table-step-four-degrees", "trig_series.py",
           "fd_from_ratio(15 * k, 4, 2)", "fd_from_ratio(16 * k, 4, 2)", (TRIG_ORACLE,)),
    # geometry
    Mutant("bracket-admits-one-ulp", "geometry.py",
           "br * 10**scale <= 10**e", "br * 10**scale < 10**e", (GEOMETRY,)),
    Mutant("radius-squared-units-once", "geometry.py",
           "den * 10 ** (2 * e)", "den * 10**e", (GEOMETRY,)),
    Mutant("zero-side-admitted", "geometry.py",
           "if any(s <= 0 for s in sides):", "if any(s < 0 for s in sides):", (GEOMETRY,)),
    # chronology
    Mutant("kali-day-admits-negative", "chronology.py",
           "if kali_day.sign < 0:", "if False:", (CHRONOLOGY,)),
    # command line
    Mutant("converge-cap-raised", "cli.py",
           "if terms > DEFAULT_TERM_CAP:", "if terms > DEFAULT_TERM_CAP + 1000:", (CLI,)),
    # the hierarchy must compare every mode, F3 included
    Mutant("hierarchy-skips-f3", "cli.py",
           "for mode in CORRECTIONS]", "for mode in CORRECTIONS[:-1]]", (CLI,)),
    Mutant("verify-passes-if-any", "cli.py",
           "passed = all(c.passed for c in checks)", "passed = any(c.passed for c in checks)",
           (CLI,)),
    Mutant("odd-power-sign-flipped", "cli.py",
           "acc += -term if k % 2 else term", "acc += term if k % 2 else -term", (CLI,)),
    Mutant("verify-angle-narrowed", "cli.py",
           "theta_t(table_degrees(k), 20)", "theta_t(table_degrees(k), 10)", (TRIG_ORACLE,)),
    # the process entry point freezes the start-up heap; main reuses one parser
    Mutant("freeze-never", "cli.py",
           "    gc.freeze()  # the start-up heap lives until exit; no collection need walk it\n",
           "", (CLI,)),
    Mutant("parser-per-call", "cli.py",
           "args = _shared_parser().parse_args(argv)", "args = build_parser().parse_args(argv)",
           (CLI,)),
)


def pytest_exit(src: Path, tests: tuple[str, ...]) -> tuple[int | None, str]:
    """pytest's exit code and output for the test files, importing
    madhava from src; None when the run timed out."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"pytest ran past the {TIMEOUT_S} s timeout"
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
            verdict = {0: "SURVIVED", 1: "killed", None: "TIMED OUT"}.get(
                code, f"error (pytest exit {code})")
            print(f"{m.name:32} {verdict:10} {time.perf_counter() - start:5.1f} s", flush=True)
            if code != 1:
                survivors.append(m.name)
                if code != 0:
                    print(out)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
