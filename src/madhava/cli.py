"""Command-line surface.

Subcommands:

* ``pi``        evaluate one pi series (with optional end-correction)
* ``verify``    run the desk-verifiable reproduction checks
* ``converge``  CSV sweep of series values and absolute errors vs n
* ``trig``      eval | table | shift | addrule
* ``quad``      radius of a cyclic quadrilateral from its sides
* ``chrono``    the kali-day epoch check

Every number printed anywhere comes from fd_to_string, so output is a
pure function of the argument vector: identical invocations produce
byte-identical bytes.  Exit codes: 0 success, 1 verification failure,
2 usage error, 141 (128 + SIGPIPE) when the reader of stdout closes it
early, as ``| head`` does.

Each leaf subparser in build_parser attaches its handler with
``set_defaults(run=cmd_x, parser=p)`` and main calls ``args.run(args)``;
a handler refuses through ``args.parser``, its own subcommand's, so the
usage line printed is that subcommand's.  Decimal arguments arrive
parsed, as FixedDec of at most SCALE_CAP digits.

main builds the parser on its first call and reuses it on every later
call in the process, so a caller that runs many commands in one process
builds it once; parsing leaves no state in it.  build_parser still
returns a new parser on each call.

run, the process entry point (``python -m madhava.cli`` and the
``madhava`` script), calls gc.freeze() before main: the start-up heap
(the interpreter, site, argparse and madhava's modules) moves to the
collector's permanent generation, so neither the command's full
collections nor the interpreter's collections at exit walk it again.
Importing this module freezes nothing, so test runners, warm workers
and library callers keep an ordinary collector.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from math import factorial
from typing import NamedTuple

from .bigfixed import FixedDec, fd_from_string, fd_rescale, fd_sub, fd_to_int, fd_to_string
from .chronology import venvaroha_epoch_check
from .geometry import circumradius
from .pi_series import (
    CORRECTIONS,
    DEFAULT_TERM_CAP,
    LEIBNIZ,
    MADHAVA_CIRCUMFERENCE,
    NO_CORRECTION,
    SCALE_CAP,
    SERIES_IDS,
    TermCountError,
    circumference_check,
    corrections_for,
    error_bound,
    evaluate,
    exact_floor,
    madhava_pi_value,
    pi_reference,
)
from .trig_series import (
    ADDITION_RULES,
    TRIG_TERM_CAP,
    angle_add,
    build_sine_table,
    cos_series,
    full_domain_terms,
    sin_series,
    sin_sq_series,
    table_degrees,
    taylor_shift,
    theta_t,
)

DEFAULT_SCALE = 20
DEFAULT_DIGITS = 20
DEFAULT_TABLE_SCALE = 10


class VerifyCheck(NamedTuple):
    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool


# ---------------------------------------------------------------------------
# verify checks
# ---------------------------------------------------------------------------

def _check_pi_fraction() -> VerifyCheck:
    got = fd_to_string(madhava_pi_value(10))
    digit_11 = fd_to_string(madhava_pi_value(11))[-1]
    pi_11 = fd_to_string(pi_reference(11))[-1]
    ok = got == "3.1415926535" and digit_11 != pi_11
    return VerifyCheck(
        name="madhava_pi_10_decimals",
        expected="3.1415926535 with 11th decimal differing from pi",
        computed=f"{got} (11th decimal {digit_11} vs pi {pi_11})",
        tolerance="exact",
        passed=ok,
    )


def _check_circumference() -> VerifyCheck:
    computed = circumference_check()
    delta = MADHAVA_CIRCUMFERENCE - computed
    return VerifyCheck(
        name="circumference_delta",
        expected="madhava 2827433388233, computed 2827433388231, delta 2",
        computed=f"madhava {MADHAVA_CIRCUMFERENCE}, computed {computed}, delta {delta}",
        tolerance="exact",
        passed=computed == 2_827_433_388_231 and delta == 2,
    )


def _check_epoch() -> VerifyCheck:
    rep = venvaroha_epoch_check()
    return VerifyCheck(
        name="venvaroha_epoch",
        expected="1402-03-10 within 2 days",
        computed=str(rep.date),
        tolerance="2 days",
        passed=rep.matches_paper,
    )


def _sine_sum(x: FixedDec, terms: int, scale: int) -> FixedDec:
    """sum_{k < terms} (-1)**k * x**(2k+1) / (2k+1)!, term by term, each
    power and each quotient of |x| floored at scale and the sign of x
    applied at the end: a plain int loop that shares no code with
    trig_series._power_series, which nests."""
    unit = 10**scale
    power = abs(fd_to_int(x, scale))
    x2 = power * power // unit
    acc = 0
    for k in range(terms):
        term = power // factorial(2 * k + 1)
        acc += -term if k % 2 else term
        power = power * x2 // unit
    return FixedDec(-x.sign if acc < 0 else x.sign, abs(acc), scale)


def _check_sine_table() -> VerifyCheck:
    tol = FixedDec(1, 1, 8)  # 1e-8
    deviations = []
    for k, value in build_sine_table(DEFAULT_TABLE_SCALE):
        radians = theta_t(table_degrees(k), 20)
        independent = _sine_sum(radians, 15, 20)
        deviations.append(abs(fd_sub(fd_rescale(value, 20), independent)))
    worst = max(deviations)
    return VerifyCheck(
        name="sine_table_8_digits",
        expected="all 24 entries within 0.00000001 of a 15-term scale-20 evaluation",
        computed=f"max deviation {fd_to_string(worst)}",
        tolerance="0.00000001",
        passed=worst <= fd_rescale(tol, 20),
    )


def _check_hierarchy() -> VerifyCheck:
    """The F1-F3 errors against pi, on the exact floors at scale 40 that
    ``converge --scale 40 --corrections all`` prints: no truncated sum."""
    scale = 40
    pi_ref = fd_to_int(pi_reference(scale), scale)
    first_violation = None
    for n in range(2, 51):
        errs = [abs(exact_floor(LEIBNIZ, n, mode, scale) - pi_ref) for mode in CORRECTIONS]
        if not all(later < earlier for earlier, later in zip(errs, errs[1:])):
            first_violation = n
            break
    return VerifyCheck(
        name="correction_hierarchy",
        expected="err(F3) < err(F2) < err(F1) < err(none) for every n in 2..50",
        computed=("holds for n=2..50" if first_violation is None
                  else f"violated at n={first_violation}"),
        tolerance="strict inequality",
        passed=first_violation is None,
    )


def build_verify_report() -> tuple[VerifyCheck, ...]:
    return (
        _check_pi_fraction(),
        _check_circumference(),
        _check_epoch(),
        _check_sine_table(),
        _check_hierarchy(),
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_pi(args) -> int:
    if args.correction not in corrections_for(args.series):
        args.parser.error("--correction applies to the leibniz series only")
    value = fd_to_string(evaluate(args.series, args.terms, args.correction, args.digits))
    bound = error_bound(args.series, args.terms, args.correction, args.digits)
    bound = None if bound is None else fd_to_string(bound)
    if args.format == "json":
        import json

        payload = {
            "series": args.series,
            "correction": args.correction,
            "terms": args.terms,
            "digits": args.digits,
            "value": value,
            "error_bound": bound,
        }
        print(json.dumps(payload))
    else:
        print(value)
        if bound is not None:
            print(f"error-bound {bound}")
    return 0


def cmd_verify(args) -> int:
    checks = build_verify_report()
    passed = all(c.passed for c in checks)
    if args.format == "json":
        import json

        payload = {
            "checks": [
                {"name": c.name, "expected": c.expected, "computed": c.computed,
                 "tolerance": c.tolerance, "pass": c.passed}
                for c in checks
            ],
            "overall_pass": passed,
        }
        print(json.dumps(payload, indent=2))
    else:
        for c in checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: {c.computed} (expected: {c.expected}; tolerance: {c.tolerance})")
        print(f"overall: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _converge_rows(series_list, n_max, corrections, scale):
    pi_ref = pi_reference(scale)
    for series_id in series_list:
        modes = corrections_for(series_id) if corrections == "all" else (NO_CORRECTION,)
        for mode in modes:
            for n in range(1, n_max + 1):
                out = evaluate(series_id, n, mode, scale)
                err = abs(fd_sub(out, pi_ref))
                yield f"{series_id},{mode},{n},{fd_to_string(out)},{fd_to_string(err)}"


def cmd_converge(args) -> int:
    series_list = [s.strip() for s in args.series.split(",") if s.strip()]
    if not series_list:
        args.parser.error("--series needs at least one series id")
    for s in series_list:
        if s not in SERIES_IDS:
            args.parser.error(f"unknown series id {s!r}")
    if args.n_max < 1:
        args.parser.error("--n-max must be >= 1")
    terms = args.n_max * (args.n_max + 1) // 2  # per series and mode: n terms for each n
    if terms > DEFAULT_TERM_CAP:
        raise TermCountError(f"--n-max {args.n_max} sums {terms} terms per series, "
                             f"above the term cap of {DEFAULT_TERM_CAP}")
    print("series,correction,n,value,abs_error")
    for line in _converge_rows(series_list, args.n_max, args.corrections, args.scale):
        print(line)
    return 0


def cmd_trig_eval(args) -> int:
    angle = args.radians if args.degrees is None else theta_t(args.degrees, args.scale)
    terms = args.terms if args.terms else full_domain_terms(args.scale, args.fn)
    fn = {"sin": sin_series, "cos": cos_series, "sinsq": sin_sq_series}[args.fn]
    print(fd_to_string(fn(angle, terms, args.scale)))
    return 0


def cmd_trig_table(args) -> int:
    table = build_sine_table(args.scale)  # refuses a scale below 10 before any output
    print("k,degrees,sin")
    for k, value in table:
        print(f"{k},{fd_to_string(table_degrees(k))},{fd_to_string(value)}")
    return 0


def cmd_trig_shift(args) -> int:
    u = theta_t(args.u_degrees, args.scale)
    print(fd_to_string(taylor_shift(u, args.h, args.fn, args.scale)))
    return 0


def cmd_trig_addrule(args) -> int:
    x = theta_t(args.x_degrees, args.scale)
    y = theta_t(args.y_degrees, args.scale)
    print(fd_to_string(angle_add(x, y, args.rule, args.scale)))
    return 0


def cmd_quad_radius(args) -> int:
    try:
        print(fd_to_string(circumradius(args.sides, args.scale)))
    except ValueError as exc:  # also NotCyclicError
        args.parser.error(str(exc))
    return 0


def cmd_chrono_check(args) -> int:
    rep = venvaroha_epoch_check()
    if args.format == "json":
        import json

        payload = {
            "jd": fd_to_string(rep.jd),
            "date": str(rep.date),
            "matches_paper": rep.matches_paper,
        }
        print(json.dumps(payload))
    else:
        print(f"jd {fd_to_string(rep.jd)}")
        print(f"date {rep.date}")
        print(f"matches_paper {str(rep.matches_paper).lower()}")
    return 0 if rep.matches_paper else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="output format (default: text)")


def _ascii_int(text: str) -> int:
    """argparse type: an int in ASCII digits only; int() would also take
    a sign, spaces, underscores and the digits of other scripts."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    try:
        return int(text)
    except ValueError:  # more digits than int() converts from a string
        raise argparse.ArgumentTypeError(f"int value of {len(text)} digits is too long") from None


def _int_upto(cap: int):
    """argparse type: an ASCII-digit int in 0..cap."""
    def parse(text: str) -> int:
        value = _ascii_int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is outside 0..{cap}")
        return value
    return parse


# for --scale and --digits
_digit_count = _int_upto(SCALE_CAP)


def _decimal(text: str) -> FixedDec:
    """argparse type: a decimal [+-]digits[.digits] of at most SCALE_CAP
    digits, so no input costs more than the largest admitted scale."""
    if sum("0" <= ch <= "9" for ch in text) > SCALE_CAP:
        raise argparse.ArgumentTypeError(f"decimal value has more than {SCALE_CAP} digits")
    try:
        return fd_from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid decimal value: {text!r}") from None


def _sides(text: str) -> tuple[FixedDec, ...]:
    """argparse type: four comma-separated decimals."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("needs four comma-separated lengths")
    return tuple(_decimal(p.strip()) for p in parts)


def _add_scale(p, default=DEFAULT_SCALE):
    p.add_argument("--scale", type=_digit_count, default=default,
                   help=f"decimal digits of working precision (default: {default})")


def _leaf(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """A subcommand that main dispatches to run(args); args.parser is
    this subcommand's own, so a refusal prints its usage line."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run, parser=p)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madhava",
        description="Pi series, sine tables and cyclic-quadrilateral geometry "
                    "in exact scaled-decimal arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pi = _leaf(sub, "pi", cmd_pi, "evaluate one pi series")
    p_pi.add_argument("--series", choices=SERIES_IDS, required=True)
    p_pi.add_argument("--terms", type=_ascii_int, required=True, help="number of series terms")
    p_pi.add_argument("--correction", choices=CORRECTIONS, default=NO_CORRECTION,
                      help="end-correction, leibniz only (default: none)")
    p_pi.add_argument("--digits", type=_digit_count, default=DEFAULT_DIGITS,
                      help=f"fractional digits to print (default: {DEFAULT_DIGITS})")
    _add_format(p_pi)

    _add_format(_leaf(sub, "verify", cmd_verify, "run the reproduction checks"))

    p_conv = _leaf(sub, "converge", cmd_converge, "CSV convergence sweep")
    p_conv.add_argument("--series", required=True,
                        help="comma-separated series ids, e.g. leibniz,sqrt12")
    p_conv.add_argument("--n-max", type=_ascii_int, required=True, dest="n_max")
    p_conv.add_argument("--corrections", choices=("none", "all"), default="none",
                        help="also sweep f1/f2/f3 for leibniz (default: none)")
    _add_scale(p_conv)

    p_trig = sub.add_parser("trig", help="sine/cosine series operations")
    trig_sub = p_trig.add_subparsers(dest="trig_command", required=True)

    p_eval = _leaf(trig_sub, "eval", cmd_trig_eval, "evaluate sin, cos or sin^2")
    p_eval.add_argument("--fn", choices=("sin", "cos", "sinsq"), required=True)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--degrees", type=_decimal)
    group.add_argument("--radians", type=_decimal)
    p_eval.add_argument("--terms", type=_int_upto(TRIG_TERM_CAP), default=0,
                        help="series terms, at most "
                             f"{TRIG_TERM_CAP} (default: from the accuracy bound)")
    _add_scale(p_eval)

    _add_scale(_leaf(trig_sub, "table", cmd_trig_table, "the 24-entry sine table"),
               DEFAULT_TABLE_SCALE)

    p_shift = _leaf(trig_sub, "shift", cmd_trig_shift, "second-order shift formula")
    p_shift.add_argument("--fn", choices=("sin", "cos"), required=True)
    p_shift.add_argument("--u-degrees", type=_decimal, required=True, dest="u_degrees")
    p_shift.add_argument("--h", type=_decimal, required=True, help="shift in radians, |h| <= 0.5")
    _add_scale(p_shift)

    p_add = _leaf(trig_sub, "addrule", cmd_trig_addrule, "angle addition/subtraction rules")
    p_add.add_argument("--rule", choices=ADDITION_RULES, required=True)
    p_add.add_argument("--x-degrees", type=_decimal, required=True, dest="x_degrees")
    p_add.add_argument("--y-degrees", type=_decimal, required=True, dest="y_degrees")
    _add_scale(p_add)

    p_quad = sub.add_parser("quad", help="cyclic quadrilateral geometry")
    quad_sub = p_quad.add_subparsers(dest="quad_command", required=True)
    p_radius = _leaf(quad_sub, "radius", cmd_quad_radius, "circumradius from four sides")
    p_radius.add_argument("--sides", type=_sides, required=True,
                          help="four comma-separated lengths")
    _add_scale(p_radius)

    p_chrono = sub.add_parser("chrono", help="kali-day chronology")
    chrono_sub = p_chrono.add_subparsers(dest="chrono_command", required=True)
    _add_format(_leaf(chrono_sub, "check", cmd_chrono_check, "the epoch date check"))

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    gc.freeze()  # the start-up heap lives until exit; no collection need walk it
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe must fail here, inside the try
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; point it at devnull
        # so that flush cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    run()
