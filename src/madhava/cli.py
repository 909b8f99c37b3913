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
``set_defaults(run=cmd_x)`` and main calls ``args.run(args, parser)``;
decimal arguments arrive parsed, as FixedDec of at most SCALE_CAP digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import factorial
from typing import NamedTuple

from .bigfixed import (
    FixedDec,
    fd_from_ratio,
    fd_from_string,
    fd_rescale,
    fd_sub,
    fd_to_string,
)
from .chronology import venvaroha_epoch_check
from .geometry import QuadSides, circumradius
from .pi_series import (
    CORRECTIONS,
    DEFAULT_TERM_CAP,
    GUARD,
    LEIBNIZ,
    NO_CORRECTION,
    SCALE_CAP,
    SERIES_IDS,
    SeriesSpec,
    TermCountError,
    circumference_check,
    evaluate,
    leibniz_sweep,
    madhava_pi_value,
    odd_power_series,
    pi_reference,
)
from .trig_series import (
    ADDITION_RULES,
    Angle,
    angle_add,
    build_sine_table,
    cos_series,
    sin_series,
    sin_sq_series,
    sin_terms_for,
    taylor_shift_cos,
    taylor_shift_sin,
)

DEFAULT_SCALE = 20
DEFAULT_DIGITS = 20
DEFAULT_TABLE_SCALE = 10
# sin_terms_for(SCALE_CAP + GUARD, 3142): the most sine terms any admitted
# scale needs on |theta| <= pi.  Stored, so that no process pays for the
# search at import; tests/test_cli.py checks the two agree.
TRIG_TERM_CAP = 488


class VerifyCheck(NamedTuple):
    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool


class VerifyReport(NamedTuple):
    checks: tuple[VerifyCheck, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


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
    rep = circumference_check(DEFAULT_SCALE)
    ok = (rep.madhava.to_int() == 2_827_433_388_233
          and rep.computed.to_int() == 2_827_433_388_231
          and rep.delta == 2)
    return VerifyCheck(
        name="circumference_delta",
        expected="madhava 2827433388233, computed 2827433388231, delta 2",
        computed=f"madhava {rep.madhava}, computed {rep.computed}, delta {rep.delta}",
        tolerance="exact",
        passed=ok,
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


def _check_sine_table() -> VerifyCheck:
    table = build_sine_table(DEFAULT_TABLE_SCALE)
    tol = FixedDec(1, 1, 8)  # 1e-8
    deviations = []
    for k, value in table.entries:
        degrees = fd_from_ratio(15 * k, 4, 1, 22)
        # plain term-by-term sum: shares no code with the nested evaluator
        radians = Angle.from_degrees(degrees, 30).radians
        independent = odd_power_series(radians, 15, 20, lambda j: factorial(2 * j + 1))
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
    scale = 40
    pi_ref = pi_reference(scale)
    first_violation = None
    for n, values in leibniz_sweep(50, scale):
        if n < 2:
            continue
        errs = [abs(fd_sub(values[mode], pi_ref)) for mode in CORRECTIONS]
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


def build_verify_report() -> VerifyReport:
    return VerifyReport(checks=(
        _check_pi_fraction(),
        _check_circumference(),
        _check_epoch(),
        _check_sine_table(),
        _check_hierarchy(),
    ))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_pi(args, parser) -> int:
    if args.correction != NO_CORRECTION and args.series != LEIBNIZ:
        parser.error("--correction applies to the leibniz series only")
    spec = SeriesSpec(series_id=args.series, terms=args.terms,
                      correction=args.correction, scale=args.digits + GUARD)
    result = evaluate(spec)
    value = fd_to_string(fd_rescale(result.value, args.digits))
    bound = None if result.error_bound is None else fd_to_string(result.error_bound)
    if args.format == "json":
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


def cmd_verify(args, parser) -> int:
    report = build_verify_report()
    if args.format == "json":
        payload = {
            "checks": [
                {"name": c.name, "expected": c.expected, "computed": c.computed,
                 "tolerance": c.tolerance, "pass": c.passed}
                for c in report.checks
            ],
            "overall_pass": report.overall_pass,
        }
        print(json.dumps(payload, indent=2))
    else:
        for c in report.checks:
            status = "PASS" if c.passed else "FAIL"
            print(f"[{status}] {c.name}: {c.computed} (expected: {c.expected}; tolerance: {c.tolerance})")
        print(f"overall: {'PASS' if report.overall_pass else 'FAIL'}")
    return 0 if report.overall_pass else 1


def _converge_rows(series_list, n_max, corrections, scale):
    pi_ref = pi_reference(scale)
    ws = scale + GUARD
    for series_id in series_list:
        modes = list(CORRECTIONS) if (corrections == "all" and series_id == LEIBNIZ) else [NO_CORRECTION]
        for mode in modes:
            for n in range(1, n_max + 1):
                value = evaluate(SeriesSpec(series_id, n, mode, ws)).value
                out = fd_rescale(value, scale)
                err = abs(fd_sub(out, pi_ref))
                yield f"{series_id},{mode},{n},{fd_to_string(out)},{fd_to_string(err)}"


def cmd_converge(args, parser) -> int:
    series_list = [s.strip() for s in args.series.split(",") if s.strip()]
    if not series_list:
        parser.error("--series needs at least one series id")
    for s in series_list:
        if s not in SERIES_IDS:
            parser.error(f"unknown series id {s!r}")
    if args.n_max < 1:
        parser.error("--n-max must be >= 1")
    terms = args.n_max * (args.n_max + 1) // 2  # per series and mode: n terms for each n
    if terms > DEFAULT_TERM_CAP:
        raise TermCountError(f"--n-max {args.n_max} sums {terms} terms per series, "
                             f"above the term cap of {DEFAULT_TERM_CAP}")
    print("series,correction,n,value,abs_error")
    for line in _converge_rows(series_list, args.n_max, args.corrections, args.scale):
        print(line)
    return 0


def cmd_trig_eval(args, parser) -> int:
    angle = (Angle(args.radians) if args.degrees is None
             else Angle.from_degrees(args.degrees, args.scale + GUARD))
    terms = args.terms if args.terms else sin_terms_for(args.scale, 3142)
    fn = {"sin": sin_series, "cos": cos_series, "sinsq": sin_sq_series}[args.fn]
    print(fd_to_string(fn(angle, terms, args.scale)))
    return 0


def cmd_trig_table(args, parser) -> int:
    table = build_sine_table(args.scale)
    print("k,degrees,sin")
    for k, value in table.entries:
        degrees = fd_to_string(fd_from_ratio(15 * k, 4, 1, 2))
        print(f"{k},{degrees},{fd_to_string(value)}")
    return 0


def cmd_trig_shift(args, parser) -> int:
    u = Angle.from_degrees(args.u_degrees, args.scale + GUARD)
    fn = taylor_shift_sin if args.fn == "sin" else taylor_shift_cos
    print(fd_to_string(fn(u, args.h, args.scale)))
    return 0


def cmd_trig_addrule(args, parser) -> int:
    x = Angle.from_degrees(args.x_degrees, args.scale + GUARD)
    y = Angle.from_degrees(args.y_degrees, args.scale + GUARD)
    print(fd_to_string(angle_add(x, y, args.rule, args.scale)))
    return 0


def cmd_quad_radius(args, parser) -> int:
    try:
        print(fd_to_string(circumradius(args.sides, args.scale)))
    except ValueError as exc:  # also NotCyclicError
        parser.error(str(exc))
    return 0


def cmd_chrono_check(args, parser) -> int:
    rep = venvaroha_epoch_check()
    if args.format == "json":
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


def _sides(text: str) -> QuadSides:
    """argparse type: four comma-separated decimals."""
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("needs four comma-separated lengths")
    return QuadSides(*(_decimal(p.strip()) for p in parts))


def _add_scale(p, default=DEFAULT_SCALE):
    p.add_argument("--scale", type=_digit_count, default=default,
                   help=f"decimal digits of working precision (default: {default})")


def _leaf(sub, name: str, run, help: str) -> argparse.ArgumentParser:
    """A subcommand that main dispatches to run(args, parser)."""
    p = sub.add_parser(name, help=help)
    p.set_defaults(run=run)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, parser)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
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
