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
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from math import factorial

from .bigfixed import (
    FixedDec,
    fd_add,
    fd_divn,
    fd_from_ratio,
    fd_from_string,
    fd_mul,
    fd_rescale,
    fd_sub,
    fd_to_string,
)
from .chronology import venvaroha_epoch_check
from .geometry import NotCyclicError, QuadSides, circumradius
from .pi_series import (
    CORRECTIONS,
    DEFAULT_TERM_CAP,
    GUARD,
    LEIBNIZ,
    NO_CORRECTION,
    SERIES_IDS,
    SeriesSpec,
    TermCountError,
    circumference_check,
    evaluate,
    leibniz_corrected,
    leibniz_partial,
    madhava_pi_value,
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


@dataclass(frozen=True)
class VerifyCheck:
    name: str
    expected: str
    computed: str
    tolerance: str
    passed: bool


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[VerifyCheck, ...]

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.checks)


@dataclass(frozen=True)
class ConvergenceRow:
    series_id: str
    correction: str
    n: int
    value: str
    abs_error: str


# ---------------------------------------------------------------------------
# verify checks
# ---------------------------------------------------------------------------

def _sin_term_by_term(theta: Angle, terms: int, scale: int) -> FixedDec:
    """Plain summation of the sine series; deliberately a separate code
    path from the nested evaluator so the table check is independent."""
    th = fd_rescale(theta.radians, scale)
    th2 = fd_mul(th, th)
    acc = FixedDec.from_int(0, scale)
    power = th
    for k in range(terms):
        term = fd_divn(power, factorial(2 * k + 1))
        acc = fd_add(acc, term if k % 2 == 0 else -term)
        if k + 1 < terms:
            power = fd_mul(power, th2)
    return acc


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
    worst = FixedDec.from_int(0, 20)
    for k, value in table.entries:
        degrees = fd_from_ratio(15 * k, 4, 1, 22)
        independent = _sin_term_by_term(Angle.from_degrees(degrees, 30), 15, 20)
        diff = abs(fd_sub(fd_rescale(value, 20), independent))
        if diff > worst:
            worst = diff
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
    for n in range(2, 51):
        errs = [abs(fd_sub(leibniz_partial(n, scale), pi_ref))]
        for variant in ("f1", "f2", "f3"):
            errs.append(abs(fd_sub(leibniz_corrected(n, variant, scale), pi_ref)))
        if not (errs[3] < errs[2] < errs[1] < errs[0]):
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


def cmd_verify(args) -> int:
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
                yield ConvergenceRow(series_id=series_id, correction=mode, n=n,
                                     value=fd_to_string(out), abs_error=fd_to_string(err))


def cmd_converge(args, parser) -> int:
    series_list = [s.strip() for s in args.series.split(",") if s.strip()]
    if not series_list:
        parser.error("--series needs at least one series id")
    for s in series_list:
        if s not in SERIES_IDS:
            parser.error(f"unknown series id {s!r}")
    if args.n_max < 1:
        parser.error("--n-max must be >= 1")
    if args.n_max > DEFAULT_TERM_CAP:
        raise TermCountError(f"--n-max {args.n_max} is above the term cap of {DEFAULT_TERM_CAP}")
    print("series,correction,n,value,abs_error")
    for row in _converge_rows(series_list, args.n_max, args.corrections, args.scale):
        print(f"{row.series_id},{row.correction},{row.n},{row.value},{row.abs_error}")
    return 0


def _angle_from_args(degrees: str | None, radians: str | None, scale: int) -> Angle:
    if degrees is not None:
        return Angle.from_degrees(fd_from_string(degrees), scale + GUARD)
    return Angle(fd_from_string(radians))


def cmd_trig_eval(args, parser) -> int:
    angle = _angle_from_args(args.degrees, args.radians, args.scale)
    terms = args.terms if args.terms else sin_terms_for(args.scale, 3142)
    fn = {"sin": sin_series, "cos": cos_series, "sinsq": sin_sq_series}[args.fn]
    print(fd_to_string(fn(angle, terms, args.scale)))
    return 0


def cmd_trig_table(args) -> int:
    table = build_sine_table(args.scale)
    print("k,degrees,sin")
    for k, value in table.entries:
        degrees = fd_to_string(fd_from_ratio(15 * k, 4, 1, 2))
        print(f"{k},{degrees},{fd_to_string(value)}")
    return 0


def cmd_trig_shift(args) -> int:
    u = Angle.from_degrees(fd_from_string(args.u_degrees), args.scale + GUARD)
    h = fd_from_string(args.h)
    fn = taylor_shift_sin if args.fn == "sin" else taylor_shift_cos
    print(fd_to_string(fn(u, h, args.scale)))
    return 0


def cmd_trig_addrule(args) -> int:
    x = Angle.from_degrees(fd_from_string(args.x_degrees), args.scale + GUARD)
    y = Angle.from_degrees(fd_from_string(args.y_degrees), args.scale + GUARD)
    print(fd_to_string(angle_add(x, y, args.rule, args.scale)))
    return 0


def cmd_quad_radius(args, parser) -> int:
    parts = [p.strip() for p in args.sides.split(",")]
    if len(parts) != 4:
        parser.error("--sides takes four comma-separated lengths")
    try:
        sides = QuadSides(*[fd_from_string(p) for p in parts])
        print(fd_to_string(circumradius(sides, args.scale)))
    except (NotCyclicError, ValueError) as exc:
        parser.error(str(exc))
    return 0


def cmd_chrono_check(args) -> int:
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


def _add_scale(p, default=DEFAULT_SCALE):
    p.add_argument("--scale", type=int, default=default,
                   help=f"decimal digits of working precision (default: {default})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="madhava",
        description="Pi series, sine tables and cyclic-quadrilateral geometry "
                    "in exact scaled-decimal arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pi = sub.add_parser("pi", help="evaluate one pi series")
    p_pi.add_argument("--series", choices=SERIES_IDS, required=True)
    p_pi.add_argument("--terms", type=int, required=True, help="number of series terms")
    p_pi.add_argument("--correction", choices=CORRECTIONS, default=NO_CORRECTION,
                      help="end-correction, leibniz only (default: none)")
    p_pi.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                      help=f"fractional digits to print (default: {DEFAULT_DIGITS})")
    _add_format(p_pi)

    p_verify = sub.add_parser("verify", help="run the reproduction checks")
    _add_format(p_verify)

    p_conv = sub.add_parser("converge", help="CSV convergence sweep")
    p_conv.add_argument("--series", required=True,
                        help="comma-separated series ids, e.g. leibniz,sqrt12")
    p_conv.add_argument("--n-max", type=int, required=True, dest="n_max")
    p_conv.add_argument("--corrections", choices=("none", "all"), default="none",
                        help="also sweep f1/f2/f3 for leibniz (default: none)")
    _add_scale(p_conv)

    p_trig = sub.add_parser("trig", help="sine/cosine series operations")
    trig_sub = p_trig.add_subparsers(dest="trig_command", required=True)

    p_eval = trig_sub.add_parser("eval", help="evaluate sin, cos or sin^2")
    p_eval.add_argument("--fn", choices=("sin", "cos", "sinsq"), required=True)
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--degrees")
    group.add_argument("--radians")
    p_eval.add_argument("--terms", type=int, default=0,
                        help="series terms (default: from the accuracy bound)")
    _add_scale(p_eval)

    p_table = trig_sub.add_parser("table", help="the 24-entry sine table")
    _add_scale(p_table, DEFAULT_TABLE_SCALE)

    p_shift = trig_sub.add_parser("shift", help="second-order shift formula")
    p_shift.add_argument("--fn", choices=("sin", "cos"), required=True)
    p_shift.add_argument("--u-degrees", required=True, dest="u_degrees")
    p_shift.add_argument("--h", required=True, help="shift in radians, |h| <= 0.5")
    _add_scale(p_shift)

    p_add = trig_sub.add_parser("addrule", help="angle addition/subtraction rules")
    p_add.add_argument("--rule", choices=ADDITION_RULES, required=True)
    p_add.add_argument("--x-degrees", required=True, dest="x_degrees")
    p_add.add_argument("--y-degrees", required=True, dest="y_degrees")
    _add_scale(p_add)

    p_quad = sub.add_parser("quad", help="cyclic quadrilateral geometry")
    quad_sub = p_quad.add_subparsers(dest="quad_command", required=True)
    p_radius = quad_sub.add_parser("radius", help="circumradius from four sides")
    p_radius.add_argument("--sides", required=True, help="four comma-separated lengths")
    _add_scale(p_radius)

    p_chrono = sub.add_parser("chrono", help="kali-day chronology")
    chrono_sub = p_chrono.add_subparsers(dest="chrono_command", required=True)
    p_check = chrono_sub.add_parser("check", help="the epoch date check")
    _add_format(p_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "pi":
            return cmd_pi(args, parser)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "converge":
            return cmd_converge(args, parser)
        if args.command == "trig":
            if args.trig_command == "eval":
                return cmd_trig_eval(args, parser)
            if args.trig_command == "table":
                return cmd_trig_table(args)
            if args.trig_command == "shift":
                return cmd_trig_shift(args)
            return cmd_trig_addrule(args)
        if args.command == "quad":
            return cmd_quad_radius(args, parser)
        if args.command == "chrono":
            return cmd_chrono_check(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
