"""CLI surface: flags, formats, exit codes, deterministic output."""

import argparse
import csv
import functools
import importlib.util
import io
import json
import subprocess
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

import madhava.cli as cli
from madhava import pi_series
from madhava.bigfixed import fd_from_string, fd_rescale, fd_to_string
from madhava.cli import TRIG_TERM_CAP, build_parser, build_verify_report, main
from madhava.pi_series import SCALE_CAP
from madhava.trig_series import ANGLE_DIGITS, full_domain_terms, sin_terms_for
from conftest import as_fraction, taylor_bracket


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "madhava.cli", *argv],
                          capture_output=True)


def cold_grids():
    """bench/workloads.py's COLD_GRIDS, loaded by path so that bench/
    stays off sys.path (it holds modules named run and worker)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("cold_grid_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COLD_GRIDS


class TestPiCommand:
    def test_sqrt12_fourteen_digits(self, capsys):
        code, out = run_cli(capsys, "pi", "--series", "sqrt12", "--terms", "28", "--digits", "14")
        assert code == 0
        assert out.splitlines()[0].startswith("3.14159265358979")

    def test_leibniz_single_term(self, capsys):
        code, out = run_cli(capsys, "pi", "--series", "leibniz", "--terms", "1", "--digits", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("4.0")

    def test_aux_b_single_term(self, capsys):
        code, out = run_cli(capsys, "pi", "--series", "aux-b", "--terms", "1", "--digits", "6")
        assert code == 0
        assert out.splitlines()[0].startswith("2.666")

    def test_bound_printed_for_plain_series(self, capsys):
        code, out = run_cli(capsys, "pi", "--series", "leibniz", "--terms", "10")
        assert "error-bound " in out

    def test_no_bound_for_corrected(self, capsys):
        code, out = run_cli(capsys, "pi", "--series", "leibniz", "--terms", "10",
                            "--correction", "f3")
        assert code == 0
        assert "error-bound" not in out

    def test_json_shape(self, capsys):
        code, out = run_cli(capsys, "pi", "--series", "sqrt12", "--terms", "22",
                            "--digits", "10", "--format", "json")
        payload = json.loads(out)
        assert payload["value"].startswith("3.1415926535")
        assert set(payload) == {"series", "correction", "terms", "digits", "value", "error_bound"}

    def test_correction_needs_leibniz(self):
        with pytest.raises(SystemExit) as exc:
            main(["pi", "--series", "aux-a", "--terms", "5", "--correction", "f1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, usage", [
        (("pi", "--series", "aux-a", "--terms", "5", "--correction", "f1"), "usage: madhava pi "),
        (("converge", "--series", "machin", "--n-max", "3"), "usage: madhava converge "),
        (("quad", "radius", "--sides", "1,2,3,10"), "usage: madhava quad radius "),
    ])
    def test_handler_refusal_prints_its_subcommand_usage(self, argv, usage):
        proc = run_subprocess(*argv)
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert proc.stderr.decode().startswith(usage)

    def test_bad_terms_is_usage_error(self, capsys):
        # a count above the term cap is refused before any summing
        for terms in ("0", "1000001", "1000000000"):
            assert main(["pi", "--series", "leibniz", "--terms", terms]) == 2
            assert capsys.readouterr().out == ""
        # the cap itself is admitted; parsed only, as a million terms take minutes
        args = build_parser().parse_args(["pi", "--series", "leibniz", "--terms", "1000000"])
        assert args.terms == 1_000_000


class TestVerifyCommand:
    def test_exit_zero_and_all_pass(self, capsys):
        code, out = run_cli(capsys, "verify")
        assert code == 0
        assert out.count("[PASS]") == 5
        assert "overall: PASS" in out

    def test_json_schema(self, capsys):
        code, out = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["overall_pass"] is True
        assert len(payload["checks"]) == 5
        for check in payload["checks"]:
            assert set(check) == {"name", "expected", "computed", "tolerance", "pass"}
            assert check["pass"] is True

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_one_failed_check_fails_overall(self, fmt, capsys, monkeypatch):
        checks = (cli.VerifyCheck("good", "1", "1", "exact", True),
                  cli.VerifyCheck("bad", "1", "2", "exact", False))
        monkeypatch.setattr(cli, "build_verify_report", lambda: checks)
        code, out = run_cli(capsys, "verify", "--format", fmt)
        assert code == 1
        if fmt == "json":
            assert json.loads(out)["overall_pass"] is False
        else:
            assert out.splitlines()[-1] == "overall: FAIL"

    def test_report_object(self):
        checks = build_verify_report()
        assert all(c.passed for c in checks)
        names = [c.name for c in checks]
        assert names == ["madhava_pi_10_decimals", "circumference_delta",
                         "venvaroha_epoch", "sine_table_8_digits", "correction_hierarchy"]

    def test_hierarchy_reports_a_violation(self, monkeypatch):
        sweep = cli.leibniz_sweep

        def broken(n_max, scale):
            for n, values in sweep(n_max, scale):
                if n == 7:
                    values = {**values, "f3": values["f2"]}  # err(F3) == err(F2)
                yield n, values

        monkeypatch.setattr(cli, "leibniz_sweep", broken)
        check = cli._check_hierarchy()
        assert not check.passed
        assert check.computed == "violated at n=7"


class TestSineSum:
    """verify's independent sine check: the term-by-term odd-power loop
    against exact rationals and the conftest Taylor bracket."""

    def test_zero(self):
        assert cli._sine_sum(fd_from_string("0.0"), 5, 10).is_zero()

    def test_one_term_is_x(self):
        x = fd_from_string("0.123456789")
        assert fd_to_string(cli._sine_sum(x, 1, 6)) == fd_to_string(fd_rescale(x, 6))

    def test_odd_in_x(self):
        # every step truncates toward zero, so negation passes through exactly
        for s in ("0.5", "1.25", "3.1415926535"):
            pos = cli._sine_sum(fd_from_string(s), 12, 20)
            neg = cli._sine_sum(fd_from_string("-" + s), 12, 20)
            assert fd_to_string(neg) == "-" + fd_to_string(pos)

    def test_half_eight_terms_rational_oracle(self):
        x = Fraction(1, 2)
        oracle = sum((-1) ** k * x ** (2 * k + 1) / factorial(2 * k + 1) for k in range(8))
        v = cli._sine_sum(fd_from_string("0.5"), 8, 14)
        assert abs(as_fraction(v) - oracle) <= Fraction(20, 10**14)

    def test_half_within_the_taylor_remainder_of_sin(self):
        scale = 30
        lo, hi = taylor_bracket(Fraction(1, 2), "sin", scale)
        v = as_fraction(cli._sine_sum(fd_from_string("0.5"), 8, scale))
        bound = Fraction(1, 2) ** 17 / factorial(17) + Fraction(30, 10**scale)
        assert Fraction(lo, 10**scale) - bound <= v <= Fraction(hi, 10**scale) + bound

    def test_partial_sums_bracket_sin(self):
        # alternating terms of shrinking size: consecutive partial sums
        # close in on sin(0.7) from either side
        scale = 30
        ulp = Fraction(1, 10**scale)
        lo, hi = taylor_bracket(Fraction(7, 10), "sin", scale)
        x = fd_from_string("0.7")
        values = [as_fraction(cli._sine_sum(x, n, scale)) for n in range(1, 11)]
        for a, b, c in zip(values, values[1:], values[2:]):
            assert abs(a - b) >= abs(b - c)
        for a, b in zip(values, values[1:]):
            assert min(a, b) - 20 * ulp <= Fraction(lo, 10**scale)
            assert Fraction(hi, 10**scale) <= max(a, b) + 20 * ulp


class TestConvergeCommand:
    def test_row_count_with_corrections(self, capsys):
        code, out = run_cli(capsys, "converge", "--series", "leibniz",
                            "--n-max", "3", "--corrections", "all")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 12  # 4 correction modes x 3 term counts
        assert [r["correction"] for r in rows[:3]] == ["none"] * 3
        assert [int(r["n"]) for r in rows[:3]] == [1, 2, 3]

    def test_f3_beats_plain_rowwise(self, capsys):
        code, out = run_cli(capsys, "converge", "--series", "leibniz",
                            "--n-max", "6", "--corrections", "all")
        rows = list(csv.DictReader(io.StringIO(out)))
        plain = {int(r["n"]): r["abs_error"] for r in rows if r["correction"] == "none"}
        f3 = {int(r["n"]): r["abs_error"] for r in rows if r["correction"] == "f3"}
        for n in range(2, 7):
            assert float(f3[n]) < float(plain[n])

    def test_csv_parses_and_round_trips(self, capsys):
        code, out = run_cli(capsys, "converge", "--series", "sqrt12,aux-c", "--n-max", "4")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["series", "correction", "n", "value", "abs_error"]
        assert len(rows) == 1 + 8
        rebuilt = "\r\n".join(",".join(r) for r in rows) + "\r\n"
        assert rebuilt.replace("\r\n", "\n") == out
        # values are plain decimal strings
        for row in rows[1:]:
            assert row[3].replace(".", "").isdigit()

    def test_one_evaluate_per_printed_value_and_no_unprinted_bound(self, capsys, monkeypatch):
        # converge prints no bound, so it must never take one; pi prints its
        # value through one evaluate call
        evaluate, calls = cli.evaluate, []

        def counted(*args):
            calls.append(args)
            return evaluate(*args)

        def refuse(*args):
            raise AssertionError("converge took a bound it does not print")

        monkeypatch.setattr(cli, "evaluate", counted)
        monkeypatch.setattr(cli, "error_bound", refuse)
        monkeypatch.setattr(pi_series, "error_bound", refuse)
        code, out = run_cli(capsys, "converge", "--series", "leibniz,sqrt12",
                            "--n-max", "7", "--corrections", "all")
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 35  # 4 x 7 + 7
        assert len(calls) == 35
        monkeypatch.undo()
        monkeypatch.setattr(cli, "evaluate", counted)
        calls.clear()
        code, out = run_cli(capsys, "pi", "--series", "sqrt12", "--terms", "22")
        assert code == 0
        assert "error-bound " in out
        assert calls == [("sqrt12", 22, "none", 20)]

    def test_series_order_preserved(self, capsys):
        code, out = run_cli(capsys, "converge", "--series", "aux-d,leibniz", "--n-max", "2")
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["series"] for r in rows] == ["aux-d", "aux-d", "leibniz", "leibniz"]

    def test_bad_n_max(self):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--series", "leibniz", "--n-max", "0"])
        assert exc.value.code == 2

    def test_unknown_series(self, capsys):
        # "," names no series at all once the empty items are dropped
        for series in ("machin", ","):
            with pytest.raises(SystemExit) as exc:
                main(["converge", "--series", series, "--n-max", "3"])
            assert exc.value.code == 2
            assert capsys.readouterr().out == ""

    def test_n_max_above_cap_refused_before_output(self, capsys):
        code, out = run_cli(capsys, "converge", "--series", "sqrt12", "--n-max", "1000001")
        assert code == 2
        assert out == ""

    def test_n_max_whose_sweep_passes_the_cap_refused_before_output(self, capsys):
        # 1414 * 1415 / 2 = 1000405 terms per series, above DEFAULT_TERM_CAP
        code, out = run_cli(capsys, "converge", "--series", "leibniz", "--n-max", "1414")
        assert code == 2
        assert out == ""

    def test_largest_n_max_under_the_cap_admitted(self, capsys, monkeypatch):
        # 1413 * 1414 / 2 = 998991 terms; the rows are stubbed, not summed
        seen = []

        def rows(*args):
            seen.append(args)
            return iter(())

        monkeypatch.setattr(cli, "_converge_rows", rows)
        code, out = run_cli(capsys, "converge", "--series", "leibniz", "--n-max", "1413")
        assert code == 0
        assert out == "series,correction,n,value,abs_error\n"
        assert seen == [(["leibniz"], 1413, "none", 20)]


class TestTrigCommands:
    def test_eval_sin(self, capsys):
        code, out = run_cli(capsys, "trig", "eval", "--fn", "sin", "--degrees", "30",
                            "--scale", "12")
        assert code == 0
        assert out.strip().startswith("0.5000000000")

    def test_eval_radians(self, capsys):
        code, out = run_cli(capsys, "trig", "eval", "--fn", "cos", "--radians", "0.0",
                            "--scale", "8")
        assert out.strip() == "1.00000000"

    def test_table(self, capsys):
        code, out = run_cli(capsys, "trig", "table", "--scale", "10")
        lines = out.splitlines()
        assert lines[0] == "k,degrees,sin"
        assert len(lines) == 25
        assert lines[8] == "8,30.00,0.5000000000"
        assert lines[24] == "24,90.00,1.0000000000"

    def test_shift(self, capsys):
        code, out = run_cli(capsys, "trig", "shift", "--fn", "sin",
                            "--u-degrees", "0", "--h", "0.01", "--scale", "10")
        assert out.strip() == "0.0100000000"

    def test_addrule(self, capsys):
        code, out = run_cli(capsys, "trig", "addrule", "--rule", "sin-sum",
                            "--x-degrees", "30", "--y-degrees", "15", "--scale", "12")
        assert out.strip().startswith("0.70710678118")

    @pytest.mark.parametrize("scale", ("0", "9"))
    def test_table_below_scale_ten_refused_before_any_output(self, scale, capsys):
        assert main(["trig", "table", "--scale", scale]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: sine table needs scale >= 10\n"

    def test_domain_error_exit_code(self, capsys):
        code = main(["trig", "eval", "--fn", "sin", "--radians", "3.2", "--scale", "10"])
        assert code == 2

    @pytest.mark.parametrize("h, admitted", [
        ("0.5", True), ("-0.5", True),
        ("0.500000000000000000001", False), ("-0.500000000000000000001", False)])
    def test_shift_step_bound_reads_the_exact_h(self, h, admitted, capsys):
        # the 21st decimal lies past scale + GUARD, where h is truncated
        code, out = run_cli(capsys, "trig", "shift", "--fn", "sin", "--u-degrees", "30",
                            "--h", h, "--scale", "10")
        assert (code, out == "") == ((0, False) if admitted else (2, True))


class TestQuadChrono:
    def test_quad_radius(self, capsys):
        code, out = run_cli(capsys, "quad", "radius", "--sides", "3,4,3,4", "--scale", "12")
        assert code == 0
        assert out.strip() == "2.500000000000"

    def test_quad_rejects_degenerate(self):
        with pytest.raises(SystemExit) as exc:
            main(["quad", "radius", "--sides", "10,1,1,1"])
        assert exc.value.code == 2

    def test_quad_needs_four_sides(self):
        with pytest.raises(SystemExit) as exc:
            main(["quad", "radius", "--sides", "1,2,3"])
        assert exc.value.code == 2

    def test_chrono_text(self, capsys):
        code, out = run_cli(capsys, "chrono", "check")
        assert code == 0
        assert "matches_paper true" in out
        assert "1402-03" in out

    def test_chrono_json(self, capsys):
        code, out = run_cli(capsys, "chrono", "check", "--format", "json")
        payload = json.loads(out)
        assert payload["matches_paper"] is True
        assert payload["jd"] == "2233206.069000"


# every subcommand that takes --scale or --digits: its path, then the
# rest of an argument vector that ends in that flag
SCALED = {
    ("pi",): ("--series", "sqrt12", "--terms", "1", "--digits"),
    ("converge",): ("--series", "leibniz", "--n-max", "3", "--scale"),
    ("trig", "eval"): ("--fn", "sin", "--degrees", "30", "--scale"),
    ("trig", "table"): ("--scale",),
    ("trig", "shift"): ("--fn", "sin", "--u-degrees", "30", "--h", "0.1", "--scale"),
    ("trig", "addrule"): ("--rule", "sin-sum", "--x-degrees", "30", "--y-degrees", "15", "--scale"),
    ("quad", "radius"): ("--sides", "3,4,3,4", "--scale"),
}
SCALED_ARGV = [(*path, *rest) for path, rest in SCALED.items()]


def leaf_flags(parser, path=()):
    """(subcommand path, option strings) of every leaf subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, {flag for a in parser._actions for flag in a.option_strings}
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_flags(child, (*path, name))


class TestScaleCap:
    @pytest.mark.parametrize("argv", [
        *((*argv, "2001") for argv in SCALED_ARGV),
        ("trig", "eval", "--fn", "sin", "--degrees", "3" + "0" * 2000),
        ("trig", "shift", "--fn", "sin", "--u-degrees", "30", "--h", "0." + "0" * 2000),
        ("converge", "--series", "leibniz", "--n-max", "3", "--scale", "-1"),
        ("pi", "--series", "sqrt12", "--terms", "10", "--digits", "-3"),
        ("pi", "--series", "leibniz", "--terms", "1000000", "--digits", "2001"),
        ("trig", "eval", "--fn", "sin", "--degrees", "30", "--scale", "100000"),
        ("trig", "table", "--scale", "2001"),
        ("quad", "radius", "--sides", "3,4,3,4", "--scale", "ten"),
        ("quad", "radius", "--sides", "1." + "0" * 2000 + ",1,1,1"),
        ("trig", "eval", "--fn", "sin", "--radians", "0." + "0" * 2000),
        ("trig", "shift", "--fn", "sin", "--u-degrees", "30", "--h", "0.1\n", "--scale", "10"),
    ])
    def test_refused_before_any_output(self, argv, capsys):
        # refused while parsing, so converge prints no header and pi sums nothing
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_every_scaled_subcommand_is_pinned(self):
        assert set(SCALED) == {path for path, flags in leaf_flags(build_parser())
                               if flags & {"--scale", "--digits"}}

    @pytest.mark.parametrize("argv", SCALED_ARGV)
    def test_cap_admits_its_bounds(self, argv):
        # parsed only: the largest admitted scale is not run here
        parser = build_parser()
        for value in ("0", "2000"):
            args = parser.parse_args([*argv, value])
            assert getattr(args, argv[-1][2:]) == int(value) <= SCALE_CAP

    @pytest.mark.parametrize("argv, out", [
        (("quad", "radius", "--sides", "1." + "0" * 1999 + ",1,1,1", "--scale", "10"),
         "0.7071067811"),
        (("trig", "eval", "--fn", "sin", "--radians", "0." + "0" * 1999, "--scale", "5"),
         "0.00000"),
        (("trig", "eval", "--fn", "sin", "--degrees", "30." + "0" * 1998, "--scale", "10"),
         "0.4999999999"),
        (("trig", "shift", "--fn", "sin", "--u-degrees", "30", "--h", "0.1" + "0" * 1998,
          "--scale", "10"), "0.5841025403"),
    ])
    def test_decimal_cap_admits_its_bound(self, argv, out, capsys):
        # the longest decimal has exactly 2000 digits
        assert max(sum(ch.isdigit() for ch in d) for d in argv[-3].split(",")) == SCALE_CAP
        assert main(list(argv)) == 0
        assert capsys.readouterr().out == out + "\n"


class TestAsciiNumerals:
    # \u0660-\u0669 are the Arabic-Indic digits, which int() and \\d accept
    @pytest.mark.parametrize("argv", [
        ("trig", "shift", "--fn", "sin", "--u-degrees", "30", "--h", "\u0660.\u0661",
         "--scale", "10"),
        ("quad", "radius", "--sides", "2,3,4,5", "--scale", "\u0662\u0660"),
        ("quad", "radius", "--sides", "2,3,4,5", "--scale", "1_0"),
        ("quad", "radius", "--sides", "2,3,4,5", "--scale", "+10"),
        ("quad", "radius", "--sides", "2,3,4,5", "--scale", " 10"),
        ("quad", "radius", "--sides", "2,3,\u0664,5", "--scale", "10"),
        ("trig", "eval", "--fn", "sin", "--degrees", "30", "--terms", "\u0665"),
        ("pi", "--series", "sqrt12", "--terms", "\u0662\u0668"),
        ("converge", "--series", "leibniz", "--n-max", " 2"),
    ])
    def test_refused_before_any_output(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("flag", [("trig", "table", "--scale"),
                                      ("pi", "--series", "sqrt12", "--terms")])
    def test_overlong_int_refused_without_echo(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*flag, "1" * 5000])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and len(out.err) < 1000

    def test_ascii_spelling_admitted(self, capsys):
        assert main(["quad", "radius", "--sides", "2,3,4,5", "--scale", "010"]) == 0
        assert capsys.readouterr().out == "2.6176484357\n"


class TestTrigTermCap:
    @pytest.mark.parametrize("terms", [str(TRIG_TERM_CAP + 1), "1000000000", "-1"])
    def test_refused_before_any_output(self, terms, capsys):
        # refused while parsing, before any coefficient is built
        with pytest.raises(SystemExit) as exc:
            main(["trig", "eval", "--fn", "sin", "--degrees", "30",
                  "--terms", terms, "--scale", "10"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_cap_admits_its_bounds(self):
        parser = build_parser()
        base = ["trig", "eval", "--fn", "sin", "--degrees", "30"]
        assert parser.parse_args(base).terms == 0
        assert parser.parse_args([*base, "--terms", "0"]).terms == 0
        assert parser.parse_args([*base, "--terms", str(TRIG_TERM_CAP)]).terms == TRIG_TERM_CAP

    def test_cap_is_the_largest_admitted_need(self):
        assert TRIG_TERM_CAP == sin_terms_for(SCALE_CAP + ANGLE_DIGITS, 3142) == 488

    def test_cap_is_the_full_domain_count_at_the_largest_scale(self):
        # the default term count of trig eval never exceeds the cap
        assert TRIG_TERM_CAP == full_domain_terms(SCALE_CAP + ANGLE_DIGITS)


class TestBrokenPipe:
    def test_closed_reader_exits_141_quietly(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "madhava.cli", "converge", "--series", "leibniz",
             "--n-max", "1000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            assert proc.stdout.readline() == b"series,correction,n,value,abs_error\n"
            proc.stdout.close()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
        assert proc.stderr.read() == b""
        proc.stderr.close()
        assert code == 141


# an atexit hook reports how much the collector's permanent generation
# grew since before the import, once the process is done, after run's
# sys.exit; an interpreter may start with objects there (3.12 does)
FREEZE_PROBE = """\
import atexit, gc, sys
before = gc.get_freeze_count()
atexit.register(lambda: print("frozen", gc.get_freeze_count() - before, file=sys.stderr))
import madhava.cli as cli
{call}
"""


def frozen_at_exit(call: str) -> int:
    proc = subprocess.run([sys.executable, "-c", FREEZE_PROBE.format(call=call)],
                          capture_output=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"jd ")  # chrono check ran
    return int(proc.stderr.split()[-1])


class TestProcessEntryPoint:
    """python -m madhava.cli runs cli.run: it prints what main prints,
    exits as main returns, and is the one place that freezes the heap.
    The 141 exit is TestBrokenPipe's."""

    @pytest.mark.parametrize("argv", [grid[len(grid) // 2] for grid in cold_grids().values()],
                             ids=" ".join)
    def test_process_prints_what_main_prints(self, argv, capsys):
        proc = run_subprocess(*argv)
        code, out = run_cli(capsys, *argv)
        assert proc.returncode == code == 0
        assert proc.stdout == out.encode()

    def test_usage_error_exits_2_with_empty_stdout(self):
        proc = run_subprocess("pi", "--series", "sqrt12", "--terms", "x")
        assert proc.returncode == 2
        assert proc.stdout == b""
        assert b"invalid int value" in proc.stderr

    def test_run_freezes_the_start_up_heap(self):
        assert frozen_at_exit("sys.argv = ['madhava', 'chrono', 'check']; cli.run()") > 0

    def test_import_and_main_freeze_nothing(self):
        # pytest, bench's warm worker and library callers import the module
        # and call main; none of them may get a frozen heap
        assert frozen_at_exit("cli.main(['chrono', 'check'])") == 0


class TestSharedParser:
    def test_two_calls_build_one_parser(self, monkeypatch, capsys):
        builds = []

        def counted():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counted)
        monkeypatch.setattr(cli, "_shared_parser", functools.cache(cli._shared_parser.__wrapped__))
        assert run_cli(capsys, "chrono", "check")[0] == 0
        assert run_cli(capsys, "quad", "radius", "--sides", "3,4,3,4")[0] == 0
        assert len(builds) == 1

    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    @pytest.mark.parametrize("refused", [
        ("pi", "--series", "leibniz", "--digits", "3", "--terms", "x"),  # argparse's refusal
        ("pi", "--series", "aux-a", "--terms", "5", "--correction", "f1", "--digits", "3"),  # cmd_pi's
    ])
    def test_refused_argv_leaves_no_state(self, refused, capsys):
        argv = ("pi", "--series", "sqrt12", "--terms", "28")
        with pytest.raises(SystemExit) as exc:
            main(list(refused))
        assert exc.value.code == 2
        capsys.readouterr()
        code, out = run_cli(capsys, *argv)
        fresh = run_subprocess(*argv)
        assert (code, out.encode()) == (fresh.returncode, fresh.stdout)
        assert len(out.splitlines()[0]) == len("3.") + 20  # --digits 3 left no default behind


class TestDeterminism:
    def test_byte_identical_runs(self):
        argv = ("converge", "--series", "leibniz,sqrt12", "--n-max", "5",
                "--corrections", "all")
        a = run_subprocess(*argv)
        b = run_subprocess(*argv)
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout
        assert a.stdout  # non-empty

    def test_verify_byte_identical(self):
        a = run_subprocess("verify", "--format", "json")
        b = run_subprocess("verify", "--format", "json")
        assert a.stdout == b.stdout
        assert a.returncode == 0
