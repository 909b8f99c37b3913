"""CLI surface: flags, formats, exit codes, deterministic output."""

import csv
import io
import json
import subprocess
import sys

import pytest

import madhava.cli as cli
from madhava.cli import TRIG_TERM_CAP, build_parser, build_verify_report, main
from madhava.pi_series import SCALE_CAP
from madhava.trig_series import ANGLE_DIGITS, full_domain_terms, sin_terms_for


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "madhava.cli", *argv],
                          capture_output=True)


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

    def test_bad_terms_is_usage_error(self, capsys):
        # a count above the term cap is refused before any summing
        for terms in ("0", "1000001", "1000000000"):
            assert main(["pi", "--series", "leibniz", "--terms", terms]) == 2
            assert capsys.readouterr().out == ""


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

    def test_report_object(self):
        report = build_verify_report()
        assert report.overall_pass
        names = [c.name for c in report.checks]
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

    def test_domain_error_exit_code(self, capsys):
        code = main(["trig", "eval", "--fn", "sin", "--radians", "3.2", "--scale", "10"])
        assert code == 2


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


class TestScaleCap:
    @pytest.mark.parametrize("argv", [
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

    def test_cap_admits_its_bounds(self):
        parser = build_parser()
        for value in ("0", str(SCALE_CAP)):
            assert parser.parse_args(["trig", "table", "--scale", value]).scale == int(value)
            args = parser.parse_args(["pi", "--series", "sqrt12", "--terms", "1", "--digits", value])
            assert args.digits == int(value)

    def test_decimal_cap_admits_its_bound(self, capsys):
        side = "1." + "0" * (SCALE_CAP - 1)
        assert main(["quad", "radius", "--sides", f"{side},1,1,1", "--scale", "10"]) == 0
        assert capsys.readouterr().out == "0.7071067811\n"
        radians = "0." + "0" * (SCALE_CAP - 1)
        assert main(["trig", "eval", "--fn", "sin", "--radians", radians, "--scale", "5"]) == 0
        assert capsys.readouterr().out == "0.00000\n"


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
