"""CLI surface: flags, formats, exit codes, deterministic output."""

import csv
import io
import json
import subprocess
import sys

import pytest

from madhava.cli import build_verify_report, main


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

    def test_unknown_series(self):
        with pytest.raises(SystemExit) as exc:
            main(["converge", "--series", "machin", "--n-max", "3"])
        assert exc.value.code == 2

    def test_n_max_above_cap_refused_before_output(self, capsys):
        code, out = run_cli(capsys, "converge", "--series", "sqrt12", "--n-max", "1000001")
        assert code == 2
        assert out == ""


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
