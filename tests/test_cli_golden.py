"""Golden CLI output: stdout bytes pinned by SHA-256.

bench/digests.json records the stdout digest of every README command on
the benchmark's small grids (verify, chrono, pi, trig eval / table /
shift / addrule, quad).  Each of those commands is run here through
cli.main in-process and its stdout must hash to the recorded digest, so
any change to printed bytes fails tier-1.  The converge entries belong
to the benchmark's warm workload and are checked by bench/run.py; the
three with --n-max at most 64 (under a second together) run here too.
"""

import hashlib
import json
from pathlib import Path

import pytest

from madhava.cli import main

DIGESTS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text(encoding="utf-8"))
GOLDEN = sorted(key for key in DIGESTS if not key.startswith("converge "))
CONVERGE = sorted(key for key in DIGESTS if key.startswith("converge ")
                  and int(key.split()[key.split().index("--n-max") + 1]) <= 64)


def test_golden_set_covers_every_command():
    commands = {tuple(key.split()[:2]) for key in GOLDEN}
    assert {c[0] for c in commands} == {"verify", "chrono", "pi", "trig", "quad"}
    assert {c[1] for c in commands if c[0] == "trig"} == {"eval", "table", "shift", "addrule"}


def test_small_converge_keys_are_pinned():
    assert [key.split()[2:5:2] for key in CONVERGE] == [
        ["leibniz,aux-a", "62"], ["leibniz,aux-b", "64"], ["leibniz,sqrt12", "63"]]


@pytest.mark.parametrize("key", GOLDEN + CONVERGE)
def test_stdout_matches_recorded_digest(key, capsys):
    assert main(key.split()) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == DIGESTS[key]
