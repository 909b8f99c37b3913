"""Tests of the benchmark's own parts: input generation, the output
oracles, the tracer's self-time arithmetic and its clean removal.

    python3 -m pytest bench/tests -q
"""

import contextlib
import io
import itertools
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def first_cycles(workload, seed, count=3):
    return list(itertools.islice(workloads.cycles(workload, seed), count))


def cli_stdout(argv) -> str:
    import madhava.cli as cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def bump_digit(text: str, index: int) -> str:
    return text[:index] + str((int(text[index]) + 1) % 10) + text[index + 1:]


# -- generator ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert first_cycles(workload, 7) == first_cycles(workload, 7)
    assert first_cycles(workload, 7) != first_cycles(workload, 8)


def rung_of(value, rungs):
    return max(r for r in rungs if r <= value)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cycle_runs_every_slot_once(workload):
    for cycle in first_cycles(workload, 3):
        if workload == workloads.PI_BIGDIGITS:
            rungs = sorted(rung_of(op["digits"], workloads.PI_RUNGS) for op in cycle)
            assert rungs == list(workloads.PI_RUNGS)
        elif workload == workloads.CONVERGE_SWEEP:
            rungs = sorted(rung_of(op["n_max"], workloads.CONVERGE_RUNGS) for op in cycle)
            assert rungs == list(workloads.CONVERGE_RUNGS)
            assert all(op["series"][0] == "leibniz" for op in cycle)
        else:
            assert [sum(op["argv"] in grid for op in cycle)
                    for grid in workloads.COLD_GRIDS.values()] == [1] * len(workloads.COLD_GRIDS)


def test_pi_digits_drawn_without_replacement():
    digits = [op["digits"] for cycle in first_cycles(workloads.PI_BIGDIGITS, 5, 8)
              for op in cycle]
    assert len(digits) == len(set(digits))


def test_sqrt12_terms_is_the_smallest_n():
    for digits in (10, 300, 1000):
        n = workloads.sqrt12_terms(digits)
        target = 12 * 10 ** (2 * (digits + 2))
        assert ((2 * n + 1) * 3**n) ** 2 > target
        assert ((2 * n - 1) * 3 ** (n - 1)) ** 2 <= target


# -- oracles -----------------------------------------------------------------

def test_machin_pi_matches_known_digits():
    assert oracles.pi_digits(49) == 31415926535897932384626433832795028841971693993751


def test_pi_oracle_accepts_library_output():
    op = workloads.pi_op(120)
    assert oracles.check_pi(cli_stdout(op["argv"]), 120) is None


@pytest.mark.parametrize("index", [2, 40, 121])  # first decimal, middle, last digit
def test_pi_oracle_rejects_one_wrong_digit(index):
    out = cli_stdout(workloads.pi_op(120)["argv"])
    assert oracles.check_pi(bump_digit(out, index), 120) is not None


def test_converge_oracle_accepts_and_rejects():
    op = workloads.converge_op(["leibniz", "sqrt12"], 12, 33)
    out = cli_stdout(op["argv"])
    assert oracles.check_converge(out, op["series"], 12, 33) is None
    value_digit = out.index("\n") + len("leibniz,none,1,4.") + 5
    assert oracles.check_converge(bump_digit(out, value_digit), op["series"], 12, 33)
    assert oracles.check_converge(out.rsplit("\n", 2)[0] + "\n", op["series"], 12, 33)


def test_digest_check_rejects_corrupted_output():
    argv = ["chrono", "check", "--format", "text"]
    expected = oracles.load_digests()[workloads.op_key(argv)]
    good = cli_stdout(argv).encode()
    assert oracles.check_digest(good, expected) is None
    assert oracles.check_digest(good.replace(b"1402", b"1403"), expected) is not None


def test_every_cold_operation_has_a_digest():
    digests = oracles.load_digests()
    for grid in workloads.COLD_GRIDS.values():
        for argv in grid:
            assert workloads.op_key(argv) in digests


def test_check_counts_a_bad_exit_code():
    rec = {"op": workloads.cold_op(["verify", "--format", "text"]), "code": 1, "out": b""}
    assert run.check(rec, {}) == "exit code 1"


# -- tracer ------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_a_synthetic_nested_call():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        leaf()
        clock.advance(0.5)

    def root():
        clock.advance(1.0)
        middle()
        leaf()
        clock.advance(3.0)

    leaf = tr.wrap("leaf", leaf)
    middle = tr.wrap("middle", middle)
    root = tr.wrap("root", root)
    root()
    times = tracer.self_times(tr.spans)
    assert times == {"leaf": [2, 2.0], "middle": [1, 2.5], "root": [1, 4.0]}
    assert tr.summary()["self_sum_s"] == 8.5  # the root span's duration
    parents = {name: parent for _, name, _, _, parent in tr.spans if name != "leaf"}
    root_id = next(sid for sid, name, *_ in tr.spans if name == "root")
    assert parents == {"middle": root_id, "root": -1}


def madhava_bindings():
    import madhava.cli  # noqa: F401 - loads every layer

    snap = {}
    for name, mod in sys.modules.items():
        if name == "madhava" or name.startswith("madhava."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    bignat = sys.modules["madhava.bigfixed"].BigNat
    snap.update({("BigNat", k): v for k, v in vars(bignat).items()})
    return snap


def test_tracer_restores_every_callable():
    before = madhava_bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        during = madhava_bindings()
        changed = {key for key in before if during[key] is not before[key]}
        assert ("madhava.cli", "pi_reference") in changed  # bound by from-import
        assert ("madhava.trig_series", "pi_reference") in changed
        assert ("BigNat", "__divmod__") in changed
        cli_stdout(["quad", "radius", "--sides", "3,4,3,4", "--scale", "12"])
    finally:
        tr.uninstall()
    after = madhava_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {name for _, name, *_ in tr.spans}
    assert {"cli.main", "geometry.circumradius", "bigfixed.divmod"} <= names
