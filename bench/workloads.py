"""Seeded operation generators for the benchmark's workloads.

Every workload is a ladder of slots.  One cycle runs each slot once, in
an order the seed shuffles, with the slot's inputs drawn by the seed.
Runs measure whole cycles, so every run sees the same mix of operation
sizes: the median and the tail come from the same slots whatever the
seed, while the seed picks the exact inputs and their order.  The same
seed always gives the same operations.

This module does not import madhava; the program only ever sees the
argument vectors built here.
"""

from __future__ import annotations

import random

PI_BIGDIGITS = "pi-bigdigits"
CONVERGE_SWEEP = "converge-sweep"
CLI_COLD = "cli-cold"
WORKLOADS = (PI_BIGDIGITS, CONVERGE_SWEEP, CLI_COLD)

# Slot ladders.  Each cycle holds three small sizes, three slots of a
# middle size and three of a large size.  The median then always falls
# in the middle of the middle-size samples, and the tail (10 samples
# beyond it) among the large ones as long as a run holds at least 4
# cycles.  With one slot per size the median and the tail would rest on
# a handful of samples and jump between sizes with the cycle count.
# Values are drawn without replacement from the window [rung, rung +
# window), which the slots of one rung share.  A pi-bigdigits cycle
# takes about 5 s and a converge-sweep cycle about 4.5 s, so a 30 s run
# holds 5 to 7 cycles.
PI_RUNGS = (300, 375, 450, 600, 600, 600, 850, 850, 850)
PI_WINDOW = 25
CONVERGE_RUNGS = (60, 75, 90, 105, 105, 105, 150, 150, 150)
CONVERGE_WINDOW = 5
CONVERGE_SCALES = range(25, 41)
CONVERGE_EXTRAS = ("aux-a", "aux-b", "aux-c", "aux-d", "sqrt12")

# cli-cold: the README command list, each on a small grid so that every
# possible operation has a recorded stdout digest.
COLD_SCALES = (10, 15, 20, 25, 30, 35, 40)


def _cold_grids() -> dict[str, list[list[str]]]:
    scales = [str(s) for s in COLD_SCALES]
    grids = {
        "verify": [["verify", "--format", f] for f in ("text", "json")],
        "chrono": [["chrono", "check", "--format", f] for f in ("text", "json")],
        "pi": [["pi", "--series", "sqrt12", "--terms", str(t), "--digits", str(d)]
               for t in (20, 24, 28, 32, 36) for d in (10, 12, 14)]
        + [["pi", "--series", "leibniz", "--terms", str(t), "--correction", c,
            "--digits", "12"] for t in (50, 100) for c in ("f1", "f2", "f3")],
        "trig-eval": [["trig", "eval", "--fn", fn, "--degrees", deg, "--scale", s]
                      for fn in ("sin", "cos", "sinsq")
                      for deg in ("15", "22.5", "30", "45", "60", "75", "90")
                      for s in scales],
        "trig-table": [["trig", "table", "--scale", s] for s in scales],
        "trig-shift": [["trig", "shift", "--fn", fn, "--u-degrees", u, "--h", h, "--scale", s]
                       for fn in ("sin", "cos") for u in ("15", "30", "45", "60")
                       for h in ("0.01", "0.05", "0.1") for s in scales],
        "trig-addrule": [["trig", "addrule", "--rule", r, "--x-degrees", x,
                          "--y-degrees", y, "--scale", s]
                         for r in ("sin-sum", "sin-diff", "cos-sum", "cos-diff")
                         for x, y in (("30", "15"), ("45", "30"), ("60", "15"), ("40", "20"))
                         for s in scales],
        "quad": [["quad", "radius", "--sides", sides, "--scale", s]
                 for sides in ("3,4,3,4", "2,3,4,5", "1,1,1,1", "5,6,7,8", "2,2,3,3")
                 for s in scales],
    }
    return grids


COLD_GRIDS = _cold_grids()


def op_key(argv) -> str:
    """The key under which an operation's stdout digest is recorded."""
    return " ".join(argv)


def sqrt12_terms(digits: int) -> int:
    """Smallest n with (2n+1) * 3**n > sqrt(12) * 10**(digits+2), by
    comparing squares of integers."""
    target = 12 * 10 ** (2 * (digits + 2))

    def enough(n):
        return ((2 * n + 1) * 3**n) ** 2 > target

    n = max(1, (digits + 2) * 2095 // 1000 - 10)
    while not enough(n):
        n += 1
    while n > 1 and enough(n - 1):
        n -= 1
    return n


def pi_op(digits: int) -> dict:
    n = sqrt12_terms(digits)
    return {"kind": "pi", "digits": digits,
            "argv": ["pi", "--series", "sqrt12", "--terms", str(n), "--digits", str(digits)]}


def converge_op(series: list[str], n_max: int, scale: int) -> dict:
    return {"kind": "converge", "series": series, "n_max": n_max, "scale": scale,
            "argv": ["converge", "--series", ",".join(series), "--n-max", str(n_max),
                     "--corrections", "all", "--scale", str(scale)]}


def cold_op(argv: list[str]) -> dict:
    return {"kind": "cold", "argv": argv}


def warmup_op(workload: str) -> dict:
    """A small untimed operation that loads everything an op touches."""
    if workload == PI_BIGDIGITS:
        return pi_op(100)
    if workload == CONVERGE_SWEEP:
        return converge_op(["leibniz", "aux-a"], 20, 30)
    return cold_op(["chrono", "check", "--format", "text"])


class _Draw:
    """Values from a window, without replacement until the window is spent."""

    def __init__(self, rng: random.Random, values):
        self.rng = rng
        self.values = list(values)
        self.left: list = []

    def next(self):
        if not self.left:
            self.left = self.values[:]
            self.rng.shuffle(self.left)
        return self.left.pop()


def _make(workload: str, draw: _Draw, rng: random.Random) -> dict:
    if workload == PI_BIGDIGITS:
        return pi_op(draw.next())
    if workload == CONVERGE_SWEEP:
        return converge_op(["leibniz", rng.choice(CONVERGE_EXTRAS)], draw.next(),
                           rng.choice(CONVERGE_SCALES))
    return cold_op(draw.next())


def _ladder(rng: random.Random, rungs, window: int) -> list[_Draw]:
    """One draw per slot; the slots of one rung share its window."""
    by_rung = {r: _Draw(rng, range(r, r + window)) for r in rungs}
    return [by_rung[r] for r in rungs]


def cycles(workload: str, seed: int):
    """Yield the workload's cycles (lists of ops) forever."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == PI_BIGDIGITS:
        draws = _ladder(rng, PI_RUNGS, PI_WINDOW)
    elif workload == CONVERGE_SWEEP:
        draws = _ladder(rng, CONVERGE_RUNGS, CONVERGE_WINDOW)
    else:
        draws = [_Draw(rng, grid) for grid in COLD_GRIDS.values()]
    while True:
        order = draws[:]
        rng.shuffle(order)
        yield [_make(workload, d, rng) for d in order]
