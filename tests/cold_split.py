"""Where a cold CLI process spends its time.

    python tests/cold_split.py [--runs N]

Times several kinds of fresh process, alternating them N times (default
15) so that machine drift falls on all of them alike, and prints each
one's median wall time:

* `python -c pass`, the bare interpreter;
* the ready probe, as bench/run.py's setup probe: `import madhava.cli`
  and `build_parser()`, then one printed line.  It is timed to that
  line (ready) and to its exit, and the line carries the in-process
  time of the import and of the parser build;
* the same probe calling gc.freeze() after its line, as cli.run does
  before the command, timed to its exit;
* one command from each cli-cold grid of bench/workloads.py (the middle
  entry of the grid), as `python -m madhava.cli ARGS`.

It then splits a cold process: the interpreter (the bare process), the
import and the parser build (in-process), teardown (the probe's exit
minus its ready line, without and with the freeze) and each command's
own share (its process minus the frozen probe's exit, so it also counts
what `-m` adds to `-c`).  Last it prints whether PYTHONDONTWRITEBYTECODE
is set, since without written bytecode every process compiles madhava's
sources again, and the compile() time of each source in src/madhava:
the minimum over N rounds, each round compiling every source once in
turn.
pytest does not collect this file, as its name does not match
test_*.py.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import COLD_GRIDS  # noqa: E402  (bench/workloads.py imports no madhava)


BARE = "python -c pass"
READY = "ready probe"
FROZEN = "ready probe + gc.freeze()"
READY_SOURCE = """\
import time; t0 = time.perf_counter()
import madhava.cli as c; t1 = time.perf_counter()
c.build_parser(); t2 = time.perf_counter()
print("ready", t1 - t0, t2 - t1, flush=True)
"""


def probes() -> dict[str, list[str]]:
    out = {
        BARE: [sys.executable, "-c", "pass"],
        READY: [sys.executable, "-c", READY_SOURCE],
        FROZEN: [sys.executable, "-c", READY_SOURCE + "import gc; gc.freeze()\n"],
    }
    for name, grid in COLD_GRIDS.items():
        argv = grid[len(grid) // 2]
        out[" ".join(argv)] = [sys.executable, "-m", "madhava.cli", *argv]
    return out


class Timing(NamedTuple):
    ready_ms: float  # to the first line of stdout
    exit_ms: float
    first_line: bytes


def timed(cmd: list[str], env: dict[str, str]) -> Timing:
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait()
    end = time.perf_counter()
    if code != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {code}")
    return Timing((ready - start) * 1000, (end - start) * 1000, line)


def compile_ms(source: str, path: Path) -> float:
    start = time.perf_counter()
    compile(source, str(path), "exec")
    return (time.perf_counter() - start) * 1000


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="alternating rounds (default: 15)")
    args = parser.parse_args()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmds = probes()
    for cmd in cmds.values():  # untimed: writes bytecode caches unless told not to
        timed(cmd, env)
    runs: dict[str, list[Timing]] = {name: [] for name in cmds}
    for _ in range(args.runs):
        for name, cmd in cmds.items():
            runs[name].append(timed(cmd, env))

    def median(name, field="exit_ms"):
        return statistics.median(getattr(t, field) for t in runs[name])

    bare = median(BARE)
    print(f"medians of {args.runs} alternating fresh processes, Python {sys.version.split()[0]}")
    print(f"{'ms':>8} {'- bare':>8}  process")
    commands = [name for name in cmds if name not in (BARE, READY, FROZEN)]
    rows = {BARE: bare, f"{READY}: ready line": median(READY, "ready_ms"),
            f"{READY}: exit": median(READY), f"{FROZEN}: exit": median(FROZEN),
            **{name: median(name) for name in commands}}
    for name, ms in rows.items():
        print(f"{ms:8.1f} {ms - bare:8.1f}  {name}")

    ready_lines = [t.first_line.split() for t in runs[READY]]  # b"ready", import_s, parser_s
    frozen_exit = median(FROZEN)
    print("\ncold-start split, medians in ms")
    print(f"{bare:8.1f}  interpreter: {BARE}")
    print(f"{statistics.median(float(w[1]) for w in ready_lines) * 1000:8.1f}  "
          "import madhava.cli, in-process")
    print(f"{statistics.median(float(w[2]) for w in ready_lines) * 1000:8.1f}  "
          "build_parser(), in-process")
    for name in (READY, FROZEN):
        teardown = statistics.median(t.exit_ms - t.ready_ms for t in runs[name])
        print(f"{teardown:8.1f}  teardown: {name}'s exit - its ready line")
    for name in commands:
        print(f"{median(name) - frozen_exit:8.1f}  command: {name} - the frozen probe's exit")
    print(f"\nPYTHONDONTWRITEBYTECODE is {'set' if os.environ.get('PYTHONDONTWRITEBYTECODE') else 'not set'}")
    sources = {path: path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "src" / "madhava").glob("*.py"))}
    compiles: dict[Path, list[float]] = {path: [] for path in sources}
    for _ in range(args.runs):
        for path, source in sources.items():
            compiles[path].append(compile_ms(source, path))
    print(f"minima of {args.runs} interleaved compile() rounds")
    for path, samples in compiles.items():
        print(f"{min(samples):8.2f} ms  compile({path.name})")
    print(f"{sum(min(s) for s in compiles.values()):8.2f} ms  all of src/madhava")
    return 0


if __name__ == "__main__":
    sys.exit(main())
