"""Where a cold CLI process spends its time.

    python tests/cold_split.py [--runs N]

Times three kinds of fresh process, alternating them N times (default
15) so that machine drift falls on all of them alike, and prints each
one's median wall time:

* `python -c pass`, the bare interpreter;
* `import madhava.cli` and `build_parser()`, with nothing run;
* one command from each cli-cold grid of bench/workloads.py (the middle
  entry of the grid), as `python -m madhava.cli ARGS`.

The difference to the bare interpreter is madhava's own share.  It then
prints whether PYTHONDONTWRITEBYTECODE is set, since without written
bytecode every process compiles madhava's sources again, and the
compile() time of each source in src/madhava: the minimum over N
rounds, each round compiling every source once in turn.
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

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

from workloads import COLD_GRIDS  # noqa: E402  (bench/workloads.py imports no madhava)


def probes() -> dict[str, list[str]]:
    out = {
        "python -c pass": [sys.executable, "-c", "pass"],
        "import + build_parser": [sys.executable, "-c",
                                  "import madhava.cli as c; c.build_parser()"],
    }
    for name, grid in COLD_GRIDS.items():
        argv = grid[len(grid) // 2]
        out[" ".join(argv)] = [sys.executable, "-m", "madhava.cli", *argv]
    return out


def wall_ms(cmd: list[str], env: dict[str, str]) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, check=True)
    return (time.perf_counter() - start) * 1000


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
        wall_ms(cmd, env)
    times: dict[str, list[float]] = {name: [] for name in cmds}
    for _ in range(args.runs):
        for name, cmd in cmds.items():
            times[name].append(wall_ms(cmd, env))
    bare = statistics.median(times["python -c pass"])
    print(f"medians of {args.runs} alternating fresh processes, Python {sys.version.split()[0]}")
    print(f"{'ms':>8} {'- bare':>8}  process")
    for name, samples in times.items():
        ms = statistics.median(samples)
        print(f"{ms:8.1f} {ms - bare:8.1f}  {name}")
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
