"""Record the stdout SHA-256 digests the benchmark checks against.

    PYTHONPATH=src python3 bench/record_digests.py

Covers every cli-cold operation (the grids in workloads.py) and the
first cycle of the named converge-sweep seeds.  The committed
digests.json was recorded from the seed commit of the benchmark; re-run
this only when a change is meant to alter CLI output bytes.
"""

import contextlib
import io
import itertools
import json

import madhava.cli as cli

import oracles
import workloads

CONVERGE_NAMED_SEEDS = (1, 2, 3)


def stdout_of(argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited with {code}")
    return buf.getvalue().encode()


def main() -> None:
    ops = [argv for grid in workloads.COLD_GRIDS.values() for argv in grid]
    for seed in CONVERGE_NAMED_SEEDS:
        first = next(itertools.islice(workloads.cycles(workloads.CONVERGE_SWEEP, seed), 1))
        ops.extend(op["argv"] for op in first)
    digests = {workloads.op_key(argv): oracles.digest(stdout_of(argv)) for argv in ops}
    with open(oracles.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {oracles.DIGESTS_PATH.name}")


if __name__ == "__main__":
    main()
