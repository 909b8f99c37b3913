"""Warm worker: one process that runs a workload's operations in a closed loop.

    python3 bench/worker.py WORKLOAD SEED SECONDS TRACE

madhava must be importable; run.py puts src/ on PYTHONPATH.  The worker
prints JSON lines to stdout: first {"import_s": ...}, the time taken to
import madhava.cli, then one line per operation, and last
{"measured_s": ...}, the time its whole cycles took.  Each operation
is cli.main(argv) with stdout captured.  With TRACE 1 each operation
runs once untraced and once traced, in alternating order, and its line
carries both times and the traced run's span summary.
"""

import contextlib
import io
import sys
import time


def run_op(cli, argv):
    """(exit code, stdout text, seconds) of one in-process cli.main call."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crashing op is a failed op, not a dead worker
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, buf.getvalue(), elapsed


def main() -> None:
    workload, seed, seconds, trace = (sys.argv[1], int(sys.argv[2]),
                                      float(sys.argv[3]), sys.argv[4] == "1")
    start = time.perf_counter()
    import madhava.cli as cli
    import_s = time.perf_counter() - start

    import json

    import workloads
    from tracer import Tracer

    def emit(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    emit({"import_s": import_s})
    run_op(cli, workloads.warmup_op(workload)["argv"])

    def run_traced(argv):
        tracer = Tracer()
        tracer.install()
        try:
            result = run_op(cli, argv)
        finally:
            tracer.uninstall()
        return result, tracer.summary()

    begin = time.perf_counter()
    deadline = begin + seconds
    done = 0
    for cycle in workloads.cycles(workload, seed):
        for op in cycle:
            # alternate the order so neither run gains from the other's warm-up
            traced_first = trace and done % 2 == 1
            if traced_first:
                traced = run_traced(op["argv"])
            code, text, elapsed = run_op(cli, op["argv"])
            line = {"op": op, "code": code, "out": text, "s": elapsed}
            if trace:
                if not traced_first:
                    traced = run_traced(op["argv"])
                (tcode, ttext, telapsed), summary = traced
                line.update(traced_s=telapsed, traced_same=(tcode, ttext) == (code, text),
                            trace=summary)
            emit(line)
            done += 1
            if trace and time.perf_counter() >= deadline:
                break  # per-layer figures need no whole cycles; keep traced runs short
        if time.perf_counter() >= deadline:
            break
    emit({"measured_s": time.perf_counter() - begin})


if __name__ == "__main__":
    main()
