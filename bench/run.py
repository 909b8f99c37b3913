"""The madhava benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it puts src/ on the children's
PYTHONPATH, so nothing needs installing.  Workloads (see README.md in
this directory): pi-bigdigits, converge-sweep, cli-cold, or all.

Every workload is a closed loop with one client: each operation starts
when the previous one has ended, and at most one child process is alive
at a time.  Whole cycles of operations run until --seconds have passed
(a traced run stops at the first operation past that).
Every output is checked (oracles.py); a failed check or an unexpected
exit code counts as a failed operation.

--trace 0 measures the end-to-end metrics untraced.  --trace 1 runs
each operation once untraced and once traced, in alternating order, and
reports per-layer call counts and self times (tracer.py) plus the
tracing overhead.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics; the line before it is a
report with the run's conditions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_PROBES = 8  # before the workload, and again after it
PROBE = "import madhava.cli as c; c.build_parser(); print('ready', flush=True)"
CHILD_TIMEOUT_S = 170
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def cpu_probe_ms() -> float:
    """Milliseconds for a fixed pure-Python loop: how fast this machine
    runs interpreter code right now, which the load average does not show
    when other tenants share the cores."""
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return (time.perf_counter() - start) * 1000


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def setup_times(env, probes) -> list[float]:
    """Seconds from spawning an interpreter until madhava.cli is imported
    and its parser built, once per probe."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", PROBE], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        if line != b"ready\n" or proc.returncode != 0:
            raise BenchError("setup probe could not import madhava.cli")
    return times


def spawn(argv, env, capture_stderr=False):
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE if capture_stderr else None,
                              env=env, cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[1:3]} did not finish in {CHILD_TIMEOUT_S} s") from exc
    return proc, time.perf_counter() - start


def run_warm(workload, seed, seconds, trace, env):
    """Run the warm worker; return (records, measured seconds, import times)."""
    argv = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0"]
    proc, _ = spawn(argv, env)
    lines = proc.stdout.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"worker exited with code {proc.returncode}")
    header, *records, footer = (json.loads(line) for line in lines)
    return records, footer["measured_s"], [header["import_s"]]


def run_cold(seed, seconds, trace, env):
    """Spawn one CLI process per operation; same return shape as run_warm."""
    cli = [sys.executable, "-m", "madhava.cli"]
    launcher = [sys.executable, str(BENCH / "launch.py")]
    spawn(cli + workloads.warmup_op(workloads.CLI_COLD)["argv"], env)
    records, import_times = [], []
    begin = time.perf_counter()
    deadline = begin + seconds
    for cycle in workloads.cycles(workloads.CLI_COLD, seed):
        for op in cycle:
            # alternate the order so neither run gains from the other's warm-up
            traced_first = trace and len(records) % 2 == 1
            if traced_first:
                tproc, telapsed = spawn(launcher + op["argv"], env, capture_stderr=True)
            proc, elapsed = spawn(cli + op["argv"], env)
            rec = {"op": op, "code": proc.returncode, "out": proc.stdout, "s": elapsed}
            if trace:
                if not traced_first:
                    tproc, telapsed = spawn(launcher + op["argv"], env, capture_stderr=True)
                summary = json.loads(tproc.stderr.decode().splitlines()[-1])
                import_times.append(summary.pop("import_s"))
                rec.update(traced_s=telapsed, trace=summary,
                           traced_same=(tproc.returncode, tproc.stdout) == (proc.returncode,
                                                                           proc.stdout))
            records.append(rec)
            if trace and time.perf_counter() >= deadline:
                break  # per-layer figures need no whole cycles; keep traced runs short
        if time.perf_counter() >= deadline:
            break
    return records, time.perf_counter() - begin, import_times


def check(rec, digests) -> str | None:
    """Why an operation's result is wrong, or None."""
    op = rec["op"]
    if rec["code"] != 0:
        return f"exit code {rec['code']}"
    out = rec["out"]
    raw = out if isinstance(out, bytes) else out.encode()
    expected = digests.get(workloads.op_key(op["argv"]))
    if expected is not None and (reason := oracles.check_digest(raw, expected)):
        return reason
    if op["kind"] == "pi":
        return oracles.check_pi(raw.decode(), op["digits"])
    if op["kind"] == "converge":
        return oracles.check_converge(raw.decode(), op["series"], op["n_max"], op["scale"])
    if expected is None:
        return "no recorded digest for this operation"
    return None


def check_trace(rec) -> str | None:
    if not rec["traced_same"]:
        return "traced run printed different output"
    if rec["trace"]["self_sum_s"] > rec["traced_s"]:
        return "span self times sum to more than the op's wall time"
    return None


def tail(sorted_values):
    """(value, percentile, samples beyond): the highest percentile that
    still has TAIL_BEYOND samples above it (the maximum if too few)."""
    n = len(sorted_values)
    k = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return sorted_values[k - 1], 100.0 * k / n, n - k


def end_to_end(records, measured_s, setup, failed):
    lat = sorted(r["s"] * 1000 for r in records)
    tail_ms, tail_pct, beyond = tail(lat)
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "op_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "op_tail_ms": {"value": tail_ms, "unit": "ms"},
        "ops_per_s": {"value": len(records) / measured_s, "unit": "1/s"},
        "fail_ratio": {"value": failed / len(records), "unit": "ratio"},
        "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
    }
    extra = {"op_tail_ms": {"percentile": tail_pct, "samples": len(lat),
                            "samples_beyond": beyond}}
    return metrics, extra


def per_layer(records, import_times):
    n = len(records)
    spans = defaultdict(lambda: [0, 0.0])
    stats = defaultdict(int)
    for rec in records:
        for name, (calls, self_s) in rec["trace"]["spans"].items():
            spans[name][0] += calls
            spans[name][1] += self_s
        for key, value in rec["trace"]["stats"].items():
            if key == "bigfixed.divmod.max_digits":
                stats[key] = max(stats[key], value)
            else:
                stats[key] += value
    metrics = {}
    for name in tracer.SPAN_NAMES:
        metrics[f"{name}.calls"] = {"value": spans[name][0] / n, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": spans[name][1] / n, "unit": "s"}
    metrics["bigfixed.divmod.max_digits"] = {
        "value": stats["bigfixed.divmod.max_digits"], "unit": "digits"}
    for key in ("pi_series.terms_summed", "pi_series.pi_reference.fresh"):
        metrics[key] = {"value": stats[key] / n, "unit": "count"}
    lookups = stats["trig_series.coeff_table.hits"] + stats["trig_series.coeff_table.misses"]
    metrics["trig_series.coeff_table.hit_ratio"] = {
        "value": stats["trig_series.coeff_table.hits"] / lookups if lookups else 0.0,
        "unit": "ratio"}
    metrics["cli.import_s"] = {"value": statistics.median(import_times), "unit": "s"}
    untraced = statistics.median(r["s"] for r in records)
    traced = statistics.median(r["traced_s"] for r in records)
    metrics["trace.overhead_ratio"] = {"value": traced / untraced, "unit": "ratio"}
    return metrics


def run_workload(workload, seed, seconds, trace, digests):
    """(report, result) for one workload; result is the contract's last line."""
    env = child_env()
    load_before, probe_before = os.getloadavg(), cpu_probe_ms()
    setup_times(env, 1)  # untimed: writes bytecode caches, as installing does
    setup = setup_times(env, SETUP_PROBES)
    if workload == workloads.CLI_COLD:
        records, measured_s, import_times = run_cold(seed, seconds, trace, env)
    else:
        records, measured_s, import_times = run_warm(workload, seed, seconds, trace, env)
    setup += setup_times(env, SETUP_PROBES)
    load_after, probe_after = os.getloadavg(), cpu_probe_ms()

    failures = []
    for rec in records:
        reason = check(rec, digests) or (check_trace(rec) if trace else None)
        if reason:
            failures.append(f"{workloads.op_key(rec['op']['argv'])}: {reason}")
    if trace:
        metrics, extra = per_layer(records, import_times), {}
    else:
        metrics, extra = end_to_end(records, measured_s, setup, len(failures))
    report = {
        "workload": workload,
        "trace": int(trace),
        "metrics": metrics,
        "metric_details": extra,
        "conditions": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_before": load_before,
            "loadavg_after": load_after,
            "cpu_probe_ms_before": probe_before,
            "cpu_probe_ms_after": probe_after,
            "seed": seed,
            "ops": len(records),
            "run_seconds": seconds,
            "measured_s": measured_s,
            "setup_probes_s": setup,
        },
        "failures": failures[:5],
    }
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: v for k, v in metrics.items() if k != "fail_ratio"},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if not (SRC / "madhava" / "cli.py").is_file():
            raise BenchError(f"no madhava sources under {SRC}")
        digests = oracles.load_digests()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {}
        for name in names:
            report, results[name] = run_workload(name, args.seed, args.seconds,
                                                 bool(args.trace), digests)
            print(json.dumps(report), flush=True)
    except (BenchError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
