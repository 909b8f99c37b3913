"""Traced cold launcher: ``python -m madhava.cli ARGS`` with the tracer installed.

    python3 bench/launch.py ARGS...

stdout and the exit code are the CLI's own.  The last line on stderr is
a JSON object with the span summary and ``import_s``, the time taken to
import madhava.cli in this process.
"""

import sys
import time


def main() -> int:
    start = time.perf_counter()
    import madhava.cli as cli
    import_s = time.perf_counter() - start

    import json
    import traceback

    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # still report the spans; the exit code marks the failure
        traceback.print_exc()
        code = 1
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    summary = tracer.summary()
    summary["import_s"] = import_s
    sys.stderr.write("\n" + json.dumps(summary) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
