"""Run one treebraid CLI command in this fresh process and report on it.

    python3 child.py SRC_DIR TRACE ARGS...

Imports treebraid from SRC_DIR, calls ``treebraid.cli.main(ARGS)`` with
stdout and stderr captured, and prints one JSON object: the exit code,
the captured output, the set-up time (just before ``import treebraid``
to entry into ``cli.main``), the time inside ``cli.main``, and the peak
RSS of this process.  With TRACE=1 it also records spans and counters
(see tracer.py), rooted at a ``cli.main`` span; installing the tracer
then counts as set-up.
"""
import io
import sys
import time


def main() -> int:
    src, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    from treebraid import cli

    import os
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"treebraid was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    run = cli.main
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    t2 = time.perf_counter()
    try:
        rc = run(argv)
    except Exception:
        import traceback
        traceback.print_exc()
        rc = 1
    finally:
        t3 = time.perf_counter()
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__

    import json
    import resource
    result = {
        "rc": rc,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "setup_s": t2 - t0,
        "wall_s": t3 - t2,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["trace"] = tracer.result()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
