"""Run one pvi CLI call under the tracer; used by traced cli-cold runs.

Usage: python3 perfbench/clitrace.py <pvi arguments...>

stdout and the exit code are the CLI's own.  The trace is written to
stderr as one JSON line that starts with TRACE_MARK.
"""
import json
import sys
from time import perf_counter

from tracer import CLI_TARGETS, LAYER_TARGETS, PACKAGE, ROOT_SPAN, TRACE_MARK, Tracer


def main(argv) -> int:
    tracer = Tracer()
    tracer.count_fractions()
    tracer.count_samples()
    tracer.install(LAYER_TARGETS + CLI_TARGETS)
    cli = sys.modules[f"{PACKAGE}.cli"]
    t0 = perf_counter()
    with tracer.span(ROOT_SPAN):
        code = cli.main(argv)
    payload = tracer.export()
    payload["wall_s"] = perf_counter() - t0
    sys.stdout.flush()
    sys.stderr.write(TRACE_MARK + json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
