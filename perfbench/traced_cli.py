"""Run one eqsing CLI request in this fresh process with spans recorded.

    python3 perfbench/traced_cli.py SPANS_OUT ARG...

behaves like the `eqsing ARG...` console script (same stdout, stderr and
exit code; eqsing must be importable) and writes the span record and the time
`import eqsing.cli` took to SPANS_OUT as JSON.
"""
import json
import sys
import time

from tracing import Tracer


def main():
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter()
    import eqsing.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code, _seconds = tracer.run(lambda: eqsing.cli.main(argv))
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    record = tracer.record()
    record["import_s"] = import_s
    with open(out_path, "w") as fh:
        json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
