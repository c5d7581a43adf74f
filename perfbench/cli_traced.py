"""Run one ``supportmonoids`` CLI command with spans installed.

    python3 perfbench/cli_traced.py SUMMARY_FILE SPAWNED_AT ARGS...

SPAWNED_AT is the ``time.monotonic()`` reading taken just before this
process was started.  Stdout and the exit status are the CLI's own; one
JSON line with start-up time, import time, the span summary and the
spans themselves is appended to SUMMARY_FILE.
"""

import time

STARTED = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    summary_file, spawned, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    t0 = time.monotonic()
    cli = importlib.import_module("supportmonoids.cli")
    import_s = time.monotonic() - t0
    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    rc = cli.main(argv)
    record = {"python_startup_s": STARTED - spawned, "import_s": import_s,
              "trace": tracer.summary(), "spans": tracer.spans}
    with open(summary_file, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return rc


if __name__ == "__main__":
    sys.exit(main())
