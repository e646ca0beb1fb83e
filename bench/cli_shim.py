"""Traced stand-in for ``python -m ecq.cli ARGS``, used by the cli workload's
traced run.

It takes the clock before anything else is imported, imports ``ecq.cli``,
installs the tracer, runs ``ecq.cli.main(ARGS)`` with the real stdout, and
exits with main's return code. After stdout is flushed it writes one report
line on stderr: the start and import timestamps (``time.monotonic``, the
clock the parent used when it spawned this process) and every span.
"""

import time

STARTED = time.monotonic()

import sys  # noqa: E402

import ecq.cli  # noqa: E402

IMPORTED = time.monotonic()

import json  # noqa: E402

from tracer import SHIM_MARK, Tracer  # noqa: E402


def main() -> int:
    tracer = Tracer()
    tracer.install()
    try:
        code = ecq.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    report = {"started": STARTED, "imported": IMPORTED, "spans": tracer.spans}
    sys.stderr.write(SHIM_MARK + json.dumps(report) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
