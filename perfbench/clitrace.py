"""Run one `mjlab` command with the per-layer tracer installed.

    PYTHONPATH=src python3 -X importtime perfbench/clitrace.py OUT.json ARGS...

Imports `mjlab.cli` before anything else, so that the import-time report
covers every import it makes; then runs the command as `mjlab ARGS...`
would, writes the tracer's record and spans to OUT.json, and exits with
the command's exit code (a raw error still ends in a traceback).
"""

import sys

import mjlab.cli

import json  # noqa: E402  (after mjlab.cli on purpose)
import tracer  # noqa: E402


def main(out_path, argv):
    t = tracer.Tracer()
    t.install()
    code = 0
    try:
        code = mjlab.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        t.uninstall()
        with open(out_path, "w") as fh:
            json.dump({"raw": t.raw(), "spans": t.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
