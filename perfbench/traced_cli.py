"""Run one skewmori command with the tracer installed and save its trace.

    python3 perfbench/traced_cli.py TRACE_JSON <skewmori arguments...>

The command's report goes to stdout exactly as `python -m skewmori.cli`
would write it; the aggregated trace goes to TRACE_JSON.  The exit code is
the command's.
"""

import json
import sys

from tracer import Tracer


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    from skewmori import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_path, "w") as f:
            json.dump(tracer.dump(), f)
    return code


if __name__ == "__main__":
    sys.exit(main())
