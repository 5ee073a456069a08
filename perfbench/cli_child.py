"""Traced CLI process: ``python -X importtime cli_child.py SPANS_FILE ARGS...``.

Imports ``warpgeo.cli`` (timed by ``-X importtime``), installs the tracer,
runs ``warpgeo.cli.main(ARGS)``, saves its spans to SPANS_FILE and prints
the tracer's raw counters as the last stderr line, after ``MARKER``.  The
exit status is the CLI's own.
"""

import json
import sys

MARKER = "@@perfbench-trace "


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import warpgeo.cli

    from tracer import Tracer

    with Tracer() as tracer:
        code = warpgeo.cli.main(argv)
    sys.stdout.flush()
    tracer.save(spans_file)
    sys.stderr.write("\n" + MARKER + json.dumps(tracer.raw()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
