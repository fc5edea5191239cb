"""``fanobase.cli`` with the tracer installed, for traced verify-paper operations.

Runs ``fanobase.cli.main`` on the given arguments and writes the trace
snapshot as one JSON line to standard error.  Importing the package is
not traced here; the cold-start decomposition in ``run.py`` measures it.
"""

import json
import sys

import fanobase.cli
from tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    tracer.install()
    try:
        code = fanobase.cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    print(json.dumps(tracer.snapshot()), file=sys.stderr)
    raise SystemExit(code)
