"""Run one `cellload.cli.main(argv)` call under the tracer, in a fresh
interpreter so that every cache starts cold as it does for a CLI user.

    python perfbench/cli_child.py <parent span id> <span id prefix> <cli argv...>

Prints one JSON object: the exit code, the report the command wrote to
stdout, and the recorded spans.  The caller needs `src` on PYTHONPATH.
"""

import contextlib
import io
import json
import sys

import spans
from cellload import cli


def main(argv):
    parent, prefix, cli_argv = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer(prefix=prefix, parent=parent)
    tracer.install()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(cli_argv)
    json.dump({"rc": code, "stdout": out.getvalue(), "spans": tracer.spans}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
