"""Run one depwalk CLI command with spans recorded around each layer.

Usage: python3 perfbench/traced.py SPANS.json -- <depwalk arguments...>

Writes the trace to SPANS.json after the command returns and exits with the
command's status.  ``depwalk`` must be importable (PYTHONPATH=src).
"""

import sys

from tracing import Tracer


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    from depwalk.cli import main as depwalk_main

    with Tracer() as tracer:
        status = depwalk_main(argv[2:])
    tracer.write(argv[0])
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
