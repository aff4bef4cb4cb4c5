"""Run one notchlab CLI command with spans recorded, for traced runs.

    python perfbench/traced_cli.py SPANS.npz OP_ID <notchlab arguments...>

Exits with the command's exit code and writes its spans to SPANS.npz.
"""

import sys

import notchlab.cli

from tracing import Tracer, save_spans


def main() -> int:
    out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    tracer.op = op
    try:
        return notchlab.cli.run(argv)
    finally:
        save_spans(out, tracer.spans())


if __name__ == "__main__":
    sys.exit(main())
